"""Random object generation with deterministic per-trial streams.

All randomness flows through numpy's Philox counter-based bit generator.
A stream is addressed by (seed, *path): ``stream(seed, TRIAL_DOMAIN, k)``
is the stream of trial k, ``stream(seed, SETUP_DOMAIN)`` the one used for
shared setup objects.  Streams with different paths are statistically
independent and reproducible regardless of execution order or worker count.
"""

from __future__ import annotations

import numpy as np

from .hamiltonians import DEFAULT_GAP_TOL, Hamiltonian, gap_analysis
from .states import PureState

__all__ = [
    "SETUP_DOMAIN",
    "TRIAL_DOMAIN",
    "stream",
    "trial_stream",
    "haar_unitary",
    "canonical_subspace_basis",
    "sample_haar_state",
    "sample_product_state",
    "sample_random_hamiltonian",
    "harmonic_mean",
    "shift_for_harmonic_mean",
    "sample_mean_energy_state",
]

SETUP_DOMAIN = 0
TRIAL_DOMAIN = 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic Philox stream addressed by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Stream owned by one trial; independent across trial indices."""
    return stream(seed, TRIAL_DOMAIN, trial_index)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are absorbed to make each diagonal entry of the
    triangular factor real positive, which removes the non-uniformity of a
    naive orthonormalization.
    """
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = r.diagonal() / np.abs(r.diagonal())
    return q * ph.conj()


def canonical_subspace_basis(d: int, indices) -> np.ndarray:
    """(d, len(indices)) matrix whose columns are canonical basis vectors."""
    idx = list(indices)
    b = np.zeros((d, len(idx)), dtype=complex)
    for col, i in enumerate(idx):
        b[i, col] = 1.0
    return b


def _gaussian_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def sample_haar_state(subspace_basis, rng: np.random.Generator,
                      dims: tuple[int, int] | None = None) -> PureState:
    """Haar-random pure state on the span of the given orthonormal columns.

    A complex-Gaussian coefficient vector is normalized and mapped through
    the basis, which is exactly the uniform measure on the subspace sphere.
    """
    v = np.asarray(subspace_basis, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[1] == 0:
        raise ValueError("empty subspace basis")
    a = _gaussian_unit_vector(v.shape[1], rng)
    return PureState(v @ a, dims=dims)


def sample_product_state(basis_s, basis_b, rng: np.random.Generator) -> PureState:
    """Product of independent Haar-random factors; Schmidt rank 1 by construction."""
    bs = np.asarray(basis_s, dtype=complex)
    bb = np.asarray(basis_b, dtype=complex)
    if bs.ndim == 1:
        bs = bs[:, None]
    if bb.ndim == 1:
        bb = bb[:, None]
    if bs.shape[1] == 0 or bb.shape[1] == 0:
        raise ValueError("empty factor basis")
    psi_s = bs @ _gaussian_unit_vector(bs.shape[1], rng)
    psi_b = bb @ _gaussian_unit_vector(bb.shape[1], rng)
    return PureState(np.kron(psi_s, psi_b), dims=(bs.shape[0], bb.shape[0]))


def sample_random_hamiltonian(spectrum_spec, dims, rng: np.random.Generator,
                              gap_tol: float = DEFAULT_GAP_TOL,
                              max_jitter_rounds: int = 100) -> Hamiltonian:
    """Random Hamiltonian: Haar eigenbasis, spectrum jittered until non-resonant.

    spectrum_spec: explicit array of d eigenvalues, a ("uniform", lo, hi)
    tuple, or None for i.i.d. uniform on [0, 1].  dims is (d_S, d_B) or an
    integer dimension.  Jitter adds i.i.d. uniform perturbations of magnitude
    1e-6 x spectral width and retests, at most max_jitter_rounds times.
    """
    if isinstance(dims, int):
        dims = (dims, 1)
    d = dims[0] * dims[1]
    if spectrum_spec is None:
        e = rng.random(d)
    elif isinstance(spectrum_spec, tuple) and spectrum_spec[0] == "uniform":
        _, lo, hi = spectrum_spec
        e = lo + (hi - lo) * rng.random(d)
    else:
        e = np.asarray(spectrum_spec, dtype=float).copy()
        if len(e) != d:
            raise ValueError(f"spectrum has {len(e)} values, expected {d}")
    e = np.sort(e)
    width = float(e[-1] - e[0]) or 1.0
    report = gap_analysis(e, gap_tol)
    rounds = 0
    while not report.non_resonant:
        if rounds >= max_jitter_rounds:
            raise RuntimeError(
                f"could not reach non-resonance at tol {gap_tol} in {max_jitter_rounds} rounds")
        e = np.sort(e + rng.uniform(-1e-6 * width, 1e-6 * width, d))
        report = gap_analysis(e, gap_tol)
        rounds += 1
    v = haar_unitary(d, rng)
    return Hamiltonian(e, v, dims=dims, gap_report=report)


def harmonic_mean(spectrum) -> float:
    e = np.asarray(spectrum, dtype=float)
    if np.any(e <= 0):
        raise ValueError("harmonic mean needs a strictly positive spectrum")
    return len(e) / float((1.0 / e).sum())


def shift_for_harmonic_mean(spectrum, energy: float, rtol: float = 1e-9) -> float:
    """Shift a such that the harmonic mean of {E_k + a} equals energy + a.

    Valid only for energy strictly between the ground state energy and the
    arithmetic mean; found by bisection (the defect is monotone in a).
    """
    e = np.asarray(spectrum, dtype=float)
    e0 = float(e.min())
    e_mean = float(e.mean())
    if np.allclose(e, e[0]) and abs(energy - e0) <= rtol * max(1.0, abs(e0)):
        return 0.0
    if not (e0 < energy < e_mean):
        raise ValueError(
            f"no valid shift: energy {energy!r} not strictly between the ground state "
            f"energy {e0!r} and the mean energy {e_mean!r}")

    def defect(a: float) -> float:
        return harmonic_mean(e + a) - (energy + a)

    width = max(e_mean - e0, 1.0)
    lo = -e0 + 1e-12 * width
    while harmonic_mean(e + lo) >= energy + lo:
        lo = -e0 + 0.5 * (lo + e0)  # move closer to -e0 where HM -> 0
        if lo + e0 < 1e-300:
            raise ValueError("bisection bracket collapse near the ground state")
    hi = max(1.0, -e0 + width)
    while defect(hi) <= 0:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("no upper bracket for the harmonic-mean shift")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if defect(mid) > 0:
            hi = mid
        else:
            lo = mid
        if abs(harmonic_mean(e + mid) - (energy + mid)) <= rtol * abs(energy + mid):
            return mid
    return 0.5 * (lo + hi)


def sample_mean_energy_state(h: Hamiltonian, energy: float,
                             rng: np.random.Generator) -> PureState:
    """Approximate sample from the mean energy ensemble at the given energy.

    Real and imaginary parts of the eigenbasis coefficients c_k are drawn
    from zero-mean normals with standard deviation sqrt(E/(d E_k)), then the
    vector is normalized.  The caller is responsible for shifting the
    spectrum (shift_for_harmonic_mean) so that E is close to the harmonic
    mean; validity is established empirically by comparing the sample-mean
    energy against E.
    """
    e = h.eigenvalues
    if np.any(e <= 0):
        raise ValueError("mean energy sampler needs a strictly positive spectrum")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    sigma = np.sqrt(energy / (h.dim * e))
    c = sigma * (rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim))
    c /= np.linalg.norm(c)
    return PureState(h.eigenbasis @ c, dims=h.dims)
