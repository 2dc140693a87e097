"""Random object generation with deterministic per-trial streams.

All randomness flows through numpy's Philox counter-based bit generator.
A stream is addressed by (seed, *path): ``stream(seed, SETUP_DOMAIN)`` is the
one used for shared setup objects, ``stream(seed, TRIAL_DOMAIN)`` the root of
the trial streams.  Streams with different paths are statistically independent
and reproducible regardless of execution order or worker count.

Trial k owns the trial root jumped k times: the same Philox key with the
256-bit counter [0, 0, k, 0], which is what ``Philox.jumped(k)`` sets.  Philox
is counter-based, so disjoint counter ranges are independent streams (Salmon,
Moraes, Dror & Shaw, SC'11); each jump spans 2**128 counter values.
``trial_streams(seed, ks)`` yields the streams of many trials from one Philox,
and ``trial_stream(seed, k)`` is the same derivation for one trial.
"""

from __future__ import annotations

import numbers

import numpy as np

from .hamiltonians import Hamiltonian
from .linalg import BLOCK_ENTRIES, dagger, hermitian_spectrum

__all__ = [
    "SETUP_DOMAIN",
    "TRIAL_DOMAIN",
    "stream",
    "trial_stream",
    "trial_streams",
    "complex_normals",
    "haar_coefficient_blocks",
    "haar_unitary",
    "sample_haar_state",
    "sample_product_state",
    "sample_spectrum",
    "redraw_until_non_resonant",
    "sample_random_hamiltonian",
    "sample_gue",
    "harmonic_mean",
    "mean_energy_coefficients",
]

SETUP_DOMAIN = 0
TRIAL_DOMAIN = 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic Philox stream addressed by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Stream owned by one trial: the draws of trial_streams(seed, (trial_index,))."""
    return next(trial_streams(seed, (trial_index,)))


def trial_streams(seed: int, ks):
    """Yield, for every trial index k in ks in order, the stream of trial k:
    stream(seed, TRIAL_DOMAIN) jumped k times, i.e. its Philox key with the
    256-bit counter [0, 0, k, 0], as Philox.jumped(k) sets it.

    One Philox is pointed at each trial's counter in turn (buffer reset), so a
    yielded generator is valid only until the next one is taken.  A trial
    index outside [0, 2**64) raises ValueError.
    """
    bit_generator = stream(seed, TRIAL_DOMAIN).bit_generator
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    counter = state["state"]["counter"]
    for k in ks:
        if not 0 <= k < 2**64:
            raise ValueError(f"trial index must lie in [0, 2**64), got {k}")
        counter[2] = k
        bit_generator.state = state
        yield rng


def complex_normals(n: int, shape: tuple, rng) -> np.ndarray:
    """n complex standard-normal samples of the given shape, (n, *shape), the
    package's one Gaussian draw: rng.standard_normal((n, 2, *shape)), each
    sample's real parts, then its imaginary parts.  rng may also be an iterable
    of n generators, such as `trial_streams`: row i is then drawn from the i-th
    as it is taken, bitwise (and leaving it) as complex_normals(1, shape, g)
    does, the iterable is run to its end, and another count raises ValueError."""
    if hasattr(rng, "standard_normal"):     # one generator
        x = rng.standard_normal((n, 2, *shape))
    else:
        x = np.empty((n, 2, *shape))
        for row, g in zip(x, rng, strict=True):
            g.standard_normal(out=row)
    z = x[:, 0].astype(complex)
    z.imag = x[:, 1]
    return z


def haar_coefficient_blocks(n: int, d: int, rng: np.random.Generator):
    """Yield n Haar-random coefficient rows in blocks of max(1, BLOCK_ENTRIES // d)
    rows, so memory does not grow with n: normalised complex_normals, so row i is
    bitwise the i-th normalised one-sample draw of rng.  Take every block before
    drawing anything else from rng."""
    rows = max(1, BLOCK_ENTRIES // d)
    for lo in range(0, n, rows):
        z = complex_normals(min(rows, n - lo), (d,), rng)
        yield z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_unitary(d: int, rng: np.random.Generator, columns: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix, or with
    `columns` = k only its first k columns (a Haar isometry, d x k): the thin
    QR of a d x k Ginibre matrix (Mezzadri, Notices AMS 54, 592 (2007)).

    The Ginibre matrix is one complex_normals sample.  The R-diagonal phases
    are absorbed to make each diagonal entry of the triangular factor real
    positive, which removes the non-uniformity of a naive orthonormalization.
    """
    (z,) = complex_normals(1, (d, d if columns is None else columns), rng)
    q, r = np.linalg.qr(z)
    ph = r.diagonal() / np.abs(r.diagonal())
    q *= ph.conj()
    return q


def sample_haar_state(subspace_basis, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector on the span of the given orthonormal columns,
    or on the whole space when given an integer dimension d: the Gaussian
    coefficients are then returned as they are, bitwise what the d x d
    identity basis gives, without building it.

    A complex-Gaussian coefficient vector is normalized and mapped through
    the basis, which is exactly the uniform measure on the subspace sphere.
    """
    if isinstance(subspace_basis, numbers.Integral):
        if subspace_basis < 1:
            raise ValueError(f"empty space: dimension {subspace_basis}")
        (z,) = complex_normals(1, (int(subspace_basis),), rng)
        return z / np.linalg.norm(z)
    v = np.asarray(subspace_basis, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[1] == 0:
        raise ValueError("empty basis")
    psi = v @ sample_haar_state(v.shape[1], rng)
    # |V c| = 1 for a random unit c only if V^dagger V = 1
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("subspace basis is not orthonormal")
    return psi


def sample_product_state(d_s: int, d_b: int, rng: np.random.Generator) -> np.ndarray:
    """np.kron of independent Haar-random factors on the d_s- and
    d_b-dimensional spaces, the S factor drawn first; Schmidt rank 1 by
    construction."""
    return np.kron(sample_haar_state(d_s, rng), sample_haar_state(d_b, rng))


_MAX_DRAWS = 100   # redraw_until_non_resonant's draws before it gives up


def sample_spectrum(d: int, rng: np.random.Generator, spectrum=(0.0, 1.0)) -> np.ndarray:
    """d i.i.d. uniform eigenvalues on the interval spectrum = (lo, hi), ascending."""
    lo, hi = spectrum
    return np.sort(lo + (hi - lo) * rng.random(d))


def redraw_until_non_resonant(draw):
    """The first Hamiltonian of draw() whose gap_report is non-resonant at
    hamiltonians.DEFAULT_GAP_TOL, the package's one non-resonance policy: the
    result's law is draw()'s conditioned on that certificate.  Gives up with
    RuntimeError after _MAX_DRAWS draws."""
    for _ in range(_MAX_DRAWS):
        h = draw()
        if h.gap_report.non_resonant:
            return h
    raise RuntimeError(f"could not reach non-resonance at tol {h.gap_report.tolerance} "
                       f"in {_MAX_DRAWS} draws")


def sample_random_hamiltonian(dims: tuple[int, int], rng: np.random.Generator,
                              spectrum=(0.0, 1.0)) -> Hamiltonian:
    """Random Hamiltonian on dims = (d_S, d_B): a sample_spectrum redrawn
    until non-resonant, then a Haar eigenbasis."""
    d = dims[0] * dims[1]
    h = redraw_until_non_resonant(lambda: Hamiltonian(sample_spectrum(d, rng, spectrum)))
    return Hamiltonian(h.eigenvalues, haar_unitary(d, rng), dims=dims, gap_report=h.gap_report)


def sample_gue(d: int, rng: np.random.Generator, norm: float = 1.0,
               traceless: bool = False) -> np.ndarray:
    """A GUE matrix (Z + Z^dagger)/2 of a complex Ginibre d x d matrix Z (one
    complex_normals sample), made traceless on request, then scaled to
    operator norm `norm`."""
    (z,) = complex_normals(1, (d, d), rng)
    h = (z + dagger(z)) / 2
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    h *= norm / np.abs(hermitian_spectrum(h)).max()
    return h


def harmonic_mean(spectrum) -> float:
    e = np.asarray(spectrum, dtype=float)
    if np.any(e <= 0):
        raise ValueError("harmonic mean needs a strictly positive spectrum")
    return len(e) / float((1.0 / e).sum())


def mean_energy_coefficients(spectrum, energy: float, n: int, rngs) -> np.ndarray:
    """Mean-energy-ensemble eigenbasis coefficients for a spectrum, n rows.

    The real and then the imaginary parts of the coefficients c_k are drawn
    from zero-mean normals with standard deviation sqrt(E/(d E_k)), one row
    per generator of rngs (complex_normals's two forms: one generator, or an
    iterable of n such as the streams of `trial_streams`); each row is then
    normalized.  The ensemble's mean energy is close to E when E is the
    harmonic mean of the spectrum (harmonic_mean); validity is established
    empirically by comparing the sample-mean energy against E.
    """
    e = np.asarray(spectrum, dtype=float)
    if np.any(e <= 0):
        raise ValueError("mean energy sampler needs a strictly positive spectrum")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    c = np.sqrt(energy / (len(e) * e)) * complex_normals(n, (len(e),), rngs)
    return c / np.linalg.norm(c, axis=1, keepdims=True)
