"""Random object generation with deterministic per-trial streams.

All randomness flows through numpy's Philox counter-based bit generator.
A stream is addressed by (seed, *path): ``stream(seed, TRIAL_DOMAIN, k)``
is the stream of trial k, ``stream(seed, SETUP_DOMAIN)`` the one used for
shared setup objects.  Streams with different paths are statistically
independent and reproducible regardless of execution order or worker count.

``trial_streams(seed, ks)`` yields the streams of many trials at once: their
Philox keys come from one vectorised pass of numpy's SeedSequence hash
(`philox_keys`), and one Philox is re-keyed per trial.  Each trial draws
exactly the values of its own ``trial_stream(seed, k)``.
"""

from __future__ import annotations

import numbers

import numpy as np

from .hamiltonians import GapReport, Hamiltonian, gap_analysis
from .linalg import BLOCK_ENTRIES, dagger

__all__ = [
    "SETUP_DOMAIN",
    "TRIAL_DOMAIN",
    "stream",
    "trial_stream",
    "philox_keys",
    "trial_streams",
    "complex_normal_rows",
    "haar_coefficient_blocks",
    "haar_unitary",
    "sample_haar_state",
    "sample_product_state",
    "sample_spectrum",
    "certify_spectrum",
    "sample_random_hamiltonian",
    "sample_gue",
    "harmonic_mean",
    "mean_energy_coefficients",
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence splits it."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(...).generate_state(2, np.uint64) for every row of an
    (n, L) uint32 entropy matrix (L > pool size), as (n, 2) uint64.

    The hash constants evolve independently of the data, so they stay Python
    integers; only the mixed words are arrays, and uint32 array arithmetic
    wraps modulo 2**32 as the reference does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    words = []
    for value in pool:      # generate_state: 4 uint32 words, one per pool entry
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([words[0] | (words[1] << np.uint64(32)),
                     words[2] | (words[3] << np.uint64(32))], axis=1)


def philox_keys(seed: int, ks) -> np.ndarray:
    """(len(ks), 2) uint64 Philox keys of trial_stream(seed, k) for every k.

    A vectorised port of numpy's public SeedSequence hash: row i equals
    SeedSequence(seed, spawn_key=(TRIAL_DOMAIN, ks[i])).generate_state(2, np.uint64).
    Indices must lie below 2**63.  A negative seed or index raises ValueError,
    as SeedSequence does.
    """
    head = _uint32_words(seed)
    head += [0] * (_POOL_SIZE - len(head))    # SeedSequence pads a spawned entropy
    head += _uint32_words(TRIAL_DOMAIN)
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if (ks < 0).any():
        raise ValueError("expected non-negative integer")
    keys = np.empty((len(ks), 2), dtype=np.uint64)
    wide = ks > _MASK32                       # indices of two 32-bit words
    for rows, width in ((~wide, 1), (wide, 2)):
        if rows.any():
            entropy = np.empty((int(rows.sum()), len(head) + width), dtype=np.uint32)
            entropy[:, :len(head)] = head
            for j in range(width):
                entropy[:, len(head) + j] = (ks[rows] >> (32 * j)) & _MASK32
            keys[rows] = _seed_sequence_keys(entropy)
    return keys


def trial_streams(seed: int, ks):
    """Yield, for every trial index k in ks in order, a generator that draws
    exactly the values of trial_stream(seed, k).

    One Philox is pointed at each trial's key in turn (counter and buffer
    reset), so a yielded generator is valid only until the next one is taken.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for key in philox_keys(seed, ks):
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


def complex_normal_rows(rngs, d: int) -> np.ndarray:
    """(n, d) complex normals from n generators: row i holds the values of
    rng.standard_normal(d) + 1j * rng.standard_normal(d) for the i-th
    generator, drawn as one (2, d) block.  rngs may be a lazy iterable such
    as the streams of `trial_streams`."""
    x = np.array([rng.standard_normal((2, d)) for rng in rngs]).reshape(-1, 2, d)
    return x[:, 0] + 1j * x[:, 1]


def haar_coefficient_blocks(n: int, d: int, rng: np.random.Generator):
    """Yield n Haar-random coefficient rows in blocks of max(1, BLOCK_ENTRIES // d)
    rows, so memory does not grow with n.  Row i is bitwise the normalised
    complex_normal_rows row of its own rng.standard_normal((2, d)) draw: the
    real parts of a sample, then its imaginary parts, one sample after the
    other.  Take every block before drawing anything else from rng."""
    rows = max(1, BLOCK_ENTRIES // d)
    for lo in range(0, n, rows):
        x = rng.standard_normal((min(rows, n - lo), 2, d))
        z = x[:, 0] + 1j * x[:, 1]
        yield z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_unitary(d: int, rng: np.random.Generator, columns: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix, or with
    `columns` = k only its first k columns (a Haar isometry, d x k): the thin
    QR of a d x k Ginibre matrix (Mezzadri, Notices AMS 54, 592 (2007)).

    The real parts of the Ginibre matrix are drawn first, then its imaginary
    parts.  The R-diagonal phases are absorbed to make each diagonal entry of
    the triangular factor real positive, which removes the non-uniformity of a
    naive orthonormalization.
    """
    z = np.empty((d, d if columns is None else columns), dtype=complex)
    z.real = rng.standard_normal(z.shape)
    z.imag = rng.standard_normal(z.shape)
    q, r = np.linalg.qr(z)
    ph = r.diagonal() / np.abs(r.diagonal())
    q *= ph.conj()
    return q


def _gaussian_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


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
        return _gaussian_unit_vector(int(subspace_basis), rng)
    v = np.asarray(subspace_basis, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[1] == 0:
        raise ValueError("empty basis")
    psi = v @ _gaussian_unit_vector(v.shape[1], rng)
    # |V c| = 1 for a random unit c only if V^dagger V = 1
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("subspace basis is not orthonormal")
    return psi


def sample_product_state(d_s: int, d_b: int, rng: np.random.Generator) -> np.ndarray:
    """np.kron of independent Haar-random factors on the d_s- and
    d_b-dimensional spaces, the S factor drawn first; Schmidt rank 1 by
    construction."""
    return np.kron(sample_haar_state(d_s, rng), sample_haar_state(d_b, rng))


_JITTER_ROUNDS = 100   # certify_spectrum's jitter attempts before it gives up


def sample_spectrum(d: int, rng: np.random.Generator, spectrum=(0.0, 1.0)) -> np.ndarray:
    """d i.i.d. uniform eigenvalues on the interval spectrum = (lo, hi), ascending."""
    lo, hi = spectrum
    return np.sort(lo + (hi - lo) * rng.random(d))


def certify_spectrum(e: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, GapReport]:
    """(e, gap_analysis(e)) once the ascending spectrum e is non-resonant: each
    round adds i.i.d. uniform jitter of magnitude 1e-6 x spectral width and
    retests against hamiltonians.DEFAULT_GAP_TOL, at most _JITTER_ROUNDS times."""
    width = float(e[-1] - e[0]) or 1.0
    report = gap_analysis(e)
    rounds = 0
    while not report.non_resonant:
        if rounds >= _JITTER_ROUNDS:
            raise RuntimeError(f"could not reach non-resonance at tol {report.tolerance} "
                               f"in {_JITTER_ROUNDS} rounds")
        e = np.sort(e + rng.uniform(-1e-6 * width, 1e-6 * width, len(e)))
        report = gap_analysis(e)
        rounds += 1
    return e, report


def sample_random_hamiltonian(dims: tuple[int, int], rng: np.random.Generator,
                              spectrum=(0.0, 1.0)) -> Hamiltonian:
    """Random Hamiltonian on dims = (d_S, d_B): sample_spectrum,
    certify_spectrum, then a Haar eigenbasis."""
    d = dims[0] * dims[1]
    e, report = certify_spectrum(sample_spectrum(d, rng, spectrum), rng)
    return Hamiltonian(e, haar_unitary(d, rng), dims=dims, gap_report=report)


def sample_gue(d: int, rng: np.random.Generator, norm: float = 1.0,
               traceless: bool = False) -> np.ndarray:
    """A GUE matrix (Z + Z^dagger)/2 of a complex Ginibre d x d matrix Z (real
    parts drawn first), made traceless on request, then scaled to operator
    norm `norm`."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + dagger(z)) / 2
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    h *= norm / np.abs(np.linalg.eigvalsh(h)).max()
    return h


def harmonic_mean(spectrum) -> float:
    e = np.asarray(spectrum, dtype=float)
    if np.any(e <= 0):
        raise ValueError("harmonic mean needs a strictly positive spectrum")
    return len(e) / float((1.0 / e).sum())


def mean_energy_coefficients(spectrum, energy: float, rngs) -> np.ndarray:
    """Mean-energy-ensemble eigenbasis coefficients for a spectrum, one row per stream.

    From each generator in rngs, the real and then the imaginary parts of
    the coefficients c_k are drawn from zero-mean normals with standard
    deviation sqrt(E/(d E_k)); each row is then normalized.  rngs may be a
    lazy iterable such as the streams of `trial_streams`.  The ensemble's mean
    energy is close to E when E is the harmonic mean of the spectrum
    (harmonic_mean); validity is established empirically by comparing the
    sample-mean energy against E.
    """
    e = np.asarray(spectrum, dtype=float)
    if np.any(e <= 0):
        raise ValueError("mean energy sampler needs a strictly positive spectrum")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy!r}")
    c = np.sqrt(energy / (len(e) * e)) * complex_normal_rows(rngs, len(e))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def sample_mean_energy_state(h: Hamiltonian, energy: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Approximate sample from the mean energy ensemble at the given energy:
    the state with the coefficients of mean_energy_coefficients."""
    c = mean_energy_coefficients(h.eigenvalues, energy, [rng])[0]
    return h.eigenbasis @ c
