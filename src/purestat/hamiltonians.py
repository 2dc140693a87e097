"""Hamiltonians: spectra, gap structure, evolution operators, decompositions.

Energies are in units with hbar = 1, so time carries units of 1/energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import dagger, hermitian_eig, partial_trace, operator_norm, tensor_product

__all__ = [
    "GapReport",
    "Hamiltonian",
    "CompositeHamiltonian",
    "gap_analysis",
    "phase_factors",
    "unitary_from_hamiltonian",
    "decompose_hamiltonian",
    "compose_hamiltonian",
    "pointer_hamiltonian",
]

DEFAULT_GAP_TOL = 1e-9


@dataclass(frozen=True)
class GapReport:
    """Gap structure of a spectrum.

    min_gap is the smallest spacing between adjacent (sorted) eigenvalues;
    min_gap_difference the smallest |(E_k-E_l) - (E_m-E_n)| over distinct
    index pairs.  non_resonant is the strong version of the non-degenerate
    energy gaps condition: non-degenerate spectrum AND all gaps distinct,
    both at the stated tolerance.
    """

    min_gap: float
    min_gap_difference: float
    non_resonant: bool
    tolerance: float


def gap_analysis(spectrum, tol: float = DEFAULT_GAP_TOL) -> GapReport:
    """Scan a spectrum for degenerate levels and degenerate gaps.

    The minimum over all pairs of gaps |g_i - g_j| equals the minimum
    adjacent difference of the sorted gap list, so the sorted scan is exact
    at every dimension.
    """
    if isinstance(spectrum, Hamiltonian):
        spectrum = spectrum.eigenvalues
    e = np.sort(np.asarray(spectrum, dtype=float))
    d = len(e)
    if d < 2:
        return GapReport(np.inf, np.inf, True, tol)
    min_gap = float(np.diff(e).min())
    iu = np.triu_indices(d, 1)
    gaps = (e[None, :] - e[:, None])[iu]
    if len(gaps) < 2:
        mgd = np.inf
    else:
        mgd = float(np.diff(np.sort(gaps)).min())
    non_resonant = bool(min_gap > tol and mgd > tol)
    return GapReport(min_gap, mgd, non_resonant, tol)


@dataclass
class Hamiltonian:
    """Spectrum + eigenbasis, with bipartite dimension metadata.

    eigenvalues are ascending; eigenbasis columns are the eigenvectors.
    dims = (d_S, d_B) with d_B = 1 for unipartite systems.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray
    dims: tuple[int, int] | None = None
    gap_report: GapReport = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenbasis = np.asarray(self.eigenbasis, dtype=complex)
        d = len(self.eigenvalues)
        if self.eigenbasis.shape != (d, d):
            raise ValueError("eigenbasis shape does not match spectrum length")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        dev = np.abs(dagger(self.eigenbasis) @ self.eigenbasis - np.eye(d)).max()
        if dev > 1e-10:
            raise ValueError(f"eigenbasis is not unitary: deviation {dev:.3e}")
        if self.dims is None:
            self.dims = (d, 1)
        if self.dims[0] * self.dims[1] != d:
            raise ValueError(f"dims {self.dims} incompatible with dimension {d}")
        if self.gap_report is None:
            self.gap_report = gap_analysis(self.eigenvalues)

    @classmethod
    def from_matrix(cls, h, dims: tuple[int, int] | None = None,
                    gap_tol: float = DEFAULT_GAP_TOL) -> "Hamiltonian":
        dec = hermitian_eig(h)
        return cls(dec.eigenvalues, dec.eigenbasis, dims=dims,
                   gap_report=gap_analysis(dec.eigenvalues, gap_tol))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def matrix(self) -> np.ndarray:
        return (self.eigenbasis * self.eigenvalues) @ dagger(self.eigenbasis)

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """Express an operator (or a column of state vectors) in the eigenbasis."""
        if a.ndim == 1:
            return dagger(self.eigenbasis) @ a
        return dagger(self.eigenbasis) @ a @ self.eigenbasis

    def from_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        if a.ndim == 1:
            return self.eigenbasis @ a
        return self.eigenbasis @ a @ dagger(self.eigenbasis)


# 2 pi as five pieces of 26 significant bits each (their sum is 2 pi to
# 1e-40): a multiple k of a piece is exact whenever |k| < 2^26.  The pi/2
# pieces are the same bits scaled by the exact power of two 1/4.
_TWO_PI_PIECES = tuple(float.fromhex(c) for c in (
    "0x1.921fb50000000p+2", "0x1.110b460000000p-24", "0x1.1a62630000000p-52",
    "0x1.8a2e030000000p-79", "0x1.c1cd128000000p-105"))
_HALF_PI_PIECES = tuple(0.25 * c for c in _TWO_PI_PIECES)
_K_SPLIT = float(2 ** 26)
_PHASE_LIMIT = float(2 ** 52)   # largest |E t| phase_factors accepts (exclusive)
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])   # i^(k mod 4)


def phase_factors(energies, times) -> np.ndarray:
    """exp(-i E_k t) for every time (rows) and energy (columns).

    The argument y = -E t is reduced modulo pi/2 before cos and sin see it:
    k = rint(y 2/pi) is split into two 26-bit halves (with trunc, so
    negative k splits exactly too) and every product of a half with a piece
    of _HALF_PI_PIECES is exact, so the reduced argument r in [-pi/4, pi/4]
    is off by at most a few ulp of pi (< 1e-15) at any |y| < 2^52.  The
    phase is then (cos r + i sin r) i^k: a product with 1, i, -1 or -i is
    exact, and the high half of k is a multiple of 2^26, so the low half
    alone fixes k mod 4.  Beyond 2^52 doubles are spaced >= 1 apart and
    carry no phase, so a largest |E t| of _PHASE_LIMIT or more raises
    ValueError.  Returns times.shape + (d,): (n_times, d) for a time
    vector, (d,) for one time.
    """
    e = np.asarray(energies, dtype=float)
    t = np.asarray(times, dtype=float)
    if e.ndim != 1:
        raise ValueError(f"energies must be one vector, got shape {e.shape}")
    tt = t.reshape(-1)
    if e.size and tt.size:
        top = float(np.abs(e).max() * np.abs(tt).max())   # = max |E_k t_j| exactly
        if not top < _PHASE_LIMIT:
            raise ValueError(f"largest phase argument |E t| = {top:.6g} is not below "
                             f"2^52 = {_PHASE_LIMIT:.6g}, where doubles resolve no phase")
    y = np.multiply.outer(tt, -e)   # reduce y = -E t, so the phase is cos(y) + i sin(y)
    k = np.rint(y * (2 / np.pi))
    k_hi = np.trunc(k / _K_SPLIT)
    k_hi *= _K_SPLIT
    k_lo = k - k_hi
    prod = np.empty_like(y)
    for c in _HALF_PI_PIECES:
        for half in (k_hi, k_lo):
            y -= np.multiply(half, c, out=prod)
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    out *= _QUARTER_TURNS[k_lo.astype(np.int64) & 3]
    return out.reshape(t.shape + e.shape)


def unitary_from_hamiltonian(h: Hamiltonian, t: float) -> np.ndarray:
    """Evolution operator U_t = exp(-i H t) computed in the eigenbasis."""
    return (h.eigenbasis * phase_factors(h.eigenvalues, t)) @ dagger(h.eigenbasis)


@dataclass
class CompositeHamiltonian:
    """Split H = H_0 + H_S (x) 1 + 1 (x) H_B + H_SB with traceless parts.

    h_s, h_b act on the factors alone, h_sb on the joint space; all three
    are traceless and h0_coefficient carries the identity component.
    """

    h_s: np.ndarray
    h_b: np.ndarray
    h_sb: np.ndarray
    h0_coefficient: float
    assembled: Hamiltonian

    def __post_init__(self):
        d_s, d_b = self.dims
        d = d_s * d_b
        for name, m, dim in (("h_s", self.h_s, d_s), ("h_b", self.h_b, d_b),
                             ("h_sb", self.h_sb, d)):
            if m.shape != (dim, dim):
                raise ValueError(f"{name} has shape {m.shape}, expected {(dim, dim)}")
            if abs(np.trace(m)) > 1e-9 * dim:
                raise ValueError(f"{name} is not traceless: trace {np.trace(m):.3e}")
        dev = np.abs(self.full_matrix() - self.assembled.matrix()).max()
        if dev > 1e-10 * max(1.0, float(np.abs(self.full_matrix()).max())):
            raise ValueError(f"assembled Hamiltonian deviates from the sum: {dev:.3e}")

    @property
    def dims(self) -> tuple[int, int]:
        return self.assembled.dims

    def full_matrix(self) -> np.ndarray:
        d_s, d_b = self.dims
        return (self.h0_coefficient * np.eye(d_s * d_b)
                + tensor_product(self.h_s, np.eye(d_b))
                + tensor_product(np.eye(d_s), self.h_b)
                + self.h_sb)

    def norm_hs_plus_hsb(self) -> float:
        """Operator norm of H_S (x) 1 + H_SB (speed-bound prefactor)."""
        d_s, d_b = self.dims
        return operator_norm(tensor_product(self.h_s, np.eye(d_b)) + self.h_sb)

    def norm_hsb(self) -> float:
        return operator_norm(self.h_sb)


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def decompose_hamiltonian(h, d_s: int, d_b: int,
                          gap_tol: float = DEFAULT_GAP_TOL) -> CompositeHamiltonian:
    """Decompose a joint Hamiltonian into the traceless canonical split."""
    h = np.asarray(h, dtype=complex)
    d = d_s * d_b
    h0 = float(np.trace(h).real) / d
    h_s = _traceless(partial_trace(h, d_s, d_b, "S") / d_b)
    h_b = _traceless(partial_trace(h, d_s, d_b, "B") / d_s)
    h_sb = h - h0 * np.eye(d) - tensor_product(h_s, np.eye(d_b)) - tensor_product(np.eye(d_s), h_b)
    assembled = Hamiltonian.from_matrix(h, dims=(d_s, d_b), gap_tol=gap_tol)
    return CompositeHamiltonian(h_s, h_b, h_sb, h0, assembled)


def compose_hamiltonian(h_s, h_b, h_sb=None, h0: float = 0.0,
                        gap_tol: float = DEFAULT_GAP_TOL) -> CompositeHamiltonian:
    """Assemble a composite Hamiltonian from (not necessarily traceless) parts."""
    h_s = np.asarray(h_s, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    d_s, d_b = h_s.shape[0], h_b.shape[0]
    if h_sb is None:
        h_sb = np.zeros((d_s * d_b, d_s * d_b), dtype=complex)
    full = (h0 * np.eye(d_s * d_b) + tensor_product(h_s, np.eye(d_b))
            + tensor_product(np.eye(d_s), h_b) + np.asarray(h_sb, dtype=complex))
    return decompose_hamiltonian(full, d_s, d_b, gap_tol=gap_tol)


def pointer_hamiltonian(d_s: int, bath_blocks) -> CompositeHamiltonian:
    """Einselection Hamiltonian H = sum_p |p><p| (x) H^(p).

    Evolution under such a Hamiltonian leaves the pointer-basis diagonal of
    the reduced state invariant while off-diagonals pick up the bath-overlap
    suppression factor <psi_B| U^(p')^dag U^(p) |psi_B>.
    """
    if len(bath_blocks) != d_s:
        raise ValueError(f"expected {d_s} bath blocks, got {len(bath_blocks)}")
    blocks = [np.asarray(b, dtype=complex) for b in bath_blocks]
    d_b = blocks[0].shape[0]
    for i, b in enumerate(blocks):
        if b.shape != (d_b, d_b):
            raise ValueError(f"bath block {i} has shape {b.shape}, expected {(d_b, d_b)}")
        if np.abs(b - dagger(b)).max() > 1e-10 * max(1.0, np.abs(b).max()):
            raise ValueError(f"bath block {i} is not Hermitian")
    h = np.zeros((d_s * d_b, d_s * d_b), dtype=complex)
    for p, b in enumerate(blocks):
        h[p * d_b:(p + 1) * d_b, p * d_b:(p + 1) * d_b] = b
    return decompose_hamiltonian(h, d_s, d_b)
