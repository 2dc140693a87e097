"""Hamiltonians: spectra, gap structure, phase factors, composite splits.

Energies are in units with hbar = 1, so time carries units of 1/energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import _require_hermitian, dagger, partial_trace, operator_norm

__all__ = [
    "GapReport",
    "Hamiltonian",
    "CompositeHamiltonian",
    "gap_analysis",
    "phase_factors",
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


def gap_analysis(spectrum) -> GapReport:
    """Scan a spectrum for degenerate levels and degenerate gaps at DEFAULT_GAP_TOL.

    The minimum over all pairs of gaps |g_i - g_j| equals the minimum
    adjacent difference of the sorted gap list, so the sorted scan is exact
    at every dimension.
    """
    e = np.sort(np.asarray(spectrum, dtype=float))
    d = len(e)
    if d < 2:
        return GapReport(np.inf, np.inf, True, DEFAULT_GAP_TOL)
    min_gap = float(np.diff(e).min())
    iu = np.triu_indices(d, 1)
    gaps = (e[None, :] - e[:, None])[iu]
    if len(gaps) < 2:
        mgd = np.inf
    else:
        mgd = float(np.diff(np.sort(gaps)).min())
    return GapReport(min_gap, mgd, bool(min_gap > DEFAULT_GAP_TOL and mgd > DEFAULT_GAP_TOL),
                     DEFAULT_GAP_TOL)


@dataclass
class Hamiltonian:
    """Spectrum + eigenbasis, with bipartite dimension metadata.

    eigenvalues are ascending; eigenbasis columns are the eigenvectors (left
    out, the identity: unitary by construction, so only it skips the d^3
    unitarity check).  dims = (d_S, d_B) with d_B = 1 for unipartite systems.
    """

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray | None = None
    dims: tuple[int, int] | None = None
    gap_report: GapReport = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        d = len(self.eigenvalues)
        self._diagonal = self.eigenbasis is None
        self.eigenbasis = (np.eye(d, dtype=complex) if self._diagonal
                           else np.asarray(self.eigenbasis, dtype=complex))
        if self.eigenbasis.shape != (d, d):
            raise ValueError("eigenbasis shape does not match spectrum length")
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be ascending")
        if not self._diagonal:
            dev = np.abs(dagger(self.eigenbasis) @ self.eigenbasis - np.eye(d)).max()
            if not dev <= 1e-10:   # a NaN entry gives a NaN deviation, which fails too
                raise ValueError(f"eigenbasis is not unitary: deviation {dev:.3e}")
        if self.dims is None:
            self.dims = (d, 1)
        if self.dims[0] * self.dims[1] != d:
            raise ValueError(f"dims {self.dims} incompatible with dimension {d}")
        if self.gap_report is None:
            self.gap_report = gap_analysis(self.eigenvalues)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def diagonal(self) -> bool:
        """True when built without an eigenbasis: the basis is the identity,
        so the eigenbasis coefficients of a state are the state itself."""
        return self._diagonal

    def to_eigenbasis(self, psi) -> np.ndarray:
        """The eigenbasis coefficients <E_k|psi> of one state vector (d,), and of nothing else."""
        if np.shape(psi) != (self.dim,):
            raise ValueError(f"expected one state vector ({self.dim},), got shape {np.shape(psi)}")
        return dagger(self.eigenbasis) @ psi


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


def phase_factors(energies, times, out=None) -> np.ndarray:
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
    vector, (d,) for one time; a complex out of that shape is written into
    and returned instead of a new array.
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
    shape = t.shape + e.shape
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex:
        raise ValueError(f"out must be complex of shape {shape}, got {out.dtype} {out.shape}")
    np.cos(y.reshape(shape), out=out.real)
    np.sin(y.reshape(shape), out=out.imag)
    out *= _QUARTER_TURNS[k_lo.astype(np.int64) & 3].reshape(shape)
    return out


class CompositeHamiltonian(Hamiltonian):
    """The Hamiltonian of one joint Hermitian matrix h on d_S x d_B,
    dims = (d_S, d_B), with its canonical split H = H_0 + H_S (x) 1 + 1 (x) H_B + H_SB.

    h is validated (square, finite, Hermitian), then np.linalg.eigh gives the
    spectrum and eigenbasis; inside a degenerate cluster only the projector is
    well defined.  H_0 is a multiple of the identity; H_S = Tr_B H / d_B and
    H_B = Tr_S H / d_S, each made traceless, act on the factors alone, and H_SB
    is the rest, so Tr_S H_SB = Tr_B H_SB = 0.  Of the split it keeps what the
    rates and bounds read: h_s and h_sb.
    """

    def __init__(self, h, dims: tuple[int, int]):
        d_s, d_b = dims
        h = _require_hermitian(h)
        super().__init__(*np.linalg.eigh(h), dims=(d_s, d_b))
        d = d_s * d_b
        h0 = float(np.trace(h).real) / d
        self.h_s = _traceless(partial_trace(h, d_s, d_b, "S") / d_b)
        h_b = _traceless(partial_trace(h, d_s, d_b, "B") / d_s)
        self.h_sb = (h - h0 * np.eye(d) - np.kron(self.h_s, np.eye(d_b, dtype=complex))
                     - np.kron(np.eye(d_s, dtype=complex), h_b))

    def norm_hs_plus_hsb(self) -> float:
        """Operator norm of H_S (x) 1 + H_SB (speed-bound prefactor)."""
        d_b = self.dims[1]
        return operator_norm(np.kron(self.h_s, np.eye(d_b, dtype=complex)) + self.h_sb)

    def norm_hsb(self) -> float:
        return operator_norm(self.h_sb)


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def compose_hamiltonian(h_s, h_b, h_sb) -> CompositeHamiltonian:
    """The composite Hamiltonian of H_S (x) 1 + 1 (x) H_B + H_SB; the parts
    need not be traceless."""
    h_s = np.asarray(h_s, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    d_s, d_b = h_s.shape[0], h_b.shape[0]
    h = (np.kron(h_s, np.eye(d_b, dtype=complex)) + np.kron(np.eye(d_s, dtype=complex), h_b)
         + np.asarray(h_sb, dtype=complex))
    return CompositeHamiltonian(h, (d_s, d_b))


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
    return CompositeHamiltonian(h, (d_s, d_b))
