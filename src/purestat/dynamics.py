"""Time evolution, the dephased state, time batches, subsystem speed and purity rate."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hamiltonians import CompositeHamiltonian, Hamiltonian, phase_factors
from .linalg import BLOCK_ENTRIES, GEMM_ROWS, hermitian_spectrum
from .states import dephased_purity, effective_dimension, purity, trace_distance

__all__ = [
    "dephased",
    "subsystem_fluctuation",
    "default_horizon",
    "sample_times",
    "time_map",
    "reduced_marginals",
    "bath_purities",
    "write_trajectory_csv",
    "ReducedRates",
    "reduced_rates",
    "finite_difference_speed",
    "finite_difference_purity_rate",
]


# subsystem_fluctuation's rounding scale, relative to Tr (omega^B)^2 <= 1: its
# difference of two sums of d terms each carries about d eps of it, 2e-13 at d = 1024
FLUCTUATION_ROUNDING = 1e-12


class _Dephased(NamedTuple):
    """dephased's (p, omega^S, omega^B), with deff = d_eff(omega) and deff_b = d_eff(omega^B)."""
    probs: np.ndarray
    omega_s: np.ndarray
    omega_b: np.ndarray
    deff = property(lambda self: 1.0 / dephased_purity(self.probs))
    deff_b = property(lambda self: effective_dimension(self.omega_b))


def dephased(h: Hamiltonian, state) -> _Dephased:
    """The dephased state omega = sum_k p_k |E_k><E_k| of one pure state (d,), or
    of each of a stack (m, d) bitwise as one call per state: (p, omega^S, omega^B),
    the populations p_k = |<E_k|psi>|^2 and omega's marginals on the split h.dims.

    omega is never formed: with W = V diag(sqrt(p)) as (d_S, d_B, d), omega^S =
    X X^dagger for X = W as (d_S, d_B d) and omega^B = sum_s W_s W_s^dagger, which
    is d^2 (d_S + d_B) work instead of d^3.
    """
    c0, stacked = _eigen_coefficients(h, state)
    probs = np.abs(c0) ** 2
    d_s, d_b = h.dims
    w = (h.eigenbasis * np.sqrt(probs)[:, None, :]).reshape(-1, d_s, d_b, h.dim)
    x = w.reshape(-1, d_s, d_b * h.dim)
    omega_s = x @ np.swapaxes(x.conj(), 1, 2)
    omega_b = (w @ np.swapaxes(w.conj(), 2, 3)).sum(axis=1)
    return _Dephased(*(a if stacked else a[0] for a in (probs, omega_s, omega_b)))


def subsystem_fluctuation(h: Hamiltonian, omega: _Dephased):
    """X = <||rho^S_t - omega^S||_2^2>, the infinite-time mean of the squared
    Hilbert-Schmidt distance of the reduced state from omega^S, for the state
    or stack of states that omega = dephased(h, state) dephased: a float, or
    one value per state.

    Under non-degenerate gaps X = sum_{j != k} p_j p_k ||Tr_B |E_j><E_k|||_F^2
    (Linden, Popescu, Short & Winter, PRE 79, 061103 (2009)).  The swap
    identity sum_{j,k} p_j p_k ||Tr_B |E_j><E_k|||_F^2 = Tr (omega^B)^2 closes
    the double sum: X = Tr (omega^B)^2 - sum_k p_k^2 Tr[(Tr_B |E_k><E_k|)^2],
    which is d^2 d_S work beside dephased's and no (d, d) product; the
    eigenvectors' marginals are taken in blocks of BLOCK_ENTRIES entries, so no
    temporary grows with d^2 either.  A difference at or below
    FLUCTUATION_ROUNDING Tr (omega^B)^2 is the rounding of its two terms, not a
    fluctuation, and reads 0: so does a stationary rho^S_t, as at d_S = 1.
    """
    rows = max(1, BLOCK_ENTRIES // h.dim)   # eigenvectors per block
    v = h.eigenbasis.T
    eig_purities = np.concatenate([purity(reduced_marginals(v[a:a + rows], h.dims))
                                   for a in range(0, h.dim, rows)])
    purity_b = purity(omega.omega_b)
    x = purity_b - omega.probs ** 2 @ eig_purities
    x = np.where(x > FLUCTUATION_ROUNDING * purity_b, x, 0.0)
    return float(x) if x.ndim == 0 else x


def default_horizon(h: Hamiltonian) -> float:
    """Averaging horizon 10^4 / (minimal gap difference), the dephasing scale; raises
    ValueError unless h's gap report is non-resonant (ensembles.redraw_until_non_resonant)."""
    report = h.gap_report
    if not report.non_resonant:
        raise ValueError(f"Hamiltonian is not non-resonant at tol {report.tolerance}: {report}")
    if not np.isfinite(report.min_gap_difference):
        raise ValueError("Hamiltonian has no usable gap-difference scale")
    return 1e4 / report.min_gap_difference


def sample_times(h: Hamiltonian, n: int, rng: np.random.Generator) -> np.ndarray:
    """n times drawn uniformly from [0, default_horizon(h)).

    The one place where experiments and demos pick the instants of a time
    average, so the horizon policy changes here and nowhere else.
    """
    return rng.uniform(0.0, default_horizon(h), n)


def _eigen_coefficients(h: Hamiltonian, initial) -> tuple[np.ndarray, bool]:
    """c0 = (<E_k|psi>)_k of every initial state as an (m, d) stack, and
    whether initial was a stack (rather than one vector)."""
    vecs = np.asarray(initial, dtype=complex)
    if vecs.ndim not in (1, 2) or vecs.shape[-1] != h.dim:
        raise ValueError(f"dimension mismatch: states {vecs.shape}, H {h.dim}")
    # one matrix-vector product per state, so c0 is bitwise h.to_eigenbasis(v)
    return np.array([h.to_eigenbasis(v) for v in np.atleast_2d(vecs)]), vecs.ndim == 2


def time_map(h: Hamiltonian, initial, times, fn):
    """fn of the evolved states psi_t = exp(-iHt) psi_0, one panel of times at a time.

    initial is one state vector (d,) or a stack of them (m, d).
    fn receives each panel with its times on axis 0: (n_b, d) for one state,
    (n_b, m, d) for a stack.  It returns an array, or a tuple of arrays, with
    the panel's times on axis 0; those are copied into (n_times, ...) outputs
    at once, so fn may return views of the panel.  A panel holds
    max(BLOCK_ENTRIES // (m d), ceil(GEMM_ROWS / m)) times, or all of them if
    there are fewer, so every GEMM on it (the eigenbasis change here, and
    those fn makes) has at least GEMM_ROWS rows.  Its phases are built in
    sub-blocks of at most BLOCK_ENTRIES entries (at least one time), one
    hamiltonians.phase_factors matrix shared by the whole stack, and each
    sub-block's c0 * phases is written straight into the panel.  The panel
    and its phases live in buffers reused by the next panel, so memory does
    not grow with the number of times.  The stack goes back from the
    eigenbasis in one GEMM; a diagonal h skips it, as its coefficients
    c0 exp(-iEt) are the states.
    """
    c0, stacked = _eigen_coefficients(h, initial)
    times = np.ravel(times)
    if not len(times):
        raise ValueError("time_map needs at least one time")
    m, d = c0.shape
    rows = min(len(times), max(BLOCK_ENTRIES // (m * d), -(-GEMM_ROWS // m)))
    sub = max(1, min(rows, BLOCK_ENTRIES // d))   # times per phase sub-block
    rotate = not h.diagonal
    bufs = [np.empty(rows * m * d, dtype=complex) for _ in range(1 + rotate)]
    phase_buf = np.empty(sub * d, dtype=complex)
    outs = None
    for a in range(0, len(times), rows):
        t = times[a:a + rows]
        views = [buf[:len(t) * m * d].reshape(len(t), m, d) for buf in bufs]
        block = views[0]
        for b in range(0, len(t), sub):
            ts = t[b:b + sub]
            phases = phase_factors(h.eigenvalues, ts,
                                   out=phase_buf[:len(ts) * d].reshape(len(ts), d))
            # keep the c0 * phases operand order: numpy's complex product is not
            # bitwise symmetric, and swapping it moves every trajectory CSV's last bits
            np.multiply(c0, phases[:, None, :], out=block[b:b + len(ts)])
        if rotate:
            block = np.matmul(block.reshape(-1, d), h.eigenbasis.T,
                              out=views[1].reshape(-1, d)).reshape(block.shape)
        res = fn(block if stacked else block[:, 0])
        parts = res if isinstance(res, tuple) else (res,)
        if outs is None:
            outs = [np.empty((len(times),) + p.shape[1:], dtype=p.dtype) for p in parts]
        for out, p in zip(outs, parts):
            out[a:a + len(t)] = p
    return tuple(outs) if isinstance(res, tuple) else outs[0]


def _coefficient_matrices(psis, dims: tuple[int, int]):
    """psis's state vectors as (n, d_S, d_B) matrices, and its leading shape."""
    d_s, d_b = dims
    psis = np.asarray(psis, dtype=complex)
    if psis.shape[-1] != d_s * d_b:
        raise ValueError(f"dimension mismatch: states {psis.shape}, dims {dims}")
    return psis.reshape(-1, d_s, d_b), psis.shape[:-1]


def reduced_marginals(psis, dims: tuple[int, int]):
    """rho^S_t = Tr_B |psi_t><psi_t| for every state vector psi_t in psis.

    psis has the state vectors on its last axis; the leading axes (time, or
    time and stack) are kept, so the result is (..., d_S, d_S).
    """
    mats, lead = _coefficient_matrices(psis, dims)
    rho_s = np.einsum("nib,njb->nij", mats, mats.conj())
    return rho_s.reshape(*lead, dims[0], dims[0])


def bath_purities(psis, dims: tuple[int, int]):
    """p^B_t = Tr[(rho^B_t)^2] for every state vector psi_t in psis, with
    psis's leading shape.  With psi_t as a d_S x d_B matrix A, one stacked
    Householder QR A^T = Q R gives rho^B_t = A^T A^* = Q R R^dagger Q^dagger,
    so p^B_t = ||R R^dagger||_F^2, R being min(d_S, d_B) x d_S: no d_B x d_B
    array, and no arithmetic shared with rho^S, so p^S = p^B stays a check.
    A state with a non-finite entry gives NaN.
    """
    mats, lead = _coefficient_matrices(psis, dims)
    ok = np.isfinite(mats).all(axis=(1, 2))
    if not ok.all():   # LAPACK raises on a non-finite matrix
        mats = np.where(ok[:, None, None], mats, 0)
    r = np.linalg.qr(np.swapaxes(mats, 1, 2), mode="r")
    rr = r @ np.conj(np.swapaxes(r, 1, 2))
    p_b = np.where(ok, (np.abs(rr) ** 2).sum(axis=(1, 2)), np.nan)
    return p_b.reshape(lead)


def write_trajectory_csv(path, times, columns: dict) -> None:
    """Write columns (t, <name>...) with one row per time, floats as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", *columns.keys()])
        for i, t in enumerate(times):
            w.writerow([repr(float(t)), *(repr(float(c[i])) for c in columns.values())])


@dataclass
class ReducedRates:
    """Reduced states and their rates of change along a stack of pure states.

    Every array has a leading time axis: rho_s is rho^S_t, drho_s is
    d rho^S_t/dt and tr_b_comm is Tr_B[rho_t, H_SB], each (n_times, d_S, d_S).
    """

    rho_s: np.ndarray
    drho_s: np.ndarray
    tr_b_comm: np.ndarray

    def speeds(self) -> np.ndarray:
        """v_S = (1/2) ||d rho^S_t/dt||_1 at every time, NaN where it is not finite."""
        return 0.5 * np.abs(hermitian_spectrum(self.drho_s)).sum(axis=1)

    def purity_rates(self) -> np.ndarray:
        """d p^S_t/dt = Tr[rho^S_t 2i Tr_B[rho_t, H_SB]] at every time."""
        return 2 * np.einsum("nij,nji->n", self.rho_s, 1j * self.tr_b_comm).real


def reduced_rates(psis, parts: CompositeHamiltonian) -> ReducedRates:
    """Batched subsystem speed and purity-rate kernel over pure states psi_t.

    psis holds one state vector per row, shape (n_times, d_S d_B); each row
    is renormalised to remove float drift.  No d x d density matrix is
    formed: with K_t = Tr_B |psi_t><H_SB psi_t|, Tr_B[rho_t, H_SB] =
    K_t - K_t^dagger.
    """
    d_s, d_b = parts.dims
    psis = np.asarray(psis, dtype=complex)
    if psis.ndim != 2 or psis.shape[1] != d_s * d_b:
        raise ValueError("state dimension does not match the Hamiltonian split")
    psis = psis / np.linalg.norm(psis, axis=1, keepdims=True)
    mats = psis.reshape(len(psis), d_s, d_b)
    phis = (psis @ parts.h_sb.T).reshape(len(psis), d_s, d_b)   # rows H_SB psi_t
    rho_s = reduced_marginals(psis, parts.dims)
    kq = np.einsum("nib,njb->nij", mats, phis.conj())
    tr_b_comm = kq - np.conj(np.swapaxes(kq, 1, 2))
    drho_s = 1j * (rho_s @ parts.h_s - parts.h_s @ rho_s) + 1j * tr_b_comm
    return ReducedRates(rho_s, drho_s, tr_b_comm)


def _central_difference(h: Hamiltonian, state, times, change):
    """change(rho^S_{t-delta}, rho^S_{t+delta}) / (2 delta) at every time of
    the array times, from one time_map pass, with delta = 1e-6 / max(|E|, 1)
    and the split h.dims."""
    delta = 1e-6 / max(np.abs(h.eigenvalues).max(), 1.0)
    ts = np.ravel(times)
    rho_s = time_map(h, state, np.concatenate([ts - delta, ts + delta]),
                     lambda psis: reduced_marginals(psis, h.dims))
    return change(rho_s[:len(ts)], rho_s[len(ts):]) / (2 * delta)


def finite_difference_speed(h: Hamiltonian, state, times):
    """Central-difference D(rho^S_{t-d}, rho^S_{t+d}) / (2d) cross-check at
    every time of an array."""
    return _central_difference(h, state, times, trace_distance)


def finite_difference_purity_rate(h: Hamiltonian, state, times):
    """Central-difference d(purity)/dt cross-check at every time of an array."""
    return _central_difference(h, state, times, lambda lo, hi: purity(hi) - purity(lo))
