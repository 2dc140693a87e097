"""Time evolution, dephasing, time batches, subsystem speed and purity rate."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .hamiltonians import (CompositeHamiltonian, Hamiltonian, phase_factors,
                           unitary_from_hamiltonian)
from .linalg import commutator, dagger, partial_trace, trace_norm
from .states import DensityMatrix, PureState, purity, trace_distance

__all__ = [
    "evolve",
    "dephase",
    "dephased",
    "default_horizon",
    "sample_times",
    "time_map",
    "reduced_marginals",
    "write_trajectory_csv",
    "subsystem_speed",
    "ReducedRates",
    "reduced_rates",
    "purity_rate",
    "finite_difference_speed",
    "finite_difference_purity_rate",
]


def evolve(state, h: Hamiltonian, t: float):
    """Evolve a PureState or DensityMatrix for time t in the eigenbasis of H."""
    if isinstance(state, PureState):
        v = time_map(h, state, [t], np.copy)[0]
        v /= np.linalg.norm(v)  # remove float drift, |err| ~ 1e-16
        return PureState(v, dims=state.dims)
    if isinstance(state, DensityMatrix):
        if state.dim != h.dim:
            raise ValueError(f"dimension mismatch: state {state.dim}, H {h.dim}")
        u = unitary_from_hamiltonian(h, t)
        return DensityMatrix(u @ state.matrix @ dagger(u), dims=state.dims)
    raise TypeError(f"cannot evolve object of type {type(state).__name__}")


def _cluster_slices(e: np.ndarray, tol: float) -> list[slice]:
    bounds = [0]
    for k in range(1, len(e)):
        if e[k] - e[k - 1] > tol:
            bounds.append(k)
    bounds.append(len(e))
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def dephase(x, h: Hamiltonian, mode: str = "strict"):
    """Dephasing map: zero the inter-eigenspace off-diagonals in H's eigenbasis.

    Works on states and on Hermitian observables alike and equals the
    infinite-time average for non-resonant H.  mode="strict" requires H's
    gap report to certify strong non-resonance; mode="clusters" implements
    the degenerate-subspace variant (projectors onto degenerate clusters,
    cluster width 1e-9 x spectral range).
    """
    m = x.matrix if isinstance(x, DensityMatrix) else np.asarray(x, dtype=complex)
    if m.shape[0] != h.dim:
        raise ValueError(f"dimension mismatch: operator {m.shape[0]}, H {h.dim}")
    a = h.to_eigenbasis(m)
    if mode == "strict":
        if not h.gap_report.non_resonant:
            raise ValueError("Hamiltonian is resonant; use mode='clusters' for the "
                             "degenerate-subspace dephasing map")
        out = np.diag(np.diag(a))
    elif mode == "clusters":
        e = h.eigenvalues
        tol = 1e-9 * max(float(e[-1] - e[0]), 1.0)
        out = np.zeros_like(a)
        for sl in _cluster_slices(e, tol):
            out[sl, sl] = a[sl, sl]
    else:
        raise ValueError(f"unknown dephasing mode {mode!r}")
    res = h.from_eigenbasis(out)
    if isinstance(x, DensityMatrix):
        return DensityMatrix(res, dims=x.dims)
    return res


def dephased(h: Hamiltonian, state, marginals: bool = True):
    """The dephased state omega = sum_k p_k |E_k><E_k| of a pure state.

    state is a PureState or a state vector.  Returns the populations
    p_k = |<E_k|psi>|^2 and, with marginals, also omega^S and omega^B (split
    h.dims), both traced from one d x d product.
    """
    v = state.vector if isinstance(state, PureState) else state
    probs = np.abs(h.to_eigenbasis(v)) ** 2
    if not marginals:
        return probs
    d_s, d_b = h.dims
    omega = (h.eigenbasis * probs) @ dagger(h.eigenbasis)
    return probs, partial_trace(omega, d_s, d_b, "S"), partial_trace(omega, d_s, d_b, "B")


def default_horizon(h: Hamiltonian) -> float:
    """Averaging horizon 10^4 / (minimal gap difference), the dephasing scale."""
    mgd = h.gap_report.min_gap_difference
    if not np.isfinite(mgd) or mgd <= 0:
        raise ValueError("Hamiltonian has no usable gap-difference scale")
    return 1e4 / mgd


def sample_times(h: Hamiltonian, n: int, rng: np.random.Generator) -> np.ndarray:
    """n times drawn uniformly from [0, default_horizon(h)).

    The one place where experiments and demos pick the instants of a time
    average, so the horizon policy changes here and nowhere else.
    """
    return rng.uniform(0.0, default_horizon(h), int(n))


def _eigen_coefficients(h: Hamiltonian, initial) -> tuple[np.ndarray, bool]:
    """c0 = (<E_k|psi>)_k of every initial state as an (m, d) stack, and
    whether initial was a stack (rather than a PureState or one vector)."""
    if isinstance(initial, PureState):
        initial = initial.vector
    vecs = np.asarray(initial, dtype=complex)
    if vecs.ndim not in (1, 2) or vecs.shape[-1] != h.dim:
        raise ValueError(f"dimension mismatch: states {vecs.shape}, H {h.dim}")
    # one matrix-vector product per state, so c0 is bitwise h.to_eigenbasis(v)
    return np.array([h.to_eigenbasis(v) for v in np.atleast_2d(vecs)]), vecs.ndim == 2


_TIME_BLOCK = 1 << 13   # coefficients per block of time_map


def time_map(h: Hamiltonian, initial, times, fn, states: bool = True):
    """fn of the evolved states psi_t = exp(-iHt) psi_0, one block of times at a time.

    initial is a PureState, one state vector (d,) or a stack of them (m, d).
    fn receives each block with its times on axis 0: (n_b, d) for one state,
    (n_b, m, d) for a stack; with states=False the eigenbasis coefficients
    c0 exp(-iEt) instead of the state vectors.  It returns an array, or a
    tuple of arrays, with the block's times on axis 0; those are copied into
    (n_times, ...) outputs at once, so fn may return views of the block.  A
    block holds at most _TIME_BLOCK coefficients (but at least one time) and
    is written into buffers reused by the next block, so memory does not
    grow with the number of times.  The whole stack shares one phase matrix
    per block (hamiltonians.phase_factors) and evolves in one GEMM.
    """
    c0, stacked = _eigen_coefficients(h, initial)
    times = np.ravel(times)
    if not len(times):
        raise ValueError("time_map needs at least one time")
    m, d = c0.shape
    rows = max(1, min(len(times), _TIME_BLOCK // (m * d)))
    bufs = [np.empty(rows * m * d, dtype=complex) for _ in range(1 + states)]
    outs = None
    for a in range(0, len(times), rows):
        t = times[a:a + rows]
        views = [buf[:len(t) * m * d].reshape(len(t), m, d) for buf in bufs]
        # keep the c0 * phases operand order: numpy's complex product is not
        # bitwise symmetric, and swapping it moves every trajectory CSV's last bits
        block = np.multiply(c0, phase_factors(h.eigenvalues, t)[:, None, :], out=views[0])
        if states:
            block = np.matmul(block.reshape(-1, d), h.eigenbasis.T,
                              out=views[1].reshape(-1, d)).reshape(block.shape)
        res = fn(block if stacked else block[:, 0])
        parts = res if isinstance(res, tuple) else (res,)
        if outs is None:
            outs = [np.empty((len(times),) + p.shape[1:], dtype=p.dtype) for p in parts]
        for out, p in zip(outs, parts):
            out[a:a + len(t)] = p
    return tuple(outs) if isinstance(res, tuple) else outs[0]


def reduced_marginals(psis, dims: tuple[int, int], bath_purity: bool = False):
    """rho^S_t = Tr_B |psi_t><psi_t| for every state vector psi_t in psis.

    psis has the state vectors on its last axis; the leading axes (time, or
    time and stack) are kept, so the result is (..., d_S, d_S).  With
    bath_purity, also returns p^B_t = Tr[(rho^B_t)^2] with the leading
    shape.  rho^B is formed for max(1, _TIME_BLOCK // d_B^2) times at a
    time, so no (n_times, d_B, d_B) array exists and each chunk is small
    enough to be reused from the heap rather than mapped afresh.
    """
    d_s, d_b = dims
    psis = np.asarray(psis, dtype=complex)
    if psis.shape[-1] != d_s * d_b:
        raise ValueError(f"dimension mismatch: states {psis.shape}, dims {dims}")
    lead = psis.shape[:-1]
    mats = psis.reshape(-1, d_s, d_b)
    rho_s = np.einsum("nib,njb->nij", mats, mats.conj()).reshape(*lead, d_s, d_s)
    if not bath_purity:
        return rho_s
    p_b = np.empty(len(mats))
    step = max(1, _TIME_BLOCK // d_b ** 2)
    for a in range(0, len(mats), step):
        m = mats[a:a + step]
        rho_b = np.swapaxes(m, 1, 2) @ m.conj()
        p_b[a:a + step] = purity(rho_b)
    return rho_s, p_b.reshape(lead)


def write_trajectory_csv(path, times, columns: dict) -> None:
    """Write columns (t, <name>...) with one row per time, floats as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", *columns.keys()])
        for i, t in enumerate(times):
            w.writerow([repr(float(t)), *(repr(float(c[i])) for c in columns.values())])


def _reduced_commutant_with_interaction(rho: np.ndarray, h_sb: np.ndarray,
                                        d_s: int, d_b: int) -> np.ndarray:
    """Tr_B[rho, H_SB]."""
    return partial_trace(commutator(rho, h_sb), d_s, d_b, "S")


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
        """v_S = (1/2) ||d rho^S_t/dt||_1 at every time (see subsystem_speed)."""
        return 0.5 * np.abs(np.linalg.eigvalsh(self.drho_s)).sum(axis=1)

    def purity_rates(self) -> np.ndarray:
        """d p^S_t/dt = Tr[rho^S_t 2i Tr_B[rho_t, H_SB]] at every time (see purity_rate)."""
        return 2 * np.einsum("nij,nji->n", self.rho_s, 1j * self.tr_b_comm).real


def reduced_rates(psis, parts: CompositeHamiltonian) -> ReducedRates:
    """Batched subsystem speed and purity-rate kernel over pure states psi_t.

    psis holds one state vector per row, shape (n_times, d_S d_B); each row
    is renormalised to remove float drift.  No d x d density matrix is
    formed: with K_t = Tr_B |psi_t><H_SB psi_t|, Tr_B[rho_t, H_SB] =
    K_t - K_t^dagger.  subsystem_speed and purity_rate are the dense
    single-state references.
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


def subsystem_speed(rho, parts: CompositeHamiltonian) -> float:
    """v_S = (1/2) || i[rho^S, H_S] + i Tr_B[rho, H_SB] ||_1.

    Equals the instantaneous trace-norm velocity of the reduced state; the
    bath Hamiltonian enters only through the trajectory, not the formula.
    """
    d_s, d_b = parts.dims
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape[0] != d_s * d_b:
        raise ValueError("state dimension does not match the Hamiltonian split")
    rho_s = partial_trace(m, d_s, d_b, "S")
    drho_s = 1j * commutator(rho_s, parts.h_s) + 1j * _reduced_commutant_with_interaction(
        m, parts.h_sb, d_s, d_b)
    return 0.5 * trace_norm(drho_s)


def purity_rate(rho, parts: CompositeHamiltonian) -> float:
    """d p^S/dt = Tr[rho^S 2i Tr_B[rho, H_SB]].

    Also evaluates the correlation-operator form (with rho^cor =
    rho - rho^S (x) rho^B) and checks both agree to 1e-9.
    """
    d_s, d_b = parts.dims
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape[0] != d_s * d_b:
        raise ValueError("state dimension does not match the Hamiltonian split")
    rho_s = partial_trace(m, d_s, d_b, "S")
    rho_b = partial_trace(m, d_s, d_b, "B")
    rate = float(np.trace(rho_s @ (2j * _reduced_commutant_with_interaction(
        m, parts.h_sb, d_s, d_b))).real)
    rho_cor = m - np.kron(rho_s, rho_b)
    rate_cor = float(np.trace(rho_s @ (2j * _reduced_commutant_with_interaction(
        rho_cor, parts.h_sb, d_s, d_b))).real)
    scale = max(1.0, abs(rate))
    if abs(rate - rate_cor) > 1e-9 * scale:
        raise AssertionError(
            f"purity-rate forms disagree: {rate!r} vs correlation form {rate_cor!r}")
    return rate


def _central_difference(h: Hamiltonian, state: PureState, t, delta, change):
    """change(rho^S_{t-delta}, rho^S_{t+delta}) / (2 delta) at one time (a
    float) or at every time of an array, from one time_map pass."""
    if delta is None:
        delta = 1e-6 / max(np.abs(h.eigenvalues).max(), 1.0)
    ts = np.ravel(t)
    rho_s = time_map(h, state, np.concatenate([ts - delta, ts + delta]),
                     lambda psis: reduced_marginals(psis, state.dims))
    x = change(rho_s[:len(ts)], rho_s[len(ts):]) / (2 * delta)
    return float(x[0]) if np.ndim(t) == 0 else x


def finite_difference_speed(h: Hamiltonian, state: PureState, t, delta: float | None = None):
    """Central-difference D(rho^S_{t-d}, rho^S_{t+d}) / (2d) cross-check, at
    one time or an array of times."""
    return _central_difference(h, state, t, delta, trace_distance)


def finite_difference_purity_rate(h: Hamiltonian, state: PureState, t,
                                  delta: float | None = None):
    """Central-difference d(purity)/dt cross-check, at one time or an array of times."""
    return _central_difference(h, state, t, delta, lambda lo, hi: purity(hi) - purity(lo))
