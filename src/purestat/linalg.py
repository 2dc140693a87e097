"""Dense complex linear algebra used by every other module.

All operators are plain complex128 numpy arrays in a fixed composite-index
convention: a bipartite system with subsystem dimension d_S and bath
dimension d_B uses the flat index i = i_S * d_B + i_B (system-major), which
is exactly numpy's ``kron(A_S, A_B)`` ordering.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dagger",
    "partial_trace",
    "hermitian_spectrum",
    "trace_norm",
    "operator_norm",
    "commutator",
]

# entries per block of a bounded batch loop (128 KiB of complex128): the phase
# sub-blocks of dynamics.time_map, the eigenvectors of
# dynamics.subsystem_fluctuation, the samples of
# ensembles.haar_coefficient_blocks and the state pairs of the experiments'
# marginal diameter
BLOCK_ENTRIES = 1 << 13

# fewest rows per GEMM of dynamics.time_map's panels: a complex GEMM with
# fewer rows spends a large share of its time packing the d x d operand
GEMM_ROWS = 128


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def _as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_hermitian(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity entrywise (tolerance scaled by the largest entry)."""
    a = _as_square_matrix(a)
    scale = max(1.0, float(np.abs(a).max()))
    dev = float(np.abs(a - dagger(a)).max())
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max entrywise deviation {dev:.3e}")
    return a


def partial_trace(rho, d_s: int, d_b: int, keep: str = "S") -> np.ndarray:
    """Trace out one tensor factor of an operator on a d_S*d_B space.

    Parameters
    ----------
    rho : (d_s*d_b, d_s*d_b) array
    keep : "S" keeps the subsystem (traces the bath), "B" the converse.
    """
    rho = _as_square_matrix(rho, "rho")
    d = d_s * d_b
    if rho.shape[0] != d:
        raise ValueError(f"dimension mismatch: operator is {rho.shape[0]}x{rho.shape[0]}, "
                         f"expected {d} = {d_s}*{d_b}")
    r = rho.reshape(d_s, d_b, d_s, d_b)
    if keep == "S":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("ibil->bl", r)
    raise ValueError(f"keep must be 'S' or 'B', got {keep!r}")


def hermitian_spectrum(m) -> np.ndarray:
    """Ascending eigenvalues (eigvalsh: the lower triangle) of each Hermitian matrix
    in the stack m, the package's one eigenvalue solver; all NaN for a matrix with a
    non-finite entry, where LAPACK would return a finite spectrum or raise."""
    if np.isfinite(m).all():
        return np.linalg.eigvalsh(m)
    ok = np.isfinite(m).all(axis=(-2, -1))
    return np.where(ok[..., None], np.linalg.eigvalsh(np.where(ok[..., None, None], m, 0)), np.nan)


def trace_norm(a) -> float:
    """||A||_1 = sum |eigenvalues| of Hermitian A; raises on a non-finite or non-Hermitian A."""
    return float(np.abs(hermitian_spectrum(_require_hermitian(a, tol=1e-10))).sum())


def operator_norm(a) -> float:
    """||A|| = max |eigenvalue| of Hermitian A; raises on a non-finite or non-Hermitian A."""
    return float(np.abs(hermitian_spectrum(_require_hermitian(a, tol=1e-10))).max())


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a
