"""Dense complex linear algebra used by every other module.

All operators are plain complex128 numpy arrays in a fixed composite-index
convention: a bipartite system with subsystem dimension d_S and bath
dimension d_B uses the flat index i = i_S * d_B + i_B (system-major), which
is exactly numpy's ``kron(A_S, A_B)`` ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "dagger",
    "hermitian_eig",
    "tensor_product",
    "partial_trace",
    "schatten_norm",
    "trace_norm",
    "operator_norm",
    "commutator",
    "swap_operator",
]


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


def _require_hermitian(a: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity entrywise (tolerance scaled by the largest entry)."""
    a = _as_square_matrix(a, name)
    scale = max(1.0, float(np.abs(a).max()))
    dev = float(np.abs(a - dagger(a)).max())
    if dev > tol * scale:
        raise ValueError(f"{name} is not Hermitian: max entrywise deviation {dev:.3e}")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(w) V^dag with w ascending."""

    eigenvalues: np.ndarray
    eigenbasis: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def hermitian_eig(a, tol: float = 1e-12) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are returned ascending; the eigenbasis columns are
    orthonormal eigenvectors.  Raises on non-square or non-Hermitian input.
    Eigenvectors inside a degenerate cluster come in an arbitrary
    orthonormal basis; only the cluster projector is well defined.
    """
    a = _require_hermitian(a, tol)
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenbasis=v)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the system-major index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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


def schatten_norm(a, kind: str) -> float:
    """Schatten norm of a Hermitian matrix.

    kind: "trace" (sum |eigenvalues|), "hilbert_schmidt" (Frobenius) or
    "operator" (max |eigenvalue|).  The eigenvalue-based kinds require
    Hermitian input; the general singular-value case is out of scope.
    """
    if kind == "hilbert_schmidt":
        a = _as_square_matrix(a)
        return float(np.linalg.norm(a))
    a = _require_hermitian(a, tol=1e-10)
    w = np.linalg.eigvalsh(a)
    if kind == "trace":
        return float(np.abs(w).sum())
    if kind == "operator":
        return float(np.abs(w).max())
    raise ValueError(f"unknown norm kind {kind!r}")


def trace_norm(a) -> float:
    """Shorthand for schatten_norm(a, "trace")."""
    return schatten_norm(a, "trace")


def operator_norm(a) -> float:
    """Shorthand for schatten_norm(a, "operator")."""
    return schatten_norm(a, "operator")


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def swap_operator(d: int) -> np.ndarray:
    """Swap of the two factors of C^d (x) C^d: S|kl> = |lk>."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            s[l * d + k, k * d + l] = 1.0
    return s
