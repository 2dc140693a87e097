"""Quantum states and state-level quantities.

Scalar functions accept either the dataclass wrappers defined here or bare
numpy arrays; constructors return validated wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian
from .linalg import dagger, partial_trace

__all__ = [
    "PureState",
    "DensityMatrix",
    "MacroObservableSet",
    "trace_distance",
    "max_projector_distinguishability",
    "purity",
    "expectation_values",
    "effective_dimension",
    "von_neumann_entropy",
    "mutual_information",
    "microcanonical_state",
    "microcanonical_expectation",
    "canonical_state",
    "macro_pseudo_distance",
]


@dataclass
class PureState:
    """Normalized state vector with bipartite dimension metadata."""

    vector: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=complex).ravel()
        n = len(self.vector)
        if self.dims is None:
            self.dims = (n, 1)
        if self.dims[0] * self.dims[1] != n:
            raise ValueError(f"dims {self.dims} incompatible with vector length {n}")
        nrm = np.linalg.norm(self.vector)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state vector is not normalized: |psi| = {nrm!r}")

    @property
    def dim(self) -> int:
        return len(self.vector)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()), dims=self.dims)

    def reduced(self, keep: str = "S") -> "DensityMatrix":
        d_s, d_b = self.dims
        m = self.vector.reshape(d_s, d_b)
        if keep == "S":
            r = m @ dagger(m)
        elif keep == "B":
            r = m.T @ m.conj()
        else:
            raise ValueError(f"keep must be 'S' or 'B', got {keep!r}")
        return DensityMatrix(r)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.vector, other.vector))


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    matrix: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape != (d, d):
            raise ValueError(f"density matrix must be square, got {self.matrix.shape}")
        if self.dims is None:
            self.dims = (d, 1)
        if self.dims[0] * self.dims[1] != d:
            raise ValueError(f"dims {self.dims} incompatible with dimension {d}")
        scale = max(1.0, float(np.abs(self.matrix).max()))
        if np.abs(self.matrix - dagger(self.matrix)).max() > 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(self.matrix).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        w = np.linalg.eigvalsh(self.matrix)
        if w.min() < -1e-9:
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def reduced(self, keep: str = "S") -> "DensityMatrix":
        d_s, d_b = self.dims
        return DensityMatrix(partial_trace(self.matrix, d_s, d_b, keep))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _mat(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    if isinstance(rho, PureState):
        return np.outer(rho.vector, rho.vector.conj())
    return np.asarray(rho, dtype=complex)


def trace_distance(rho, sigma):
    """D(rho, sigma) = (1/2)||rho - sigma||_1 via eigenvalues of the difference.

    Either argument may also be a stack of matrices with leading axes; the
    two broadcast against each other and an array of distances is returned.
    Two single states give a float.
    """
    a, b = _mat(rho), _mat(sigma)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dist = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def max_projector_distinguishability(rho, sigma) -> float:
    """Tr[Pi_+ (rho - sigma)] with Pi_+ the positive-subspace projector.

    Cross-check route for trace_distance: the two must agree to 1e-10.
    """
    a, b = _mat(rho), _mat(sigma)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = np.linalg.eigh(a - b)
    pos = v[:, w >= 0]
    pi_plus = pos @ dagger(pos)
    return float(np.trace(pi_plus @ (a - b)).real)


def purity(rho):
    """p(rho) = Tr[rho^2].

    rho may also be a stack of matrices with leading axes; an array of
    purities is returned for it, a float for a single state.
    """
    m = _mat(rho)
    p = np.einsum("...ij,...ji->...", m, m).real
    return float(p) if p.ndim == 0 else p


def expectation_values(psis, a):
    """<psi|A|psi> for the state vectors on the last axis of psis.

    Leading axes (time, sample) are kept: an array for a stack, a float for
    one vector.  Written as a GEMM; a three-operand einsum is ~10x slower.
    """
    psis = np.asarray(psis, dtype=complex)
    x = ((psis.conj() @ a) * psis).sum(axis=-1).real
    return float(x) if x.ndim == 0 else x


def effective_dimension(rho) -> float:
    """d_eff(rho) = 1 / Tr[rho^2]."""
    return 1.0 / purity(rho)


def von_neumann_entropy(rho, base: float | None = None):
    """S(rho) = -Tr[rho log rho], natural log by default (0 log 0 := 0).

    Eigenvalues up to 1e-15 count as 0.  rho may also be a stack of
    matrices with leading axes; an array of entropies is returned for it, a
    float for a single state.
    """
    w = np.linalg.eigvalsh(_mat(rho))
    kept = w > 1e-15
    s = -np.where(kept, w * np.log(np.where(kept, w, 1.0)), 0.0).sum(axis=-1)
    if base is not None:
        s = s / np.log(base)
    s = np.maximum(s, 0.0)
    return float(s) if s.ndim == 0 else s


def mutual_information(rho: DensityMatrix, base: float | None = None) -> float:
    """I_SB = S(rho^S) + S(rho^B) - S(rho) for a bipartite state."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError("mutual_information needs a DensityMatrix with bipartite dims")
    s_s = von_neumann_entropy(rho.reduced("S"), base)
    s_b = von_neumann_entropy(rho.reduced("B"), base)
    s = von_neumann_entropy(rho, base)
    return s_s + s_b - s


def microcanonical_state(subspace_basis, dims: tuple[int, int] | None = None) -> DensityMatrix:
    """rho_mc = Pi_R / d_R for the subspace spanned by the given orthonormal vectors.

    subspace_basis: (d, d_R) array whose columns span the restricted subspace.
    """
    v = np.asarray(subspace_basis, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    d_r = v.shape[1]
    gram = dagger(v) @ v
    if np.abs(gram - np.eye(d_r)).max() > 1e-10:
        raise ValueError("subspace basis is not orthonormal")
    return DensityMatrix((v @ dagger(v)) / d_r, dims=dims)


def microcanonical_expectation(b, subspace_basis) -> float:
    """<B>_mc = Tr[(Pi_R/d_R) B]."""
    rho = microcanonical_state(subspace_basis)
    return float(np.trace(rho.matrix @ np.asarray(b, dtype=complex)).real)


def canonical_state(h_s: Hamiltonian, beta: float) -> DensityMatrix:
    """Gibbs state e^{-beta H_S}/Z, computed with shifted exponents for stability."""
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    e = h_s.eigenvalues
    w = np.exp(-beta * (e - e.min()))
    w /= w.sum()
    m = (h_s.eigenbasis * w) @ dagger(h_s.eigenbasis)
    return DensityMatrix(m, dims=h_s.dims)


@dataclass
class MacroObservableSet:
    """Mutually orthogonal projectors modelling coarse macro observables."""

    projectors: list
    labels: list | None = None
    complete: bool = False

    def __post_init__(self):
        self.projectors = [np.asarray(p, dtype=complex) for p in self.projectors]
        if self.labels is None:
            self.labels = [f"M{i}" for i in range(len(self.projectors))]
        if len(self.labels) != len(self.projectors):
            raise ValueError("labels and projectors length mismatch")
        d = self.projectors[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(self.projectors):
            if np.abs(p @ p - p).max() > 1e-10:
                raise ValueError(f"projector {i} is not idempotent")
            for q in self.projectors[i + 1:]:
                if np.abs(p @ q).max() > 1e-10:
                    raise ValueError("projectors are not mutually orthogonal")
            total += p
        self.complete = bool(np.abs(total - np.eye(d)).max() <= 1e-10)

    @property
    def count(self) -> int:
        return len(self.projectors)


def macro_pseudo_distance(m: MacroObservableSet, rho, sigma) -> float:
    """D_M(rho, sigma) = max_r Tr[Pi_r (rho - sigma)]; never exceeds trace_distance."""
    a, b = _mat(rho), _mat(sigma)
    diff = a - b
    if diff.shape[0] != m.projectors[0].shape[0]:
        raise ValueError("projectors incompatible with state dimension")
    return float(max(np.trace(p @ diff).real for p in m.projectors))
