"""State-level quantities.

A pure state is a complex array: (d,) for one state vector, (m, d) for a
stack.  The functions take numpy arrays: density matrices (expectation_values:
state vectors; dephased_purity: populations), one or a stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import hermitian_spectrum

__all__ = [
    "trace_distance",
    "purity",
    "expectation_values",
    "dephased_purity",
    "effective_dimension",
    "von_neumann_entropy",
]


def trace_distance(rho, sigma):
    """D(rho, sigma) = (1/2)||rho - sigma||_1 via eigenvalues of the difference.

    Either argument may also be a stack of matrices with leading axes; the
    two broadcast against each other and an array of distances is returned.
    Two single states give a float.  A 2 x 2 Hermitian difference
    [[x, z*], [z, y]] has the eigenvalues m +- r with m = (x + y)/2 and
    r = hypot((x - y)/2, |z|), so D = max(|m|, r) in closed form; larger matrices
    go through hermitian_spectrum.  A matrix with a non-finite entry gives NaN.
    """
    a, b = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-2:] != b.shape[-2:]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    if diff.shape[-1] == 2:
        # z = diff[1, 0]: the lower triangle, which hermitian_spectrum reads too
        x, y = diff[..., 0, 0].real, diff[..., 1, 1].real
        dist = np.maximum(np.abs(x + y), np.hypot(x - y, 2 * np.abs(diff[..., 1, 0]))) / 2
        if not np.isfinite(diff).all():
            dist = np.where(np.isfinite(diff).all(axis=(-2, -1)), dist, np.nan)
    else:
        dist = 0.5 * np.abs(hermitian_spectrum(diff)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def purity(rho):
    """p(rho) = Tr[rho^2].

    rho may also be a stack of matrices with leading axes; an array of
    purities is returned for it, a float for a single state.
    """
    m = np.asarray(rho, dtype=complex)
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


def dephased_purity(probs):
    """Tr[omega^2] = sum_k p_k^2 of omega = sum_k p_k |E_k><E_k|, the one home of
    d_eff(omega) = 1 / Tr[omega^2]: p on the last axis; a float for one state."""
    pur = (np.asarray(probs, dtype=float) ** 2).sum(axis=-1)
    return float(pur) if pur.ndim == 0 else pur


def effective_dimension(rho):
    """d_eff(rho) = 1 / Tr[rho^2]: a float, or an array for a stack of matrices."""
    return 1.0 / purity(rho)


def von_neumann_entropy(rho):
    """S(rho) = -Tr[rho log rho] in nats (0 log 0 := 0).

    Eigenvalues up to 1e-15 count as 0.  rho may also be a stack of
    matrices with leading axes; an array of entropies is returned for it, a
    float for a single state.  A matrix with a non-finite entry gives NaN.
    """
    w = hermitian_spectrum(np.asarray(rho, dtype=complex))
    # a NaN eigenvalue is neither dropped nor logged: NaN * log(1) keeps it
    s = -np.where(w <= 1e-15, 0.0, w * np.log(np.where(w > 1e-15, w, 1.0))).sum(axis=-1)
    s = np.maximum(s, 0.0)
    return float(s) if s.ndim == 0 else s
