"""Core linear algebra: contracts and derived oracles."""

import numpy as np
import pytest

from purestat import (
    CompositeHamiltonian,
    commutator,
    dagger,
    operator_norm,
    partial_trace,
    trace_norm,
)

RNG = np.random.default_rng(20260810)


def random_hermitian(d, rng=RNG):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + dagger(z)) / 2


# the one Hermitian eigendecomposition is CompositeHamiltonian's

def diagonalise(a):
    """a as a Hamiltonian on (n, 1): validated, then np.linalg.eigh."""
    return CompositeHamiltonian(a, (len(a), 1))


def test_eig_identity():
    dec = diagonalise(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.abs(dagger(dec.eigenbasis) @ dec.eigenbasis - np.eye(4)).max() < 1e-12


def test_eig_pauli_x():
    dec = diagonalise(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eig_reconstruction_oracle():
    # multiply back: V diag(w) V^dag must reproduce the input
    for d in (2, 3, 5, 8, 16, 33, 64):
        a = random_hermitian(d)
        dec = diagonalise(a)
        recon = (dec.eigenbasis * dec.eigenvalues) @ dagger(dec.eigenbasis)
        scale = np.abs(dec.eigenvalues).max()
        assert np.abs(recon - a).max() <= 1e-9 * scale
        assert np.abs(dagger(dec.eigenbasis) @ dec.eigenbasis - np.eye(d)).max() <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_eig_residuals_many_dims():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        d = int(rng.integers(2, 65))
        a = random_hermitian(d, rng)
        dec = diagonalise(a)
        scale = max(np.abs(dec.eigenvalues).max(), 1e-300)
        assert np.abs((dec.eigenbasis * dec.eigenvalues) @ dagger(dec.eigenbasis) - a).max() \
            <= 1e-9 * scale
        assert np.abs(dagger(dec.eigenbasis) @ dec.eigenbasis - np.eye(d)).max() <= 1e-10


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        diagonalise(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalise(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        diagonalise(np.array([[0, np.nan], [np.nan, 0]], dtype=complex))


def test_eig_deterministic():
    a = random_hermitian(12)
    d1, d2 = diagonalise(a), diagonalise(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenbasis, d2.eigenbasis)


def swap_operator(d):
    """Swap of the two factors of C^d (x) C^d: S|kl> = |lk>, built entry by entry."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            s[l * d + k, k * d + l] = 1.0
    return s


def test_tensor_swap_trace_identity():
    # Tr[A B] = Tr[(A x B) S] with the swap built explicitly
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(a @ b)
        rhs = np.trace(np.kron(a, b) @ swap_operator(3))
        assert abs(lhs - rhs) < 1e-10


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.abs(partial_trace(rho, 2, 2, "S") - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_product_factorizes():
    rng = np.random.default_rng(11)
    a = random_hermitian(2, rng); a = a @ a.conj().T; a /= np.trace(a)
    b = random_hermitian(3, rng); b = b @ b.conj().T; b /= np.trace(b)
    rho = np.kron(a, b)
    assert np.abs(partial_trace(rho, 2, 3, "S") - a).max() < 1e-12
    assert np.abs(partial_trace(rho, 2, 3, "B") - b).max() < 1e-12


def _partial_trace_loop_oracle(rho, d_s, d_b, keep):
    # naive double-loop index summation, the definition itself
    if keep == "S":
        out = np.zeros((d_s, d_s), dtype=complex)
        for i in range(d_s):
            for j in range(d_s):
                for b in range(d_b):
                    out[i, j] += rho[i * d_b + b, j * d_b + b]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for a in range(d_b):
            for b in range(d_b):
                for i in range(d_s):
                    out[a, b] += rho[i * d_b + a, i * d_b + b]
    return out


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    for keep in ("S", "B"):
        assert np.abs(partial_trace(rho, 2, 3, keep)
                      - _partial_trace_loop_oracle(rho, 2, 3, keep)).max() < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ dagger(g); rho /= np.trace(rho).real
    red = partial_trace(rho, 2, 4, "S")
    assert abs(np.trace(red) - 1) < 1e-12
    assert np.abs(red - dagger(red)).max() < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), 2, 4, "S")


def test_schatten_trivials():
    for d in (2, 5):
        eye = np.eye(d)
        assert trace_norm(eye) == pytest.approx(d)
        assert operator_norm(eye) == pytest.approx(1.0)
    m = np.diag([0.7, -0.3])
    assert trace_norm(m) == pytest.approx(1.0)
    assert operator_norm(m) == pytest.approx(0.7)
    for norm in (trace_norm, operator_norm):
        with pytest.raises(ValueError):
            norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_schatten_norm_ordering():
    # operator <= Hilbert-Schmidt (Frobenius) <= trace on random Hermitian samples
    rng = np.random.default_rng(4)
    for _ in range(300):
        a = random_hermitian(int(rng.integers(2, 12)), rng)
        op = operator_norm(a)
        hs = float(np.linalg.norm(a))
        tr = trace_norm(a)
        assert op <= hs + 1e-12 <= tr + 2e-12


def test_commutator_trivials():
    a = random_hermitian(4)
    assert np.abs(commutator(a, a)).max() < 1e-12
    assert np.abs(commutator(np.diag([1., 2, 3, 4]), np.diag([4., 1, 2, 2]))).max() == 0


def test_commutator_hand_case():
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    a = np.diag([0.0, 1.0])
    c = commutator(rho, a)
    assert np.allclose(c, 0.5 * np.array([[0, 1], [-1, 0]]))
    assert np.abs(c + dagger(c)).max() < 1e-14  # anti-Hermitian
    assert trace_norm(1j * c) == pytest.approx(1.0)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))
