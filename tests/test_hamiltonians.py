"""Gap analysis, composite splits and pointer Hamiltonians."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from purestat import (
    CompositeHamiltonian,
    Hamiltonian,
    compose_hamiltonian,
    dagger,
    gap_analysis,
    partial_trace,
    phase_factors,
    pointer_hamiltonian,
    time_map,
)


def brute_force_gap_report(e, tol=1e-9):
    """Exhaustive O(n^2)-pairs scan straight from the definition."""
    e = np.sort(np.asarray(e, dtype=float))
    gaps = [e[k] - e[l] for k in range(len(e)) for l in range(k)]
    min_gap = min(np.diff(e))
    mgd = min(abs(a - b) for a, b in itertools.combinations(gaps, 2))
    return min_gap, mgd, bool(min_gap > tol and mgd > tol)


def test_gap_analysis_equally_spaced_is_resonant():
    rep = gap_analysis([0.0, 1.0, 2.0])
    assert rep.min_gap == pytest.approx(1.0)
    assert rep.min_gap_difference == pytest.approx(0.0)
    assert not rep.non_resonant


def test_gap_analysis_distinct_gaps():
    rep = gap_analysis([0.0, 1.0, 3.0, 7.0])
    mg, mgd, nr = brute_force_gap_report([0.0, 1.0, 3.0, 7.0])
    assert rep.min_gap == pytest.approx(mg)
    assert rep.min_gap_difference == pytest.approx(mgd)
    assert rep.non_resonant and nr


def test_gap_analysis_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(50):
        e = rng.random(int(rng.integers(3, 10)))
        rep = gap_analysis(e)
        mg, mgd, nr = brute_force_gap_report(e)
        assert rep.min_gap == pytest.approx(mg, abs=1e-15)
        assert rep.min_gap_difference == pytest.approx(mgd, abs=1e-15)
        assert rep.non_resonant == nr


def test_gap_analysis_jittered_uniform_d32():
    rng = np.random.default_rng(32)
    e = np.sort(rng.random(32))
    e += rng.uniform(-1e-6, 1e-6, 32)
    rep = gap_analysis(np.sort(e))
    assert rep.non_resonant


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([1.0, 0.0]), np.eye(2, dtype=complex))  # not ascending
    with pytest.raises(ValueError):
        Hamiltonian(np.array([0.0, 1.0]), np.ones((2, 2), dtype=complex))  # not unitary
    # before, both NaN cases passed: np.diff(e) < 0 and dev > 1e-10 are False for NaN
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        Hamiltonian(np.array([0.0, np.nan, 1.0]))
    basis = np.eye(3, dtype=complex)
    basis[0, 1] = np.nan
    with pytest.raises(ValueError, match="not unitary: deviation nan"):
        Hamiltonian(np.array([0.0, 0.5, 1.0]), basis)


def test_a_diagonal_hamiltonian_fills_in_the_identity():
    # only a left-out eigenbasis skips the unitarity check; a passed one is checked
    rng = np.random.default_rng(34)
    e = np.sort(rng.random(16))
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    times = rng.uniform(0.0, 1e3, 300)
    diagonal, explicit = Hamiltonian(e), Hamiltonian(e, np.eye(16))
    assert np.array_equal(diagonal.eigenbasis, np.eye(16))
    assert diagonal.gap_report == explicit.gap_report
    assert diagonal.diagonal and not explicit.diagonal
    # the diagonal one skips the basis change, which is bitwise the identity GEMM
    for initial in (psi, np.stack([psi, 2 * psi, psi.conj()])):
        got, want = (time_map(h, initial, times, np.copy) for h in (diagonal, explicit))
        assert got.tobytes() == want.tobytes()
    skewed = np.eye(16, dtype=complex)
    skewed[0, 1] = 1e-6
    with pytest.raises(ValueError, match="not unitary"):
        Hamiltonian(e, skewed)
    with pytest.raises(ValueError, match="shape"):
        Hamiltonian(e, np.eye(15))


def test_to_eigenbasis_takes_one_state_vector_only():
    rng = np.random.default_rng(38)
    h = CompositeHamiltonian(_rand_herm(4, rng), (2, 2))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(h.to_eigenbasis(psi), dagger(h.eigenbasis) @ psi)
    # a (d, d) stack once passed as d "coefficient vectors", a wrong length too
    for bad in (np.eye(4), psi[:, None], psi[None, :], psi[:3], np.complex128(1.0)):
        with pytest.raises(ValueError, match="one state vector"):
            h.to_eigenbasis(bad)


def unitary_from_hamiltonian(h, t):
    """U_t = exp(-iHt) through the library's one evolution path: column j is
    the basis state e_j evolved by time_map."""
    return time_map(h, np.eye(h.dim), [t], np.copy)[0].T


def test_unitary_from_hamiltonian():
    rng = np.random.default_rng(33)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = CompositeHamiltonian((z + dagger(z)) / 2, (6, 1))
    assert np.abs(unitary_from_hamiltonian(h, 0.0) - np.eye(6)).max() < 1e-12

    hd = Hamiltonian(np.array([0.0, 1.0]), np.eye(2, dtype=complex))
    u = unitary_from_hamiltonian(hd, np.pi)
    assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    for t in (0.3, 2.2, 17.0):
        u, uinv = unitary_from_hamiltonian(h, t), unitary_from_hamiltonian(h, -t)
        assert np.abs(u @ uinv - np.eye(6)).max() < 1e-10
        assert np.abs(u @ dagger(u) - np.eye(6)).max() < 1e-10


def test_unitary_composition():
    rng = np.random.default_rng(34)
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = CompositeHamiltonian((z + dagger(z)) / 2, (5, 1))
    for t1, t2 in ((0.1, 0.5), (1.3, -2.0), (4.0, 4.0)):
        u12 = unitary_from_hamiltonian(h, t1) @ unitary_from_hamiltonian(h, t2)
        assert np.abs(u12 - unitary_from_hamiltonian(h, t1 + t2)).max() < 1e-9


PI_64 = Fraction("3.141592653589793238462643383279502884197169399375105820974944592307816")


def _exact_phase(x: float) -> complex:
    """exp(-i x) for the double x, reduced mod 2 pi in exact rational arithmetic."""
    two_pi = 2 * PI_64
    q = Fraction(x)
    r = float(q - round(q / two_pi) * two_pi)
    return complex(math.cos(r), -math.sin(r))


def test_phase_factors_match_exact_reduction():
    # |E t| at 0, 1, 1e3, 7e9, 7e12 and 2^50, with energies of both signs
    rng = np.random.default_rng(35)
    e = np.concatenate([rng.uniform(-3.0, 3.0, 13), [3.0, -3.0]])
    times = np.array([0.0, 1.0, 1e3, 7e9, 7e12, 2.0 ** 50]) / 3.0
    got = phase_factors(e, times)
    assert got.shape == (len(times), len(e))
    for i, t in enumerate(times):
        for k, ek in enumerate(e):
            assert abs(got[i, k] - _exact_phase(ek * t)) <= 1e-15, (t, ek)
    assert np.max(np.abs(e) * times[-1]) == 2.0 ** 50
    # log-uniform arguments over the whole range the guard admits
    x = rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-3.0, 15.6, 300)
    got = phase_factors(x, 1.0)
    assert max(abs(g - _exact_phase(v)) for g, v in zip(got, x)) <= 1e-15


def test_phase_factors_quadrant_reduction_matches_exact():
    # x within 3 ulp of odd multiples of pi/4, where rint(-x 2/pi) switches
    # quadrant, for every k mod 4 of both signs, and past 2^26 pi/2, where the
    # high half of k is non-zero
    half_pi = PI_64 / 2
    ms = [*range(-8, 8), 2**27 + 3, -(2**27) - 6, 2**40 + 1, -(2**45) - 2, 2**50 + 7]
    x = []
    for m in ms:
        centre = float((2 * m + 1) * PI_64 / 4)
        x.append(centre)
        for direction in (math.inf, -math.inf):
            v = centre
            for _ in range(3):
                v = math.nextafter(v, direction)
                x.append(v)
    got = phase_factors(np.array(x), 1.0)
    for g, v in zip(got, x):
        assert abs(g - _exact_phase(v)) <= 1e-15, v
    quadrants = {(round(Fraction(-v) / half_pi) % 4, v > 0) for v in x}
    assert quadrants == set(itertools.product(range(4), (False, True)))
    assert sum(abs(Fraction(v)) > 2**26 * half_pi for v in x) >= 5 * 7


def test_phase_factors_conjugate_symmetry():
    rng = np.random.default_rng(36)
    e = rng.uniform(-5.0, 5.0, 24)
    times = rng.uniform(0.0, 1e12, 40)
    ph = phase_factors(e, times)
    assert np.array_equal(phase_factors(-e, times), ph.conj())
    assert np.array_equal(phase_factors(e, -times), ph.conj())
    assert np.array_equal(phase_factors(-e, -times), ph)


def test_phase_factors_equal_energies_give_bitwise_equal_columns():
    rng = np.random.default_rng(37)
    a, b = rng.uniform(-4.0, 4.0, 2)
    ph = phase_factors(np.array([a, b, a, -b, a]), rng.uniform(0.0, 1e12, 600))
    for col in (2, 4):
        assert ph[:, col].tobytes() == ph[:, 0].tobytes()


def test_phase_factors_at_time_zero_are_one():
    e = np.array([-7.5, -1e-3, 0.0, 2.0, 1e6])
    assert np.all(phase_factors(e, [0.0, -0.0]) == 1.0)
    assert np.all(phase_factors(e, 0.0) == 1.0)


def test_phase_factors_blocks_do_not_change_values():
    # every row of a time batch is the single-time call, bit for bit
    rng = np.random.default_rng(38)
    e = rng.uniform(-3.0, 3.0, 7)
    times = rng.uniform(0.0, 1e10, 515)
    ph = phase_factors(e, times)
    assert ph.shape == (len(times), 7)
    for i in (0, 255, 256, 514):
        assert np.array_equal(phase_factors(e, times[i]), ph[i])
    assert np.abs(ph - np.exp(-1j * np.outer(times, e))).max() <= 1e-15


def test_phase_factors_write_into_out():
    rng = np.random.default_rng(39)
    e = rng.uniform(-3.0, 3.0, 9)
    times = rng.uniform(0.0, 1e10, 40)
    buf = np.empty(2 * 40 * 9, dtype=complex)
    out = buf[:40 * 9].reshape(40, 9)
    assert phase_factors(e, times, out=out) is out
    assert out.tobytes() == phase_factors(e, times).tobytes()
    one = np.empty(9, dtype=complex)
    assert phase_factors(e, times[3], out=one) is one and np.array_equal(one, out[3])
    for bad in (np.empty((40, 8), dtype=complex), np.empty((40, 9))):
        with pytest.raises(ValueError, match=r"out must be complex of shape \(40, 9\)"):
            phase_factors(e, times, out=bad)


def test_phase_factors_range_guard():
    e = np.array([1.0, -3.0])
    phase_factors(e, (2.0 ** 52 - 4) / 3)   # largest |E t| just below 2^52 passes
    for t in (2.0 ** 52 / 3, 1e20, math.inf, math.nan):
        with pytest.raises(ValueError, match="largest phase argument"):
            phase_factors(e, [0.0, t])
    with pytest.raises(ValueError, match=r"\|E t\| = 3e\+20 "):
        phase_factors(e, 1e20)


def _rand_herm(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + dagger(z)) / 2


def _matrix(h):
    """V diag(E) V^dagger of a Hamiltonian."""
    return (h.eigenbasis * h.eigenvalues) @ dagger(h.eigenbasis)


def test_decompose_reassembles():
    rng = np.random.default_rng(35)
    h_full = _rand_herm(12, rng)
    parts = CompositeHamiltonian(h_full, (3, 4))
    assert parts.dims == (3, 4)
    h0 = np.trace(h_full).real / 12
    h_b = partial_trace(h_full, 3, 4, "B") / 3
    h_b -= np.trace(h_b) / 4 * np.eye(4)
    rebuilt = h0 * np.eye(12) + np.kron(parts.h_s, np.eye(4)) + np.kron(np.eye(3), h_b) + parts.h_sb
    assert np.abs(rebuilt - h_full).max() < 1e-10
    assert abs(np.trace(parts.h_s)) < 1e-9 * 3
    # H_SB has no part acting on one factor alone: Tr_B H_SB = 0 and Tr_S H_SB = 0
    assert np.abs(partial_trace(parts.h_sb, 3, 4, "S")).max() < 1e-10
    assert np.abs(partial_trace(parts.h_sb, 3, 4, "B")).max() < 1e-10
    assert np.abs(_matrix(parts) - h_full).max() < 1e-9
    # h is validated before it is split
    with pytest.raises(ValueError, match="not Hermitian"):
        CompositeHamiltonian(h_full + 1j * np.eye(12), (3, 4))
    with pytest.raises(ValueError, match="non-finite"):
        CompositeHamiltonian(np.full((12, 12), np.nan), (3, 4))
    with pytest.raises(ValueError, match="square"):
        CompositeHamiltonian(h_full[:, :6], (3, 2))
    with pytest.raises(ValueError, match="incompatible"):
        CompositeHamiltonian(h_full, (3, 5))


def test_a_composite_hamiltonian_is_its_diagonalised_matrix():
    rng = np.random.default_rng(39)
    h_full = _rand_herm(12, rng)
    parts = CompositeHamiltonian(h_full, (3, 4))
    assert isinstance(parts, Hamiltonian)
    assert not hasattr(parts, "assembled") and not hasattr(Hamiltonian, "from_matrix")
    w, v = np.linalg.eigh(h_full)
    assert np.array_equal(parts.eigenvalues, w) and np.array_equal(parts.eigenbasis, v)
    assert parts.dims == (3, 4) and not parts.diagonal
    plain = Hamiltonian(parts.eigenvalues, parts.eigenbasis, dims=parts.dims)
    assert parts.gap_report == plain.gap_report
    psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    times = rng.uniform(0.0, 50.0, 300)
    for initial in (psi, np.stack([psi, psi.conj()])):
        got, want = (time_map(h, initial, times, np.copy) for h in (parts, plain))
        assert got.tobytes() == want.tobytes()


def test_compose_from_parts():
    rng = np.random.default_rng(36)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(5, rng)
    parts = compose_hamiltonian(h_s, h_b, np.zeros((10, 10)))
    uncoupled = np.kron(h_s, np.eye(5)) + np.kron(np.eye(2), h_b)
    assert np.abs(_matrix(parts) - uncoupled).max() < 1e-10
    assert np.abs(parts.h_sb).max() < 1e-10  # no interaction part


def test_pointer_hamiltonian_structure():
    rng = np.random.default_rng(37)
    blocks = [_rand_herm(4, rng) for _ in range(3)]
    parts = pointer_hamiltonian(3, blocks)
    h = _matrix(parts)
    for p, b in enumerate(blocks):
        assert np.abs(h[p * 4:(p + 1) * 4, p * 4:(p + 1) * 4] - b).max() < 1e-10
    # off-diagonal pointer blocks vanish
    assert np.abs(h[0:4, 4:8]).max() < 1e-12
    with pytest.raises(ValueError):
        pointer_hamiltonian(2, blocks)
    with pytest.raises(ValueError):
        pointer_hamiltonian(2, [np.eye(4), np.eye(3)])
