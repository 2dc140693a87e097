"""Gap analysis, composite splits and pointer Hamiltonians."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from purestat import (
    Hamiltonian,
    compose_hamiltonian,
    dagger,
    decompose_hamiltonian,
    gap_analysis,
    phase_factors,
    pointer_hamiltonian,
    tensor_product,
    unitary_from_hamiltonian,
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
    rep = gap_analysis(np.sort(e), tol=1e-9)
    assert rep.non_resonant


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([1.0, 0.0]), np.eye(2, dtype=complex))  # not ascending
    with pytest.raises(ValueError):
        Hamiltonian(np.array([0.0, 1.0]), np.ones((2, 2), dtype=complex))  # not unitary


def test_unitary_from_hamiltonian():
    rng = np.random.default_rng(33)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = Hamiltonian.from_matrix((z + dagger(z)) / 2)
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
    h = Hamiltonian.from_matrix((z + dagger(z)) / 2)
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


def test_decompose_reassembles():
    rng = np.random.default_rng(35)
    h_full = _rand_herm(12, rng)
    parts = decompose_hamiltonian(h_full, 3, 4)
    assert abs(np.trace(parts.h_s)) < 1e-9 * 3
    assert abs(np.trace(parts.h_b)) < 1e-9 * 4
    assert abs(np.trace(parts.h_sb)) < 1e-9 * 12
    assert np.abs(parts.full_matrix() - h_full).max() < 1e-10
    assert np.abs(parts.assembled.matrix() - h_full).max() < 1e-9


def test_compose_from_parts():
    rng = np.random.default_rng(36)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(5, rng)
    parts = compose_hamiltonian(h_s, h_b)
    uncoupled = tensor_product(h_s, np.eye(5)) + tensor_product(np.eye(2), h_b)
    assert np.abs(parts.full_matrix() - uncoupled).max() < 1e-10
    assert np.abs(parts.h_sb).max() < 1e-10  # no interaction part


def test_pointer_hamiltonian_structure():
    rng = np.random.default_rng(37)
    blocks = [_rand_herm(4, rng) for _ in range(3)]
    parts = pointer_hamiltonian(3, blocks)
    h = parts.full_matrix()
    for p, b in enumerate(blocks):
        assert np.abs(h[p * 4:(p + 1) * 4, p * 4:(p + 1) * 4] - b).max() < 1e-10
    # off-diagonal pointer blocks vanish
    assert np.abs(h[0:4, 4:8]).max() < 1e-12
    with pytest.raises(ValueError):
        pointer_hamiltonian(2, blocks)
    with pytest.raises(ValueError):
        pointer_hamiltonian(2, [np.eye(4), np.eye(3)])
