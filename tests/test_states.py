"""State-level quantities: trace distance, entropies, constructors."""

import numpy as np
import pytest

from purestat import (
    SETUP_DOMAIN,
    dagger,
    effective_dimension,
    expectation_values,
    partial_trace,
    purity,
    stream,
    trace_distance,
    von_neumann_entropy,
)
from purestat.experiments import EXPERIMENTS

RNG = np.random.default_rng(777)


def random_density(d, rng=RNG, rank=None):
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(d, rng=RNG):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _density(psi):
    """|psi><psi| of a state vector."""
    return np.outer(psi, psi.conj())


def test_trace_distance_trivials():
    rho = random_density(4)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    e0, e1 = np.zeros(3), np.zeros(3)
    e0[0] = 1; e1[1] = 1
    assert trace_distance(np.outer(e0, e0), np.outer(e1, e1)) == pytest.approx(1.0)
    assert trace_distance(np.diag([0.7, 0.3]), np.diag([0.4, 0.6])) == pytest.approx(0.3)


def test_trace_distance_stacks_match_scalar_calls():
    rhos = np.array([random_density(4) for _ in range(6)])
    sigmas = np.array([random_density(4) for _ in range(6)])
    fixed = random_density(4)
    pairwise = trace_distance(rhos, sigmas)
    against_one = trace_distance(rhos, fixed)
    assert isinstance(pairwise, np.ndarray) and pairwise.shape == (6,)
    for i in range(6):
        assert abs(pairwise[i] - trace_distance(rhos[i], sigmas[i])) <= 1e-15
        assert abs(against_one[i] - trace_distance(rhos[i], fixed)) <= 1e-15
    assert isinstance(trace_distance(rhos[0], sigmas[0]), float)
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_distance(rhos, random_density(3))


def _eigvalsh_distance(diff):
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def test_qubit_trace_distance_closed_form_matches_eigvalsh():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((4, 256, 2, 2)) + 1j * rng.standard_normal((4, 256, 2, 2))
    herm = (g + np.conj(np.swapaxes(g, -1, -2))) / 2
    traceless = herm - np.trace(herm, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) / 2
    degenerate = rng.standard_normal((256, 1, 1)) * np.eye(2)   # equal eigenvalues
    zero = np.zeros((256, 2, 2))
    cases = {"random": herm[0], "scaled": 1e-6 * herm[1], "traceless": traceless[2],
             "rank one": herm[3] @ herm[3], "degenerate": degenerate, "zero": zero}
    for name, diff in cases.items():
        ref = _eigvalsh_distance(diff)
        got = trace_distance(diff, np.zeros((2, 2)))
        scale = max(np.abs(diff).max(), 1e-300)
        assert np.abs(got - ref).max() <= 4e-16 * scale, name
        assert np.array_equal(got, trace_distance(-diff, np.zeros((2, 2)))), name
    assert np.array_equal(trace_distance(degenerate, np.zeros((2, 2))), np.abs(degenerate[:, 0, 0]))
    assert not trace_distance(zero, zero).any()
    rhos = np.array([random_density(2, rng) for _ in range(64)])
    assert np.abs(trace_distance(rhos, rhos[::-1]) - _eigvalsh_distance(rhos - rhos[::-1])).max() \
        <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_trace_distance_of_a_non_finite_matrix_is_nan(n):
    # eigvalsh gave [0, -0] for [[nan, 0], [0, 1]] - I/2, so the distance read 0.0
    bad = np.eye(n) / n
    bad[0, 0] = np.nan
    assert np.isnan(trace_distance(bad, np.eye(n) / n))
    for value in (np.nan, np.inf, -np.inf):
        off = np.eye(n, dtype=complex) / n
        off[0, 1] = off[1, 0] = value
        assert np.isnan(trace_distance(off, np.eye(n) / n)), value
    rng = np.random.default_rng(16)
    stack = np.array([random_density(n, rng) for _ in range(5)])
    clean = trace_distance(stack, np.eye(n) / n)
    stack[3, n - 1, 0] = np.inf
    got = trace_distance(stack, np.eye(n) / n)
    assert np.isnan(got[3]) and np.array_equal(np.delete(got, 3), np.delete(clean, 3))


def test_trace_distance_metric_axioms():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b, c = (random_density(5, rng) for _ in range(3))
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9
        assert -1e-12 <= dab <= 1.0 + 1e-12


def test_trace_distance_pure_state_formula():
    rng = np.random.default_rng(9)
    for _ in range(100):
        psi, phi = random_pure(6, rng), random_pure(6, rng)
        d = trace_distance(_density(psi), _density(phi))
        expected = np.sqrt(1 - abs(np.vdot(psi, phi)) ** 2)
        assert d == pytest.approx(expected, abs=1e-9)


def test_trace_distance_hilbert_schmidt_cap():
    rng = np.random.default_rng(10)
    for _ in range(100):
        a, b = random_density(6, rng), random_density(6, rng)
        diff = a - b
        cap = 0.5 * np.sqrt(6 * np.trace(diff @ diff).real)
        assert trace_distance(a, b) <= cap + 1e-12


def max_projector_distinguishability(rho, sigma):
    """Tr[Pi_+ (rho - sigma)] with Pi_+ the projector onto the positive
    eigenspace of rho - sigma: the projector form of the trace distance."""
    diff = rho - sigma
    w, v = np.linalg.eigh(diff)
    pos = v[:, w >= 0]
    return float(np.trace(pos @ dagger(pos) @ diff).real)


def test_max_projector_distinguishability():
    rho = random_density(5)
    assert max_projector_distinguishability(rho, rho) \
        == pytest.approx(0.0, abs=1e-12)
    assert max_projector_distinguishability(np.diag([1.0, 0]), np.diag([0, 1.0])) \
        == pytest.approx(1.0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = random_density(7, rng), random_density(7, rng)
        assert max_projector_distinguishability(a, b) \
            == pytest.approx(trace_distance(a, b), abs=1e-10)


def test_purity_and_effective_dimension():
    psi = random_pure(8)
    assert purity(_density(psi)) == pytest.approx(1.0)
    assert effective_dimension(_density(psi)) == pytest.approx(1.0)
    assert purity(np.eye(6) / 6) == pytest.approx(1 / 6)
    assert effective_dimension(np.eye(6) / 6) == pytest.approx(6.0)
    # dephased equal superposition of k eigenstates has d_eff = k
    k = 5
    assert effective_dimension(np.diag([1 / k] * k + [0.0] * 3)) == pytest.approx(k)


def test_stacked_purity_and_expectation_values_match_single_calls():
    rng = np.random.default_rng(21)
    rhos = np.array([random_density(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    p = purity(rhos)
    assert isinstance(p, np.ndarray) and p.shape == (2, 3)
    assert np.array_equal(p.ravel(), [purity(r) for r in rhos.reshape(6, 4, 4)])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g + g.conj().T
    psis = np.array([random_pure(4, rng) for _ in range(6)]).reshape(2, 3, 4)
    x = expectation_values(psis, a)
    assert isinstance(x, np.ndarray) and x.shape == (2, 3)
    for v, xv in zip(psis.reshape(6, 4), x.ravel()):
        one = expectation_values(v, a)
        assert isinstance(one, float) and one == xv
        assert abs(xv - np.vdot(v, a @ v).real) <= 1e-14
        assert abs(xv - np.trace(a @ np.outer(v, v.conj())).real) <= 1e-14


def test_marginal_purities_equal_for_pure_states():
    rng = np.random.default_rng(13)
    for _ in range(50):
        psi = random_pure(24, rng)
        rho = _density(psi)
        assert purity(partial_trace(rho, 4, 6, "S")) \
            == pytest.approx(purity(partial_trace(rho, 4, 6, "B")), abs=1e-10)


def test_effective_dimension_range():
    rng = np.random.default_rng(14)
    for _ in range(200):
        rho = random_density(6, rng)
        deff = effective_dimension(rho)
        assert 1.0 - 1e-9 <= deff <= 6.0 + 1e-9
    assert effective_dimension(np.eye(6) / 6) == pytest.approx(6.0)


def test_entropy():
    psi = random_pure(5)
    assert von_neumann_entropy(_density(psi)) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_entropy(np.eye(7) / 7) == pytest.approx(np.log(7))
    assert von_neumann_entropy(np.diag([0.5, 0.5])) == pytest.approx(np.log(2))
    assert von_neumann_entropy(np.diag([0.5, 0.5])) / np.log(2) == pytest.approx(1.0)   # 1 bit


@pytest.mark.parametrize("n", [2, 3])
def test_entropy_of_a_non_finite_matrix_is_nan(n):
    # eigenvalues were NaN, dropped as "not above 1e-15", and the entropy read
    # 0.0 ([[nan, 0], [0, 1]]) or 0.366 (I/3 with NaN at (0, 1) and (1, 0))
    bad = np.eye(n, dtype=complex) / n
    bad[0, 1] = bad[1, 0] = np.nan
    assert np.isnan(von_neumann_entropy(bad))
    diag = np.eye(n) / n
    diag[0, 0] = np.nan
    assert np.isnan(von_neumann_entropy(diag))
    rng = np.random.default_rng(17)
    stack = np.array([random_density(n, rng) for _ in range(4)])
    clean = von_neumann_entropy(stack)
    stack[1, 0, 0] = np.inf
    got = von_neumann_entropy(stack)
    assert np.isnan(got[1]) and np.array_equal(np.delete(got, 1), np.delete(clean, 1))


def mutual_information(rho, dims):
    """I_SB = S(rho^S) + S(rho^B) - S(rho) of a density matrix on d_S x d_B."""
    return (von_neumann_entropy(partial_trace(rho, *dims, "S"))
            + von_neumann_entropy(partial_trace(rho, *dims, "B")) - von_neumann_entropy(rho))


def test_mutual_information():
    rho = random_density(3)
    sig = random_density(4)
    assert mutual_information(np.kron(rho, sig), (3, 4)) == pytest.approx(0.0, abs=1e-9)

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert mutual_information(np.outer(bell, bell.conj()), (2, 2)) \
        == pytest.approx(2 * np.log(2), abs=1e-9)

    rng = np.random.default_rng(15)
    for _ in range(20):
        psi = random_pure(16, rng)
        i_sb = mutual_information(_density(psi), (2, 8))
        assert i_sb == pytest.approx(
            2 * von_neumann_entropy(partial_trace(_density(psi), 2, 8, "S")), abs=1e-9)


def test_mutual_information_nonnegative():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        assert mutual_information(random_density(6, rng), (2, 3)) >= -1e-9


def test_microcanonical_expectation_matches_basis_average():
    # CANONICAL_REDUCTION's marginals of rho_mc = Pi_R / d_R, read from the
    # basis vectors alone, are the partial traces of the dense d x d rho_mc, and
    # Tr[rho_mc (B (x) 1)] is the average of B (x) 1 over the basis vectors
    exp = EXPERIMENTS["CANONICAL_REDUCTION"]
    rng = np.random.default_rng(17)
    for params in ({}, {"d_s": 3, "d_b": 4, "d_r": 5}):
        setup = exp.setup({**exp.defaults, **params}, stream(7, SETUP_DOMAIN))
        q, d_s, d_b, d_r = setup["basis_r"], setup["d_s"], setup["d_b"], setup["d_r"]
        rho = q @ dagger(q) / d_r
        assert np.abs(setup["rho_mc_s"] - partial_trace(rho, d_s, d_b, "S")).max() <= 1e-12
        assert setup["deff_b"] == pytest.approx(
            effective_dimension(partial_trace(rho, d_s, d_b, "B")), rel=1e-12)
        b = rng.standard_normal((d_s, d_s)); b = (b + b.T) / 2
        b_full = np.kron(b, np.eye(d_b))
        avg = np.mean([np.real(q[:, i].conj() @ b_full @ q[:, i]) for i in range(d_r)])
        assert np.trace(setup["rho_mc_s"] @ b).real == pytest.approx(avg, abs=1e-12)


def test_coarse_grained_macro_rows_resolve_the_identity_on_the_subspace():
    # the setup keeps only the d_R rows g_r (in H_R) of each macro group, so
    # the compressed projectors Pi_R P_r Pi_R = g_r g_r^dagger must sum to 1 on H_R
    exp = EXPERIMENTS["COARSE_GRAINED"]
    setup = exp.setup(exp.defaults, stream(7, SETUP_DOMAIN))
    d, d_r, m = setup["d"], setup["d_r"], setup["m"]
    groups = setup["groups"]
    assert len(groups) == m and all(g.shape == (d_r, d // m) for g in groups)
    compressed = [g @ dagger(g) for g in groups]
    for p in compressed:
        assert np.linalg.eigvalsh(p).min() >= -1e-12           # 0 <= Pi_R P_r Pi_R <= 1
        assert np.linalg.eigvalsh(p).max() <= 1 + 1e-12
    assert np.abs(sum(compressed) - np.eye(d_r)).max() <= 1e-10


@pytest.mark.parametrize("params", [{}, {"d": 48, "d_r": 5, "m": 3}])
def test_coarse_grained_microcanonical_means_are_the_dense_traces(params):
    # H_R is the span of the first d_R basis vectors; the rows of group r in H_R
    # are Pi_R g_r, so Tr[Pi_R P_r Pi_R] / d_R is read from its d x d embedding
    exp = EXPERIMENTS["COARSE_GRAINED"]
    setup = exp.setup({**exp.defaults, **params}, stream(7, SETUP_DOMAIN))
    d, d_r = setup["d"], setup["d_r"]
    pi_r = np.diag(np.r_[np.ones(d_r), np.zeros(d - d_r)])
    want = []
    for g in setup["groups"]:
        embedded = np.zeros((d, g.shape[1]), dtype=complex)
        embedded[:d_r] = g
        want.append(np.trace(pi_r @ embedded @ dagger(embedded) @ pi_r).real / d_r)
    assert np.abs(setup["mc"] - want).max() <= 1e-12
