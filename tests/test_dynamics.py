"""Evolution, dephasing, time batches, speeds and rates."""

import tracemalloc

import numpy as np
import pytest

from purestat import (
    Hamiltonian,
    bath_purities,
    check_bound,
    commutator,
    complex_normals,
    compose_hamiltonian,
    dagger,
    default_horizon,
    dephased,
    dephased_purity,
    effective_dimension,
    expectation_values,
    finite_difference_purity_rate,
    finite_difference_speed,
    haar_unitary,
    pointer_hamiltonian,
    purity,
    partial_trace,
    reduced_marginals,
    reduced_rates,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    sample_times,
    subsystem_fluctuation,
    time_map,
    trace_distance,
    trace_norm,
    trial_stream,
    von_neumann_entropy,
)
from purestat import dynamics
from purestat.hamiltonians import phase_factors
from purestat.linalg import BLOCK_ENTRIES, GEMM_ROWS
from purestat.experiments import (
    EXPERIMENTS,
    FD_RTOL,
    FLUCTUATION_GATE_DOF,
    _distances,
    _equilibration_trial_base,
    _mean_distance,
    mean_se,
)
from purestat.harness import ExperimentSpec, run_experiment


def _rand_herm(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + dagger(z)) / 2


def _density(psi):
    """|psi><psi| of a state vector."""
    return np.outer(psi, psi.conj())


def _matrix(h):
    """V diag(E) V^dagger of a Hamiltonian."""
    return (h.eigenbasis * h.eigenvalues) @ dagger(h.eigenbasis)


def _evolve(h, psi, t):
    """exp(-iHt) psi as V (e^{-iEt} * V^dagger psi): the direct reference that
    time_map's blocks, phase factors and GEMMs are checked against."""
    return h.eigenbasis @ (np.exp(-1j * h.eigenvalues * t) * (dagger(h.eigenbasis) @ psi))


def mutual_information(rho, dims):
    """I_SB = S(rho^S) + S(rho^B) - S(rho) of a density matrix on d_S x d_B."""
    return (von_neumann_entropy(partial_trace(rho, *dims, "S"))
            + von_neumann_entropy(partial_trace(rho, *dims, "B")) - von_neumann_entropy(rho))


def _cluster_slices(e, tol):
    bounds = [0] + [k for k in range(1, len(e)) if e[k] - e[k - 1] > tol] + [len(e)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _in_eigenbasis(h, x):
    """The operator x in H's eigenbasis, V^dagger x V."""
    return dagger(h.eigenbasis) @ x @ h.eigenbasis


def dephase(x, h, mode="strict"):
    """Dense dephasing map, the reference for dynamics.dephased: zero the
    inter-eigenspace off-diagonals of the operator x in H's eigenbasis.

    Works on states and on Hermitian observables alike and equals the
    infinite-time average for non-resonant H.  mode="strict" requires H's
    gap report to certify strong non-resonance; mode="clusters" is the
    degenerate-subspace variant (projectors onto degenerate clusters,
    cluster width 1e-9 x spectral range), the reference for resonant H.
    """
    a = _in_eigenbasis(h, np.asarray(x, dtype=complex))
    if mode == "strict":
        if not h.gap_report.non_resonant:
            raise ValueError("Hamiltonian is resonant; use mode='clusters'")
        out = np.diag(np.diag(a))
    else:
        e = h.eigenvalues
        out = np.zeros_like(a)
        for sl in _cluster_slices(e, 1e-9 * max(float(e[-1] - e[0]), 1.0)):
            out[sl, sl] = a[sl, sl]
    return h.eigenbasis @ out @ dagger(h.eigenbasis)


def _reduced_commutant_with_interaction(rho, h_sb, d_s, d_b):
    """Tr_B[rho, H_SB]."""
    return partial_trace(commutator(rho, h_sb), d_s, d_b, "S")


def subsystem_speed(rho, parts):
    """Dense reference for ReducedRates.speeds at one density matrix:
    v_S = (1/2) || i[rho^S, H_S] + i Tr_B[rho, H_SB] ||_1."""
    d_s, d_b = parts.dims
    rho_s = partial_trace(rho, d_s, d_b, "S")
    drho_s = 1j * commutator(rho_s, parts.h_s) + 1j * _reduced_commutant_with_interaction(
        rho, parts.h_sb, d_s, d_b)
    return 0.5 * trace_norm(drho_s)


def purity_rate(rho, parts):
    """Dense reference for ReducedRates.purity_rates at one density matrix:
    d p^S/dt = Tr[rho^S 2i Tr_B[rho, H_SB]], also in the correlation-operator
    form (rho^cor = rho - rho^S (x) rho^B), and the two forms must agree to 1e-9."""
    d_s, d_b = parts.dims
    rho_s = partial_trace(rho, d_s, d_b, "S")
    rho_b = partial_trace(rho, d_s, d_b, "B")
    rate = float(np.trace(rho_s @ (2j * _reduced_commutant_with_interaction(
        rho, parts.h_sb, d_s, d_b))).real)
    rate_cor = float(np.trace(rho_s @ (2j * _reduced_commutant_with_interaction(
        rho - np.kron(rho_s, rho_b), parts.h_sb, d_s, d_b))).real)
    assert abs(rate - rate_cor) <= 1e-9 * max(1.0, abs(rate))
    return rate


def _omega(h, psi):
    """The dense dephased state sum_k p_k |E_k><E_k| from dynamics.dephased's populations."""
    return (h.eigenbasis * dephased(h, psi)[0]) @ dagger(h.eigenbasis)


def _time_average_discrepancy(h, psi, horizon, n_samples, rng):
    """D(dephased state, mean of |psi_t><psi_t| over uniform times on [0, horizon])."""
    psis = time_map(h, psi, rng.uniform(0.0, horizon, n_samples), np.copy)
    empirical = np.einsum("ni,nj->ij", psis, psis.conj()) / n_samples
    return trace_distance(_omega(h, psi), empirical)


def _rates(parts, psi, times):
    """ReducedRates along psi_t at the given times, from time_map."""
    return reduced_rates(time_map(parts, psi, times, np.copy), parts)


@pytest.fixture(scope="module")
def h8():
    return sample_random_hamiltonian((8, 1), trial_stream(100, 0))


def test_evolve_at_zero_is_identity(h8):
    psi = sample_haar_state(np.eye(8), trial_stream(100, 1))
    (out,) = time_map(h8, psi, [0.0], np.copy)
    assert np.abs(out - psi).max() < 1e-12


def test_evolve_eigenstate_stationary(h8):
    ek = h8.eigenbasis[:, 3]
    (out,) = time_map(h8, ek, [7.7], np.copy)
    assert np.abs(_density(out) - _density(ek)).max() < 1e-10


def test_evolve_two_level_hand_case():
    h = Hamiltonian(np.array([0.0, 1.0]), np.eye(2, dtype=complex))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    (out,) = time_map(h, plus, [np.pi], np.copy)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.abs(_density(out) - np.outer(minus, minus)).max() < 1e-12


def test_evolve_conserves_energy_and_purity(h8):
    # a mixed state evolves as the mixture of its evolved eigenvectors
    rng = trial_stream(100, 2)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = (g @ dagger(g)) / np.trace(g @ dagger(g)).real
    w, v = np.linalg.eigh(rho)
    hm = _matrix(h8)
    e0, p0 = np.trace(hm @ rho).real, purity(rho)
    for vt in time_map(h8, v.T, np.linspace(0.0, 30.0, 7)[1:], np.copy):
        rt = (vt.T * w) @ vt.conj()   # the rows of vt: rho's evolved eigenvectors
        assert np.trace(hm @ rt).real == pytest.approx(e0, abs=1e-9)
        assert purity(rt) == pytest.approx(p0, abs=1e-9)


def test_evolve_dimension_mismatch(h8):
    with pytest.raises(ValueError, match="dimension"):
        time_map(h8, np.array([1.0, 0.0]), [1.0], np.copy)


def test_dephase_diagonal_unchanged(h8):
    w = np.linspace(0.05, 0.3, 8); w /= w.sum()
    rho = (h8.eigenbasis * w) @ dagger(h8.eigenbasis)
    assert np.abs(dephase(rho, h8) - rho).max() < 1e-12


def test_dephase_two_superposition(h8):
    psi = (h8.eigenbasis[:, 0] + h8.eigenbasis[:, 5]) / np.sqrt(2)
    expected = 0.5 * (np.outer(h8.eigenbasis[:, 0], h8.eigenbasis[:, 0].conj())
                      + np.outer(h8.eigenbasis[:, 5], h8.eigenbasis[:, 5].conj()))
    assert np.abs(dephase(_density(psi), h8) - expected).max() < 1e-12
    assert np.abs(_omega(h8, psi) - expected).max() < 1e-12


def test_dephase_idempotent_trace_preserving_commutes(h8):
    psi = sample_haar_state(np.eye(8), trial_stream(100, 3))
    om = dephase(_density(psi), h8)
    assert abs(np.trace(om).real - 1.0) < 1e-12
    assert np.abs(dephase(om, h8) - om).max() < 1e-12
    hm = _matrix(h8)
    assert np.abs(om @ hm - hm @ om).max() < 1e-10


def test_dephase_observable_norm_contraction(h8):
    rng = trial_stream(100, 4)
    b = _rand_herm(8, rng)
    db = dephase(b, h8)
    assert np.abs(np.linalg.eigvalsh(db)).max() <= np.abs(np.linalg.eigvalsh(b)).max() + 1e-12


def test_dephase_resonant_requires_cluster_mode():
    h = Hamiltonian(np.array([0.0, 1.0, 2.0]), np.eye(3, dtype=complex))
    rho = np.ones((3, 3)) / 3
    with pytest.raises(ValueError):
        dephase(rho, h)
    out = dephase(rho, h, mode="clusters")  # non-degenerate spectrum: same as strict
    assert np.abs(out - np.eye(3) / 3).max() < 1e-12


def test_dephase_degenerate_clusters():
    h = Hamiltonian(np.array([0.0, 0.0, 1.0]), np.eye(3, dtype=complex))
    out = dephase(np.ones((3, 3)) / 3, h, mode="clusters")
    expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3.0
    assert np.abs(out - expected).max() < 1e-12


def test_dephase_matches_long_time_average():
    # time-integration oracle with a derived window.  The mean rho_n of rho_t
    # over n uniform times on [0, T] differs from omega only off the diagonal
    # of H's eigenbasis: (rho_n - omega)_jk = c_j c_k^* z_jk / sqrt(n) with
    # z_jk = n^(-1/2) sum_s exp(-i w_jk t_s), and z_kj = z_jk^*.  Over a horizon
    # T >> 1/mgd the phases of distinct gaps are uniform and uncorrelated, so
    # E|z_jk|^2 = 1, E ||rho_n - omega||_HS^2 = (1 - sum_k p_k^2) / n, and for
    # large n (CLT) each |z_jk|^2 is an independent Exp(1).  Hence
    #   X = n ||rho_n - omega||_HS^2 / (1 - sum p^2) = sum_{j<k} w_jk |z_jk|^2,
    #   w_jk = 2 p_j p_k / (1 - sum p^2):  E X = sum w = 1, Var X = sum w^2.
    # At d = 32 sigma = sqrt(sum w^2) is about 0.09, the spread 40 draws of X
    # showed (1.00 +- 0.09, range 0.83-1.25; 200 more gave z-scores of sd 0.94,
    # max 3.3).  The window is 5 sigma: sampling that exponential sum puts less
    # than 1e-4 of its mass outside.  A time_map that never moves psi reads X = n.
    rng = trial_stream(102, 0)
    h = sample_random_hamiltonian((32, 1), rng)
    psi = sample_haar_state(np.eye(32), rng)
    n = 10_000
    psis = time_map(h, psi, rng.uniform(0.0, default_horizon(h), n), np.copy)
    rho_n = np.einsum("ni,nj->ij", psis, psis.conj()) / n
    p = dephased(h, psi)[0]
    coherence = 1.0 - float((p ** 2).sum())
    x = n * float((np.abs(rho_n - _omega(h, psi)) ** 2).sum()) / coherence
    j, k = np.triu_indices(len(p), 1)
    sigma = float(np.sqrt(((2 * p[j] * p[k] / coherence) ** 2).sum()))
    assert 0.05 < sigma < 0.2
    assert abs(x - 1.0) <= 5 * sigma, (x, sigma)


def test_dephase_matches_exact_time_integral():
    # quadrature oracle: (1/T) int_0^T rho_t dt in closed form per matrix entry
    rng = trial_stream(101, 0)
    h = sample_random_hamiltonian((32, 1), rng)
    psi = sample_haar_state(np.eye(32), rng)
    c = h.to_eigenbasis(psi)
    horizon = default_horizon(h)
    om = h.eigenvalues[:, None] - h.eigenvalues[None, :]
    kernel = np.ones_like(om, dtype=complex)
    off = om != 0
    kernel[off] = (np.exp(-1j * om[off] * horizon) - 1) / (-1j * om[off] * horizon)
    avg = h.eigenbasis @ (np.outer(c, c.conj()) * kernel) @ dagger(h.eigenbasis)
    assert trace_distance(avg, _omega(h, psi)) <= 1e-3


def test_time_average_discrepancy_shrinks_with_horizon():
    rng = trial_stream(101, 1)
    h = sample_random_hamiltonian((16, 1), rng)
    psi = sample_haar_state(np.eye(16), rng)
    short = _time_average_discrepancy(h, psi, 5.0, 4000, trial_stream(101, 2))
    longr = _time_average_discrepancy(h, psi, default_horizon(h), 4000, trial_stream(101, 3))
    assert longr < short


def test_sample_times_draws_the_horizon_policy_times():
    h = sample_random_hamiltonian((2, 8), trial_stream(101, 7))
    times = sample_times(h, 50, trial_stream(101, 8))
    assert np.array_equal(times, trial_stream(101, 8).uniform(0.0, default_horizon(h), 50))
    assert times.shape == (50,) and times.min() >= 0.0 and times.max() < default_horizon(h)


def test_sample_times_refuses_a_resonant_hamiltonian():
    # the gaps 0.1 and 0.1 + 1e-10 differ by less than the tolerance 1e-9: the
    # horizon 1e4 / mgd would be finite (1e14), but no time average is sampled
    h = Hamiltonian([0.0, 0.1, 0.2 + 1e-10, 0.45])
    assert not h.gap_report.non_resonant and h.gap_report.min_gap_difference > 0
    with pytest.raises(ValueError, match="not non-resonant at tol 1e-09"):
        sample_times(h, 10, trial_stream(101, 9))


def test_decoherence_at_seed_21_trial_19_resolves_its_phases():
    # the one crash of a DECOHERENCE sweep over seeds 0-159 while the
    # weak-coupling draw went uncertified: its minimal gap difference of
    # 3.5e-12 set the horizon 1e4 / mgd, which put |E t| = 5.7e15 past 2^52.
    # Redrawn until non-resonant (mgd > 1e-9), the trial resolves its phases
    exp = EXPERIMENTS["DECOHERENCE"]
    assert exp.trial(None, exp.defaults, 19, trial_stream(21, 19)).satisfied


def test_time_average_stationary_state():
    rng = trial_stream(101, 4)
    h = sample_random_hamiltonian((8, 1), rng)
    ek = h.eigenbasis[:, 2]
    assert _time_average_discrepancy(h, ek, 100.0, 64, rng) <= 1e-9


def test_time_average_identity_functional():
    # the norm is a conserved functional: constant along the sampled trajectory
    rng = trial_stream(101, 5)
    h = sample_random_hamiltonian((8, 1), rng)
    psi = sample_haar_state(np.eye(8), rng)
    norms = time_map(h, psi, rng.uniform(0.0, 50.0, 128),
                     lambda psis: np.linalg.norm(psis, axis=1))
    assert norms.mean() == pytest.approx(1.0, abs=1e-10)
    assert norms.var() == pytest.approx(0.0, abs=1e-12)


def test_time_average_reduced_report():
    rng = trial_stream(101, 6)
    h = sample_random_hamiltonian((2, 8), rng)
    psi = sample_haar_state(np.eye(16), rng)
    times = rng.uniform(0.0, default_horizon(h), 3000)
    empirical = time_map(h, psi, times, lambda psis: reduced_marginals(psis, (2, 8))).mean(axis=0)
    target = dephased(h, psi)[1]
    assert target.shape == (2, 2)
    assert trace_distance(target, empirical) < 0.1


def test_subsystem_speed_stationary_is_zero():
    # every energy eigenvector is a stationary pure state: rho^S_t does not move
    rng = trial_stream(102, 0)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(8, rng)
    parts = compose_hamiltonian(h_s, h_b, _rand_herm(16, rng) * 0.3)
    rates = reduced_rates(parts.eigenbasis.T, parts)
    assert np.abs(rates.speeds()).max() == pytest.approx(0.0, abs=1e-10)
    assert np.abs(rates.purity_rates()).max() == pytest.approx(0.0, abs=1e-10)


def test_subsystem_speed_no_interaction():
    rng = trial_stream(102, 1)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(8, rng)
    parts = compose_hamiltonian(h_s, h_b, np.zeros((16, 16)))
    psi = sample_haar_state(np.eye(16), rng)
    rho_s = reduced_marginals(psi, parts.dims)
    expected = 0.5 * np.abs(np.linalg.eigvalsh(
        1j * (rho_s @ parts.h_s - parts.h_s @ rho_s))).sum()
    (speed,) = reduced_rates(psi[None], parts).speeds()
    assert speed == pytest.approx(expected, abs=1e-12)


def test_subsystem_speed_matches_finite_difference():
    rng = trial_stream(102, 2)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    times = np.array([0.4, 1.9, 6.3])
    analytic = _rates(parts, psi, times).speeds()
    fd = finite_difference_speed(parts, psi, times)
    assert (np.abs(fd - analytic) / analytic).max() < 1e-4


def test_finite_difference_speed_reads_the_split_from_the_hamiltonian():
    # a state vector carries no split: (2, 32) is h.dims.  Read as (64, 1),
    # the central difference would be the global speed, ~10x the subsystem's
    rng = trial_stream(102, 16)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(32, rng),
                                _rand_herm(64, rng) * 0.4)
    assert parts.dims == (2, 32)
    psi = sample_haar_state(64, rng)
    times = np.array([0.4, 1.9, 6.3])
    analytic = _rates(parts, psi, times).speeds()
    fd = finite_difference_speed(parts, psi, times)
    assert (np.abs(fd - analytic) / analytic).max() < FD_RTOL


def test_purity_rate_product_state_is_zero():
    rng = trial_stream(102, 3)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    (rate,) = reduced_rates(psi[None], parts).purity_rates()
    assert rate == pytest.approx(0.0, abs=1e-10)


def test_purity_rate_no_interaction_is_zero():
    rng = trial_stream(102, 4)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng), np.zeros((16, 16)))
    psi = sample_haar_state(np.eye(16), rng)
    (rate,) = reduced_rates(psi[None], parts).purity_rates()
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_purity_rate_matches_finite_difference():
    rng = trial_stream(102, 5)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    scale = 2 * np.abs(np.linalg.eigvalsh(parts.h_sb)).max()
    times = np.array([0.4, 1.9, 6.3])
    analytic = _rates(parts, psi, times).purity_rates()
    fd = finite_difference_purity_rate(parts, psi, times)
    assert (np.abs(fd - analytic) / np.maximum(np.abs(analytic), 1e-3 * scale)).max() < 1e-4


def test_reduced_rates_match_dense_references():
    # the batched kernel against the dense single-state formulas at sampled times
    rng = trial_stream(102, 6)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    times = rng.uniform(0.0, 50.0, 12)
    rates = _rates(parts, psi, times)
    speeds, dps = rates.speeds(), rates.purity_rates()
    assert rates.rho_s.shape == rates.drho_s.shape == rates.tr_b_comm.shape == (12, 2, 2)
    for i, t in enumerate(times):
        state = _density(_evolve(parts, psi, t))
        assert abs(speeds[i] - subsystem_speed(state, parts)) < 1e-12
        assert abs(dps[i] - purity_rate(state, parts)) < 1e-12
        assert np.abs(rates.rho_s[i] - partial_trace(state, 2, 8, "S")).max() < 1e-12


def test_the_speed_of_a_non_finite_rate_is_nan():
    # eigvalsh gives [0, -0] for [[nan, 0], [0, 1]], so the speed read 0.0
    rng = trial_stream(102, 6)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    rates = _rates(parts, psi, rng.uniform(0.0, 50.0, 4))
    clean = rates.speeds()
    rates.drho_s[1] = [[np.nan, 0], [0, 1]]
    speeds = rates.speeds()
    assert np.isnan(speeds[1])
    assert np.array_equal(np.delete(speeds, 1), np.delete(clean, 1))
    # a SPEED row fed that NaN is a violation; the clean row is not
    inputs = {"norm_hs_plus_hsb": parts.norm_hs_plus_hsb(), "d_s": 2,
              "deff": float(1.0 / (dephased(parts, psi)[0] ** 2).sum())}
    assert check_bound("SPEED", mean_se(clean)[0], inputs, mean_se(clean)[1]).satisfied
    assert not check_bound("SPEED", mean_se(speeds)[0], inputs, mean_se(speeds)[1]).satisfied


@pytest.mark.parametrize("d_s", [2, 4])
def test_dephased_marginals_match_the_dense_dephasing_map(d_s):
    rng = trial_stream(102, 11)
    h = sample_random_hamiltonian((d_s, 8), rng)
    psi = sample_haar_state(np.eye(8 * d_s), rng)
    omega = dephase(_density(psi), h)
    probs, omega_s, omega_b = dephased(h, psi)
    assert np.abs(omega_s - partial_trace(omega, d_s, 8, "S")).max() <= 1e-12
    assert np.abs(omega_b - partial_trace(omega, d_s, 8, "B")).max() <= 1e-12
    assert np.abs(probs - np.diag(_in_eigenbasis(h, omega)).real).max() <= 1e-12


def test_dephased_takes_one_state_vector_or_a_stack():
    # a (d, d) stack once gave (d, d) "populations" and a wrong (d_S, d_S) omega^S
    rng = trial_stream(102, 17)
    h = sample_random_hamiltonian((2, 4), rng)
    psis = time_map(h, sample_haar_state(8, rng), rng.uniform(0.0, 10.0, 8), np.copy)
    omega = dephased(h, psis)
    assert omega.probs.shape == (8, 8) and omega.omega_s.shape == (8, 2, 2)
    assert omega.omega_b.shape == (8, 4, 4) and omega.deff_b.shape == (8,)
    for bad in (psis[0, :4], psis[:, :4], psis[None]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dephased(h, bad)


@pytest.mark.parametrize("dims", [(2, 16), (4, 8), (1, 16), (16, 1)])
def test_a_stacked_dephased_is_bitwise_the_per_state_calls(dims):
    rng = trial_stream(102, 18)
    h = sample_random_hamiltonian(dims, rng)
    psis = np.array([sample_haar_state(h.dim, rng) for _ in range(3)])
    stacked = dephased(h, psis)
    for k, psi in enumerate(psis):
        single = dephased(h, psi)
        for got, want in zip((*stacked, stacked.deff, stacked.deff_b),
                             (*single, single.deff, single.deff_b)):
            assert np.asarray(got)[k].tobytes() == np.asarray(want).tobytes()
    assert isinstance(single.deff, float) and isinstance(single.deff_b, float)


def test_the_dephased_purity_is_the_sum_of_squared_populations():
    rng = trial_stream(102, 19)
    probs = np.abs(complex_normals(5, (12,), rng)) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    want = np.array([sum(p * p for p in row) for row in probs])
    assert np.allclose(dephased_purity(probs), want, rtol=1e-14, atol=0)
    assert dephased_purity(probs[2]) == dephased_purity(probs)[2]
    h = sample_random_hamiltonian((2, 6), rng)
    omega = dephased(h, sample_haar_state(12, rng))
    assert omega.deff == 1.0 / dephased_purity(omega.probs)
    dense = (h.eigenbasis * omega.probs) @ dagger(h.eigenbasis)
    assert omega.deff == pytest.approx(effective_dimension(dense), rel=1e-12)


def _square_distances(h, psi, times, omega_s):
    """Y_t = ||rho^S_t - omega^S||_2^2 at each time."""
    return time_map(h, psi, times, lambda psis: purity(reduced_marginals(psis, h.dims) - omega_s))


def _fluctuation_double_sum(h, psi):
    """sum_{j != k} p_j p_k ||Tr_B |E_j><E_k|||_F^2 term by term: the reference
    for dynamics.subsystem_fluctuation's swap identity."""
    p = np.abs(h.to_eigenbasis(psi)) ** 2
    v = h.eigenbasis
    return sum(p[j] * p[k] * (np.abs(partial_trace(np.outer(v[:, j], v[:, k].conj()),
                                                   *h.dims, "S")) ** 2).sum()
               for j in range(h.dim) for k in range(h.dim) if j != k)


@pytest.mark.parametrize("dims", [(2, 8), (3, 7), (4, 4)])
def test_subsystem_fluctuation_is_the_explicit_double_sum(dims):
    rng = trial_stream(102, 20)
    h = sample_random_hamiltonian(dims, rng)
    psis = np.array([sample_haar_state(h.dim, rng) for _ in range(3)])
    want = np.array([_fluctuation_double_sum(h, psi) for psi in psis])
    stacked = subsystem_fluctuation(h, dephased(h, psis))
    assert stacked.shape == (3,) and np.allclose(stacked, want, rtol=1e-12, atol=0)
    single = subsystem_fluctuation(h, dephased(h, psis[1]))
    assert isinstance(single, float) and single == pytest.approx(want[1], rel=1e-12)


@pytest.mark.parametrize("dims", [(2, 8), (3, 5)])
def test_subsystem_fluctuation_is_the_long_time_mean(dims):
    # uniform times on [0, 10^4 / mgd) damp each cross term of the mean by at
    # most 2e-4, far below the standard error of 1e5 times
    rng = trial_stream(102, 21)
    h = sample_random_hamiltonian(dims, rng)
    psi = sample_haar_state(h.dim, rng)
    omega = dephased(h, psi)
    y = _square_distances(h, psi, sample_times(h, 100_000, rng), omega.omega_s)
    mean, se = mean_se(y)
    assert abs(mean - subsystem_fluctuation(h, omega)) <= 4 * se


def test_subsystem_fluctuation_assumes_non_degenerate_gaps():
    # a 4-fold degenerate level keeps its coherences, so rho^S_t settles around
    # the cluster-dephased omega^S and its mean square distance from it is not X
    rng = trial_stream(102, 22)
    e = np.sort(rng.uniform(0.0, 1.0, 16))
    e[:4] = e[0]
    h = Hamiltonian(e, haar_unitary(16, rng), dims=(2, 8))
    assert not h.gap_report.non_resonant
    psi = sample_haar_state(16, rng)
    omega_s = partial_trace(dephase(_density(psi), h, mode="clusters"), 2, 8, "S")
    y = _square_distances(h, psi, rng.uniform(0.0, 1e6, 100_000), omega_s)
    mean, se = mean_se(y)
    assert abs(mean - subsystem_fluctuation(h, dephased(h, psi))) > 10 * se


@pytest.mark.parametrize("dims", [(2, 16), (4, 8)])
def test_the_control_variate_mean_distance_is_unbiased(dims):
    # E[D_t - beta (Y_t - X)] = E[D_t] for a beta fixed before the times are
    # drawn, at d_S = 2, where beta linearises D_t = sqrt(Y_t / 2) exactly, and
    # at d_S = 4, where it does not: the mean of 400 estimates from 250 times
    # each must agree with the plain mean of 1e5 other times
    rng = trial_stream(102, 23)
    h = sample_random_hamiltonian(dims, rng)
    psi = sample_haar_state(h.dim, rng)
    omega = dephased(h, psi)
    x = subsystem_fluctuation(h, omega)
    estimates = [_mean_distance(h, psi, sample_times(h, 250, rng), omega.omega_s, x)[0]
                 for _ in range(400)]
    plain = _distances(h, psi, sample_times(h, 100_000, rng), omega.omega_s)
    (a, se_a), (b, se_b) = mean_se(np.array(estimates)), mean_se(plain)
    assert abs(a - b) <= 4 * np.hypot(se_a, se_b)


@pytest.mark.parametrize("dims, trials, seeds", [((2, 32), 50, (7, 11, 23)),
                                                 ((2, 128), 16, (7,))])
def test_the_default_times_give_no_larger_stderr_than_2000_plain_times(
        dims, trials, seeds, monkeypatch):
    # SUBSYSTEM_EQUILIBRATION's control variate at its default n_times against
    # the plain mean of D_t at the 2000 times it used before, same trial draws
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    params = {"d_s": dims[0], "d_b": dims[1], "trials": trials}
    for seed in seeds:
        res = run_experiment(ExperimentSpec("SUBSYSTEM_EQUILIBRATION", params, seed=seed))
        plain = []
        for k in range(trials):
            h, psi0, times, omega = _equilibration_trial_base(
                {**params, "n_times": 2000}, trial_stream(seed, k))
            plain.append(mean_se(_distances(h, psi0, times, omega.omega_s))[1])
        assert res.records.stderr.mean() <= np.mean(plain), seed


@pytest.mark.parametrize("dims", [(1, 8), (1, 16), (8, 1)])
def test_a_subsystem_fluctuation_at_rounding_scale_reads_zero(dims):
    # at d_S = 1 rho^S_t = omega^S = 1 and X is the rounding of 1 - 1, which the
    # control variate's beta = sqrt(d_S) / (4 sqrt(X)) once blew up into an lhs
    # of 1e-9; at d_B = 1 X = 1 - sum_k p_k^2 is a real fluctuation of a constant
    # Y_t, and stays
    rng = trial_stream(102, 24)
    h = sample_random_hamiltonian(dims, rng)
    psis = np.array([sample_haar_state(h.dim, rng) for _ in range(3)])
    omega = dephased(h, psis)
    x = subsystem_fluctuation(h, omega)
    if dims[0] == 1:
        assert np.all(x == 0.0)
    else:
        assert np.allclose(x, 1.0 - dephased_purity(omega.probs), rtol=1e-12, atol=0)


def _fluctuation_gate(experiment_id="SUBSYSTEM_EQUILIBRATION", **params):
    res = run_experiment(ExperimentSpec(experiment_id, params, seed=7))
    (gate,) = res.summary["gates"]
    assert gate["gate"] == "fluctuation_matches_exact"
    return res, gate


@pytest.mark.parametrize("params", [
    # the fewest sampled times, at the defaults' trials and at the trials that
    # give the gate its degrees of freedom
    {"n_times": 2}, {"n_times": 2, "trials": FLUCTUATION_GATE_DOF},
    # thousands of trials at a few levels, where Y_t's skew is largest
    {"d_s": 2, "d_b": 2, "trials": 4000}, {"d_s": 3, "d_b": 2, "trials": 2000},
    # a stationary rho^S_t and a constant Y_t, both rounding against rounding
    {"d_s": 1, "d_b": 16, "trials": 10}, {"d_s": 16, "d_b": 1, "trials": 10}])
def test_the_fluctuation_gate_passes_across_sample_sizes(params, monkeypatch):
    # the per-trial z = (mean(Y_t) - X) / se(Y_t) it once averaged has no mean at
    # n_times = 2 and a skew bias that a threshold of 5 / sqrt(trials) does not
    # shrink with; the pooled ratio's bias falls with every sampled time
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    res, gate = _fluctuation_gate(**params)
    assert res.violations == 0 and gate["satisfied"]
    assert gate["vacuous"] == (gate["dof"] < FLUCTUATION_GATE_DOF)
    assert gate["dof"] == res.spec.params["trials"] * (res.spec.params["n_times"] - 1)


def test_the_fluctuation_gate_is_vacuous_below_its_degrees_of_freedom():
    # one trial at n_times = 2 gives a ratio with one degree of freedom, which
    # passed 5 in 16% of runs
    for trials, n_times in [(1, 2), (1, FLUCTUATION_GATE_DOF), (2, FLUCTUATION_GATE_DOF // 2)]:
        _, gate = _fluctuation_gate(d_b=8, trials=trials, n_times=n_times)
        assert gate["vacuous"] and gate["dof"] < FLUCTUATION_GATE_DOF
    _, gate = _fluctuation_gate(d_b=8, trials=1, n_times=FLUCTUATION_GATE_DOF + 1)
    assert not gate["vacuous"] and gate["dof"] == FLUCTUATION_GATE_DOF


def test_the_control_variate_at_d_s_1_is_the_plain_mean():
    # X reads 0 there, so beta = 0 and the lhs is the plain mean of D_t, which is
    # rounding: the parent's 7e-17, not the 1e-9 a rounding X gave
    res = run_experiment(ExperimentSpec("DISTANCE_TRAJECTORY", {"d_s": 1, "d_b": 16}, seed=7))
    assert res.violations == 0 and res.records.lhs[0] < 1e-14


def test_batched_finite_differences_match_a_per_time_loop():
    rng = trial_stream(102, 12)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(2, 8, rng)
    times = np.array([0.4, 1.9, 6.3, 11.0])
    for fd in (finite_difference_speed, finite_difference_purity_rate):
        batch = fd(parts, psi, times)
        assert batch.shape == (4,)
        loop = np.array([fd(parts, psi, [t])[0] for t in times])
        assert np.abs(batch - loop).max() <= 1e-12 * np.abs(loop).max()


def test_stacked_entropy_matches_a_per_matrix_loop():
    rng = trial_stream(102, 13)
    g = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    rho = g @ np.conj(np.swapaxes(g, 1, 2))
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    rho[0] = np.diag([1.0, 0.0, 0.0, 0.0])   # a pure state: 0 log 0 := 0
    stack = von_neumann_entropy(rho)
    assert stack.shape == (6,) and stack[0] == 0.0
    loop = np.array([von_neumann_entropy(r) for r in rho])
    assert np.abs(stack - loop).max() <= 1e-12


def test_reduced_rates_rejects_wrong_dimension():
    rng = trial_stream(102, 7)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng), np.zeros((16, 16)))
    with pytest.raises(ValueError, match="dimension"):
        reduced_rates(np.ones((3, 8), dtype=complex), parts)


def test_stacked_samples_match_evolve():
    # one shared phase matrix for a stack of initial states vs _evolve per state
    rng = trial_stream(102, 8)
    h = sample_random_hamiltonian((2, 8), rng)
    states = [sample_haar_state(np.eye(16), rng) for _ in range(3)]
    times = rng.uniform(0.0, default_horizon(h), 7)
    psis = time_map(h, np.stack(states), times, np.copy)
    assert psis.shape == (7, 3, 16)
    rho_s = reduced_marginals(psis, (2, 8))
    assert rho_s.shape == (7, 3, 2, 2)
    for j, state in enumerate(states):
        assert np.array_equal(time_map(h, state, times, np.copy), psis[:, j])
        for i, t in enumerate(times):
            ref = _evolve(h, state, t)
            assert np.abs(psis[i, j] - ref).max() <= 1e-12
            assert np.abs(rho_s[i, j] - reduced_marginals(ref, h.dims)).max() <= 1e-12


def test_time_map_coefficients_match_evolve():
    # under a diagonal H the states are eigenbasis coefficients: diag(E) evolves
    # c0 = V^dagger psi into c_k exp(-i E_k t), the eigenbasis image of _evolve
    rng = trial_stream(102, 10)
    h = sample_random_hamiltonian((16, 1), rng)
    diagonal = Hamiltonian(h.eigenvalues)
    states = [sample_haar_state(np.eye(16), rng) for _ in range(2)]
    times = rng.uniform(0.0, default_horizon(h), 5)
    c0 = np.stack([h.to_eigenbasis(v) for v in states])
    cts = time_map(diagonal, c0, times, np.copy)
    assert cts.shape == (5, 2, 16)
    assert np.array_equal(time_map(diagonal, c0[1], times, np.copy), cts[:, 1])
    for j, state in enumerate(states):
        for i, t in enumerate(times):
            ref = h.to_eigenbasis(_evolve(h, state, t))
            assert np.abs(cts[i, j] - ref).max() <= 1e-12


def _panel_rows(m, d):
    """Times per time_map panel for a stack of m states of dimension d."""
    return max(BLOCK_ENTRIES // (m * d), -(-GEMM_ROWS // m))


PANELS = [(1, 2, 4096), (1, 64, 128), (1, 128, 128), (1, 1024, 128),
          (2, 32, 128), (2, 64, 64), (2, 512, 64), (3, 1024, 43)]


@pytest.mark.parametrize("m, d, rows", PANELS, ids=[f"m{m}-d{d}" for m, d, _ in PANELS])
def test_time_map_panels_give_every_gemm_at_least_gemm_rows(m, d, rows):
    # one state at d <= 64 keeps its 2^13-entry blocks; above, a panel holds
    # ceil(GEMM_ROWS / m) times, so each product on it has >= GEMM_ROWS rows
    assert rows == _panel_rows(m, d) and m * rows >= GEMM_ROWS
    h = Hamiltonian(np.linspace(0.0, 1.0, d))   # diagonal: the panels, without a GEMM
    heights = []
    time_map(h, np.full((m, d), d ** -0.5), np.linspace(0.0, 1.0, rows + 1),
             lambda psis: heights.append(len(psis)) or psis[:, 0])
    assert heights == [rows, 1]


@pytest.mark.parametrize("d", [2, 64, 256])
def test_time_map_blocks_cover_the_times_once_and_in_order(monkeypatch, d):
    rng = trial_stream(102, 11)
    h = sample_random_hamiltonian((d, 1), rng)
    stack = np.stack([sample_haar_state(np.eye(d), rng) for _ in range(2)])
    phase_rows = []

    def spy_phase_factors(energies, times, out=None):
        phase_rows.append(len(times))
        return phase_factors(energies, times, out=out)
    monkeypatch.setattr(dynamics, "phase_factors", spy_phase_factors)
    # a diagonal H skips the basis change: its blocks are the coefficients themselves
    for hh in (Hamiltonian(h.eigenvalues, gap_report=h.gap_report), h):
        for initial in (stack[0], stack):
            c0 = np.array([hh.to_eigenbasis(v) for v in np.atleast_2d(initial)])
            rows = _panel_rows(len(c0), d)   # times per panel
            for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
                times = rng.uniform(0.0, 1e6, n)
                # one shot: all times at once, one row per (time, state)
                cts = c0 * phase_factors(hh.eigenvalues, times)[:, None, :]
                shapes = []
                phase_rows.clear()

                def record(block):
                    shapes.append(block.shape)
                    return block   # a view of the reused buffer: copied at once
                got = time_map(hh, initial, times, record)
                assert [s[1:] for s in shapes] == [initial.shape] * len(shapes)
                assert sum(s[0] for s in shapes) == n
                # full panels, then the rest: at least one time, at most rows
                assert [s[0] for s in shapes[:-1]] == [rows] * (len(shapes) - 1)
                assert 0 < shapes[-1][0] <= rows
                # phases in sub-blocks of at most BLOCK_ENTRIES entries (one time at least)
                assert sum(phase_rows) == n
                assert all(0 < r <= max(1, BLOCK_ENTRIES // d) for r in phase_rows)
                assert got.shape == (n, *initial.shape)
                got = got.reshape(n, -1, d)
                if hh.diagonal:
                    assert np.array_equal(got, cts)
                else:
                    assert np.abs(got - cts @ h.eigenbasis.T).max() <= 1e-12


@pytest.mark.parametrize("d", [256, 512])
def test_time_map_panels_are_bitwise_the_old_blocks(monkeypatch, d):
    # a GEMM row does not depend on how many rows the product has (except a
    # one-row product, a GEMV), so panels of >= GEMM_ROWS rows give the same
    # bits as the 2^13-entry blocks they replaced, which a row floor of 1 restores
    rng = trial_stream(102, 15)
    h = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, d)), haar_unitary(d, rng))
    stack = np.stack([sample_haar_state(d, rng) for _ in range(2)])
    a = _rand_herm(d, rng)
    times = rng.uniform(0.0, 1e4, 300)   # no one-row block under either rule

    def states_and_values(psis):
        return np.copy(psis), expectation_values(psis, a)
    for initial in (stack[0], stack):
        panels = time_map(h, initial, times, states_and_values)
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "GEMM_ROWS", 1)
            blocks = time_map(h, initial, times, states_and_values)
        for new, old in zip(panels, blocks):
            assert np.array_equal(new, old)


def test_time_map_returns_every_part_of_a_tuple():
    rng = trial_stream(102, 14)
    h = sample_random_hamiltonian((2, 16), rng)
    psi = sample_haar_state(np.eye(32), rng)
    times = rng.uniform(0.0, 100.0, 300)   # blocks of 256 and 44 times
    rho_s, p_b = time_map(h, psi, times, lambda psis: (
        reduced_marginals(psis, (2, 16)), bath_purities(psis, (2, 16))))
    assert rho_s.shape == (300, 2, 2) and p_b.shape == (300,)
    assert np.abs(purity(rho_s) - p_b).max() <= 1e-12   # Schmidt: p_S = p_B
    (norms,) = time_map(h, psi, times, lambda psis: (np.linalg.norm(psis, axis=1),))
    assert norms.shape == (300,) and np.abs(norms - 1.0).max() <= 1e-12


def test_subsystem_equilibration_memory_does_not_grow_with_the_times():
    # 20000 times at d = 64: the one-shot time batch and its temporaries peaked
    # at 41 MB; the time blocks keep it near 2 MB
    exp = EXPERIMENTS["SUBSYSTEM_EQUILIBRATION"]
    params = {**exp.defaults, "n_times": 20_000}
    tracemalloc.start()
    try:
        exp.trial(None, params, 0, trial_stream(7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("experiment_id, n_times", [("SPEED", 20_000), ("DECOHERENCE", 5_000)])
def test_rate_experiments_memory_does_not_grow_with_the_times(experiment_id, n_times):
    # the whole time batch and its reduced rates traced 62.0 MiB (SPEED) and
    # 32.6 MiB (DECOHERENCE); through time_map only the per-time values grow
    exp = EXPERIMENTS[experiment_id]
    params = {**exp.defaults, "n_times": n_times}
    tracemalloc.start()
    try:
        exp.trial(None, params, 0, trial_stream(7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n_times", [5, 32, 75])
def test_bath_purities_match_dense(n_times):
    rng = trial_stream(102, 9)
    h = sample_random_hamiltonian((2, 16), rng)
    psi = sample_haar_state(np.eye(32), rng)
    psis = time_map(h, psi, rng.uniform(0.0, 100.0, n_times), np.copy)
    p_b = bath_purities(psis, (2, 16))
    rho_s = reduced_marginals(psis, (2, 16))
    assert rho_s.shape == (n_times, 2, 2) and p_b.shape == (n_times,)
    for i, v in enumerate(psis):
        rho = np.outer(v, v.conj())
        assert abs(p_b[i] - purity(partial_trace(rho, 2, 16, "B"))) <= 1e-12
        assert np.abs(rho_s[i] - partial_trace(rho, 2, 16, "S")).max() <= 1e-12
        assert abs(p_b[i] - purity(rho_s[i])) <= 1e-12   # Schmidt: p_S = p_B


@pytest.mark.parametrize("d_b", [1, 2, 32, 128, 512])
def test_bath_purities_match_the_explicit_bath_state(d_b):
    rng = np.random.default_rng(d_b)
    z = rng.standard_normal((2, 3, 2 * d_b)) + 1j * rng.standard_normal((2, 3, 2 * d_b))
    psis = z / np.linalg.norm(z, axis=-1, keepdims=True)
    bath = psis[1, 2, :d_b] / np.linalg.norm(psis[1, 2, :d_b])
    psis[1, 2] = np.kron([0.6, 0.8], bath)   # a product state: p_B = 1
    p_b = bath_purities(psis, (2, d_b))
    rho_s = reduced_marginals(psis, (2, d_b))
    assert rho_s.shape == (2, 3, 2, 2) and p_b.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        m = psis[idx].reshape(2, d_b)
        assert abs(p_b[idx] - purity(m.T @ m.conj())) <= 1e-13   # rho^B, d_B x d_B
        assert abs(p_b[idx] - purity(rho_s[idx])) <= 1e-13
    assert abs(p_b[1, 2] - 1.0) <= 1e-13


@pytest.mark.parametrize("d_s", [1, 2, 4])
@pytest.mark.parametrize("d_b", [1, 2, 32])
def test_bath_purities_match_the_schmidt_spectrum(d_s, d_b):
    # p_B = sum sigma^4 over the singular values of psi as a d_S x d_B matrix,
    # also where d_B < d_S and R is d_B x d_S
    rng = np.random.default_rng(10 * d_s + d_b)
    z = rng.standard_normal((40, d_s * d_b)) + 1j * rng.standard_normal((40, d_s * d_b))
    psis = z / np.linalg.norm(z, axis=1, keepdims=True)
    sigma = np.linalg.svd(psis.reshape(40, d_s, d_b), compute_uv=False)
    assert np.abs(bath_purities(psis, (d_s, d_b)) - (sigma ** 4).sum(axis=1)).max() <= 1e-14


def test_bath_purities_of_a_non_finite_state_is_nan():
    rng = np.random.default_rng(18)
    z = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    psis = z / np.linalg.norm(z, axis=1, keepdims=True)
    clean = bath_purities(psis, (2, 16))
    psis[2, 5] = np.nan   # LAPACK raises LinAlgError on it
    p_b = bath_purities(psis, (2, 16))
    assert np.isnan(p_b[2]) and np.array_equal(np.delete(p_b, 2), np.delete(clean, 2))


def test_bath_purities_form_no_bath_matrix():
    # one d_B x d_B complex rho^B at d_B = 512 is 4 MiB
    rng = np.random.default_rng(19)
    z = rng.standard_normal((8, 1024)) + 1j * rng.standard_normal((8, 1024))
    psis = z / np.linalg.norm(z, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        bath_purities(psis, (2, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dims", [(2, 32), (4, 16), (1, 64), (64, 1)])
def test_dephased_marginals_match_the_d_by_d_product(dims):
    d_s, d_b = dims
    rng = trial_stream(102, 15)
    h = sample_random_hamiltonian(dims, rng)
    psi = sample_haar_state(np.eye(d_s * d_b), rng)
    probs, omega_s, omega_b = dephased(h, psi)
    omega = (h.eigenbasis * probs) @ dagger(h.eigenbasis)
    assert np.abs(omega_s - partial_trace(omega, d_s, d_b, "S")).max() <= 1e-14
    assert np.abs(omega_b - partial_trace(omega, d_s, d_b, "B")).max() <= 1e-14
    assert omega_s.shape == (d_s, d_s) and omega_b.shape == (d_b, d_b)


def test_time_batch_kernel_rejects_dimension_mismatch(h8):
    with pytest.raises(ValueError, match="dimension"):
        time_map(h8, np.ones((2, 6), dtype=complex) / np.sqrt(6), [0.0, 1.0], np.copy)
    with pytest.raises(ValueError, match="at least one time"):
        time_map(h8, np.ones(8, dtype=complex) / np.sqrt(8), [], np.copy)
    with pytest.raises(ValueError, match="dimension"):
        reduced_marginals(np.ones((3, 8), dtype=complex), (2, 3))
    with pytest.raises(ValueError, match="dimension"):
        bath_purities(np.ones((3, 8), dtype=complex), (2, 3))


def test_global_speed_bounded_in_energy_window():
    # v(t) <= Delta_E for states populating a window of width Delta_E
    rng = trial_stream(102, 6)
    h = sample_random_hamiltonian((16, 1), rng)
    band = np.arange(4, 12)
    delta_e = h.eigenvalues[11] - h.eigenvalues[4]
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a /= np.linalg.norm(a)
    e_band = h.eigenvalues[band]
    for t in np.linspace(0, 40, 9):
        ct = a * np.exp(-1j * e_band * t)
        m = 1j * (e_band[:, None] - e_band[None, :]) * np.outer(ct, ct.conj())
        v = 0.5 * np.abs(np.linalg.eigvalsh(m)).sum()
        assert v <= delta_e + 1e-12


def test_pointer_hamiltonian_evolution():
    rng = trial_stream(103, 0)
    blocks = [_rand_herm(16, rng) for _ in range(2)]
    h = pointer_hamiltonian(2, blocks)
    psi_s = np.array([1.0, 1.0]) / np.sqrt(2)
    psi_b = sample_haar_state(np.eye(16), rng)
    psi0 = np.kron(psi_s, psi_b)
    rho0_s = reduced_marginals(psi0, h.dims)
    for t in np.linspace(0.0, 50.0, 11)[1:]:
        rho_s = reduced_marginals(_evolve(h, psi0, t), h.dims)
        assert np.abs(np.diag(rho_s) - np.diag(rho0_s)).max() <= 1e-10
        # off-diagonal equals the bath-overlap suppression factor
        e0, v0 = np.linalg.eigh(blocks[0])
        e1, v1 = np.linalg.eigh(blocks[1])
        u0 = (v0 * np.exp(-1j * e0 * t)) @ dagger(v0)
        u1 = (v1 * np.exp(-1j * e1 * t)) @ dagger(v1)
        factor = psi_b.conj() @ (dagger(u1) @ u0 @ psi_b)
        assert abs(rho_s[0, 1] - rho0_s[0, 1] * factor) < 1e-9


def test_pointer_equal_blocks_freeze_state():
    rng = trial_stream(103, 1)
    block = _rand_herm(8, rng)
    h = pointer_hamiltonian(2, [block, block])
    psi0 = sample_product_state(2, 8, rng)
    rho0_s = reduced_marginals(psi0, h.dims)
    for t in (3.0, 11.0):
        rho_s = reduced_marginals(_evolve(h, psi0, t), h.dims)
        assert np.abs(rho_s - rho0_s).max() < 1e-10


def test_purity_rate_instant_bound_pointwise():
    # |dp/dt| <= 2 p sqrt(2 I_SB) |H_SB| along a generic trajectory
    rng = trial_stream(103, 2)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(16, rng),
                                _rand_herm(32, rng) * 0.5)
    norm_hsb = np.abs(np.linalg.eigvalsh(parts.h_sb)).max()
    psi0 = sample_product_state(2, 16, rng)
    times = np.linspace(0.2, 30.0, 25)
    rates = _rates(parts, psi0, times)
    for t, rate, rho_s in zip(times, rates.purity_rates(), rates.rho_s):
        p_s = purity(rho_s)
        i_sb = mutual_information(_density(_evolve(parts, psi0, t)), (2, 16))
        assert abs(rate) <= 2 * p_s * np.sqrt(2 * i_sb) * norm_hsb + 1e-9
        # pure global state: the entropy form coincides
        s_s = von_neumann_entropy(rho_s)
        assert abs(rate) <= 4 * p_s * np.sqrt(s_s) * norm_hsb + 1e-9
