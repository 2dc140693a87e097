"""Evolution, dephasing, time batches, speeds and rates."""

import tracemalloc

import numpy as np
import pytest

from purestat import (
    DensityMatrix,
    Hamiltonian,
    PureState,
    compose_hamiltonian,
    dagger,
    default_horizon,
    dephase,
    dephased,
    evolve,
    finite_difference_purity_rate,
    finite_difference_speed,
    mutual_information,
    pointer_hamiltonian,
    purity,
    partial_trace,
    purity_rate,
    reduced_marginals,
    reduced_rates,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    sample_times,
    subsystem_speed,
    time_map,
    trace_distance,
    trial_stream,
    von_neumann_entropy,
)
from purestat.dynamics import _TIME_BLOCK
from purestat.hamiltonians import phase_factors
from purestat.experiments import EXPERIMENTS


def _rand_herm(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + dagger(z)) / 2


def _time_average_discrepancy(h, psi, horizon, n_samples, rng):
    """D(dephased state, mean of |psi_t><psi_t| over uniform times on [0, horizon])."""
    psis = time_map(h, psi, rng.uniform(0.0, horizon, n_samples), np.copy)
    empirical = np.einsum("ni,nj->ij", psis, psis.conj()) / n_samples
    return trace_distance(dephase(psi.density(), h).matrix, empirical)


@pytest.fixture(scope="module")
def h8():
    return sample_random_hamiltonian(None, (8, 1), trial_stream(100, 0))


def test_evolve_at_zero_is_identity(h8):
    psi = sample_haar_state(np.eye(8), trial_stream(100, 1))
    out = evolve(psi, h8, 0.0)
    assert np.abs(out.vector - psi.vector).max() < 1e-12


def test_evolve_eigenstate_stationary(h8):
    ek = PureState(h8.eigenbasis[:, 3])
    out = evolve(ek, h8, 7.7)
    assert np.abs(np.outer(out.vector, out.vector.conj())
                  - np.outer(ek.vector, ek.vector.conj())).max() < 1e-10


def test_evolve_two_level_hand_case():
    h = Hamiltonian(np.array([0.0, 1.0]), np.eye(2, dtype=complex))
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    out = evolve(plus, h, np.pi)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.abs(np.outer(out.vector, out.vector.conj())
                  - np.outer(minus, minus)).max() < 1e-12


def test_evolve_conserves_energy_and_purity(h8):
    rng = trial_stream(100, 2)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = DensityMatrix((g @ dagger(g)) / np.trace(g @ dagger(g)).real)
    hm = h8.matrix()
    e0, p0 = np.trace(hm @ rho.matrix).real, purity(rho)
    for t in np.linspace(0.0, 30.0, 7)[1:]:
        rt = evolve(rho, h8, t)
        assert np.trace(hm @ rt.matrix).real == pytest.approx(e0, abs=1e-9)
        assert purity(rt) == pytest.approx(p0, abs=1e-9)


def test_evolve_dimension_mismatch(h8):
    with pytest.raises(ValueError):
        evolve(PureState(np.array([1.0, 0.0])), h8, 1.0)


def test_dephase_diagonal_unchanged(h8):
    w = np.linspace(0.05, 0.3, 8); w /= w.sum()
    rho = DensityMatrix((h8.eigenbasis * w) @ dagger(h8.eigenbasis))
    out = dephase(rho, h8)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-12


def test_dephase_two_superposition(h8):
    psi = PureState((h8.eigenbasis[:, 0] + h8.eigenbasis[:, 5]) / np.sqrt(2))
    out = dephase(psi.density(), h8)
    expected = 0.5 * (np.outer(h8.eigenbasis[:, 0], h8.eigenbasis[:, 0].conj())
                      + np.outer(h8.eigenbasis[:, 5], h8.eigenbasis[:, 5].conj()))
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_dephase_idempotent_trace_preserving_commutes(h8):
    psi = sample_haar_state(np.eye(8), trial_stream(100, 3))
    om = dephase(psi.density(), h8)
    assert abs(np.trace(om.matrix).real - 1.0) < 1e-12
    again = dephase(om, h8)
    assert np.abs(again.matrix - om.matrix).max() < 1e-12
    hm = h8.matrix()
    assert np.abs(om.matrix @ hm - hm @ om.matrix).max() < 1e-10


def test_dephase_observable_norm_contraction(h8):
    rng = trial_stream(100, 4)
    b = _rand_herm(8, rng)
    db = dephase(b, h8)
    assert np.abs(np.linalg.eigvalsh(db)).max() <= np.abs(np.linalg.eigvalsh(b)).max() + 1e-12


def test_dephase_resonant_requires_cluster_mode():
    h = Hamiltonian(np.array([0.0, 1.0, 2.0]), np.eye(3, dtype=complex))
    rho = DensityMatrix(np.ones((3, 3)) / 3)
    with pytest.raises(ValueError):
        dephase(rho, h)
    out = dephase(rho, h, mode="clusters")  # non-degenerate spectrum: same as strict
    assert np.abs(out.matrix - np.eye(3) / 3).max() < 1e-12


def test_dephase_degenerate_clusters():
    h = Hamiltonian(np.array([0.0, 0.0, 1.0]), np.eye(3, dtype=complex))
    rho = DensityMatrix(np.ones((3, 3)) / 3)
    out = dephase(rho, h, mode="clusters")
    expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3.0
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_dephase_matches_long_time_average():
    # time-integration oracle: sampled average approaches the dephased state
    # (at n = 1e4 samples the Monte Carlo noise floor sits just below 0.02)
    rng = trial_stream(102, 0)
    h = sample_random_hamiltonian(None, (32, 1), rng)
    psi = sample_haar_state(np.eye(32), rng)
    assert _time_average_discrepancy(h, psi, default_horizon(h), 10_000, rng) <= 0.02


def test_dephase_matches_exact_time_integral():
    # quadrature oracle: (1/T) int_0^T rho_t dt in closed form per matrix entry
    rng = trial_stream(101, 0)
    h = sample_random_hamiltonian(None, (32, 1), rng)
    psi = sample_haar_state(np.eye(32), rng)
    c = h.to_eigenbasis(psi.vector)
    horizon = default_horizon(h)
    om = h.eigenvalues[:, None] - h.eigenvalues[None, :]
    kernel = np.ones_like(om, dtype=complex)
    off = om != 0
    kernel[off] = (np.exp(-1j * om[off] * horizon) - 1) / (-1j * om[off] * horizon)
    avg_eig = np.outer(c, c.conj()) * kernel
    avg = h.from_eigenbasis(avg_eig)
    omega = dephase(psi.density(), h)
    assert trace_distance(avg, omega.matrix) <= 1e-3


def test_time_average_discrepancy_shrinks_with_horizon():
    rng = trial_stream(101, 1)
    h = sample_random_hamiltonian(None, (16, 1), rng)
    psi = sample_haar_state(np.eye(16), rng)
    short = _time_average_discrepancy(h, psi, 5.0, 4000, trial_stream(101, 2))
    longr = _time_average_discrepancy(h, psi, default_horizon(h), 4000, trial_stream(101, 3))
    assert longr < short


def test_sample_times_draws_the_horizon_policy_times():
    h = sample_random_hamiltonian(None, (2, 8), trial_stream(101, 7))
    times = sample_times(h, 50, trial_stream(101, 8))
    assert np.array_equal(times, trial_stream(101, 8).uniform(0.0, default_horizon(h), 50))
    assert times.shape == (50,) and times.min() >= 0.0 and times.max() < default_horizon(h)


def test_time_average_stationary_state():
    rng = trial_stream(101, 4)
    h = sample_random_hamiltonian(None, (8, 1), rng)
    ek = PureState(h.eigenbasis[:, 2])
    assert _time_average_discrepancy(h, ek, 100.0, 64, rng) <= 1e-9


def test_time_average_identity_functional():
    # the norm is a conserved functional: constant along the sampled trajectory
    rng = trial_stream(101, 5)
    h = sample_random_hamiltonian(None, (8, 1), rng)
    psi = sample_haar_state(np.eye(8), rng)
    norms = time_map(h, psi, rng.uniform(0.0, 50.0, 128),
                     lambda psis: np.linalg.norm(psis, axis=1))
    assert norms.mean() == pytest.approx(1.0, abs=1e-10)
    assert norms.var() == pytest.approx(0.0, abs=1e-12)


def test_time_average_reduced_report():
    rng = trial_stream(101, 6)
    h = sample_random_hamiltonian(None, (2, 8), rng)
    psi = sample_haar_state(np.eye(16), rng, dims=(2, 8))
    times = rng.uniform(0.0, default_horizon(h), 3000)
    empirical = time_map(h, psi, times, lambda psis: reduced_marginals(psis, (2, 8))).mean(axis=0)
    target = dephase(psi.density(), h).reduced("S")
    assert target.dim == 2
    assert trace_distance(target, empirical) < 0.1


def test_subsystem_speed_stationary_is_zero():
    rng = trial_stream(102, 0)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(8, rng)
    parts = compose_hamiltonian(h_s, h_b, _rand_herm(16, rng) * 0.3)
    h = parts.assembled
    w = np.linspace(0.01, 0.1, 16); w /= w.sum()
    stationary = DensityMatrix((h.eigenbasis * w) @ dagger(h.eigenbasis), dims=(2, 8))
    assert subsystem_speed(stationary, parts) == pytest.approx(0.0, abs=1e-10)


def test_subsystem_speed_no_interaction():
    rng = trial_stream(102, 1)
    h_s, h_b = _rand_herm(2, rng), _rand_herm(8, rng)
    parts = compose_hamiltonian(h_s, h_b)
    psi = sample_haar_state(np.eye(16), rng, dims=(2, 8))
    rho_s = psi.reduced("S").matrix
    expected = 0.5 * np.abs(np.linalg.eigvalsh(
        1j * (rho_s @ parts.h_s - parts.h_s @ rho_s))).sum()
    assert subsystem_speed(psi.density(), parts) == pytest.approx(expected, abs=1e-12)


def test_subsystem_speed_matches_finite_difference():
    rng = trial_stream(102, 2)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    h = parts.assembled
    psi = sample_product_state(np.eye(2), np.eye(8), rng)
    for t in (0.4, 1.9, 6.3):
        state = evolve(psi, h, t).density()
        state.dims = (2, 8)
        analytic = subsystem_speed(state, parts)
        fd = finite_difference_speed(h, psi, t)
        assert abs(fd - analytic) / analytic < 1e-4


def test_purity_rate_product_state_is_zero():
    rng = trial_stream(102, 3)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    psi = sample_product_state(np.eye(2), np.eye(8), rng)
    assert purity_rate(psi.density(), parts) == pytest.approx(0.0, abs=1e-10)


def test_purity_rate_no_interaction_is_zero():
    rng = trial_stream(102, 4)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng))
    psi = sample_haar_state(np.eye(16), rng, dims=(2, 8))
    assert purity_rate(psi.density(), parts) == pytest.approx(0.0, abs=1e-12)


def test_purity_rate_matches_finite_difference():
    rng = trial_stream(102, 5)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    h = parts.assembled
    psi = sample_product_state(np.eye(2), np.eye(8), rng)
    scale = 2 * np.abs(np.linalg.eigvalsh(parts.h_sb)).max()
    for t in (0.4, 1.9, 6.3):
        state = evolve(psi, h, t).density()
        state.dims = (2, 8)
        analytic = purity_rate(state, parts)
        fd = finite_difference_purity_rate(h, psi, t)
        assert abs(fd - analytic) / max(abs(analytic), 1e-3 * scale) < 1e-4


def test_reduced_rates_match_dense_references():
    # the batched kernel against the dense single-state formulas at sampled times
    rng = trial_stream(102, 6)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    h = parts.assembled
    psi = sample_product_state(np.eye(2), np.eye(8), rng)
    times = rng.uniform(0.0, 50.0, 12)
    rates = reduced_rates(time_map(h, psi, times, np.copy), parts)
    speeds, dps = rates.speeds(), rates.purity_rates()
    assert rates.rho_s.shape == rates.drho_s.shape == rates.tr_b_comm.shape == (12, 2, 2)
    for i, t in enumerate(times):
        state = evolve(psi, h, t)
        assert abs(speeds[i] - subsystem_speed(state.density(), parts)) < 1e-12
        assert abs(dps[i] - purity_rate(state.density(), parts)) < 1e-12
        assert np.abs(rates.rho_s[i] - state.reduced("S").matrix).max() < 1e-12


@pytest.mark.parametrize("d_s", [2, 4])
def test_dephased_marginals_match_the_dense_dephasing_map(d_s):
    rng = trial_stream(102, 11)
    h = sample_random_hamiltonian(None, (d_s, 8), rng)
    psi = sample_haar_state(np.eye(8 * d_s), rng, dims=(d_s, 8))
    omega = dephase(psi.density(), h).matrix
    probs, omega_s, omega_b = dephased(h, psi)
    assert np.abs(omega_s - partial_trace(omega, d_s, 8, "S")).max() <= 1e-12
    assert np.abs(omega_b - partial_trace(omega, d_s, 8, "B")).max() <= 1e-12
    assert np.abs(probs - np.diag(h.to_eigenbasis(omega)).real).max() <= 1e-12
    assert np.array_equal(dephased(h, psi.vector, marginals=False), probs)


def test_batched_finite_differences_match_a_per_time_loop():
    rng = trial_stream(102, 12)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng),
                                _rand_herm(16, rng) * 0.4)
    h = parts.assembled
    psi = sample_product_state(np.eye(2), np.eye(8), rng)
    times = np.array([0.4, 1.9, 6.3, 11.0])
    for fd in (finite_difference_speed, finite_difference_purity_rate):
        batch = fd(h, psi, times)
        assert batch.shape == (4,)
        assert isinstance(fd(h, psi, 1.9), float)
        loop = np.array([fd(h, psi, t) for t in times])
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
    assert np.abs(von_neumann_entropy(rho, base=2) - loop / np.log(2)).max() <= 1e-12


def test_reduced_rates_rejects_wrong_dimension():
    rng = trial_stream(102, 7)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(8, rng))
    with pytest.raises(ValueError, match="dimension"):
        reduced_rates(np.ones((3, 8), dtype=complex), parts)


def test_stacked_samples_match_evolve():
    # one shared phase matrix for a stack of initial states vs evolve() per state
    rng = trial_stream(102, 8)
    h = sample_random_hamiltonian(None, (2, 8), rng)
    states = [sample_haar_state(np.eye(16), rng, dims=(2, 8)) for _ in range(3)]
    times = rng.uniform(0.0, default_horizon(h), 7)
    psis = time_map(h, np.stack([s.vector for s in states]), times, np.copy)
    assert psis.shape == (7, 3, 16)
    rho_s = reduced_marginals(psis, (2, 8))
    assert rho_s.shape == (7, 3, 2, 2)
    for j, state in enumerate(states):
        assert np.array_equal(time_map(h, state, times, np.copy), psis[:, j])
        for i, t in enumerate(times):
            ref = evolve(state, h, t)
            assert np.abs(psis[i, j] - ref.vector).max() <= 1e-12
            assert np.abs(rho_s[i, j] - ref.reduced("S").matrix).max() <= 1e-12


def test_time_map_coefficients_match_evolve():
    # with states=False, c_k exp(-i E_k t): the eigenbasis image of evolve()
    rng = trial_stream(102, 10)
    h = sample_random_hamiltonian(None, (16, 1), rng)
    states = [sample_haar_state(np.eye(16), rng) for _ in range(2)]
    times = rng.uniform(0.0, default_horizon(h), 5)
    cts = time_map(h, np.stack([s.vector for s in states]), times, np.copy, states=False)
    assert cts.shape == (5, 2, 16)
    assert np.array_equal(time_map(h, states[1], times, np.copy, states=False), cts[:, 1])
    for j, state in enumerate(states):
        for i, t in enumerate(times):
            ref = h.to_eigenbasis(evolve(state, h, t).vector)
            assert np.abs(cts[i, j] - ref).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 64, 256])
def test_time_map_blocks_cover_the_times_once_and_in_order(d):
    rng = trial_stream(102, 11)
    h = sample_random_hamiltonian(None, (d, 1), rng)
    stack = np.stack([sample_haar_state(np.eye(d), rng).vector for _ in range(2)])
    for initial in (stack[0], stack):
        c0 = np.array([h.to_eigenbasis(v) for v in np.atleast_2d(initial)])
        rows = max(1, _TIME_BLOCK // initial.size)   # times per block
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            times = rng.uniform(0.0, 1e6, n)
            # one shot: all times at once, one row per (time, state)
            cts = c0 * phase_factors(h.eigenvalues, times)[:, None, :]
            want = {False: cts, True: cts @ h.eigenbasis.T}
            for states in (False, True):
                shapes = []

                def record(block):
                    shapes.append(block.shape)
                    return block   # a view of the reused buffer: copied at once
                got = time_map(h, initial, times, record, states=states)
                assert [s[1:] for s in shapes] == [initial.shape] * len(shapes)
                assert sum(s[0] for s in shapes) == n
                assert all(0 < s[0] <= rows and s[0] * initial.size <= _TIME_BLOCK
                           for s in shapes)
                assert got.shape == (n, *initial.shape)
                got = got.reshape(n, -1, d)
                if states:
                    assert np.abs(got - want[True]).max() <= 1e-12
                else:
                    assert np.array_equal(got, want[False])


def test_time_map_returns_every_part_of_a_tuple():
    rng = trial_stream(102, 14)
    h = sample_random_hamiltonian(None, (2, 16), rng)
    psi = sample_haar_state(np.eye(32), rng, dims=(2, 16))
    times = rng.uniform(0.0, 100.0, 300)   # blocks of 256 and 44 times
    rho_s, p_b = time_map(h, psi, times, lambda psis: reduced_marginals(psis, (2, 16), True))
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
        exp.trial(None, params, 7, 0)
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
        exp.trial(None, params, 7, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n_times", [5, 32, 75])  # below, at and not a multiple of the chunk
def test_reduced_marginals_bath_purity_matches_dense(n_times):
    rng = trial_stream(102, 9)
    h = sample_random_hamiltonian(None, (2, 16), rng)
    psi = sample_haar_state(np.eye(32), rng, dims=(2, 16))
    psis = time_map(h, psi, rng.uniform(0.0, 100.0, n_times), np.copy)
    rho_s, p_b = reduced_marginals(psis, (2, 16), bath_purity=True)
    assert rho_s.shape == (n_times, 2, 2) and p_b.shape == (n_times,)
    for i, v in enumerate(psis):
        rho = np.outer(v, v.conj())
        assert abs(p_b[i] - purity(partial_trace(rho, 2, 16, "B"))) <= 1e-12
        assert np.abs(rho_s[i] - partial_trace(rho, 2, 16, "S")).max() <= 1e-12
        assert abs(p_b[i] - purity(rho_s[i])) <= 1e-12   # Schmidt: p_S = p_B


def test_time_batch_kernel_rejects_dimension_mismatch(h8):
    with pytest.raises(ValueError, match="dimension"):
        time_map(h8, np.ones((2, 6), dtype=complex) / np.sqrt(6), [0.0, 1.0], np.copy)
    with pytest.raises(ValueError, match="at least one time"):
        time_map(h8, np.ones(8, dtype=complex) / np.sqrt(8), [], np.copy)
    with pytest.raises(ValueError, match="dimension"):
        reduced_marginals(np.ones((3, 8), dtype=complex), (2, 3))


def test_global_speed_bounded_in_energy_window():
    # v(t) <= Delta_E for states populating a window of width Delta_E
    rng = trial_stream(102, 6)
    h = sample_random_hamiltonian(None, (16, 1), rng)
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
    parts = pointer_hamiltonian(2, blocks)
    h = parts.assembled
    psi_s = np.array([1.0, 1.0]) / np.sqrt(2)
    psi_b = sample_haar_state(np.eye(16), rng).vector
    psi0 = PureState(np.kron(psi_s, psi_b), dims=(2, 16))
    rho0_s = psi0.reduced("S").matrix
    for t in np.linspace(0.0, 50.0, 11)[1:]:
        out = evolve(psi0, h, t)
        rho_s = out.reduced("S").matrix
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
    parts = pointer_hamiltonian(2, [block, block])
    h = parts.assembled
    psi0 = sample_product_state(np.eye(2), np.eye(8), rng)
    rho0_s = psi0.reduced("S").matrix
    for t in (3.0, 11.0):
        rho_s = evolve(psi0, h, t).reduced("S").matrix
        assert np.abs(rho_s - rho0_s).max() < 1e-10


def test_purity_rate_instant_bound_pointwise():
    # |dp/dt| <= 2 p sqrt(2 I_SB) |H_SB| along a generic trajectory
    rng = trial_stream(103, 2)
    parts = compose_hamiltonian(_rand_herm(2, rng), _rand_herm(16, rng),
                                _rand_herm(32, rng) * 0.5)
    h = parts.assembled
    norm_hsb = np.abs(np.linalg.eigvalsh(parts.h_sb)).max()
    psi0 = sample_product_state(np.eye(2), np.eye(16), rng)
    for t in np.linspace(0.2, 30.0, 25):
        state = evolve(psi0, h, t).density()
        state.dims = (2, 16)
        rate = purity_rate(state, parts)
        p_s = purity(state.reduced("S"))
        i_sb = mutual_information(state)
        assert abs(rate) <= 2 * p_s * np.sqrt(2 * i_sb) * norm_hsb + 1e-9
        # pure global state: the entropy form coincides
        s_s = von_neumann_entropy(state.reduced("S"))
        assert abs(rate) <= 4 * p_s * np.sqrt(s_s) * norm_hsb + 1e-9
