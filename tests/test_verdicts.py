"""Every trial row and summary gate is judged by bounds.verdict: degenerate
(infinite or NaN) values never satisfy anything, anywhere in the suite."""

import inspect
import math

import numpy as np
import pytest

from purestat import ReducedRates, compose_hamiltonian, experiments, sample_haar_state, trial_stream
from purestat.experiments import EXPERIMENTS, _fd_check, _marginal_diameter, experiment_ids
from purestat.harness import ExperimentSpec, run_experiment

# small enough that all 28 experiments run in a few seconds
REDUCED = {"trials": 3, "n_times": 16, "n_samples": 200, "n_boot": 5, "crosscheck_trials": 1,
           "crosscheck_times": 16, "grid": 21, "fd_checks": 2}


def _forcing(make_row, value):
    """make_row with its lhs argument replaced by value."""
    sig = inspect.signature(make_row)

    def forced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.arguments["lhs"] = value
        return make_row(*bound.args, **bound.kwargs)

    return forced


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_no_row_or_gate_is_satisfied_by_a_degenerate_lhs(value, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    for name in ("_row", "check_bound"):
        monkeypatch.setattr(experiments, name, _forcing(getattr(experiments, name), value))
    assert len(experiment_ids()) == 28
    for experiment_id in experiment_ids():
        defaults = EXPERIMENTS[experiment_id].defaults
        params = {k: v for k, v in REDUCED.items() if k in defaults}
        with np.errstate(all="ignore"):
            res = run_experiment(ExperimentSpec(experiment_id, params, seed=5))
        assert res.records, experiment_id
        for r in res.records:
            # the forced lhs reached the row, so _row or check_bound made it
            assert not math.isfinite(r.lhs), experiment_id
            assert not r.satisfied, experiment_id
        for g in res.summary["gates"]:
            assert not math.isfinite(g["lhs"]), (experiment_id, g["gate"])
            assert not g["satisfied"], (experiment_id, g["gate"])


def test_commutator_lower_with_an_infinite_trace_norm(monkeypatch):
    monkeypatch.setattr(experiments, "trace_norm", lambda a: math.inf)
    res = run_experiment(ExperimentSpec("COMMUTATOR_LOWER", {"trials": 5}, seed=3))
    assert all(r.lhs == math.inf and not r.satisfied for r in res.records)
    assert res.violations == 5


def test_mean_energy_gate_with_an_infinite_mean(monkeypatch):
    # zero vectors have purity 0, so the mean of 1/purity is infinite
    monkeypatch.setattr(experiments, "mean_energy_coefficients",
                        lambda h, energy, rngs: np.zeros((len(list(rngs)), h.dim)))
    with np.errstate(divide="ignore"):
        res = run_experiment(ExperimentSpec("DEFF_MEAN_ENERGY", {"trials": 4}, seed=3))
    gate = next(g for g in res.summary["gates"] if g["gate"] == "mean_deff_above_crude_bound")
    assert gate["lhs"] == math.inf and not gate["satisfied"]


def test_speed_with_a_nan_finite_difference(monkeypatch):
    monkeypatch.setattr(experiments, "finite_difference_speed", lambda h, state, t: math.nan)
    res = run_experiment(ExperimentSpec("SPEED", {"trials": 2, "n_times": 50}, seed=3))
    for r in res.records:
        assert math.isnan(r.extra["fd_max_rel_err"]) and not r.satisfied
    assert res.violations == 2


def test_fd_check_propagates_a_single_nan():
    rng = trial_stream(401, 0)
    parts = compose_hamiltonian(*(experiments._gue(d, rng) for d in (2, 4, 8)))
    psi0 = sample_haar_state(np.eye(8), rng, dims=(2, 4))
    fds = np.array([1.0, math.nan, 1.0])   # only the middle instant is degenerate
    ok, worst = _fd_check(lambda rates: np.ones(3), lambda h, psi, t: fds, 1e-3,
                          psi0, parts, {"fd_checks": 3, "fd_rtol": 1e-4})
    assert math.isnan(worst) and not ok
    ok, worst = _fd_check(lambda rates: np.full(3, 2.0), lambda h, psi, t: 2.0 + 1e-6, 1e-3,
                          psi0, parts, {"fd_checks": 3, "fd_rtol": 1e-4})
    assert worst == pytest.approx(5e-7) and ok


@pytest.mark.parametrize("rate", ["speeds", "purity_rates"])
def test_fd_check_tests_the_kernel_behind_the_rows(rate, monkeypatch):
    # a fault in the batched kernel must surface in the finite-difference check
    scaled = getattr(ReducedRates, rate)
    monkeypatch.setattr(ReducedRates, rate, lambda self: 1.5 * scaled(self))
    for experiment_id in ("SPEED", "PURITY_RATE_AVG"):
        res = run_experiment(ExperimentSpec(experiment_id, {"trials": 2, "n_times": 50},
                                            seed=3))
        if rate == {"SPEED": "speeds", "PURITY_RATE_AVG": "purity_rates"}[experiment_id]:
            assert res.violations >= 1, experiment_id
            assert all(r.extra["fd_max_rel_err"] > 0.3 for r in res.records), experiment_id
        else:
            assert res.violations == 0, experiment_id


def test_marginal_diameter_propagates_a_nan_marginal():
    rng = np.random.default_rng(402)
    g = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    mu = g @ np.conj(np.swapaxes(g, 1, 2))
    mu /= np.trace(mu, axis1=1, axis2=2).real[:, None, None]
    pairs = [np.abs(np.linalg.eigvalsh(mu[i] - mu[j])).sum() / 2
             for i in range(5) for j in range(i + 1, 5)]
    assert _marginal_diameter(mu) == pytest.approx(max(pairs), abs=1e-15)
    mu[2] = np.nan
    assert math.isnan(_marginal_diameter(mu))


def test_marginal_diameter_batches_equal_one_batch(monkeypatch):
    rng = np.random.default_rng(403)
    g = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
    mu = g @ np.conj(np.swapaxes(g, 1, 2))
    mu /= np.trace(mu, axis1=1, axis2=2).real[:, None, None]
    one = _marginal_diameter(mu)   # 780 pairs: one batch
    rows = [np.abs(np.linalg.eigvalsh(mu[i] - mu[i + 1:])).sum(axis=-1).max() / 2
            for i in range(len(mu) - 1)]
    assert one == max(rows)
    for entries in (4, 12, 4 * 779, 4 * 780):   # 1, 3, 779 and 780 pairs per batch
        monkeypatch.setattr(experiments, "_PAIR_BLOCK", entries)
        assert _marginal_diameter(mu) == one
    assert _marginal_diameter(mu[:1]) == 0.0
