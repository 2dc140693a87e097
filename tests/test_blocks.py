"""Trial blocks: vectorised stream keys, re-keyed streams and the block hooks
of the tiny-trial experiments, against per-trial trial_stream references."""

import dataclasses
import math

import numpy as np
import pytest

from purestat import (
    experiments,
    mean_energy_coefficients,
    philox_keys,
    sample_haar_state,
    sample_mean_energy_state,
    sample_product_state,
    sample_random_hamiltonian,
    trial_stream,
    trial_streams,
)
from purestat.bounds import check_bound, evaluate_bound, max_pairing_offdiagonal_sum, verdict
from purestat.dynamics import sample_times
from purestat.hamiltonians import phase_factors
from purestat.experiments import EXPERIMENTS, _mixed_density, _row
from purestat.linalg import commutator, trace_norm
from purestat.harness import _BLOCK, ExperimentSpec, _chunks, run_experiment
from purestat.states import expectation_values, trace_distance

BLOCKED = ("DEFF_MEAN_ENERGY", "DEFF_SUBSPACE_MEAN", "DEFF_SUBSPACE_TAIL", "DEFF_PRODUCT_MEAN",
           "ERGODICITY", "ENTANGLED_STATE_TAIL", "ISI_LINDEN_DELTA", "COMMUTATOR_LOWER")


def test_exactly_the_tiny_trial_experiments_have_a_block_hook():
    assert sorted(e for e, exp in EXPERIMENTS.items() if exp.block) == sorted(BLOCKED)


def test_philox_keys_match_seed_sequence():
    ks = list(range(20_000)) + [255, 256, 2**32 - 1, 2**32, 2**40 + 3, 2**62 + 9]
    pairs = 0
    for seed in (0, 7, 2**32 - 1, 2**32, 2**64 + 5):
        got = philox_keys(seed, ks)
        want = np.array([np.random.SeedSequence(seed, spawn_key=(1, k)).generate_state(
            2, np.uint64) for k in ks])
        assert got.dtype == np.uint64 and np.array_equal(got, want), seed
        pairs += len(ks)
    assert pairs >= 100_000
    assert philox_keys(3, []).shape == (0, 2)


def test_philox_keys_reject_negative_input_like_seed_sequence():
    for seed, k in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=(1, k))
        with pytest.raises(ValueError):
            philox_keys(seed, [k])


def test_trial_streams_draw_each_trials_own_values():
    ks = [0, 3, 255, 256, 2**32 - 1]
    for k, rng in zip(ks, trial_streams(11, ks)):
        ref = trial_stream(11, k)
        # an odd number of 32-bit draws leaves half a word buffered: the next
        # trial must not see it
        for draw in (lambda g: g.integers(0, 2**31, size=3, dtype=np.int32),
                     lambda g: g.standard_normal(7), lambda g: g.random(5),
                     lambda g: g.uniform(0.0, 3.0, 2)):
            assert draw(rng).tobytes() == draw(ref).tobytes(), k


class _Recorder:
    """A generator that logs every draw (method, arguments, values)."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, args, kwargs, np.array(out, copy=True)))
            return out

        return record


@pytest.mark.parametrize("experiment_id", BLOCKED)
def test_block_draws_equal_the_trial_stream_draws(experiment_id, monkeypatch):
    exp = EXPERIMENTS[experiment_id]
    params, seed = dict(exp.defaults), 13
    setup = exp.setup(params, seed) if exp.setup else None
    logs: dict = {}
    streams = experiments.trial_streams

    def recording(seed, ks):
        for k, rng in zip(ks, streams(seed, ks)):
            yield _Recorder(rng, logs.setdefault(k, []))

    monkeypatch.setattr(experiments, "trial_streams", recording)
    ks = range(0, 40)
    items = exp.block(setup, params, seed, ks)
    assert len(items) == len(ks) and sorted(logs) == list(ks)
    for k in ks:
        ref = trial_stream(seed, k)
        assert logs[k]
        for name, args, kwargs, values in logs[k]:
            assert getattr(ref, name)(*args, **kwargs).tobytes() == values.tobytes(), k
    if experiment_id == "ERGODICITY":   # cross-check trials draw their times too
        assert [len(logs[k]) for k in range(4)] == [2, 2, 2, 1]


def test_chunk_edges_of_block_experiments_sit_on_block_multiples():
    for trials in (1, 255, 256, 257, 600, 2000, 20_000):
        for workers in range(2, 9):
            chunks = _chunks(trials, workers, _BLOCK)
            assert chunks[0][0] == 0 and chunks[-1][1] == trials
            assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
            assert all(a % _BLOCK == 0 for a, _ in chunks)


@pytest.mark.parametrize("experiment_id", BLOCKED)
def test_blocked_csv_bytes_do_not_depend_on_worker_count(experiment_id, tmp_path,
                                                         monkeypatch):
    exp = EXPERIMENTS[experiment_id]

    def aligned_block(setup, params, seed, ks):
        # raises inside a pool worker too: the run then fails
        assert ks.start % _BLOCK == 0 and len(ks) == min(_BLOCK, 600 - ks.start), ks
        return exp.block(setup, params, seed, ks)

    monkeypatch.setitem(EXPERIMENTS, experiment_id,
                        dataclasses.replace(exp, block=aligned_block))
    outs, hashes = {}, {}
    for workers in ("1", "2"):
        monkeypatch.setenv("PURESTAT_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        res = run_experiment(ExperimentSpec(experiment_id, {"trials": 600}, seed=17,
                                            out_dir=str(out)))
        assert [r.trial for r in res.records] == list(range(600))
        outs[workers] = (out / f"{experiment_id}.csv").read_bytes()
        hashes[workers] = res.manifest["manifest_hash"]
    assert outs["1"] == outs["2"]
    assert hashes["1"] == hashes["2"]   # the row-aligned extras too


# ---------------------------------------------------------------------------
# per-trial references: each trial on its own trial_stream, as before blocks
# ---------------------------------------------------------------------------

def _one_shot_haar_row(d, rng):
    """The one-shot Haar draw of one row, written out as the independent oracle."""
    z = rng.standard_normal((1, d)) + 1j * rng.standard_normal((1, d))
    return (z / np.linalg.norm(z, axis=1, keepdims=True))[0]


def _ref_subspace_deff(setup, seed, k):
    a = _one_shot_haar_row(setup["d_r"], trial_stream(seed, k))
    return float(1.0 / (np.abs(a @ setup["block"]) ** 4).sum())


def _ref_deff_subspace_mean(setup, params, seed, k):
    return _row(_ref_subspace_deff(setup, seed, k), setup["d_r"] / 4.0, "lower")


def _ref_deff_subspace_tail(setup, params, seed, k):
    deff, d_r = _ref_subspace_deff(setup, seed, k), setup["d_r"]
    return check_bound("DEFF_SUBSPACE_TAIL", float(deff < d_r / 4.0), {"d_r": d_r}, deff=deff)


def _ref_deff_product(setup, params, seed, k):
    psi = sample_product_state(np.eye(setup["d_sr"]), np.eye(setup["d_br"]),
                               trial_stream(seed, k))
    c = setup["h"].to_eigenbasis(psi.vector)
    rhs = evaluate_bound("DEFF_PRODUCT_MEAN", {"d_sr": setup["d_sr"], "d_br": setup["d_br"]})
    return _row(float(1.0 / (np.abs(c) ** 4).sum()), rhs, "observation")


def _ref_deff_mean_energy(setup, params, seed, k):
    h = setup["h"]
    c = h.to_eigenbasis(sample_mean_energy_state(h, setup["energy"], trial_stream(seed, k))
                        .vector)
    return _row(float((np.abs(c) ** 4).sum()), setup["rhs"], "observation",
                energy=float(np.abs(c) ** 2 @ h.eigenvalues))


def _ref_ergodicity(setup, params, seed, k):
    rng = trial_stream(seed, k)
    a = _one_shot_haar_row(setup["d_r"], rng)
    lhs = float((np.abs(a) ** 2) @ setup["diag_band"])
    row = _row(lhs, setup["mc_mean"], "observation")
    if k < int(params["crosscheck_trials"]):
        h = setup["h"]
        times = sample_times(h, params["crosscheck_times"], rng)
        ct = a * phase_factors(setup["window"].eigenvalues, times)   # all times at once
        x_mean = float(expectation_values(ct, setup["block"]).mean())
        row.extra["crosscheck_err"] = abs(x_mean - lhs)
        row.satisfied &= verdict(x_mean, lhs, "identity", float(params["crosscheck_tol"]))
    return row


def _ref_entangled_state_tail(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    psi = sample_haar_state(np.eye(d_s * d_b), trial_stream(seed, k), dims=(d_s, d_b))
    dist = trace_distance(psi.reduced("S"), np.eye(d_s) / d_s)
    return check_bound("ENTANGLED_STATE_TAIL", float(dist >= float(params["epsilon"])),
                       {"d_s": d_s, "d_b": d_b, "epsilon": float(params["epsilon"])},
                       distance=dist)


def _ref_isi_linden(setup, params, seed, k):
    a = _one_shot_haar_row(setup["d_r"], trial_stream(seed, k))
    omega_s = np.einsum("k,kij->ij", np.abs(a) ** 2, setup["mu"])
    rhs = evaluate_bound("ISI_LINDEN_DELTA", {
        "d_s": setup["d_s"], "d_r": setup["d_r"], "delta": setup["delta"]})
    return _row(trace_distance(omega_s, setup["rho_mc_s"]), rhs, "observation")


def _ref_commutator_lower(setup, params, seed, k):
    rng = trial_stream(seed, k)
    n = int(rng.integers(int(params["dim_min"]), int(params["dim_max"]) + 1))
    a_vals = np.sort(rng.random(n))
    rho = _mixed_density(n, rng)
    pairing = max_pairing_offdiagonal_sum(a_vals, rho)   # one matrix at a time
    return _row(trace_norm(1j * commutator(rho, np.diag(a_vals))), 2.0 * pairing, "lower",
                1e-9, dim=n, pairing=pairing)


REFERENCES = {
    "DEFF_MEAN_ENERGY": _ref_deff_mean_energy,
    "DEFF_SUBSPACE_MEAN": _ref_deff_subspace_mean,
    "DEFF_SUBSPACE_TAIL": _ref_deff_subspace_tail,
    "DEFF_PRODUCT_MEAN": _ref_deff_product,
    "ERGODICITY": _ref_ergodicity,
    "ENTANGLED_STATE_TAIL": _ref_entangled_state_tail,
    "ISI_LINDEN_DELTA": _ref_isi_linden,
    "COMMUTATOR_LOWER": _ref_commutator_lower,
}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-13 * max(abs(a), abs(b))


@pytest.mark.parametrize("experiment_id", BLOCKED)
def test_blocked_rows_match_the_per_trial_reference(experiment_id, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    exp, seed = EXPERIMENTS[experiment_id], 19
    res = run_experiment(ExperimentSpec(experiment_id, {"trials": 300}, seed=seed))
    params = res.spec.params
    setup = exp.setup(params, seed) if exp.setup else None
    for r in res.records:
        ref = REFERENCES[experiment_id](setup, params, seed, r.trial)
        assert _close(r.lhs, ref.lhs) and _close(r.rhs, ref.rhs), r.trial
        assert _close(r.stderr, ref.stderr), r.trial
        assert (r.satisfied, r.vacuous) == (ref.satisfied, ref.vacuous), r.trial
        assert r.extra.keys() == ref.extra.keys(), r.trial
        assert all(_close(r.extra[key], ref.extra[key]) for key in r.extra), r.trial
    assert all(math.isfinite(r.lhs) for r in res.records)


def test_mean_energy_state_uses_the_shared_coefficient_sampler():
    rng = trial_stream(0, 21)
    h = sample_random_hamiltonian((16, 1), rng, spectrum=(1.0, 2.0))
    psi = sample_mean_energy_state(h, 1.4, trial_stream(5, 2))
    c = mean_energy_coefficients(h, 1.4, [trial_stream(5, 1), trial_stream(5, 2)])
    assert c.shape == (2, 16)
    assert np.array_equal(psi.vector, h.eigenbasis @ c[1])
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-14)
