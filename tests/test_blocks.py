"""Trial blocks: jumped trial streams and the block hooks of the tiny-trial
experiments, against per-trial trial_stream references."""

import dataclasses
import math

import numpy as np
import pytest

from purestat import (
    SETUP_DOMAIN,
    TRIAL_DOMAIN,
    harness,
    mean_energy_coefficients,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    stream,
    trial_stream,
    trial_streams,
)
from purestat.bounds import (
    TrialRecord,
    check_bound,
    evaluate_bound,
    max_pairing_offdiagonal_sum,
    verdict,
)
from purestat.dynamics import reduced_marginals, sample_times
from purestat.hamiltonians import phase_factors
from purestat import experiments
from purestat.experiments import CROSSCHECK_TOL, EXPERIMENTS, _mixed_density, _row
from purestat.linalg import commutator, trace_norm
from purestat.harness import _BLOCK, ExperimentSpec, _chunks, run_experiment
from purestat.states import expectation_values, trace_distance

BLOCKED = ("DEFF_MEAN_ENERGY", "DEFF_SUBSPACE_MEAN", "DEFF_SUBSPACE_TAIL", "DEFF_PRODUCT_MEAN",
           "ERGODICITY", "ENTANGLED_STATE_TAIL", "ISI_LINDEN_DELTA", "COMMUTATOR_LOWER")


def test_exactly_the_tiny_trial_experiments_have_a_block_hook():
    assert sorted(e for e, exp in EXPERIMENTS.items() if exp.block) == sorted(BLOCKED)


def _jumped(seed, k):
    """Trial k's stream by numpy's documented route to parallel Philox streams."""
    return np.random.Generator(stream(seed, TRIAL_DOMAIN).bit_generator.jumped(k))


# an odd number of 32-bit draws leaves half a word buffered: the next trial
# must not see it
_DRAWS = (lambda g: g.integers(0, 2**31, size=3, dtype=np.int32),
          lambda g: g.standard_normal(7), lambda g: g.random(5),
          lambda g: g.uniform(0.0, 3.0, 2))


def test_trial_streams_are_the_jumped_trial_root():
    ks = [0, 3, 255, 256, 2**32 - 1, 2**40 + 3, 2**62 + 9]
    for seed in (0, 7, 2**64 + 5):
        for k, rng in zip(ks, trial_streams(seed, ks)):
            ref = _jumped(seed, k)
            for draw in _DRAWS:
                assert draw(rng).tobytes() == draw(ref).tobytes(), (seed, k)


def test_trial_streams_draw_each_trials_own_values():
    ks = [0, 3, 255, 256, 2**32 - 1]
    for k, rng in zip(ks, trial_streams(11, ks)):
        ref = trial_stream(11, k)
        for draw in _DRAWS:
            assert draw(rng).tobytes() == draw(ref).tobytes(), k


def test_a_negative_trial_index_raises():
    with pytest.raises(ValueError):
        trial_stream(3, -1)
    with pytest.raises(ValueError):
        list(trial_streams(3, [0, -1]))


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
def test_block_draws_equal_the_trial_stream_draws(experiment_id):
    exp = EXPERIMENTS[experiment_id]
    params, seed = dict(exp.defaults), 13
    setup = exp.setup(params, stream(seed, SETUP_DOMAIN)) if exp.setup else None
    logs: dict = {}
    ks = range(0, 40)
    recording = (_Recorder(rng, logs.setdefault(k, []))
                 for k, rng in zip(ks, trial_streams(seed, ks)))
    items = exp.block(setup, params, ks, recording)
    assert len(items) == len(ks) and sorted(logs) == list(ks)
    for k in ks:
        ref = trial_stream(seed, k)
        assert logs[k]
        for name, args, kwargs, values in logs[k]:
            assert getattr(ref, name)(*args, **kwargs).tobytes() == values.tobytes(), k
    if experiment_id == "ERGODICITY":   # cross-check trials draw their times too
        assert [len(logs[k]) for k in range(4)] == [2, 2, 2, 1]


def _drawn(rng) -> str:
    """Every _DRAWS draw from rng in turn, as one hex string."""
    return b"".join(draw(rng).tobytes() for draw in _DRAWS).hex()


def _drawing_trial(setup, params, k, rng):
    return TrialRecord(float(k), 0.0, 1.0, True, False, {"drawn": _drawn(rng)})


@pytest.mark.parametrize("workers, trials", [(2, 8), (1, 300)])
def test_a_per_trial_hook_receives_its_trial_stream(workers, trials, monkeypatch):
    # two workers run 8 one-trial chunks, this process the even trials and a
    # child the odd ones; one worker runs 300 trials across a block edge
    monkeypatch.setattr(harness, "worker_count", lambda: workers)
    monkeypatch.setitem(EXPERIMENTS, "COMMUTATOR_LOWER", dataclasses.replace(
        EXPERIMENTS["COMMUTATOR_LOWER"], trial=_drawing_trial, block=None))
    res = run_experiment(ExperimentSpec("COMMUTATOR_LOWER", {"trials": trials}, seed=23))
    assert res.records.lhs.tolist() == list(range(trials))
    assert res.records.extras["drawn"] == [_drawn(trial_stream(23, k)) for k in range(trials)]


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

    def aligned_block(setup, params, ks, rngs):
        # raises inside a pool worker too: the run then fails
        assert ks.start % _BLOCK == 0 and len(ks) == min(_BLOCK, 600 - ks.start), ks
        return exp.block(setup, params, ks, rngs)

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
    psi = sample_product_state(setup["d_sr"], setup["d_br"], trial_stream(seed, k))
    c = setup["eigenbasis"].conj().T @ psi
    rhs = evaluate_bound("DEFF_PRODUCT_MEAN", {"d_sr": setup["d_sr"], "d_br": setup["d_br"]})
    return _row(float(1.0 / (np.abs(c) ** 4).sum()), rhs, "observation")


def _ref_deff_mean_energy(setup, params, seed, k):
    (c,) = mean_energy_coefficients(setup["spectrum"], setup["energy"], 1, trial_stream(seed, k))
    return _row(float((np.abs(c) ** 4).sum()), setup["rhs"], "observation",
                energy=float(np.abs(c) ** 2 @ setup["spectrum"]))


def _ref_ergodicity(setup, params, seed, k):
    rng = trial_stream(seed, k)
    a = _one_shot_haar_row(setup["d_r"], rng)
    lhs = float((np.abs(a) ** 2) @ setup["diag_band"])
    row = _row(lhs, setup["mc_mean"], "observation")
    # read at call time, so a test may patch the constants
    if k < experiments.CROSSCHECK_TRIALS:
        h = setup["h"]
        times = sample_times(h, experiments.CROSSCHECK_TIMES, rng)
        ct = a * phase_factors(setup["window"].eigenvalues, times)   # all times at once
        x_mean = float(expectation_values(ct, setup["block"]).mean())
        row.extra["crosscheck_err"] = abs(x_mean - lhs)
        row.satisfied &= verdict(x_mean, lhs, "identity", CROSSCHECK_TOL)
    return row


def _ref_entangled_state_tail(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    psi = sample_haar_state(np.eye(d_s * d_b), trial_stream(seed, k))
    dist = trace_distance(reduced_marginals(psi, (d_s, d_b)), np.eye(d_s) / d_s)
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
    setup = exp.setup(params, stream(seed, SETUP_DOMAIN)) if exp.setup else None
    for r in res.records:
        ref = REFERENCES[experiment_id](setup, params, seed, r.trial)
        assert _close(r.lhs, ref.lhs) and _close(r.rhs, ref.rhs), r.trial
        assert _close(r.stderr, ref.stderr), r.trial
        assert (r.satisfied, r.vacuous) == (ref.satisfied, ref.vacuous), r.trial
        assert r.extra.keys() == ref.extra.keys(), r.trial
        assert all(_close(r.extra[key], ref.extra[key]) for key in r.extra), r.trial
    assert all(math.isfinite(r.lhs) for r in res.records)


def test_a_mixed_density_is_bitwise_the_reference_draw():
    # COMMUTATOR_LOWER's rho = G G^dagger / Tr[G G^dagger], G's real parts
    # drawn first, then its imaginary parts
    for n in (2, 5, 8):
        ref, rng = trial_stream(19, n), trial_stream(19, n)
        g = ref.standard_normal((n, n)) + 1j * ref.standard_normal((n, n))
        m = g @ g.conj().T
        assert _mixed_density(n, rng).tobytes() == (m / np.trace(m).real).tobytes()
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


def test_deff_product_draws_are_bitwise_the_reference_layout():
    # per trial one standard_normal(2 (d_SR + d_BR)) draw: psi_S's real parts,
    # its imaginary parts, then psi_B's; each trial's own generator is kept
    # to see where the block leaves it
    exp, seed, ks = EXPERIMENTS["DEFF_PRODUCT_MEAN"], 19, range(6, 11)
    params = ExperimentSpec("DEFF_PRODUCT_MEAN", seed=seed).params
    setup = exp.setup(params, stream(seed, SETUP_DOMAIN))
    d_sr, d_br = setup["d_sr"], setup["d_br"]
    used = []

    def own_streams():
        for k in ks:
            used.append(trial_stream(seed, k))
            yield used[-1]
    got = exp.block(setup, params, ks, own_streams())
    refs = [trial_stream(seed, k) for k in ks]
    x = np.array([ref.standard_normal(2 * (d_sr + d_br)) for ref in refs])
    a_s = x[:, :d_sr] + 1j * x[:, d_sr:2 * d_sr]
    a_b = x[:, 2 * d_sr:2 * d_sr + d_br] + 1j * x[:, 2 * d_sr + d_br:]
    a_s, a_b = (a / np.linalg.norm(a, axis=1, keepdims=True) for a in (a_s, a_b))
    psi = (a_s[:, :, None] * a_b[:, None, :]).reshape(len(x), d_sr * d_br)
    c = psi @ setup["eigenbasis"].conj()
    assert got == (1.0 / ((np.abs(c) ** 2) ** 2).sum(axis=1)).tolist()
    assert [repr(rng.bit_generator.state) for rng in used] == \
        [repr(ref.bit_generator.state) for ref in refs]


def test_mean_energy_coefficient_rows_are_each_streams_own_draw():
    rng = trial_stream(0, 21)
    h = sample_random_hamiltonian((16, 1), rng, spectrum=(1.0, 2.0))
    (one,) = mean_energy_coefficients(h.eigenvalues, 1.4, 1, trial_stream(5, 2))
    c = mean_energy_coefficients(h.eigenvalues, 1.4, 2, [trial_stream(5, 1), trial_stream(5, 2)])
    assert c.shape == (2, 16)
    assert np.array_equal(one, c[1])
    assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-14)
