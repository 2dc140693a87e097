"""Trial rows as columns: what the trial hooks return survives storage
unchanged, extras stay row-aligned across pool chunks, and a result holds no
Python object per trial."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest

from purestat import SETUP_DOMAIN, experiments, harness, stream
from purestat.bounds import TrialRecord
from purestat.experiments import EXPERIMENTS
from purestat.harness import ExperimentSpec, run_experiment


def _returned(spec):
    """What the trial hooks return for spec, one TrialRecord per row, in order."""
    exp = EXPERIMENTS[spec.experiment_id]
    setup = exp.setup(spec.params, stream(spec.seed, SETUP_DOMAIN)) if exp.setup else None
    rows = []
    for rec in harness._trial_records(exp, setup, spec.params, spec.seed, 0,
                                      spec.params["trials"]):
        rows += [rec] if isinstance(rec, TrialRecord) else rec
    return rows


def _assert_same_rows(records, returned):
    assert len(records) == len(returned)
    for i, want in enumerate(returned):
        got = records[i]
        assert got.trial == i
        assert (struct.pack("<3d", got.lhs, got.stderr, got.rhs)
                == struct.pack("<3d", want.lhs, want.stderr, want.rhs)), i
        assert (got.satisfied, got.vacuous) == (want.satisfied, want.vacuous), i
        assert got.extra == want.extra, i
        assert ({k: type(v) for k, v in got.extra.items()}
                == {k: type(v) for k, v in want.extra.items()}), i


# each case: its parameters, and what its extras exercise
CASES = {
    "ERGODICITY": ({}, lambda rows: len(rows) == 2000 and sum(bool(r.extra) for r in rows) == 3),
    "EINSELECTION_DEMO": ({"trials": 2}, lambda rows: len(rows) == 12 and {
        type(v) for r in rows for v in r.extra.values()} >= {str, np.float64}),
    "SECOND_LAW_DEMO": ({"trials": 2}, lambda rows: len({frozenset(r.extra) for r in rows}) == 3),
    "EQ_TIME_PURITY": ({"trials": 2}, lambda rows: all(type(r.extra["crossed"]) is bool
                                                        for r in rows)),
    "COMMUTATOR_LOWER": ({"trials": 50}, lambda rows: all(type(r.extra["dim"]) is int
                                                           for r in rows)),
}


@pytest.mark.parametrize("experiment_id", CASES)
def test_records_are_what_the_trial_hooks_returned(experiment_id, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    params, covers = CASES[experiment_id]
    spec = ExperimentSpec(experiment_id, params, seed=5)
    res = run_experiment(spec)
    returned = _returned(spec)
    assert covers(returned)
    _assert_same_rows(res.records, returned)
    assert res.manifest["extras"] is res.records.extras


def test_extras_stay_row_aligned_across_pool_chunks(monkeypatch):
    # cross-checks on trials 0..299: chunk [0, 256) has them on every row,
    # [256, 512) on its first 44 rows and [512, 600) on none
    monkeypatch.setenv("PURESTAT_WORKERS", "2")
    monkeypatch.setattr(experiments, "CROSSCHECK_TRIALS", 300)
    monkeypatch.setattr(experiments, "CROSSCHECK_TIMES", 50)
    spec = ExperimentSpec("ERGODICITY", {"trials": 600}, seed=5)
    res = run_experiment(spec)
    _assert_same_rows(res.records, _returned(spec))
    column = res.records.extras["crosscheck_err"]
    assert len(column) == 600 and column.count(None) == 300


def test_an_extra_of_none_raises_when_the_row_is_stored():
    rows = [TrialRecord(1.0, 0.0, 2.0, True, False, {"a": 1}),
            TrialRecord(1.0, 0.0, 2.0, True, False, {"a": None})]
    with pytest.raises(ValueError, match="'a' of a row is None"):
        harness._store(rows)


def test_rows_are_a_read_only_sequence():
    rows = harness._store([TrialRecord(float(i), 0.0, 2.0, i % 2 == 0, False,
                                       {"k": i} if i == 1 else {}) for i in range(3)])
    assert [r.lhs for r in rows] == [0.0, 1.0, 2.0] and rows[-1].trial == 2
    assert [r.extra for r in rows] == [{}, {"k": 1}, {}] and rows.extras == {"k": [None, 1, None]}
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(ValueError, match="read-only"):
        rows.lhs[0] = 5.0


def test_mean_energy_result_holds_no_python_object_per_trial(monkeypatch):
    # 20 000 rows: a TrialRecord and an extras dict per row held 7.9 MiB
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    spec = ExperimentSpec("DEFF_MEAN_ENERGY", seed=7)
    assert spec.params["trials"] == 20_000
    tracemalloc.start()
    try:
        res = run_experiment(spec)
        gc.collect()
        with_result = tracemalloc.get_traced_memory()[0]
        del res
        gc.collect()
        held = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20, f"{held / 2**20:.2f} MiB"
