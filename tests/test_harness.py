"""Harness: config grammar, persistence, reproducibility, CLI surface."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from purestat import harness, sample_random_hamiltonian, trial_stream
from purestat.bounds import TrialRecord
from purestat.experiments import EXPERIMENTS, experiment_ids
from purestat.harness import (
    ExperimentSpec,
    parse_config,
    run_experiment,
    run_suite,
    summarize,
    worker_count,
)

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# the parameters that count something: each must declare its minimum
COUNT_KEYS = ("n_times", "n_samples", "crosscheck_times", "grid", "n_grid", "fd_checks")
# small enough that all 28 experiments run in a few seconds
REDUCED = {"trials": 3, "n_times": 16, "n_samples": 200, "crosscheck_trials": 1,
           "crosscheck_times": 16, "grid": 21, "n_grid": 21, "fd_checks": 2}


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "experiment = LEVY\n"
        "seed = 11\n"
        "n_samples = 500\n"
        "epsilon = 0.25\n"
        "dims = 2,32\n"
        "\n"
        "out = results\n",
        encoding="utf-8")
    parsed = parse_config(str(cfg))
    assert parsed["experiment"] == "LEVY"
    assert parsed["seed"] == 11
    assert parsed["n_samples"] == 500
    assert parsed["epsilon"] == 0.25
    assert parsed["dims"] == [2, 32]
    assert parsed["out"] == "results"


def test_parse_config_strips_inline_comments(tmp_path):
    # the config snippet of README.md, verbatim
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    line = next(l for l in text.splitlines() if l.startswith("experiment = "))
    assert "#" in line
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(line + "\nseed = 7  # trailing note\ndims = 2, 32 # list\n",
                   encoding="utf-8")
    parsed = parse_config(str(cfg))
    assert parsed == {"experiment": "SUBSYSTEM_EQUILIBRATION", "seed": 7, "dims": [2, 32]}
    ExperimentSpec(parsed["experiment"])  # a valid experiment id


def test_worker_count_is_clamped_to_cpus():
    assert worker_count({}, cpus=4) == 1
    assert worker_count({"PURESTAT_WORKERS": "3"}, cpus=4) == 3
    assert worker_count({"PURESTAT_WORKERS": "100000"}, cpus=4) == 4
    assert worker_count({"PURESTAT_WORKERS": "0"}, cpus=4) == 1
    assert worker_count({"PURESTAT_WORKERS": "100000"}) <= (os.cpu_count() or 1)


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected"):
        parse_config(str(bad))


@pytest.mark.parametrize("text, message", [
    ("n_samples = 100\nn_samples = 200\n", r"bad\.cfg:2: duplicate key 'n_samples'"),
    ("seed = 7\nn_samples =\n", r"bad\.cfg:2: empty key, value or list item"),
    ("= 5\n", r"bad\.cfg:1: empty key"),
    ("# note\n\ndims = 2,,32\n", r"bad\.cfg:3: empty key, value or list item"),
])
def test_parse_config_rejects_malformed_lines(tmp_path, text, message):
    # before, a duplicate key kept its last value and an empty value became ''
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        parse_config(str(bad))


def test_parameter_values_are_typed_before_compute():
    # before, "abc" raised only inside the trial and 2.5 trials ran and were hashed
    with pytest.raises(ValueError, match="LEVY: n_samples must be an integer, got 'abc'"):
        ExperimentSpec("LEVY", {"n_samples": "abc"})
    with pytest.raises(ValueError, match="LEVY: trials must be an integer, got 2.5"):
        ExperimentSpec("LEVY", {"trials": 2.5})
    with pytest.raises(ValueError, match="trials must be an integer, got True"):
        ExperimentSpec("LEVY", {"trials": True})
    for bad in ("0.3", False, None, [0.1, 0.2]):
        with pytest.raises(ValueError, match="LEVY: epsilon must be a number"):
            ExperimentSpec("LEVY", {"epsilon": bad})
    spec = ExperimentSpec("LEVY", {"epsilon": 1, "trials": np.int64(2), "d_r": 16})
    assert spec.params["epsilon"] == 1 and spec.params["trials"] == 2
    for experiment_id, exp in EXPERIMENTS.items():
        ExperimentSpec(experiment_id, dict(exp.defaults))


def test_spec_validation():
    with pytest.raises(ValueError, match="invalid experiment_id"):
        ExperimentSpec("NOT_AN_EXPERIMENT")
    with pytest.raises(ValueError, match="memory guard"):
        ExperimentSpec("DEFF_SUBSPACE_MEAN", {"d_r": 2048, "ambient": 4096})
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec("LEVY", {"trials": 0})


def test_a_fractional_seed_is_rejected_before_compute():
    # before, 2.5 ran on the streams of seed 2 while the manifest and spec_hash said 2.5
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got 2.5"):
        ExperimentSpec("COMMUTATOR_LOWER", {"trials": 2}, seed=2.5)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got True"):
        ExperimentSpec("COMMUTATOR_LOWER", {"trials": 2}, seed=True)
    spec = ExperimentSpec("COMMUTATOR_LOWER", seed=np.int64(2))
    assert type(spec.seed) is int and spec.spec_hash() == ExperimentSpec("COMMUTATOR_LOWER",
                                                                          seed=2).spec_hash()


def test_a_negative_seed_is_rejected_before_compute():
    # before, -1 built a spec and failed only inside setup
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ExperimentSpec("COMMUTATOR_LOWER", {"trials": 2}, seed=-1)
    with pytest.raises(ValueError, match="got -1"):
        run_suite(seed=-1)


def test_unknown_parameter_key_is_rejected():
    with pytest.raises(ValueError, match="unknown parameter.*trails.*known: d_r, "
                                         "epsilon, n_samples, trials"):
        ExperimentSpec("LEVY", {"trails": 3})


@pytest.mark.parametrize("experiment_id, params", [
    ("MC_VARIANCE_IDENTITY", {"d_r": 4096}),
    ("DEFF_SUBSPACE_MEAN", {"d_r": 2048}),             # ambient defaults to 2 d_r
    ("DEFF_PRODUCT_MEAN", {"d_sr": 64, "d_br": 64}),   # d = d_sr d_br
])
def test_dimension_guard_uses_each_experiments_dimension(experiment_id, params):
    with pytest.raises(ValueError, match="dimension 4096 exceeds the memory guard"):
        ExperimentSpec(experiment_id, params)


def test_zero_finite_difference_checks_are_rejected_before_compute():
    # before, SPEED wrote fd_max_rel_err = 0.0 and satisfied rows: nothing was checked
    for experiment_id in ("SPEED", "PURITY_RATE_AVG"):
        with pytest.raises(ValueError, match=f"{experiment_id}: fd_checks must be >= 1"):
            ExperimentSpec(experiment_id, {"trials": 2, "n_times": 50, "fd_checks": 0})
        ExperimentSpec(experiment_id, {"trials": 2, "n_times": 50, "fd_checks": 1})


def test_one_sample_time_average_is_rejected_before_compute():
    # before, SUBSYSTEM_EQUILIBRATION wrote stderr = nan next to satisfied = true
    with pytest.raises(ValueError, match="SUBSYSTEM_EQUILIBRATION: n_times must be >= 2"):
        ExperimentSpec("SUBSYSTEM_EQUILIBRATION", {"n_times": 1})
    ExperimentSpec("SUBSYSTEM_EQUILIBRATION", {"n_times": 2})


@pytest.mark.parametrize("experiment_id, key", [
    # before: zero instants checked, yet satisfied and non-vacuous rows
    ("EQ_TIME_PURITY", "grid"),
    # before: a zero-size max raised only after the compute had run
    ("EINSELECTION_DEMO", "grid"),
    # before: a trajectory CSV with only its header
    ("DISTANCE_TRAJECTORY", "n_grid"),
])
def test_one_point_grid_is_rejected_before_compute(experiment_id, key):
    with pytest.raises(ValueError, match=f"{experiment_id}: {key} must be >= 2"):
        ExperimentSpec(experiment_id, {key: 1})
    ExperimentSpec(experiment_id, {key: 2})


def test_late_window_past_the_grid_is_rejected_before_compute():
    # before, the run took the mean of an empty slice and wrote a NaN violation row
    with pytest.raises(ValueError, match="EINSELECTION_DEMO: late_window_start must be < t_max"):
        ExperimentSpec("EINSELECTION_DEMO", {"t_max": 50.0})
    with pytest.raises(ValueError, match="late_window_start must be < t_max"):
        ExperimentSpec("EINSELECTION_DEMO", {"t_max": 100.0})
    ExperimentSpec("EINSELECTION_DEMO", {"t_max": 50.0, "late_window_start": 25.0})
    for experiment_id, exp in EXPERIMENTS.items():
        for key, high in exp.below.items():
            assert {key, high} <= set(exp.defaults), experiment_id
            ExperimentSpec(experiment_id)


def test_every_declared_minimum_is_enforced():
    declared = {(e, key) for e, exp in EXPERIMENTS.items() for key in exp.minimums}
    # every count under a std(ddof=1) or a finite-difference check declares one
    assert declared >= {(e, "n_times") for e in (
        "EXPECTATION_EQUILIBRATION", "SUBSYSTEM_EQUILIBRATION", "SPEED", "PURITY_RATE_AVG",
        "ISI", "DISTANCE_TRAJECTORY")} | {(e, "trials") for e in (
        "DEFF_SUBSPACE_MEAN", "DEFF_PRODUCT_MEAN", "DEFF_MEAN_ENERGY", "ERGODICITY",
        "ISI_LINDEN_DELTA")} | {("MC_VARIANCE_IDENTITY", "n_samples"),
                                ("MC_CONCENTRATION", "n_samples"),
                                ("SPEED", "fd_checks"), ("PURITY_RATE_AVG", "fd_checks")}
    # one below each of these failed only after compute, or passed a check:
    assert declared >= {
        # a satisfied row with lhs 0.0, from no sampled time at all
        ("DECOHERENCE", "n_times"),
        # raised inside the trial
        ("PURITY_RATE_INSTANT", "n_times"), ("PURITY_EQUILIBRATION", "n_times"),
        # NaN rows after a RuntimeWarning
        ("SECOND_LAW_DEMO", "n_times"), ("EINSELECTION_DEMO", "n_times"),
        ("ERGODICITY", "crosscheck_times"),
        # "need at least one array to concatenate"
        ("COARSE_GRAINED", "n_samples"), ("MC_VARIANCE_CONCENTRATION", "n_samples"),
        ("CANONICAL_REDUCTION", "n_samples"), ("LEVY", "n_samples"),
        # ZeroDivisionError from an energy window of a single level
        ("EQ_TIME_HEISENBERG", "d")} | {
        # rank_b = -1 built a rank d_r - 1 projector and judged it against the
        # negative mean -1/d_r
        (e, "rank_b") for e in (
            "MC_VARIANCE_IDENTITY", "MC_CONCENTRATION", "MC_VARIANCE_CONCENTRATION")}
    for experiment_id, key in declared:
        low = EXPERIMENTS[experiment_id].minimums[key]
        assert key in EXPERIMENTS[experiment_id].defaults
        with pytest.raises(ValueError, match=f"{key} must be >= {low}"):
            ExperimentSpec(experiment_id, {key: low - 1})
        assert ExperimentSpec(experiment_id, {key: low}).params[key] == low


# a subspace larger than its space: each case ran setup compute and then
# wrote a vacuous row (MC_CONCENTRATION), reported a false violation
# (MC_VARIANCE_IDENTITY) or failed with a numpy error
OVERSIZED_SUBSPACES = [
    ("MC_CONCENTRATION", {"rank_b": 40, "d_r": 32}, "rank_b = 40", 32),
    ("MC_VARIANCE_IDENTITY", {"rank_b": 64}, "rank_b = 64", 32),
    ("CANONICAL_REDUCTION", {"d_r": 128}, "d_r = 128", 64),
    ("COARSE_GRAINED", {"d_r": 128}, "d_r = 128", 64),
    ("DEFF_SUBSPACE_MEAN", {"ambient": 32}, "d_r = 64", 32),
    ("ERGODICITY", {"d_r": 200}, "d_r = 200", 128),
    ("ISI_LINDEN_DELTA", {"d_r": 100}, "d_r = 100", 64),
]


@pytest.mark.parametrize("experiment_id, params, named, dim", OVERSIZED_SUBSPACES,
                         ids=[case[0] for case in OVERSIZED_SUBSPACES])
def test_a_subspace_larger_than_its_space_is_rejected_before_setup(
        monkeypatch, experiment_id, params, named, dim):
    exp = EXPERIMENTS[experiment_id]
    setups = []
    monkeypatch.setitem(EXPERIMENTS, experiment_id, dataclasses.replace(
        exp, setup=lambda *args: setups.append(args)))
    with pytest.raises(ValueError, match=f"{named} exceeds the dimension {dim}$"):
        run_experiment(ExperimentSpec(experiment_id, params))
    assert setups == []


def test_every_subspace_parameter_may_fill_its_space():
    declared = {e: exp.subspace for e, exp in EXPERIMENTS.items() if exp.subspace}
    assert declared == {e: "rank_b" for e in (
        "MC_VARIANCE_IDENTITY", "MC_CONCENTRATION", "MC_VARIANCE_CONCENTRATION")} | {
        e: "d_r" for e in ("COARSE_GRAINED", "CANONICAL_REDUCTION", "DEFF_SUBSPACE_MEAN",
                           "DEFF_SUBSPACE_TAIL", "ERGODICITY", "ISI_LINDEN_DELTA")}
    for experiment_id, key in declared.items():
        dim = EXPERIMENTS[experiment_id].dimension(ExperimentSpec(experiment_id).params)
        assert ExperimentSpec(experiment_id, {key: dim}).params[key] == dim
    # an auto-sized bath (ambient = 0, twice d_r) holds any d_r
    assert ExperimentSpec("DEFF_SUBSPACE_MEAN", {"d_r": 512, "ambient": 0})


def test_every_count_declares_a_minimum():
    for experiment_id, exp in EXPERIMENTS.items():
        for key in set(COUNT_KEYS) & set(exp.defaults):
            assert key in exp.minimums, (experiment_id, key)


class _RecordingParams(dict):
    """A params dict that records every key looked up in it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_declared_parameter_is_read(tmp_path, monkeypatch):
    # a parameter nothing reads is accepted, enters spec_hash and changes nothing
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    for experiment_id, exp in EXPERIMENTS.items():
        spec = ExperimentSpec(experiment_id, {k: v for k, v in REDUCED.items()
                                              if k in exp.defaults}, seed=5,
                              out_dir=str(tmp_path))
        spec.params = _RecordingParams(spec.params)
        run_experiment(spec)
        assert spec.params.read == set(exp.defaults), \
            (experiment_id, sorted(set(exp.defaults) - spec.params.read))


def test_every_experiment_declares_a_dimension():
    for experiment_id, exp in EXPERIMENTS.items():
        assert 1 <= exp.dimension(exp.defaults) <= harness.MAX_DIMENSION, experiment_id


def test_every_config_builds():
    names = sorted(f for f in os.listdir(CONFIGS) if f.endswith(".cfg"))
    assert names
    for name in names:
        cfg = parse_config(os.path.join(CONFIGS, name))
        cfg.pop("seed", None)
        experiment = cfg.pop("experiment")
        if experiment == "ALL":
            assert not cfg
        else:
            ExperimentSpec(experiment, cfg)


def test_suite_overrides_apply_only_where_declared(monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", lambda spec: spec)
    specs = run_suite(seed=3, overrides={"d_b": 16, "n_samples": 500})
    assert [s.experiment_id for s in specs] == experiment_ids()
    for spec in specs:
        defaults = EXPERIMENTS[spec.experiment_id].defaults
        assert set(spec.params) == set(defaults)
        if "d_b" in defaults:
            assert spec.params["d_b"] == 16
        if "n_samples" in defaults:
            assert spec.params["n_samples"] == 500
    with pytest.raises(ValueError, match="unknown parameter.*trails"):
        run_suite(overrides={"trails": 3})


def test_defaults_are_merged():
    spec = ExperimentSpec("LEVY", {"epsilon": 0.3})
    assert spec.params["epsilon"] == 0.3
    assert spec.params["n_samples"] == EXPERIMENTS["LEVY"].defaults["n_samples"]


def test_run_persists_and_reruns_identically(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    spec1 = ExperimentSpec("COMMUTATOR_LOWER", {"trials": 20}, seed=5, out_dir=str(out1))
    spec2 = ExperimentSpec("COMMUTATOR_LOWER", {"trials": 20}, seed=5, out_dir=str(out2))
    r1, r2 = run_experiment(spec1), run_experiment(spec2)
    csv1 = (out1 / "COMMUTATOR_LOWER.csv").read_bytes()
    csv2 = (out2 / "COMMUTATOR_LOWER.csv").read_bytes()
    assert csv1 == csv2
    assert r1.manifest["manifest_hash"] == r2.manifest["manifest_hash"]
    assert r1.manifest["spec_hash"] == r2.manifest["spec_hash"]
    man = json.loads((out1 / "COMMUTATOR_LOWER_manifest.json").read_text())
    assert man["seed"] == 5 and man["experiment_id"] == "COMMUTATOR_LOWER"


def test_different_seed_changes_results(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(ExperimentSpec("COMMUTATOR_LOWER", {"trials": 10}, seed=5,
                                  out_dir=str(out1)))
    run_experiment(ExperimentSpec("COMMUTATOR_LOWER", {"trials": 10}, seed=6,
                                  out_dir=str(out2)))
    assert (out1 / "COMMUTATOR_LOWER.csv").read_bytes() \
        != (out2 / "COMMUTATOR_LOWER.csv").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    """Byte-identical CSVs under 1 worker and N workers (fresh processes)."""
    outs = {}
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        code = (
            "from purestat.harness import ExperimentSpec, run_experiment;"
            f"run_experiment(ExperimentSpec('DEFF_SUBSPACE_MEAN', {{'d_r': 16, "
            f"'trials': 64}}, seed=9, out_dir={str(out)!r}))")
        env = dict(os.environ, PURESTAT_WORKERS=workers)
        subprocess.run([sys.executable, "-c", code], check=True, env=env,
                       capture_output=True)
        outs[workers] = (out / "DEFF_SUBSPACE_MEAN.csv").read_bytes()
    assert outs["1"] == outs["3"]


def test_demo_rows_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    """SECOND_LAW_DEMO emits three rows per trial; pooled rows keep trial order."""
    outs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("PURESTAT_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        res = run_experiment(ExperimentSpec("SECOND_LAW_DEMO", {"trials": 3}, seed=9,
                                            out_dir=str(out)))
        assert [r.trial for r in res.records] == list(range(9))
        outs[workers] = (out / "SECOND_LAW_DEMO.csv").read_bytes()
    assert outs["1"] == outs["2"]


def _two_workers_running(monkeypatch, trial):
    """COMMUTATOR_LOWER with `trial` as its hook, run in 8 one-trial chunks
    on two workers: this process runs the even trials, a child the odd ones."""
    monkeypatch.setattr(harness, "worker_count", lambda: 2)
    monkeypatch.setitem(EXPERIMENTS, "COMMUTATOR_LOWER", dataclasses.replace(
        EXPERIMENTS["COMMUTATOR_LOWER"], trial=trial, block=None))
    return ExperimentSpec("COMMUTATOR_LOWER", {"trials": 8})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_childs_error_is_raised_here_with_its_traceback(monkeypatch):
    parent = os.getpid()

    def trial(setup, params, seed, k):
        if os.getpid() != parent:
            raise ValueError(f"trial {k} failed in a child")
        return TrialRecord(0.0, 0.0, 1.0, True, False)

    spec = _two_workers_running(monkeypatch, trial)
    with pytest.raises(ValueError, match="^trial 1 failed in a child$") as info:
        run_experiment(spec)
    assert "Traceback" in str(info.value.__cause__)
    assert "trial 1 failed in a child" in str(info.value.__cause__)
    _assert_no_child_left()


def test_a_failing_parent_share_kills_and_reaps_the_child(monkeypatch):
    parent = os.getpid()

    def trial(setup, params, seed, k):
        if os.getpid() == parent:
            raise ValueError("the parent's share failed")
        time.sleep(60)

    spec = _two_workers_running(monkeypatch, trial)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="the parent's share failed"):
        run_experiment(spec)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_a_child_that_exits_without_a_result_names_its_status(monkeypatch):
    parent = os.getpid()

    def trial(setup, params, seed, k):
        if os.getpid() != parent:
            os._exit(3)
        return TrialRecord(0.0, 0.0, 1.0, True, False)

    spec = _two_workers_running(monkeypatch, trial)
    with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
        run_experiment(spec)
    _assert_no_child_left()


def test_rows_from_two_workers_keep_trial_order(monkeypatch):
    parent = os.getpid()

    def trial(setup, params, seed, k):
        return TrialRecord(float(k), 0.0, 1.0, True, False, {"child": os.getpid() != parent})

    res = run_experiment(_two_workers_running(monkeypatch, trial))
    assert res.records.lhs.tolist() == list(range(8))
    assert res.records.extras["child"] == [k % 2 == 1 for k in range(8)]
    _assert_no_child_left()


SUBSPACE_SIZED = [e for e, exp in EXPERIMENTS.items() if "d_r" in exp.defaults]


@pytest.mark.parametrize("experiment_id", SUBSPACE_SIZED)
def test_an_empty_subspace_is_rejected_before_setup(monkeypatch, experiment_id):
    # d_r = 0 raised a numpy error or ZeroDivisionError only after setup
    setups = []
    monkeypatch.setitem(EXPERIMENTS, experiment_id, dataclasses.replace(
        EXPERIMENTS[experiment_id], setup=lambda *args: setups.append(args)))
    with pytest.raises(ValueError, match="d_r must be >= 1, got 0"):
        run_experiment(ExperimentSpec(experiment_id, {"d_r": 0}))
    assert setups == []
    assert len(SUBSPACE_SIZED) == 10


def test_setup_runs_once_per_run(monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    exp = EXPERIMENTS["ISI_LINDEN_DELTA"]
    calls = []

    def counting_setup(params, seed):
        calls.append(seed)
        return exp.setup(params, seed)

    monkeypatch.setitem(EXPERIMENTS, "ISI_LINDEN_DELTA",
                        dataclasses.replace(exp, setup=counting_setup))
    spec = ExperimentSpec("ISI_LINDEN_DELTA", {"trials": 4}, seed=3)
    first, second = run_experiment(spec), run_experiment(spec)
    assert calls == [3, 3]  # no setup survives from one run to the next
    assert first.manifest["manifest_hash"] == second.manifest["manifest_hash"]


def test_manifest_file_is_the_returned_manifest(tmp_path):
    res = run_experiment(ExperimentSpec("LEVY", {"n_samples": 500}, seed=3,
                                        out_dir=str(tmp_path)))
    text = (tmp_path / "LEVY_manifest.json").read_text(encoding="utf-8")
    assert text == json.dumps(res.manifest, sort_keys=True, default=repr) + "\n"
    assert res.manifest["files"] == res.files


def test_manifest_hash_covers_the_manifest_without_its_unhashed_keys(tmp_path):
    run_experiment(ExperimentSpec("DEFF_SUBSPACE_TAIL", {"trials": 300}, seed=3,
                                  out_dir=str(tmp_path)))
    with open(tmp_path / "DEFF_SUBSPACE_TAIL_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    want = manifest.pop("manifest_hash")
    for key in ("wall_time_s", "files"):
        del manifest[key]
    payload = json.dumps(manifest, sort_keys=True, default=repr).encode()
    assert hashlib.sha256(payload).hexdigest() == want


def test_eq_time_heisenberg_closed_form_matches_dense_route():
    # (1/2)||[H, rho_t]||_1 from eigvalsh at sampled times vs the trial's Delta H
    params = EXPERIMENTS["EQ_TIME_HEISENBERG"].defaults
    d = int(params["d"])
    for k in range(3):
        rec = EXPERIMENTS["EQ_TIME_HEISENBERG"].trial(None, params, 7, k)
        rng = trial_stream(7, k)
        h = sample_random_hamiltonian((d, 1), rng)
        e_band = h.eigenvalues[d // 4:3 * d // 4]
        # the one-shot Haar draw, written out as the independent oracle
        z = rng.standard_normal((1, len(e_band))) + 1j * rng.standard_normal((1, len(e_band)))
        a = (z / np.linalg.norm(z, axis=1, keepdims=True))[0]
        for t in rng.uniform(0.0, 1e4, 5):
            ct = a * np.exp(-1j * e_band * t)
            m = 1j * (e_band[:, None] - e_band[None, :]) * np.outer(ct, ct.conj())
            assert abs(0.5 * np.abs(np.linalg.eigvalsh(m)).sum() - rec.lhs) <= 1e-12
        assert rec.satisfied and rec.lhs <= rec.rhs


def test_csv_schema(tmp_path):
    out = tmp_path / "r"
    run_experiment(ExperimentSpec("LEVY", {"n_samples": 500}, seed=3, out_dir=str(out)))
    lines = (out / "LEVY.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "experiment_id,trial,lhs,stderr,rhs,satisfied,vacuous"
    first = lines[1].split(",")
    assert first[0] == "LEVY" and first[1] == "0"
    assert first[5] in ("true", "false") and first[6] in ("true", "false")


def test_csv_bytes_are_the_csv_module_bytes(tmp_path):
    values = [math.nan, math.inf, -math.inf, 1e-300, -0.0, 0.1, 12345.678, 5e-324]
    records = [TrialRecord(lhs, values[(i + 3) % 8], values[(i + 5) % 8], sat, vac, trial=i)
               for i, (lhs, sat, vac) in enumerate(
                   zip(values, [True, False, np.bool_(True), np.bool_(False)] * 2,
                       [False, True] * 4))]
    path = tmp_path / "rows.csv"
    harness._write_csv(str(path), "LEVY", harness._store(records))
    ref = io.StringIO(newline="")
    w = csv.writer(ref, lineterminator="\n")
    w.writerow(harness.CSV_COLUMNS)
    for r in records:
        w.writerow(["LEVY", r.trial, repr(float(r.lhs)), repr(float(r.stderr)),
                    repr(float(r.rhs)), str(bool(r.satisfied)).lower(),
                    str(bool(r.vacuous)).lower()])
    assert path.read_bytes() == ref.getvalue().encode("utf-8")
    harness._write_csv(str(path), "LEVY", harness._store([]))
    assert path.read_bytes() == b"experiment_id,trial,lhs,stderr,rhs,satisfied,vacuous\n"


def test_summarize_directory_and_missing(tmp_path):
    out = tmp_path / "r"
    run_experiment(ExperimentSpec("LEVY", {"n_samples": 500}, seed=3, out_dir=str(out)))
    run_experiment(ExperimentSpec("COMMUTATOR_LOWER", {"trials": 5}, seed=3,
                                  out_dir=str(out)))
    run_experiment(ExperimentSpec("ENTANGLED_EIGS_TAIL", {"trials": 2}, seed=3,
                                  out_dir=str(out)))
    rows = summarize(str(out))
    assert len(rows) == 3  # one summary row per experiment
    assert {r["experiment_id"] for r in rows} \
        == {"LEVY", "COMMUTATOR_LOWER", "ENTANGLED_EIGS_TAIL"}
    assert all("violations" in r for r in rows)
    assert (out / "summary.csv").exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="missing result files"):
        summarize(str(empty))


def test_eq_time_purity_without_crossing_is_not_a_pass():
    # t_max far below the ODE lower bound: purity cannot reach p_eq on the grid
    res = run_experiment(ExperimentSpec("EQ_TIME_PURITY", {
        "trials": 3, "t_max_over_coupling": 0.01, "grid": 50}, seed=7))
    for r in res.records:
        assert not r.extra["crossed"]
        assert math.isfinite(r.lhs) and r.lhs < r.rhs
        assert not r.satisfied and r.vacuous
    assert res.violations == 0 and res.summary["vacuous_rows"] == 3


def test_experiment_ids_cover_demos():
    ids = experiment_ids()
    for required in ("EINSELECTION_DEMO", "SECOND_LAW_DEMO", "DISTANCE_TRAJECTORY"):
        assert required in ids


def _cli(*args, env=None):
    cmd = [sys.executable, "-m", "purestat.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, **(env or {})))


def test_cli_list():
    res = _cli("list")
    assert res.returncode == 0
    assert "MC_VARIANCE_IDENTITY" in res.stdout
    assert "LEVY" in res.stdout
    assert "1/(9 pi^3)" in res.stdout


def test_cli_run_and_report(tmp_path):
    cfg = tmp_path / "levy.cfg"
    cfg.write_text("experiment = LEVY\nn_samples = 500\nseed = 4\n", encoding="utf-8")
    out = tmp_path / "results"
    res = _cli("run", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "LEVY.csv").exists()
    rep = _cli("report", "--in", str(out))
    assert rep.returncode == 0, rep.stderr
    assert "LEVY" in rep.stdout
    assert "total non-vacuous violations: 0" in rep.stdout


def test_cli_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = COMMUTATOR_LOWER\ntrials = 5\nseed = 4\n",
                   encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _cli("run", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert _cli("run", "--config", str(cfg), "--out", str(out2),
                "--seed", "99").returncode == 0
    assert (out1 / "COMMUTATOR_LOWER.csv").read_bytes() \
        != (out2 / "COMMUTATOR_LOWER.csv").read_bytes()


def test_cli_rejects_a_fractional_config_seed(tmp_path):
    # before, int() ran seed = 7.9 as seed 7
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = COMMUTATOR_LOWER\ntrials = 5\nseed = 7.9\n", encoding="utf-8")
    res = _cli("run", "--config", str(cfg), "--out", str(tmp_path / "r"))
    assert res.returncode != 0
    assert "seed must be a non-negative integer, got 7.9" in res.stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("experiment", ["COMMUTATOR_LOWER", "ALL"])
def test_cli_rejects_a_non_path_out_before_any_trial(tmp_path, monkeypatch, experiment):
    # out = 5 ran every trial and then raised TypeError from os.makedirs
    from purestat import cli

    def compute(*args, **kwargs):
        raise AssertionError("an experiment ran")
    monkeypatch.setattr(cli, "run_experiment", compute)
    monkeypatch.setattr(harness, "run_experiment", compute)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"experiment = {experiment}\ntrials = 2\nout = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out_dir must be a path, got 5"):
        cli.main(["run", "--config", str(cfg)])
    for ok in (None, "r", tmp_path / "r"):
        assert ExperimentSpec("LEVY", out_dir=ok).out_dir == ok


def test_report_leaves_the_run_summary_unchanged(tmp_path):
    # registry order SPEED, COMMUTATOR_LOWER, ENTANGLED_EIGS_TAIL; report used to
    # rewrite summary.csv in file-name order
    out = tmp_path / "r"
    results = [run_experiment(ExperimentSpec(eid, params, seed=3, out_dir=str(out)))
               for eid, params in (("SPEED", {"trials": 1, "n_times": 20, "fd_checks": 1}),
                                   ("COMMUTATOR_LOWER", {"trials": 3}),
                                   ("ENTANGLED_EIGS_TAIL", {"trials": 2}))]
    summarize(results)
    written = (out / "summary.csv").read_bytes()
    assert _cli("report", "--in", str(out)).returncode == 0
    assert (out / "summary.csv").read_bytes() == written
    order = ["SPEED", "COMMUTATOR_LOWER", "ENTANGLED_EIGS_TAIL"]
    assert [r["experiment_id"] for r in summarize(results[::-1])] == order


def test_trajectory_artifact_schema(tmp_path):
    out = tmp_path / "r"
    run_experiment(ExperimentSpec("DISTANCE_TRAJECTORY", {"n_times": 200, "n_grid": 50},
                                  seed=7, out_dir=str(out)))
    lines = (out / "DISTANCE_TRAJECTORY_trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,distance,bound"
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b > a for a, b in zip(ts, ts[1:]))  # monotone time column
