"""Tests of the benchmark's tracer and workload definitions.

    python3 -m pytest bench/test_bench.py

They are not part of the library's test suite (pyproject's testpaths is
tests/), and take about 20 s: three repetitions of trials-pool at 1 worker.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run_bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > mid [1, 7] > leaf [2, 5]; then a sibling leaf [8, 9] under outer
    ticks = iter([0.0, 1.0, 2.0, 5.0, 7.0, 8.0, 9.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("x.leaf", lambda: None)
    mid = t.wrap("x.mid", leaf)

    def body():
        mid()
        leaf()

    t.wrap("x.outer", body)()
    assert dict(t.calls) == {"x.outer": 1, "x.mid": 1, "x.leaf": 2}
    assert t.self_s["x.leaf"] == 3.0 + 1.0
    assert t.self_s["x.mid"] == 6.0 - 3.0
    assert t.self_s["x.outer"] == 10.0 - 6.0 - 1.0
    assert sum(t.self_s.values()) == 10.0


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        t.wrap("x.boom", boom)()
    assert t.calls["x.boom"] == 1 and not t._stack


def _snapshot():
    import numpy.linalg
    from purestat.experiments import EXPERIMENTS

    snap = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "purestat" or name.startswith("purestat.")):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    snap[(name, attr, "__init__")] = vars(value).get("__init__")
    for fn in tracer.LAPACK:
        snap[("numpy.linalg", fn)] = getattr(numpy.linalg, fn)
    for experiment_id, exp in EXPERIMENTS.items():
        snap[("EXPERIMENTS", experiment_id)] = exp
    return snap


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    from purestat import harness

    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.find_wrappers()
        harness.run_experiment(harness.ExperimentSpec(
            "COMMUTATOR_LOWER", {"trials": 5}, seed=3, out_dir=str(tmp_path)))
    finally:
        t.uninstall()
    assert tracer.find_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert t.calls["harness.run_experiment"] == 1
    assert t.calls["experiments.trial"] == 5
    assert t.calls["bounds.max_pairing_offdiagonal_sum"] == 5
    assert t.calls["lapack.eigvalsh"] > 0


def test_workloads_pass_only_registered_parameters():
    for workload in workloads.WORKLOADS.values():
        workloads.check_params(workload)
    bad = workloads.Workload("bad", (("SPEED", {"trails": 3}),))
    with pytest.raises(ValueError, match="trails"):
        workloads.check_params(bad)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: tracer.metric_unit(n) for n in tracer.METRICS}


def _rep(tmp_path, mode: str, tag: str) -> dict:
    result = tmp_path / f"{tag}.json"
    env = dict(os.environ, PURESTAT_WORKERS="1", **run_bench.THREAD_PINNING)
    subprocess.run([sys.executable, os.path.join(HERE, "rep.py"), "--workload", "trials-pool",
                    "--seed", "3", "--mode", mode, "--out", str(tmp_path / tag),
                    "--result", str(result)], env=env, check=True, timeout=300)
    return json.loads(result.read_text())


def test_tracing_changes_no_csv_byte_and_counts_repeat(tmp_path):
    plain = _rep(tmp_path, "run", "plain")
    traced = [_rep(tmp_path, "trace", f"traced{i}") for i in range(2)]
    for rep in [plain] + traced:
        assert all(not o["failures"] for o in rep["experiments"].values())
    digests = {eid: o["csv_sha256"] for eid, o in plain["experiments"].items()}
    for rep in traced:
        assert {eid: o["csv_sha256"] for eid, o in rep["experiments"].items()} == digests
    counts = [{n: v for n, v in rep["trace"].items() if tracer.metric_unit(n) != "s"}
              for rep in traced]
    assert counts[0] == counts[1]
    from purestat.experiments import EXPERIMENTS

    assert counts[0]["experiments.trial.calls"] == sum(
        EXPERIMENTS[eid].defaults["trials"]
        for eid, _ in workloads.WORKLOADS["trials-pool"].experiments)
    assert counts[0]["harness.rows_written"] > 0 and counts[0]["harness.bytes_written"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
