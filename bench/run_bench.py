"""purestat benchmark driver.

    python3 bench/run_bench.py --workload suite|dense-256|trials-pool \
        --seed 7 --seconds 30 --trace 0|1

Runs from the root of a source checkout; purestat is imported from ./src.
Every repetition runs in a fresh interpreter (bench/rep.py) with
single-threaded BLAS.  With --trace 0 it reports the end-to-end metrics:

* wall_s: seconds from the start of the first experiment until the last CSV
  and manifest (and summary.csv) are written, median over repetitions;
* setup_s: seconds to import purestat and build the validated
  ExperimentSpecs, median over setup-only repetitions and the measured ones;
* peak_rss_mb: peak resident memory of a repetition, the larger of
  RUSAGE_SELF and RUSAGE_CHILDREN (pool workers), median over repetitions.

With --trace 1 it runs traced repetitions and reports the per-layer metrics
of bench/tracer.py instead.  Each experiment run counts as failed when it
raises, reports a non-vacuous violation, writes an unexpected number of
rows, or (trials-pool only) writes CSV bytes that differ from a 1-worker run
of the same inputs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_PINNING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 7
DEADLINE_S = 170.0   # the whole run, every child included, ends before this


class RunFailed(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    """Starts repetitions in fresh interpreters and collects their reports."""

    def __init__(self, workload, seed: int, run_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def rep(self, mode: str, workers: int) -> dict:
        """One repetition; raises RunFailed if the child fails or overruns."""
        self.count += 1
        out_dir = os.path.join(self.run_dir, f"rep{self.count}")
        result = os.path.join(self.run_dir, f"rep{self.count}.json")
        env = dict(os.environ, PURESTAT_WORKERS=str(workers), **THREAD_PINNING)
        cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--mode", mode, "--out", out_dir, "--result", result]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{mode} repetition overran the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise RunFailed(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result, encoding="utf-8") as fh:
            report = json.load(fh)
        report["elapsed_s"] = time.monotonic() - t0
        shutil.rmtree(out_dir, ignore_errors=True)
        return report


def _gate(reps: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every experiment run of every repetition."""
    attempted = failed = 0
    reasons = []
    for i, rep in enumerate(([reference] if reference else []) + reps):
        for experiment_id, outcome in rep["experiments"].items():
            attempted += 1
            why = list(outcome["failures"])
            if reference is not None and rep is not reference:
                want = reference["experiments"][experiment_id]["csv_sha256"]
                if outcome["csv_sha256"] != want:
                    why.append("CSV bytes differ from the 1-worker run")
            if why:
                failed += 1
                reasons.append(f"repetition {i}: {experiment_id}: {'; '.join(why)}")
    return attempted, failed, reasons


def _trace_metrics(reps: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced repetition, times as medians over all."""
    metrics, notes = {}, []
    for name in tracer.METRICS:
        values = [rep["trace"][name] for rep in reps]
        if tracer.metric_unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                notes.append(f"warning: {name} differs between traced repetitions: {values}")
    return metrics, notes


def _unreached(metrics: dict, pooled_workers: int) -> list[str]:
    notes = []
    for name in tracer.METRICS:
        if name.endswith(".calls") and metrics[name] == 0:
            why = ("not called in this workload's parent process; trial-side spans run in "
                   "forked pool workers, which this tracer does not reach"
                   if pooled_workers > 1 else "not called by this workload")
            notes.append(f"unreached: {name[:-len('.calls')]} ({why})")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="purestat benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "purestat", "__init__.py")):
        print(f"error: no purestat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workers = workloads.workers_for(workload)
    mode = "trace" if args.trace else "run"
    start = time.monotonic()
    runs_root = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs_root, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    runner = Runner(workload, args.seed, run_dir, start + DEADLINE_S)
    try:
        runner.rep("setup", workers)   # warm-up: bytecode compiled, files cached
        setup_samples = [] if args.trace else [runner.rep("setup", workers)["setup_s"]
                                               for _ in range(SETUP_REPS)]
        reference = runner.rep("run", 1) if workload.pooled and workers > 1 else None
        reps, t_measure = [], time.monotonic()
        while True:
            reps.append(runner.rep(mode, workers))
            typical = statistics.median(r["elapsed_s"] for r in reps)
            now = time.monotonic()
            if now - t_measure + typical > args.seconds or now + typical > runner.deadline:
                break
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(runs_root) and not os.listdir(runs_root):
            os.rmdir(runs_root)

    attempted, failed, reasons = _gate(reps, reference)
    environment = {"nproc": workloads.nproc(), "cpu_model": _cpu_model(),
                   **reps[0]["environment"], "git_commit": _git_commit()}
    environment["purestat_workers"] = {workload.name: workers,
                                       **({"reference": 1} if reference else {})}
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(f"workload {workload.name}: seed {args.seed}, {len(reps)} "
          f"{'traced ' if args.trace else ''}repetition(s) at {workers} worker(s)")
    wall = statistics.median(r["wall_s"] for r in reps)
    if args.trace:
        metrics, notes = _trace_metrics(reps)
        print(f"traced wall_s {wall!r} s (median of {len(reps)})")
        for name in tracer.METRICS:
            print(f"  {name} {metrics[name]!r} {tracer.metric_unit(name)}")
        per_experiment = {eid: statistics.median(r["experiments"][eid].get("wall_time_s", 0.0)
                                                 for r in reps)
                          for eid in reps[0]["experiments"]}
        for eid, seconds in per_experiment.items():
            print(f"  experiments.{eid}.wall_s {seconds!r} s")
        notes += _unreached(metrics, workers)
    else:
        setup_samples += [r["setup_s"] for r in reps]
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup_samples),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps)}
        counts = {"wall_s": len(reps), "setup_s": len(setup_samples),
                  "peak_rss_mb": len(reps)}
        for name, unit in END_TO_END.items():
            print(f"{name} {metrics[name]!r} {unit} (median of {counts[name]})")
        notes = []
    print(f"fail_frac {failed / attempted!r} ({failed} of {attempted} experiment runs failed)")
    for line in notes + reasons:
        print(line)
    units = END_TO_END if not args.trace else {n: tracer.metric_unit(n) for n in tracer.METRICS}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
