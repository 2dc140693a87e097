"""One benchmark repetition, run in a fresh interpreter by run_bench.py.

    python3 bench/rep.py --workload NAME --seed N --mode setup|run|trace \
        --out DIR --result FILE

`setup` times importing purestat and building the workload's validated
ExperimentSpecs, then stops.  `run` also runs every experiment, writes the
CSVs, manifests and summary.csv into DIR, and checks them.  `trace` is `run`
with the per-layer tracer installed.  The result is written as JSON to FILE.
The worker count comes from PURESTAT_WORKERS, as for the purestat CLI.

A fresh interpreter per repetition matters: the harness keeps every setup
object in a module-level cache for the life of the process, so a repeat in
the same process would skip setup and read faster.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402  (stdlib only; purestat is imported inside the timed setup)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _csv_rows(data: bytes) -> int:
    return max(0, data.count(b"\n") - 1)


def _check(spec, result) -> tuple[list[str], dict]:
    """Failures of one experiment's outputs, and the digests of its CSVs."""
    failures = []
    if result.violations:
        failures.append(f"{result.violations} non-vacuous violation(s)")
    want = workloads.expected_rows(spec)
    if result.summary["rows"] != want:
        failures.append(f"{result.summary['rows']} rows, expected {want}")
    digests = {}
    for kind, path in sorted(result.files.items()):
        if not os.path.isfile(path):
            failures.append(f"{kind} file {path} was not written")
            continue
        if path.endswith(".csv"):
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
            if kind == "csv" and _csv_rows(data) != want:
                failures.append(f"CSV has {_csv_rows(data)} rows, expected {want}")
    for kind in ("csv", "manifest"):
        if kind not in result.files:
            failures.append(f"no {kind} written")
    return failures, digests


def _environment(workers: int) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas,
            "thread_pinning": {v: os.environ.get(v) for v in THREAD_VARS},
            "purestat_workers": workers}


def _written(out_dir: str, experiment_ids) -> tuple[int, int]:
    """Data rows and bytes of the CSVs the harness writes (per experiment + summary)."""
    rows = size = 0
    for name in [f"{eid}.csv" for eid in experiment_ids] + ["summary.csv"]:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
            rows += _csv_rows(data)
            size += len(data)
    return rows, size


def run(workload_name: str, seed: int, mode: str, out_dir: str) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    t0 = time.perf_counter()
    import purestat  # noqa: F401  (the import is part of the timed setup)

    specs = workloads.build_specs(workload, seed, out_dir)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        return {"setup_s": setup_s}

    from purestat import harness

    tracer = None
    if mode == "trace":
        from tracer import Tracer, find_wrappers

        tracer = Tracer()
        tracer.install()
    outcomes = {spec.experiment_id: {"failures": [], "csv_sha256": {}} for spec in specs}
    results = []
    t1 = time.perf_counter()
    try:
        for spec in specs:
            try:
                results.append((spec, harness.run_experiment(spec)))
            except Exception:  # an experiment that raises counts as failed
                outcomes[spec.experiment_id]["failures"].append(traceback.format_exc(limit=4))
        if results:
            harness.summarize([r for _, r in results])
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if not os.path.isfile(os.path.join(out_dir, "summary.csv")):
        for outcome in outcomes.values():
            outcome["failures"].append("summary.csv was not written")
    for spec, result in results:
        failures, digests = _check(spec, result)
        outcomes[spec.experiment_id]["failures"] += failures
        outcomes[spec.experiment_id]["csv_sha256"] = digests
        outcomes[spec.experiment_id]["wall_time_s"] = result.manifest["wall_time_s"]

    report = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": rss_kb / 1024.0,
              "experiments": outcomes,
              "environment": _environment(harness.worker_count())}
    if tracer is not None:
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"tracer wrappers left installed: {leftovers}")
        rows, size = _written(out_dir, outcomes)
        report["trace"] = tracer.metrics(rows_written=rows, bytes_written=size)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", required=True, help="directory for the run's CSVs")
    parser.add_argument("--result", required=True, help="JSON file for the measurements")
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.mode, args.out)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
