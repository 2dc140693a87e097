"""Seeded experiment runner: worker pool, CSV/JSON persistence, summaries.

Reproducibility contract: a (config, seed) pair produces byte-identical
per-trial CSV files, regardless of the worker count (trials own their RNG
streams; results are written in trial order).  An experiment with a block
hook runs its trials in blocks of _BLOCK consecutive indices starting at
multiples of _BLOCK, and pool chunks end only at those multiples: batched
BLAS results can depend on the stack height, which is then fixed by the
trial count and never by the worker count.  The manifest carries a
deterministic hash over everything that defines the run; wall time is
recorded outside the hashed payload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os
import time
from dataclasses import dataclass, field

from . import __version__
from .bounds import TrialRecord
from .experiments import EXPERIMENTS, bootstrap, experiment_ids, mean_se

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "parse_config",
    "run_experiment",
    "run_suite",
    "summarize",
    "worker_count",
]

MAX_DIMENSION = 1024
_BLOCK = 256     # trial indices per call of an experiment's block hook

CSV_COLUMNS = ["experiment_id", "trial", "lhs", "stderr", "rhs", "satisfied", "vacuous"]


@dataclass
class ExperimentSpec:
    """A named experiment plus its parameters, seed and output directory."""

    experiment_id: str
    params: dict = field(default_factory=dict)
    seed: int = 7
    out_dir: str | None = None

    def __post_init__(self):
        if self.experiment_id not in EXPERIMENTS:
            raise ValueError(f"invalid experiment_id {self.experiment_id!r}; "
                             f"known: {', '.join(experiment_ids())}")
        # the seed keys every random stream and the hashes: a float would run
        # on the streams of its integer part while the manifest records the
        # float, and a negative seed would fail only inside setup
        integral = isinstance(self.seed, numbers.Integral) and not isinstance(self.seed, bool)
        if not (integral and self.seed >= 0):
            raise ValueError(f"{self.experiment_id}: seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        self.seed = int(self.seed)   # a numpy integer hashes and records as the int
        exp = EXPERIMENTS[self.experiment_id]
        unknown = sorted(set(self.params) - set(exp.defaults))
        if unknown:
            raise ValueError(f"unknown parameter(s) {', '.join(unknown)} for "
                             f"{self.experiment_id}; known: {', '.join(sorted(exp.defaults))}")
        for key, value in self.params.items():
            _check_type(self.experiment_id, key, value, exp.defaults[key])
        self.params = {**exp.defaults, **self.params}
        for key, low in {"trials": 1, **exp.minimums}.items():
            if int(self.params.get(key, low)) < low:
                raise ValueError(f"{self.experiment_id}: {key} must be >= {low}, "
                                 f"got {self.params[key]!r}")
        for key, high in exp.below.items():
            if not float(self.params[key]) < float(self.params[high]):
                raise ValueError(f"{self.experiment_id}: {key} must be < {high}, "
                                 f"got {self.params[key]!r}")
        dim = exp.dimension(self.params)
        if dim > MAX_DIMENSION:
            raise ValueError(f"{self.experiment_id}: dimension {dim} exceeds the memory "
                             f"guard {MAX_DIMENSION}")

    def spec_hash(self) -> str:
        payload = json.dumps({"experiment_id": self.experiment_id, "seed": self.seed,
                              "params": self.params}, sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()


def _check_type(experiment_id: str, key: str, value, default) -> None:
    """A parameter takes the type of its default: an integer for an integer
    default, an integer or a float for a float default (never a bool)."""
    integral = isinstance(default, numbers.Integral)
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{experiment_id}: {key} must be "
                         f"{'an integer' if integral else 'a number'}, got {value!r}")


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: list
    summary: dict
    manifest: dict
    files: dict

    @property
    def violations(self) -> int:
        return self.summary["violations"]


def worker_count(environ=None, cpus: int | None = None) -> int:
    """PURESTAT_WORKERS (default 1), clamped to [1, cpu count]."""
    environ = os.environ if environ is None else environ
    cpus = cpus or os.cpu_count() or 1
    return max(1, min(int(environ.get("PURESTAT_WORKERS", "1")), cpus))


def _trial_records(exp, setup, params, seed, start: int, stop: int):
    """What the trial hook returns for each trial in [start, stop), in order.
    With a block hook, start is a multiple of _BLOCK and the block hook runs
    once per _BLOCK-aligned block."""
    if exp.block is None:
        for k in range(start, stop):
            yield exp.trial(setup, params, seed, k)
        return
    for lo in range(start, stop, _BLOCK):
        ks = range(lo, min(lo + _BLOCK, stop))
        for k, item in zip(ks, exp.block(setup, params, seed, ks), strict=True):
            yield exp.trial(setup, params, seed, k, item)


def _run_chunk(args) -> list[tuple]:
    experiment_id, setup, params, seed, start, stop = args
    out = []
    for rec in _trial_records(EXPERIMENTS[experiment_id], setup, params, seed, start, stop):
        for r in [rec] if isinstance(rec, TrialRecord) else rec:
            out.append((r.lhs, r.stderr, r.rhs, r.satisfied, r.vacuous, r.extra))
    return out


def _chunks(trials: int, workers: int, unit: int) -> list[tuple[int, int]]:
    """Up to 4 * workers pool chunks [a, b) covering range(trials); every
    edge is a multiple of unit or trials itself."""
    n_units = -(-trials // unit)
    n_chunks = min(n_units, 4 * workers)
    bounds = [min(trials, unit * round(i * n_units / n_chunks)) for i in range(n_chunks + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _collect_records(spec: ExperimentSpec, setup) -> list[TrialRecord]:
    """Every trial's rows, numbered in trial order (demos emit several rows per trial)."""
    trials = int(spec.params.get("trials", 1))
    unit = _BLOCK if EXPERIMENTS[spec.experiment_id].block else 1
    workers = min(worker_count(), -(-trials // unit))
    if workers > 1:
        import multiprocessing as mp

        jobs = [(spec.experiment_id, setup, spec.params, spec.seed, a, b)
                for a, b in _chunks(trials, workers, unit)]
        with mp.get_context("fork").Pool(workers) as pool:
            chunks = pool.map(_run_chunk, jobs)
        raw = [t for chunk in chunks for t in chunk]
    else:
        raw = _run_chunk((spec.experiment_id, setup, spec.params, spec.seed, 0, trials))
    return [TrialRecord(*t[:5], extra=t[5], trial=i) for i, t in enumerate(raw)]


def _summarize_records(records, gates) -> dict:
    import numpy as np

    lhs = np.array([r.lhs for r in records], dtype=float)
    finite = lhs[np.isfinite(lhs)]
    trial_violations = sum(1 for r in records if not r.satisfied and not r.vacuous)
    gate_violations = sum(1 for g in gates if not g["satisfied"] and not g.get("vacuous"))
    # below two finite rows there is no spread: standard error 0, no bootstrap
    mean, se, boot = float(finite[0]) if len(finite) else float("nan"), 0.0, None
    if len(finite) > 1:
        mean, se = mean_se(finite)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        ms = bootstrap(finite, np.mean, rng)
        boot = [float(np.percentile(ms, 2.5)), float(np.percentile(ms, 97.5))]
    return {
        "rows": len(records),
        "mean_lhs": mean,
        "stderr_lhs": se,
        "bootstrap_ci95_mean_lhs": boot,
        "violations": trial_violations + gate_violations,
        "trial_violations": trial_violations,
        "vacuous_rows": sum(1 for r in records if r.vacuous),
        "gates": gates,
    }


def _write_csv(path: str, experiment_id: str, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([experiment_id, r.trial, repr(float(r.lhs)), repr(float(r.stderr)),
                        repr(float(r.rhs)), str(bool(r.satisfied)).lower(),
                        str(bool(r.vacuous)).lower()])


def _json_object(encoded: dict) -> str:
    """json.dumps(obj, sort_keys=True) of a dict obj, given its members' encodings."""
    return "{" + ", ".join(f"{json.dumps(k)}: {encoded[k]}" for k in sorted(encoded)) + "}"


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one named experiment; persist results before returning."""
    t0 = time.monotonic()
    exp = EXPERIMENTS[spec.experiment_id]
    setup = exp.setup(spec.params, spec.seed) if exp.setup else None
    records = _collect_records(spec, setup)
    gates = exp.summary(records, setup, spec.params) if exp.summary else []
    summary = _summarize_records(records, gates)

    files: dict[str, str] = {}
    manifest = {
        "experiment_id": spec.experiment_id,
        "description": exp.description,
        "seed": spec.seed,
        "params": spec.params,
        "spec_hash": spec.spec_hash(),
        "code_version": __version__,
        "summary": summary,
        "extras": [r.extra for r in records if r.extra],
    }
    # each member is encoded once: the hash and the file share the encodings
    encoded = {k: json.dumps(v, sort_keys=True, default=repr) for k, v in manifest.items()}
    manifest["manifest_hash"] = hashlib.sha256(_json_object(encoded).encode()).hexdigest()
    manifest["wall_time_s"] = round(time.monotonic() - t0, 3)

    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)
        csv_path = os.path.join(spec.out_dir, f"{spec.experiment_id}.csv")
        _write_csv(csv_path, spec.experiment_id, records)
        files["csv"] = csv_path
        if exp.artifacts:
            files.update(exp.artifacts(setup, spec.params, spec.seed, spec.out_dir))
        files["manifest"] = os.path.join(spec.out_dir, f"{spec.experiment_id}_manifest.json")
        manifest["files"] = files
        for key in ("manifest_hash", "wall_time_s", "files"):
            encoded[key] = json.dumps(manifest[key], sort_keys=True, default=repr)
        # one write: indent would force json's pure-Python encoder, and
        # json.dump issues a write per token
        with open(files["manifest"], "w", encoding="utf-8") as fh:
            fh.write(_json_object(encoded) + "\n")
    return ExperimentResult(spec, records, summary, manifest, files)


def run_suite(seed: int = 7, out_dir: str | None = None,
              overrides: dict | None = None) -> list[ExperimentResult]:
    """Run every registered experiment at its defaults (the default suite).

    Each override key applies only to the experiments that declare it; a key
    that no experiment declares raises.  Every spec is validated before any
    experiment runs.
    """
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides).difference(*(e.defaults for e in EXPERIMENTS.values())))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(unknown)}: no experiment "
                         "declares them")
    specs = [ExperimentSpec(eid, {k: v for k, v in overrides.items()
                                  if k in EXPERIMENTS[eid].defaults},
                            seed=seed, out_dir=out_dir)
             for eid in experiment_ids()]
    return [run_experiment(spec) for spec in specs]


def summarize(results_or_dir) -> list[dict]:
    """Summary rows (one per experiment) from results or a results directory.

    When given a directory, reads the *_manifest.json files; raises if none
    are present.  Rows follow the registry order on both paths (experiments
    no longer registered go last, in file-name order).  When an output
    directory is involved, also writes summary.csv next to the manifests.
    """
    rows = []
    out_dir = None
    if isinstance(results_or_dir, (str, os.PathLike)):
        out_dir = str(results_or_dir)
        manifests = sorted(f for f in os.listdir(out_dir) if f.endswith("_manifest.json"))
        if not manifests:
            raise FileNotFoundError(f"missing result files: no manifests in {out_dir!r}")
        payloads = []
        for name in manifests:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                payloads.append(json.load(fh))
    else:
        payloads = [r.manifest for r in results_or_dir]
        dirs = {r.spec.out_dir for r in results_or_dir if r.spec.out_dir}
        out_dir = dirs.pop() if len(dirs) == 1 else None
    for m in payloads:
        s = m["summary"]
        # wall time stays in the manifest only: summary.csv must be
        # byte-identical across reruns like every other CSV output
        rows.append({
            "experiment_id": m["experiment_id"],
            "rows": s["rows"],
            "violations": s["violations"],
            "vacuous_rows": s["vacuous_rows"],
            "mean_lhs": s["mean_lhs"],
            "stderr_lhs": s["stderr_lhs"],
            "seed": m["seed"],
        })
    position = {eid: i for i, eid in enumerate(experiment_ids())}
    rows.sort(key=lambda row: position.get(row["experiment_id"], len(position)))
    if out_dir:
        path = os.path.join(out_dir, "summary.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
    return rows


def parse_config(path: str) -> dict:
    """Flat key-value config: one `key = value` per line, # comments (whole
    lines or after a value), comma-separated lists.  Values are parsed as
    int, then float, then kept as strings; lists become lists of the same.
    A line without `=`, an empty key, value or list item and a key set twice
    raise ValueError naming the file and the line."""
    cfg: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.partition("#")[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value'")
            key, _, raw = (part.strip() for part in line.partition("="))
            items = [v.strip() for v in raw.split(",")]
            if not key or not all(items):
                raise ValueError(f"{where}: empty key, value or list item in {line!r}")
            if key in cfg:
                raise ValueError(f"{where}: duplicate key {key!r}")
            values = [_parse_scalar(v) for v in items]
            cfg[key] = values if len(values) > 1 else values[0]
    return cfg


def _parse_scalar(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw
