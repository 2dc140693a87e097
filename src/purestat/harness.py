"""Seeded experiment runner: fork-join trial chunks, CSV/JSON persistence, summaries.

Reproducibility contract: a (config, seed) pair produces byte-identical
per-trial CSV files, regardless of the worker count (trials own their RNG
streams; results are written in trial order).  An experiment with a block
hook runs its trials in blocks of _BLOCK consecutive indices starting at
multiples of _BLOCK, and worker chunks end only at those multiples: batched
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
import operator
import os
import pickle
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import TrialRecord
from .experiments import EXPERIMENTS, bootstrap, experiment_ids, mean_se

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "TrialRows",
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
    out_dir: str | os.PathLike | None = None

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
        # checked here, or a bad out_dir fails in os.makedirs after every trial ran
        if not (self.out_dir is None or isinstance(self.out_dir, (str, os.PathLike))):
            raise ValueError(f"{self.experiment_id}: out_dir must be a path, "
                             f"got {self.out_dir!r}")
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
        # an auto-sized subspace (rank_b = 0) is sized within the dimension
        if exp.subspace and int(self.params[exp.subspace]) > dim:
            raise ValueError(f"{self.experiment_id}: {exp.subspace} = "
                             f"{self.params[exp.subspace]!r} exceeds the dimension {dim}")

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


_ROW_COLUMNS = ("lhs", "stderr", "rhs", "satisfied", "vacuous")


class TrialRows(Sequence):
    """An experiment's rows as columns, in trial order: row i is CSV trial i.

    lhs, stderr and rhs are float64 arrays, satisfied and vacuous bool
    arrays, all read-only; extras maps each extra key to a row-aligned list
    holding the row's value, or None where the row lacks the key.  Indexing
    builds row i's TrialRecord; summaries and writers read the columns.
    """

    __slots__ = (*_ROW_COLUMNS, "extras")

    def __init__(self, lhs, stderr, rhs, satisfied, vacuous, extras: dict[str, list]):
        for name, column, dtype in zip(_ROW_COLUMNS, (lhs, stderr, rhs, satisfied, vacuous),
                                       (np.float64,) * 3 + (np.bool_,) * 2):
            column = np.asarray(column, dtype=dtype)
            column.setflags(write=False)
            setattr(self, name, column)
        self.extras = extras

    def __len__(self) -> int:
        return len(self.lhs)

    def __getitem__(self, i: int) -> TrialRecord:
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {i} out of range for {len(self)} rows")
        extra = {key: column[i] for key, column in self.extras.items() if column[i] is not None}
        return TrialRecord(float(self.lhs[i]), float(self.stderr[i]), float(self.rhs[i]),
                           bool(self.satisfied[i]), bool(self.vacuous[i]), extra, trial=i)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    records: TrialRows
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


def _store(records) -> TrialRows:
    """The rows of an iterable of TrialRecords as columns.  Each record is
    appended as it arrives, so no record outlives its row.  None is how the
    extras columns mark a row without the key, so an extra whose value is
    None raises."""
    lhs, stderr, rhs = array("d"), array("d"), array("d")
    satisfied, vacuous = array("b"), array("b")
    extras: dict[str, list] = {}
    n = 0
    for r in records:
        lhs.append(r.lhs)
        stderr.append(r.stderr)
        rhs.append(r.rhs)
        satisfied.append(bool(r.satisfied))
        vacuous.append(bool(r.vacuous))
        for key, value in r.extra.items():
            if value is None:
                raise ValueError(f"extra {key!r} of a row is None: an extras column "
                                 "keeps None for the rows without the key")
            column = extras.setdefault(key, [])
            if len(column) < n:
                column.extend([None] * (n - len(column)))
            column.append(value)
        n += 1
    for column in extras.values():
        column.extend([None] * (n - len(column)))
    return TrialRows(lhs, stderr, rhs, satisfied, vacuous, extras)


def _concat(parts: list[TrialRows]) -> TrialRows:
    """Consecutive row ranges as one TrialRows; extras keep their row alignment."""
    keys = dict.fromkeys(key for p in parts for key in p.extras)
    extras = {key: [value for p in parts for value in p.extras.get(key) or [None] * len(p)]
              for key in keys}
    return TrialRows(*(np.concatenate([getattr(p, name) for p in parts])
                       for name in _ROW_COLUMNS), extras)


def _run_chunk(experiment_id: str, setup, params, seed, start: int, stop: int) -> TrialRows:
    returned = _trial_records(EXPERIMENTS[experiment_id], setup, params, seed, start, stop)
    return _store(r for rec in returned for r in ([rec] if isinstance(rec, TrialRecord) else rec))


def _chunks(trials: int, workers: int, unit: int) -> list[tuple[int, int]]:
    """Up to 4 * workers chunks [a, b) covering range(trials); every edge is
    a multiple of unit or trials itself."""
    n_units = -(-trials // unit)
    n_chunks = min(n_units, 4 * workers)
    bounds = [min(trials, unit * round(i * n_units / n_chunks)) for i in range(n_chunks + 1)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _in_child(fn, share: int, write_fd: int) -> None:
    """Body of a forked child: pickle (fn(share), None, None), or (None, the
    error fn raised, its traceback), into write_fd, then leave at once.
    Never returns, so no exception unwinds into the parent's frames and no
    exit handler of the parent runs twice."""
    status = 1
    try:
        import traceback   # only children format tracebacks; importing it costs about 1 ms

        try:
            result, error, trace = fn(share), None, None
        except BaseException as exc:
            result, error, trace = None, exc, traceback.format_exc()
        try:
            data = pickle.dumps((result, error, trace), pickle.HIGHEST_PROTOCOL)
            if error is not None:
                pickle.loads(data)   # the parent must be able to raise it
        except Exception as exc:
            data = pickle.dumps((None, RuntimeError(repr(error or exc)),
                                 trace or traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, data: bytes, status: int):
    """What a reaped child sent: its result, else its error raised with the
    child's traceback.  A child exits 0 only once all it sends is written,
    so any other exit, or nothing sent, raises an error naming the status."""
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"worker process {pid} {how} without a result")
    result, error, trace = pickle.loads(data)
    if error is not None:
        raise error from RuntimeError(f"in worker process {pid}:\n{trace}")
    return result


def _fork_join(fn, workers: int) -> list:
    """[fn(0), ..., fn(workers - 1)]: fn(0) runs in this process while each
    other share runs in a child from os.fork().  Each child's pipe is read to
    its end before the child is reaped.  When anything fails here, every
    child not yet reaped is killed and reaped before the error leaves."""
    children = {}   # pid -> the read end of its pipe, until the child is reaped
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _in_child(fn, share, write_fd)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        results = [fn(0)]
        for pid, fh in list(children.items()):
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            results.append(_child_result(pid, data, status))
        return results
    except BaseException:
        import signal   # the failure path only

        for pid, fh in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            fh.close()
        raise


def _collect_records(spec: ExperimentSpec, setup) -> TrialRows:
    """Every trial's rows, in trial order (demos emit several rows per trial).
    With several workers, chunk i runs in process i % workers; process 0 is
    this one."""
    trials = int(spec.params.get("trials", 1))
    unit = _BLOCK if EXPERIMENTS[spec.experiment_id].block else 1
    workers = min(worker_count(), -(-trials // unit))
    job = (spec.experiment_id, setup, spec.params, spec.seed)
    if workers == 1:
        return _run_chunk(*job, 0, trials)
    chunks = _chunks(trials, workers, unit)
    shares = _fork_join(lambda share: [_run_chunk(*job, a, b)
                                       for a, b in chunks[share::workers]], workers)
    return _concat([shares[i % workers][i // workers] for i in range(len(chunks))])


def _summarize_records(rows: TrialRows, gates) -> dict:
    finite = rows.lhs[np.isfinite(rows.lhs)]
    trial_violations = int(np.count_nonzero(~rows.satisfied & ~rows.vacuous))
    gate_violations = sum(1 for g in gates if not g["satisfied"] and not g.get("vacuous"))
    # below two finite rows there is no spread: standard error 0, no bootstrap
    mean, se, boot = float(finite[0]) if len(finite) else float("nan"), 0.0, None
    if len(finite) > 1:
        mean, se = mean_se(finite)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        ms = bootstrap(finite, np.mean, rng)
        boot = [float(np.percentile(ms, 2.5)), float(np.percentile(ms, 97.5))]
    return {
        "rows": len(rows),
        "mean_lhs": mean,
        "stderr_lhs": se,
        "bootstrap_ci95_mean_lhs": boot,
        "violations": trial_violations + gate_violations,
        "trial_violations": trial_violations,
        "vacuous_rows": int(np.count_nonzero(rows.vacuous)),
        "gates": gates,
    }


def _write_csv(path: str, experiment_id: str, rows: TrialRows) -> None:
    """f-string rows with csv.writer's bytes: no field needs quoting (registry
    ids, integers, float reprs such as nan and -inf, true/false).  writelines
    of a generator is as fast as one joined write and holds no whole-file string."""
    flag = {True: "true", False: "false"}
    columns = (getattr(rows, name).tolist() for name in _ROW_COLUMNS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(f"{experiment_id},{i},{lhs!r},{se!r},{rhs!r},{flag[sat]},{flag[vac]}\n"
                      for i, lhs, se, rhs, sat, vac
                      in zip(range(len(rows)), *columns))


def _json_object(encoded: dict) -> str:
    """json.dumps(obj, sort_keys=True) of a dict obj, given its members' encodings."""
    return "{" + ", ".join(f"{json.dumps(k)}: {encoded[k]}" for k in sorted(encoded)) + "}"


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one named experiment; persist results before returning."""
    t0 = time.monotonic()
    exp = EXPERIMENTS[spec.experiment_id]
    setup = exp.setup(spec.params, spec.seed) if exp.setup else None
    rows = _collect_records(spec, setup)
    gates = exp.summary(rows, setup, spec.params) if exp.summary else []
    summary = _summarize_records(rows, gates)

    files: dict[str, str] = {}
    manifest = {
        "experiment_id": spec.experiment_id,
        "description": exp.description,
        "seed": spec.seed,
        "params": spec.params,
        "spec_hash": spec.spec_hash(),
        "code_version": __version__,
        "summary": summary,
        # row-aligned: extras[key][i] is row i's value, None where it has none
        "extras": rows.extras,
    }
    # each member is encoded once: the hash and the file share the encodings
    encoded = {k: json.dumps(v, sort_keys=True, default=repr) for k, v in manifest.items()}
    manifest["manifest_hash"] = hashlib.sha256(_json_object(encoded).encode()).hexdigest()
    manifest["wall_time_s"] = round(time.monotonic() - t0, 3)

    if spec.out_dir:
        os.makedirs(spec.out_dir, exist_ok=True)
        csv_path = os.path.join(spec.out_dir, f"{spec.experiment_id}.csv")
        _write_csv(csv_path, spec.experiment_id, rows)
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
    return ExperimentResult(spec, rows, summary, manifest, files)


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
