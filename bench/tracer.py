"""Per-layer tracing of purestat from outside the package.

`Tracer.install()` puts a timing wrapper around

* every public function (and the ``__init__`` of every public class)
  defined in the purestat modules listed in `LAYERS`, in every purestat
  namespace that holds a reference to it;
* the dense LAPACK entry points ``numpy.linalg.eigh/eigvalsh/qr``, counted
  only when the caller is purestat code;
* the ``setup``/``trial``/``summary``/``artifacts`` callables of every entry
  of ``purestat.experiments.EXPERIMENTS``.

`Tracer.uninstall()` puts every original back.  No purestat source file is
touched.  Spans are aggregated on the fly: per span name the number of calls
and the self time, which is the span's duration minus the time covered by
the spans it caused directly.  Nothing here changes arguments or return
values, so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("linalg", "hamiltonians", "states", "ensembles", "dynamics", "bounds", "harness")
LAPACK = ("eigh", "eigvalsh", "qr")
EXPERIMENT_HOOKS = ("setup", "trial", "summary", "artifacts")

_CALLS_AND_SELF = {
    "lapack": list(LAPACK),
    "linalg": ["commutator", "partial_trace", "schatten_norm", "hermitian_eig"],
    "hamiltonians": ["gap_analysis", "Hamiltonian.init", "decompose_hamiltonian"],
    "ensembles": ["stream", "haar_unitary", "sample_random_hamiltonian",
                  "sample_mean_energy_state"],
    "states": ["DensityMatrix.init", "PureState.init", "trace_distance"],
    "dynamics": ["subsystem_speed", "purity_rate", "evolve"],
    "bounds": ["max_pairing_offdiagonal_sum"],
    "experiments": list(EXPERIMENT_HOOKS),
}
_CALLS_ONLY = ("bounds.check_bound", "harness.run_experiment")
_LAYER_TOTALS = ("linalg", "hamiltonians", "ensembles", "states", "dynamics", "bounds",
                 "experiments", "harness")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _work_n3(args, kwargs) -> int:
    """Computed work of a dense factorisation: batch * n^3, n the larger matrix axis."""
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    if len(shape) < 2:
        return 0
    n = max(shape[-2:])
    return math.prod(shape[:-2]) * n ** 3


def _gap_pairs(args, kwargs) -> int:
    """Computed number of level pairs gap_analysis sorts: d(d-1)/2."""
    spectrum = args[0] if args else kwargs["spectrum"]
    d = len(getattr(spectrum, "eigenvalues", spectrum))
    return d * (d - 1) // 2


_COUNT_HOOKS = {"lapack.eigh": (_work_n3, "lapack.eigh.work_n3"),
                "lapack.eigvalsh": (_work_n3, "lapack.eigvalsh.work_n3"),
                "lapack.qr": (_work_n3, "lapack.qr.work_n3"),
                "hamiltonians.gap_analysis": (_gap_pairs, "hamiltonians.gap_analysis.gaps")}
# span -> (open ancestor span, count of calls made while that ancestor is open)
_NESTED_COUNTS = {
    "lapack.eigvalsh": ("states.DensityMatrix.init", "lapack.eigvalsh.under_density_validation"),
    "hamiltonians.gap_analysis": ("ensembles.sample_random_hamiltonian",
                                  "ensembles.gap_analysis_inside_sampler"),
}
_ANCESTORS = {ancestor for ancestor, _ in _NESTED_COUNTS.values()}


def _purestat_modules() -> list:
    return [(name, m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == "purestat" or name.startswith("purestat."))]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _put(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Span aggregator plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []       # per open span: [time covered by its children]
        self._active: Counter = Counter()  # open spans of each name in _ANCESTORS
        self._patches: list[tuple] = []  # (module, class or dict; name; original)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        """Wrapper that records a span called `name` around each call of fn."""
        hook, hook_key = _COUNT_HOOKS.get(name, (None, None))
        ancestor, nested_key = _NESTED_COUNTS.get(name, (None, None))
        tracked = name in _ANCESTORS
        stack, active, clock = self._stack, self._active, self.clock
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def traced(*args, **kwargs):
            if hook is not None:
                counts[hook_key] += hook(args, kwargs)
            if ancestor is not None and active[ancestor]:
                counts[nested_key] += 1
            if tracked:
                active[name] += 1
            covered = [0.0]   # time taken by the spans this call causes directly
            stack.append(covered)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if tracked:
                    active[name] -= 1
                calls[name] += 1
                self_s[name] += duration - covered[0]
                if stack:
                    stack[-1][0] += duration

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        traced._bench_span = name
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable; call uninstall() to restore them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import numpy.linalg

        layers = {layer: importlib.import_module(f"purestat.{layer}") for layer in LAYERS}
        experiments = importlib.import_module("purestat.experiments")

        wrappers: dict[int, object] = {}
        for layer, module in layers.items():
            for public, obj in list(vars(module).items()):
                if public.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type) and "__init__" in vars(obj):
                    self._set(obj, "__init__",
                              self.wrap(f"{layer}.{public}.init", vars(obj)["__init__"]))
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{public}", obj)
        for _, module in _purestat_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])

        for fn in LAPACK:
            original = getattr(numpy.linalg, fn)
            self._set(numpy.linalg, fn, self._purestat_only(self.wrap(f"lapack.{fn}", original),
                                                            original))

        for experiment_id, exp in list(experiments.EXPERIMENTS.items()):
            hooks = {h: self.wrap(f"experiments.{h}", getattr(exp, h))
                     for h in EXPERIMENT_HOOKS if getattr(exp, h) is not None}
            self._set(experiments.EXPERIMENTS, experiment_id, dataclasses.replace(exp, **hooks))

    @staticmethod
    def _purestat_only(traced, original):
        def lapack_entry(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == "purestat" or caller.startswith("purestat."):
                return traced(*args, **kwargs)
            return original(*args, **kwargs)

        lapack_entry.__name__ = original.__name__
        lapack_entry.__doc__ = original.__doc__
        lapack_entry.__wrapped__ = original
        lapack_entry._bench_span = traced._bench_span
        return lapack_entry

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, _get(owner, attr)))
        _put(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original, in reverse order of patching."""
        while self._patches:
            _put(*self._patches.pop())

    # -- metrics -------------------------------------------------------------

    def metrics(self, rows_written: int, bytes_written: int) -> dict[str, float]:
        """Every name in METRICS, from the spans and counts gathered so far."""
        out: dict[str, float] = {}
        for layer, spans in _CALLS_AND_SELF.items():
            for span in spans:
                out[f"{layer}.{span}.calls"] = self.calls[f"{layer}.{span}"]
                out[f"{layer}.{span}.self_s"] = self.self_s[f"{layer}.{span}"]
        for span in _CALLS_ONLY:
            out[f"{span}.calls"] = self.calls[span]
        for _, key in _COUNT_HOOKS.values():
            out[key] = self.counts[key]
        for layer in _LAYER_TOTALS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.startswith(f"{layer}."))
        out["ensembles.jitter_rounds"] = (self.counts["ensembles.gap_analysis_inside_sampler"]
                                          - self.calls["ensembles.sample_random_hamiltonian"])
        eig_calls = self.calls["lapack.eigvalsh"]
        out["states.validation_eig_share"] = (
            self.counts["lapack.eigvalsh.under_density_validation"] / eig_calls
            if eig_calls else 0.0)
        out["harness.rows_written"] = rows_written
        out["harness.bytes_written"] = bytes_written
        return out


METRICS = sorted(Tracer().metrics(rows_written=0, bytes_written=0))


def find_wrappers() -> list[str]:
    """Where a tracer wrapper is still installed (empty after uninstall())."""
    import numpy.linalg

    found = []
    for name, module in _purestat_modules():
        for attr, value in vars(module).items():
            if hasattr(value, "_bench_span"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and hasattr(vars(value).get("__init__"), "_bench_span"):
                found.append(f"{name}.{attr}.__init__")
    found += [f"numpy.linalg.{fn}" for fn in LAPACK
              if hasattr(getattr(numpy.linalg, fn), "_bench_span")]
    experiments = sys.modules.get("purestat.experiments")
    for experiment_id, exp in getattr(experiments, "EXPERIMENTS", {}).items():
        found += [f"EXPERIMENTS[{experiment_id}].{h}" for h in EXPERIMENT_HOOKS
                  if hasattr(getattr(exp, h), "_bench_span")]
    return found
