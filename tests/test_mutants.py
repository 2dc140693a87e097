"""Mutants: one defect patched into one library function from outside the
package, and the default-suite experiments that must report it."""

import sys

import pytest

from purestat.ensembles import complex_normals
from purestat.harness import ExperimentSpec, run_experiment


def _patch_everywhere(monkeypatch, fn, mutant) -> None:
    """Put mutant in place of fn in every purestat namespace that holds fn."""
    for name, module in list(sys.modules.items()):
        if (name == "purestat" or name.startswith("purestat.")) \
                and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, mutant)


def _real_normals(n, shape, rng):
    """complex_normals without the imaginary parts: Haar states on a real sphere."""
    return complex_normals(n, shape, rng).real.astype(complex)


@pytest.mark.parametrize("experiment_id", ["MC_VARIANCE_IDENTITY", "DEFF_MEAN_ENERGY"])
def test_real_normals_are_reported(experiment_id, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    _patch_everywhere(monkeypatch, complex_normals, _real_normals)
    res = run_experiment(ExperimentSpec(experiment_id, seed=7))
    assert res.violations >= 1
