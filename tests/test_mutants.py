"""Mutants: one defect patched into one library function from outside the
package, and the default-suite experiments that must report it."""

import sys

import numpy as np
import pytest

from purestat.ensembles import complex_normals, sample_gue
from purestat.experiments import EXPERIMENTS
from purestat.harness import ExperimentSpec, run_experiment
from purestat.linalg import dagger, hermitian_spectrum
from purestat.states import dephased_purity, effective_dimension
from test_ensembles import GUE_SPACING_RATIO, SPACING_RATIO_TOL, gue_spacing_ratio


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


def _real_gue(d, rng, norm=1.0, traceless=False):
    """sample_gue built from the real part of its Ginibre draw: a GOE matrix."""
    (z,) = _real_normals(1, (d, d), rng)
    h = (z + dagger(z)) / 2
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    return h * (norm / np.abs(hermitian_spectrum(h)).max())


def test_a_real_gue_leaves_the_gue_spacing_window(monkeypatch):
    _patch_everywhere(monkeypatch, sample_gue, _real_gue)
    assert abs(gue_spacing_ratio() - GUE_SPACING_RATIO) >= SPACING_RATIO_TOL


# every experiment that reads d_eff(omega) or d_eff(omega^B), directly or through a bound
DEFF_READERS = ("EXPECTATION_EQUILIBRATION", "SUBSYSTEM_EQUILIBRATION", "PURITY_EQUILIBRATION",
                "SPEED", "PURITY_RATE_AVG", "PURITY_RATE_INSTANT", "ISI", "SECOND_LAW_DEMO",
                "DISTANCE_TRAJECTORY", "DEFF_SUBSPACE_MEAN", "DEFF_SUBSPACE_TAIL",
                "DEFF_PRODUCT_MEAN", "DEFF_MEAN_ENERGY", "CANONICAL_REDUCTION")
# small enough that each reader runs in well under a second
SMALL = {"trials": 2, "n_times": 16, "n_samples": 200}


def _deff_plus_one(monkeypatch) -> None:
    """d_eff + 1 wherever it is computed: the dephased-state home, whose purity
    p becomes p / (1 + p), and states.effective_dimension."""
    _patch_everywhere(monkeypatch, dephased_purity, lambda p: 1.0 / (1.0 / dephased_purity(p) + 1))
    _patch_everywhere(monkeypatch, effective_dimension, lambda rho: effective_dimension(rho) + 1)


def _rows(experiment_id):
    defaults = EXPERIMENTS[experiment_id].defaults
    res = run_experiment(ExperimentSpec(
        experiment_id, {k: v for k, v in SMALL.items() if k in defaults}, seed=7))
    rows = res.records
    return rows.lhs.tolist(), rows.rhs.tolist(), rows.extras


@pytest.mark.parametrize("experiment_id", DEFF_READERS)
def test_an_off_by_one_deff_reaches_every_reader(experiment_id, monkeypatch):
    monkeypatch.delenv("PURESTAT_WORKERS", raising=False)
    clean = _rows(experiment_id)
    _deff_plus_one(monkeypatch)
    mutant = _rows(experiment_id)
    assert mutant != clean
