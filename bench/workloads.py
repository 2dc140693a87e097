"""The benchmark's workloads: which experiments run, with which parameters.

Every parameter override must be a key of the experiment's registered
defaults (`check_params`), so that the workloads keep running once unknown
config keys are rejected.  This module imports nothing heavy at import time:
a repetition times the purestat import itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Every experiment of the default suite, in registry order at the time the
# benchmark was defined.  A fixed list keeps the workload the same program
# input when experiments are added later.
SUITE_IDS = (
    "MC_VARIANCE_IDENTITY", "MC_CONCENTRATION", "MC_VARIANCE_CONCENTRATION",
    "COARSE_GRAINED", "CANONICAL_REDUCTION", "DEFF_SUBSPACE_MEAN", "DEFF_SUBSPACE_TAIL",
    "DEFF_PRODUCT_MEAN", "DEFF_MEAN_ENERGY", "EXPECTATION_EQUILIBRATION",
    "SUBSYSTEM_EQUILIBRATION", "PURITY_EQUILIBRATION", "ERGODICITY", "SPEED",
    "PURITY_RATE_AVG", "PURITY_RATE_INSTANT", "COMMUTATOR_LOWER", "DECOHERENCE",
    "EINSELECTION_DEMO", "ISI", "ISI_LINDEN_DELTA", "ENTANGLED_STATE_TAIL",
    "ENTANGLED_EIGS_TAIL", "LEVY", "EQ_TIME_HEISENBERG", "EQ_TIME_PURITY",
    "SECOND_LAW_DEMO", "DISTANCE_TRAJECTORY",
)

# Experiments that are not trial-parallel write several rows per trial.
ROWS_PER_TRIAL = {"EINSELECTION_DEMO": 6, "SECOND_LAW_DEMO": 3}

_D256 = {"d_s": 2, "d_b": 128}


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple      # ((experiment_id, overrides), ...)
    pooled: bool = False    # run with min(2, nproc) workers; CSVs checked against 1 worker


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("suite", tuple((eid, {}) for eid in SUITE_IDS)),
    Workload(
        "dense-256",
        (("SUBSYSTEM_EQUILIBRATION", {**_D256, "trials": 16}),
         # n_times 500, not 2000: PURITY_EQUILIBRATION holds n_times x 128 x 128 complex
         ("PURITY_EQUILIBRATION", {**_D256, "trials": 16, "n_times": 500}),
         ("EXPECTATION_EQUILIBRATION", {**_D256, "trials": 16, "n_times": 500}),
         ("ISI", {**_D256, "trials": 8}),
         ("SPEED", {**_D256, "trials": 4}),
         ("ENTANGLED_EIGS_TAIL", {**_D256, "trials": 8}),
         ("DEFF_SUBSPACE_MEAN", {"d_r": 256, "trials": 2000}))),
    Workload(
        "trials-pool",
        tuple((eid, {}) for eid in (
            "DEFF_MEAN_ENERGY", "COMMUTATOR_LOWER", "DEFF_PRODUCT_MEAN", "ERGODICITY",
            "ENTANGLED_STATE_TAIL", "DEFF_SUBSPACE_MEAN", "ISI_LINDEN_DELTA")),
        pooled=True),
)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workers_for(workload: Workload) -> int:
    return min(2, nproc()) if workload.pooled else 1


def check_params(workload: Workload) -> None:
    """Raise unless every override is a registered default of its experiment."""
    from purestat.experiments import EXPERIMENTS

    for experiment_id, overrides in workload.experiments:
        if experiment_id not in EXPERIMENTS:
            raise ValueError(f"{workload.name}: unknown experiment {experiment_id}")
        unknown = set(overrides) - set(EXPERIMENTS[experiment_id].defaults)
        if unknown:
            raise ValueError(f"{workload.name}: {experiment_id} has no parameter(s) "
                             f"{sorted(unknown)}")


def build_specs(workload: Workload, seed: int, out_dir: str) -> list:
    """Validated ExperimentSpecs of the workload, writing into out_dir."""
    from purestat.harness import ExperimentSpec

    check_params(workload)
    return [ExperimentSpec(eid, dict(overrides), seed=seed, out_dir=out_dir)
            for eid, overrides in workload.experiments]


def expected_rows(spec) -> int:
    return int(spec.params.get("trials", 1)) * ROWS_PER_TRIAL.get(spec.experiment_id, 1)
