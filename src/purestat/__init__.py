"""purestat: a numerical laboratory for pure-state quantum statistical mechanics.

Dense exact-diagonalization tooling for finite-dimensional quantum systems
(Hilbert-space dimension in the hundreds; the README lists the limits)
together with a catalog of typicality, equilibration, decoherence and
initial-state-independence bounds, and a seeded Monte Carlo harness that
verifies each bound empirically.
"""

from .linalg import (
    EigenDecomposition,
    commutator,
    dagger,
    hermitian_eig,
    operator_norm,
    partial_trace,
    schatten_norm,
    swap_operator,
    tensor_product,
    trace_norm,
)
from .hamiltonians import (
    CompositeHamiltonian,
    GapReport,
    Hamiltonian,
    compose_hamiltonian,
    decompose_hamiltonian,
    gap_analysis,
    phase_factors,
    pointer_hamiltonian,
    unitary_from_hamiltonian,
)
from .states import (
    DensityMatrix,
    MacroObservableSet,
    PureState,
    canonical_state,
    effective_dimension,
    expectation_values,
    macro_pseudo_distance,
    max_projector_distinguishability,
    microcanonical_expectation,
    microcanonical_state,
    mutual_information,
    purity,
    trace_distance,
    von_neumann_entropy,
)
from .ensembles import (
    canonical_subspace_basis,
    complex_normal_rows,
    haar_unitary,
    harmonic_mean,
    mean_energy_coefficients,
    philox_keys,
    sample_haar_state,
    sample_mean_energy_state,
    sample_product_state,
    sample_random_hamiltonian,
    shift_for_harmonic_mean,
    stream,
    trial_stream,
    trial_streams,
)
from .dynamics import (
    ReducedRates,
    coefficient_samples,
    default_horizon,
    dephase,
    dephased,
    evolve,
    finite_difference_purity_rate,
    finite_difference_speed,
    pure_state_samples,
    purity_rate,
    reduced_marginals,
    reduced_rates,
    sample_times,
    subsystem_speed,
    write_trajectory_csv,
)
from .bounds import (
    THEOREMS,
    BoundContext,
    BoundReport,
    canonical_reduction_threshold,
    check_bound,
    evaluate_bound,
    max_pairing_offdiagonal_sum,
    mean_energy_purity_crude_bound,
    verdict,
)

__version__ = "0.1.0"


def __getattr__(name):
    # harness/experiments import lazily so that the light math API stays cheap
    if name in ("ExperimentSpec", "ExperimentResult", "run_experiment",
                "run_suite", "summarize", "parse_config"):
        from . import harness

        return getattr(harness, name)
    if name in ("EXPERIMENTS", "TrialRecord", "experiment_ids"):
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
