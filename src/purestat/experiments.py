"""Named experiments: one per theorem in the bound catalog, plus demos.

Every experiment is deterministic given (params, seed).  The harness hands
each hook its random stream: setup draws from the setup stream and trial k
from trial k's stream, and no hook derives a stream from the seed, so
results are independent of execution order and worker count.

Experiments of many tiny trials also define a block hook: it draws a whole
block of trials from their streams, which the harness hands it in trial
order, and runs their numerics once over the stacked draws; the trial hook
then only judges the row of one trial from its item.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .bounds import (
    TrialRecord,
    canonical_reduction_threshold,
    check_bound,
    evaluate_bound,
    max_pairing_offdiagonal_sum,
    mean_energy_purity_crude_bound,
    verdict,
)
from .dynamics import (
    ReducedRates,
    bath_purities,
    dephased,
    finite_difference_purity_rate,
    finite_difference_speed,
    reduced_marginals,
    reduced_rates,
    sample_times,
    time_map,
    write_trajectory_csv,
)
from .ensembles import (
    complex_normals,
    haar_coefficient_blocks,
    haar_unitary,
    harmonic_mean,
    mean_energy_coefficients,
    redraw_until_non_resonant,
    sample_gue,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    sample_spectrum,
)
from .hamiltonians import Hamiltonian, compose_hamiltonian, pointer_hamiltonian
from .linalg import BLOCK_ENTRIES, commutator, dagger, hermitian_spectrum, trace_norm
from .states import (
    dephased_purity,
    effective_dimension,
    expectation_values,
    purity,
    trace_distance,
    von_neumann_entropy,
)

__all__ = ["ExperimentDef", "EXPERIMENTS", "mean_se"]

# Gates, and the cross-checks, windows and grids they are calibrated on, are
# constants: a config sets the physical instance and its sample size, never how
# a gate judges.
# SPEED's and PURITY_RATE_AVG's largest relative gap of a rate from its central
# difference, which rounds at some 1e-7 of the rate floor 1e-3 |H|
FD_RTOL = 1e-4
FD_CHECKS = 3                # the instants of each row's finite-difference check
# ERGODICITY's largest |Tr[B omega] - time average of Tr[B rho_t]|: that average's
# standard error is at most |B| / sqrt(d_eff CROSSCHECK_TIMES), about 3e-3
CROSSCHECK_TOL = 1e-2
CROSSCHECK_TRIALS = 3        # the first trials whose time average is cross-checked
CROSSCHECK_TIMES = 4000      # the sampled times of each cross-check's time average
LATE_SUPPRESSION_CAP = 0.3   # EINSELECTION_DEMO's cap on the late mean |rho^S_ij(t) / rho^S_ij(0)|
# the grid of EINSELECTION_DEMO's trajectories: EINSELECTION_GRID points on
# [0, EINSELECTION_T_MAX] but t = 0; the cap is judged on t >= LATE_WINDOW_START
EINSELECTION_T_MAX = 200.0
EINSELECTION_GRID = 81
LATE_WINDOW_START = 100.0
# EQ_TIME_PURITY's search for the first time with p_t <= p_eq: EQ_TIME_GRID points
# on [0, EQ_TIME_HORIZON / |H_SB|] but t = 0.  A coarser grid finds a later
# crossing, which biases the row, a lower bound, toward passing
EQ_TIME_HORIZON = 50.0
EQ_TIME_GRID = 2000
ENTROPY_SLACK = 0.1          # SECOND_LAW_DEMO's allowance of S(omega^S) below log d_S, in nats
# the trajectory CSVs: PLOT_GRID points on [0, PLOT_HORIZON / (E_max - E_min)] but t = 0
PLOT_HORIZON = 80.0
PLOT_GRID = 400


def _row(lhs, rhs, kind, slack=0.0, stderr=0.0, **extra) -> TrialRecord:
    """A row judged by bounds.verdict(lhs, rhs, kind, slack); never vacuous."""
    return TrialRecord(float(lhs), float(stderr), float(rhs),
                       verdict(lhs, rhs, kind, slack), False, extra)


def _gate(name: str, row: TrialRecord) -> dict:
    """A summary gate: a judged row under a name, its extras inlined."""
    return {"gate": name, "lhs": row.lhs, "stderr": row.stderr, "rhs": row.rhs,
            "satisfied": row.satisfied, "vacuous": row.vacuous, **row.extra}


@dataclass(frozen=True)
class ExperimentDef:
    experiment_id: str
    description: str
    defaults: dict
    setup: object = None          # (params, rng) -> object; rng is the setup stream
    # (setup, params, k, item) -> TrialRecord | [TrialRecord]; item is trial
    # k's stream, or with a block hook the block hook's item for trial k
    trial: object = None
    # (rows, setup, params) -> list[dict] of summary gates; rows is the
    # harness's TrialRows, whose columns (rows.lhs, rows.extras[key]) it reads
    summary: object = None
    artifacts: object = None      # (setup, params, rng, out_dir) -> files; rng: trial 0's stream
    # (params) -> the largest Hilbert-space dimension the experiment builds,
    # which minimums and limits name "dimension"
    dimension: object = field(kw_only=True)
    # integer parameter or "dimension" -> its smallest accepted value where that
    # is not 1 (a count that feeds std(ddof=1) needs 2; 0 may mean "derive it")
    minimums: dict = field(default_factory=dict, kw_only=True)
    # parameter -> ("<" or "<=", another parameter or "dimension")
    limits: dict = field(default_factory=dict, kw_only=True)
    # (setup, params, ks, rngs) -> one item per trial index in ks, computed
    # together from rngs, which yields each trial's stream in order, valid
    # until the next is taken; the harness passes ks as one block of
    # consecutive indices starting at a multiple of the block size
    block: object = field(default=None, kw_only=True)


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _haar_map(fn, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """fn of each block of haar_coefficient_blocks(n, d, rng), concatenated:
    one value per sample, and no (n, d) array."""
    return np.concatenate([fn(a) for a in haar_coefficient_blocks(n, d, rng)])


def _haar_expectations(spectrum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Tr[B psi] of n Haar states psi for an observable B = diag(spectrum).  By
    unitary invariance its law depends on B only through the spectrum."""
    return _haar_map(lambda a: (a.real ** 2 + a.imag ** 2) @ spectrum, n, len(spectrum), rng)


def _haar_coeff_rows(n: int, d: int, rngs) -> np.ndarray:
    """n rows, one per generator of rngs: its normalised complex_normals row."""
    return _unit_rows(complex_normals(n, (d,), rngs))


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(n), for n >= 2 samples."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))


def _variance_se(x: np.ndarray) -> float:
    """Delta-method standard error of the sample variance s^2 = x.var(ddof=1),
    sqrt((m4 - (n-3)/(n-1) s^4) / n) with m4 = mean((x - mean(x))^4), for
    n >= 2 samples.  Never negative: m4 >= ((n-1)/n)^2 s^4 > (n-3)/(n-1) s^4."""
    n = len(x)
    s2 = x.var(ddof=1)
    m4 = np.mean((x - x.mean()) ** 4)
    return float(np.sqrt((m4 - (n - 3) / (n - 1) * s2 * s2) / n))


def _mixed_density(d: int, rng: np.random.Generator) -> np.ndarray:
    (g,) = complex_normals(1, (d, d), rng)
    m = g @ dagger(g)
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# microcanonical typicality (subspace sampling in subspace coordinates)
# ---------------------------------------------------------------------------

def _mc_setup(params, rng):
    d_r = params["d_r"]
    rank = params["rank_b"] or d_r // 2
    # the spectrum of a rank-`rank` projector B inside H_R
    spectrum = np.r_[np.ones(rank), np.zeros(d_r - rank)]
    return {"spectrum": spectrum, "d_r": d_r, "rank": rank,
            "mc_mean": rank / d_r, "mc_mean2": rank / d_r}


def _mc_variance_identity_trial(setup, params, k, rng):
    x = _haar_expectations(setup["spectrum"], params["n_samples"], rng)
    lhs = float(x.var(ddof=1))
    se = _variance_se(x)
    inputs = {"d_r": setup["d_r"], "mc_mean_b": setup["mc_mean"],
              "mc_mean_b2": setup["mc_mean2"]}
    return check_bound("MC_VARIANCE_IDENTITY", lhs, inputs, se, 3.0,
                       mean=float(x.mean()), n_samples=len(x))


def _mc_concentration_trial(setup, params, k, rng):
    x = _haar_expectations(setup["spectrum"], params["n_samples"], rng)
    eps = params["epsilon"]
    dev = np.abs(x - setup["mc_mean"])
    lhs = float((dev >= eps).mean())
    se = float(np.sqrt(max(lhs * (1 - lhs), 1.0 / len(x)) / len(x)))
    inputs = {"d_r": setup["d_r"], "epsilon": eps, "norm_b": 1.0}
    mean, se_mean = mean_se(x)
    return check_bound("MC_CONCENTRATION", lhs, inputs, se, mean=mean, se_mean=se_mean,
                       mad=float(dev.mean()), mc_mean=setup["mc_mean"])


def _mc_variance_concentration_trial(setup, params, k, rng):
    x = _haar_expectations(setup["spectrum"], params["n_samples"], rng)
    eps = params["epsilon"]
    # per-sample variance sigma_psi^2 = Tr[B^2 psi] - (Tr[B psi])^2; B projector
    sigma2 = x - x ** 2
    sigma2_mc = setup["mc_mean2"] - setup["mc_mean"] ** 2
    lhs = float((np.abs(sigma2 - sigma2_mc) > eps).mean())  # ||B|| = 1
    return check_bound("MC_VARIANCE_CONCENTRATION", lhs, {"d_r": setup["d_r"], "epsilon": eps},
                       sigma2_mc=sigma2_mc, mean_sigma2=float(sigma2.mean()))


def _coarse_grained_setup(params, rng):
    d, d_r, m = params["d"], params["d_r"], params["m"]
    if d % m:
        raise ValueError("macro-state count m must divide the dimension")
    # H_R is spanned by the first d_R basis vectors; the column groups of one
    # Haar unitary W orient the m macro projectors against it (only their
    # relative orientation matters).  Only W's first d_R rows are read, and
    # they are the transpose of a d x d_R Haar isometry
    rows = haar_unitary(d, rng, d_r).T
    groups = [rows[:, r * (d // m):(r + 1) * (d // m)] for r in range(m)]
    # Tr[P_r Pi_R] / d_R = |g_r|_F^2 / d_R for the macro projector P_r of each
    # group, g_r its d_R rows in H_R
    mc = np.array([np.linalg.norm(g) ** 2 / d_r for g in groups])
    return {"mc": mc, "groups": groups, "d": d, "d_r": d_r, "m": m}


def _coarse_grained_trial(setup, params, k, rng):
    n = params["n_samples"]
    eps = params["epsilon"]
    d_r = setup["d_r"]

    def deviations(a):
        devs = np.zeros(len(a))
        for r, g in enumerate(setup["groups"]):
            t_r = np.abs(a @ g.conj()) ** 2         # (rows, d/m) overlaps
            devs += np.abs(t_r.sum(axis=1) - setup["mc"][r])
        return devs
    devs = _haar_map(deviations, n, d_r, rng)
    lhs = float((devs >= eps).mean())               # max_A over alpha_r in [-1,1]
    inputs = {"d_r": d_r, "epsilon": eps, "m": setup["m"], "norm_a": 1.0}
    return check_bound("COARSE_GRAINED", lhs, inputs, mean_dev=float(devs.mean()))


def _canonical_reduction_setup(params, rng):
    d_s, d_b, d_r = params["d_s"], params["d_b"], params["d_r"]
    basis_r = haar_unitary(d_s * d_b, rng, d_r)   # a Haar d_R-subspace
    # the marginals of rho_mc = Pi_R / d_R without the d x d matrix: rho^S_mc is the
    # mean of the columns' marginals, rho^B_mc = X X^dagger / d_R, X (d_B, d_S d_R)
    x = basis_r.reshape(d_s, d_b, d_r).transpose(1, 0, 2).reshape(d_b, d_s * d_r)
    return {"basis_r": basis_r, "rho_mc_s": reduced_marginals(basis_r.T, (d_s, d_b)).mean(0),
            "deff_b": effective_dimension(x @ dagger(x) / d_r), "d_s": d_s, "d_b": d_b, "d_r": d_r}


def _canonical_reduction_trial(setup, params, k, rng):
    n = params["n_samples"]
    eps = params["epsilon"]
    d_s, d_b = setup["d_s"], setup["d_b"]
    dist = _haar_map(lambda a: trace_distance(
        reduced_marginals(a @ setup["basis_r"].T, (d_s, d_b)), setup["rho_mc_s"]),
        n, setup["d_r"], rng)
    threshold = canonical_reduction_threshold(epsilon=eps, d_s=d_s, deff_b=setup["deff_b"])
    lhs = float((dist >= threshold).mean())
    return check_bound("CANONICAL_REDUCTION", lhs, {"d_r": setup["d_r"], "epsilon": eps},
                       threshold=threshold, mean_distance=float(dist.mean()),
                       deff_b=setup["deff_b"])


# ---------------------------------------------------------------------------
# effective dimension
# ---------------------------------------------------------------------------

def _deff_subspace_ambient(params) -> int:
    return params["ambient"] or 2 * params["d_r"]


def _deff_subspace_setup(params, rng):
    d_r = params["d_r"]
    ambient = _deff_subspace_ambient(params)
    # d_eff of a dephased state reads only the Hamiltonian's eigenbasis V, and a
    # random Hamiltonian's eigenbasis is Haar: its spectrum is never drawn.  Only
    # V's first d_r rows are read, the transpose of an ambient x d_r Haar isometry
    rows = haar_unitary(ambient, rng, d_r).T
    # coefficients of a subspace vector (a, 0) in the eigenbasis: a @ conj(V[:d_r, :])
    return {"block": rows.conj(), "d_r": d_r, "ambient": ambient}


def _deff_subspace_block(setup, params, ks, rngs):
    """d_eff of each trial's dephased subspace state."""
    c = _haar_coeff_rows(len(ks), setup["d_r"], rngs) @ setup["block"]
    return (1.0 / dephased_purity(np.abs(c) ** 2)).tolist()


def _deff_subspace_mean_trial(setup, params, k, deff):
    return _row(deff, setup["d_r"] / 4.0, "lower")


def _deff_subspace_mean_summary(rows, setup, params):
    vals = rows.lhs
    mean, se = mean_se(vals)
    # the lower end of the 95% CI must clear the bound: a negative slack
    return [_gate("mean_deff_ci_above_bound", check_bound(
        "DEFF_SUBSPACE_MEAN", mean, {"d_r": setup["d_r"]}, se, -1.96,
        ci95=[mean - 1.96 * se, mean + 1.96 * se],
        fraction_below_quarter=float((vals < setup["d_r"] / 4).mean())))]


def _deff_subspace_tail_trial(setup, params, k, deff):
    d_r = setup["d_r"]
    return check_bound("DEFF_SUBSPACE_TAIL", float(deff < d_r / 4.0), {"d_r": d_r}, deff=deff)


def _deff_subspace_tail_summary(rows, setup, params):
    freq = float(np.mean(rows.lhs))
    return [_gate("tail_frequency_below_bound", check_bound(
        "DEFF_SUBSPACE_TAIL", freq, {"d_r": setup["d_r"]}))]


def _deff_product_setup(params, rng):
    d_sr, d_br = params["d_sr"], params["d_br"]
    # the Haar eigenbasis of a random Hamiltonian on H_SR (x) H_BR, as in
    # _deff_subspace_setup
    v = haar_unitary(d_sr * d_br, rng)
    rhs = evaluate_bound("DEFF_PRODUCT_MEAN", {"d_sr": d_sr, "d_br": d_br})
    return {"eigenbasis": v, "d_sr": d_sr, "d_br": d_br, "rhs": rhs}


def _deff_product_block(setup, params, ks, rngs):
    """d_eff of each trial's dephased product state psi_S (x) psi_B."""
    d_sr, d_br = setup["d_sr"], setup["d_br"]
    # per trial: psi_S's coefficients, then psi_B's
    draws = [(complex_normals(1, (d_sr,), rng), complex_normals(1, (d_br,), rng))
             for rng in rngs]
    a_s, a_b = (_unit_rows(np.concatenate(z)) for z in zip(*draws))
    psi = (a_s[:, :, None] * a_b[:, None, :]).reshape(len(a_s), d_sr * d_br)
    c = psi @ setup["eigenbasis"].conj()        # row i: V^dagger psi_i
    return (1.0 / dephased_purity(np.abs(c) ** 2)).tolist()


def _deff_product_trial(setup, params, k, deff):
    return _row(deff, setup["rhs"], "observation")


def _deff_product_summary(rows, setup, params):
    mean, se = mean_se(rows.lhs)
    inputs = {"d_sr": setup["d_sr"], "d_br": setup["d_br"]}
    return [_gate("mean_deff_ci_above_bound", check_bound(
        "DEFF_PRODUCT_MEAN", mean, inputs, se, -1.96, ci95=[mean - 1.96 * se, mean + 1.96 * se]))]


def _deff_mean_energy_setup(params, rng):
    d = params["d"]
    lo, hi = params["spectrum_low"], params["spectrum_high"]
    # the coefficients are drawn in the eigenbasis: only the spectrum is read
    e = sample_spectrum(d, rng, (lo, hi))
    energy = harmonic_mean(e)
    inputs = {"d": d, "energy": energy, "spectrum": e}
    return {"spectrum": e, "energy": energy, "rhs": evaluate_bound("DEFF_MEAN_ENERGY", inputs),
            "crude": mean_energy_purity_crude_bound(d=d, spectrum=e)}


def _deff_mean_energy_block(setup, params, ks, rngs):
    """(purity, energy) of each trial's dephased mean-energy state."""
    c = mean_energy_coefficients(setup["spectrum"], setup["energy"], len(ks), rngs)
    p = np.abs(c) ** 2
    return list(zip(dephased_purity(p).tolist(), (p @ setup["spectrum"]).tolist()))


def _deff_mean_energy_trial(setup, params, k, item):
    pur, energy = item
    return _row(pur, setup["rhs"], "observation", energy=energy)


def _deff_mean_energy_summary(rows, setup, params):
    pur = rows.lhs
    en = np.array(rows.extras["energy"])
    mean, se = mean_se(pur)
    rhs, energy, e_mean = setup["rhs"], setup["energy"], float(en.mean())
    return [
        _gate("mean_purity_matches_prediction_10pct", _row(
            mean, rhs, "identity", 0.10 * rhs, se, relative_error=abs(mean - rhs) / rhs)),
        _gate("mean_purity_below_crude_cap",
              _row(mean, setup["crude"], "upper", 3 * se, se)),
        _gate("sample_mean_energy_within_5pct", _row(
            e_mean, energy, "identity", 0.05 * energy,
            relative_error=abs(e_mean - energy) / energy)),
        _gate("mean_deff_above_crude_bound",
              _row(float((1.0 / pur).mean()), 1.0 / setup["crude"], "lower")),
    ]


# ---------------------------------------------------------------------------
# equilibration (Reimann / subsystem / purity)
# ---------------------------------------------------------------------------

def _equilibration_trial_base(params, rng):
    """One trial's random H on (d_s, d_b), Haar psi0, time batch and dephased(h, psi0)."""
    d_s, d_b = params["d_s"], params["d_b"]
    h = sample_random_hamiltonian((d_s, d_b), rng)
    psi0 = sample_haar_state(d_s * d_b, rng)
    times = sample_times(h, params["n_times"], rng)
    return h, psi0, times, dephased(h, psi0)


def _expectation_equilibration_trial(setup, params, k, rng):
    d = params["d_s"] * params["d_b"]
    # psi0 is Haar and A is GUE, both unitarily invariant laws, so H's eigenbasis
    # drops out: c0 = V^dagger psi0 and A in the eigenbasis are drawn directly
    h = redraw_until_non_resonant(lambda: Hamiltonian(sample_spectrum(d, rng)))
    c0 = sample_haar_state(d, rng)
    times = sample_times(h, params["n_times"], rng)
    a_eig = sample_gue(d, rng)
    probs = np.abs(c0) ** 2
    deff = 1.0 / dephased_purity(probs)
    x = time_map(h, c0, times, lambda cts: expectation_values(cts, a_eig))
    x_omega = float(probs @ np.diag(a_eig).real)
    lhs, se = mean_se((x - x_omega) ** 2)
    return check_bound("EXPECTATION_EQUILIBRATION", lhs, {"norm_a": 1.0, "deff": deff},
                       se, deff=deff, horizon=float(times.max()))


def _distances(h, psi0, times, omega_s) -> np.ndarray:
    """D(rho^S_t, omega^S) at each time."""
    return time_map(h, psi0, times, lambda psis: trace_distance(
        reduced_marginals(psis, h.dims), omega_s))


def _write_distance_trajectory(out_dir, experiment_id, h, psi0, omega_s, bound):
    """Fig-style D(rho^S_t, omega^S) on PLOT_GRID times in
    [0, PLOT_HORIZON / (E_max - E_min)] but the first, as <ID>_trajectory.csv."""
    width = float(h.eigenvalues[-1] - h.eigenvalues[0])
    grid = np.linspace(0.0, PLOT_HORIZON / width, PLOT_GRID)[1:]
    path = os.path.join(out_dir, f"{experiment_id}_trajectory.csv")
    write_trajectory_csv(path, grid, {"distance": _distances(h, psi0, grid, omega_s),
                                      "bound": np.full(len(grid), bound)})
    return {"trajectory": path}


def _subsystem_equilibration_trial(setup, params, k, rng):
    h, psi0, times, omega = _equilibration_trial_base(params, rng)
    lhs, se = mean_se(_distances(h, psi0, times, omega.omega_s))
    return check_bound("SUBSYSTEM_EQUILIBRATION", lhs,
                       {"d_s": params["d_s"], "deff_b": omega.deff_b}, se,
                       deff=omega.deff, deff_b=omega.deff_b)


def _subsystem_equilibration_artifacts(setup, params, rng, out_dir):
    """Trajectory of D(rho^S_t, omega^S) for trial 0, on a grid."""
    h, psi0, _, omega = _equilibration_trial_base(params, rng)
    bound = evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                           {"d_s": params["d_s"], "deff_b": omega.deff_b})
    return _write_distance_trajectory(out_dir, "SUBSYSTEM_EQUILIBRATION", h, psi0,
                                      omega.omega_s, bound)


def _purity_equilibration_trial(setup, params, k, rng):
    h, psi0, times, omega = _equilibration_trial_base(params, rng)
    deff = omega.deff
    p_s, p_b = time_map(h, psi0, times, lambda psis: (
        purity(reduced_marginals(psis, h.dims)), bath_purities(psis, h.dims)))
    max_sb_diff = float(np.abs(p_s - p_b).max())
    p_omega = purity(omega.omega_s)
    lhs = abs(float(p_s.mean()) - p_omega)
    row = check_bound("PURITY_EQUILIBRATION", lhs, {"d_s": params["d_s"], "deff": deff},
                      deff=deff, purity_sb_max_diff=max_sb_diff, p_omega_s=p_omega)
    row.satisfied &= verdict(max_sb_diff, 1e-10, "upper")   # p_S = p_B for pure states
    return row


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------

def _ergodicity_setup(params, rng):
    d, d_r = params["d"], params["d_r"]
    # B is GUE, so B in H's eigenbasis is GUE too: the eigenbasis drops out
    h = redraw_until_non_resonant(lambda: Hamiltonian(sample_spectrum(d, rng)))
    lo = (d - d_r) // 2
    band = np.arange(lo, lo + d_r)
    b_eig = sample_gue(d, rng)
    diag_band = np.diag(b_eig).real[band]
    block = b_eig[np.ix_(band, band)]
    mc_mean = float(diag_band.mean())
    # window is the band's own Hamiltonian: the cross-check evolves d_r coefficients, not d
    return {"h": h, "window": Hamiltonian(h.eigenvalues[band]),
            "diag_band": diag_band, "block": block, "mc_mean": mc_mean,
            "norm_dephased": float(np.abs(np.diag(b_eig).real).max()), "d_r": d_r}


def _ergodicity_block(setup, params, ks, rngs):
    """(Tr[B omega], sampled time average of Tr[B rho_t] or None) per trial;
    the time average only for the first CROSSCHECK_TRIALS trials."""
    h = setup["h"]
    times = {}

    def streams():
        for k, rng in zip(ks, rngs):
            yield rng          # a is drawn here; the cross-check times straight after it
            if k < CROSSCHECK_TRIALS:
                times[k] = sample_times(h, CROSSCHECK_TIMES, rng)

    a = _haar_coeff_rows(len(ks), setup["d_r"], streams())
    # Tr[B omega] = Tr[$[B] psi0], one dot per row: it sits near 0, where a
    # matrix-vector product's summation order moves it by 1e-12 relative
    lhs = [float(w @ setup["diag_band"]) for w in np.abs(a) ** 2]
    x_mean = [None] * len(a)
    for i, k in enumerate(ks):
        if k in times:
            x = time_map(setup["window"], a[i], times[k],
                         lambda ct: expectation_values(ct, setup["block"]))
            x_mean[i] = float(x.mean())
    return list(zip(lhs, x_mean))


def _ergodicity_trial(setup, params, k, item):
    lhs, x_mean = item
    row = _row(lhs, setup["mc_mean"], "observation")
    if x_mean is not None:
        # the sampled time average of Tr[B rho_t] must reproduce lhs
        row.extra["crosscheck_err"] = abs(x_mean - lhs)
        row.satisfied &= verdict(x_mean, lhs, "identity", CROSSCHECK_TOL)
    return row


def _ergodicity_summary(rows, setup, params):
    vals = rows.lhs
    mean, se = mean_se(vals)
    tail_inputs = {"d_r": setup["d_r"], "epsilon": 0.1,
                   "norm_dephased_b": setup["norm_dephased"]}
    eps_freq = float((np.abs(vals - setup["mc_mean"]) >= 0.1).mean())
    return [
        _gate("mean_time_average_matches_mc_3sigma",
              _row(mean, setup["mc_mean"], "identity", 3 * se, se)),
        _gate("tail_frequency_below_bound", check_bound("ERGODICITY", eps_freq, tail_inputs)),
    ]


# ---------------------------------------------------------------------------
# speed of fluctuations and purity rate
# ---------------------------------------------------------------------------

def _sample_composite(params, rng):
    """GUE H_S, H_B and H_SB at norms 1, 1 and hsb_scale, redrawn until non-resonant."""
    d_s, d_b = params["d_s"], params["d_b"]
    return redraw_until_non_resonant(lambda: compose_hamiltonian(
        sample_gue(d_s, rng, norm=1.0, traceless=True),
        sample_gue(d_b, rng, norm=1.0, traceless=True),
        sample_gue(d_s * d_b, rng, norm=params["hsb_scale"], traceless=True)))


def _rates_map(parts, psi0, times, fn):
    """fn(reduced_rates(psi_t)) over the time blocks of time_map."""
    return time_map(parts, psi0, times, lambda psis: fn(reduced_rates(psis, parts)))


def _speed_pipeline(params, rng, fn):
    """One trial's composite H and product psi0, and fn of the reduced rates
    at its sampled times."""
    d_s, d_b = params["d_s"], params["d_b"]
    parts = _sample_composite(params, rng)
    psi0 = sample_product_state(d_s, d_b, rng)
    deff = dephased(parts, psi0).deff
    times = sample_times(parts, params["n_times"], rng)
    return parts, psi0, _rates_map(parts, psi0, times, fn), deff


def _speed_trial(setup, params, k, rng):
    parts, psi0, v, deff = _speed_pipeline(params, rng, ReducedRates.speeds)
    norm = parts.norm_hs_plus_hsb()
    inputs = {"norm_hs_plus_hsb": norm, "d_s": params["d_s"], "deff": deff}
    fd_ok, fd_err = _fd_check(ReducedRates.speeds, finite_difference_speed,
                              1e-3 * norm, psi0, parts)
    mean, se = mean_se(v)
    row = check_bound("SPEED", mean, inputs, se, deff=deff, fd_max_rel_err=fd_err)
    row.satisfied &= fd_ok
    return row


def _fd_check(rate, fd_fn, floor, psi0, parts):
    """Worst relative gap between rate(reduced_rates(psi_t)), the kernel
    behind the rows, and its central difference fd_fn(h, psi0, t), relative
    to max(|rate|, floor).  A NaN at any instant makes the worst gap NaN,
    which fails the check."""
    # early times, where t +/- delta is exactly representable; the analytic
    # formula is time-independent so any instants serve as a cross-check
    scale = float(np.abs(parts.eigenvalues).max())
    ts = np.linspace(0.5, 8.0, FD_CHECKS) / scale
    analytic = _rates_map(parts, psi0, ts, rate)
    gaps = np.abs(fd_fn(parts, psi0, ts) - analytic) / np.maximum(np.abs(analytic), floor)
    worst = float(np.max(gaps, initial=0.0))
    return verdict(worst, FD_RTOL, "upper"), worst


def _purity_rate_avg_trial(setup, params, k, rng):
    parts, psi0, dp, deff = _speed_pipeline(params, rng, ReducedRates.purity_rates)
    norm_hsb = parts.norm_hsb()
    inputs = {"norm_hsb": norm_hsb, "d_s": params["d_s"], "deff": deff}
    fd_ok, fd_err = _fd_check(ReducedRates.purity_rates, finite_difference_purity_rate,
                              1e-3 * 2 * norm_hsb, psi0, parts)
    mean, se = mean_se(np.abs(dp))
    row = check_bound("PURITY_RATE_AVG", mean, inputs, se, deff=deff, fd_max_rel_err=fd_err)
    row.satisfied &= fd_ok
    return row


def _purity_rate_instant_trial(setup, params, k, rng):
    parts, _, (dp, rho_s), deff = _speed_pipeline(
        params, rng, lambda rates: (rates.purity_rates(), rates.rho_s))
    norm_hsb = parts.norm_hsb()
    # the global state is pure, so I_SB = 2 S(rho^S_t)
    rhs_t = np.array([evaluate_bound("PURITY_RATE_INSTANT", {
        "purity_s": p, "mutual_info": 2 * s, "norm_hsb": norm_hsb})
        for p, s in zip(purity(rho_s), von_neumann_entropy(rho_s))])
    floor = 1e-12 * norm_hsb
    ratios = np.abs(dp) / np.maximum(rhs_t, floor)
    ratios[np.abs(dp) <= floor] = 0.0
    return _row(float(ratios.max()), 1.0, "upper",
                deff=deff, max_abs_rate=float(np.abs(dp).max()))


# ---------------------------------------------------------------------------
# decoherence: commutator lemma, slow states, einselection
# ---------------------------------------------------------------------------

def _commutator_lower_block(setup, params, ks, rngs):
    """(a, rho) per trial, drawn from the trial's stream."""
    lo, hi = params["dim_min"], params["dim_max"]
    draws = []
    for rng in rngs:
        n = int(rng.integers(lo, hi + 1))
        a_vals = np.sort(rng.random(n))
        draws.append((a_vals, _mixed_density(n, rng)))
    return draws


def _commutator_lower_trial(setup, params, k, item):
    a_vals, rho = item
    n = len(a_vals)
    lhs = trace_norm(1j * commutator(rho, np.diag(a_vals)))  # [rho,A] is anti-Hermitian
    pairing = max_pairing_offdiagonal_sum(a_vals, rho)
    rhs = evaluate_bound("COMMUTATOR_LOWER", {"pairing_sum": pairing})
    # an exact inequality: the slack only absorbs rounding
    return _row(lhs, rhs, "lower", 1e-9, dim=n, pairing=pairing)


def _slow_states_run(params, rng, coupling):
    """Weak-coupling trajectory from a product state; the slow-states ratio
    max_pairing / (|H_SB| + v_S) at every sampled time, in H_S's eigenbasis."""
    d_s, d_b = params["d_s"], params["d_b"]

    def draw():   # GUE H_S, H_B at norm 1, H_SB at norm coupling x H_S's minimal gap
        h_s = sample_gue(d_s, rng, norm=1.0, traceless=True)
        norm_sb = coupling * float(np.diff(np.linalg.eigh(h_s)[0]).min())
        return compose_hamiltonian(h_s, sample_gue(d_b, rng, norm=1.0, traceless=True),
                                   sample_gue(d_s * d_b, rng, norm=norm_sb, traceless=True))
    parts = redraw_until_non_resonant(draw)
    e_s, w_s = np.linalg.eigh(parts.h_s)   # the split's H_S, which the rates and |H_SB| read
    psi0 = sample_product_state(d_s, d_b, rng)
    times = sample_times(parts, params["n_times"], rng)
    speeds, rho_in_hs = _rates_map(parts, psi0, times, lambda rates: (
        rates.speeds(), dagger(w_s) @ rates.rho_s @ w_s))
    pairings = max_pairing_offdiagonal_sum(e_s, rho_in_hs)
    norm_hsb = parts.norm_hsb()
    return pairings / (norm_hsb + speeds), speeds, rho_in_hs, e_s, norm_hsb


def _decoherence_trial(setup, params, k, rng):
    ratios, _, _, e_s, norm_hsb = _slow_states_run(params, rng, params["coupling"])
    return _row(float(ratios.max(initial=0.0)), 1.0, "upper", 1e-9,
                norm_hsb=norm_hsb, min_gap_hs=float(np.diff(e_s).min()))


def _einselection_rows(setup, params, k, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    blocks = [sample_gue(d_b, rng, norm=1.0) for _ in range(d_s)]
    h = pointer_hamiltonian(d_s, blocks)
    # equal-weight superposition with random relative phases: maximal coherence
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d_s - 1))
    psi_s = np.concatenate(([1.0], phases)) / np.sqrt(d_s)
    psi_b = sample_haar_state(d_b, rng)
    rho_s0 = np.outer(psi_s, psi_s.conj())
    psi0 = np.kron(psi_s, psi_b)
    grid = np.linspace(0.0, EINSELECTION_T_MAX, EINSELECTION_GRID)[1:]
    rho_s_t = time_map(h, psi0, grid, lambda psis: reduced_marginals(psis, (d_s, d_b)))

    diag_drift = float(np.abs(
        np.diagonal(rho_s_t, axis1=1, axis2=2) - np.diag(rho_s0)[None, :]).max())

    # suppression factor of every pointer pair (i, j):
    # rho^S_ij(t) / rho^S_ij(0) = <psi_B| U_j^dag U_i |psi_B>, recomputed from
    # the bath blocks' propagators U_p = exp(-i H^(p) t)
    eigs = [np.linalg.eigh(b) for b in blocks]
    i, j = np.triu_indices(d_s, 1)
    f_direct = np.empty((len(grid), len(i)), dtype=complex)
    for n, t in enumerate(grid):
        u = [(v * np.exp(-1j * e * t)) @ dagger(v) for e, v in eigs]
        f_direct[n] = [psi_b.conj() @ (dagger(u[q]) @ u[p] @ psi_b) for p, q in zip(i, j)]
    f_sim = rho_s_t[:, i, j] / rho_s0[i, j]
    late = grid >= LATE_WINDOW_START

    # equal-blocks control: no decoherence at all
    h_eq = pointer_hamiltonian(d_s, [blocks[0]] * d_s)
    rho_eq_t = time_map(h_eq, psi0, grid, lambda psis: reduced_marginals(psis, (d_s, d_b)))
    drift_eq = float(np.abs(rho_eq_t - rho_s0[None, :, :]).max())

    # generic weak-coupling variant: slow-states bound + off-diagonal
    # consequence, judged at the pair of H_S eigenstates it binds least
    ratios, speeds, rho_in_hs, e_s, norm_hsb = _slow_states_run(params, rng, 0.01)
    coherences = np.abs(rho_in_hs[:, i, j]).mean(axis=0)
    gaps = np.abs(e_s[j] - e_s[i])
    worst = int(np.argmax(coherences * gaps))
    gap = gaps[worst]
    return [
        _row(diag_drift, 1e-10, "upper", check="pointer_diagonal_drift"),
        _row(np.abs(f_sim - f_direct).max(), 1e-9, "upper",
             check="suppression_factor_agreement"),
        _row(np.abs(f_sim[late]).mean(axis=0).max(), LATE_SUPPRESSION_CAP, "upper",
             check="late_time_suppression"),
        _row(drift_eq, 1e-10, "upper", check="equal_blocks_state_frozen"),
        _row(ratios.max(initial=0.0), 1.0, "upper", 1e-9,
             check="weak_coupling_slow_states_bound"),
        _row(coherences[worst], 5.0 * (norm_hsb + speeds.mean()) / gap,
             "upper", check="offdiagonal_suppression_consequence",
             norm_hsb=norm_hsb, gap=gap),
    ]


# ---------------------------------------------------------------------------
# initial state independence and the second law
# ---------------------------------------------------------------------------

def _marginal_diameter(mu: np.ndarray) -> float:
    """max over pairs i < j of D(mu_i, mu_j); NaN if any distance is NaN.
    The np.triu_indices pairs go to trace_distance in batches of about
    BLOCK_ENTRIES matrix entries, so memory stays bounded at d = 1024."""
    i, j = np.triu_indices(len(mu), 1)
    step = max(1, BLOCK_ENTRIES // mu[0].size)
    return float(np.max([trace_distance(mu[i[a:a + step]], mu[j[a:a + step]]).max()
                         for a in range(0, len(i), step)], initial=0.0))


def _isi_trial(setup, params, k, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    d = d_s * d_b
    h = sample_random_hamiltonian((d_s, d_b), rng)
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))
    delta_pair = _marginal_diameter(mu)
    delta_ent = 2 * float(trace_distance(mu, np.eye(d_s) / d_s).max())

    psi = sample_haar_state(d, rng)
    phi = sample_haar_state(d, rng)
    phi = phi - np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)

    times = sample_times(h, params["n_times"], rng)

    def distances(psis):
        rho = reduced_marginals(psis, (d_s, d_b))
        return trace_distance(rho[:, 0], rho[:, 1])
    pair = np.stack([psi, phi])
    dist = time_map(h, pair, times, distances)
    deff_b = dephased(h, pair).deff_b.tolist()
    inputs = {"d_s": d_s, "deff_rho_b": deff_b[0], "deff_sigma_b": deff_b[1], "delta": delta_pair}
    mean, se = mean_se(dist)
    return check_bound("ISI", mean, inputs, se, delta_measured=delta_pair,
                       delta_entangled=delta_ent, delta_target=0.05)


def _isi_linden_setup(params, rng):
    d_s, d_b, d_r = params["d_s"], params["d_b"], params["d_r"]
    # the eigenvectors of a random band of a random Hamiltonian are d_r columns
    # of a Haar eigenbasis, a Haar isometry: neither the spectrum nor the band's
    # positions are read
    band = haar_unitary(d_s * d_b, rng, d_r)
    mu = reduced_marginals(band.T, (d_s, d_b))
    delta = float(purity(mu).mean())  # Linden delta
    rho_mc_s = mu.mean(axis=0)
    setup = {"mu": mu, "delta": delta, "rho_mc_s": rho_mc_s, "d_r": d_r, "d_s": d_s}
    return {**setup, "rhs": evaluate_bound("ISI_LINDEN_DELTA", _isi_linden_inputs(setup))}


def _isi_linden_block(setup, params, ks, rngs):
    """D(omega^S, rho_mc^S) of each trial's dephased marginal."""
    w = np.abs(_haar_coeff_rows(len(ks), setup["d_r"], rngs)) ** 2
    omega_s = np.einsum("nk,kij->nij", w, setup["mu"])
    return trace_distance(omega_s, setup["rho_mc_s"]).tolist()


def _isi_linden_trial(setup, params, k, distance):
    return _row(distance, setup["rhs"], "observation")


def _isi_linden_inputs(setup) -> dict:
    return {"d_s": setup["d_s"], "d_r": setup["d_r"], "delta": setup["delta"]}


def _isi_linden_summary(rows, setup, params):
    mean, se = mean_se(rows.lhs)
    return [_gate("mean_distance_below_linden_bound", check_bound(
        "ISI_LINDEN_DELTA", mean, _isi_linden_inputs(setup), se, 3.0,
        linden_delta=setup["delta"]))]


def _entangled_state_tail_block(setup, params, ks, rngs):
    """D(rho^S, 1/d_S) of each trial's Haar-random bipartite state."""
    d_s, d_b = params["d_s"], params["d_b"]
    rho_s = reduced_marginals(_haar_coeff_rows(len(ks), d_s * d_b, rngs), (d_s, d_b))
    return trace_distance(rho_s, np.eye(d_s) / d_s).tolist()


def _entangled_state_tail_trial(setup, params, k, dist):
    return check_bound("ENTANGLED_STATE_TAIL", float(dist >= params["epsilon"]),
                       _entangled_inputs(params), distance=dist)


def _entangled_inputs(params) -> dict:
    return {"d_s": params["d_s"], "d_b": params["d_b"], "epsilon": params["epsilon"]}


def _entangled_state_tail_summary(rows, setup, params):
    freq = float(np.mean(rows.lhs))
    return [
        _gate("tail_frequency_below_bound",
              check_bound("ENTANGLED_STATE_TAIL", freq, _entangled_inputs(params))),
        _gate("entangled_fraction_at_least_99pct", _row(1.0 - freq, 0.99, "lower")),
    ]


def _entangled_eigs_trial(setup, params, k, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    # only the eigenvectors of a random Hamiltonian are read: a Haar unitary
    v = haar_unitary(d_s * d_b, rng)
    dists = trace_distance(reduced_marginals(v.T, (d_s, d_b)), np.eye(d_s) / d_s)
    lhs = float(dists.max())
    thr = params["threshold"]
    rhs_analytic = evaluate_bound("ENTANGLED_EIGS_TAIL", {
        "d": d_s * d_b, "d_s": d_s, "d_b": d_b, "epsilon": thr})
    return _row(lhs, thr, "upper", analytic_tail_at_threshold=rhs_analytic)


def _levy_setup(params, rng):
    # by unitary invariance only the spectrum of the GUE observable (norm 1) enters
    return {"spectrum": hermitian_spectrum(sample_gue(params["d_r"], rng))}


def _levy_trial(setup, params, k, rng):
    eps = params["epsilon"]
    spectrum = setup["spectrum"]
    f = _haar_expectations(spectrum, params["n_samples"], rng)
    mean_f = float(spectrum.mean())
    lhs = float((np.abs(f - mean_f) >= eps).mean())
    inputs = {"d": 2 * params["d_r"], "epsilon": eps, "eta": 2.0}  # real sphere dim, eta = 2|B|
    return check_bound("LEVY", lhs, inputs, mean_f=float(f.mean()), mc_mean=mean_f)


# ---------------------------------------------------------------------------
# equilibration-time estimates
# ---------------------------------------------------------------------------

def _eq_time_heisenberg_trial(setup, params, k, rng):
    d = params["d"]
    # psi0 is Haar on the band, in eigenbasis coordinates: an uncertified spectrum serves
    e = sample_spectrum(d, rng)
    lo, hi = d // 4, 3 * d // 4
    delta_e = float(e[hi - 1] - e[lo])
    (a,) = haar_coefficient_blocks(1, hi - lo, rng)
    probs = np.abs(a[0]) ** 2
    e_band = e[lo:hi]
    # for pure rho_t, i[H, rho_t] has rank 2 with eigenvalues +-Delta H, so
    # (1/2)||[H, rho_t]||_1 = Delta H at every t: the energy spread of psi_0
    speed = float(np.sqrt(probs @ (e_band - probs @ e_band) ** 2))
    return _row(speed, delta_e, "upper", 1e-12,
                heisenberg_time=1.0 / delta_e, delta_e=delta_e)


def _eq_time_purity_trial(setup, params, k, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    parts = _sample_composite(params, rng)
    psi0 = sample_product_state(d_s, d_b, rng)
    p_eq = purity(dephased(parts, psi0)[1])
    norm_hsb = parts.norm_hsb()
    t_max = EQ_TIME_HORIZON / norm_hsb
    grid = np.linspace(0.0, t_max, EQ_TIME_GRID)[1:]
    # only the first grid point with p_t <= p_eq is read: evolve the grid 256
    # points at a time and stop after the first chunk that crosses
    for a in range(0, len(grid), 256):
        p_t = time_map(parts, psi0, grid[a:a + 256],
                       lambda psis: purity(reduced_marginals(psis, (d_s, d_b))))
        below = a + np.nonzero(p_t <= p_eq)[0]
        if len(below):
            break
    crossed = bool(len(below))
    # without a crossing on the grid the crossing time is only known to be
    # >= t_max: that supports the bound when t_max >= rhs, else it is inconclusive
    t_emp = float(grid[below[0]]) if crossed else t_max
    row = check_bound("EQ_TIME_PURITY", t_emp, {"p_eq": p_eq, "d_s": d_s, "norm_hsb": norm_hsb},
                      p_eq=p_eq, norm_hsb=norm_hsb, crossed=crossed)
    row.vacuous = not (crossed or row.satisfied)
    return row


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def _second_law_rows(setup, params, k, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    d = d_s * d_b
    h = sample_random_hamiltonian((d_s, d_b), rng)
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))
    delta_pair = _marginal_diameter(mu)

    psi0 = np.zeros(d, dtype=complex); psi0[0] = 1.0          # |0>_S |0>_B
    sig0 = np.zeros(d, dtype=complex); sig0[d_b] = 1.0        # |1>_S |0>_B
    times = sample_times(h, params["n_times"], rng)
    pair = np.stack([psi0, sig0])
    omega = dephased(h, pair)
    omega_s, (deff_b, deff_sigma_b) = omega.omega_s[0], omega.deff_b.tolist()

    def distances(psis):
        rho = reduced_marginals(psis, (d_s, d_b))
        return trace_distance(rho[:, 0], omega_s), trace_distance(rho[:, 0], rho[:, 1])
    d_eq, d_isi = time_map(h, pair, times, distances)

    isi_inputs = {"d_s": d_s, "deff_rho_b": deff_b, "deff_sigma_b": deff_sigma_b,
                  "delta": delta_pair}
    s_omega = von_neumann_entropy(omega_s)
    return [
        check_bound("SUBSYSTEM_EQUILIBRATION", float(d_eq.mean()),
                    {"d_s": d_s, "deff_b": deff_b}, check="equilibration_from_pure_product_start"),
        check_bound("ISI", float(d_isi.mean()), isi_inputs,
                    check="initial_state_independence", delta_measured=delta_pair),
        _row(s_omega, float(np.log(d_s)) - ENTROPY_SLACK, "lower",
             check="equilibrium_entropy_near_maximal", log_ds=float(np.log(d_s)),
             initial_entropy=0.0),
    ]


def _distance_trajectory_setup(params, rng):
    d_s, d_b = params["d_s"], params["d_b"]
    h = sample_random_hamiltonian((d_s, d_b), rng)
    psi_b = sample_haar_state(d_b, rng)
    psi0 = np.kron(np.eye(d_s, dtype=complex)[0], psi_b)   # |0>_S |psi_B>
    omega = dephased(h, psi0)
    bound = evaluate_bound("SUBSYSTEM_EQUILIBRATION", {"d_s": d_s, "deff_b": omega.deff_b})
    return {"h": h, "psi0": psi0, "omega_s": omega.omega_s, "bound": bound}


def _distance_trajectory_trial(setup, params, k, rng):
    h = setup["h"]
    times = sample_times(h, params["n_times"], rng)
    psi0 = setup["psi0"]
    mean, se = mean_se(_distances(h, psi0, times, setup["omega_s"]))
    return _row(mean, setup["bound"], "upper", stderr=se,
                initial_distance=trace_distance(reduced_marginals(psi0, h.dims),
                                                 setup["omega_s"]))


def _distance_trajectory_artifacts(setup, params, rng, out_dir):
    return _write_distance_trajectory(out_dir, "DISTANCE_TRAJECTORY", setup["h"], setup["psi0"],
                                      setup["omega_s"], setup["bound"])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_MC_DEFAULTS = {"d_r": 32, "rank_b": 0, "n_samples": 100_000, "trials": 1}
_SUBSPACE = {"d_r": ("<=", "dimension")}   # a subspace may fill its space
# time averages assume non-degenerate gaps, and two levels have one gap: "dimension" >= 3


def _bipartite(params) -> int:
    return params["d_s"] * params["d_b"]


EXPERIMENTS: dict[str, ExperimentDef] = {}


def _register(exp: ExperimentDef):
    EXPERIMENTS[exp.experiment_id] = exp


_register(ExperimentDef(
    "MC_VARIANCE_IDENTITY",
    "variance of Tr[B psi] over Haar states equals the microcanonical variance / (d_R+1)",
    {**_MC_DEFAULTS}, _mc_setup, _mc_variance_identity_trial,
    dimension=itemgetter("d_r"), limits={"rank_b": ("<", "d_r")},
    minimums={"n_samples": 2, "rank_b": 0, "d_r": 2}))

_register(ExperimentDef(
    "MC_CONCENTRATION",
    "tail of |Tr[B psi] - <B>_mc| vs the exponential concentration bound",
    {**_MC_DEFAULTS, "epsilon": 0.25}, _mc_setup, _mc_concentration_trial,
    dimension=itemgetter("d_r"), limits={"rank_b": ("<", "d_r")},
    minimums={"n_samples": 2, "rank_b": 0, "d_r": 2}))

_register(ExperimentDef(
    "MC_VARIANCE_CONCENTRATION",
    "tail of |sigma^2_psi - sigma^2_mc| vs the two-term concentration bound",
    {**_MC_DEFAULTS, "n_samples": 20_000, "epsilon": 0.1},
    _mc_setup, _mc_variance_concentration_trial,
    dimension=itemgetter("d_r"), limits={"rank_b": ("<", "d_r")},
    minimums={"rank_b": 0, "d_r": 2}))

_register(ExperimentDef(
    "COARSE_GRAINED",
    "deviation of all coarse macro observables at once vs the union bound",
    {"d": 64, "d_r": 32, "m": 4, "n_samples": 20_000, "epsilon": 0.2, "trials": 1},
    _coarse_grained_setup, _coarse_grained_trial,
    limits=_SUBSPACE, dimension=itemgetter("d")))

_register(ExperimentDef(
    "CANONICAL_REDUCTION",
    "trace distance of reduced random states from the reduced microcanonical state",
    {"d_s": 2, "d_b": 32, "d_r": 32, "n_samples": 2000, "epsilon": 0.1, "trials": 1},
    _canonical_reduction_setup, _canonical_reduction_trial,
    limits=_SUBSPACE, dimension=_bipartite))

_register(ExperimentDef(
    "DEFF_SUBSPACE_MEAN",
    "mean effective dimension of dephased subspace states vs d_R/2",
    {"d_r": 64, "ambient": 0, "trials": 2000},
    _deff_subspace_setup, _deff_subspace_mean_trial, _deff_subspace_mean_summary,
    limits=_SUBSPACE, dimension=_deff_subspace_ambient, minimums={"trials": 2, "ambient": 0},
    block=_deff_subspace_block))

_register(ExperimentDef(
    "DEFF_SUBSPACE_TAIL",
    "frequency of d_eff < d_R/4 vs the (vacuous at desk dims) tail bound",
    {"d_r": 64, "ambient": 0, "trials": 2000},
    _deff_subspace_setup, _deff_subspace_tail_trial, _deff_subspace_tail_summary,
    limits=_SUBSPACE, dimension=_deff_subspace_ambient, minimums={"ambient": 0},
    block=_deff_subspace_block))

_register(ExperimentDef(
    "DEFF_PRODUCT_MEAN",
    "mean effective dimension of dephased product states vs (d_SR+1)(d_BR+1)/4",
    {"d_sr": 4, "d_br": 32, "trials": 2000},
    _deff_product_setup, _deff_product_trial, _deff_product_summary,
    dimension=lambda p: p["d_sr"] * p["d_br"], minimums={"trials": 2},
    block=_deff_product_block))

_register(ExperimentDef(
    "DEFF_MEAN_ENERGY",
    "mean purity of dephased mean-energy-ensemble states vs (2E^2/d^2) sum 1/E_k^2",
    {"d": 64, "spectrum_low": 1.0, "spectrum_high": 2.0, "trials": 20_000},
    _deff_mean_energy_setup, _deff_mean_energy_trial, _deff_mean_energy_summary,
    dimension=itemgetter("d"), minimums={"trials": 2}, block=_deff_mean_energy_block))

_register(ExperimentDef(
    "EXPECTATION_EQUILIBRATION",
    "time variance of Tr[A rho_t] vs |A|^2/d_eff",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _expectation_equilibration_trial,
    dimension=_bipartite, minimums={"n_times": 2, "dimension": 3}))

_register(ExperimentDef(
    "SUBSYSTEM_EQUILIBRATION",
    "time-averaged trace distance from the dephased reduced state vs the d_eff bound",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _subsystem_equilibration_trial, None, _subsystem_equilibration_artifacts,
    dimension=_bipartite, minimums={"n_times": 2, "dimension": 3}))

_register(ExperimentDef(
    "PURITY_EQUILIBRATION",
    "time-averaged subsystem purity vs purity of the dephased state",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _purity_equilibration_trial,
    dimension=_bipartite, minimums={"dimension": 3}))

_register(ExperimentDef(
    "ERGODICITY",
    "time averages equal microcanonical averages over random initial states",
    {"d": 128, "d_r": 64, "trials": 2000},
    _ergodicity_setup, _ergodicity_trial, _ergodicity_summary,
    limits=_SUBSPACE, dimension=itemgetter("d"),
    minimums={"trials": 2, "dimension": 3},
    block=_ergodicity_block))

_register(ExperimentDef(
    "SPEED",
    "time-averaged subsystem speed vs the d_eff bound, with finite-difference checks",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5},
    None, _speed_trial,
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 2, "n_times": 2}))

_register(ExperimentDef(
    "PURITY_RATE_AVG",
    "time-averaged |dp^S/dt| vs the interaction-norm bound",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5},
    None, _purity_rate_avg_trial,
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 2, "n_times": 2}))

_register(ExperimentDef(
    "PURITY_RATE_INSTANT",
    "pointwise |dp^S/dt| vs the mutual-information bound at every sampled time",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5},
    None, _purity_rate_instant_trial,
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 2}))

_register(ExperimentDef(
    "COMMUTATOR_LOWER",
    "pairing lower bound on the commutator trace norm (exact inequality)",
    {"trials": 1000, "dim_min": 2, "dim_max": 8},
    None, _commutator_lower_trial,
    dimension=itemgetter("dim_max"), block=_commutator_lower_block,
    limits={"dim_min": ("<=", "dim_max")}))

_register(ExperimentDef(
    "DECOHERENCE",
    "slow-states inequality pointwise along weak-coupling trajectories",
    {"d_s": 4, "d_b": 32, "trials": 20, "n_times": 200, "coupling": 0.01},
    None, _decoherence_trial,
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 2}))

_register(ExperimentDef(
    "EINSELECTION_DEMO",
    "pointer-basis Hamiltonian demo: frozen diagonals, suppression factors, weak variant",
    {"d_s": 2, "d_b": 64, "trials": 1, "n_times": 200},
    None, _einselection_rows,
    # on the window t >= LATE_WINDOW_START the |f| of a d_b-level Haar bath state is about
    # Rayleigh, of mean sqrt(pi / (4 d_b)): d_b >= 16 = ceil(pi / (4 (0.75
    # LATE_SUPPRESSION_CAP)^2)) keeps it within 3/4 of the cap
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 16}))

_register(ExperimentDef(
    "ISI",
    "marginals of two orthogonal initial states stay close when eigenstates are entangled",
    {"d_s": 2, "d_b": 64, "trials": 20, "n_times": 1000},
    None, _isi_trial,
    dimension=_bipartite, minimums={"n_times": 2, "dimension": 3}))

_register(ExperimentDef(
    "ISI_LINDEN_DELTA",
    "mean distance of the dephased marginal from the reduced microcanonical state",
    {"d_s": 2, "d_b": 32, "d_r": 16, "trials": 500},
    _isi_linden_setup, _isi_linden_trial, _isi_linden_summary,
    limits=_SUBSPACE, dimension=_bipartite, minimums={"trials": 2},
    block=_isi_linden_block))

_register(ExperimentDef(
    "ENTANGLED_STATE_TAIL",
    "random bipartite states have near-maximally-mixed marginals",
    {"d_s": 2, "d_b": 64, "trials": 1000, "epsilon": 0.25},
    None, _entangled_state_tail_trial, _entangled_state_tail_summary,
    dimension=_bipartite, block=_entangled_state_tail_block))

_register(ExperimentDef(
    "ENTANGLED_EIGS_TAIL",
    "all eigenvector marginals of random Hamiltonians are close to maximally mixed",
    {"d_s": 2, "d_b": 32, "trials": 20, "threshold": 0.35},
    None, _entangled_eigs_trial,
    dimension=_bipartite))

_register(ExperimentDef(
    "LEVY",
    "concentration of a Lipschitz observable on the state sphere",
    {"d_r": 32, "n_samples": 20_000, "epsilon": 0.1, "trials": 1},
    _levy_setup, _levy_trial,
    dimension=itemgetter("d_r")))

_register(ExperimentDef(
    "EQ_TIME_HEISENBERG",
    "global state speed never exceeds the populated energy-window width",
    {"d": 64, "trials": 10},
    None, _eq_time_heisenberg_trial,
    dimension=itemgetter("d"), minimums={"d": 3}))   # the band [d/4, 3d/4) needs two levels

_register(ExperimentDef(
    "EQ_TIME_PURITY",
    "time to reach the equilibrium purity respects the ODE lower bound",
    {"d_s": 2, "d_b": 64, "trials": 10, "hsb_scale": 0.3},
    None, _eq_time_purity_trial,
    dimension=_bipartite, minimums={"d_s": 2, "d_b": 2}))

_register(ExperimentDef(
    "SECOND_LAW_DEMO",
    "entropy increase, equilibration and initial-state independence for fixed pure starts",
    {"d_s": 2, "d_b": 64, "trials": 5, "n_times": 1000},
    None, _second_law_rows,
    dimension=_bipartite, minimums={"d_s": 2, "dimension": 3}))

_register(ExperimentDef(
    "DISTANCE_TRAJECTORY",
    "Fig-style curve of D(rho^S_t, omega^S) from a far-from-equilibrium start",
    {"d_s": 2, "d_b": 32, "trials": 1, "n_times": 2000},
    _distance_trajectory_setup, _distance_trajectory_trial, None,
    _distance_trajectory_artifacts,
    dimension=_bipartite, minimums={"n_times": 2, "dimension": 3}))
