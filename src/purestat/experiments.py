"""Named experiments: one per theorem in the bound catalog, plus demos.

Every experiment is deterministic given (params, seed).  Shared setup
objects come from the setup stream, trial k owns trial_stream(seed, k), so
results are independent of execution order and worker count.

Experiments of many tiny trials also define a block hook: it draws a whole
block of trials from their own streams (ensembles.trial_streams) and runs
their numerics once over the stacked draws; the trial hook then only
judges the row of one trial from its item.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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
    SETUP_DOMAIN,
    canonical_subspace_basis,
    complex_normal_rows,
    haar_coefficient_blocks,
    haar_unitary,
    harmonic_mean,
    mean_energy_coefficients,
    sample_haar_state,
    sample_product_state,
    sample_random_hamiltonian,
    stream,
    trial_stream,
    trial_streams,
)
from .hamiltonians import Hamiltonian, compose_hamiltonian, pointer_hamiltonian
from .linalg import BLOCK_ENTRIES, commutator, dagger, trace_norm
from .states import (
    PureState,
    effective_dimension,
    expectation_values,
    microcanonical_state,
    purity,
    trace_distance,
    von_neumann_entropy,
)

__all__ = ["ExperimentDef", "EXPERIMENTS", "experiment_ids", "mean_se", "bootstrap"]


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
    setup: object = None          # (params, seed) -> object
    # (setup, params, seed, k) -> TrialRecord | [TrialRecord]; with a block
    # hook, (setup, params, seed, k, item) -> TrialRecord
    trial: object = None
    # (rows, setup, params) -> list[dict] of summary gates; rows is the
    # harness's TrialRows, whose columns (rows.lhs, rows.extras[key]) it reads
    summary: object = None
    artifacts: object = None      # (setup, params, seed, out_dir) -> dict of files
    # (params) -> the largest Hilbert-space dimension the experiment builds
    dimension: object = field(kw_only=True)
    # the parameter sizing a subspace, which may not exceed dimension(params)
    subspace: str | None = field(default=None, kw_only=True)
    # parameter -> smallest accepted value (a count that feeds std(ddof=1) needs 2)
    minimums: dict = field(default_factory=dict, kw_only=True)
    below: dict = field(default_factory=dict, kw_only=True)  # key -> the key it must lie below
    # (setup, params, seed, ks) -> one item per trial index in ks, computed
    # together from each trial's own stream; the harness passes ks as one
    # block of consecutive indices starting at a multiple of the block size
    block: object = field(default=None, kw_only=True)


def _setup_stream(seed: int) -> np.random.Generator:
    return stream(seed, SETUP_DOMAIN)


def _gue(d: int, rng: np.random.Generator, norm: float = 1.0,
         traceless: bool = False) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (z + dagger(z)) / 2
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    h *= norm / np.abs(np.linalg.eigvalsh(h)).max()
    return h


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _haar_map(fn, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """fn of each block of haar_coefficient_blocks(n, d, rng), concatenated:
    one value per sample, and no (n, d) array."""
    return np.concatenate([fn(a) for a in haar_coefficient_blocks(n, d, rng)])


def _haar_coeff_rows(streams, d: int) -> np.ndarray:
    """One row per stream: its normalised complex_normal_rows row."""
    return _unit_rows(complex_normal_rows(streams, d))


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(n), for n >= 2 samples."""
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))


def _mixed_density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ dagger(g)
    return m / np.trace(m).real


_N_BOOT = 200   # resamples of every bootstrap


def bootstrap(values: np.ndarray, statistic, rng: np.random.Generator) -> np.ndarray:
    """statistic of _N_BOOT resamples of values, drawn with replacement from rng."""
    n = len(values)
    return np.array([statistic(values[rng.integers(0, n, size=n)]) for _ in range(_N_BOOT)])


# ---------------------------------------------------------------------------
# microcanonical typicality (subspace sampling in subspace coordinates)
# ---------------------------------------------------------------------------

def _mc_setup(params, seed):
    d_r = int(params["d_r"])
    rank = int(params.get("rank_b") or d_r // 2)
    rng = _setup_stream(seed)
    u = haar_unitary(d_r, rng)
    b = (u[:, :rank] @ dagger(u[:, :rank]))  # rank-`rank` projector inside H_R
    return {"b": b, "d_r": d_r, "rank": rank,
            "mc_mean": rank / d_r, "mc_mean2": rank / d_r}


def _mc_sample_expectations(setup, params, seed, k):
    n = int(params["n_samples"])
    rng = trial_stream(seed, k)
    return _haar_map(lambda a: expectation_values(a, setup["b"]), n, setup["d_r"], rng), rng


def _mc_variance_identity_trial(setup, params, seed, k):
    x, rng = _mc_sample_expectations(setup, params, seed, k)
    lhs = float(x.var(ddof=1))
    se = float(bootstrap(x, lambda v: v.var(ddof=1), rng).std(ddof=1))
    inputs = {"d_r": setup["d_r"], "mc_mean_b": setup["mc_mean"],
              "mc_mean_b2": setup["mc_mean2"]}
    return check_bound("MC_VARIANCE_IDENTITY", lhs, inputs, se, 3.0,
                       mean=float(x.mean()), n_samples=len(x))


def _mc_concentration_trial(setup, params, seed, k):
    x, _ = _mc_sample_expectations(setup, params, seed, k)
    eps = float(params["epsilon"])
    dev = np.abs(x - setup["mc_mean"])
    lhs = float((dev >= eps).mean())
    se = float(np.sqrt(max(lhs * (1 - lhs), 1.0 / len(x)) / len(x)))
    inputs = {"d_r": setup["d_r"], "epsilon": eps, "norm_b": 1.0}
    mean, se_mean = mean_se(x)
    return check_bound("MC_CONCENTRATION", lhs, inputs, se, mean=mean, se_mean=se_mean,
                       mad=float(dev.mean()), mc_mean=setup["mc_mean"])


def _mc_variance_concentration_trial(setup, params, seed, k):
    x, _ = _mc_sample_expectations(setup, params, seed, k)
    eps = float(params["epsilon"])
    # per-sample variance sigma_psi^2 = Tr[B^2 psi] - (Tr[B psi])^2; B projector
    sigma2 = x - x ** 2
    sigma2_mc = setup["mc_mean2"] - setup["mc_mean"] ** 2
    lhs = float((np.abs(sigma2 - sigma2_mc) > eps).mean())  # ||B|| = 1
    return check_bound("MC_VARIANCE_CONCENTRATION", lhs, {"d_r": setup["d_r"], "epsilon": eps},
                       sigma2_mc=sigma2_mc, mean_sigma2=float(sigma2.mean()))


def _coarse_grained_setup(params, seed):
    d, d_r, m = int(params["d"]), int(params["d_r"]), int(params["m"])
    if d % m:
        raise ValueError("macro-state count m must divide the dimension")
    rng = _setup_stream(seed)
    w = haar_unitary(d, rng)
    groups = [w[:, r * (d // m):(r + 1) * (d // m)] for r in range(m)]
    v0 = haar_unitary(d, rng)
    basis_r = v0[:, :d_r]
    pi_r = basis_r @ dagger(basis_r)
    # Tr[P_r Pi_R] / d_R for the macro projector P_r = g_r g_r^dagger of each group
    mc = np.array([np.trace(g @ dagger(g) @ pi_r).real / d_r for g in groups])
    return {"basis_r": basis_r, "mc": mc, "groups": groups, "d": d, "d_r": d_r, "m": m}


def _coarse_grained_trial(setup, params, seed, k):
    n = int(params["n_samples"])
    eps = float(params["epsilon"])

    def deviations(a):
        psi = a @ setup["basis_r"].T                # (rows, d)
        devs = np.zeros(len(a))
        for r, g in enumerate(setup["groups"]):
            t_r = np.abs(psi @ g.conj()) ** 2       # (rows, d/m) overlaps
            devs += np.abs(t_r.sum(axis=1) - setup["mc"][r])
        return devs
    devs = _haar_map(deviations, n, setup["d_r"], trial_stream(seed, k))
    lhs = float((devs >= eps).mean())               # max_A over alpha_r in [-1,1]
    inputs = {"d_r": setup["d_r"], "epsilon": eps, "m": setup["m"], "norm_a": 1.0}
    return check_bound("COARSE_GRAINED", lhs, inputs, mean_dev=float(devs.mean()))


def _canonical_reduction_setup(params, seed):
    d_s, d_b, d_r = int(params["d_s"]), int(params["d_b"]), int(params["d_r"])
    d = d_s * d_b
    rng = _setup_stream(seed)
    v0 = haar_unitary(d, rng)
    basis_r = v0[:, :d_r]
    rho_mc = microcanonical_state(basis_r, dims=(d_s, d_b))
    rho_mc_s = rho_mc.reduced("S")
    deff_b = effective_dimension(rho_mc.reduced("B"))
    return {"basis_r": basis_r, "rho_mc_s": rho_mc_s.matrix, "deff_b": deff_b,
            "d_s": d_s, "d_b": d_b, "d_r": d_r}


def _canonical_reduction_trial(setup, params, seed, k):
    n = int(params["n_samples"])
    eps = float(params["epsilon"])
    d_s, d_b = setup["d_s"], setup["d_b"]
    dist = _haar_map(lambda a: trace_distance(
        reduced_marginals(a @ setup["basis_r"].T, (d_s, d_b)), setup["rho_mc_s"]),
        n, setup["d_r"], trial_stream(seed, k))
    threshold = canonical_reduction_threshold(epsilon=eps, d_s=d_s, deff_b=setup["deff_b"])
    lhs = float((dist >= threshold).mean())
    return check_bound("CANONICAL_REDUCTION", lhs, {"d_r": setup["d_r"], "epsilon": eps},
                       threshold=threshold, mean_distance=float(dist.mean()),
                       deff_b=setup["deff_b"])


# ---------------------------------------------------------------------------
# effective dimension
# ---------------------------------------------------------------------------

def _deff_subspace_ambient(params) -> int:
    return int(params.get("ambient") or 2 * int(params["d_r"]))


def _deff_subspace_setup(params, seed):
    d_r = int(params["d_r"])
    ambient = _deff_subspace_ambient(params)
    gap_tol = 1e-9 if ambient <= 256 else 1e-11
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((ambient, 1), rng, gap_tol=gap_tol)
    # coefficients of a subspace vector (a, 0) in the eigenbasis: a @ conj(V[:d_r, :])
    return {"block": h.eigenbasis[:d_r, :].conj(), "d_r": d_r, "ambient": ambient}


def _deff_subspace_block(setup, params, seed, ks):
    """d_eff of each trial's dephased subspace state."""
    c = _haar_coeff_rows(trial_streams(seed, ks), setup["d_r"]) @ setup["block"]
    return (1.0 / (np.abs(c) ** 4).sum(axis=1)).tolist()


def _deff_subspace_mean_trial(setup, params, seed, k, deff):
    return _row(deff, setup["d_r"] / 4.0, "lower")


def _deff_subspace_mean_summary(rows, setup, params):
    vals = rows.lhs
    mean, se = mean_se(vals)
    # the lower end of the 95% CI must clear the bound: a negative slack
    return [_gate("mean_deff_ci_above_bound", check_bound(
        "DEFF_SUBSPACE_MEAN", mean, {"d_r": setup["d_r"]}, se, -1.96,
        ci95=[mean - 1.96 * se, mean + 1.96 * se],
        fraction_below_quarter=float((vals < setup["d_r"] / 4).mean())))]


def _deff_subspace_tail_trial(setup, params, seed, k, deff):
    d_r = setup["d_r"]
    return check_bound("DEFF_SUBSPACE_TAIL", float(deff < d_r / 4.0), {"d_r": d_r}, deff=deff)


def _deff_subspace_tail_summary(rows, setup, params):
    freq = float(np.mean(rows.lhs))
    return [_gate("tail_frequency_below_bound", check_bound(
        "DEFF_SUBSPACE_TAIL", freq, {"d_r": setup["d_r"]}))]


def _deff_product_setup(params, seed):
    d_sr, d_br = int(params["d_sr"]), int(params["d_br"])
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((d_sr, d_br), rng)
    rhs = evaluate_bound("DEFF_PRODUCT_MEAN", {"d_sr": d_sr, "d_br": d_br})
    return {"h": h, "d_sr": d_sr, "d_br": d_br, "rhs": rhs}


def _deff_product_block(setup, params, seed, ks):
    """d_eff of each trial's dephased product state psi_S (x) psi_B."""
    d_sr, d_br = setup["d_sr"], setup["d_br"]
    # per trial: real and imaginary parts of psi_S's coefficients, then psi_B's
    x = np.array([rng.standard_normal(2 * (d_sr + d_br)) for rng in trial_streams(seed, ks)])
    a_s = _unit_rows(x[:, :d_sr] + 1j * x[:, d_sr:2 * d_sr])
    a_b = _unit_rows(x[:, 2 * d_sr:2 * d_sr + d_br] + 1j * x[:, 2 * d_sr + d_br:])
    psi = (a_s[:, :, None] * a_b[:, None, :]).reshape(len(x), d_sr * d_br)
    c = psi @ setup["h"].eigenbasis.conj()      # row i: V^dagger psi_i
    return (1.0 / (np.abs(c) ** 4).sum(axis=1)).tolist()


def _deff_product_trial(setup, params, seed, k, deff):
    return _row(deff, setup["rhs"], "observation")


def _deff_product_summary(rows, setup, params):
    mean, se = mean_se(rows.lhs)
    inputs = {"d_sr": setup["d_sr"], "d_br": setup["d_br"]}
    return [_gate("mean_deff_ci_above_bound", check_bound(
        "DEFF_PRODUCT_MEAN", mean, inputs, se, -1.96, ci95=[mean - 1.96 * se, mean + 1.96 * se]))]


def _deff_mean_energy_setup(params, seed):
    d = int(params["d"])
    lo, hi = float(params["spectrum_low"]), float(params["spectrum_high"])
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((d, 1), rng, spectrum=(lo, hi))
    energy = harmonic_mean(h.eigenvalues)
    inputs = {"d": d, "energy": energy, "spectrum": h.eigenvalues}
    return {"h": h, "energy": energy, "rhs": evaluate_bound("DEFF_MEAN_ENERGY", inputs),
            "crude": mean_energy_purity_crude_bound(d=d, spectrum=h.eigenvalues)}


def _deff_mean_energy_block(setup, params, seed, ks):
    """(purity, energy) of each trial's dephased mean-energy state."""
    h = setup["h"]
    c = mean_energy_coefficients(h, setup["energy"], trial_streams(seed, ks))
    p = np.abs(c) ** 2
    return list(zip((p ** 2).sum(axis=1).tolist(), (p @ h.eigenvalues).tolist()))


def _deff_mean_energy_trial(setup, params, seed, k, item):
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

def _equilibration_trial_base(params, seed, k):
    """Shared per-trial pipeline: random H on (d_s, d_b), Haar psi0, time batch."""
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = trial_stream(seed, k)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    psi0 = sample_haar_state(d_s * d_b, rng, dims=(d_s, d_b))
    times = sample_times(h, params["n_times"], rng)
    probs = dephased(h, psi0, marginals=False)
    return h, psi0, probs, times, float(1.0 / (probs ** 2).sum()), rng


def _expectation_equilibration_trial(setup, params, seed, k):
    h, psi0, probs, times, deff, rng = _equilibration_trial_base(params, seed, k)
    a = _gue(h.dim, rng)
    a_eig = h.to_eigenbasis(a)
    x = time_map(h, psi0, times, lambda cts: expectation_values(cts, a_eig), states=False)
    x_omega = float(probs @ np.diag(a_eig).real)
    lhs, se = mean_se((x - x_omega) ** 2)
    return check_bound("EXPECTATION_EQUILIBRATION", lhs, {"norm_a": 1.0, "deff": deff},
                       se, deff=deff, horizon=float(times.max()))


def _write_distance_trajectory(out_dir, experiment_id, h, psi0, omega_s, grid, bound):
    """Fig-style D(rho^S_t, omega^S) on a time grid, as <ID>_trajectory.csv."""
    dist = time_map(h, psi0, grid, lambda psis: trace_distance(
        reduced_marginals(psis, psi0.dims), omega_s))
    path = os.path.join(out_dir, f"{experiment_id}_trajectory.csv")
    write_trajectory_csv(path, grid, {"distance": dist,
                                      "bound": np.full(len(grid), bound)})
    return {"trajectory": path}


def _subsystem_equilibration_trial(setup, params, seed, k):
    d_s = int(params["d_s"])
    h, psi0, _, times, deff, _ = _equilibration_trial_base(params, seed, k)
    _, omega_s, omega_b = dephased(h, psi0)
    dist = time_map(h, psi0, times, lambda psis: trace_distance(
        reduced_marginals(psis, psi0.dims), omega_s))
    deff_b = effective_dimension(omega_b)
    lhs, se = mean_se(dist)
    return check_bound("SUBSYSTEM_EQUILIBRATION", lhs, {"d_s": d_s, "deff_b": deff_b},
                       se, deff=deff, deff_b=deff_b)


def _subsystem_equilibration_artifacts(setup, params, seed, out_dir):
    """Trajectory of D(rho^S_t, omega^S) for trial 0, on a grid."""
    h, psi0, *_ = _equilibration_trial_base(params, seed, 0)
    _, omega_s, omega_b = dephased(h, psi0)
    bound = evaluate_bound("SUBSYSTEM_EQUILIBRATION", {
        "d_s": int(params["d_s"]), "deff_b": effective_dimension(omega_b)})
    width = float(h.eigenvalues[-1] - h.eigenvalues[0])
    grid = np.linspace(0.0, 80.0 / width, 400)[1:]
    return _write_distance_trajectory(out_dir, "SUBSYSTEM_EQUILIBRATION", h, psi0,
                                      omega_s, grid, bound)


def _purity_equilibration_trial(setup, params, seed, k):
    d_s = int(params["d_s"])
    h, psi0, _, times, deff, _ = _equilibration_trial_base(params, seed, k)

    def purities(psis):
        rho_s, p_b = reduced_marginals(psis, psi0.dims, bath_purity=True)
        return purity(rho_s), p_b
    p_s, p_b = time_map(h, psi0, times, purities)
    max_sb_diff = float(np.abs(p_s - p_b).max())
    p_omega = purity(dephased(h, psi0)[1])
    lhs = abs(float(p_s.mean()) - p_omega)
    row = check_bound("PURITY_EQUILIBRATION", lhs, {"d_s": d_s, "deff": deff},
                      deff=deff, purity_sb_max_diff=max_sb_diff, p_omega_s=p_omega)
    row.satisfied &= verdict(max_sb_diff, 1e-10, "upper")   # p_S = p_B for pure states
    return row


# ---------------------------------------------------------------------------
# ergodicity
# ---------------------------------------------------------------------------

def _ergodicity_setup(params, seed):
    d, d_r = int(params["d"]), int(params["d_r"])
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((d, 1), rng)
    lo = (d - d_r) // 2
    band = np.arange(lo, lo + d_r)
    b = _gue(d, rng)
    b_eig = h.to_eigenbasis(b)
    diag_band = np.diag(b_eig).real[band]
    block = b_eig[np.ix_(band, band)]
    mc_mean = float(diag_band.mean())
    # the band's own Hamiltonian: the cross-check evolves d_r coefficients, not d
    window = Hamiltonian(h.eigenvalues[band], np.eye(d_r))
    return {"h": h, "window": window, "diag_band": diag_band, "block": block,
            "mc_mean": mc_mean, "norm_dephased": float(np.abs(np.diag(b_eig).real).max()),
            "d_r": d_r}


def _ergodicity_block(setup, params, seed, ks):
    """(Tr[B omega], sampled time average of Tr[B rho_t] or None) per trial;
    the time average only for the first crosscheck_trials trials."""
    h = setup["h"]
    times = {}

    def streams():
        for k, rng in zip(ks, trial_streams(seed, ks)):
            yield rng          # a is drawn here; the cross-check times straight after it
            if k < int(params["crosscheck_trials"]):
                times[k] = sample_times(h, params["crosscheck_times"], rng)

    a = _haar_coeff_rows(streams(), setup["d_r"])
    # Tr[B omega] = Tr[$[B] psi0], one dot per row: it sits near 0, where a
    # matrix-vector product's summation order moves it by 1e-12 relative
    lhs = [float(w @ setup["diag_band"]) for w in np.abs(a) ** 2]
    x_mean = [None] * len(a)
    for i, k in enumerate(ks):
        if k in times:
            x = time_map(setup["window"], a[i], times[k],
                         lambda ct: expectation_values(ct, setup["block"]), states=False)
            x_mean[i] = float(x.mean())
    return list(zip(lhs, x_mean))


def _ergodicity_trial(setup, params, seed, k, item):
    lhs, x_mean = item
    row = _row(lhs, setup["mc_mean"], "observation")
    if x_mean is not None:
        # the sampled time average of Tr[B rho_t] must reproduce lhs
        row.extra["crosscheck_err"] = abs(x_mean - lhs)
        row.satisfied &= verdict(x_mean, lhs, "identity", float(params["crosscheck_tol"]))
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
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    for _ in range(20):
        h_s = _gue(d_s, rng, norm=1.0, traceless=True)
        h_b = _gue(d_b, rng, norm=1.0, traceless=True)
        h_sb = _gue(d_s * d_b, rng, norm=float(params["hsb_scale"]), traceless=True)
        parts = compose_hamiltonian(h_s, h_b, h_sb)
        if parts.assembled.gap_report.non_resonant:
            return parts
    raise RuntimeError("could not draw a non-resonant composite Hamiltonian")


def _rates_map(parts, psi0, times, fn):
    """fn(reduced_rates(psi_t)) over the time blocks of time_map."""
    return time_map(parts.assembled, psi0, times, lambda psis: fn(reduced_rates(psis, parts)))


def _speed_pipeline(params, seed, k, fn):
    """One trial's composite H and product psi0, and fn of the reduced rates
    at its sampled times."""
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = trial_stream(seed, k)
    parts = _sample_composite(params, rng)
    h = parts.assembled
    psi0 = sample_product_state(d_s, d_b, rng)
    deff = float(1.0 / (dephased(h, psi0, marginals=False) ** 2).sum())
    times = sample_times(h, params["n_times"], rng)
    return parts, psi0, _rates_map(parts, psi0, times, fn), deff


def _speed_trial(setup, params, seed, k):
    parts, psi0, v, deff = _speed_pipeline(params, seed, k, ReducedRates.speeds)
    norm = parts.norm_hs_plus_hsb()
    inputs = {"norm_hs_plus_hsb": norm, "d_s": int(params["d_s"]), "deff": deff}
    fd_ok, fd_err = _fd_check(ReducedRates.speeds, finite_difference_speed,
                              1e-3 * norm, psi0, parts, params)
    mean, se = mean_se(v)
    row = check_bound("SPEED", mean, inputs, se, deff=deff, fd_max_rel_err=fd_err)
    row.satisfied &= fd_ok
    return row


def _fd_check(rate, fd_fn, floor, psi0, parts, params):
    """Worst relative gap between rate(reduced_rates(psi_t)), the kernel
    behind the rows, and its central difference fd_fn(h, psi0, t), relative
    to max(|rate|, floor).  A NaN at any instant makes the worst gap NaN,
    which fails the check."""
    h = parts.assembled
    # early times, where t +/- delta is exactly representable; the analytic
    # formula is time-independent so any instants serve as a cross-check
    scale = float(np.abs(h.eigenvalues).max())
    ts = np.linspace(0.5, 8.0, int(params["fd_checks"])) / scale
    analytic = _rates_map(parts, psi0, ts, rate)
    gaps = np.abs(fd_fn(h, psi0, ts) - analytic) / np.maximum(np.abs(analytic), floor)
    worst = float(np.max(gaps, initial=0.0))
    return verdict(worst, float(params["fd_rtol"]), "upper"), worst


def _purity_rate_avg_trial(setup, params, seed, k):
    parts, psi0, dp, deff = _speed_pipeline(params, seed, k, ReducedRates.purity_rates)
    norm_hsb = parts.norm_hsb()
    inputs = {"norm_hsb": norm_hsb, "d_s": int(params["d_s"]), "deff": deff}
    fd_ok, fd_err = _fd_check(ReducedRates.purity_rates, finite_difference_purity_rate,
                              1e-3 * 2 * norm_hsb, psi0, parts, params)
    mean, se = mean_se(np.abs(dp))
    row = check_bound("PURITY_RATE_AVG", mean, inputs, se, deff=deff, fd_max_rel_err=fd_err)
    row.satisfied &= fd_ok
    return row


def _purity_rate_instant_trial(setup, params, seed, k):
    parts, _, (dp, rho_s), deff = _speed_pipeline(
        params, seed, k, lambda rates: (rates.purity_rates(), rates.rho_s))
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

def _commutator_lower_block(setup, params, seed, ks):
    """(a, rho) per trial, drawn from the trial's stream."""
    lo, hi = int(params["dim_min"]), int(params["dim_max"])
    draws = []
    for rng in trial_streams(seed, ks):
        n = int(rng.integers(lo, hi + 1))
        a_vals = np.sort(rng.random(n))
        draws.append((a_vals, _mixed_density(n, rng)))
    return draws


def _commutator_lower_trial(setup, params, seed, k, item):
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
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    h_s = _gue(d_s, rng, norm=1.0, traceless=True)
    e_s, w_s = np.linalg.eigh(h_s)
    min_gap = float(np.diff(e_s).min())
    h_b = _gue(d_b, rng, norm=1.0, traceless=True)
    h_sb = _gue(d_s * d_b, rng, norm=coupling * min_gap, traceless=True)
    parts = compose_hamiltonian(h_s, h_b, h_sb)
    h = parts.assembled
    psi0 = sample_product_state(d_s, d_b, rng)
    times = sample_times(h, params["n_times"], rng)
    speeds, rho_in_hs = _rates_map(parts, psi0, times, lambda rates: (
        rates.speeds(), dagger(w_s) @ rates.rho_s @ w_s))
    pairings = max_pairing_offdiagonal_sum(e_s, rho_in_hs)
    norm_hsb = parts.norm_hsb()
    return pairings / (norm_hsb + speeds), speeds, rho_in_hs, e_s, norm_hsb


def _decoherence_trial(setup, params, seed, k):
    ratios, _, _, e_s, norm_hsb = _slow_states_run(
        params, trial_stream(seed, k), float(params["coupling"]))
    return _row(float(ratios.max(initial=0.0)), 1.0, "upper", 1e-9,
                norm_hsb=norm_hsb, min_gap_hs=float(np.diff(e_s).min()))


def _einselection_rows(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = trial_stream(seed, k)

    blocks = [_gue(d_b, rng, norm=1.0) for _ in range(d_s)]
    parts = pointer_hamiltonian(d_s, blocks)
    h = parts.assembled
    # equal-weight superposition with a random relative phase: maximal coherence
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    psi_s = PureState(np.array([1.0, phase]) / np.sqrt(2))
    psi_b = sample_haar_state(d_b, rng)
    rho_s0 = np.outer(psi_s.vector, psi_s.vector.conj())
    psi0 = PureState(np.kron(psi_s.vector, psi_b.vector), dims=(d_s, d_b))
    grid = np.linspace(0.0, float(params["t_max"]), int(params["grid"]))[1:]
    rho_s_t = time_map(h, psi0, grid, lambda psis: reduced_marginals(psis, (d_s, d_b)))

    diag_drift = float(np.abs(
        np.diagonal(rho_s_t, axis1=1, axis2=2) - np.diag(rho_s0)[None, :]).max())

    # suppression factor: direct bath-overlap recomputation
    eigs = [np.linalg.eigh(b) for b in blocks]
    f_direct = np.empty(len(grid), dtype=complex)
    for i, t in enumerate(grid):
        u0 = (eigs[0][1] * np.exp(-1j * eigs[0][0] * t)) @ dagger(eigs[0][1])
        u1 = (eigs[1][1] * np.exp(-1j * eigs[1][0] * t)) @ dagger(eigs[1][1])
        f_direct[i] = psi_b.vector.conj() @ (dagger(u1) @ u0 @ psi_b.vector)
    f_sim = rho_s_t[:, 0, 1] / rho_s0[0, 1]
    late = grid >= float(params["late_window_start"])

    # equal-blocks control: no decoherence at all
    parts_eq = pointer_hamiltonian(d_s, [blocks[0]] * d_s)
    h_eq = parts_eq.assembled
    rho_eq_t = time_map(h_eq, psi0, grid, lambda psis: reduced_marginals(psis, (d_s, d_b)))
    drift_eq = float(np.abs(rho_eq_t - rho_s0[None, :, :]).max())

    # generic weak-coupling variant: slow-states bound + off-diagonal consequence
    ratios, speeds, rho_in_hs, e_s, norm_hsb = _slow_states_run(params, rng, 0.01)
    gap = abs(e_s[1] - e_s[0])
    late_cap = float(params["late_suppression"])
    return [
        _row(diag_drift, 1e-10, "upper", check="pointer_diagonal_drift"),
        _row(np.abs(f_sim - f_direct).max(), 1e-9, "upper",
             check="suppression_factor_agreement"),
        _row(np.abs(f_sim[late]).mean(), late_cap, "upper", check="late_time_suppression"),
        _row(drift_eq, 1e-10, "upper", check="equal_blocks_state_frozen"),
        _row(ratios.max(initial=0.0), 1.0, "upper", 1e-9,
             check="weak_coupling_slow_states_bound"),
        _row(np.abs(rho_in_hs[:, 0, 1]).mean(), 5.0 * (norm_hsb + speeds.mean()) / gap,
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


def _isi_trial(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    d = d_s * d_b
    rng = trial_stream(seed, k)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))
    delta_pair = _marginal_diameter(mu)
    delta_ent = 2 * float(trace_distance(mu, np.eye(d_s) / d_s).max())

    psi = sample_haar_state(d, rng).vector
    phi = sample_haar_state(d, rng).vector
    phi = phi - np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)

    times = sample_times(h, params["n_times"], rng)

    def distances(psis):
        rho = reduced_marginals(psis, (d_s, d_b))
        return trace_distance(rho[:, 0], rho[:, 1])
    dist = time_map(h, np.stack([psi, phi]), times, distances)
    inputs = {"d_s": d_s, "deff_rho_b": effective_dimension(dephased(h, psi)[2]),
              "deff_sigma_b": effective_dimension(dephased(h, phi)[2]), "delta": delta_pair}
    mean, se = mean_se(dist)
    return check_bound("ISI", mean, inputs, se, delta_measured=delta_pair,
                       delta_entangled=delta_ent, delta_target=0.05)


def _isi_linden_setup(params, seed):
    d_s, d_b, d_r = int(params["d_s"]), int(params["d_b"]), int(params["d_r"])
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    band = np.sort(rng.choice(h.dim, size=d_r, replace=False))
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))[band]
    delta = float(purity(mu).mean())  # Linden delta
    rho_mc_s = mu.mean(axis=0)
    setup = {"mu": mu, "delta": delta, "rho_mc_s": rho_mc_s, "d_r": d_r, "d_s": d_s}
    return {**setup, "rhs": evaluate_bound("ISI_LINDEN_DELTA", _isi_linden_inputs(setup))}


def _isi_linden_block(setup, params, seed, ks):
    """D(omega^S, rho_mc^S) of each trial's dephased marginal."""
    w = np.abs(_haar_coeff_rows(trial_streams(seed, ks), setup["d_r"])) ** 2
    omega_s = np.einsum("nk,kij->nij", w, setup["mu"])
    return trace_distance(omega_s, setup["rho_mc_s"]).tolist()


def _isi_linden_trial(setup, params, seed, k, distance):
    return _row(distance, setup["rhs"], "observation")


def _isi_linden_inputs(setup) -> dict:
    return {"d_s": setup["d_s"], "d_r": setup["d_r"], "delta": setup["delta"]}


def _isi_linden_summary(rows, setup, params):
    mean, se = mean_se(rows.lhs)
    return [_gate("mean_distance_below_linden_bound", check_bound(
        "ISI_LINDEN_DELTA", mean, _isi_linden_inputs(setup), se, 3.0,
        linden_delta=setup["delta"]))]


def _entangled_state_tail_block(setup, params, seed, ks):
    """D(rho^S, 1/d_S) of each trial's Haar-random bipartite state."""
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rho_s = reduced_marginals(_haar_coeff_rows(trial_streams(seed, ks), d_s * d_b), (d_s, d_b))
    return trace_distance(rho_s, np.eye(d_s) / d_s).tolist()


def _entangled_state_tail_trial(setup, params, seed, k, dist):
    return check_bound("ENTANGLED_STATE_TAIL", float(dist >= float(params["epsilon"])),
                       _entangled_inputs(params), distance=dist)


def _entangled_inputs(params) -> dict:
    return {"d_s": int(params["d_s"]), "d_b": int(params["d_b"]),
            "epsilon": float(params["epsilon"])}


def _entangled_state_tail_summary(rows, setup, params):
    freq = float(np.mean(rows.lhs))
    return [
        _gate("tail_frequency_below_bound",
              check_bound("ENTANGLED_STATE_TAIL", freq, _entangled_inputs(params))),
        _gate("entangled_fraction_at_least_99pct", _row(1.0 - freq, 0.99, "lower")),
    ]


def _entangled_eigs_trial(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = trial_stream(seed, k)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))
    dists = trace_distance(mu, np.eye(d_s) / d_s)
    lhs = float(dists.max())
    thr = float(params["threshold"])
    rhs_analytic = evaluate_bound("ENTANGLED_EIGS_TAIL", {
        "d": d_s * d_b, "d_s": d_s, "d_b": d_b, "epsilon": thr})
    return _row(lhs, thr, "upper", analytic_tail_at_threshold=rhs_analytic)


def _levy_trial(setup, params, seed, k):
    d_r = int(params["d_r"])
    n = int(params["n_samples"])
    eps = float(params["epsilon"])
    b = _gue(d_r, _setup_stream(seed))
    f = _haar_map(lambda a: expectation_values(a, b), n, d_r, trial_stream(seed, k))
    mean_f = float(np.trace(b).real / d_r)
    lhs = float((np.abs(f - mean_f) >= eps).mean())
    inputs = {"d": 2 * d_r, "epsilon": eps, "eta": 2.0}  # real sphere dim, eta = 2|B|
    return check_bound("LEVY", lhs, inputs, mean_f=float(f.mean()), mc_mean=mean_f)


# ---------------------------------------------------------------------------
# equilibration-time estimates
# ---------------------------------------------------------------------------

def _eq_time_heisenberg_trial(setup, params, seed, k):
    d = int(params["d"])
    rng = trial_stream(seed, k)
    h = sample_random_hamiltonian((d, 1), rng)
    lo, hi = d // 4, 3 * d // 4
    band = np.arange(lo, hi)
    delta_e = float(h.eigenvalues[hi - 1] - h.eigenvalues[lo])
    (a,) = haar_coefficient_blocks(1, len(band), rng)
    probs = np.abs(a[0]) ** 2
    e_band = h.eigenvalues[band]
    # for pure rho_t, i[H, rho_t] has rank 2 with eigenvalues +-Delta H, so
    # (1/2)||[H, rho_t]||_1 = Delta H at every t: the energy spread of psi_0
    speed = float(np.sqrt(probs @ (e_band - probs @ e_band) ** 2))
    return _row(speed, delta_e, "upper", 1e-12,
                heisenberg_time=1.0 / delta_e, delta_e=delta_e)


def _eq_time_purity_trial(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = trial_stream(seed, k)
    parts = _sample_composite(params, rng)
    h = parts.assembled
    psi0 = sample_product_state(d_s, d_b, rng)
    p_eq = purity(dephased(h, psi0)[1])
    norm_hsb = parts.norm_hsb()
    t_max = float(params["t_max_over_coupling"]) / norm_hsb
    grid = np.linspace(0.0, t_max, int(params["grid"]))[1:]
    p_t = time_map(h, psi0, grid, lambda psis: purity(reduced_marginals(psis, (d_s, d_b))))
    below = np.nonzero(p_t <= p_eq)[0]
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

def _second_law_rows(setup, params, seed, k):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    d = d_s * d_b
    rng = trial_stream(seed, k)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    mu = reduced_marginals(h.eigenbasis.T, (d_s, d_b))
    delta_pair = _marginal_diameter(mu)

    psi0 = np.zeros(d, dtype=complex); psi0[0] = 1.0          # |0>_S |0>_B
    sig0 = np.zeros(d, dtype=complex); sig0[d_b] = 1.0        # |1>_S |0>_B
    times = sample_times(h, params["n_times"], rng)
    _, omega_s, omega_b = dephased(h, psi0)

    def distances(psis):
        rho = reduced_marginals(psis, (d_s, d_b))
        return trace_distance(rho[:, 0], omega_s), trace_distance(rho[:, 0], rho[:, 1])
    d_eq, d_isi = time_map(h, np.stack([psi0, sig0]), times, distances)

    deff_b = effective_dimension(omega_b)
    isi_inputs = {"d_s": d_s, "deff_rho_b": deff_b,
                  "deff_sigma_b": effective_dimension(dephased(h, sig0)[2]), "delta": delta_pair}
    s_omega = von_neumann_entropy(omega_s)
    return [
        check_bound("SUBSYSTEM_EQUILIBRATION", float(d_eq.mean()),
                    {"d_s": d_s, "deff_b": deff_b}, check="equilibration_from_pure_product_start"),
        check_bound("ISI", float(d_isi.mean()), isi_inputs,
                    check="initial_state_independence", delta_measured=delta_pair),
        _row(s_omega, float(np.log(d_s)) - float(params["entropy_slack"]), "lower",
             check="equilibrium_entropy_near_maximal", log_ds=float(np.log(d_s)),
             initial_entropy=0.0),
    ]


def _distance_trajectory_setup(params, seed):
    d_s, d_b = int(params["d_s"]), int(params["d_b"])
    rng = _setup_stream(seed)
    h = sample_random_hamiltonian((d_s, d_b), rng)
    psi_b = sample_haar_state(d_b, rng)
    psi0 = PureState(np.kron(canonical_subspace_basis(d_s, [0])[:, 0], psi_b.vector),
                     dims=(d_s, d_b))
    _, omega_s, omega_b = dephased(h, psi0)
    bound = evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                           {"d_s": d_s, "deff_b": effective_dimension(omega_b)})
    return {"h": h, "psi0": psi0, "omega_s": omega_s, "bound": bound}


def _distance_trajectory_trial(setup, params, seed, k):
    h = setup["h"]
    times = sample_times(h, params["n_times"], trial_stream(seed, k))
    psi0 = setup["psi0"]
    dist = time_map(h, psi0, times, lambda psis: trace_distance(
        reduced_marginals(psis, psi0.dims), setup["omega_s"]))
    mean, se = mean_se(dist)
    return _row(mean, setup["bound"], "upper", stderr=se,
                initial_distance=trace_distance(psi0.reduced("S"), setup["omega_s"]))


def _distance_trajectory_artifacts(setup, params, seed, out_dir):
    h = setup["h"]
    width = float(h.eigenvalues[-1] - h.eigenvalues[0])
    grid = np.linspace(0.0, float(params["plot_horizon"]) / width,
                       int(params["n_grid"]))[1:]
    return _write_distance_trajectory(out_dir, "DISTANCE_TRAJECTORY", h, setup["psi0"],
                                      setup["omega_s"], grid, setup["bound"])


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_MC_DEFAULTS = {"d_r": 32, "rank_b": 0, "n_samples": 100_000, "trials": 1}


def _bipartite(params) -> int:
    return int(params["d_s"]) * int(params["d_b"])


def _param(key: str):
    def dimension(params) -> int:
        return int(params[key])
    return dimension


EXPERIMENTS: dict[str, ExperimentDef] = {}


def _register(exp: ExperimentDef):
    EXPERIMENTS[exp.experiment_id] = exp


_register(ExperimentDef(
    "MC_VARIANCE_IDENTITY",
    "variance of Tr[B psi] over Haar states equals the microcanonical variance / (d_R+1)",
    {**_MC_DEFAULTS}, _mc_setup, _mc_variance_identity_trial,
    subspace="rank_b", dimension=_param("d_r"),
    minimums={"n_samples": 2, "rank_b": 0, "d_r": 1}))

_register(ExperimentDef(
    "MC_CONCENTRATION",
    "tail of |Tr[B psi] - <B>_mc| vs the exponential concentration bound",
    {**_MC_DEFAULTS, "epsilon": 0.25}, _mc_setup, _mc_concentration_trial,
    subspace="rank_b", dimension=_param("d_r"),
    minimums={"n_samples": 2, "rank_b": 0, "d_r": 1}))

_register(ExperimentDef(
    "MC_VARIANCE_CONCENTRATION",
    "tail of |sigma^2_psi - sigma^2_mc| vs the two-term concentration bound",
    {**_MC_DEFAULTS, "n_samples": 20_000, "epsilon": 0.1},
    _mc_setup, _mc_variance_concentration_trial,
    subspace="rank_b", dimension=_param("d_r"),
    minimums={"n_samples": 1, "rank_b": 0, "d_r": 1}))

_register(ExperimentDef(
    "COARSE_GRAINED",
    "deviation of all coarse macro observables at once vs the union bound",
    {"d": 64, "d_r": 32, "m": 4, "n_samples": 20_000, "epsilon": 0.2, "trials": 1},
    _coarse_grained_setup, _coarse_grained_trial,
    subspace="d_r", dimension=_param("d"), minimums={"n_samples": 1, "d_r": 1}))

_register(ExperimentDef(
    "CANONICAL_REDUCTION",
    "trace distance of reduced random states from the reduced microcanonical state",
    {"d_s": 2, "d_b": 32, "d_r": 32, "n_samples": 2000, "epsilon": 0.1, "trials": 1},
    _canonical_reduction_setup, _canonical_reduction_trial,
    subspace="d_r", dimension=_bipartite, minimums={"n_samples": 1, "d_r": 1}))

_register(ExperimentDef(
    "DEFF_SUBSPACE_MEAN",
    "mean effective dimension of dephased subspace states vs d_R/2",
    {"d_r": 64, "ambient": 0, "trials": 2000},
    _deff_subspace_setup, _deff_subspace_mean_trial, _deff_subspace_mean_summary,
    subspace="d_r", dimension=_deff_subspace_ambient, minimums={"trials": 2, "d_r": 1},
    block=_deff_subspace_block))

_register(ExperimentDef(
    "DEFF_SUBSPACE_TAIL",
    "frequency of d_eff < d_R/4 vs the (vacuous at desk dims) tail bound",
    {"d_r": 64, "ambient": 0, "trials": 2000},
    _deff_subspace_setup, _deff_subspace_tail_trial, _deff_subspace_tail_summary,
    subspace="d_r", dimension=_deff_subspace_ambient, minimums={"d_r": 1},
    block=_deff_subspace_block))

_register(ExperimentDef(
    "DEFF_PRODUCT_MEAN",
    "mean effective dimension of dephased product states vs (d_SR+1)(d_BR+1)/4",
    {"d_sr": 4, "d_br": 32, "trials": 2000},
    _deff_product_setup, _deff_product_trial, _deff_product_summary,
    dimension=lambda p: int(p["d_sr"]) * int(p["d_br"]), minimums={"trials": 2},
    block=_deff_product_block))

_register(ExperimentDef(
    "DEFF_MEAN_ENERGY",
    "mean purity of dephased mean-energy-ensemble states vs (2E^2/d^2) sum 1/E_k^2",
    {"d": 64, "spectrum_low": 1.0, "spectrum_high": 2.0, "trials": 20_000},
    _deff_mean_energy_setup, _deff_mean_energy_trial, _deff_mean_energy_summary,
    dimension=_param("d"), minimums={"trials": 2}, block=_deff_mean_energy_block))

_register(ExperimentDef(
    "EXPECTATION_EQUILIBRATION",
    "time variance of Tr[A rho_t] vs |A|^2/d_eff",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _expectation_equilibration_trial,
    dimension=_bipartite, minimums={"n_times": 2}))

_register(ExperimentDef(
    "SUBSYSTEM_EQUILIBRATION",
    "time-averaged trace distance from the dephased reduced state vs the d_eff bound",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _subsystem_equilibration_trial, None, _subsystem_equilibration_artifacts,
    dimension=_bipartite, minimums={"n_times": 2}))

_register(ExperimentDef(
    "PURITY_EQUILIBRATION",
    "time-averaged subsystem purity vs purity of the dephased state",
    {"d_s": 2, "d_b": 32, "trials": 50, "n_times": 2000},
    None, _purity_equilibration_trial,
    dimension=_bipartite, minimums={"n_times": 1}))

_register(ExperimentDef(
    "ERGODICITY",
    "time averages equal microcanonical averages over random initial states",
    {"d": 128, "d_r": 64, "trials": 2000, "crosscheck_trials": 3,
     "crosscheck_times": 4000, "crosscheck_tol": 1e-2},
    _ergodicity_setup, _ergodicity_trial, _ergodicity_summary,
    subspace="d_r", dimension=_param("d"),
    minimums={"trials": 2, "crosscheck_times": 1, "d_r": 1},
    block=_ergodicity_block))

_register(ExperimentDef(
    "SPEED",
    "time-averaged subsystem speed vs the d_eff bound, with finite-difference checks",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5, "fd_checks": 3, "fd_rtol": 1e-4},
    None, _speed_trial,
    dimension=_bipartite, minimums={"n_times": 2, "fd_checks": 1}))

_register(ExperimentDef(
    "PURITY_RATE_AVG",
    "time-averaged |dp^S/dt| vs the interaction-norm bound",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5, "fd_checks": 3, "fd_rtol": 1e-4},
    None, _purity_rate_avg_trial,
    dimension=_bipartite, minimums={"n_times": 2, "fd_checks": 1}))

_register(ExperimentDef(
    "PURITY_RATE_INSTANT",
    "pointwise |dp^S/dt| vs the mutual-information bound at every sampled time",
    {"d_s": 2, "d_b": 32, "trials": 10, "n_times": 1000, "hsb_scale": 0.5},
    None, _purity_rate_instant_trial,
    dimension=_bipartite, minimums={"n_times": 1}))

_register(ExperimentDef(
    "COMMUTATOR_LOWER",
    "pairing lower bound on the commutator trace norm (exact inequality)",
    {"trials": 1000, "dim_min": 2, "dim_max": 8},
    None, _commutator_lower_trial,
    dimension=_param("dim_max"), block=_commutator_lower_block))

_register(ExperimentDef(
    "DECOHERENCE",
    "slow-states inequality pointwise along weak-coupling trajectories",
    {"d_s": 4, "d_b": 32, "trials": 20, "n_times": 200, "coupling": 0.01},
    None, _decoherence_trial,
    dimension=_bipartite, minimums={"n_times": 1}))

_register(ExperimentDef(
    "EINSELECTION_DEMO",
    "pointer-basis Hamiltonian demo: frozen diagonals, suppression factors, weak variant",
    {"d_s": 2, "d_b": 64, "trials": 1, "t_max": 200.0, "grid": 81,
     "late_window_start": 100.0, "late_suppression": 0.3, "n_times": 200},
    None, _einselection_rows,
    dimension=_bipartite, minimums={"grid": 2, "n_times": 1},
    below={"late_window_start": "t_max"}))

_register(ExperimentDef(
    "ISI",
    "marginals of two orthogonal initial states stay close when eigenstates are entangled",
    {"d_s": 2, "d_b": 64, "trials": 20, "n_times": 1000},
    None, _isi_trial,
    dimension=_bipartite, minimums={"n_times": 2}))

_register(ExperimentDef(
    "ISI_LINDEN_DELTA",
    "mean distance of the dephased marginal from the reduced microcanonical state",
    {"d_s": 2, "d_b": 32, "d_r": 16, "trials": 500},
    _isi_linden_setup, _isi_linden_trial, _isi_linden_summary,
    subspace="d_r", dimension=_bipartite, minimums={"trials": 2, "d_r": 1},
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
    None, _levy_trial,
    dimension=_param("d_r"), minimums={"n_samples": 1, "d_r": 1}))

_register(ExperimentDef(
    "EQ_TIME_HEISENBERG",
    "global state speed never exceeds the populated energy-window width",
    {"d": 64, "trials": 10},
    None, _eq_time_heisenberg_trial,
    dimension=_param("d"), minimums={"d": 3}))   # the band [d/4, 3d/4) needs two levels

_register(ExperimentDef(
    "EQ_TIME_PURITY",
    "time to reach the equilibrium purity respects the ODE lower bound",
    {"d_s": 2, "d_b": 64, "trials": 10, "hsb_scale": 0.3,
     "t_max_over_coupling": 50.0, "grid": 2000},
    None, _eq_time_purity_trial,
    dimension=_bipartite, minimums={"grid": 2}))

_register(ExperimentDef(
    "SECOND_LAW_DEMO",
    "entropy increase, equilibration and initial-state independence for fixed pure starts",
    {"d_s": 2, "d_b": 64, "trials": 5, "n_times": 1000,
     "entropy_slack": 0.1},
    None, _second_law_rows,
    dimension=_bipartite, minimums={"n_times": 1}))

_register(ExperimentDef(
    "DISTANCE_TRAJECTORY",
    "Fig-style curve of D(rho^S_t, omega^S) from a far-from-equilibrium start",
    {"d_s": 2, "d_b": 32, "trials": 1, "n_times": 2000,
     "plot_horizon": 80.0, "n_grid": 400},
    _distance_trajectory_setup, _distance_trajectory_trial, None,
    _distance_trajectory_artifacts,
    dimension=_bipartite, minimums={"n_times": 2, "n_grid": 2}))


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)
