"""Catalog of analytic bound evaluators, one per theorem, plus the one verdict.

Every evaluator is pure arithmetic on keyword-only inputs, exactly the ones
its theorem needs: evaluate_bound(theorem, inputs) calls it with the dict
inputs, so a missing or unexpected input raises TypeError naming it.
check_bound judges an empirical lhs against the catalog rhs and returns the
TrialRecord that the harness writes.  Probability-type (tail) bounds whose
value reaches 1 are flagged vacuous: at desk-scale dimensions the
measure-concentration constants (pi^3-scale denominators) make most tails
carry no statistical content, and reports must say so rather than count
them as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "THEOREMS",
    "TheoremEntry",
    "TrialRecord",
    "evaluate_bound",
    "check_bound",
    "verdict",
    "canonical_reduction_threshold",
    "mean_energy_purity_crude_bound",
    "max_pairing_offdiagonal_sum",
]

C_LEVY = 1.0 / (9 * math.pi ** 3)
C_36 = 1.0 / (36 * math.pi ** 3)
C_18 = 1.0 / (18 * math.pi ** 3)
C_DEFF_TAIL = math.log(2) ** 2 / (72 * math.pi ** 3)
C_ENTANGLED = 1.0 / (14 * math.log(2))


def _lloyd_identity(*, d_r: int, mc_mean_b: float, mc_mean_b2: float) -> float:
    return (mc_mean_b2 - mc_mean_b ** 2) / (d_r + 1)


def _mc_concentration(*, d_r: int, epsilon: float, norm_b: float) -> float:
    return 2.0 * math.exp(-C_36 * d_r * epsilon ** 2 / norm_b ** 2)


def _mc_variance_concentration(*, d_r: int, epsilon: float) -> float:
    deltas = np.linspace(0.0, epsilon, 2001)
    min_form = float(np.min(2 * np.exp(-C_36 * d_r * (epsilon - deltas))
                            + 2 * np.exp(-C_36 * d_r * deltas ** 2)))
    # closed form from substituting delta* = (sqrt(1+4eps)-1)/2; both exponents
    # there equal (1 + 2 eps - sqrt(1+4 eps))/2, so closed >= min always
    closed = 4 * math.exp(-C_36 * d_r * (1 + 2 * epsilon - math.sqrt(1 + 4 * epsilon)) / 2)
    if closed < min_form - 1e-12:
        raise AssertionError("variance-concentration closed form undercuts the min form")
    return min_form


def _coarse_grained(*, d_r: int, epsilon: float, m: int, norm_a: float) -> float:
    return 2.0 * m * math.exp(-C_36 * d_r * epsilon ** 2 / (m ** 2 * norm_a ** 2))


def _canonical_reduction(*, d_r: int, epsilon: float) -> float:
    return 2.0 * math.exp(-C_18 * d_r * epsilon ** 2)


def canonical_reduction_threshold(*, epsilon: float, d_s: int, deff_b: float) -> float:
    """Deviation threshold 2 eps + 2 sqrt(d_S / d_eff(rho_mc^B)) for the event."""
    return 2 * epsilon + 2 * math.sqrt(d_s / deff_b)


def _deff_subspace_mean(*, d_r: int) -> float:
    return d_r / 2.0


def _deff_subspace_tail(*, d_r: int) -> float:
    return 2.0 * math.exp(-C_DEFF_TAIL * math.sqrt(d_r))


def _deff_product_mean(*, d_sr: int, d_br: int) -> float:
    return (d_sr + 1) * (d_br + 1) / 4.0


def _deff_mean_energy(*, energy: float, d: int, spectrum) -> float:
    e = np.asarray(spectrum, dtype=float)
    return 2.0 * energy ** 2 / d ** 2 * float((1.0 / e ** 2).sum())


def mean_energy_purity_crude_bound(*, d: int, spectrum) -> float:
    """(2/d)(E_mean/E_0)^2, the spectrum-free cap on the average purity."""
    e = np.asarray(spectrum, dtype=float)
    return 2.0 / d * (e.mean() / e.min()) ** 2


def _expectation_equilibration(*, norm_a: float, deff: float) -> float:
    return norm_a ** 2 / deff


def _subsystem_equilibration(*, d_s: int, deff_b: float) -> float:
    return 0.5 * math.sqrt(d_s / deff_b)


def _purity_equilibration(*, d_s: int, deff: float) -> float:
    return (d_s + 2) / deff


def _ergodicity(*, d_r: int, epsilon: float, norm_dephased_b: float) -> float:
    return 2.0 * math.exp(-C_36 * d_r * epsilon ** 2 / norm_dephased_b ** 2)


def _speed(*, norm_hs_plus_hsb: float, d_s: int, deff: float) -> float:
    return norm_hs_plus_hsb * math.sqrt(d_s ** 3 / deff)


def _purity_rate_avg(*, norm_hsb: float, d_s: int, deff: float) -> float:
    return 2.0 * norm_hsb * math.sqrt(d_s ** 3 / deff)


def _purity_rate_instant(*, purity_s: float, mutual_info: float, norm_hsb: float) -> float:
    return 2.0 * purity_s * math.sqrt(2 * mutual_info) * norm_hsb


def _commutator_lower(*, pairing_sum: float) -> float:
    return 2.0 * pairing_sum


def _decoherence(*, pairing_sum: float) -> float:
    return pairing_sum


def _isi(*, d_s: int, deff_rho_b: float, deff_sigma_b: float, delta: float) -> float:
    return 0.5 * math.sqrt(d_s / deff_rho_b) + 0.5 * math.sqrt(d_s / deff_sigma_b) + delta


def _isi_linden_delta(*, d_s: int, d_r: int, delta: float) -> float:
    return math.sqrt(d_s * delta / (4 * d_r))


def _entangled_state_tail(*, d_s: int, d_b: int, epsilon: float) -> float:
    return 2.0 * (10 * d_s / epsilon) ** (2 * d_s) * math.exp(-C_ENTANGLED * d_b * epsilon ** 2)


def _entangled_eigs_tail(*, d: int, d_s: int, d_b: int, epsilon: float) -> float:
    return d * _entangled_state_tail(d_s=d_s, d_b=d_b, epsilon=epsilon)


def _levy(*, d: int, epsilon: float, eta: float) -> float:
    return 2.0 * math.exp(-C_LEVY * d * epsilon ** 2 / eta ** 2)


def _eq_time_heisenberg(*, delta_e: float) -> float:
    return 1.0 / delta_e


def _eq_time_purity(*, p_eq: float, d_s: int, norm_hsb: float) -> float:
    return math.log(1.0 / p_eq) / (4 * math.sqrt(math.log(d_s)) * norm_hsb)


@dataclass(frozen=True)
class TheoremEntry:
    evaluator: object
    kind: str        # "upper" | "lower" | "identity"
    tail: bool       # probability bound, subject to the vacuousness flag
    formula: str


THEOREMS: dict[str, TheoremEntry] = {
    "MC_VARIANCE_IDENTITY": TheoremEntry(_lloyd_identity, "identity", False,
        "(<B^2>_mc - <B>_mc^2) / (d_R + 1)"),
    "MC_CONCENTRATION": TheoremEntry(_mc_concentration, "upper", True,
        "2 exp(-C d_R eps^2 / |B|^2),  C = 1/(36 pi^3)"),
    "MC_VARIANCE_CONCENTRATION": TheoremEntry(_mc_variance_concentration, "upper", True,
        "min_delta [2 exp(-C d_R (eps-delta)) + 2 exp(-C d_R delta^2)],  C = 1/(36 pi^3)"),
    "COARSE_GRAINED": TheoremEntry(_coarse_grained, "upper", True,
        "2 m exp(-C d_R eps^2 / (m^2 |A|^2)),  C = 1/(36 pi^3)"),
    "CANONICAL_REDUCTION": TheoremEntry(_canonical_reduction, "upper", True,
        "P{D >= 2 eps + 2 sqrt(d_S/d_eff_B)} <= 2 exp(-C d_R eps^2),  C = 1/(18 pi^3)"),
    "DEFF_SUBSPACE_MEAN": TheoremEntry(_deff_subspace_mean, "lower", False,
        "<d_eff(omega)> >= d_R / 2"),
    "DEFF_SUBSPACE_TAIL": TheoremEntry(_deff_subspace_tail, "upper", True,
        "P{d_eff < d_R/4} <= 2 exp(-C sqrt(d_R)),  C = ln(2)^2/(72 pi^3)"),
    "DEFF_PRODUCT_MEAN": TheoremEntry(_deff_product_mean, "lower", False,
        "<d_eff(omega)> >= (d_SR+1)(d_BR+1)/4"),
    "DEFF_MEAN_ENERGY": TheoremEntry(_deff_mean_energy, "identity", False,
        "<Tr omega^2> ~ (2 E^2/d^2) sum_k 1/E_k^2"),
    "EXPECTATION_EQUILIBRATION": TheoremEntry(_expectation_equilibration, "upper", False,
        "<(Tr A rho_t - Tr A omega)^2>_t <= |A|^2 / d_eff(omega)"),
    "SUBSYSTEM_EQUILIBRATION": TheoremEntry(_subsystem_equilibration, "upper", False,
        "<D(rho^S_t, omega^S)>_t <= (1/2) sqrt(d_S/d_eff(omega^B))"),
    "PURITY_EQUILIBRATION": TheoremEntry(_purity_equilibration, "upper", False,
        "|<p^S_t>_t - p(omega^S)| <= (d_S+2)/d_eff(omega)"),
    "ERGODICITY": TheoremEntry(_ergodicity, "upper", True,
        "2 exp(-C d_R eps^2 / |$[B]|^2),  C = 1/(36 pi^3)"),
    "SPEED": TheoremEntry(_speed, "upper", False,
        "<v_S>_t <= |H_S x 1 + H_SB| sqrt(d_S^3/d_eff(omega))"),
    "PURITY_RATE_AVG": TheoremEntry(_purity_rate_avg, "upper", False,
        "<|dp^S/dt|>_t <= 2 |H_SB| sqrt(d_S^3/d_eff(omega))"),
    "PURITY_RATE_INSTANT": TheoremEntry(_purity_rate_instant, "upper", False,
        "|dp^S/dt| <= 2 p^S sqrt(2 I_SB) |H_SB|  (pure case: 4 p^S sqrt(S(rho^S)) |H_SB|)"),
    "COMMUTATOR_LOWER": TheoremEntry(_commutator_lower, "lower", False,
        "|[rho, A]|_1 >= 2 max_pairing sum |a_k - a_l| |rho_kl|"),
    "DECOHERENCE": TheoremEntry(_decoherence, "lower", False,
        "|H_SB| + (1/2)|d rho^S/dt|_1 >= max_pairing sum |E^S_k - E^S_l| |rho^S_kl|"),
    "ISI": TheoremEntry(_isi, "upper", False,
        "<D(rho^S_t, sigma^S_t)>_t <= (1/2)sqrt(d_S/d_eff(omega_rho^B)) "
        "+ (1/2)sqrt(d_S/d_eff(omega_sigma^B)) + delta"),
    "ISI_LINDEN_DELTA": TheoremEntry(_isi_linden_delta, "upper", False,
        "<D(omega^S, rho_mc^S)> <= sqrt(d_S delta / (4 d_R))"),
    "ENTANGLED_STATE_TAIL": TheoremEntry(_entangled_state_tail, "upper", True,
        "P{D(rho^S, 1/d_S) >= eps} <= 2 (10 d_S/eps)^{2 d_S} exp(-C d_B eps^2),  C = 1/(14 ln 2)"),
    "ENTANGLED_EIGS_TAIL": TheoremEntry(_entangled_eigs_tail, "upper", True,
        "d x the single-state tail (union bound over eigenvectors)"),
    "LEVY": TheoremEntry(_levy, "upper", True,
        "P{|f - <f>| >= eps} <= 2 exp(-C d eps^2 / eta^2),  C = 1/(9 pi^3)"),
    "EQ_TIME_HEISENBERG": TheoremEntry(_eq_time_heisenberg, "lower", False,
        "equilibration time ~ 1/Delta_E (and v(t) <= Delta_E pointwise)"),
    "EQ_TIME_PURITY": TheoremEntry(_eq_time_purity, "lower", False,
        "T >= log(1/p_eq) / (4 sqrt(log d_S) |H_SB|)"),
}


def evaluate_bound(theorem: str, inputs: dict) -> float:
    """Analytic right-hand side (or exact identity value) of a catalog entry,
    from exactly the keyword inputs its evaluator takes."""
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}")
    return float(THEOREMS[theorem].evaluator(**inputs))


@dataclass
class TrialRecord:
    """One judged row of an experiment: lhs against rhs and the verdict."""

    lhs: float
    stderr: float
    rhs: float
    satisfied: bool
    vacuous: bool
    extra: dict = field(default_factory=dict)
    trial: int = 0      # row number, assigned by the harness in trial order


_COMPARISONS = {
    "upper": lambda lhs, rhs, slack: lhs <= rhs + slack,
    "lower": lambda lhs, rhs, slack: lhs >= rhs - slack,
    "identity": lambda lhs, rhs, slack: abs(lhs - rhs) <= slack,
    "observation": lambda lhs, rhs, slack: True,
}


def verdict(lhs: float, rhs: float, kind: str, slack: float = 0.0) -> bool:
    """Whether an empirical lhs satisfies rhs: the one pass/fail comparison.

    kind "upper" asks lhs <= rhs + slack, "lower" lhs >= rhs - slack and
    "identity" |lhs - rhs| <= slack; "observation" records lhs next to rhs
    without comparing them.  Never true when lhs, rhs or slack is not
    finite, whatever the kind: an infinite side would pass a one-sided
    comparison without any evidence, and a NaN carries none.
    """
    if kind not in _COMPARISONS:
        raise ValueError(f"unknown verdict kind {kind!r}; known: {', '.join(_COMPARISONS)}")
    if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(slack)):
        return False
    return bool(_COMPARISONS[kind](lhs, rhs, slack))


def check_bound(theorem: str, lhs: float, inputs: dict, stderr: float = 0.0,
                allowance_sigmas: float = 0.0, **extra) -> TrialRecord:
    """The row of an empirical lhs judged against a catalog rhs through verdict.

    The slack is allowance_sigmas standard errors (one-sided for upper and
    lower bounds, two-sided for identities; a negative allowance tightens),
    so a non-finite stderr fails a row that allows for it.  With no
    allowance the stderr only annotates the row and the slack is 0.0.  Tail
    bounds whose rhs reaches 1 are flagged vacuous.  extra becomes the row's
    extras.
    """
    rhs = evaluate_bound(theorem, inputs)
    entry = THEOREMS[theorem]
    slack = allowance_sigmas * stderr if allowance_sigmas else 0.0
    return TrialRecord(float(lhs), float(stderr), rhs, verdict(lhs, rhs, entry.kind, slack),
                       bool(entry.tail and rhs >= 1.0), extra)


def _max_weight_perfect_matching(w: list[list[float]]) -> float:
    """Exact maximum weight of a perfect matching on an even vertex count.

    Bitmask DP that always pairs the lowest free vertex, memoised on the
    free set; only the free sets reachable that way are ever visited.
    """
    memo: dict[int, float] = {}

    def best(free: int) -> float:
        if not free:
            return 0.0
        if free in memo:
            return memo[free]
        low = free & -free
        i = low.bit_length() - 1
        rest = free ^ low
        val = 0.0
        others = rest
        while others:
            bit = others & -others
            val = max(val, w[i][bit.bit_length() - 1] + best(rest ^ bit))
            others ^= bit
        memo[free] = val
        return val

    return best((1 << len(w)) - 1)


_EXACT_PAIRING_LIMIT = 20   # max_pairing_offdiagonal_sum is exact up to this many vertices


def max_pairing_offdiagonal_sum(values, rho) -> float:
    """max over pairings of sum_{(k,l)} |a_k - a_l| |rho_kl|.

    rho must be expressed in the eigenbasis of the observable whose
    eigenvalues are `values`.  A vertex may stay unpaired.  Up to
    _EXACT_PAIRING_LIMIT vertices the maximum is exact: the weights are
    >= 0, so a maximum-weight matching can be completed to a perfect one
    (odd n gets a zero-weight padding vertex) and the bitmask DP finds it.
    Above that the greedy _greedy_pairing_sum is used.  A non-finite value
    or entry of rho gives NaN: Python's max would drop a NaN weight.
    """
    a = np.asarray(values, dtype=float)
    r = np.asarray(rho, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(r).all()):
        return float("nan")
    n = len(a)
    w = np.abs(a[:, None] - a[None, :]) * np.abs(r)
    if n > _EXACT_PAIRING_LIMIT:
        return _greedy_pairing_sum(w)
    if n % 2:
        w = np.pad(w, ((0, 1), (0, 1)))
    return _max_weight_perfect_matching(w.tolist())


def _greedy_pairing_sum(w: np.ndarray) -> float:
    """Weight of a greedy matching on the symmetric weights w (heaviest free
    edge first): a certified lower bound on the maximum, still sound for the
    commutator lemma, whose RHS is itself a lower bound."""
    k_idx, l_idx = np.triu_indices(len(w), 1)
    edges = [(k, l, x) for k, l, x in zip(k_idx.tolist(), l_idx.tolist(),
                                          w[k_idx, l_idx].tolist()) if x > 0]
    used: set[int] = set()
    total = 0.0
    for k, l, x in sorted(edges, key=lambda e: -e[2]):
        if k not in used and l not in used:
            used.update((k, l))
            total += x
    return total
