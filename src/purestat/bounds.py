"""Catalog of analytic bound evaluators, one per theorem, plus the one verdict.

Every evaluator is pure arithmetic on a BoundContext.  Probability-type
(tail) bounds whose value reaches 1 are flagged vacuous: at desk-scale
dimensions the measure-concentration constants (pi^3-scale denominators)
make most tails carry no statistical content, and reports must say so
rather than count them as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "THEOREMS",
    "BoundContext",
    "BoundReport",
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


@dataclass
class BoundContext:
    """Bag of parameters a catalog entry may need; unset fields are None."""

    d: int | None = None
    d_s: int | None = None
    d_b: int | None = None
    d_r: int | None = None
    d_sr: int | None = None
    d_br: int | None = None
    norm_a: float | None = None
    norm_b: float | None = None
    norm_hsb: float | None = None
    norm_hs_plus_hsb: float | None = None
    norm_dephased_b: float | None = None
    deff: float | None = None
    deff_b: float | None = None
    deff_rho_b: float | None = None
    deff_sigma_b: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    m: int | None = None
    eta: float | None = None
    energy: float | None = None
    spectrum: np.ndarray | None = None
    p_eq: float | None = None
    delta_e: float | None = None
    mc_mean_b: float | None = None
    mc_mean_b2: float | None = None
    purity_s: float | None = None
    mutual_info: float | None = None
    entropy_s: float | None = None
    pairing_sum: float | None = None

    def require(self, theorem: str, *names: str):
        vals = []
        for n in names:
            v = getattr(self, n)
            if v is None:
                raise ValueError(f"{theorem} needs context field {n!r}")
            vals.append(v)
        return vals


def _lloyd_identity(ctx: BoundContext) -> float:
    d_r, b, b2 = ctx.require("MC_VARIANCE_IDENTITY", "d_r", "mc_mean_b", "mc_mean_b2")
    return (b2 - b ** 2) / (d_r + 1)


def _mc_concentration(ctx: BoundContext) -> float:
    d_r, eps, nb = ctx.require("MC_CONCENTRATION", "d_r", "epsilon", "norm_b")
    return 2.0 * math.exp(-C_36 * d_r * eps ** 2 / nb ** 2)


def _mc_variance_concentration(ctx: BoundContext) -> float:
    d_r, eps = ctx.require("MC_VARIANCE_CONCENTRATION", "d_r", "epsilon")
    deltas = np.linspace(0.0, eps, 2001)
    min_form = float(np.min(2 * np.exp(-C_36 * d_r * (eps - deltas))
                            + 2 * np.exp(-C_36 * d_r * deltas ** 2)))
    # closed form from substituting delta* = (sqrt(1+4eps)-1)/2; both exponents
    # there equal (1 + 2 eps - sqrt(1+4 eps))/2, so closed >= min always
    closed = 4 * math.exp(-C_36 * d_r * (1 + 2 * eps - math.sqrt(1 + 4 * eps)) / 2)
    if closed < min_form - 1e-12:
        raise AssertionError("variance-concentration closed form undercuts the min form")
    return min_form


def _coarse_grained(ctx: BoundContext) -> float:
    d_r, eps, m, na = ctx.require("COARSE_GRAINED", "d_r", "epsilon", "m", "norm_a")
    return 2.0 * m * math.exp(-C_36 * d_r * eps ** 2 / (m ** 2 * na ** 2))


def _canonical_reduction(ctx: BoundContext) -> float:
    d_r, eps = ctx.require("CANONICAL_REDUCTION", "d_r", "epsilon")
    return 2.0 * math.exp(-C_18 * d_r * eps ** 2)


def canonical_reduction_threshold(ctx: BoundContext) -> float:
    """Deviation threshold 2 eps + 2 sqrt(d_S / d_eff(rho_mc^B)) for the event."""
    eps, d_s, deff_b = ctx.require("CANONICAL_REDUCTION", "epsilon", "d_s", "deff_b")
    return 2 * eps + 2 * math.sqrt(d_s / deff_b)


def _deff_subspace_mean(ctx: BoundContext) -> float:
    (d_r,) = ctx.require("DEFF_SUBSPACE_MEAN", "d_r")
    return d_r / 2.0


def _deff_subspace_tail(ctx: BoundContext) -> float:
    (d_r,) = ctx.require("DEFF_SUBSPACE_TAIL", "d_r")
    return 2.0 * math.exp(-C_DEFF_TAIL * math.sqrt(d_r))


def _deff_product_mean(ctx: BoundContext) -> float:
    d_sr, d_br = ctx.require("DEFF_PRODUCT_MEAN", "d_sr", "d_br")
    return (d_sr + 1) * (d_br + 1) / 4.0


def _deff_mean_energy(ctx: BoundContext) -> float:
    energy, d, spectrum = ctx.require("DEFF_MEAN_ENERGY", "energy", "d", "spectrum")
    e = np.asarray(spectrum, dtype=float)
    return 2.0 * energy ** 2 / d ** 2 * float((1.0 / e ** 2).sum())


def mean_energy_purity_crude_bound(ctx: BoundContext) -> float:
    """(2/d)(E_mean/E_0)^2, the spectrum-free cap on the average purity."""
    d, spectrum = ctx.require("DEFF_MEAN_ENERGY", "d", "spectrum")
    e = np.asarray(spectrum, dtype=float)
    return 2.0 / d * (e.mean() / e.min()) ** 2


def _expectation_equilibration(ctx: BoundContext) -> float:
    na, deff = ctx.require("EXPECTATION_EQUILIBRATION", "norm_a", "deff")
    return na ** 2 / deff


def _subsystem_equilibration(ctx: BoundContext) -> float:
    (d_s,) = ctx.require("SUBSYSTEM_EQUILIBRATION", "d_s")
    if ctx.deff_b is not None:
        return 0.5 * math.sqrt(d_s / ctx.deff_b)
    (deff,) = ctx.require("SUBSYSTEM_EQUILIBRATION", "deff")
    return 0.5 * math.sqrt(d_s ** 2 / deff)


def _purity_equilibration(ctx: BoundContext) -> float:
    d_s, deff = ctx.require("PURITY_EQUILIBRATION", "d_s", "deff")
    return (d_s + 2) / deff


def _ergodicity(ctx: BoundContext) -> float:
    d_r, eps, nb = ctx.require("ERGODICITY", "d_r", "epsilon", "norm_dephased_b")
    return 2.0 * math.exp(-C_36 * d_r * eps ** 2 / nb ** 2)


def _speed(ctx: BoundContext) -> float:
    n, d_s, deff = ctx.require("SPEED", "norm_hs_plus_hsb", "d_s", "deff")
    return n * math.sqrt(d_s ** 3 / deff)


def _purity_rate_avg(ctx: BoundContext) -> float:
    n, d_s, deff = ctx.require("PURITY_RATE_AVG", "norm_hsb", "d_s", "deff")
    return 2.0 * n * math.sqrt(d_s ** 3 / deff)


def _purity_rate_instant(ctx: BoundContext) -> float:
    p, n = ctx.require("PURITY_RATE_INSTANT", "purity_s", "norm_hsb")
    if ctx.mutual_info is not None:
        return 2.0 * p * math.sqrt(2 * ctx.mutual_info) * n
    (s,) = ctx.require("PURITY_RATE_INSTANT", "entropy_s")
    return 4.0 * p * math.sqrt(s) * n


def _commutator_lower(ctx: BoundContext) -> float:
    (s,) = ctx.require("COMMUTATOR_LOWER", "pairing_sum")
    return 2.0 * s


def _decoherence(ctx: BoundContext) -> float:
    (s,) = ctx.require("DECOHERENCE", "pairing_sum")
    return s


def _isi(ctx: BoundContext) -> float:
    d_s, da, db, delta = ctx.require("ISI", "d_s", "deff_rho_b", "deff_sigma_b", "delta")
    return 0.5 * math.sqrt(d_s / da) + 0.5 * math.sqrt(d_s / db) + delta


def _isi_linden_delta(ctx: BoundContext) -> float:
    d_s, d_r, delta = ctx.require("ISI_LINDEN_DELTA", "d_s", "d_r", "delta")
    return math.sqrt(d_s * delta / (4 * d_r))


def _entangled_state_tail(ctx: BoundContext) -> float:
    d_s, d_b, eps = ctx.require("ENTANGLED_STATE_TAIL", "d_s", "d_b", "epsilon")
    return 2.0 * (10 * d_s / eps) ** (2 * d_s) * math.exp(-C_ENTANGLED * d_b * eps ** 2)


def _entangled_eigs_tail(ctx: BoundContext) -> float:
    (d,) = ctx.require("ENTANGLED_EIGS_TAIL", "d")
    return d * _entangled_state_tail(ctx)


def _levy(ctx: BoundContext) -> float:
    d, eps, eta = ctx.require("LEVY", "d", "epsilon", "eta")
    return 2.0 * math.exp(-C_LEVY * d * eps ** 2 / eta ** 2)


def _eq_time_heisenberg(ctx: BoundContext) -> float:
    (de,) = ctx.require("EQ_TIME_HEISENBERG", "delta_e")
    return 1.0 / de


def _eq_time_purity(ctx: BoundContext) -> float:
    p_eq, d_s, n = ctx.require("EQ_TIME_PURITY", "p_eq", "d_s", "norm_hsb")
    return math.log(1.0 / p_eq) / (4 * math.sqrt(math.log(d_s)) * n)


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


def evaluate_bound(theorem: str, ctx: BoundContext) -> float:
    """Analytic right-hand side (or exact identity value) of a catalog entry."""
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}")
    return float(THEOREMS[theorem].evaluator(ctx))


@dataclass
class BoundReport:
    """Empirical LHS vs analytic RHS with the pass/fail verdict."""

    theorem: str
    lhs: float
    stderr: float
    rhs: float
    satisfied: bool
    vacuous: bool
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


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


def check_bound(theorem: str, lhs: float, ctx: BoundContext,
                stderr: float = 0.0, allowance_sigmas: float = 3.0) -> BoundReport:
    """Compare an empirical statistic with a catalog RHS through verdict.

    The slack is allowance_sigmas standard errors (one-sided for upper and
    lower bounds, two-sided for identities), so a non-finite stderr is never
    satisfied either.  Tail bounds whose RHS reaches 1 are flagged vacuous.
    """
    entry = THEOREMS[theorem]
    rhs = evaluate_bound(theorem, ctx)
    return BoundReport(theorem=theorem, lhs=float(lhs), stderr=float(stderr), rhs=rhs,
                       satisfied=verdict(lhs, rhs, entry.kind, allowance_sigmas * stderr),
                       vacuous=bool(entry.tail and rhs >= 1.0), kind=entry.kind)


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


def max_pairing_offdiagonal_sum(values, rho, exact_limit: int = 20) -> float:
    """max over pairings of sum_{(k,l)} |a_k - a_l| |rho_kl|.

    rho must be expressed in the eigenbasis of the observable whose
    eigenvalues are `values`.  A vertex may stay unpaired.  Up to
    exact_limit vertices the maximum is exact: the weights are >= 0, so a
    maximum-weight matching can be completed to a perfect one (odd n gets a
    zero-weight padding vertex) and the bitmask DP finds it.  Above that a
    greedy edge selection is used, whose value is a certified lower bound on
    the true maximum (still sound for the commutator lemma, whose RHS is
    itself a lower bound).
    """
    a = np.asarray(values, dtype=float)
    n = len(a)
    w = np.abs(a[:, None] - a[None, :]) * np.abs(np.asarray(rho, dtype=complex))
    if n <= exact_limit:
        if n % 2:
            w = np.pad(w, ((0, 1), (0, 1)))
        return _max_weight_perfect_matching(w.tolist())
    k_idx, l_idx = np.triu_indices(n, 1)
    edges = [(k, l, x) for k, l, x in zip(k_idx.tolist(), l_idx.tolist(),
                                          w[k_idx, l_idx].tolist()) if x > 0]
    used: set[int] = set()
    total = 0.0
    for k, l, x in sorted(edges, key=lambda e: -e[2]):
        if k not in used and l not in used:
            used.update((k, l))
            total += x
    return total
