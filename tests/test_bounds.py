"""Theorem catalog: formula values, comparison semantics, matching solver."""

import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest

from purestat import (
    THEOREMS,
    TrialRecord,
    canonical_reduction_threshold,
    check_bound,
    commutator,
    dagger,
    evaluate_bound,
    max_pairing_offdiagonal_sum,
    mean_energy_purity_crude_bound,
    trace_norm,
    verdict,
)
from purestat.bounds import _EXACT_PAIRING_LIMIT, _greedy_pairing_sum

RNG = np.random.default_rng(2468)


def test_expectation_equilibration_value():
    inputs = {"norm_a": 1.0, "deff": 100.0}
    assert evaluate_bound("EXPECTATION_EQUILIBRATION", inputs) == pytest.approx(0.01)


def test_subsystem_equilibration_values():
    assert evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                          {"d_s": 2, "deff_b": 200.0}) == pytest.approx(0.05)
    assert evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                          {"d_s": 8, "deff_b": 200.0}) == pytest.approx(0.1)


def test_mc_concentration_value_and_vacuousness():
    # C = 1/(36 pi^3) ~ 8.96e-4; at d_R = 1000, eps = 0.1 the tail is ~1.982
    inputs = {"d_r": 1000, "epsilon": 0.1, "norm_b": 1.0}
    val = evaluate_bound("MC_CONCENTRATION", inputs)
    c = 1.0 / (36 * math.pi ** 3)
    assert c == pytest.approx(8.9588e-4, rel=1e-4)
    assert val == pytest.approx(2 * math.exp(-c * 10), rel=1e-12)
    assert val == pytest.approx(1.98216, abs=2e-4)
    row = check_bound("MC_CONCENTRATION", 0.5, inputs)
    assert row.vacuous and row.satisfied


def test_deff_subspace_mean_value():
    assert evaluate_bound("DEFF_SUBSPACE_MEAN", {"d_r": 64}) == 32.0


def test_deff_product_mean_value():
    assert evaluate_bound("DEFF_PRODUCT_MEAN", {"d_sr": 4, "d_br": 32}) == pytest.approx(41.25)


def test_lloyd_identity_value():
    inputs = {"d_r": 32, "mc_mean_b": 0.5, "mc_mean_b2": 0.5}
    assert evaluate_bound("MC_VARIANCE_IDENTITY", inputs) == pytest.approx(0.25 / 33)


def test_variance_concentration_closed_form_consistency():
    for d_r in (16, 64, 256, 1024):
        for eps in (0.01, 0.1, 0.5, 1.0):
            # evaluator raises if the closed form undercuts the min form
            val = evaluate_bound("MC_VARIANCE_CONCENTRATION", {"d_r": d_r, "epsilon": eps})
            assert val <= 4.0 + 1e-12


def test_canonical_reduction_threshold_and_tail():
    thr = canonical_reduction_threshold(epsilon=0.1, d_s=2, deff_b=16.0)
    assert thr == pytest.approx(0.2 + 2 * math.sqrt(2 / 16))
    val = evaluate_bound("CANONICAL_REDUCTION", {"d_r": 32, "epsilon": 0.1})
    assert val == pytest.approx(2 * math.exp(-32 * 0.01 / (18 * math.pi ** 3)))


def test_levy_constant():
    val = evaluate_bound("LEVY", {"d": 64, "epsilon": 0.1, "eta": 2.0})
    assert val == pytest.approx(2 * math.exp(-64 * 0.01 / (4 * 9 * math.pi ** 3)))


def test_entangled_tail_values():
    inputs = {"d_s": 2, "d_b": 64, "epsilon": 0.25}
    single = evaluate_bound("ENTANGLED_STATE_TAIL", inputs)
    c = 1 / (14 * math.log(2))
    assert single == pytest.approx(2 * 80 ** 4 * math.exp(-c * 64 * 0.0625), rel=1e-10)
    assert evaluate_bound("ENTANGLED_EIGS_TAIL", {**inputs, "d": 128}) == pytest.approx(
        128 * single)


def test_eq_time_values():
    assert evaluate_bound("EQ_TIME_HEISENBERG", {"delta_e": 0.5}) == pytest.approx(2.0)
    inputs = {"p_eq": 0.5, "d_s": 2, "norm_hsb": 0.25}
    expected = math.log(2) / (4 * math.sqrt(math.log(2)) * 0.25)
    assert evaluate_bound("EQ_TIME_PURITY", inputs) == pytest.approx(expected)


def test_purity_rate_instant_forms():
    inputs = {"purity_s": 0.8, "mutual_info": 0.5, "norm_hsb": 0.3}
    assert evaluate_bound("PURITY_RATE_INSTANT", inputs) == pytest.approx(
        2 * 0.8 * math.sqrt(1.0) * 0.3)
    # pure global state: I_SB = 2 S(rho^S), so the bound is 4 p^S sqrt(S) |H_SB|
    pure = {"purity_s": 0.8, "mutual_info": 2 * 0.25, "norm_hsb": 0.3}
    assert evaluate_bound("PURITY_RATE_INSTANT", pure) == pytest.approx(4 * 0.8 * 0.5 * 0.3)


def test_mean_energy_crude_cap():
    spectrum = np.array([1.0, 1.5, 2.0])
    approx = evaluate_bound("DEFF_MEAN_ENERGY", {"d": 3, "energy": 1.4, "spectrum": spectrum})
    assert approx == pytest.approx(2 * 1.4 ** 2 / 9 * (1 + 1 / 2.25 + 0.25))
    assert mean_energy_purity_crude_bound(d=3, spectrum=spectrum) == pytest.approx(
        2 / 3 * 1.5 ** 2)


def test_missing_or_unexpected_input_raises_type_error():
    with pytest.raises(TypeError, match="norm_hs_plus_hsb"):
        evaluate_bound("SPEED", {"d_s": 2, "deff": 4.0})
    with pytest.raises(TypeError, match="deff_b"):
        check_bound("SUBSYSTEM_EQUILIBRATION", 0.1, {"d_s": 2})
    # the deleted alternative inputs are unexpected now, like any misspelling
    with pytest.raises(TypeError, match="'deff'"):
        evaluate_bound("SUBSYSTEM_EQUILIBRATION", {"d_s": 2, "deff_b": 4.0, "deff": 4.0})
    with pytest.raises(TypeError, match="entropy_s"):
        evaluate_bound("PURITY_RATE_INSTANT", {"purity_s": 0.8, "mutual_info": 0.5,
                                               "norm_hsb": 0.3, "entropy_s": 0.25})
    with pytest.raises(TypeError, match="'d_r'"):
        canonical_reduction_threshold(epsilon=0.1, d_s=2, deff_b=16.0, d_r=32)
    with pytest.raises(KeyError):
        evaluate_bound("NOT_A_THEOREM", {})


def test_check_bound_semantics():
    inputs = {"norm_a": 1.0, "deff": 100.0}
    assert check_bound("EXPECTATION_EQUILIBRATION", 0.008, inputs).satisfied
    assert not check_bound("EXPECTATION_EQUILIBRATION", 0.02, inputs).satisfied
    # identity: two-sided within 3 sigma
    identity = {"d_r": 32, "mc_mean_b": 0.5, "mc_mean_b2": 0.5}
    rhs = evaluate_bound("MC_VARIANCE_IDENTITY", identity)
    assert check_bound("MC_VARIANCE_IDENTITY", rhs + 1e-5, identity, stderr=1e-5,
                       allowance_sigmas=3.0).satisfied
    assert not check_bound("MC_VARIANCE_IDENTITY", rhs + 1e-3, identity, stderr=1e-5,
                           allowance_sigmas=3.0).satisfied
    assert check_bound("MC_VARIANCE_IDENTITY", rhs, identity, stderr=0.0,
                       allowance_sigmas=3.0).satisfied
    # the allowance defaults to 0: the stderr only annotates the row
    assert not check_bound("MC_VARIANCE_IDENTITY", rhs + 1e-5, identity, stderr=1e-5).satisfied
    # lower bounds flip the comparison
    assert check_bound("DEFF_SUBSPACE_MEAN", 40.0, {"d_r": 64}).satisfied
    assert not check_bound("DEFF_SUBSPACE_MEAN", 20.0, {"d_r": 64}).satisfied


def test_check_bound_returns_the_judged_row():
    row = check_bound("DEFF_SUBSPACE_MEAN", 40.0, {"d_r": 64}, stderr=2.0,
                      allowance_sigmas=-1.96, ci95=[36.08, 43.92])
    assert isinstance(row, TrialRecord)
    assert (row.lhs, row.stderr, row.rhs, row.satisfied, row.vacuous) == (
        40.0, 2.0, 32.0, True, False)
    assert row.extra == {"ci95": [36.08, 43.92]} and row.trial == 0
    # a negative allowance tightens: 33 - 1.96 * 2 < 32
    assert not check_bound("DEFF_SUBSPACE_MEAN", 33.0, {"d_r": 64}, stderr=2.0,
                           allowance_sigmas=-1.96).satisfied


def test_nan_stderr_counts_only_with_an_allowance():
    inputs = {"norm_a": 1.0, "deff": 100.0}
    annotated = check_bound("EXPECTATION_EQUILIBRATION", 0.008, inputs, stderr=math.nan)
    assert annotated.satisfied and math.isnan(annotated.stderr)
    assert not check_bound("EXPECTATION_EQUILIBRATION", 0.02, inputs,
                           stderr=math.nan).satisfied        # lhs against rhs alone
    assert not check_bound("EXPECTATION_EQUILIBRATION", 0.008, inputs, stderr=math.nan,
                           allowance_sigmas=3.0).satisfied


# a value for every evaluator input, so every catalog entry evaluates to a finite rhs
FULL_INPUTS = dict(
    d=4, d_s=2, d_b=2, d_r=16, d_sr=2, d_br=8, norm_a=1.0, norm_b=1.0, norm_hsb=1.0,
    norm_hs_plus_hsb=1.0, norm_dephased_b=1.0, deff=4.0, deff_b=4.0, deff_rho_b=4.0,
    deff_sigma_b=4.0, epsilon=0.1, delta=0.1, m=2, eta=1.0, energy=2.5,
    spectrum=np.array([1.0, 2.0, 3.0, 4.0]), p_eq=0.5, delta_e=1.0, mc_mean_b=0.5,
    mc_mean_b2=0.5, purity_s=0.8, mutual_info=0.1, pairing_sum=1.0)


def test_check_bound_never_satisfied_by_non_finite_values(monkeypatch):
    # the reproduced hole: an infinite lhs "satisfied" a lower bound
    assert not check_bound("COMMUTATOR_LOWER", math.inf, {"pairing_sum": 1.0}).satisfied
    bad = (math.inf, -math.inf, math.nan)
    used = set()
    for name, entry in THEOREMS.items():
        # each evaluator's inputs, read from its signature
        inputs = {p: FULL_INPUTS[p] for p in inspect.signature(entry.evaluator).parameters}
        used.update(inputs)
        rhs = evaluate_bound(name, inputs)
        assert math.isfinite(rhs), name
        assert check_bound(name, rhs, inputs).satisfied, name   # lhs == rhs passes
        for v in bad:
            assert not check_bound(name, v, inputs).satisfied, (name, v)
            assert not check_bound(name, rhs, inputs, stderr=v,
                                   allowance_sigmas=3.0).satisfied, (name, v)
        for v in bad:   # a degenerate rhs, for every kind
            monkeypatch.setitem(THEOREMS, name,
                                dataclasses.replace(entry, evaluator=lambda v=v, **_: v))
            assert not check_bound(name, 0.5, inputs).satisfied, (name, v)
    assert used == set(FULL_INPUTS)
    assert {e.kind for e in THEOREMS.values()} == {"upper", "lower", "identity"}


def test_verdict_kinds_slack_and_non_finite_values():
    for kind in ("upper", "lower", "identity"):
        assert verdict(1.0, 1.0, kind) is True           # equality passes, non-strict
    assert verdict(1.05, 1.0, "upper", 0.1) and not verdict(1.2, 1.0, "upper", 0.1)
    assert verdict(0.95, 1.0, "lower", 0.1) and not verdict(0.8, 1.0, "lower", 0.1)
    assert verdict(1.05, 1.0, "identity", 0.1) and verdict(0.95, 1.0, "identity", 0.1)
    assert not verdict(1.2, 1.0, "identity", 0.1) and not verdict(0.8, 1.0, "identity", 0.1)
    # a negative slack tightens: a CI lower end that must clear the bound
    assert verdict(1.2, 1.0, "lower", -0.1) and not verdict(1.05, 1.0, "lower", -0.1)
    assert verdict(123.0, -4.0, "observation") is True   # recorded, not compared
    for kind in ("upper", "lower", "identity", "observation"):
        for v in (math.inf, -math.inf, math.nan):
            assert verdict(v, 1.0, kind) is False, (kind, v)
            assert verdict(1.0, v, kind) is False, (kind, v)
            assert verdict(1.0, 1.0, kind, v) is False, (kind, v)
    with pytest.raises(ValueError, match="unknown verdict kind"):
        verdict(1.0, 1.0, "strict")


def test_every_catalog_entry_has_formula_doc():
    for name, entry in THEOREMS.items():
        assert entry.formula, name
        assert entry.kind in ("upper", "lower", "identity")


def _brute_force_pairing(values, rho):
    """Enumerate every decomposition into non-overlapping pairs."""
    n = len(values)
    best = 0.0

    def rec(remaining, acc):
        nonlocal best
        best = max(best, acc)
        if len(remaining) < 2:
            return
        k = remaining[0]
        rest = remaining[1:]
        rec(rest, acc)  # k stays unpaired
        for i, l in enumerate(rest):
            w = abs(values[k] - values[l]) * abs(rho[k, l])
            rec(rest[:i] + rest[i + 1:], acc + w)

    rec(list(range(n)), 0.0)
    return best


def test_pairing_diagonal_state_gives_zero():
    assert max_pairing_offdiagonal_sum([0.0, 1.0, 2.0], np.diag([0.2, 0.3, 0.5])) == 0.0


def test_pairing_two_level_hand_case():
    rho = 0.5 * np.ones((2, 2))
    val = max_pairing_offdiagonal_sum([0.0, 1.0], rho)
    assert val == pytest.approx(0.5)
    lhs = trace_norm(1j * commutator(rho.astype(complex), np.diag([0.0, 1.0])))
    assert lhs == pytest.approx(2 * val)  # equality for a single pair


def test_pairing_matches_brute_force():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 10))  # odd n included, and the n=8 of COMMUTATOR_LOWER
        vals = np.sort(rng.random(n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ dagger(g); rho /= np.trace(rho).real
        exact = max_pairing_offdiagonal_sum(vals, rho)
        brute = _brute_force_pairing(vals, rho)
        assert exact == pytest.approx(brute, abs=1e-12)


def test_pairing_needs_no_networkx(monkeypatch):
    monkeypatch.setitem(sys.modules, "networkx", None)  # any import of it now fails
    rng = np.random.default_rng(58)
    vals = np.sort(rng.random(7))
    g = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    rho = g @ dagger(g); rho /= np.trace(rho).real
    assert max_pairing_offdiagonal_sum(vals, rho) == pytest.approx(
        _brute_force_pairing(vals, rho), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_pairing_of_a_non_finite_state_is_nan(n):
    # Python's max dropped the NaN weight: [[.5, nan], [nan, .5]] paired to 0.0
    rho = np.eye(n, dtype=complex) / n
    rho[0, 1] = rho[1, 0] = np.nan
    vals = np.arange(float(n))
    assert math.isnan(max_pairing_offdiagonal_sum(vals, rho))
    big = np.eye(_EXACT_PAIRING_LIMIT + 1, dtype=complex)   # the greedy path
    big[0, 1] = big[1, 0] = np.nan
    assert math.isnan(max_pairing_offdiagonal_sum(np.arange(float(len(big))), big))
    for value in (np.nan, np.inf):   # inf - inf on the diagonal warned before
        vals[-1] = value
        assert math.isnan(max_pairing_offdiagonal_sum(vals, np.full((n, n), 1.0 / n)))


def _pairing_weights(vals, rho):
    return np.abs(vals[:, None] - vals[None, :]) * np.abs(rho)


def test_greedy_fallback_is_lower_bound():
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = 8
        vals = np.sort(rng.random(n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ dagger(g); rho /= np.trace(rho).real
        exact = max_pairing_offdiagonal_sum(vals, rho)
        greedy = _greedy_pairing_sum(_pairing_weights(vals, rho))
        assert greedy <= exact + 1e-12
        assert greedy > 0
    # above the exact limit the public function is the greedy matching
    n = _EXACT_PAIRING_LIMIT + 4
    vals = np.sort(rng.random(n))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ dagger(g); rho /= np.trace(rho).real
    assert max_pairing_offdiagonal_sum(vals, rho) == _greedy_pairing_sum(
        _pairing_weights(vals, rho))


def test_commutator_lower_bound_inequality():
    # 2 max_pairing <= ||[rho, A]||_1 on random instances (exact inequality)
    rng = np.random.default_rng(57)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        vals = np.sort(rng.random(n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ dagger(g); rho /= np.trace(rho).real
        lhs = trace_norm(1j * commutator(rho, np.diag(vals)))
        assert 2 * max_pairing_offdiagonal_sum(vals, rho) <= lhs + 1e-9
