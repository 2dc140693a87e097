"""Theorem catalog: formula values, comparison semantics, matching solver."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from purestat import (
    BoundContext,
    THEOREMS,
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

RNG = np.random.default_rng(2468)


def test_expectation_equilibration_value():
    ctx = BoundContext(norm_a=1.0, deff=100.0)
    assert evaluate_bound("EXPECTATION_EQUILIBRATION", ctx) == pytest.approx(0.01)


def test_subsystem_equilibration_values():
    assert evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                          BoundContext(d_s=2, deff_b=200.0)) == pytest.approx(0.05)
    assert evaluate_bound("SUBSYSTEM_EQUILIBRATION",
                          BoundContext(d_s=2, deff=400.0)) == pytest.approx(0.05)


def test_mc_concentration_value_and_vacuousness():
    # C = 1/(36 pi^3) ~ 8.96e-4; at d_R = 1000, eps = 0.1 the tail is ~1.982
    ctx = BoundContext(d_r=1000, epsilon=0.1, norm_b=1.0)
    val = evaluate_bound("MC_CONCENTRATION", ctx)
    c = 1.0 / (36 * math.pi ** 3)
    assert c == pytest.approx(8.9588e-4, rel=1e-4)
    assert val == pytest.approx(2 * math.exp(-c * 10), rel=1e-12)
    assert val == pytest.approx(1.98216, abs=2e-4)
    rep = check_bound("MC_CONCENTRATION", 0.5, ctx)
    assert rep.vacuous and rep.satisfied


def test_deff_subspace_mean_value():
    assert evaluate_bound("DEFF_SUBSPACE_MEAN", BoundContext(d_r=64)) == 32.0


def test_deff_product_mean_value():
    assert evaluate_bound("DEFF_PRODUCT_MEAN",
                          BoundContext(d_sr=4, d_br=32)) == pytest.approx(41.25)


def test_lloyd_identity_value():
    ctx = BoundContext(d_r=32, mc_mean_b=0.5, mc_mean_b2=0.5)
    assert evaluate_bound("MC_VARIANCE_IDENTITY", ctx) == pytest.approx(0.25 / 33)


def test_variance_concentration_closed_form_consistency():
    for d_r in (16, 64, 256, 1024):
        for eps in (0.01, 0.1, 0.5, 1.0):
            # evaluator raises if the closed form undercuts the min form
            val = evaluate_bound("MC_VARIANCE_CONCENTRATION",
                                 BoundContext(d_r=d_r, epsilon=eps))
            assert val <= 4.0 + 1e-12


def test_canonical_reduction_threshold_and_tail():
    ctx = BoundContext(d_r=32, epsilon=0.1, d_s=2, deff_b=16.0)
    thr = canonical_reduction_threshold(ctx)
    assert thr == pytest.approx(0.2 + 2 * math.sqrt(2 / 16))
    val = evaluate_bound("CANONICAL_REDUCTION", ctx)
    assert val == pytest.approx(2 * math.exp(-32 * 0.01 / (18 * math.pi ** 3)))


def test_levy_constant():
    ctx = BoundContext(d=64, epsilon=0.1, eta=2.0)
    val = evaluate_bound("LEVY", ctx)
    assert val == pytest.approx(2 * math.exp(-64 * 0.01 / (4 * 9 * math.pi ** 3)))


def test_entangled_tail_values():
    ctx = BoundContext(d_s=2, d_b=64, epsilon=0.25)
    single = evaluate_bound("ENTANGLED_STATE_TAIL", ctx)
    c = 1 / (14 * math.log(2))
    assert single == pytest.approx(2 * 80 ** 4 * math.exp(-c * 64 * 0.0625), rel=1e-10)
    ctx.d = 128
    assert evaluate_bound("ENTANGLED_EIGS_TAIL", ctx) == pytest.approx(128 * single)


def test_eq_time_values():
    assert evaluate_bound("EQ_TIME_HEISENBERG",
                          BoundContext(delta_e=0.5)) == pytest.approx(2.0)
    ctx = BoundContext(p_eq=0.5, d_s=2, norm_hsb=0.25)
    expected = math.log(2) / (4 * math.sqrt(math.log(2)) * 0.25)
    assert evaluate_bound("EQ_TIME_PURITY", ctx) == pytest.approx(expected)


def test_purity_rate_instant_forms():
    ctx = BoundContext(purity_s=0.8, mutual_info=0.5, norm_hsb=0.3)
    assert evaluate_bound("PURITY_RATE_INSTANT", ctx) == pytest.approx(
        2 * 0.8 * math.sqrt(1.0) * 0.3)
    pure_ctx = BoundContext(purity_s=0.8, entropy_s=0.25, norm_hsb=0.3)
    assert evaluate_bound("PURITY_RATE_INSTANT", pure_ctx) == pytest.approx(
        4 * 0.8 * 0.5 * 0.3)


def test_mean_energy_crude_cap():
    spectrum = np.array([1.0, 1.5, 2.0])
    ctx = BoundContext(d=3, energy=1.4, spectrum=spectrum)
    approx = evaluate_bound("DEFF_MEAN_ENERGY", ctx)
    assert approx == pytest.approx(2 * 1.4 ** 2 / 9 * (1 + 1 / 2.25 + 0.25))
    assert mean_energy_purity_crude_bound(ctx) == pytest.approx(2 / 3 * 1.5 ** 2)


def test_missing_context_field_raises():
    with pytest.raises(ValueError, match="needs context field"):
        evaluate_bound("SPEED", BoundContext(d_s=2))
    with pytest.raises(KeyError):
        evaluate_bound("NOT_A_THEOREM", BoundContext())


def test_check_bound_semantics():
    ctx = BoundContext(norm_a=1.0, deff=100.0)
    assert check_bound("EXPECTATION_EQUILIBRATION", 0.008, ctx).satisfied
    assert not check_bound("EXPECTATION_EQUILIBRATION", 0.02, ctx).satisfied
    # identity: two-sided within 3 sigma
    ictx = BoundContext(d_r=32, mc_mean_b=0.5, mc_mean_b2=0.5)
    rhs = evaluate_bound("MC_VARIANCE_IDENTITY", ictx)
    assert check_bound("MC_VARIANCE_IDENTITY", rhs + 1e-5, ictx, stderr=1e-5).satisfied
    assert not check_bound("MC_VARIANCE_IDENTITY", rhs + 1e-3, ictx, stderr=1e-5).satisfied
    assert check_bound("MC_VARIANCE_IDENTITY", rhs, ictx, stderr=0.0).satisfied
    # lower bounds flip the comparison
    lctx = BoundContext(d_r=64)
    assert check_bound("DEFF_SUBSPACE_MEAN", 40.0, lctx).satisfied
    assert not check_bound("DEFF_SUBSPACE_MEAN", 20.0, lctx).satisfied


# every context field set, so every catalog entry evaluates to a finite rhs
FULL_CTX = BoundContext(
    d=4, d_s=2, d_b=2, d_r=16, d_sr=2, d_br=8, norm_a=1.0, norm_b=1.0, norm_hsb=1.0,
    norm_hs_plus_hsb=1.0, norm_dephased_b=1.0, deff=4.0, deff_b=4.0, deff_rho_b=4.0,
    deff_sigma_b=4.0, epsilon=0.1, delta=0.1, m=2, eta=1.0, energy=2.5,
    spectrum=np.array([1.0, 2.0, 3.0, 4.0]), p_eq=0.5, delta_e=1.0, mc_mean_b=0.5,
    mc_mean_b2=0.5, purity_s=0.8, mutual_info=0.1, entropy_s=0.1, pairing_sum=1.0)


def test_check_bound_never_satisfied_by_non_finite_values(monkeypatch):
    # the reproduced hole: an infinite lhs "satisfied" a lower bound
    assert not check_bound("COMMUTATOR_LOWER", math.inf,
                           BoundContext(pairing_sum=1.0)).satisfied
    bad = (math.inf, -math.inf, math.nan)
    for name, entry in THEOREMS.items():
        rhs = evaluate_bound(name, FULL_CTX)
        assert math.isfinite(rhs), name
        assert check_bound(name, rhs, FULL_CTX).satisfied, name   # lhs == rhs passes
        for v in bad:
            assert not check_bound(name, v, FULL_CTX).satisfied, (name, v)
            assert not check_bound(name, rhs, FULL_CTX, stderr=v).satisfied, (name, v)
        for v in bad:   # a degenerate rhs, for every kind
            monkeypatch.setitem(THEOREMS, name,
                                dataclasses.replace(entry, evaluator=lambda ctx, v=v: v))
            assert not check_bound(name, 0.5, FULL_CTX).satisfied, (name, v)
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


def test_greedy_fallback_is_lower_bound():
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = 8
        vals = np.sort(rng.random(n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = g @ dagger(g); rho /= np.trace(rho).real
        exact = max_pairing_offdiagonal_sum(vals, rho)
        greedy = max_pairing_offdiagonal_sum(vals, rho, exact_limit=0)
        assert greedy <= exact + 1e-12
        assert greedy > 0


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
