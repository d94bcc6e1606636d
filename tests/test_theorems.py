"""Implication harnesses, counterexample constructions, and ratio diagnostics.

The harness reports are checked for three things: premise status labels
match the analytic facts, the limit estimates land where closed forms
say they must, and `consistent` is never false (vacuous implications
included). Construction outputs are re-verified against the strict
interval chains they were searched for.
"""

from __future__ import annotations

import math

import pytest

import horizonlab as h
import horizonlab.discount as d
import horizonlab.reward as r
import horizonlab.theorems as t
import horizonlab.value as v
from horizonlab import PremiseFailure


def premise_status(report, name_fragment: str) -> str:
    for p in report.premises:
        if name_fragment in p.name:
            return p.status
    raise AssertionError(f"no premise matching {name_fragment!r}")


# -- average implies discounted ----------------------------------------


def test_bounded_ratio_harness_positive_case() -> None:
    rep = t.verify_U_implies_V(h.linear_runs(), h.quadratic(), scale=10**4)
    assert rep.theorem == "avg-to-disc"
    assert all(p.status == "satisfied" for p in rep.premises)
    assert rep.hypothesis.verdict == "converged"
    assert rep.conclusion.verdict == "converged"
    assert rep.hypothesis.band.contains(0.5)
    assert rep.conclusion.band.contains(0.5)
    assert rep.consistent


def test_bounded_ratio_harness_violated_premise_is_not_a_contradiction() -> None:
    rep = t.verify_U_implies_V(h.periodic([1.0, 0.0]), h.geometric(0.5),
                               scale=10**4)
    assert premise_status(rep, "k*gamma_k/Gamma_k") == "violated"
    assert not all(p.status == "satisfied" for p in rep.premises)
    assert rep.hypothesis.verdict == "converged"       # U -> 1/2
    assert rep.conclusion.verdict == "oscillating"     # V splits to 1/3, 2/3
    assert abs(rep.conclusion.alpha - 1.0 / 3.0) < 1e-2
    assert abs(rep.conclusion.beta - 2.0 / 3.0) < 1e-2
    assert rep.consistent


def test_bounded_ratio_harness_constant_reward() -> None:
    rep = t.verify_U_implies_V(h.constant(0.7), h.power(1.0), scale=10**4)
    assert rep.consistent
    assert rep.hypothesis.band.contains(0.7)
    assert rep.conclusion.band.contains(0.7)


# -- discounted implies average ----------------------------------------


def test_reciprocal_ratio_harness_violated_premise() -> None:
    rep = t.verify_V_implies_U(h.exponential_runs(), h.harmonic_like(),
                               scale=4**7)
    assert rep.theorem == "disc-to-avg"
    assert premise_status(rep, "Gamma_k/(k*gamma_k)") == "violated"
    # V tends to 1/2 while U oscillates between 1/3 and 2/3: the
    # implication's premise fails, so nothing is contradicted.
    assert rep.conclusion.verdict == "oscillating"
    assert rep.consistent


def test_reciprocal_ratio_harness_vacuous_when_hypothesis_fails() -> None:
    rep = t.verify_V_implies_U(h.linear_runs(), h.geometric(0.5), scale=10**4)
    assert premise_status(rep, "Gamma_k/(k*gamma_k)") == "satisfied"
    assert rep.hypothesis.verdict == "oscillating"
    assert rep.consistent


def test_reciprocal_ratio_harness_constant_reward() -> None:
    rep = t.verify_V_implies_U(h.constant(0.3), h.geometric(0.9), scale=10**4)
    assert rep.consistent
    assert rep.hypothesis.band.contains(0.3)
    assert rep.conclusion.band.contains(0.3)


# -- equality under monotone discounts ----------------------------------


def test_equality_harness_monotone_patched_discount() -> None:
    rep = t.verify_U_eq_V(h.linear_runs(), d.build_patched([1, 2]),
                          scale=2**13)
    assert rep.theorem == "avg-equals-disc"
    assert premise_status(rep, "monotone") == "satisfied"
    if (rep.hypothesis.verdict == "converged"
            and rep.conclusion.verdict == "converged"):
        assert rep.hypothesis.band.intersects(rep.conclusion.band)
    assert rep.consistent


def test_equality_harness_flags_expected_counterexample_zero_weights() -> None:
    rep = t.verify_U_eq_V(h.periodic([1.0, 0.0]), h.alternating_zero(),
                          scale=10**4)
    assert premise_status(rep, "monotone") == "violated"
    assert rep.hypothesis.band.contains(0.5)
    assert rep.conclusion.band.lo == rep.conclusion.band.hi == 0.0
    assert any("expected counterexample" in line for line in rep.log)
    assert rep.consistent


def test_equality_harness_flags_expected_counterexample_cosine() -> None:
    rep = t.verify_U_eq_V(h.linear_runs(), h.cosine_modulated(), scale=2**13)
    assert premise_status(rep, "monotone") == "violated"
    assert rep.hypothesis.band.contains(0.5)
    # Both limits exist yet differ: the discounted band sits well below.
    assert rep.conclusion.verdict == "converged"
    assert rep.conclusion.band.hi < rep.hypothesis.band.lo
    assert any("expected counterexample" in line for line in rep.log)
    assert rep.consistent


# -- future averages ----------------------------------------------------


def test_future_average_harness_detects_violated_weight_ratio() -> None:
    rep = t.verify_future_avg(h.linear_runs(), h.quadratic(),
                              lambda k: 2 * k, scale=10**4)
    assert rep.theorem == "future-avg-to-disc"
    assert premise_status(rep, "gamma_{m_k}/gamma_k") == "violated"
    assert rep.consistent


def test_future_average_harness_short_window_oscillates_vacuously() -> None:
    # Window sqrt(k) is shorter than the run length ~ sqrt(2k), so the
    # windowed average oscillates and the implication is vacuous.
    rep = t.verify_future_avg(h.linear_runs(), h.harmonic_like(),
                              lambda k: k + math.isqrt(k) + 1, scale=5000)
    assert premise_status(rep, "gamma_{m_k}/gamma_k") == "satisfied"
    assert rep.hypothesis.verdict == "oscillating"
    assert rep.consistent


def test_future_average_harness_wide_window_straddles_half() -> None:
    # Window k^(3/4) dominates the run length; the windowed average
    # brackets 1/2 even where the scan cannot yet certify convergence.
    rep = t.verify_future_avg(h.linear_runs(), h.harmonic_like(),
                              lambda k: k + int(k**0.75) + 1, scale=10**4)
    assert premise_status(rep, "gamma_{m_k}/gamma_k") != "violated"
    assert rep.hypothesis.band.contains(0.5)
    assert rep.conclusion.band.contains(0.5)
    assert rep.consistent


def test_future_average_ratios_past_the_support_are_undefined() -> None:
    # gamma_k = 0 past k = 50, so the late ratios are the 0/0 placeholder
    # [0, inf]; its midpoint is no drift toward 1
    rep = t.verify_future_avg(h.linear_runs(), h.finite(50), lambda k: 2 * k, scale=10**4)
    check = next(p for p in rep.premises if p.name.startswith("gamma_{m_k}/gamma_k"))
    assert check.status == "undecidable-at-scale"
    assert "undefined past the support" in check.evidence
    assert "approaching" not in check.evidence


def test_future_average_harness_identity_window_is_trivial() -> None:
    rep = t.verify_future_avg(h.constant(0.7), h.geometric(0.5),
                              lambda k: k, scale=10**4)
    assert all(p.status == "satisfied" for p in rep.premises)
    assert rep.hypothesis.band.contains(0.7)
    assert rep.conclusion.band.contains(0.7)
    assert rep.consistent


# -- first construction: diverging ratio --------------------------------


def test_first_construction_satisfies_interval_chain() -> None:
    dspec = h.geometric(0.5)
    spec = t.construct_prop1_reward(dspec, 5)
    pts = spec.params[1]
    assert len(pts) == 10
    ks, ms = pts[0::2], pts[1::2]
    for n in range(1, 6):
        k_n, m_n = ks[n - 1], ms[n - 1]
        assert k_n < m_n
        # Ratio certificate at m_n.
        assert d.horizon_ratio(dspec, m_n).lo >= n * n
        # Tail-halving chain between consecutive 1-runs.
        if n >= 2:
            prev_m = ms[n - 2]
            assert (d.gamma_tail(dspec, m_n).hi
                    < 0.5 * d.gamma_tail(dspec, prev_m + 1).lo)
        # Two-sided bracket locating k_n.
        tail_m = d.gamma_tail(dspec, m_n)
        assert d.gamma_tail(dspec, k_n + 1).hi < 2.0 * tail_m.hi
        assert 2.0 * tail_m.lo <= d.gamma_tail(dspec, k_n).hi


def test_first_construction_discounted_value_contracts() -> None:
    dspec = h.geometric(0.5)
    spec = t.construct_prop1_reward(dspec, 5)
    pts = spec.params[1]
    for k_n, m_n in zip(pts[0::2], pts[1::2]):
        v_k = v.disc_value(spec, dspec, k_n, tol=1e-9)
        v_m = v.disc_value(spec, dspec, m_n, tol=1e-9)
        ratio = (1.0 - v_k.lo) / (1.0 - v_m.hi)
        assert ratio <= 0.5 + 1e-6, (k_n, m_n, ratio)


def test_first_construction_average_stays_low() -> None:
    dspec = h.geometric(0.5)
    spec = t.construct_prop1_reward(dspec, 5)
    pts = spec.params[1]
    ks, ms = pts[0::2], pts[1::2]
    for n in range(2, 6):
        m_n = ms[n - 1]
        u = v.avg_value(spec, m_n - 1)
        for l in range(2, n + 1):
            assert u <= ks[l - 1] / m_n + 2.0 / (l - 1) + 1e-12


def test_first_construction_rejects_bounded_ratio_families() -> None:
    with pytest.raises(PremiseFailure):
        t.construct_prop1_reward(h.quadratic(), 3)


# -- second construction: vanishing ratio --------------------------------


def test_second_construction_satisfies_growth_rules() -> None:
    dspec = h.harmonic_like()
    spec = t.construct_prop2_reward(dspec, 4)
    pts = spec.params[1]
    ks, ms = pts[0::2], pts[1::2]
    assert len(ks) == 4
    for n in range(1, 5):
        assert ms[n - 1] == 2 * ks[n - 1]
        if n >= 2:
            assert ks[n - 1] > 8 * ks[n - 2]
            assert d.horizon_ratio(dspec, ks[n - 1]).hi <= 1.0 / (n * n)


def test_second_construction_discounted_value_vanishes() -> None:
    dspec = h.harmonic_like()
    spec = t.construct_prop2_reward(dspec, 4)
    ks = spec.params[1][0::2]
    for n in range(2, 5):
        v_k = v.disc_value(spec, dspec, ks[n - 1], tol=1e-4)
        assert v_k.hi <= 1.0 / (n - 1) + 1e-3, (n, v_k)


def test_second_construction_average_oscillation_witnesses() -> None:
    spec = t.construct_prop2_reward(h.harmonic_like(), 4)
    pts = spec.params[1]
    ks, ms = pts[0::2], pts[1::2]
    for n in range(2, 5):
        assert v.avg_value(spec, ms[n - 1] - 1) >= 0.5
        assert v.avg_value(spec, ks[n - 1] - 1) <= 0.25 + 1e-3


def test_second_construction_rejects_bounded_reciprocal_families() -> None:
    with pytest.raises(PremiseFailure):
        t.construct_prop2_reward(h.geometric(0.9), 3)


def test_constructions_are_scale_free() -> None:
    import dataclasses
    base = h.geometric(0.5)
    scaled = dataclasses.replace(base, scale=5.0)
    assert (t.construct_prop1_reward(base, 4).params[1]
            == t.construct_prop1_reward(scaled, 4).params[1])
    hbase = h.harmonic_like()
    hscaled = dataclasses.replace(hbase, scale=0.25)
    assert (t.construct_prop2_reward(hbase, 3).params[1]
            == t.construct_prop2_reward(hscaled, 3).params[1])


# -- ratio diagnostics ---------------------------------------------------


def test_ratio_diagnostics_smooth_family() -> None:
    diag = t.lemma4_diagnostics(h.quadratic(), h.dyadic_schedule(2**12))
    assert diag.pattern.startswith("smooth")
    assert diag.labels["step_ratio"] == "tends-to-1"
    assert diag.labels["weight_share"] == "tends-to-0"
    assert diag.step_ratio[-1].contains(1.0) or diag.step_ratio[-1].hi > 0.999


def test_ratio_diagnostics_step_family_breaks_step_ratio_only() -> None:
    grid = [2**n for n in range(1, 13)]
    diag = t.lemma4_diagnostics(h.step_log(), grid)
    assert diag.pattern.startswith("step-like")
    for n, iv in zip(range(1, 13), diag.step_ratio):
        assert iv.contains(0.25), (n, iv)
    for n, iv in zip(range(1, 13), diag.weight_share):
        assert iv.hi <= 2.0 ** (1 - n) + 1e-12, (n, iv)


def test_ratio_diagnostics_past_the_support_are_undefined() -> None:
    # past finite(50) gamma_k = Gamma_k = 0: each ratio is the placeholder
    # [0, inf], whose hull is no limit, not "flat around inf"
    diag = t.lemma4_diagnostics(h.finite(50), [2, 10, 100, 1000])
    assert diag.labels == dict.fromkeys(("step_ratio", "weight_share", "tail_ratio"), "undefined")
    assert diag.pattern.startswith("undefined") and "past the support" in diag.pattern
    assert "inf" not in diag.pattern


def test_ratio_diagnostics_geometric_is_proportional() -> None:
    diag = t.lemma4_diagnostics(h.geometric(0.5), [1, 2, 4, 8, 16])
    assert diag.pattern.startswith("proportional")
    for iv in diag.step_ratio:
        assert iv.lo == iv.hi == 0.5
    for iv in diag.weight_share:
        assert iv.lo == iv.hi == 0.5
    diag2 = t.lemma4_diagnostics(h.geometric(0.75), [1, 2, 4, 8])
    for iv in diag2.step_ratio:
        assert iv.contains(0.75) and iv.width < 1e-12
    for iv in diag2.weight_share:
        assert iv.contains(0.25) and iv.width < 1e-12
