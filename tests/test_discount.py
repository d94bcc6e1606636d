"""Discount families and the four horizon metrics.

Golden values here are independent closed forms: tail mass via geometric
series or telescoping, effective horizons via explicit halving indices,
and the power-family tail via the pi^2/6 identity. Each enclosure the
package returns must contain the truth and stay within a few ulps of it
when the truth is exactly representable.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import horizonlab as h
import horizonlab.discount as d
from horizonlab import EnclosureAmbiguous, IntegerInterval, Interval, UndefinedMetric

import oracles


def even_mass(impl, a: int, b: int) -> Interval:
    """The even-weight table's mass over [a, b), from its batch entry."""
    lo, hi = impl._evens.mass_arrays([a, b])
    return Interval(float(lo[0]), float(hi[0]))


def assert_tight(iv, golden: float, ulps: int = 8) -> None:
    """Both endpoints within `ulps` units in the last place of golden."""
    slack = ulps * math.ulp(max(abs(golden), 1e-300))
    assert golden - slack <= iv.lo <= iv.hi <= golden + slack, (iv, golden)


# -- golden table: quadratic / geometric(0.5) / finite(100) ------------


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_quadratic_metrics_match_closed_forms(k: int) -> None:
    spec = h.quadratic()
    assert math.isclose(d.gamma(spec, k), 1.0 / (k * (k + 1)), rel_tol=1e-15)
    assert_tight(d.gamma_tail(spec, k), 1.0 / k)
    assert d.effective_horizon(spec, k) == IntegerInterval(k, k)
    assert_tight(d.quasi_horizon(spec, k), float(k + 1))
    assert_tight(d.horizon_ratio(spec, k), k / (k + 1.0))


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_geometric_half_metrics_match_closed_forms(k: int) -> None:
    spec = h.geometric(0.5)
    assert d.gamma(spec, k) == 0.5**k
    assert_tight(d.gamma_tail(spec, k), 2.0 * 0.5**k)
    assert d.effective_horizon(spec, k) == IntegerInterval(1, 1)
    assert_tight(d.quasi_horizon(spec, k), 2.0)
    assert_tight(d.horizon_ratio(spec, k), k / 2.0)


@pytest.mark.parametrize("k", [1, 10, 100])
def test_finite_metrics_match_closed_forms(k: int) -> None:
    spec = h.finite(100)
    assert d.gamma(spec, k) == 1.0
    assert_tight(d.gamma_tail(spec, k), float(101 - k))
    assert d.effective_horizon(spec, k) == IntegerInterval(
        math.ceil((101 - k) / 2), math.ceil((101 - k) / 2)
    )
    assert_tight(d.quasi_horizon(spec, k), float(101 - k))
    assert_tight(d.horizon_ratio(spec, k), k / (101.0 - k))


def test_finite_metrics_past_the_horizon_are_undefined() -> None:
    spec = h.finite(100)
    assert d.gamma(spec, 1000) == 0.0
    # The tail is exactly zero, so its enclosure is the point [0, 0] while
    # every metric that divides by it is undefined.
    tail = d.gamma_tail(spec, 1000)
    assert tail.lo == tail.hi == 0.0
    for metric in (d.effective_horizon, d.quasi_horizon, d.horizon_ratio):
        with pytest.raises(UndefinedMetric):
            metric(spec, 1000)


# -- spot values for the remaining families ---------------------------


def test_gamma_spot_values() -> None:
    assert d.gamma(h.quadratic(), 3) == pytest.approx(1.0 / 12, rel=1e-15)
    # Step family: k=5 sits in the third dyadic block.
    assert d.gamma(h.step_log(), 5) == 4.0**-3
    assert d.gamma(h.step_log(), 1) == 1.0
    assert d.gamma(h.finite(10), 11) == 0.0
    assert d.gamma(h.alternating_zero(), 1) == 0.0
    assert d.gamma(h.power(1.0), 4) == pytest.approx(4.0**-2.0, rel=1e-15)


def test_gamma_tail_spot_values() -> None:
    assert_tight(d.gamma_tail(h.quadratic(), 5), 0.2)
    assert_tight(d.gamma_tail(h.geometric(0.5), 3), 0.25)
    # Independent truth: sum_{i>=10} i^-2 = pi^2/6 - sum_{i<10} i^-2.
    true_tail = math.pi**2 / 6 - math.fsum(i**-2 for i in range(1, 10))
    tail = d.gamma_tail(h.power(1.0), 10)
    assert tail.contains(true_tail)
    assert tail.width <= 0.02
    # Step family tail is dyadic and exact: Gamma_1 = 3/2.
    assert_tight(d.gamma_tail(h.step_log(), 1), 1.5, ulps=0)
    assert_tight(d.gamma_tail(h.step_log(), 17), (32 - 17 + 1) * 4.0**-5 + 2.0**-6,
                 ulps=0)


def test_effective_horizon_spot_values() -> None:
    assert d.effective_horizon(h.quadratic(), 7) == IntegerInterval(7, 7)
    assert d.effective_horizon(h.geometric(0.5), 1) == IntegerInterval(1, 1)
    assert d.effective_horizon(h.finite(10), 1) == IntegerInterval(5, 5)
    assert d.effective_horizon(h.step_log(), 17) == IntegerInterval(16, 16)
    # Slow families have quadratic horizons; enclosure brackets 241..273.
    eh = d.effective_horizon(h.harmonic_like(), 17)
    assert eh.lo <= 273 and eh.hi >= 241 and eh.lo >= 17


def test_quasi_horizon_spot_values() -> None:
    assert_tight(d.quasi_horizon(h.quadratic(), 9), 10.0)
    assert_tight(d.quasi_horizon(h.geometric(0.9), 42), 10.0)
    qh = d.quasi_horizon(h.power(1.0), 100)
    # Integral bracket: Gamma_k / gamma_k is within [k, k+1] for eps=1.
    assert qh.lo >= 99.0 and qh.hi <= 102.0 and qh.contains(100.5)
    assert_tight(d.quasi_horizon(h.step_log(), 17), 32.0, ulps=0)


def test_quasi_horizon_undefined_on_zero_weight() -> None:
    # gamma_3 = 0 but the tail is positive: Gamma/gamma is undefined while
    # k*gamma/Gamma is exactly zero.
    with pytest.raises(UndefinedMetric):
        d.quasi_horizon(h.alternating_zero(), 3)
    ratio = d.horizon_ratio(h.alternating_zero(), 3)
    assert ratio.lo == ratio.hi == 0.0


def test_horizon_ratio_spot_values() -> None:
    assert_tight(d.horizon_ratio(h.quadratic(), 4), 0.8)
    assert_tight(d.horizon_ratio(h.geometric(0.75), 8), 2.0)
    # k = e^10 rounded: the ratio for the log-decay family is near 1/10.
    ratio = d.horizon_ratio(h.harmonic_like(), 22026)
    assert ratio.contains(0.1) or abs(ratio.mid - 0.1) < 1e-4
    assert ratio.width < 1e-5


def test_ambiguous_enclosures_are_reported_not_guessed() -> None:
    # At k=1 the power-family brackets cannot certify a halving index.
    with pytest.raises(EnclosureAmbiguous):
        d.effective_horizon(h.power(1.0), 1)


# -- scan and growth diagnostics ---------------------------------------


def test_check_monotone_families() -> None:
    assert d.check_monotone(h.step_log(), 10**4).monotone
    assert d.check_monotone(h.geometric(0.5), 10**4).monotone
    scan = d.check_monotone(h.cosine_modulated(), 10**3)
    assert not scan.monotone
    k = scan.first_violation
    assert k is not None
    assert d.gamma(h.cosine_modulated(), k + 1) > d.gamma(h.cosine_modulated(), k)


def test_growth_diagnostic_classifies_families() -> None:
    grid = h.dyadic_schedule(10**4)
    q = d.growth_diagnostic(h.quadratic(), grid)
    assert q.label_up == "bounded" and q.label_down == "bounded"
    g = d.growth_diagnostic(h.geometric(0.5), grid)
    assert g.label_up == "diverging" and g.label_down == "bounded"
    hm = d.growth_diagnostic(h.harmonic_like(), grid)
    assert hm.label_up == "bounded" and hm.label_down == "diverging"


def test_patched_family_construction() -> None:
    # No thresholds: plain geometric decay, monotone.
    p0 = d.build_patched([])
    assert [d.gamma(p0, k) for k in range(1, 6)] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert d.check_monotone(p0, 10**3).monotone
    # One threshold: witnesses realize both excursions of k*gamma_k/Gamma_k.
    p1 = d.build_patched([1])
    up_w, down_w = d.patched_witnesses(p1)
    assert up_w and down_w
    grid = sorted(set(h.dyadic_schedule(2**14)) | set(up_w) | set(down_w))
    diag = d.growth_diagnostic(p1, grid)
    assert diag.sup_ratio_up > 1.0 and diag.sup_ratio_down > 1.0
    # Two thresholds: still a valid nonincreasing discount.
    assert d.check_monotone(d.build_patched([1, 2]), 10**4).monotone


# -- scale invariance and serialization --------------------------------


@pytest.mark.parametrize("spec", [
    h.quadratic(), h.geometric(0.7), h.finite(64), h.power(1.5),
    h.harmonic_like(), h.step_log(),
])
def test_horizon_metrics_are_scale_free(spec) -> None:
    scaled = dataclasses.replace(spec, scale=3.0)
    for k in (1, 5, 17, 100):
        for metric in (d.effective_horizon, d.quasi_horizon, d.horizon_ratio):
            try:
                base = metric(spec, k)
            except (UndefinedMetric, EnclosureAmbiguous) as exc:
                # Whatever is undecidable must be undecidable at any scale.
                with pytest.raises(type(exc)):
                    metric(scaled, k)
                continue
            assert metric(scaled, k) == base
        assert d.gamma(scaled, k) == pytest.approx(3.0 * d.gamma(spec, k),
                                                   rel=1e-15)


@pytest.mark.parametrize("spec", [
    h.quadratic(), h.geometric(0.3), h.finite(100), h.power(0.8),
    h.harmonic_like(), h.step_log(), h.alternating_zero(),
    h.cosine_modulated(), d.build_patched([1, 2]),
    d.custom([1.0, 0.5, 0.25], tail=("geometric", 0.5)),
])
def test_discount_serialization_round_trips(spec) -> None:
    restored = d.spec_from_dict(d.spec_to_dict(spec))
    assert restored == spec
    for k in (1, 2, 3, 7, 20):
        assert d.gamma(restored, k) == d.gamma(spec, k)


# -- block-sum engine of the numerically summed families -----------------
#
# Oracles are mpmath sums at 120 bits, so a miss of one ulp would show.
# Block edges of the engine sit at origin + j * SIZE.

_S = d._BlockSums.SIZE
_EDGE_2_23 = 1 + _S * (2**23 // _S)
_EDGE_1E8 = 1 + _S * (10**8 // _S)


def _contains(iv, x) -> bool:
    return mpmath.mpf(iv.lo) <= x <= mpmath.mpf(iv.hi)


def _cosine_sum(a: int, b: int):
    """Exact sum of (2 + cos(pi sqrt(2i))) / i^2 over [a, b)."""
    with mpmath.workprec(120):
        return mpmath.fsum(
            (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * i))) / mpmath.mpf(i) ** 2
            for i in range(a, b)
        )


@pytest.mark.parametrize("bounds", [
    [5, 900],  # inside one block
    [1000, 1001],  # single term
    # ends at a block edge - 1, at the edge, at the edge + 1, then two blocks
    [4 * _S - 3, 1 + 4 * _S - 1, 1 + 4 * _S, 1 + 4 * _S + 1, 1 + 6 * _S + 7],
    [100, 20_000],  # many blocks
    [_EDGE_2_23 - 2 * _S - 3, _EDGE_2_23 - 1, _EDGE_2_23, _EDGE_2_23 + 1, _EDGE_2_23 + _S + 5],
    [_EDGE_1E8 - 2 * _S - 3, _EDGE_1E8 - 1, _EDGE_1E8, _EDGE_1E8 + 1, _EDGE_1E8 + _S + 5],
])
def test_cosine_segment_masses_contain_mpmath_sums(bounds) -> None:
    masses = d.segment_masses(h.cosine_modulated(), bounds)
    for (a, b), iv in zip(zip(bounds, bounds[1:]), masses):
        exact = _cosine_sum(a, b)
        assert _contains(iv, exact), (a, b, iv, exact)
        assert iv.width <= 1e-10 * float(exact)


_HEAD_END = 20_000


@functools.lru_cache(maxsize=None)
def _cosine_heads():
    """heads[x] = exact sum of the terms over [x, _HEAD_END), x <= _HEAD_END."""
    heads = [mpmath.mpf(0)] * (_HEAD_END + 1)
    with mpmath.workprec(120):
        for i in range(_HEAD_END - 1, 0, -1):
            heads[i] = heads[i + 1] + (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * i))) / mpmath.mpf(i) ** 2
    return heads


def _cosine_tail(x: int):
    """(T, e): the true tail sum_{i >= x} g(i), g(i) = (2 + cos(pi sqrt(2i))) / i^2,
    lies in [T - e, T + e].

    The terms below M = max(x, _HEAD_END) are summed exactly; the rest is
    sixth-order Euler-Maclaurin (oracles.cosine_class_tail), with a
    remainder bounded term by term from the exact derivatives of g: an
    oracle independent of the package's second-order formula, and far
    sharper: e ~ 1e-3 M^-4.
    """
    head = _cosine_heads()[x] if x < _HEAD_END else 0
    t, e = oracles.cosine_class_tail(max(x, _HEAD_END))
    return head + t, e


def _cosine_mass(a: int, b: int):
    """(T, e) for the mass over [a, b): an exact sum for short pieces."""
    if b - a <= 5000:
        return _cosine_sum(a, b), 0
    (ta, ea), (tb, eb) = _cosine_tail(a), _cosine_tail(b)
    return ta - tb, ea + eb


def _encloses_true(iv, true) -> bool:
    """iv holds the whole oracle band (T, e) of a true value, and that band
    is under a thousandth of iv's width."""
    t, e = true
    return (mpmath.mpf(iv.lo) <= t - e and t + e <= mpmath.mpf(iv.hi)
            and e <= 1e-3 * mpmath.mpf(iv.width))


# 2049 is a block edge (1 + j * SIZE), so the indices stay fixed as SIZE changes
@pytest.mark.parametrize("k", [1, 2, 150, 2048, 2049, 2050])
def test_cosine_tail_contains_mpmath_head_plus_remainder(k: int) -> None:
    # below the family's summing point the tail is the block mass up to it
    # plus the closed-form rest; past it (2048 on), the rest alone
    assert (2049 - 1) % _S == 0
    tail = d.gamma_tail(h.cosine_modulated(), k, 3.0 / 20_000)
    assert _encloses_true(tail, _cosine_tail(k))


def test_cosine_tail_past_the_guard_encloses_the_tail(monkeypatch) -> None:
    # past the guard nothing is summed: the closed-form rest answers alone
    monkeypatch.setenv("HORIZONLAB_GUARD", "40000")
    tail = d.gamma_tail(h.cosine_modulated(), 50_000)
    assert _encloses_true(tail, _cosine_tail(50_000))
    # 2 H(k) / Gamma_k ~ 0.21 / k; the crude sandwich was 200% wide
    assert tail.width <= tail.lo / 50_000


_COS = d._impl(h.cosine_modulated())
_GUARD = 10**8


@pytest.mark.parametrize("x", [
    2, 3, 10, 150, 2049, 10**5,
    _GUARD - 1, _GUARD, _GUARD + 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 + 2, 10**22,
    10**200,  # past _FAR: the crude sandwich alone
])
def test_cosine_rest_contains_the_true_tail(x: int) -> None:
    iv = Interval(*_COS.rest(x))
    true = _cosine_tail(x)
    assert _encloses_true(iv, true)
    # the bound on the Euler-Maclaurin error is loose (the error itself is
    # under 15% of it from x = 2 on), so a wrong F shows off centre first
    assert abs(true[0] - mpmath.mpf(iv.mid)) <= iv.width / 8
    assert Interval(*_COS.tail_crude(x)).encloses(iv)
    if 10**5 <= x < _COS._FAR:  # 2 H(x) / Gamma_x ~ 0.21 / x, then the rounding pads
        assert iv.width <= iv.lo * (1 / x + 64 * d._U)


@pytest.mark.parametrize("x", [2**499, 10**150])
def test_cosine_rest_near_the_closed_form_end_stays_normal(x: int) -> None:
    # F, p and H carry every power of x as x^-2 times powers of x^-1/2:
    # x^-3 alone would underflow from 2^341, x^-2 stays normal below _FAR
    assert x < _COS._FAR
    parts = [float(a[0]) for a in _COS._closed_parts(np.array([float(x)]))]
    assert all(t >= 2.0**-1022 for t in parts), parts
    iv = Interval(*_COS.rest(x))
    assert _encloses_true(iv, _cosine_tail(x))
    # the closed form, not the crude sandwich (200% wide): the pad of the
    # x^-3/2 term, whose sine carries no digit here, is about x^-1/2 of
    # the tail, so the outward widening sets the width
    assert iv.width <= 64 * d._U * iv.lo


@pytest.mark.parametrize("h", [1e-6, 1e-8, 1e-10])
def test_cosine_table_reach_is_of_order_h_to_the_minus_half(h: float) -> None:
    # _reach(h) is where the closed form's error bound H falls to h: the
    # block table is grown and summed only below it. H(n) ~ 0.206 n^-2, so
    # n ~ (0.206 / h)^(1/2); the first-order form took (2.38 / h)^(2/3)
    n = _COS._reach(h)
    h_hi = _COS._closed_parts(np.array([float(n)]))[3][0]
    assert h_hi <= h * (1 + 2.0**-40)
    assert n <= 1.1 * math.sqrt(0.2057 / h)


def _closed_cases():
    target = 1e-6
    cut = _COS._reach(target / 64)
    return cut, [
        ("straddling P", [cut - 700, cut + 900]),
        ("starting at P", [cut, cut + 1, cut + 5000]),
        ("all past P", [cut + 3, cut + 64, 4 * cut]),
        ("one very long piece", [cut + 11, 10**8]),
        ("near the guard", [cut - 3, _GUARD - 1, _GUARD, _GUARD + 1]),
        ("near 2^52", [2**52 - 5, 2**52, 2**52 + 7]),
    ]


@pytest.mark.parametrize("name, bounds", _closed_cases()[1], ids=[c[0] for c in _closed_cases()[1]])
def test_cosine_closed_form_masses_contain_the_true_masses(name, bounds) -> None:
    target = 1e-6
    masses = d.segment_masses(h.cosine_modulated(), bounds, target)
    for (a, b), iv in zip(zip(bounds, bounds[1:]), masses):
        true = _cosine_mass(a, b)
        assert _encloses_true(iv, true), (a, b, iv)
        if a < 2**40:  # near 2^52 the rounding of F(a) - F(b) sets the width
            assert abs(true[0] - mpmath.mpf(iv.mid)) <= iv.width / 8, (a, b, iv)
    # the closed-form errors telescope: the whole run is at most target / 8 wide
    assert sum(iv.width for iv in masses) <= target / 8


def test_cosine_closed_form_and_table_masses_intersect() -> None:
    target = 1e-6
    cut = _closed_cases()[0]
    bounds = [cut] + sorted({cut + 3 + int(cut * 0.37 * j * j) for j in range(1, 12)})
    closed = d.segment_masses(h.cosine_modulated(), bounds, target)
    table = d.segment_masses(h.cosine_modulated(), bounds)
    for (a, b), c, t in zip(zip(bounds, bounds[1:]), closed, table):
        assert c.intersects(t), (a, b, c, t)
        assert c.width >= t.width  # the table is the sharper of the two


def test_cosine_masses_without_target_stay_in_the_table(monkeypatch) -> None:
    # the same far pieces: the closed form answers past the guard, the table raises
    monkeypatch.setenv("HORIZONLAB_GUARD", "5000")
    bounds = [100, 4000, 80_000, 10**6]
    got = d.segment_masses(h.cosine_modulated(), bounds, 1e-4)
    assert len(got) == 3 and all(iv.lo > 0.0 for iv in got)
    with pytest.raises(d.GuardExceeded):
        d.segment_masses(h.cosine_modulated(), bounds)


def _alternating_tail(k: int):
    """Exact sum over even i >= k of 1/(i(i+1)) = (psi(m+1/2) - psi(m))/2."""
    m = (k + 1) // 2
    with mpmath.workprec(120):
        return (mpmath.digamma(m + mpmath.mpf(1) / 2) - mpmath.digamma(m)) / 2


_ALT_EDGE = 2 * (1 + 3 * _S)  # index of a block edge of the even-index table


@pytest.mark.parametrize("bounds", [
    [1, 2, 3, 150],
    [_ALT_EDGE - 3, _ALT_EDGE - 2, _ALT_EDGE - 1, _ALT_EDGE, _ALT_EDGE + 1, _ALT_EDGE + 2],
    [2**23 - 1, 2**23, 2**23 + 1],
    [10**8 - 1, 10**8, 10**8 + 1],
])
def test_alternating_tails_and_masses_contain_mpmath_values(bounds) -> None:
    spec = h.alternating_zero()
    tails = d.gamma_tail_batch(spec, bounds)
    for k, iv in zip(bounds, tails):
        assert _contains(iv, _alternating_tail(k)), (k, iv)
    masses = d.segment_masses(spec, bounds)
    for (a, b), iv in zip(zip(bounds, bounds[1:]), masses):
        assert _contains(iv, _alternating_tail(a) - _alternating_tail(b)), (a, b, iv)


def _geometric_even_tail(k: int):
    """Exact sum over even i >= k of 2^-i = (4/3) 2^-start."""
    start = k + k % 2
    with mpmath.workprec(120):
        return mpmath.mpf(4) / 3 * mpmath.mpf(2) ** -start


# widths of gamma_tail at the parent of the pairing rest, which summed the
# even weights until the base tail past them fell below 1e-3 of the sum
_ALT_KS = [1, 2, 3, _ALT_EDGE - 1, _ALT_EDGE, _ALT_EDGE + 1,
           10**5, 10**5 + 1, 10**6, 10**6 + 1, 2**23, 2**23 + 1]
_ALT_OLD_WIDTHS = {
    "quadratic": [1.5258556254837963e-05, 1.5258556254837963e-05, 1.5258556244290844e-05,
                  9.536734069939476e-07, 9.536734069939476e-07, 9.536734069935139e-07,
                  1.5624997558625099e-07, 1.5624685064972657e-07, 1.562499975589046e-08,
                  1.5624968505954007e-08, 9.999999900003423e-09, 9.999999900003423e-09],
    "geometric": [2.098321516541546e-14, 2.098321516541546e-14, 5.245803791353865e-15,
                  5.297241150340937e-130, 5.297241150340937e-130, 1.3243102875852343e-130,
                  2e-323, 2e-323, 2e-323, 2e-323, 2e-323, 2e-323],
}


@pytest.mark.parametrize("base, exact", [
    (h.quadratic(), _alternating_tail),
    (h.geometric(0.5), _geometric_even_tail),
], ids=["quadratic", "geometric"])
def test_alternating_pairing_rest_contains_exact_tails(base, exact) -> None:
    spec = h.alternating_zero(base)
    assert d._impl(base).monotone
    for k, old in zip(_ALT_KS, _ALT_OLD_WIDTHS[base.family]):
        iv = d.gamma_tail(spec, k)
        assert _contains(iv, exact(k)), (k, iv)
        assert iv.width <= old, (k, iv.width, old)
        assert iv.lo >= 0.0


def test_alternating_pairing_rest_meets_a_target_below_the_guard(monkeypatch) -> None:
    spec = h.alternating_zero()
    for k in (150, 10**4 + 1):
        iv = d.gamma_tail(spec, k, target=1e-12)
        assert _contains(iv, _alternating_tail(k)) and iv.width <= 1e-12 + 1e-15, (k, iv)
    # past the guard nothing is summed: the rest alone answers
    monkeypatch.setenv("HORIZONLAB_GUARD", "1000")
    impl = d._AlternatingZero(h.quadratic())
    for k in (5000, 5001, 2**64 + 1):
        iv = impl.tail(k)
        assert _contains(iv, _alternating_tail(k)), (k, iv)
        assert iv.width <= 1.01 / (2 * k * k) + 1e-14 * iv.hi, (k, iv)
    assert impl._evens._sums.size == 0


def test_alternating_over_a_non_monotone_base_keeps_the_crude_rest() -> None:
    impl = d._AlternatingZero(h.cosine_modulated())
    assert not impl.base.monotone
    for k in (3, 150, 1000):
        # the loop that every base took before the pairing rest
        start = k + k % 2
        n = max(start + 4096, 1 << 16)
        cap = min(d.guard_index(), max(start * 64, 1 << 22))
        while True:
            rest = impl.base.tail(n + 1)
            partial = even_mass(impl, start // 2, n // 2 + 1)
            if rest.hi <= max(1e-3 * partial.lo, 1e-300) or n >= cap:
                break
            n = min(n * 4, cap)
        assert impl.tail(k) == Interval(max(partial.lo, 0.0), partial.hi + rest.hi), k


def _patched_oracle_tail(segments, k: int):
    """Exact Gamma_k of a patched spec: harmonic stretches term by term,
    geometric stretches in closed form."""
    total = mpmath.mpf(0)
    with mpmath.workprec(120):
        for seg in segments:
            lo = max(k, seg.start)
            if seg.end != 0 and lo > seg.end:
                continue
            if seg.kind == "geometric":
                first = seg.gamma_start * mpmath.mpf(seg.g) ** (lo - seg.start)
                count = None if seg.end == 0 else seg.end - lo + 1
                g = mpmath.mpf(seg.g)
                total += first / (1 - g) if count is None else first * (1 - g**count) / (1 - g)
            else:
                scale = seg.gamma_start * seg.start * mpmath.log(seg.start) ** 2
                total += mpmath.fsum(
                    scale / (i * mpmath.log(i) ** 2) for i in range(lo, seg.end + 1))
    return total


def _far_patched():
    """Two short harmonic stretches, one across 2**23 and one near 10**8."""
    seg = d.PatchedSegment
    h1, h2 = (2**23 - 3000, 2**23 + 3000), (10**8 - 3000, 10**8 + 3000)
    return d.DiscountSpec("patched", ((
        seg("geometric", 1, h1[0] - 1, 0.5, 1.0),
        seg("harmonic", h1[0], h1[1], 0.0, 1e-3),
        seg("geometric", h1[1] + 1, h2[0] - 1, 0.5, 1e-6),
        seg("harmonic", h2[0], h2[1], 0.0, 1e-9),
        seg("geometric", h2[1] + 1, 0, 0.5, 1e-12),
    ),))


@pytest.mark.parametrize("spec_fn, ks", [
    (lambda: d.build_patched([1, 2]), [18, 405, 427 + 2 * _S - 1, 427 + 2 * _S, 427 + 2 * _S + 1, 30153]),
    (_far_patched, [2**23 - 3000, 2**23 - 3000 + _S - 1, 2**23 - 3000 + _S, 2**23 + 2999,
                    10**8 - 3000 + _S + 1, 10**8 + 3000]),
])
def test_patched_harmonic_stretches_contain_mpmath_values(spec_fn, ks) -> None:
    spec = spec_fn()
    segments = spec.params[0]
    exact = {k: _patched_oracle_tail(segments, k) for k in ks}
    for k in ks:
        assert _contains(d.gamma_tail(spec, k), exact[k]), k
    masses = d.segment_masses(spec, ks)
    for (a, b), iv in zip(zip(ks, ks[1:]), masses):
        assert _contains(iv, exact[a] - exact[b]), (a, b, iv)


def test_block_tables_answer_independently_of_history() -> None:
    # a query on a fresh family object, the same query after other queries
    # grew the table in another order, and after one sweep: same bits
    cos_queries = [
        lambda f: np.concatenate(f.segment_mass_arrays([5, 900, 1 + 16 * _S, 100_000])).tolist(),
        lambda f: [a.tolist() for a in f.tail_arrays([3, 1500, 70_000], 3e-6)],
        lambda f: f.tail(150),
    ]
    fresh = [q(d._CosineModulated()) for q in cos_queries]
    grown = d._CosineModulated()
    assert [q(grown) for q in reversed(cos_queries)] == fresh[::-1]
    swept = d._CosineModulated()
    swept.tail(1)  # one sweep to 2**23
    assert [q(swept) for q in cos_queries] == fresh

    alt_ks = [150, 2 * _S + 1, 10**5]
    fresh = [d._AlternatingZero(h.quadratic()).tail(k) for k in alt_ks]
    grown = d._AlternatingZero(h.quadratic())
    assert [grown.tail(k) for k in reversed(alt_ks)] == fresh[::-1]
    swept = d._AlternatingZero(h.quadratic())
    swept.tail(2**23)  # one sweep far past every query above
    assert [swept.tail(k) for k in alt_ks] == fresh


def test_equal_specs_share_one_family_object() -> None:
    import horizonlab.cli as cli

    assert d._impl(h.cosine_modulated()) is d._impl(h.cosine_modulated())
    # the CLI's fresh spec reuses the table built through the library
    assert d._impl(cli.parse_discount("cosine")) is d._impl(h.cosine_modulated())
    table = [1.0 / (i * (i + 1)) for i in range(1, 2001)]
    spec = d.custom(table, tail=("power", 1.0))
    scaled = spec.with_scale(2.5)
    assert d._impl(scaled) is d._impl(spec)
    assert scaled.unscaled() is scaled.unscaled() and scaled.unscaled() == spec
    # the resolved object is not part of the spec's value
    assert scaled == d.custom(table, tail=("power", 1.0)).with_scale(2.5)
    assert hash(scaled) == hash(dataclasses.replace(spec, scale=2.5))
    assert "_family" not in repr(h.quadratic()) and "_twin" not in repr(scaled)
    assert set(d.spec_to_dict(scaled)) == {"family", "params", "scale"}


def test_custom_tails_equal_sequential_reversed_sum() -> None:
    rng = np.random.default_rng(11)
    table = (rng.random(5000) * 10.0 ** rng.uniform(-20, 0, 5000)).tolist()
    impl = d._impl(d.custom(table))
    expected = [0.0]
    for g in reversed(table):  # suffix sums, added one term at a time from the end
        expected.append(expected[-1] + g)
    expected.reverse()
    assert [x.hex() for x in impl._suffix.tolist()] == [x.hex() for x in expected]
    assert impl._suffix.dtype == np.float64  # one array, not K + 1 boxed floats
    assert impl.monotone is False
    assert d._impl(d.custom(sorted(table, reverse=True))).monotone is True
    assert d._impl(d.custom([0.5, 0.5, 0.25])).monotone is True  # ties are monotone


# -- integral sandwich of the closed-form slow families -------------------
#
# power and harmonic_like sum segments as F(a) - F(b) plus [0, gamma_a -
# gamma_b], F the integral tail. Oracles are direct mpmath sums at 120 bits.

_P53 = 2**53


def _mp_gamma(spec, i: int):
    if spec.family == "power":
        return mpmath.mpf(i) ** (-1 - mpmath.mpf(spec.params[0]))
    i = max(i, 2)  # harmonic_like: gamma_1 = gamma_2
    return 1 / (i * mpmath.log(i) ** 2)


def _linear_run_edges(n0: int, n1: int):
    out = []
    for n in range(n0, n1):
        out.extend(h.change_points(h.linear_runs(), n))
    return out


@pytest.mark.parametrize("spec", [h.power(0.5), h.power(1.3), h.harmonic_like()],
                         ids=["power0.5", "power1.3", "harmonic"])
@pytest.mark.parametrize("bounds", [
    [1, 2, 3, 7, 40],  # from k = 1 (harmonic_like's gamma_1 = gamma_2)
    _linear_run_edges(20, 31),  # linear-run boundaries near k = 800..1900
    [5000, 5001, 5077, 25_000],
    [_P53 - 5, _P53 - 1, _P53, _P53 + 1, _P53 + 3, _P53 + 1000],
    [3 * _P53 + 1, 3 * _P53 + 2, 3 * _P53 + 600],
    [2**1100, 2**1100 + 1, 2**1100 + 40],  # past the float range
])
def test_sandwich_masses_contain_mpmath_sums(spec, bounds) -> None:
    masses = d.segment_masses(spec, bounds)
    with mpmath.workprec(120):
        for (a, b), iv in zip(zip(bounds, bounds[1:]), masses):
            exact = mpmath.fsum(_mp_gamma(spec, i) for i in range(a, b))
            assert _contains(iv, exact), (a, b, iv, exact)
        # Gamma_b lies between the integral from b and that plus gamma_b
        for b, iv in zip(bounds[1:], d.gamma_tail_batch(spec, bounds[1:])):
            eps = mpmath.mpf(spec.params[0]) if spec.family == "power" else None
            big = b**-eps / eps if eps else 1 / mpmath.log(b)
            assert mpmath.mpf(iv.lo) <= big and big + _mp_gamma(spec, b) <= mpmath.mpf(iv.hi)


@pytest.mark.parametrize("spec", [h.power(0.5), h.harmonic_like()], ids=["power", "harmonic"])
@pytest.mark.parametrize("k", [81, 3600])
def test_sandwich_slack_telescopes_to_gamma_k(spec, k: int) -> None:
    # consecutive segments from k: the widths add up to at most gamma_k,
    # where tail differences would carry gamma_a + gamma_b per segment
    bounds = [k + j * (j + 1) // 2 for j in range(400)]
    widths = sum(iv.width for iv in d.segment_masses(spec, bounds))
    assert widths <= 1.001 * d.gamma(spec, k)
    tails = d.gamma_tail_batch(spec, bounds)
    assert sum((a - b).width for a, b in zip(tails, tails[1:])) > 10 * widths


def test_patched_monotone_flag_is_checked_at_the_joins() -> None:
    built = d.build_patched([1, 2])
    assert d.is_monotone_family(built)
    segs = list(built.params[0])
    assert d.check_monotone(built, segs[-1].start + 10).monotone
    # a stretch that starts above where the previous one ended
    first, second = segs[0], segs[1]
    jump = dataclasses.replace(second, gamma_start=3.0 * first.gamma_start * first.g ** (first.end - first.start))
    bumped = d.DiscountSpec("patched", (tuple([first, jump] + segs[2:]),))
    assert not d.is_monotone_family(bumped)
    assert not d.check_monotone(bumped, second.start + 1).monotone


def test_fractional_indices_are_rejected_by_name() -> None:
    with pytest.raises(ValueError, match=r"finite horizon m must be an integer, got 1\.5"):
        d.finite(1.5)
    with pytest.raises(ValueError, match=r"finite horizon m must be an integer, got 2\.5"):
        d.spec_from_dict({"family": "finite", "params": {"m": 2.5}})
    seg = d.spec_to_dict(d.build_patched([1, 2]))
    seg["params"]["segments"][0]["end"] += 0.5
    with pytest.raises(ValueError, match="segment end must be an integer"):
        d.spec_from_dict(seg)
    # integral floats keep working
    assert d.finite(3.0) == d.finite(3)
    assert d.spec_from_dict({"family": "finite", "params": {"m": 3.0}}) == d.finite(3)


_EVERY_FAMILY = [
    h.finite(40), h.geometric(0.9), h.quadratic(), h.power(0.5), h.harmonic_like(),
    h.step_log(), h.alternating_zero(), h.cosine_modulated(), d.build_patched([1]),
    d.custom([1.0, 0.5, 0.25], tail=("geometric", 0.5)),
]


@pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda s: s.family)
@pytest.mark.parametrize("target", [0.0, -1e-3, math.nan, math.inf])
def test_nonpositive_or_nonfinite_targets_are_refused(spec, target) -> None:
    match = f"target must be positive and finite, got {target!r}"
    with pytest.raises(ValueError, match=match):
        d.gamma_tail(spec, 5, target)
    with pytest.raises(ValueError, match=match):
        d.gamma_tail_batch(spec, [5, 9], target)
    with pytest.raises(ValueError, match=match):
        d.segment_masses(spec, [5, 9, 20], target)


@pytest.mark.parametrize("spec", _EVERY_FAMILY, ids=lambda s: s.family)
def test_positive_targets_and_none_are_accepted(spec) -> None:
    for target in (None, 1e-6, 5e-324):
        assert d.gamma_tail(spec, 5, target).hi >= d.gamma_tail(spec, 9, target).lo
    assert len(d.segment_masses(spec, [5, 9, 20], 1e-6)) == 2


def test_alternating_even_view_is_its_even_weights_and_tails() -> None:
    alt = d._impl(h.alternating_zero())
    view = alt.even_view()
    assert view.monotone and view.variation(7) == view.gamma_iv(8)
    for j in (1, 2, 50, 10**9):
        assert view.gamma_iv(j) == alt.gamma_iv(2 * j)
        assert view.tail(j) == alt.tail(2 * j)
    # an alternating discount over a non-monotone base has no such view
    assert d._impl(h.alternating_zero(h.cosine_modulated())).even_view() is None
    assert d._impl(h.quadratic()).even_view() is None


# -- quadratic past the float range ----------------------------------------------


@pytest.mark.parametrize("e", [155, 200, 300, 310, 400])
def test_quadratic_past_the_float_range_encloses_the_exact_values(e: int) -> None:
    # k (k+1) stops converting to float from k of about 1.34e154, k itself
    # from 2^1024: the int quotients take over, correctly rounded
    k = 10**e
    q = h.quadratic()
    g, tail = Fraction(1, k * (k + 1)), Fraction(1, k)
    assert abs(Fraction(d.gamma(q, k)) - g) <= Fraction(1, 2**1075)
    iv = d.gamma_iv(q, k)
    assert 0.0 <= iv.lo and Fraction(iv.lo) <= g <= Fraction(iv.hi)
    t = d.gamma_tail(q, k)
    assert 0.0 <= t.lo and Fraction(t.lo) <= tail <= Fraction(t.hi)
    assert t.width <= 2 * math.ulp(float(tail))  # as sharp as a rounded 1/k


def test_quadratic_keeps_its_bits_inside_the_float_range() -> None:
    # values recorded before the int fallback, where the float formula answers
    q = h.quadratic()
    assert repr(d.gamma_iv(q, 10**154)) == "[9.99999999999997e-309, 1.000000000000003e-308]"
    assert repr(d.gamma_tail(q, 10**300)) == "[9.999999999999999e-301, 1.0000000000000002e-300]"
    assert d.gamma(q, 10**154) == 1e-308


def test_effective_horizon_takes_each_tail_once(monkeypatch) -> None:
    # the two searches of the generic effective_horizon probe many of the
    # same h; without the shared tails they took 33 here, and the doubling
    # search with shared tails 17 (effective_horizon_reference)
    impl = d._CosineModulated()
    calls = []
    tail = impl.tail

    def counted(k, target=None):
        calls.append(k)
        return tail(k, target)

    monkeypatch.setattr(impl, "tail", counted)
    assert impl.effective_horizon(141) == d.effective_horizon(h.cosine_modulated(), 141)
    assert len(calls) == len(set(calls)) == 12


def effective_horizon_reference(impl, k: int) -> IntegerInterval:
    """_Base.effective_horizon before it searched under the tail-bound
    hint: h doubles from 1 and is then bisected, once per test."""
    tail_k = impl.tail(k)
    if not tail_k.lo > 0.0:
        raise UndefinedMetric(f"tail enclosure not positive at k={k}")
    if tail_k.width > 0.5 * tail_k.lo:
        raise EnclosureAmbiguous("tail enclosure too wide to halve certainly")
    half_hi = 0.5 * tail_k.hi + 2 * math.ulp(tail_k.hi)
    half_lo = 0.5 * tail_k.lo - 2 * math.ulp(tail_k.lo)
    target = tail_k.lo * 5e-4
    seen: dict = {}

    def tail_at(step: int) -> Interval:
        if step not in seen:
            seen[step] = impl.tail(k + step, target)
        return seen[step]

    def first_with(pred) -> int:
        hi = 1
        while not pred(tail_at(hi)):
            hi *= 2
            if hi > d.guard_index():
                raise d.GuardExceeded("effective horizon search exceeded guard")
        lo = 0 if hi == 1 else hi // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(tail_at(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    h_possible = first_with(lambda iv: iv.lo <= half_hi)
    h_certain = first_with(lambda iv: iv.hi <= half_lo)
    return IntegerInterval(min(h_possible, h_certain), h_certain)


_TABLE = [1.0 / (i * (i + 1)) for i in range(1, 201)]
_SEARCHED = {
    "cosine": h.cosine_modulated(),
    "alternating": h.alternating_zero(),
    "alternating:power": h.alternating_zero(h.power(0.5)),
    "alternating:geometric": h.alternating_zero(h.geometric(0.9)),
    "patched": d.build_patched([1, 2]),
    "custom:power": h.custom(_TABLE, ("power", 1.0)),
    "custom": h.custom(_TABLE),
    "power": h.power(0.5),
    "harmonic": h.harmonic_like(),
    "scaled": h.power(1.0).with_scale(3.0),
}


def _counted_search(spec, k: int, search):
    """(search's answer or its error type, the (index, target) of each tail
    it took), on a fresh family object."""
    impl = d._FAMILIES[spec.family](*spec.params)
    calls = []
    tail = impl.tail

    def counted(i, target=None):
        calls.append((i, target))
        return tail(i, target)

    impl.tail = counted
    try:
        answer = search(impl, k)
    except (UndefinedMetric, EnclosureAmbiguous, ValueError, d.GuardExceeded) as exc:
        answer = type(exc)
    return answer, calls


@pytest.mark.parametrize("name", list(_SEARCHED))
def test_effective_horizon_search_equals_the_doubling_search(name) -> None:
    # the search under the tail-bound hint gives the same answers with fewer
    # tails over the grid; where the hint is loose (patched's sits at its
    # final geometric stretch) and h is small, one case may take two more,
    # the cost of bisecting over the hint's bit length
    spec = _SEARCHED[name]
    ks = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 150, 199, 200, 233, 377, 610, 987]
    new_total = ref_total = 0
    for k in ks:
        want, ref_calls = _counted_search(spec, k, effective_horizon_reference)
        got, calls = _counted_search(spec, k, type(d._impl(spec)).effective_horizon)
        assert got == want, (name, k)
        assert len(calls) == len(set(calls)) <= len(ref_calls) + 2, (name, k)
        if isinstance(want, IntegerInterval):
            assert d.effective_horizon(spec, k) == want
        new_total += len(calls)
        ref_total += len(ref_calls)
    assert new_total <= ref_total
    if name not in ("custom", "custom:power"):  # no hint inside the table, or none at all
        assert new_total < ref_total


def test_custom_table_without_tail_model_is_not_probed_past_its_end() -> None:
    # the hint K + 1 lies past the table, where tail raises
    spec = h.custom([0.5, 0.3, 0.2])
    assert d.effective_horizon(spec, 1) == IntegerInterval(1, 2)
    assert d.effective_horizon(spec, 2) == IntegerInterval(1, 1)


def test_shared_tail_follows_the_work_guard(monkeypatch) -> None:
    # default_tail keeps the last tail of a family, keyed by k and the
    # guard: a cosine tail past the guard is its closed-form rest alone
    spec, k = h.cosine_modulated(), 3000
    monkeypatch.setenv("HORIZONLAB_GUARD", "100000000")
    summed = d.gamma_tail(spec, k)
    assert d.gamma_tail(spec, k) is summed
    monkeypatch.setenv("HORIZONLAB_GUARD", "1000")
    rest = d.gamma_tail(spec, k)
    assert rest == Interval(*d._impl(spec).rest(k)) != summed
    assert d.quasi_horizon(spec, k) == rest / d.gamma_iv(spec, k)
    monkeypatch.setenv("HORIZONLAB_GUARD", "100000000")
    assert d.gamma_tail(spec, k) == summed
    assert d.horizon_ratio(spec, k) == (d.gamma_iv(spec, k) * Interval.exact(k)) / summed


def test_reused_cosine_rest_is_a_fresh_rest() -> None:
    # tail_arrays keeps its last rest(n): n depends on the target only, so a
    # second batch at the same target reads the kept one
    def batch(impl, ks):
        return [a.tolist() for a in impl.tail_arrays(ks, 1e-9)]

    impl, fresh = d._CosineModulated(), d._CosineModulated()
    first = batch(impl, [100, 200])
    n, rest = impl._last_rest
    assert n == impl._reach(1e-9 / 16) and rest == fresh.rest(n)
    again = batch(impl, [150, 300])
    assert impl._last_rest[1] is rest
    assert again == batch(fresh, [150, 300])
    assert first == batch(d._CosineModulated(), [100, 200])


def alternating_rest_index_reference(base, start: int, cap: int, fine: float, goal: float) -> int:
    """_AlternatingZero.tail's rest index before it read the candidate
    weights through one gamma_arrays call: one gamma_iv per step."""

    def first(limit: float, last: int) -> int:
        n, step = start - 2, 2
        while n < last and base.gamma_iv(n + 1).hi > limit:
            n, step = min(start - 2 + step, last), 2 * step
        return n

    n = first(fine, min(start + 4094, cap))
    if base.gamma_iv(n + 1).hi > fine:
        n = first(max(goal, 1e-300), cap)
    return n


@pytest.mark.parametrize("base", [h.quadratic(), h.power(0.5), h.geometric(0.9), h.step_log(),
                                  h.harmonic_like()], ids=lambda s: s.family)
@pytest.mark.parametrize("k", [1, 2, 7, 150, 4000, 99_999, 10**7])
@pytest.mark.parametrize("target", [None, 1e-12])
def test_batched_alternating_search_equals_the_per_step_loop(monkeypatch, base, k, target) -> None:
    monkeypatch.setenv("HORIZONLAB_GUARD", "50000000")
    impl = d._AlternatingZero(base)
    start = k + k % 2
    cap = min(d.guard_index(), max(start * 64, 1 << 22))
    cap -= cap % 2
    scale = impl.base.tail(start).lo
    goal = impl._SHARP * scale if target is None else min(impl._SHARP * scale, 2.0 * target)
    n = alternating_rest_index_reference(impl.base, start, cap, 2.0 * d._U * scale, goal)
    rests = []
    real = impl.base.tail_pair
    monkeypatch.setattr(impl.base, "tail_pair", lambda i, t=None: rests.append(i) or real(i, t))
    got = impl.tail(k, target)
    assert rests[-1] == n + 1
    t, g = Interval(*real(n + 1)), impl.base.gamma_iv(n + 1)
    want = Interval(max(((t - g) * 0.5).lo, 0.0), (t * 0.5).hi)
    if n >= start:
        want = even_mass(impl, start // 2, n // 2 + 1) + want
    assert got == Interval(max(want.lo, 0.0), want.hi)
