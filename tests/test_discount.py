"""Discount families and the four horizon metrics.

Golden values here are independent closed forms: tail mass via geometric
series or telescoping, effective horizons via explicit halving indices,
and the power-family tail via the pi^2/6 identity. Each enclosure the
package returns must contain the truth and stay within a few ulps of it
when the truth is exactly representable.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import horizonlab as h
import horizonlab.discount as d
from horizonlab import EnclosureAmbiguous, IntegerInterval, UndefinedMetric


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


@pytest.mark.parametrize("k", [1, 2, 150, 4 * _S, 1 + 4 * _S, 2 + 4 * _S])
def test_cosine_tail_contains_mpmath_head_plus_remainder(k: int) -> None:
    target = 3.0 / 20_000
    n_end = math.ceil(3.0 / target) + 1  # the family's truncation point
    # the true remainder sum_{i >= n_end} lies in [1, 3] * psi_1(n_end)
    with mpmath.workprec(120):
        head = _cosine_sum(k, n_end)
        rest = mpmath.psi(1, n_end)
    tail = d.gamma_tail(h.cosine_modulated(), k, target)
    assert _contains(tail, head + rest) and _contains(tail, head + 3 * rest)


def test_cosine_tail_past_the_guard_encloses_the_tail(monkeypatch) -> None:
    # the guard caps the truncation point, but never below the index asked for
    monkeypatch.setenv("HORIZONLAB_GUARD", "40000")
    k, m = 50_000, 10**6
    idx = np.arange(k, m, dtype=np.float64)
    head = math.fsum((2.0 + np.cos(np.pi * np.sqrt(2.0 * idx))) / idx**2)
    tail = d.gamma_tail(h.cosine_modulated(), k)
    # the rest past m lies in [1, 3] * sum_{i >= m} i^-2, inside [1/m, 3/(m-1)]
    assert tail.lo <= head + 1.0 / m and head + 3.0 / (m - 1) <= tail.hi


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
        lambda f: f.segment_masses([5, 900, 1 + 4 * _S, 100_000]),
        lambda f: f.tail_batch([3, 1500, 70_000], 3e-6),
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
    assert [x.hex() for x in impl._suffix] == [x.hex() for x in expected]
    assert all(type(x) is float for x in impl._suffix)
    assert impl.monotone is False
    assert d._impl(d.custom(sorted(table, reverse=True))).monotone is True
    assert d._impl(d.custom([0.5, 0.5, 0.25])).monotone is True  # ties are monotone
