"""Enclosure semantics: every arithmetic result must contain the real result.

The interval layer underpins every numeric claim the library makes, so
these tests check the containment contract directly (pointwise, via
hypothesis) and the handful of exactness promises (scale_exact, exact
constructors, integer intervals) that the decision procedures rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horizonlab import Interval, IntegerInterval
from horizonlab.intervals import hull_of
from horizonlab.value import _interval_sum

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def make_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


intervals = st.builds(make_interval, finite_floats, finite_floats)
unit_points = st.floats(min_value=0.0, max_value=1.0)


def point_in(iv: Interval, t: float) -> float:
    # Convex combination stays inside a closed interval.
    x = iv.lo + t * (iv.hi - iv.lo)
    return min(max(x, iv.lo), iv.hi)


def test_constructors_and_validation() -> None:
    assert Interval.exact(0.5) == Interval(0.5, 0.5)
    r = Interval.rounded(1.0)
    assert r.lo < 1.0 < r.hi
    w = Interval.widened(1.0, 1.0)
    assert w.lo < 1.0 < w.hi
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    with pytest.raises(ValueError):
        IntegerInterval(5, 4)


def test_basic_queries() -> None:
    iv = Interval(0.25, 0.75)
    assert iv.width == 0.5
    assert iv.mid == 0.5
    assert iv.contains(0.25) and iv.contains(0.75)
    assert not iv.contains(0.76)
    assert iv.intersects(Interval(0.75, 2.0))
    assert not iv.intersects(Interval(0.76, 2.0))
    assert Interval(0.0, 1.0).encloses(iv)
    assert not iv.encloses(Interval(0.0, 1.0))


def test_certain_comparisons_are_conservative() -> None:
    a = Interval(0.0, 0.5)
    b = Interval(0.5, 1.0)
    # Shared endpoint: <= certain, < not certain.
    assert a.certainly_le(b)
    assert not a.certainly_lt(b)
    assert a.possibly_le(b)
    # Overlapping intervals decide nothing.
    c = Interval(0.4, 0.6)
    assert not a.certainly_le(c) or a.hi <= c.lo
    assert c.possibly_le(a)


@given(intervals, intervals, unit_points, unit_points)
def test_add_sub_mul_contain_pointwise_results(
    x: Interval, y: Interval, s: float, t: float
) -> None:
    px, py = point_in(x, s), point_in(y, t)
    assert (x + y).contains(px + py)
    assert (x - y).contains(px - py)
    prod = x * y
    # One rounding step of slack: the pointwise product itself rounds.
    assert prod.widened(prod.lo, prod.hi).contains(px * py)


@given(intervals, unit_points, st.floats(min_value=0.5, max_value=100.0))
def test_division_contains_pointwise_results(
    x: Interval, s: float, d: float
) -> None:
    px = point_in(x, s)
    q = x / Interval.exact(d)
    assert q.widened(q.lo, q.hi).contains(px / d)


def test_division_by_zero_straddling_interval_raises() -> None:
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)


def test_negation_and_scale_exact_do_not_widen() -> None:
    iv = Interval(0.25, 0.75)
    assert -iv == Interval(-0.75, -0.25)
    assert iv.scale_exact(2.0) == Interval(0.5, 1.5)
    assert iv.scale_exact(-2.0) == Interval(-1.5, -0.5)
    # Dyadic scaling must stay exact so ties remain decidable.
    assert Interval(0.5, 0.5).scale_exact(2.0) == Interval(1.0, 1.0)


def test_hull_and_clamp() -> None:
    a = Interval(0.0, 0.25)
    b = Interval(0.5, 1.0)
    assert a.hull(b) == Interval(0.0, 1.0)
    assert hull_of([a, b, Interval(-1.0, 0.0)]) == Interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        hull_of([])
    assert Interval(-0.5, 1.5).clamp() == Interval(0.0, 1.0)
    assert Interval(0.2, 0.3).clamp() == Interval(0.2, 0.3)


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=50))
def test_sum_enclosure_contains_exact_sum(values: list) -> None:
    # value._interval_sum of degenerate intervals: math.fsum is correctly
    # rounded, so the exact sum lies within an ulp of it
    exact = sum(Fraction(v) for v in values)
    iv = _interval_sum([Interval.exact(x) for x in values])
    assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


def test_arithmetic_widens_inexact_results_outward() -> None:
    # 0.1 + 0.2 is inexact; enclosure must strictly contain the float sum.
    s = Interval.exact(0.1) + Interval.exact(0.2)
    assert s.lo < 0.1 + 0.2 < s.hi
    assert Fraction(s.lo) <= Fraction(0.1) + Fraction(0.2) <= Fraction(s.hi)


def test_integer_interval_degenerate_flag() -> None:
    assert IntegerInterval(4, 4).degenerate
    assert not IntegerInterval(4, 5).degenerate
    assert repr(IntegerInterval(16, 16)) == "[16, 16]"


@given(intervals, intervals)
def test_interval_queries_are_mutually_consistent(x: Interval, y: Interval) -> None:
    if x.certainly_lt(y):
        assert x.certainly_le(y)
    if x.certainly_le(y):
        assert x.possibly_le(y)
    if x.encloses(y):
        assert x.intersects(y)
    assert x.hull(y).encloses(x) and x.hull(y).encloses(y)
