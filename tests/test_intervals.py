"""Enclosure semantics: every arithmetic result must contain the real result.

The interval layer underpins every numeric claim the library makes, so
these tests check the containment contract directly (pointwise, via
hypothesis) and the handful of exactness promises (scale_exact, exact
constructors, integer intervals) that the decision procedures rely on.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horizonlab import Interval, IntegerInterval
from horizonlab.intervals import WIDEN_ULPS, hull_of, widened_arrays
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
    # Overlapping intervals decide nothing.
    c = Interval(0.4, 0.6)
    assert not a.certainly_le(c) or a.hi <= c.lo


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
    iv = _interval_sum(values, values)
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
    if x.encloses(y):
        assert x.intersects(y)
    assert x.hull(y).encloses(x) and x.hull(y).encloses(y)


# -- the slotted class keeps the frozen dataclass's behaviour ----------------


def test_fields_cannot_be_assigned_or_deleted() -> None:
    iv = Interval(0.25, 0.5)
    for name in ("lo", "hi", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(iv, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(iv, name)
    assert (iv.lo, iv.hi) == (0.25, 0.5)
    assert not hasattr(iv, "__dict__")


class _LookAlike:
    def __init__(self, lo: float, hi: float) -> None:
        self.lo, self.hi = lo, hi


def test_equality_and_hash_are_on_lo_hi_between_intervals_only() -> None:
    iv = Interval(0.25, 0.5)
    assert iv == Interval(0.25, 0.5) and not iv != Interval(0.25, 0.5)
    assert iv != Interval(0.25, 0.75)
    assert hash(iv) == hash(Interval(0.25, 0.5)) == hash((0.25, 0.5))
    assert Interval(-0.0, 0.0) == Interval(0.0, 0.0)
    assert hash(Interval(-0.0, 0.0)) == hash(Interval(0.0, 0.0))
    for other in ((0.25, 0.5), [0.25, 0.5], _LookAlike(0.25, 0.5), 0.25, None):
        assert iv != other and not iv == other
    assert iv.__eq__((0.25, 0.5)) is NotImplemented
    assert len({iv, Interval(0.25, 0.5), Interval(0.0, 1.0)}) == 2


def test_validation_messages_and_repr_are_unchanged() -> None:
    with pytest.raises(ValueError, match=r"^interval endpoints must not be NaN$"):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^interval endpoints must not be NaN$"):
        Interval(0.0, math.nan)
    with pytest.raises(ValueError, match=r"^inverted interval \[1\.0, 0\.5\]$"):
        Interval(1.0, 0.5)
    with pytest.raises(ValueError, match=r"^inverted interval \[inf, -inf\]$"):
        Interval(math.inf, -math.inf)
    assert repr(Interval(0.1, 2.0)) == "[0.1, 2.0]"
    assert repr(Interval(-0.0, 5e-324)) == "[-0.0, 5e-324]"
    assert Interval(lo=0.5, hi=1.0) == Interval(0.5, 1.0)


def test_copies_and_pickles_round_trip() -> None:
    iv = Interval(0.1, 0.3)
    for twin in (copy.copy(iv), copy.deepcopy(iv), pickle.loads(pickle.dumps(iv))):
        assert twin == iv and type(twin) is Interval


# The formulas the class had as a frozen dataclass: widening through the
# helpers _down and _up, and every product or quotient taken as min and
# max of four. The in-line widening and the nonnegative shortcuts must
# give the same bits and raise the same errors.


def _down(x: float) -> float:
    if math.isinf(x):
        return x
    return x - WIDEN_ULPS * math.ulp(x)


def _up(x: float) -> float:
    if math.isinf(x):
        return x
    return x + WIDEN_ULPS * math.ulp(x)


def _reference(op: str, a: float, b: float, c: float, d: float) -> Interval:
    if op == "add":
        return Interval(_down(a + c), _up(b + d))
    if op == "sub":
        return Interval(_down(a - d), _up(b - c))
    if op == "mul":
        ps = (a * c, a * d, b * c, b * d)
        return Interval(_down(min(ps)), _up(max(ps)))
    if c <= 0.0 <= d:
        raise ZeroDivisionError(f"division by interval containing zero: [{c!r}, {d!r}]")
    qs = (a / c, a / d, b / c, b / d)
    return Interval(_down(min(qs)), _up(max(qs)))


_M = sys.float_info.max
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e-310, 0.5, 1.0, -1.0, 3.0,
            1e300, -1e300, _M, -_M, math.inf, -math.inf]


def _outcome(fn):
    try:
        iv = fn()
        return (math.copysign(1.0, iv.lo), iv.lo, math.copysign(1.0, iv.hi), iv.hi)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


_OPS = {"add": "__add__", "sub": "__sub__", "mul": "__mul__", "div": "__truediv__"}


def test_widened_equals_the_old_formula_at_the_edges() -> None:
    for lo in _SPECIAL:
        for hi in _SPECIAL:
            want = _outcome(lambda: Interval(_down(lo), _up(hi)))
            assert _outcome(lambda: Interval.widened(lo, hi)) == want, (lo, hi)


def test_arithmetic_equals_the_old_formulas_at_the_edges() -> None:
    pairs = [(a, b) for a in _SPECIAL for b in _SPECIAL if a <= b]
    for a, b in pairs:
        x = Interval(a, b)
        for c, d in pairs[::3]:
            y = Interval(c, d)
            for op, name in _OPS.items():
                want = _outcome(lambda: _reference(op, a, b, c, d))
                assert _outcome(lambda: getattr(x, name)(y)) == want, (op, a, b, c, d)
        for s in (0.0, 0.3, -2.0, math.inf):
            for op, name in _OPS.items():
                want = _outcome(lambda: _reference(op, a, b, s, s))
                assert _outcome(lambda: getattr(x, name)(s)) == want, (op, a, b, s)


@given(intervals, intervals, st.floats(allow_nan=False))
def test_arithmetic_equals_the_old_formulas(x: Interval, y: Interval, s: float) -> None:
    for op, name in _OPS.items():
        want = _outcome(lambda: _reference(op, x.lo, x.hi, y.lo, y.hi))
        assert _outcome(lambda: getattr(x, name)(y)) == want
        want = _outcome(lambda: _reference(op, x.lo, x.hi, s, s))
        assert _outcome(lambda: getattr(x, name)(s)) == want


def test_widened_arrays_equal_widened() -> None:
    lo = np.array(_SPECIAL + [0.1, -7.5, 2.0**-1074 * 3])
    for hi_end in (lo, lo[::-1].copy()):
        with np.errstate(over="ignore"):  # +-max float widens to +-inf
            got_lo, got_hi = widened_arrays(lo, hi_end)
        for j in range(len(lo)):
            want_lo, want_hi = _down(float(lo[j])), _up(float(hi_end[j]))
            assert (math.copysign(1.0, got_lo[j]), got_lo[j]) == (math.copysign(1.0, want_lo), want_lo)
            assert (math.copysign(1.0, got_hi[j]), got_hi[j]) == (math.copysign(1.0, want_hi), want_hi)
