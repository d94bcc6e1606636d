"""Closed real enclosures with outward rounding.

An Interval [lo, hi] is a machine representation of "the true real value
lies between lo and hi". Every inexact arithmetic step widens the result
outward by WIDEN_ULPS units in the last place of each endpoint, which
over-covers the worst-case rounding error of one binary64 operation.
Exactly representable results (integer arithmetic, dyadic scaling) are
constructed with Interval.exact and never widened, so comparisons that
are mathematically ties stay decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

WIDEN_ULPS = 4

_Number = Union[int, float, "Interval"]


def _down(x: float) -> float:
    """Largest float certainly <= every real within WIDEN_ULPS ulp below x."""
    if math.isinf(x):
        return x
    return x - WIDEN_ULPS * math.ulp(x)


def _up(x: float) -> float:
    if math.isinf(x):
        return x
    return x + WIDEN_ULPS * math.ulp(x)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(x: float) -> "Interval":
        """Degenerate interval; caller asserts x is the exact real value."""
        return Interval(float(x), float(x))

    @staticmethod
    def rounded(x: float) -> "Interval":
        """Enclosure of a real known to within one correctly-rounded float."""
        return Interval(x - math.ulp(x), x + math.ulp(x))

    @staticmethod
    def widened(lo: float, hi: float) -> "Interval":
        return Interval(_down(lo), _up(hi))

    # -- queries -------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # Certain comparisons: true only when every pair of reals drawn from
    # the two intervals satisfies the relation.
    def certainly_le(self, other: "Interval") -> bool:
        return self.hi <= other.lo

    def certainly_lt(self, other: "Interval") -> bool:
        return self.hi < other.lo

    def possibly_le(self, other: "Interval") -> bool:
        return self.lo <= other.hi

    # -- arithmetic (outward rounded) -----------------------------------

    @staticmethod
    def _coerce(x: _Number) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.exact(float(x))

    def __add__(self, other: _Number) -> "Interval":
        o = Interval._coerce(other)
        return Interval.widened(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: _Number) -> "Interval":
        o = Interval._coerce(other)
        return Interval.widened(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other: _Number) -> "Interval":
        return Interval._coerce(other).__sub__(self)

    def __mul__(self, other: _Number) -> "Interval":
        o = Interval._coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Interval.widened(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: _Number) -> "Interval":
        o = Interval._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing zero: {o}")
        quotients = (
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        )
        return Interval.widened(min(quotients), max(quotients))

    def __rtruediv__(self, other: _Number) -> "Interval":
        return Interval._coerce(other).__truediv__(self)

    def scale_exact(self, c: float) -> "Interval":
        """Multiply by a constant known to make exact products (e.g. 2.0)."""
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp(self, lo: float = 0.0, hi: float = 1.0) -> "Interval":
        return Interval(min(max(self.lo, lo), hi), min(max(self.hi, lo), hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True)
class IntegerInterval:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted integer interval [{self.lo}, {self.hi}]")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def hull_of(intervals: Iterable[Interval]) -> Interval:
    items = list(intervals)
    if not items:
        raise ValueError("hull of empty collection")
    return Interval(min(iv.lo for iv in items), max(iv.hi for iv in items))

