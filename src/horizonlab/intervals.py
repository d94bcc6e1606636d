"""Closed real enclosures with outward rounding.

An Interval [lo, hi] is a machine representation of "the true real value
lies between lo and hi". Every inexact arithmetic step widens the result
outward by WIDEN_ULPS units in the last place of each endpoint, which
over-covers the worst-case rounding error of one binary64 operation.
Exactly representable results (integer arithmetic, dyadic scaling) are
constructed with Interval.exact and never widened, so comparisons that
are mathematically ties stay decidable.

Interval is a __slots__ class rather than a frozen dataclass because
every arithmetic step builds one, and its construction was the largest
single cost of the library: each operator computes its endpoints and
hands them to one widening function, which builds one object. (Pasting
that function into every operator measured within run-to-run noise.) It
keeps the frozen dataclass's behaviour: fields that cannot be assigned
or deleted (FrozenInstanceError), == and hash on (lo, hi), == only
between Intervals, the ValueErrors for NaN and inverted endpoints, and
the repr.

widened_pair and widened_arrays are Interval.widened on a (lo, hi) pair of
floats and on float64 lo/hi arrays, for kernels that replay a chain of
interval operations (value._rest_enclosure, value._dense_sum). numpy is
trusted there only with correctly rounded elementwise operations
(+ - * /, abs, minimum/maximum, spacing), which give the same bits as
the scalar code. Its transcendentals are not: numpy's vectorised power
can differ from the C library's pow in the last bit, so every pow, log
and exp stays a scalar Python call per element.
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Tuple, Union

import numpy as np

WIDEN_ULPS = 4

_Number = Union[int, float, "Interval"]
Pair = Tuple[float, float]  # (lo, hi) of an enclosure, unboxed

_WIDEN = float(WIDEN_ULPS)
_INF = math.inf
_ulp = math.ulp
# the float below the largest: its spacing is math.ulp of the largest
_BELOW_MAX = math.nextafter(sys.float_info.max, 0.0)


def _widen(lo: float, hi: float) -> "Interval":
    """[lo - WIDEN_ULPS ulp(lo), hi + WIDEN_ULPS ulp(hi)]; infinities stay."""
    if lo - lo == 0.0:  # finite
        lo -= _WIDEN * _ulp(lo)
    if hi - hi == 0.0:
        hi += _WIDEN * _ulp(hi)
    return Interval(lo, hi)


class Interval:
    """The closed interval [lo, hi]; immutable, equal and hashed by (lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if lo != lo or hi != hi:
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.lo == other.lo and self.hi == other.hi
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __reduce__(self):
        return (Interval, (self.lo, self.hi))

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(x: float) -> "Interval":
        """Degenerate interval; caller asserts x is the exact real value."""
        x = float(x)
        return Interval(x, x)

    @staticmethod
    def rounded(x: float) -> "Interval":
        """Enclosure of a real known to within one correctly-rounded float."""
        return Interval(x - math.ulp(x), x + math.ulp(x))

    widened = staticmethod(_widen)

    # -- queries -------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def pair(self) -> Pair:
        return self.lo, self.hi

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

    # -- arithmetic (outward rounded) ------------------------------------

    @staticmethod
    def _coerce(x: _Number) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.exact(float(x))

    def __add__(self, other: _Number) -> "Interval":
        if isinstance(other, Interval):
            lo = self.lo + other.lo
            hi = self.hi + other.hi
        else:
            x = float(other)
            lo = self.lo + x
            hi = self.hi + x
        return _widen(lo, hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: _Number) -> "Interval":
        if isinstance(other, Interval):
            lo = self.lo - other.hi
            hi = self.hi - other.lo
        else:
            x = float(other)
            lo = self.lo - x
            hi = self.hi - x
        return _widen(lo, hi)

    def __rsub__(self, other: _Number) -> "Interval":
        return Interval._coerce(other).__sub__(self)

    def __mul__(self, other: _Number) -> "Interval":
        a, b = self.lo, self.hi
        if isinstance(other, Interval):
            c, d = other.lo, other.hi
        else:
            c = d = float(other)
        if 0.0 <= a and 0.0 <= c and b < _INF and d < _INF:
            # finite and nonnegative: rounding is monotone, no NaN arises
            lo = a * c
            hi = b * d
        else:
            # min and max of the four products in this order: which NaN
            # (0 * inf) they skip is part of the result
            products = (a * c, a * d, b * c, b * d)
            lo = min(products)
            hi = max(products)
        return _widen(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: _Number) -> "Interval":
        o = other if isinstance(other, Interval) else Interval.exact(float(other))
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise ZeroDivisionError(f"division by interval containing zero: {o}")
        a, b = self.lo, self.hi
        if 0.0 <= a and 0.0 < c and b < _INF and d < _INF:
            lo = a / d
            hi = b / c
        else:
            quotients = (a / c, a / d, b / c, b / d)
            lo = min(quotients)
            hi = max(quotients)
        return _widen(lo, hi)

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


# the slot descriptors' setters, which __setattr__ no longer reaches
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def widened_pair(lo: float, hi: float) -> Pair:
    """Interval.widened(lo, hi) as a pair, bit for bit."""
    if lo - lo == 0.0:
        lo -= _WIDEN * _ulp(lo)
    if hi - hi == 0.0:
        hi += _WIDEN * _ulp(hi)
    return lo, hi


def widened_arrays(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interval.widened on each (lo[j], hi[j]), bit for bit, as new arrays.

    np.spacing is math.ulp except at the largest float, where it
    overflows; spacing(min(|x|, _BELOW_MAX)) is math.ulp(x) for every
    finite x and finite for infinite x, which x -+ 4 ulp then keeps.
    An end that overflows to inf does so with numpy's warning, unless the
    caller silences it (np.errstate).
    """
    lo_ulp = np.spacing(np.minimum(np.abs(lo), _BELOW_MAX))
    hi_ulp = np.spacing(np.minimum(np.abs(hi), _BELOW_MAX))
    return lo - WIDEN_ULPS * lo_ulp, hi + WIDEN_ULPS * hi_ulp


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

