"""Discount sequences: exact weights, rigorous tail sums, horizon metrics.

A discount sequence assigns a nonnegative weight gamma_k to each cycle
k >= 1 with finite total mass. The module computes gamma_k exactly per
family formula, the tail sum Gamma_k = sum_{i>=k} gamma_i as an interval
enclosure, and the derived horizon metrics:

    effective horizon   eh_k    = min{h >= 0 : Gamma_{k+h} <= Gamma_k / 2}
    quasi-horizon       qh_k    = Gamma_k / gamma_k
    linearity ratio     rho_k   = k * gamma_k / Gamma_k

All metrics are scale-free: multiplying a spec's scale field rescales
gamma and Gamma but leaves every metric bit-identical, which the
implementation guarantees by computing metrics from unscaled internals.

Families without a closed-form tail (cosine_modulated, the harmonic
stretches of patched, and the even-index sums of alternating_zero)
answer every tail and segment query from one lazily grown float64 array
of block sums (_BlockSums), one per block of S = 64 indices, built only
as far as the largest index N queried and never past the work guard.
Memory is 8N/S bytes plus one chunk of 2**15 terms while the table
grows. A query of p pieces costs one np.add.reduceat over the blocks
they cover plus under 3S fresh terms per piece, all in numpy:
O(pS + N/S), not O(N). Cosine needs its table only near k: far from k
a second-order Euler-Maclaurin enclosure takes over (_CosineModulated),
so a tail at resolution t sums O(t^(-1/2)) terms rather than O(1/t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._guards import GuardExceeded, as_index, guard_index, index_array, json_list, short_index
from .intervals import Interval, IntegerInterval, Pair, widened_arrays, widened_pair

_U = 2.0**-53  # binary64 unit roundoff


class UndefinedMetric(ArithmeticError):
    """Requested metric is undefined at this index (zero weight or tail)."""


class EnclosureAmbiguous(RuntimeError):
    """Interval widths prevent a certain decision."""


# ---------------------------------------------------------------------------
# Spec type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscountSpec:
    """Immutable description of a discount family.

    family: one of finite, geometric, quadratic, power, harmonic_like,
        step_log, alternating_zero, cosine_modulated, patched, custom.
    params: family-specific tuple (see constructors below).
    scale: positive multiplier applied to gamma and Gamma only.

    A family's outside forms (mini-language names, JSON keys of params and
    table note) live on its class in _FAMILIES (see _Base).
    """

    family: str
    params: tuple = ()
    scale: float = 1.0
    # Set at construction, kept off eq, hash and repr: the family object,
    # shared by equal specs through the _build cache (lazy tables included),
    # and the unscaled twin (self if unscaled). Dispatch hashes no params.
    _family: Optional["_Base"] = field(default=None, init=False, repr=False, compare=False)
    _twin: Optional["DiscountSpec"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scale <= 0 or math.isinf(self.scale) or math.isnan(self.scale):
            raise ValueError("scale must be a positive finite real")
        twin = self if self.scale == 1.0 else DiscountSpec(self.family, self.params)
        object.__setattr__(self, "_twin", twin)
        # _build validates family and params eagerly
        object.__setattr__(self, "_family", _build(self) if twin is self else twin._family)

    def unscaled(self) -> "DiscountSpec":
        return self._twin

    def with_scale(self, scale: float) -> "DiscountSpec":
        return DiscountSpec(self.family, self.params, scale)


def finite(m: int) -> DiscountSpec:
    """Unit weight up to cycle m, zero afterwards."""
    m = as_index(m, "finite horizon m")
    if m < 1:
        raise ValueError("finite horizon m must be >= 1")
    return DiscountSpec("finite", (m,))


def geometric(g: float) -> DiscountSpec:
    """gamma_k = g**k with 0 < g < 1. g = 0 is rejected: the total mass
    would be zero and every normalized quantity undefined."""
    g = float(g)
    if not (0.0 < g < 1.0):
        raise ValueError("geometric parameter must satisfy 0 < g < 1")
    return DiscountSpec("geometric", (g,))


def quadratic() -> DiscountSpec:
    """gamma_k = 1 / (k (k+1)), Gamma_k = 1/k."""
    return DiscountSpec("quadratic")


def power(eps: float) -> DiscountSpec:
    """gamma_k = k**(-1-eps) with eps > 0."""
    eps = float(eps)
    if not (eps > 0.0) or math.isinf(eps):
        raise ValueError("power parameter eps must be > 0")
    return DiscountSpec("power", (eps,))


def harmonic_like() -> DiscountSpec:
    """gamma_k = 1 / (k ln^2 k) for k >= 2; gamma_1 := gamma_2 since
    ln^2 1 = 0 (any finite patch at k=1 is immaterial asymptotically)."""
    return DiscountSpec("harmonic_like")


def step_log() -> DiscountSpec:
    """gamma_k = 4**(-n) on each dyadic block 2**(n-1) < k <= 2**n.

    The weight ratio gamma_{k+1}/gamma_k drops to 1/4 at every block
    boundary k = 2**n while gamma_k/Gamma_k still tends to zero, so the
    family separates the two smoothness notions that coincide elsewhere.
    """
    return DiscountSpec("step_log")


def alternating_zero(base: Optional[DiscountSpec] = None) -> DiscountSpec:
    """Zero weight at odd cycles, base-family weight at even cycles."""
    if base is None:
        base = quadratic()
    if base.family == "alternating_zero":
        raise ValueError("alternating_zero base must be a plain family")
    return DiscountSpec("alternating_zero", (base.unscaled(),))


def cosine_modulated() -> DiscountSpec:
    """gamma_k = (2 + cos(pi sqrt(2k))) / k^2: oscillation of constant
    relative amplitude and increasing wavelength on a 1/k^2 envelope."""
    return DiscountSpec("cosine_modulated")


def custom(table: Sequence[float], tail: Optional[Tuple] = None) -> DiscountSpec:
    """Explicit weights for k = 1..len(table) plus an optional tail model.

    tail is ('geometric', g) or ('power', eps) and continues the sequence
    beyond the table anchored at its last value; without it, queries past
    the table raise. The weights are checked where the family object
    builds its array (_Custom), after the tail model.
    """
    gammas = tuple(map(float, table))
    if not gammas:
        raise ValueError("custom table must be nonempty")
    if tail is not None:
        kind = tail[0]
        if kind == "geometric":
            if not (0.0 < tail[1] < 1.0):
                raise ValueError("custom geometric tail needs 0 < g < 1")
            tail = ("geometric", float(tail[1]))
        elif kind == "power":
            if not (tail[1] > 0.0):
                raise ValueError("custom power tail needs eps > 0")
            tail = ("power", float(tail[1]))
        else:
            raise ValueError(f"unknown tail model {kind!r}")
        if gammas[-1] <= 0.0:
            raise ValueError("tail model needs a positive last table value")
    return DiscountSpec("custom", (gammas, tail))


# ---------------------------------------------------------------------------
# Family implementations
# ---------------------------------------------------------------------------


def _rel_pad_pair(value: float, rel: float) -> Pair:
    """value * (1 +/- rel), outward rounded; _rel_pad_iv boxes it."""
    pad = abs(value) * rel + 5e-324
    return widened_pair(value - pad, value + pad)


def _rel_pad_iv(value: float, rel: float) -> Interval:
    return Interval(*_rel_pad_pair(value, rel))


def _rel_pad_arrays(values: np.ndarray, rel) -> Tuple[np.ndarray, np.ndarray]:
    """_rel_pad_iv on each value (rel a float or one per value), bit for bit."""
    pad = np.abs(values) * rel + 5e-324
    return widened_arrays(values - pad, values + pad)


def _positive_pad_pair(value: float, rel: float) -> Pair:
    """_rel_pad_pair of a positive quantity, under the underflow policy: cut
    at 0, and [0, 5e-324] where the value rounded to 0 (it lies below the
    least subnormal then)."""
    if value == 0.0:
        return 0.0, 5e-324
    lo, hi = _rel_pad_pair(value, rel)
    return max(lo, 0.0), hi


def _positive_pad_arrays(values: np.ndarray, rel) -> Tuple[np.ndarray, np.ndarray]:
    """_positive_pad_pair on each value, bit for bit."""
    lo, hi = _rel_pad_arrays(values, rel)
    zero = values == 0.0
    hi[zero] = 5e-324
    return np.maximum(lo, 0.0), hi


def _pow_rel(base: float) -> float:
    """Relative error bound of base**expo for a float base > 0 (_pow_iv)."""
    return _U * (8.0 + 2.0 * abs(math.log(base)))


def _pow_parts(base, expo: float, ln: Optional[float] = None) -> Tuple[float, float]:
    """(base**expo, its relative error bound): _pow_iv before the padding.

    pow is assumed faithful to 1 ulp; the exponent itself may carry one
    rounding whose effect scales with |ln base|, hence the log factor. An
    int past 2**1000 goes through exp(expo ln base): ln of an int is good
    to an ulp, so the product errs by at most 2u |expo ln base|, which exp
    turns into a relative error. ln is math.log(base) (of an int below
    2**1024, the log of its float), which several exponents may share.
    """
    if ln is None:
        ln = math.log(base)
    if isinstance(base, int) and base >= 1 << 1000:
        x = expo * ln
        return math.exp(x), _U * (8.0 + 4.0 * abs(x))
    return float(base) ** expo, _U * (8.0 + 2.0 * abs(ln))


def _pow_iv(base, expo: float) -> Interval:
    """Enclosure of base**expo for base > 0, a float or an int of any size."""
    return _rel_pad_iv(*_pow_parts(base, expo))


def _int_list(ks: Sequence[int]) -> Sequence[int]:
    """gamma_arrays' indices as Python ints (np.int64 is not an int), for per-element code."""
    return ks.tolist() if isinstance(ks, np.ndarray) else ks


def _pow_arrays(
    bases: Sequence[int], expo: float, logs: Optional[Sequence[float]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """_positive_pad_pair(*_pow_parts(b, expo)) for each b, as lo and hi
    arrays, bit for bit: one scalar pow per base, then the padding in
    numpy. logs, the math.log of each base, lets several exponents share
    them."""
    bases = _int_list(bases)
    if logs is None:
        logs = [math.log(b) for b in bases]
    parts = [_pow_parts(b, expo, ln) for b, ln in zip(bases, logs)]
    return _positive_pad_arrays(np.array([y for y, _ in parts]), np.array([r for _, r in parts]))


def _subnormal_pair(y: float) -> Pair:
    """Enclosure of a positive real whose correct rounding y is below
    2**-1021 (a subnormal or 0 included): it lies within 2**-1075 of y."""
    return max(y - 5e-324, 0.0), y + 5e-324


def _dyadic_pair(e: int) -> Pair:
    """2**e, exact, or [0, 5e-324] below the least subnormal."""
    return (0.0, 5e-324) if e < -1074 else (math.ldexp(1.0, e),) * 2


def _ceil_quotient(c: float, target: float) -> int:
    """ceil(c / target) for c, target > 0: of the float quotient, or of the
    exact one where that passes the float range (a subnormal target)."""
    q = c / target
    if q < math.inf:
        return int(math.ceil(q))
    (a, b), (p, s) = c.as_integer_ratio(), target.as_integer_ratio()
    return -(-a * s // (b * p))


def _log_product(a: float, b: float) -> float:
    """ln(a b) for a, b > 0: the log of the float product, or where that
    underflows to 0 (a subnormal target) the sum of the two logs."""
    p = a * b
    return math.log(p) if p > 0.0 else math.log(a) + math.log(b)


def _narrow(passes, lo: int, hi: int) -> Tuple[int, int]:
    """(h - 1, h) for the least h in (lo, hi] that passes (monotone in h),
    by bisection: hi passes or is taken to, lo (-1: none) does not."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return lo, hi


def _least_passing(passes, top: Optional[int]) -> int:
    """The least h >= 0 that passes (monotone in h). Under a hint top it
    bisects over j for the first min(2**j, top) that passes (a loose hint
    costs the log of its bit length) and probes top only if the search ends
    there, as a custom table cannot evaluate its own hint. Without a hint,
    or if top fails, h doubles from 1 (or top) and is bisected."""
    guard, lo, hi = guard_index(), -1, 1
    if top is not None and 1 < top <= guard:
        a, b = -1, (top - 1).bit_length()  # min(2**b, top) is top
        while b - a > 1:
            m = (a + b) // 2
            a, b = (a, m) if passes(1 << m) else (m, b)
        lo, hi = _narrow(passes, 1 << a if a >= 0 else -1, min(1 << b, top))
    while not passes(hi):
        lo, hi = hi, 2 * hi
        if hi > guard:
            raise GuardExceeded("effective horizon search exceeded guard")
    return _narrow(passes, lo, hi)[1]


class _Base:
    """One discount family. Capabilities are per-class constants:

    mass_form: how V's runs path gets the mass of a reward's 1-runs.
        "tails" (default): segment_mass_arrays as tail differences.
        "blocks": segment_mass_arrays(bounds, target) summed directly (from a
            block table near k, in closed form far from it), plus
            tail_crude(k), an analytic sandwich of Gamma_k that sets the
            target, and rest(x), an enclosure of Gamma_x without summing.
        "ratios": tail_ratio(j, k) = Gamma_j / Gamma_k and one_minus_g.
        None: no runs path; V is summed densely.
    sums_terms: False (default) when tails cost O(polylog k), so truncation
        indices may pass the work guard; True when tails sum terms.
    target_free: True (default) when tail(k, target) is a closed form in
        k alone, so a tail, and whatever is built from tails alone, may
        serve several targets: V at several indices shares its rest probes
        and mass ends (value.disc_value_details, segment_masses' picks).
        False for the families that sum their tails (alternating and cosine
        read the target) and for alternating's even view.
    monotone: True only when gamma is provably nonincreasing. V's rest
        enclosure by summation by parts (value._rest_enclosure) relies on
        it or on variation; the cosine and alternating families are False,
        and patched and custom decide per spec.

    Two methods serve that rest where gamma is not monotone: variation(m)
    bounds sum_{i>m} |gamma_i - gamma_{i+1}| (cosine in closed form), and
    even_view() gives alternating's even-index weights as a monotone
    family of their own. _term_rel(hi), where set (cosine), bounds the
    relative error of each computed gamma_vec term below each index of an
    array hi, which the block tables that sum gamma_vec pad by (_BlockSums).

    The horizon methods effective_horizon, quasi_horizon and horizon_ratio
    are defaults that search and divide the tail enclosures; a family with
    a closed form overrides them. _build finds a family's class by its
    name.

    Each class is also the one row of its family's outside forms: its
    mini-language names (cli_names, the first one listed in errors; none
    for custom) and argument (cli_arg, as cli._parse_spec reads it; by
    default the text itself with one key, nothing without), the JSON keys
    of its params (keys, its constructor's argument names), that
    constructor (make, which to_json and from_json invert and call), and
    the asymptotic note that `table` prints under its rows (note, a format
    string over the family object's attributes).
    """

    name = "?"
    cli_names: Tuple[str, ...] = ()
    cli_arg: object = None
    keys: Tuple[str, ...] = ()
    note = ""
    monotone = True
    mass_form: Optional[str] = "tails"
    sums_terms = False
    target_free = True
    _term_rel = None

    @classmethod
    def to_json(cls, params: tuple) -> dict:
        """The params of a spec as the JSON object of spec_to_dict."""
        return dict(zip(cls.keys, params))

    @classmethod
    def from_json(cls, params: dict) -> DiscountSpec:
        """The spec whose to_json is params (keys already checked)."""
        return cls.make(*(params[key] for key in cls.keys))

    def gamma(self, k: int) -> float:
        raise NotImplementedError

    def gamma_pair(self, k: int) -> Pair:
        """An enclosure of gamma_k as a (lo, hi) pair: gamma(k) padded by
        8 u, or exactly 0. Every family answers its weights here."""
        g = self.gamma(k)
        if g == 0.0:
            return 0.0, 0.0
        return _rel_pad_pair(g, 8 * _U)

    def gamma_iv(self, k: int) -> Interval:
        """gamma_pair(k) as an Interval: the one place weights are boxed."""
        return Interval(*self.gamma_pair(k))

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        raise NotImplementedError

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """lo and hi of gamma_pair(k) as float64 arrays, bit for bit, for each k of
        ks: increasing, an int64 array or (as past int64) a sequence of Python ints."""
        pairs = [self.gamma_pair(k) for k in _int_list(ks)]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    def tail_pair(self, k: int, target: Optional[float] = None) -> Pair:
        return self.tail(k, target).pair

    def tail_batch(self, ks: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        return [self.tail(k, target) for k in ks]

    def gamma_vec(self, ks: np.ndarray) -> Optional[np.ndarray]:
        return None

    def variation(self, m: int) -> Optional[Interval]:
        """An interval whose upper end bounds sum_{i>m} |gamma_i - gamma_{i+1}|,
        or None. For nonincreasing gamma the sum telescopes to gamma_{m+1},
        which callers already hold from gamma_iv."""
        return self.gamma_iv(m + 1) if self.monotone else None

    def even_view(self) -> Optional["_Base"]:
        """The weights w_j = gamma_{2j} as a family of their own, where the
        odd weights vanish and the even ones do not increase (alternating
        over a monotone base); None elsewhere."""
        return None

    def segment_mass_arrays(
        self, bounds: Sequence[int], target: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """lo and hi of the mass over each [bounds[j], bounds[j+1]), on
        float64 arrays: gap_masses of mass_ends. Each end is a function of
        its bound alone, so ends taken over more bounds and gathered give
        the same bits (segment_masses' picks)."""
        return self.gap_masses(self.mass_ends(bounds, target))

    def mass_ends(self, bounds: Sequence[int], target: Optional[float] = None) -> Tuple[np.ndarray, ...]:
        """The per-bound arrays whose gaps gap_masses takes: lo and hi of
        tail_batch by default."""
        return self.tail_arrays(bounds, target)

    def gap_masses(self, ends: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """The tail differences Gamma_a - Gamma_b over each gap of the
        bounds of ends, widened as Interval subtraction widens and clamped
        at 0."""
        t_lo, t_hi = ends
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, refused by segment_masses
            lo, hi = widened_arrays(t_lo[:-1] - t_hi[1:], t_hi[:-1] - t_lo[1:])
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)

    def tail_arrays(self, ks: Sequence[int], target: Optional[float] = None) -> Tuple[np.ndarray, ...]:
        """lo and hi of tail_batch as float64 arrays."""
        tails = self.tail_batch(_int_list(ks), target)
        return np.array([t.lo for t in tails]), np.array([t.hi for t in tails])

    _last_tail: tuple = (None, None)  # ((k, guard), tail(k)) of default_tail

    def default_tail(self, k: int) -> Interval:
        """tail(k), kept for the last k and guard: `table` reads it four times."""
        key = (k, guard_index())
        if self._last_tail[0] != key:
            self._last_tail = (key, self.tail(k))
        return self._last_tail[1]

    def effective_horizon(self, k: int) -> IntegerInterval:
        """[first h with Gamma_{k+h} possibly <= Gamma_k / 2, first h with it
        certainly so]: the certain one by _least_passing under the family's
        hint, the possible one (no larger) bisected between the tails taken."""
        tail_k = self.default_tail(k)
        if not tail_k.lo > 0.0:
            raise UndefinedMetric(f"tail enclosure not positive at k={short_index(k)}")
        if tail_k.width > 0.5 * tail_k.lo:
            raise EnclosureAmbiguous("tail enclosure too wide to halve certainly")
        half_hi = 0.5 * tail_k.hi + 2 * math.ulp(tail_k.hi)
        half_lo = 0.5 * tail_k.lo - 2 * math.ulp(tail_k.lo)
        target = tail_k.lo * 5e-4  # keeps summed tails sharp enough to halve
        seen: dict = {}

        def tail_at(h: int) -> Interval:
            if h not in seen:
                seen[h] = self.tail(k + h, target)
            return seen[h]

        hint = self.index_for_tail_bound(half_lo, k) if half_lo > 0.0 else None
        h_certain = _least_passing(lambda h: tail_at(h).hi <= half_lo, hint and hint - k)
        # certainly halved implies possibly halved, as half_lo <= half_hi
        hi = min(h for h, iv in seen.items() if iv.lo <= half_hi)
        lo = max((h for h in seen if h < hi), default=-1)
        h_possible = _narrow(lambda h: tail_at(h).lo <= half_hi, lo, hi)[1]
        return IntegerInterval(h_possible, h_certain)

    def quasi_horizon(self, k: int) -> Interval:
        g = self.gamma_iv(k)
        if not g.lo > 0.0:
            raise UndefinedMetric(f"gamma is zero (or indistinguishable from it) at k={short_index(k)}")
        return self.default_tail(k) / g

    def horizon_ratio(self, k: int) -> Interval:
        tail_k = self.default_tail(k)
        if not tail_k.lo > 0.0:
            raise UndefinedMetric(f"tail is zero (or indistinguishable from it) at k={short_index(k)}")
        g = self.gamma_iv(k)
        if g.lo == 0.0 and g.hi == 0.0:
            return Interval.exact(0.0)  # k * 0 / Gamma is exactly zero
        try:
            kg = g * Interval.exact(float(k))
        except OverflowError:  # k past the float range, where gamma_k underflows
            kg = self.k_gamma(k)
        return kg / tail_k

    def k_gamma(self, k: int) -> Interval:
        """k gamma_k for k past the float range: [0, inf] without a closed form."""
        return Interval(0.0, math.inf)

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        """Some index N >= start with tail(N).hi <= target, if cheaply
        computable; the caller refines toward the minimal one."""
        return None

    # (thm2_bounded, thm3_bounded, note); None means grid heuristics only.
    def premise_verdicts(self) -> Optional[Tuple[bool, bool, str]]:
        return None


class _Finite(_Base):
    name = "finite"
    cli_names = ("finite",)
    keys = ("m",)
    make = staticmethod(finite)
    note = "Gamma_k = {m}-k+1 and eh_k = ceil((m-k+1)/2) for k <= {m}; undefined beyond"

    def __init__(self, m: int) -> None:
        self.m = m

    def gamma(self, k: int) -> float:
        return 1.0 if k <= self.m else 0.0

    def gamma_pair(self, k: int) -> Pair:
        g = self.gamma(k)
        return g, g

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return Interval.exact(float(max(self.m - k + 1, 0)))

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        return (ks <= self.m).astype(np.float64)

    def effective_horizon(self, k: int) -> IntegerInterval:
        t = self.m - k + 1
        if t <= 0:
            raise UndefinedMetric(f"tail is zero at k={short_index(k)}")
        h = (t + 1) // 2
        return IntegerInterval(h, h)

    def quasi_horizon(self, k: int) -> Interval:
        if k > self.m:
            raise UndefinedMetric(f"gamma is zero at k={short_index(k)}")
        return Interval.exact(float(self.m - k + 1))

    def horizon_ratio(self, k: int) -> Interval:
        if k > self.m:
            raise UndefinedMetric(f"tail is zero at k={short_index(k)}")
        return Interval.rounded(k / (self.m - k + 1))

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, self.m + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "finite support; ratios bounded on it, undefined beyond")


class _Geometric(_Base):
    name = "geometric"
    cli_names = ("geometric",)
    keys = ("g",)
    make = staticmethod(geometric)
    note = ("Gamma_k = g^k/(1-g) with g={g}; eh constant (~ln 2/ln(1/g) = {half_life:.4g}); "
            "quasi-horizon constant 1/(1-g); ratio grows like (1-g)k")
    mass_form = "ratios"

    def __init__(self, g: float) -> None:
        self.g = g
        self.half_life = math.log(2.0) / -math.log(g)
        mant, expo = math.frexp(g)
        # g an exact power of two: all weights and tails are exact dyadics
        self.dyadic_exp = expo - 1 if mant == 0.5 else None
        if g >= 0.5 or self.dyadic_exp is not None:
            self.one_minus_g = Interval.exact(1.0 - g)  # exact by Sterbenz or dyadic
        else:
            self.one_minus_g = Interval.rounded(1.0 - g)

    def gamma(self, k: int) -> float:
        if self.dyadic_exp is not None:
            return math.ldexp(1.0, self.dyadic_exp * k)
        try:
            return self.g**k
        except OverflowError:
            return 0.0

    def gamma_pair(self, k: int) -> Pair:
        if self.dyadic_exp is not None:
            return _dyadic_pair(self.dyadic_exp * k)
        y = self.gamma(k)  # 0 past underflow: pow is faithful, so g^k < 5e-324
        if y == 0.0:
            return 0.0, 5e-324
        lo, hi = _rel_pad_pair(y, _U * (8.0 + 2.0 * k * _U / max(1.0 - self.g, _U)))
        return max(lo, 0.0), hi

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        if self.g == 0.5:
            return Interval(*_dyadic_pair(1 - k))
        if self.dyadic_exp is not None and self.dyadic_exp * k < -1022:
            # g = 2^-d past the normal range, where dividing widens below 0: the
            # int quotient 1 / ((2^d - 1) 2^(d (k-1))), correctly rounded
            d = -self.dyadic_exp
            y = 1 / (((1 << d) - 1) << d * (k - 1)) if d * (k - 1) < 1100 else 0.0
            return Interval(*_subnormal_pair(y))
        if k >> 1023:  # g^k <= g^(2^1023) < 2^-1074 (1 - g) for every float g < 1
            return Interval(0.0, 5e-324)
        iv = self.gamma_iv(k) / self.one_minus_g
        return iv if iv.lo >= 0.0 else Interval(0.0, iv.hi)  # a weight that underflowed

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        if self.dyadic_exp is not None:  # 2^(d k) exactly (0 below 2^-1074), as gamma
            return np.ldexp(1.0, self.dyadic_exp * ks)
        return self.g ** ks.astype(np.float64)

    def effective_horizon(self, k: int) -> IntegerInterval:
        # Gamma_{k+h} / Gamma_k = g**h; smallest integer h with g**h <= 1/2.
        if self.dyadic_exp is not None:
            return IntegerInterval(1, 1)  # g <= 1/2, and g**0 = 1 > 1/2
        h = max(int(math.floor(self.half_life)) - 1, 0)
        half = Interval.exact(0.5)
        while True:
            p = _pow_iv(self.g, float(h))
            if p.certainly_le(half):
                lo = h
                break
            if half.certainly_lt(p):
                h += 1
                continue
            raise EnclosureAmbiguous(f"g**{h} straddles 1/2 for g={self.g}")
        return IntegerInterval(lo, lo)

    def quasi_horizon(self, k: int) -> Interval:
        if self.g == 0.5:
            return Interval.exact(2.0)
        return Interval.exact(1.0) / self.one_minus_g

    def horizon_ratio(self, k: int) -> Interval:
        try:
            kf = float(k)
        except OverflowError:  # each end of k (1 - g) an int quotient, one float outward
            top = int(sys.float_info.max)  # past it the quotient would round to inf
            lo, hi = (k * p / q if k * p <= top * q else math.inf
                      for p, q in (x.as_integer_ratio() for x in self.one_minus_g.pair))
            return Interval(math.nextafter(lo, 0.0), math.nextafter(hi, math.inf))
        if self.g == 0.5:
            return Interval.exact(math.ldexp(kf, -1))  # k/2 exact
        return Interval.exact(kf) * self.one_minus_g

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # smallest-ish N with g**N / (1-g) <= target
        if target <= 0:
            raise ValueError("target must be positive")
        n = _log_product(target, 1.0 - self.g) / math.log(self.g)
        return max(start, int(math.ceil(n)) + 2)

    def tail_ratio(self, j: int, k: int) -> Interval:
        """Gamma_j / Gamma_k = g**(j-k), immune to the underflow that
        kills the absolute weights at large indices."""
        d = j - k
        if d < 0:
            raise ValueError("need j >= k")
        if self.dyadic_exp is not None:
            return Interval(*_dyadic_pair(self.dyadic_exp * d))
        if d == 0:
            return Interval.exact(1.0)
        r = _pow_iv(self.g, float(d))
        return r if r.lo > 0.0 else Interval(0.0, max(r.hi, 5e-324))

    def tail_ratio_arrays(self, ds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """lo and hi of tail_ratio(k + d, k) for each offset d >= 0 in ds,
        bit for bit; each power of g is one scalar ldexp or pow call."""
        if self.dyadic_exp is not None:
            ps = np.array([math.ldexp(1.0, self.dyadic_exp * d) for d in ds.tolist()])
            below = self.dyadic_exp * ds < -1074
            return np.where(below, 0.0, ps), np.where(below, 5e-324, ps)
        g = self.g
        lo, hi = _rel_pad_arrays(np.array([g ** float(d) for d in ds.tolist()]), _pow_rel(g))
        under = ~(lo > 0.0)
        lo[under] = 0.0
        hi[under] = np.maximum(hi[under], 5e-324)
        one = ds == 0
        lo[one] = 1.0
        hi[one] = 1.0
        return lo, hi

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (False, True, "k gamma_k / Gamma_k = (1-g) k diverges; reciprocal tends to 0")


class _Quadratic(_Base):
    """gamma_k = 1 / (k (k+1)), Gamma_k = 1/k.

    Once k (k+1) (from k of about 1.34e154) or k (from 2**1024) no longer
    converts to float, the int quotient 1 / n is taken instead: Python
    rounds it correctly, to a subnormal or to 0, so it lies within half
    the least subnormal (2**-1075) of the true value, and [y - 5e-324,
    y + 5e-324] cut at 0 encloses it. From k of about 2**1074 on, Gamma_k
    reads [0, 5e-324] and V is undefined there (tail not positive).
    """

    name = "quadratic"
    cli_names = ("quadratic",)
    make = staticmethod(quadratic)
    note = "Gamma_k = 1/k exactly; eh_k = k; quasi-horizon k+1; ratio k/(k+1) -> 1"

    def gamma(self, k: int) -> float:
        try:
            return 1.0 / (k * (k + 1))
        except OverflowError:
            return 1 / (k * (k + 1))

    def gamma_pair(self, k: int) -> Pair:
        try:
            return _rel_pad_pair(1.0 / (k * (k + 1)), 4 * _U)
        except OverflowError:
            return _subnormal_pair(1 / (k * (k + 1)))

    def tail_pair(self, k: int, target: Optional[float] = None) -> Pair:
        try:
            y = 1.0 / k
        except OverflowError:
            return _subnormal_pair(1 / k)
        return y - math.ulp(y), y + math.ulp(y)  # Interval.rounded

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """gamma_pair from one numpy 1.0 / (k (k+1)) below 2**26, where
        k (k+1) < 2**53 is exact in float64 as the scalar int product is."""
        if not len(ks) or ks[-1] >= 1 << 26:
            return super().gamma_arrays(ks)
        kf = np.array(ks, dtype=np.float64)
        return _rel_pad_arrays(1.0 / (kf * (kf + 1.0)), 4 * _U)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return Interval(*self.tail_pair(k))

    def tail_arrays(self, ks: Sequence[int], target: Optional[float] = None) -> Tuple[np.ndarray, ...]:
        """tail_pair from one numpy 1.0 / k, correctly rounded as the scalar
        one, and np.spacing, which is math.ulp at 1/k <= 1."""
        try:
            y = 1.0 / np.asarray(ks, dtype=np.float64)
        except OverflowError:
            return super().tail_arrays(ks, target)
        return y - np.spacing(y), y + np.spacing(y)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        kf = ks.astype(np.float64)
        return 1.0 / (kf * (kf + 1.0))

    def effective_horizon(self, k: int) -> IntegerInterval:
        # 1/(k+h) <= 1/(2k) iff h >= k: exact in integers.
        return IntegerInterval(k, k)

    def quasi_horizon(self, k: int) -> Interval:
        """k + 1: exact below 2**53, then its correctly rounded float
        widened by an ulp, and past the float range [max float, inf]."""
        try:
            q = float(k + 1)
        except OverflowError:
            return Interval(sys.float_info.max, math.inf)
        return Interval.exact(q) if k < 1 << 53 else Interval.rounded(q)

    def horizon_ratio(self, k: int) -> Interval:
        return Interval.rounded(k / (k + 1))

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, _ceil_quotient(1.0, target) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "k gamma_k / Gamma_k = k/(k+1) in (1/2, 1); reciprocal in (1, 2)")


class _Integrable(_Base):
    """A family with gamma_i = f(i) for a nonincreasing f whose integral
    tail F(x) = int_x^inf f has a closed form (integral_pair).

    As f(i+1) <= int_i^{i+1} f <= f(i), for a < b

        F(a) - F(b) <= sum_{a<=i<b} gamma_i <= F(a) - F(b) + gamma_a - gamma_b,

    and the slack gamma_a - gamma_b telescopes: over consecutive segments
    from k it sums to at most gamma_k, where tail differences carry
    gamma_a + gamma_b each.
    """

    def integral_pair(self, k: int) -> Pair:
        raise NotImplementedError

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return Interval(*self.tail_pair(k))

    def tail_pair(self, k: int, target: Optional[float] = None) -> Pair:
        """The sandwich F(k) <= Gamma_k <= gamma_k + F(k)."""
        (glo, ghi), (lo, hi) = self.gamma_pair(k), self.integral_pair(k)
        return lo, widened_pair(glo + lo, ghi + hi)[1]

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):  # as segment_mass_arrays
            return self.bound_arrays(ks)[:2]

    def bound_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """lo and hi of gamma_pair(k), then lo and hi of integral_pair(k),
        for each k of an increasing list, bit for bit; each k's
        transcendentals are taken once."""
        raise NotImplementedError

    def mass_ends(self, bounds: Sequence[int], target: Optional[float] = None) -> Tuple[np.ndarray, ...]:
        """bound_arrays: gamma and the integral tail at each bound."""
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
            return self.bound_arrays(bounds)

    def gap_masses(self, ends: Tuple[np.ndarray, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """The sandwich above over each gap, in float64 lo/hi arrays that
        replay the interval operations of gamma_pair and integral_pair."""
        glo, ghi, tlo, thi = ends
        with np.errstate(over="ignore", invalid="ignore"):
            # both brackets are >= 0, so each of the four roundings errs by
            # at most half an ulp of the result; widening adds four
            lo, hi = widened_arrays(tlo[:-1] - thi[1:], (thi[:-1] - tlo[1:]) + (ghi[:-1] - glo[1:]))
        return np.maximum(lo, 0.0), np.maximum(hi, 0.0)


class _Power(_Integrable):
    name = "power"
    cli_names = ("power",)
    keys = ("eps",)
    make = staticmethod(power)
    note = ("gamma_k = k^-(1+eps) with eps={eps}; Gamma_k ~ k^-eps/eps; "
            "eh and quasi-horizon grow linearly; ratio -> eps")

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def gamma(self, k: int) -> float:
        try:
            return float(k) ** (-1.0 - self.eps)
        except OverflowError:  # k past the float range: through logs, as gamma_pair
            return _pow_parts(k, -1.0 - self.eps)[0]

    def gamma_pair(self, k: int) -> Pair:
        return _positive_pad_pair(*_pow_parts(k, -1.0 - self.eps))

    def integral_pair(self, k: int) -> Pair:
        """int_k^inf x^(-1-eps) dx = k^(-eps) / eps; the quotients by the
        point eps > 0 keep lo's and hi's order."""
        lo, hi = _positive_pad_pair(*_pow_parts(k, -self.eps))
        return widened_pair(lo / self.eps, hi / self.eps)

    def k_gamma(self, k: int) -> Interval:
        return _pow_iv(k, -self.eps)  # k gamma_k = k^(-eps)

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        return _pow_arrays(ks, -1.0 - self.eps)  # bound_arrays' first two, without the second pow

    def bound_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Both pows of each k share the log of their error bound."""
        ks = _int_list(ks)
        logs = [math.log(k) for k in ks]
        glo, ghi = _pow_arrays(ks, -1.0 - self.eps, logs)
        lo, hi = _pow_arrays(ks, -self.eps, logs)
        # the four quotients by the point eps > 0 keep lo's and hi's order
        return (glo, ghi) + widened_arrays(lo / self.eps, hi / self.eps)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        return ks.astype(np.float64) ** (-1.0 - self.eps)

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # (N^-eps)/eps * (1 + eps/N) <= target; solve in logs with slack
        x = target * self.eps
        ln_n = ((math.log(1.0 / x) if x > 0.0 else -_log_product(target, self.eps)) / self.eps) + 1.0
        if ln_n > 700:
            return max(start, guard_index() + 1)
        return max(start, int(math.ceil(math.exp(ln_n))) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "k gamma_k / Gamma_k tends to eps; both ratios bounded")


class _HarmonicLike(_Integrable):
    name = "harmonic_like"
    cli_names = ("harmonic-like", "harmonic")
    make = staticmethod(harmonic_like)
    note = "gamma_k ~ 1/(k ln^2 k); Gamma_k ~ 1/ln k; eh_k ~ k^2; ratio -> 0"

    def gamma(self, k: int) -> float:
        if k == 1:
            k = 2
        ln = math.log(k)  # accepts arbitrarily large ints
        try:
            return 1.0 / (k * ln * ln)
        except OverflowError:
            # log-space fallback for astronomically large indices
            expo = -(ln + 2.0 * math.log(ln))
            return math.exp(expo) if expo > -745.0 else 0.0

    def gamma_pair(self, k: int) -> Pair:
        g = self.gamma(k)
        if g == 0.0:
            return 0.0, 5e-324
        return _rel_pad_pair(g, self._gamma_rel(k))

    @staticmethod
    def _gamma_rel(k: int) -> float:
        """Relative error bound of gamma(k): the rounding of k ln^2 k and
        of its reciprocal grows with ln ln k."""
        return _U * (8.0 + 2.0 * math.log(math.log(max(k, 3))))

    def k_gamma(self, k: int) -> Interval:
        ln = math.log(k)  # k gamma_k = 1 / ln^2 k: gamma's roundings, less the product by k
        return _rel_pad_iv(1.0 / (ln * ln), self._gamma_rel(k))

    def tail_pair(self, k: int, target: Optional[float] = None) -> Pair:
        if k > 1:
            return super().tail_pair(k)
        (a, b), (c, d) = self.gamma_pair(1), self.tail_pair(2)  # gamma_1 + Gamma_2
        return widened_pair(a + c, b + d)

    def integral_pair(self, k: int) -> Pair:
        """int_k^inf dx / (x ln^2 x) = 1 / ln k for k >= 2, ln k enclosed by
        its widened float. At k = 1 it is gamma_1 + 1/ln 2: with
        gamma_1 = gamma_2 the segment sandwich then holds from a = 1 as well."""
        if k == 1:
            (a, b), (c, d) = self.gamma_pair(1), self.integral_pair(2)
            return widened_pair(a + c, b + d)
        y = math.log(k)  # ln k > 0.69: 1 / [lo, hi] is [1 / hi, 1 / lo]
        lo, hi = widened_pair(y, y)
        return widened_pair(1.0 / hi, 1.0 / lo)

    def bound_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One ln k = ln max(k, 2) serves gamma (which takes k = 2 at k = 1),
        its error bound (_gamma_rel, whose ln max(k, 3) is ln k from k = 3
        on) and 1 / ln k. An int k converts to float and logs as its float,
        so the products and quotients of gamma run in numpy with the same
        roundings; past the float range, where gamma falls back to logs,
        every k takes the scalar calls."""
        ks = _int_list(ks)
        try:
            kf = [float(max(k, 2)) for k in ks]
        except OverflowError:
            pairs = [self.gamma_pair(k) + self.integral_pair(k) for k in ks]
            return tuple(np.array(col) for col in zip(*pairs))
        lns = [math.log(x) for x in kf]
        kf, logs, rel = np.array(kf), np.array(lns), np.array([math.log(ln) for ln in lns])
        for j, k in enumerate(ks[:2]):  # ks increase: only these can be below 3
            if k < 3:
                rel[j] = math.log(math.log(3))
        gs = 1.0 / (kf * logs * logs)  # may overflow to inf and give 0, as gamma does
        glo, ghi = _rel_pad_arrays(gs, _U * (8.0 + 2.0 * rel))
        zero = gs == 0.0
        glo[zero] = 0.0
        ghi[zero] = 5e-324
        log_lo, log_hi = widened_arrays(logs, logs)
        tlo, thi = widened_arrays(1.0 / log_hi, 1.0 / log_lo)  # ln k > 0.69: 1 / [lo, hi]
        if len(ks) and ks[0] == 1:
            tlo[0], thi[0] = self.integral_pair(1)
        return glo, ghi, tlo, thi

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        kf = np.where(ks == 1, 2, ks).astype(np.float64)
        ln = np.log(kf)
        return 1.0 / (kf * ln * ln)

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # need 1/ln N beneath target: ln N >= 1/target, N as a power of two
        if target <= 0:
            raise ValueError("target must be positive")
        # cap the hint's bit length; callers fall back to their own caps
        # when even this index leaves the tail above target
        q = (1.0 / target) / math.log(2.0)  # inf for a subnormal target
        bits = min(int(math.ceil(q)) + 2, 8192) if q < 8192 else 8192
        n = 1 << bits
        return max(start, n)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, False, "k gamma_k / Gamma_k ~ 1/ln k tends to 0; reciprocal diverges")


class _StepLog(_Base):
    name = "step_log"
    cli_names = ("step-log", "steplog")
    make = staticmethod(step_log)
    note = ("gamma = 4^-n on each block 2^(n-1) < k <= 2^n; the step ratio drops to "
            "1/4 at block ends while the weight share still vanishes")

    @staticmethod
    def _block(k: int) -> int:
        return (k - 1).bit_length()

    def gamma(self, k: int) -> float:
        return math.ldexp(1.0, -2 * self._block(k))

    def gamma_pair(self, k: int) -> Pair:
        return _dyadic_pair(-2 * self._block(k))

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """gamma_pair below 2**53: frexp reads n off k - 1, exact in float64,
        and 4^-n >= 2^-106 is built from its exponent bits."""
        if not len(ks) or ks[-1] >= 1 << 53:
            return super().gamma_arrays(ks)
        n = np.frexp(np.array(ks, dtype=np.float64) - 1.0)[1].astype(np.int64)
        g = ((1023 - 2 * n) << 52).view(np.float64)
        return g, g.copy()

    def tail_scaled(self, k: int) -> Tuple[int, int]:
        """Gamma_k = num / 2**shift with exact integers.

        Within block n the remaining block mass is (2**n - k + 1) 4**(-n)
        and all later blocks sum to 2**(-n-1), so
        Gamma_k = (3 * 2**n - 2k + 2) / 2**(2n+1).
        """
        n = self._block(k)
        return 3 * (1 << n) - 2 * k + 2, 2 * n + 1

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        num, shift = self.tail_scaled(k)
        if num.bit_length() <= 53 and shift < 1000:
            return Interval.exact(math.ldexp(float(num), -shift))
        y = num / (1 << shift)  # correctly rounded, a subnormal or 0 included
        return Interval.rounded(y) if y > 0.0 else Interval(0.0, 5e-324)

    def effective_horizon(self, k: int) -> IntegerInterval:
        # exact integer bisection: Gamma(k+h) <= Gamma(k)/2 compared via
        # cross-multiplied scaled integers
        num_k, sh_k = self.tail_scaled(k)

        def satisfied(h: int) -> bool:
            num_h, sh_h = self.tail_scaled(k + h)
            # num_h / 2**sh_h <= num_k / 2**(sh_k + 1)
            return num_h * (1 << (sh_k + 1)) <= num_k * (1 << sh_h)

        h = _least_passing(satisfied, None)
        return IntegerInterval(h, h)

    def quasi_horizon(self, k: int) -> Interval:
        num, _ = self.tail_scaled(k)
        # Gamma_k / gamma_k = num / 2: dyadic, exact for num < 2**54
        if num.bit_length() <= 54:
            return Interval.exact(num / 2)
        try:
            return Interval.rounded(num / 2)
        except OverflowError:  # num / 2 past the float range
            return Interval(sys.float_info.max, math.inf)

    def horizon_ratio(self, k: int) -> Interval:
        num, _ = self.tail_scaled(k)
        return Interval.rounded(2 * k / num)

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # Gamma at the start of block n is 2**(-n): pick n with 2**-n <= target
        n = max(0, int(math.ceil(-math.log2(target))) + 1)
        return max(start, (1 << n) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "both ratios oscillate inside [1/2, 2]-scale bands")


def _sum_depth(n: np.ndarray) -> np.ndarray:
    """Bound on the rounded additions that any term passes through when
    np.add.reduceat sums a segment of n >= 1 float64 terms.

    numpy sums a segment as its first term plus a pairwise sum of the
    rest (tests/test_kernels.py pins this model bit for bit). The
    pairwise sum of m terms adds them in a row when m < 8 (depth <= 6).
    Up to m = 128 it keeps 8 running sums of m // 8 terms, joins them in a
    tree of depth 3 and adds the m % 8 left over in a row: a depth of
    m // 8 - 1 + 3 + m % 8 <= 24. Past 128 it splits m into
    h = m // 2 - (m // 2) % 8 and m - h <= ceil(m / 2) + 7, one level
    more. By induction the larger part is at most 128 after t splits
    when m <= 114 * 2**t + 14, as then ceil(m / 2) + 7 <= 114 * 2**(t-1)
    + 14. With the first term's addition the depth is at most 25 + t for
    the least such t, which is ceil(log2 q), q = ceil((n - 14) / 114).
    """
    q = np.maximum(-(-(n - 14) // 114), 1)
    return 25 + np.frexp((q - 1).astype(np.float64))[1]  # frexp's exponent: bit length


def _range_sums(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of x[lo[j]:hi[j]] for nonempty ranges in ascending order that
    do not overlap, by one np.add.reduceat; the segments between ranges
    are summed too and dropped."""
    idx = np.empty(2 * lo.size, dtype=np.int64)
    idx[0::2], idx[1::2] = lo, hi
    return np.add.reduceat(x[: hi[-1]], idx[:-1])[::2]


class _BlockSums:
    """Block sums of a nonnegative weight sequence w_i, i >= origin.

    terms(idx) evaluates w at a float64 array of indices. The table is one
    float64 array: the sum of each block of SIZE indices from origin (whole
    blocks below stop, if given). It grows in chunks of CHUNK indices
    aligned to origin, only as far as the last whole block a query covers,
    and never past the work guard; a piece may end at most 2 SIZE indices
    past the table's last possible block, and one reaching further raises
    GuardExceeded. A mass over [a, b) is the reduceat sum W of the whole
    blocks inside plus its two partial ends P1 and P2, each under 3 SIZE
    terms summed fresh: s = (W + P1) + P2. No prefix sums are
    subtracted. Results are a pure function of (a, b): chunks start at
    origin + j * CHUNK, and reduceat sums each piece by itself. Bounds
    reach numpy as int64 offsets from origin, and terms() gets float64
    indices, exact below 2**53.

    Two entries answer the same masses. mass_arrays(bounds) takes any
    number of consecutive pieces as lo and hi arrays; mass(a, b) takes one
    piece as a float pair, with the same whole-block reduceat, the same
    fresh ends and the same pads, and returns the bits of
    mass_arrays([a, b]) without the batch bookkeeping (a tail asks for one
    piece). Both form the pad below through one helper, _block_pad,
    written with plain operators.

    The pad. Let w~_i >= 0 be the computed terms, with
    |w~_i - w_i| <= (200 u + rho_i) w~_i: 200 u covers the rounding of
    rational and logarithmic weights, and rho_i = term_rel (0 if not
    given) is a family's larger bound, nondecreasing in i, with
    rho_i <= 2**-21 (a bound relative to w_i serves too: the two differ
    by less than 2 rho_i**2 < u). Each block is a reduceat sum of SIZE
    terms (depth 25, _sum_depth), W sums m blocks (depth 25 + t), a fresh
    end takes at most 26, and two additions follow, so every term of a
    piece passes through at most d = 2 + max(26, 50 + t) rounded
    additions. For nonnegative summands |s - sum w~| <= g sum w~ and
    sum w~ <= s / (1 - g), g = d u / (1 - d u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 4.2). Hence, with
    R = sum rho_i w~_i,

        |s - M| <= (g + 200 u) s / (1 - g) + R <= (d + 201) u s + R

    for the mass M (d < 2**10). R is computed per run of blocks of equal
    rho (rho at each block's end), and as rho at its end times each fresh
    end; its computed value R~ <= 2**-19 s meets R <= R~ (1 + 2**-40),
    an excess below u s. The pad (d + 202) u s + R~ and s -+ pad, formed
    in floating point, err by less than 2 ulp(s), which the outward
    widening by 4 ulp of each end covers.
    """

    SIZE = 1 << 6
    CHUNK = 1 << 15
    _END_DEPTH = int(_sum_depth(3 * SIZE))  # of a fresh end's terms

    def __init__(self, terms, term_rel=None, origin: int = 1, stop: Optional[int] = None) -> None:
        self._terms, self._term_rel, self._origin = terms, term_rel, origin
        self._max_blocks = math.inf if stop is None else (stop - origin) // self.SIZE
        self._sums = np.zeros(0)
        # runs of blocks of equal term_rel: the first block of each, its rel
        self._cuts = np.zeros(0, dtype=np.int64)
        self._rels = np.zeros(0)

    def _grow(self, blocks: int, cap: int) -> None:
        """Fill the table to at least min(blocks, cap) blocks, in whole
        chunks unless cap or stop cuts the last one short."""
        have, per, size = self._sums.size, self.CHUNK // self.SIZE, self.SIZE
        if blocks <= have:
            return
        j = first = have - have % per  # a chunk an earlier cap cut short is redone whole
        goal = min(blocks + (-blocks) % per, cap, self._max_blocks)
        parts = [self._sums[:j]]
        while j < goal:
            n = min(per, goal - j)
            lo = self._origin + j * size
            terms = self._terms(np.arange(lo, lo + n * size, dtype=np.float64))
            parts.append(np.add.reduceat(terms, np.arange(0, n * size, size)))
            j += n
        self._sums = np.concatenate(parts)
        if self._term_rel is not None:
            kept = np.searchsorted(self._cuts, first)
            cuts, rels = self._cuts[:kept], self._rels[:kept]
            ends = self._origin + size * np.arange(first + 1, goal + 1, dtype=np.float64)
            rel = self._term_rel(ends)
            new = np.flatnonzero(np.diff(rel, prepend=rels[-1] if rels.size else -1.0))
            self._cuts = np.concatenate([cuts, first + new])
            self._rels = np.concatenate([rels, rel[new]])

    def _fresh(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Reduceat sums of the terms over each offset range [lo, hi) of
        fewer than 3 SIZE indices; 0 for an empty one."""
        n = hi - lo
        out = np.zeros(n.size)
        live, step = np.flatnonzero(n), self.CHUNK // (3 * self.SIZE)
        for sel in (live[g : g + step] for g in range(0, live.size, step)):
            starts = np.cumsum(n[sel]) - n[sel]
            idx = np.arange(starts[-1] + n[sel[-1]]) + np.repeat(lo[sel] - starts, n[sel])
            out[sel] = np.add.reduceat(self._terms(idx + float(self._origin)), starts)
        return out

    def _rel_pads(self, f: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Sum of rho_j T_j over the blocks j of each range [f, e), in
        ascending order: one reduceat sum per run of equal rho inside it."""
        cuts = self._cuts
        first = np.searchsorted(cuts, f, "right") - 1
        count = np.searchsorted(cuts, e, "left") - first
        rng = np.repeat(np.arange(f.size), count)
        run = np.arange(rng.size) - np.repeat(np.cumsum(count) - count, count) + first[rng]
        lo = np.maximum(f[rng], cuts[run])
        hi = np.minimum(e[rng], np.append(cuts[1:], e[-1])[run])
        parts = self._rels[run] * _range_sums(self._sums, lo, hi)
        return np.bincount(rng, weights=parts, minlength=f.size)

    def _rel_pad(self, f: int, e: int) -> float:
        """_rel_pads of the one range [f, e), as a float: the same reduceat
        sums, added in the same order."""
        cuts = self._cuts
        i = int(np.searchsorted(cuts, f, "right")) - 1
        j = int(np.searchsorted(cuts, e, "left"))
        inner = cuts[i + 1 : j]  # the runs that start inside (f, e)
        lo, hi = np.concatenate(([f], inner)), np.concatenate((inner, [e]))
        return sum((self._rels[i:j] * _range_sums(self._sums, lo, hi)).tolist())

    def _cap(self, end: int) -> int:
        """The blocks the table may hold; GuardExceeded if a piece ending
        at end reaches past them by more than 2 SIZE indices."""
        cap = min(guard_index(), 1 << 52) // self.SIZE
        if end - self._origin > (cap + 2) * self.SIZE:
            raise GuardExceeded("block sums past the work guard")
        return cap

    def mass(self, a: int, b: int) -> Pair:
        """mass_arrays([a, b]) as a (lo, hi) pair, bit for bit: the same
        whole-block reduceat, fresh ends and pads, on Python floats."""
        size, cap = self.SIZE, self._cap(b)
        a, b = a - self._origin, b - self._origin
        f, e = -(-a // size), min(b // size, cap)  # whole blocks [f, e) of [a, b)
        whole = f < e
        c, d = (f * size, e * size) if whole else (b, b)  # fresh ends [a, c), [d, b)
        idx = np.arange(a, a + (c - a) + (b - d))
        idx[c - a :] += d - c
        terms = self._terms(idx + float(self._origin))
        # each end's reduceat sum; an empty [a, c) reads the term at d, dropped
        sums = np.add.reduceat(terms, [j for j in (0, c - a) if j < terms.size]).tolist()
        p1 = sums[0] if c > a else 0.0
        p2 = sums[-1] if b > d else 0.0
        w, depth = 0.0, self._END_DEPTH
        if whole:
            self._grow(e, cap)
            w = float(np.add.reduceat(self._sums[:e], [f])[0])
            depth = max(depth, 25 + int(_sum_depth(e - f)))
        s = (w + p1) + p2
        rel_ends = rel_blocks = 0.0
        if self._term_rel is not None:
            r1, r2 = self._term_rel(np.array([c, b]) + float(self._origin)).tolist()
            rel_ends = r1 * p1 + r2 * p2
            if whole:
                rel_blocks = self._rel_pad(f, e)
        pad = _block_pad(s, depth, rel_ends, rel_blocks)
        return widened_pair(max(s - pad, 0.0), s + pad)

    def mass_arrays(self, bounds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Enclosures of sum_{a <= i < b} w_i for consecutive bounds a, b,
        as lo and hi arrays."""
        size, cap = self.SIZE, self._cap(bounds[-1])
        x = np.asarray(bounds, dtype=np.int64) - self._origin
        a, b = x[:-1], x[1:]
        f, e = -(-a // size), np.minimum(b // size, cap)  # whole blocks [f, e) of [a, b)
        whole = f < e
        # fresh ends [a, c) and [e SIZE, b): c = f SIZE, or c = b and nothing
        c = np.where(whole, f * size, b)
        ends = self._fresh(np.concatenate([a, np.where(whole, e * size, b)]),
                           np.concatenate([c, b]))
        p1, p2 = ends[: a.size], ends[a.size :]
        w, depth = np.zeros(a.size), np.full(a.size, self._END_DEPTH)
        f, e = f[whole], e[whole]
        if f.size:
            self._grow(int(e[-1]), cap)
            w[whole] = _range_sums(self._sums, f, e)
            depth[whole] = np.maximum(depth[whole], 25 + _sum_depth(e - f))
        s = (w + p1) + p2
        rel_ends = rel_blocks = 0.0
        if self._term_rel is not None:
            rel = self._term_rel(np.concatenate([c, b]) + float(self._origin))
            rel_ends = rel[: a.size] * p1 + rel[a.size :] * p2
            rel_blocks = np.zeros(a.size)
            if f.size:
                rel_blocks[whole] = self._rel_pads(f, e)
        pad = _block_pad(s, depth, rel_ends, rel_blocks)
        return widened_arrays(np.maximum(s - pad, 0.0), s + pad)


def _block_pad(s, depth, ends, blocks):
    """The pad (d + 202) u s + R~ of _BlockSums for sums s with d = depth + 2,
    where ends and blocks are R~'s parts over the fresh ends and the whole
    blocks (0 without term_rel). Plain operators: floats and arrays alike."""
    return ((depth + 204) * _U * s + ends) + blocks


class _AlternatingZero(_Base):
    name = "alternating_zero"
    cli_names = ("alternating",)
    cli_arg = DiscountSpec
    keys = ("base",)
    make = staticmethod(alternating_zero)
    note = ("gamma vanishes at every odd index; tails and horizons follow the "
            "even-index base weights")
    monotone = False
    mass_form = None
    sums_terms = True
    target_free = False

    def __init__(self, base: DiscountSpec) -> None:
        self.base = _impl(base)
        rel = self.base._term_rel  # the base's term bound at 2j
        self._evens = _BlockSums(self._even_terms, rel and (lambda js: rel(2.0 * js)))  # w_j = gamma_2j
        self._view = _EvenWeights(self) if self.base.monotone else None

    @classmethod
    def to_json(cls, params: tuple) -> dict:
        return {"base": spec_to_dict(params[0])}

    @classmethod
    def from_json(cls, params: dict) -> DiscountSpec:
        return alternating_zero(spec_from_dict(params["base"]))

    def gamma(self, k: int) -> float:
        return 0.0 if k % 2 == 1 else self.base.gamma(k)

    def gamma_pair(self, k: int) -> Pair:
        return (0.0, 0.0) if k % 2 == 1 else self.base.gamma_pair(k)

    def even_view(self) -> Optional["_EvenWeights"]:
        return self._view

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """The base's gamma_arrays at the even indices, 0 at the odd ones."""
        if not isinstance(ks, np.ndarray):  # the evens stay Python ints
            even = np.array([k % 2 == 0 for k in ks], dtype=bool)
            evens = [k for k in ks if k % 2 == 0]
        else:
            even = (ks & 1) == 0
            evens = ks[even]
        lo, hi = np.zeros(len(ks)), np.zeros(len(ks))
        lo[even], hi[even] = self.base.gamma_arrays(evens)
        return lo, hi

    # the relative width that the rest of a tail over a monotone base aims for
    _SHARP = 2.0**-20

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        """Gamma_k: the base weights at the even indices i >= k.

        The even indices from start (k rounded up to even) to an even
        n >= start - 2 are summed from the block table (none at
        n = start - 2), and the rest E = sum_{even i > n} gamma_i is
        enclosed without summing. With O = sum_{odd i > n} gamma_i, the
        base tail is Gamma_{n+1} = E + O. When the base is provably
        nonincreasing (base.monotone), pairing neighbours gives

            O - E = sum_{j>=0} (gamma_{n+1+2j} - gamma_{n+2+2j}) >= 0,
            O - E = gamma_{n+1} - sum_{j>=0} (gamma_{n+2+2j} - gamma_{n+3+2j})
                  <= gamma_{n+1},

        so E lies in [(Gamma_{n+1} - gamma_{n+1}) / 2, Gamma_{n+1} / 2], a
        width of gamma_{n+1} / 2 (the odd rest, which starts first, holds
        the larger half). At n = start - 2 the lower end is Gamma_start / 2,
        a lower bound of the whole tail. So n is start - 2 or the first of
        start - 2 + 2^j, j >= 1, with gamma_{n+1} <= 2u Gamma_start if one
        has 2^j <= 4096 (a rest below the rounding pads for a few thousand
        terms at most), else the first with gamma_{n+1} <= 2^-20
        Gamma_start (or 2 target, if smaller): the rest is at most 2^-20
        of the tail wide. n never passes the work guard or 64 start; past
        the guard the rest alone answers. One gamma_arrays call reads the
        gamma_{n+1} of every candidate n (bit for bit gamma_iv).

        Any other base keeps the crude rest 0 <= E <= Gamma_{n+1}, with n
        grown fourfold from start + 4096 until that rest is below 1e-3 of
        the summed part, or up to the same cap.
        """
        start = k + k % 2
        cap = min(guard_index(), max(start * 64, 1 << 22))
        cap -= cap % 2
        base = self.base
        if base.monotone:
            scale = base.tail(start).lo  # Gamma_start: at most twice the tail
            goal = self._SHARP * scale
            if target is not None:
                goal = min(goal, 2.0 * target)
            fine = 2.0 * _U * scale

            ns = [start - 2]  # then start - 2 + 2^j, j >= 1, up to cap
            while ns[-1] < cap:
                ns.append(min(start - 2 + (2 << len(ns) - 1), cap))
            g_lo, g_hi = (a.tolist() for a in base.gamma_arrays([n + 1 for n in ns]))

            def first(limit: float, last: int) -> int:
                return next(i for i, n in enumerate(ns) if n >= last or g_hi[i] <= limit)

            i = first(fine, min(start + 4094, cap))
            if g_hi[i] > fine:
                i = first(max(goal, 1e-300), cap)
            n = ns[i]
            t, g = base.tail(n + 1), Interval(g_lo[i], g_hi[i])
            tail = Interval(max(((t - g) * 0.5).lo, 0.0), (t * 0.5).hi)
            if n >= start:
                tail = Interval(*self._evens.mass(start // 2, n // 2 + 1)) + tail
            return Interval(max(tail.lo, 0.0), tail.hi)
        n = max(min(max(start + 4096, 1 << 16), cap), start - 2)
        while True:
            rest = base.tail(n + 1)
            partial = Interval(*self._evens.mass(start // 2, n // 2 + 1))
            if rest.hi <= max(1e-3 * partial.lo, 1e-300) or n >= cap:
                return Interval(max(partial.lo, 0.0), partial.hi + rest.hi)
            n = min(n * 4, cap)

    def k_gamma(self, k: int) -> Interval:
        return Interval.exact(0.0) if k % 2 == 1 else self.base.k_gamma(k)

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        # the even-index tail is bounded by the full base tail
        return self.base.index_for_tail_bound(target, start)

    def _even_terms(self, js: np.ndarray) -> np.ndarray:
        ks = js.astype(np.int64)
        ks *= 2
        vec = self.base.gamma_vec(ks)
        return vec if vec is not None else np.array([self.base.gamma(2 * int(j)) for j in js])


class _EvenWeights(_Base):
    """The even-index weights w_j = gamma_{2j} of an alternating discount
    over a nonincreasing base, as a family of their own: w_j is the base
    weight at 2j, so w is nonincreasing too, and its tail
    W_j = sum_{j' >= j} w_{j'} is the alternating tail Gamma_{2j}. As the
    odd weights vanish, sum_{i > 2m} gamma_i r_i = sum_{j > m} w_j r_{2j}
    exactly (value._truncate). Its tails are alternating's, which read the
    target; sums_terms stays False, as _enveloped_truncation takes no tail
    hint here."""

    target_free = False

    def __init__(self, alternating: _AlternatingZero) -> None:
        self._alt = alternating

    def gamma_pair(self, j: int) -> Pair:
        return self._alt.base.gamma_pair(2 * j)

    def tail(self, j: int, target: Optional[float] = None) -> Interval:
        return self._alt.tail(2 * j, target)


class _CosineModulated(_Base):
    """gamma_i = g(i), g(x) = (2 + cos U_x) / x^2 with U_x = pi sqrt(2x).

    Near k masses are summed from the block table; far from k they are
    enclosed in closed form (second-order Euler-Maclaurin). For integers
    a < b <= inf, with the periodic Bernoulli polynomial B~_2,
    |B~_2| <= B_2 = 1/6,

        sum_{a<=i<b} g(i) = int_a^b g + (g(a) - g(b)) / 2 - (g'(a) - g'(b)) / 12 + E,
        E = -int_a^b (B~_2(x) / 2) g''(x) dx,  |E| <= (1/12) int_a^b |g''|

    (g(inf) = g'(inf) = 0). As U'_x = pi / sqrt(2x),
    g' = -(pi / sqrt 2) sin U_x x^(-5/2) - 2 (2 + cos U_x) x^(-3) and
    g'' = -(pi^2 / 2) cos U_x x^(-3) + (9 pi / (2 sqrt 2)) sin U_x x^(-7/2)
    + 6 (2 + cos U_x) x^(-4), so |g''| <= (pi^2 / 2) x^(-3)
    + (9 pi / (2 sqrt 2)) x^(-7/2) + 18 x^(-4) and

        |E| <= (pi^2 / 48) (a^-2 - b^-2) + (3 pi / (20 sqrt 2)) (a^(-5/2) - b^(-5/2))
               + (1/2) (a^-3 - b^-3).

    In int_a^b cos(U_x) / x^2 dx the substitution u = U_x (x = u^2 / (2 pi^2))
    gives 4 pi^2 int cos(u) / u^3 du; three integrations by parts turn it
    into 4 pi^2 [sin u / u^3 - 3 cos u / u^4 - 12 sin u / u^5] from U_a to
    U_b, plus R = -240 pi^2 int sin(u) / u^6 du with
    |R| <= 48 pi^2 (U_a^-5 - U_b^-5) = (6 sqrt(2) / pi^3) (a^(-5/2) - b^(-5/2)).
    (Stopping after two leaves R of order a^-2 that its bound meets on
    short pieces.) As 4 pi^2 / U_x^3 = (sqrt(2) / pi) x^(-3/2),
    12 pi^2 / U_x^4 = (3 / pi^2) x^-2 and 48 pi^2 / U_x^5 =
    (6 sqrt(2) / pi^3) x^(-5/2), with c = cos U_x, s = sin U_x,

        sum_{a<=i<b} g(i) = F(a) - F(b) +- (H(a) - H(b)),
        F(x) = 2/x - K s x^(-3/2) + x^-2 (1 + A c + x^(-1/2) (D s + (2 + c) x^(-1/2) / 6)),
        H(x) = x^-2 (C2 + C5 x^(-1/2) + x^-1 / 2),

    with K = sqrt(2) / pi, A = 1/2 + 3 / pi^2, D = pi / (12 sqrt 2)
    + 6 sqrt(2) / pi^3, C2 = pi^2 / 48 = 0.20561... <= _EM_C2 and
    C5 = 3 pi / (20 sqrt 2) + 6 sqrt(2) / pi^3 = 0.60687... <= _EM_C5 (F(x)
    is int_x^inf g + g(x) / 2 - g'(x) / 12, and F(inf) = H(inf) = 0). H only
    grows with the float constants, and both bounds telescope: over
    consecutive pieces from P the errors add up to at most
    H(P) ~ 0.21 P^-2, however many pieces there are. Every power of x is
    formed as x^-2 times powers of x^(-1/2), so H and F keep x^-3 inside a
    factor of the normal x^-2 up to _FAR.

    The float pad (_closed_parts). Each x is an index rounded to float64,
    x~ = x (1 + d0) with |d0| <= u (d0 = 0 below 2**53). sqrt and the four
    basic operations are correctly rounded, so q = 1 / (x~ x~), v = 1 / sqrt x~,
    r = 1 / (x~ sqrt x~) and t1 = 2 / x~ are x^-2, x^(-1/2), x^(-3/2) and 2/x
    times 1 + th with |th| <= 4.01 u, 2.52 u, 4.5 u and 2.01 u. _SQRT2_PI,
    _EM_A and _EM_D are K (1 + 2.2 u), A (1 + 1.1 u) and D (1 + 1.1 u).
    U~ = pi sqrt(2 x~) is formed as gamma_vec forms it, |U~ - U_x| <= 3.01 u U
    + u U / 2 < 4 ulp(U~), and np.sin and np.cos are accurate to 4 ulp
    (<= 8 u) in [-1, 1], so each of s~, c~ errs from s, c by
    e <= S = min(6 ulp(U~) + 16 u, 3) (the cap holds for any values in
    [-1, 1] they return). F~ = (t1 - kr s~) + t3 with kr = fl(K r) =
    K x^(-3/2) (1 + 7.8 u) and t3 = q b, where b is the bracket of F formed
    from c~, s~ and v in the order written. Then

        |t2~ - t2| <= K x^(-3/2) (e + 8.9 u) <= (1 + 8 u) (S + 8.9 u) kr

    for t2 = K s x^(-3/2), as |s~| <= 1. The bracket's four terms 1, A c~,
    D s~ v and (2 + c~) v^2 / 6 pass with q through at most 7.01 u, 9.12 u,
    12.64 u and 16.06 u of relative rounding, and |c~|, |s~| <= 1 bound them
    by M = 1 + A + D x^(-1/2) + x^-1 / 2; the errors e move the bracket by at
    most (A + D x^(-1/2) + x^-1 / 6) S <= M S. So |t3~ - t3| <=
    x^-2 M (S + 16.1 u) <= (1 + 4.1 u) q~ M (S + 16.1 u), and m~, M's float
    value, is M (1 +- 10 u). The two additions err by at most
    2.01 u (t1 + kr + q~ m~). So |F~ - F| <= 4.02 u t1 + (S + 11 u + 8 u S) kr
    + (S + 18.2 u + 8 u S) q~ m~, and p = 1.01 ((S + 24 u) (kr + q~ m~)
    + 4 u t1) bounds it: the margin of 1.01 covers the terms in u S and the
    roundings of p itself. H~ = q~ (_EM_C2 + v (_EM_C5 + v / 2)) is H(x)
    (1 +- 14.1 u), and scaling it by 1 -+ 2**-48 (32 u) rounds to
    H_lo <= H(x) <= H_hi. Below _FAR, q~ > 2**-1001 and kr > 2**-751, and
    from x = 64 on b >= 1 - A - D x^(-1/2) > 0.1, while m~ and H~ / q~ exceed
    1/5 everywhere: t1, kr, t3, p and H~ are normal floats (x^-3 alone would
    underflow from 2**341). A partial product that underflows (D s~ v for
    a tiny s~) errs by under 2**-1074, far below u q~.
    """

    name = "cosine_modulated"
    cli_names = ("cosine", "cosine-modulated")
    make = staticmethod(cosine_modulated)
    note = "gamma_k = (2 + cos(pi sqrt(2k)))/k^2; Gamma_k within [1/(k+1), 3/k]"
    monotone = False
    mass_form = "blocks"
    sums_terms = True
    target_free = False

    _DEFAULT_TARGET = 3.0 * 2.0**-23  # default tail resolution
    _last_rest: tuple = (None, None)  # (n, rest(n)) of the last tail (_rest_at)
    _EM_C2 = 0.20562  # >= pi^2 / 48
    _EM_C5 = 0.6069  # >= 3 pi / (20 sqrt 2) + 6 sqrt(2) / pi^3
    _EM_A = 0.80396355092701331  # 1/2 + 3 / pi^2 within 1.1 u
    _EM_D = 0.45878346683990679  # pi / (12 sqrt 2) + 6 sqrt(2) / pi^3 within 1.1 u
    _VAR_C = 0.9429  # >= 2 sqrt(2) / 3
    _SQRT2_PI = math.sqrt(2.0) / math.pi  # sqrt(2) / pi within 2.2 u
    _FAR = 2.0**500  # where the closed form stops: x^-2 stays a normal float

    def __init__(self) -> None:
        self._sums = _BlockSums(self.gamma_vec, self._term_rel)

    def gamma(self, k: int) -> float:
        try:
            c = 2.0 + math.cos(math.pi * math.sqrt(2.0 * k))
        except (OverflowError, ValueError):  # k >= 2^1023: 3/k^2 rounds to 0
            return 0.0
        try:
            return c / (k * k)
        except OverflowError:  # k * k past the float range: the int quotient
            num, den = c.as_integer_ratio()
            return num / (den * k * k)

    def gamma_pair(self, k: int) -> Pair:
        kk = float(k) * float(k) if k < 1 << 1023 else math.inf
        if kk == math.inf:  # k past 1.34e154, where cos(arg) is noise: [1/k^2, 3/k^2]
            return _subnormal_pair(1 / (k * k))[0], _subnormal_pair(3 / (k * k))[1]
        x = math.sqrt(2.0 * k)
        arg = math.pi * x
        c = math.cos(arg)
        # cos argument carries ~3 roundings scaled by the argument size
        pad_c = 4.0 * math.ulp(arg) + 4.0 * _U
        lo = (2.0 + c - pad_c) / kk
        hi = (2.0 + c + pad_c) / kk
        return widened_pair(lo, hi)

    def gamma_arrays(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """gamma_pair below 2**53, where each k is an exact float: numpy's
        correctly rounded steps and one math.cos per element."""
        if not len(ks) or ks[-1] >= 1 << 53:
            return super().gamma_arrays(ks)
        kf = np.array(ks, dtype=np.float64)
        arg, kk = math.pi * np.sqrt(2.0 * kf), kf * kf
        c, pad_c = np.array([math.cos(a) for a in arg.tolist()]), 4.0 * np.spacing(arg) + 4.0 * _U
        return widened_arrays((2.0 + c - pad_c) / kk, (2.0 + c + pad_c) / kk)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        kf = np.asarray(ks, dtype=np.float64)
        return (2.0 + np.cos(np.pi * np.sqrt(2.0 * kf))) / (kf * kf)

    def tail_crude(self, k: int) -> Interval:
        """Analytic sandwich of Gamma_k with no summation: 1 <= 2 + cos <= 3
        and sum_{i>=k} i^-2 lies in [1/k, 1/(k-1)] (in [1, pi^2/6] at k = 1)."""
        if k <= 1:
            return Interval.widened(1.0, 3.0 * math.pi * math.pi / 6.0)
        lo, hi = 1 / k, 3 / (k - 1)  # int quotients, correctly rounded
        if hi < 2.0**-1021:
            return Interval(_subnormal_pair(lo)[0], _subnormal_pair(hi)[1])
        return Interval.widened(lo, hi)

    def variation(self, m: int) -> Interval:
        """[0, V] with V >= sum_{i>m} |gamma_i - gamma_{i+1}|.

        Each difference is |int_i^{i+1} g'|, so with x = m + 1 and g' of
        the class docstring the sum is at most int_x^inf |g'| <=
        (pi / sqrt 2) I + 3 x^-2, I = int_x^inf |sin U_t| t^(-5/2) dt =
        2^(5/2) pi^3 int_{U_x}^inf |sin u| u^-4 du (u = U_t). By the Fourier
        series |sin u| = 2/pi - (4/pi) sum_k cos(2ku) / (4k^2 - 1) and
        |int_A^inf cos(2ku) f| <= f(A) / k for f decreasing to 0 (one
        integration by parts), int_A^inf |sin u| f <= (2/pi) int_A^inf f
        + (4/pi) (2 ln 2 - 1) f(A), as sum_k 1 / (k (4k^2 - 1)) = 2 ln 2 - 1.
        With f = u^-4 and U_x^2 = 2 pi^2 x,

            sum_{i>m} |gamma_i - gamma_{i+1}|
                <= (2 sqrt(2) / 3) x^(-3/2) + (3 + (4/pi) (2 ln 2 - 1)) x^-2,

        with 2 sqrt(2) / 3 = 0.94281... <= _VAR_C and 3.4919 <= 3.5: the
        mean of |sin| in place of its maximum. The float x~ = x (1 + d0),
        |d0| <= u (d0 = 0 below 2**53), r = 1 / (x~ sqrt x~) and
        q = 1 / (x~ x~) take three and two correct roundings, and
        _VAR_C r + 3.5 q two more: the computed sum is the bound times
        (1 +- 8 u), and 1 + 2**-48 (32 u) lifts it above. From _FAR on,
        where x~^2 may overflow, V = 2 tail_crude(x).hi, as the sum is at
        most sum_{i>m} (gamma_i + gamma_{i+1}) <= 2 Gamma_x.
        """
        x = m + 1
        if x >= self._FAR:
            return Interval(0.0, 2.0 * self.tail_crude(x).hi)
        xf = float(x)
        v = self._VAR_C / (xf * math.sqrt(xf)) + 3.5 / (xf * xf)
        return Interval(0.0, v * (1.0 + 2.0**-48))

    @staticmethod
    def _term_rel(hi):
        """Relative error bound of each computed gamma_vec term at i < hi.

        For i < 2**52 the argument a = pi sqrt(2i) carries three roundings
        (sqrt, np.pi, the product): |a~ - a| <= 3.01 u a < 4 ulp(a~). cos is
        1-Lipschitz and np.cos is accurate to 4 ulp in [-1, 1], so
        c~ = cos(a) + e, |e| <= 4 ulp(a~) + 4 u, as gamma_iv budgets. 2 + c~,
        i*i and the division add three relative roundings, and e / i**2 <=
        e gamma_i, so each term errs by < (5 ulp(a~) + 8 u) gamma_i. a~ is
        nondecreasing in i, so its value at hi bounds every i < hi; at
        2**23 this adds 9e-12 to the pad.
        """
        return 5.0 * np.spacing(np.pi * np.sqrt(2.0 * hi)) + 8.0 * _U

    @classmethod
    def _closed_parts(cls, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(F~, p, H_lo, H_hi) at float64 points 1 <= x < _FAR, with
        |F~ - F(x)| <= p and H_lo <= H(x) <= H_hi, as the class docstring
        derives."""
        q = 1.0 / (xs * xs)
        rt = np.sqrt(xs)
        v, r = 1.0 / rt, 1.0 / (xs * rt)
        arg = np.pi * np.sqrt(2.0 * xs)
        c, sn = np.cos(arg), np.sin(arg)
        t1 = 2.0 / xs
        kr = cls._SQRT2_PI * r
        t3 = q * ((1.0 + cls._EM_A * c) + v * (cls._EM_D * sn + ((2.0 + c) * v) / 6.0))
        f = (t1 - kr * sn) + t3
        dev = np.minimum(6.0 * np.spacing(arg) + 16.0 * _U, 3.0)  # S
        m = (1.0 + cls._EM_A) + v * (cls._EM_D + 0.5 * v)
        pad = 1.01 * ((dev + 24.0 * _U) * (kr + q * m) + 4.0 * _U * t1)
        h = q * (cls._EM_C2 + v * (cls._EM_C5 + 0.5 * v))
        return f, pad, h * (1.0 - 2.0**-48), h * (1.0 + 2.0**-48)

    def _closed_mass_arrays(self, bounds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Mass over each [bounds[j], bounds[j+1]) as F(a) - F(b) +-
        (H(a) - H(b)), for 1 <= bounds < _FAR.

        mid = F~(a) - F~(b) rounds by at most u (|F~(a)| + |F~(b)|). The
        radius adds that, p(a), p(b) and H_hi(a) - H_lo(b) >= H(a) - H(b):
        nonnegative terms whose sum rounds by less than 5 u of itself, which
        the factor 1 + 2**-48 covers. mid -+ radius rounds by half an ulp of
        each end, inside the 4-ulp widening.
        """
        f, p, h_lo, h_hi = self._closed_parts(np.asarray(bounds, dtype=np.float64))
        mid = f[:-1] - f[1:]
        cancel = _U * (np.abs(f[:-1]) + np.abs(f[1:]))
        rad = ((h_hi[:-1] - h_lo[1:]) + (p[:-1] + p[1:]) + cancel) * (1.0 + 2.0**-48)
        return widened_arrays(np.maximum(mid - rad, 0.0), mid + rad)

    def rest(self, x: int) -> Interval:
        """Enclosure of Gamma_x = sum_{i >= x} gamma_i with no summation:
        F(x) +- H(x) (b = inf in the class docstring), cut to tail_crude(x).
        F~ -+ (H_hi + p) (1 + 2**-48) rounds by half an ulp of each end,
        inside the widening. From _FAR on only the crude sandwich is left."""
        crude = self.tail_crude(x)
        if x >= self._FAR:
            return crude
        f, p, _, h_hi = (float(v[0]) for v in self._closed_parts(np.array([float(x)])))
        rad = (h_hi + p) * (1.0 + 2.0**-48)
        em = Interval.widened(f - rad, f + rad)
        return Interval(max(em.lo, crude.lo), min(em.hi, crude.hi))

    @classmethod
    def _reach(cls, h: float) -> int:
        """An index n >= 1 with H(n) <= h, or the table's reach
        min(guard, 2**52) if that comes first (h may underflow to 0 from a
        subnormal target). With n0 = max(sqrt(C2 / h), 1) <= n, H(n) <=
        n^-2 (C2 + C5 n0^(-1/2) + n0^-1 / 2), which is h at the n taken."""
        n = math.inf
        if h > 0.0:
            n0 = max(math.sqrt(cls._EM_C2 / h), 1.0)
            n = math.sqrt((cls._EM_C2 + cls._EM_C5 / math.sqrt(n0) + 0.5 / n0) / h)
        return max(int(math.ceil(min(n, float(min(guard_index(), 1 << 52))))), 1)

    def segment_mass_arrays(
        self, bounds: Sequence[int], target: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Masses over consecutive bounds. With a target, pieces below the cut
        P = _reach(target / 64) come from the block table and pieces from P
        on in closed form (_closed_mass_arrays; a piece across P is split
        there, and its two parts are added as Intervals add), so the
        closed-form pieces err by at most H(P) <= target / 64 in total.
        Without a target, or with bounds from _FAR on, every piece comes
        from the table."""
        if target is None or bounds[-1] >= self._FAR:
            return self._sums.mass_arrays(bounds)
        cut = self._reach(target / 64.0)
        j = int(np.searchsorted(bounds, cut))  # bounds[:j] < cut <= bounds[j:]
        if j == 0:
            return self._closed_mass_arrays(bounds)
        if j == len(bounds):
            return self._sums.mass_arrays(bounds)
        if bounds[j] == cut:
            near, far = self._sums.mass_arrays(bounds[: j + 1]), self._closed_mass_arrays(bounds[j:])
        else:
            near = self._sums.mass_arrays(np.concatenate((bounds[:j], [cut])))
            far = self._closed_mass_arrays(np.concatenate(([cut], bounds[j:])))
            both = Interval(near[0][-1], near[1][-1]) + Interval(far[0][0], far[1][0])
            near = (np.append(near[0][:-1], both.lo), np.append(near[1][:-1], both.hi))
            far = (far[0][1:], far[1][1:])
        return np.concatenate([near[0], far[0]]), np.concatenate([near[1], far[1]])

    def tail_batch(self, ks: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        """Gamma_k for each k: the block-table mass over [k, n) plus rest(n),
        where n = _reach(t / 16) leaves rest(n) at most t / 8 wide (t the
        target, or _DEFAULT_TARGET). An index k >= n, as every index past
        the guard is, gets rest(k) alone."""
        if not ks:
            return []
        ks = [int(k) for k in ks]
        if sorted(set(ks)) != list(ks):
            raise ValueError("tail_batch needs strictly increasing indices")
        n = self._tail_cut(target)
        summed = [k for k in ks if k < n]
        far = [self.rest(k) for k in ks[len(summed) :]]
        if not summed:
            return far
        acc = self._rest_at(n)
        head: List[Interval] = []
        lo, hi = self._sums.mass_arrays(summed + [n])
        for a, b in zip(reversed(lo.tolist()), reversed(hi.tolist())):
            acc = Interval(a, b) + acc
            head.append(acc)
        return head[::-1] + far

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        """tail_batch([k], target)[0], with the one mass from mass."""
        k, n = int(k), self._tail_cut(target)
        if k >= n:
            return self.rest(k)
        return Interval(*self._sums.mass(k, n)) + self._rest_at(n)

    def _tail_cut(self, target: Optional[float]) -> int:
        """The n of tail_batch: _reach(t / 16)."""
        return self._reach((target if target is not None else self._DEFAULT_TARGET) / 16.0)

    def _rest_at(self, n: int) -> Interval:
        """rest(n), kept for the last n: n depends on the target only, so a
        search shares it."""
        if self._last_rest[0] != n:
            self._last_rest = (n, self.rest(n))
        return self._last_rest[1]

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, _ceil_quotient(3.0, target) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "k gamma_k / Gamma_k oscillates inside [1/2, 3/2]-scale bands")


@dataclass(frozen=True)
class PatchedSegment:
    """One realized stretch of a patched discount.

    kind: 'geometric' or 'harmonic'.
    start: first index of the stretch.
    end: last index, or 0 for the final infinite stretch.
    g: geometric base (unused for harmonic).
    gamma_start: the weight at the start index (continuity anchor).
    """

    kind: str
    start: int
    end: int
    g: float
    gamma_start: float


def _harmonic_shape(k: int) -> float:
    ln = math.log(k)
    return 1.0 / (k * ln * ln)


def _seg_gamma(seg: PatchedSegment, k: int) -> float:
    """The weight that a patched stretch's formula gives at k (also past its end)."""
    if seg.kind == "geometric":
        # g**(2**1023) is 0 for every float g < 1, and the exponent stays a float
        return seg.gamma_start * seg.g ** min(k - seg.start, 1 << 1023)
    return seg.gamma_start * _harmonic_shape(k) / _harmonic_shape(seg.start)


class _Patched(_Base):
    name = "patched"
    cli_names = ("patched",)
    cli_arg = (int, "patched threshold")
    keys = ("segments",)
    note = ("harmonic-shaped segments re-anchored at geometric weights on a "
            "doubling threshold ladder")
    sums_terms = True
    target_free = False

    @staticmethod
    def make(thresholds: Sequence[int]) -> DiscountSpec:
        return build_patched(thresholds)

    @classmethod
    def to_json(cls, params: tuple) -> dict:
        return {"segments": [asdict(s) for s in params[0]]}

    @classmethod
    def from_json(cls, params: dict) -> DiscountSpec:
        segs = tuple(
            PatchedSegment(s["kind"], as_index(s["start"], "segment start"),
                           as_index(s["end"], "segment end"), float(s["g"]),
                           float(s["gamma_start"]))
            for s in params["segments"]
        )
        return DiscountSpec("patched", (segs,))

    def __init__(self, segments: Tuple[PatchedSegment, ...]) -> None:
        if not segments or segments[-1].end != 0:
            raise ValueError("patched spec needs a final infinite segment")
        self.segments = segments
        self.monotone = self._joins_descend()
        self._suffix: List[Interval] = []  # mass from segment j's start to infinity
        # one block table per harmonic stretch, keyed by its start
        self._harm = {s.start: self._harm_table(s) for s in segments if s.kind == "harmonic"}
        self._build_suffix()

    def _seg_index(self, k: int) -> int:
        lo, hi = 0, len(self.segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.segments[mid].start <= k:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def gamma(self, k: int) -> float:
        return _seg_gamma(self.segments[self._seg_index(k)], k)

    def gamma_pair(self, k: int) -> Pair:  # a weight that rounds to 0 is below 2^-1074
        lo, hi = super().gamma_pair(k)
        return (lo, hi) if hi > 0.0 else (0.0, 5e-324)

    def _joins_descend(self) -> bool:
        """Whether gamma is provably nonincreasing.

        Inside a stretch it decreases: g**(k - start) for 0 < g < 1, and the
        shape 1/(k ln^2 k) for k >= 2. So it suffices that every stretch
        starts at most at the least value the previous one can take at its
        end; that value carries a handful of roundings, well inside 32 u.
        build_patched continues each stretch by its own formula one index
        on, a drop of a relative 1 - g or about 1/end (end <= the guard),
        so its specs pass; a hand-made spec that jumps up does not.
        """
        segs = self.segments
        if any(s.kind == "geometric" and not 0.0 < s.g < 1.0 for s in segs):
            return False
        if any(s.kind == "harmonic" and s.start < 2 for s in segs):
            return False
        for prev, seg in zip(segs, segs[1:]):
            end = _rel_pad_iv(_seg_gamma(prev, prev.end), 32 * _U)
            if not seg.gamma_start <= end.lo:
                return False
        return True

    def _seg_mass(self, seg: PatchedSegment, k: int) -> Interval:
        """Mass of gamma over [k, seg.end], or [k, inf) for the final segment."""
        if seg.kind == "geometric":
            if seg.end == 0 and (k - seg.start) >> 1023:
                return Interval(0.0, 5e-324)  # g^(2^1023) is below 2^-2^969 for every float g < 1
            gk = _rel_pad_iv(_seg_gamma(seg, k), 16 * _U)
            one_minus = Interval.rounded(1.0 - seg.g) if seg.g < 0.5 else Interval.exact(1.0 - seg.g)
            if seg.end == 0:
                return gk / one_minus
            g_next = _rel_pad_iv(_seg_gamma(seg, seg.end + 1), 16 * _U)
            return (gk - g_next) / one_minus
        return Interval(*self._harm[seg.start].mass(k, seg.end + 1))

    @staticmethod
    def _harm_table(seg: PatchedSegment) -> _BlockSums:
        scale = seg.gamma_start / _harmonic_shape(seg.start)
        return _BlockSums(
            lambda idx: scale / (idx * np.log(idx) ** 2), origin=seg.start, stop=seg.end + 1
        )

    def _build_suffix(self) -> None:
        acc = self._seg_mass(self.segments[-1], self.segments[-1].start)
        self._suffix = [acc]
        for seg in reversed(self.segments[:-1]):
            acc = self._seg_mass(seg, seg.start) + acc
            self._suffix.insert(0, acc)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        j = self._seg_index(k)
        seg = self.segments[j]
        iv = self._seg_mass(seg, k)
        if seg.end != 0:
            iv = iv + self._suffix[j + 1]
        return iv if iv.lo >= 0.0 else Interval(0.0, iv.hi)  # weights that underflowed

    def index_for_tail_bound(self, target: float, start: int) -> int:
        final = self.segments[-1]
        anchor = max(start, final.start)
        # inside the final geometric stretch: mass(k) = gamma(k)/(1-g)
        need = target * (1.0 - final.g)
        gk = _seg_gamma(final, anchor)
        if gk <= need:
            return anchor
        steps = (_log_product(target, 1.0 - final.g) - math.log(gk)) / math.log(final.g) \
            if need == 0.0 else math.log(need / gk) / math.log(final.g)
        return anchor + int(math.ceil(steps)) + 2

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (False, False, "both ratios exceed every bound at realized switch excursions")


class _Custom(_Base):
    """Table weights, then an optional tail model anchored at the last one.

    monotone holds exactly when the table is nonincreasing: the floats
    are the weights themselves, and both continuations start below the
    anchor and decrease (anchor g^(k-K) with 0 < g < 1, anchor
    (k/K)^(-1-p) with p > 0). Without a tail model nothing past the table
    is defined, and V there raises as before.
    """

    name = "custom"
    keys = ("table", "tail")
    note = "finite weight table with an attached tail model"

    @classmethod
    def to_json(cls, params: tuple) -> dict:
        table, tail = params
        model = None if tail is None else {"type": tail[0], "param": tail[1]}
        return {"table": list(table), "tail": model}

    @classmethod
    def from_json(cls, params: dict) -> DiscountSpec:
        tail, table = params.get("tail"), json_list(params, "table")
        return custom(table, None if tail is None else (tail["type"], tail["param"]))

    def __init__(self, gammas: Tuple[float, ...], tail_model: Optional[Tuple]) -> None:
        self.gammas = gammas
        self.tail_model = tail_model
        self.K = len(gammas)
        table = np.fromiter(gammas, dtype=np.float64, count=self.K)
        # NaN fails the first test
        if not ((table >= 0.0).all() and np.isfinite(table).all()):
            raise ValueError("custom weights must be finite and nonnegative")
        # backward partial sums over the table: suffix[j] = sum_{i>=j} (0-based),
        # suffix[K] = 0; np.cumsum adds sequentially, from the end, in floats.
        # The float64 array itself is kept: boxed, its K + 1 floats slow
        # every garbage collection
        self._suffix = np.cumsum(np.concatenate(([0.0], table[::-1])))[::-1]
        self.monotone = bool(np.all(np.diff(table) <= 0.0))
        self._beyond = self._model_tail(self.K + 1)  # the continuation past the table

    def gamma(self, k: int) -> float:
        if k <= self.K:
            return self.gammas[k - 1]
        if self.tail_model is None:
            raise ValueError(f"index {k} beyond custom table without a tail model")
        return self._model_weight(k)[0]

    def gamma_pair(self, k: int) -> Pair:
        if k <= self.K or self.tail_model is None:
            return super().gamma_pair(k)
        g, rel = self._model_weight(k)
        return _positive_pad_pair(g, max(rel, 8 * _U))

    def _model_weight(self, k: int) -> Tuple[float, float]:
        """The tail model's weight at k > K, and a relative error bound
        beyond the pads that gamma_iv and _model_tail give it (0 where
        k / K has a float). A geometric weight is 0 past 2^1023 steps
        (p^(2^1023) rounds to 0 for every float p < 1); a power weight
        past the float range of k / K is _ratio_pow's, through logs."""
        kind, p = self.tail_model
        anchor = self.gammas[-1]
        if kind == "geometric":
            return anchor * p ** min(k - self.K, 1 << 1023), 0.0
        try:
            return anchor * (k / self.K) ** (-1.0 - p), 0.0
        except OverflowError:
            return self._ratio_pow(k, -1.0 - p, anchor)

    def _ratio_pow(self, k: int, expo: float, scale: float = 1.0) -> Pair:
        """scale (k / K)^expo for k / K past the float range, scale > 0, and
        its relative error bound: one exp of a sum of logs, each log good to
        an ulp as in _pow_parts, so that only the exp's rounding can
        underflow."""
        logs = math.log(scale), math.log(k), math.log(self.K)
        x = logs[0] + expo * (logs[1] - logs[2])
        return math.exp(x), _U * (8.0 + 4.0 * (abs(logs[0]) + abs(expo) * (logs[1] + logs[2])))

    def _model_tail(self, k: int) -> Interval:
        """Enclosure of the continuation mass from max(k, K+1) onward."""
        if self.tail_model is None:
            return Interval.exact(0.0)
        kind, p = self.tail_model
        start = max(k, self.K + 1)
        g, rel = self._model_weight(start)
        gk_iv = _rel_pad_iv(g, max(rel, 16 * _U))
        if kind == "geometric":
            if (start - self.K) >> 1023:
                return Interval(0.0, 5e-324)  # p^(2^1023) is below 2^-2^969 for every float p < 1
            one_minus = Interval.rounded(1.0 - p) if p < 0.5 else Interval.exact(1.0 - p)
            iv = gk_iv / one_minus
            return iv if iv.lo >= 0.0 else Interval(0.0, iv.hi)  # a weight that underflowed
        # power continuation anchored at the table edge:
        # sum_{i>=s} A (i/K)^(-1-p) sandwiched by the integral
        # A K/p (s/K)^(-p) from below and that plus gamma_s from above.
        anchor_iv = _rel_pad_iv(self.gammas[-1], 8 * _U)
        try:
            ratio = _pow_iv(start / self.K, -p)
        except OverflowError:  # start / K past the float range
            ratio = _rel_pad_iv(*self._ratio_pow(start, -p))
        integral = anchor_iv * ratio * Interval.rounded(self.K / p)
        hi = (integral + gk_iv).hi
        return Interval(max(integral.lo, 0.0), hi)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        if k <= self.K:
            part = float(self._suffix[k - 1])
            pad = _U * (self.K - k + 2) * abs(part) + 5e-324
            table_part = Interval(part - pad, part + pad)
            return table_part + self._beyond
        if self.tail_model is None:
            raise ValueError(f"index {k} beyond custom table without a tail model")
        return self._model_tail(k)

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        if self.tail_model is None:
            return max(start, self.K + 1)
        return None


_FAMILIES = {
    cls.name: cls
    for cls in (_Finite, _Geometric, _Quadratic, _Power, _HarmonicLike, _StepLog,
                _AlternatingZero, _CosineModulated, _Patched, _Custom)
}

# the discount mini-language (cli module docstring), as cli._parse_spec reads it
CLI_FORMS = tuple((c.cli_names, c.make, c.cli_arg or (str if c.keys else None))
                  for c in _FAMILIES.values() if c.cli_names)


@lru_cache(maxsize=256)
def _build(spec: DiscountSpec) -> _Base:
    """The family object of an unscaled spec: its class, called with its params."""
    if spec.scale != 1.0:
        raise AssertionError("implementations are cached for unscaled specs only")
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown discount family {spec.family!r}")
    return _FAMILIES[spec.family](*spec.params)


def _impl(spec: DiscountSpec) -> _Base:
    """The family object of a spec; a scaled spec shares its unscaled twin's."""
    return spec._family


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _check_target(target: Optional[float]) -> None:
    """A resolution target is None or a positive finite float."""
    if target is not None and not 0.0 < target < math.inf:
        raise ValueError(f"target must be positive and finite, got {target!r}")


def gamma(spec: DiscountSpec, k: int) -> float:
    """The weight gamma_k, exact per family formula (then scaled)."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    g = _impl(spec).gamma(k)
    return g if spec.scale == 1.0 else g * spec.scale


def gamma_iv(spec: DiscountSpec, k: int) -> Interval:
    """Enclosure of gamma_k (scaled)."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    iv = _impl(spec).gamma_iv(k)
    return iv if spec.scale == 1.0 else iv * spec.scale


def gamma_arrays(spec: DiscountSpec, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """lo and hi float64 arrays whose element j is gamma_iv(spec, ks[j]),
    bit for bit, for increasing indices ks >= 1: one batch call where the
    family has one (quadratic, power, harmonic-like)."""
    if ks and ks[0] < 1:
        raise ValueError("index k must be >= 1")
    lo, hi = _impl(spec).gamma_arrays(ks)
    if spec.scale != 1.0:  # Interval * scale > 0 takes lo * scale and hi * scale
        with np.errstate(over="ignore"):
            lo, hi = widened_arrays(lo * spec.scale, hi * spec.scale)
    return lo, hi


def gamma_tail(spec: DiscountSpec, k: int, target: Optional[float] = None) -> Interval:
    """Enclosure of Gamma_k = sum_{i >= k} gamma_i (scaled).

    target, when given, asks for an absolute tail-resolution hint; it must
    be positive and finite (ValueError otherwise, as in gamma_tail_batch
    and segment_masses), and families with closed forms ignore it.
    Numerically summed families answer from their block table (module
    docstring). Cosine sums only up to an index n of order
    (target)^(-2/3), where its closed-form rest is sharp enough, and
    answers an index past n or past the guard from that rest.
    """
    if k < 1:
        raise ValueError("index k must be >= 1")
    _check_target(target)
    impl = _impl(spec)
    iv = impl.default_tail(k) if target is None else impl.tail(k, target)
    return iv if spec.scale == 1.0 else iv * spec.scale


def gamma_tail_batch(
    spec: DiscountSpec, ks: Sequence[int], target: Optional[float] = None
) -> List[Interval]:
    """Enclosures of Gamma at several increasing indices in one pass."""
    _check_target(target)
    out = _impl(spec).tail_batch(list(ks), target)
    if spec.scale != 1.0:
        out = [iv * spec.scale for iv in out]
    return out


def segment_masses(
    spec: DiscountSpec,
    bounds: Sequence[int],
    target: Optional[float] = None,
    *,
    arrays: bool = False,
    picks: Optional[Iterable[np.ndarray]] = None,
):
    """Enclosures of the gamma mass over [bounds[j], bounds[j+1]) for each j.

    bounds is a sequence of ints or one integer array of int64 or object
    dtype (Python ints, past int64; _guards.index_dtype picks it), which
    the families take as it is: numpy expressions serve both dtypes, and
    per-element scalar code reads Python ints off it through .tolist()
    or _int_list, never np.int64 scalars, whose products (k (k + 1))
    overflow silently. A list is made such an array first.

    Every family answers with lo and hi float64 arrays
    (_Base.segment_mass_arrays), and this is the one place that turns
    them into Intervals; arrays=True returns the two arrays instead, as
    V's runs path sums them unboxed (value._runs_values). A scale
    multiplies both ends as Interval * scale does, bit for bit.

    picks, increasing index arrays into bounds, each of length >= 2, ask
    instead for the masses over the gaps of each bounds[pick], one
    result per pick, made as it is read: the ends (mass_ends) are taken
    once over bounds and gathered per pick, which gives the bits of
    segment_masses(spec, bounds[pick]). Only a target_free family shares
    its ends so.

    Cosine sums these directly from its block table (module docstring),
    so no truncation term is shared and differences stay sharp; with a
    target, pieces far from the first bound come in closed form, whose
    errors add up to at most target / 16. Power and harmonic-like take
    their integral sandwich, and the other families tail differences.
    """
    if not isinstance(bounds, np.ndarray):
        bounds = index_array(bounds)
    if bounds.size < 2 or not (np.diff(bounds) > 0).all():
        raise ValueError("bounds must be strictly increasing, length >= 2")
    _check_target(target)
    impl = _impl(spec)
    if picks is None:
        return _boxed_masses(spec, impl.segment_mass_arrays(bounds, target), arrays)
    if not impl.target_free:
        raise ValueError(f"{spec.family} masses cannot share their ends between picks")
    ends = impl.mass_ends(bounds, target)
    return (_boxed_masses(spec, impl.gap_masses(tuple(e[p] for e in ends)), arrays)
            for p in picks)


def _boxed_masses(spec: DiscountSpec, masses: Tuple[np.ndarray, np.ndarray], arrays: bool):
    """segment_masses' answer from the lo and hi arrays of a family."""
    lo, hi = masses
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("interval endpoints must not be NaN")
    if spec.scale != 1.0:
        # the ends are >= 0 and the scale positive and finite: the product
        # of Interval * scale takes lo * scale and hi * scale
        with np.errstate(over="ignore"):
            lo, hi = widened_arrays(lo * spec.scale, hi * spec.scale)
    if arrays:
        return lo, hi
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def effective_horizon(spec: DiscountSpec, k: int) -> IntegerInterval:
    """Smallest h >= 0 with Gamma_{k+h} <= Gamma_k / 2, as an integer
    interval [first possibly satisfied, first certainly satisfied]."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    return _impl(spec).effective_horizon(k)


def quasi_horizon(spec: DiscountSpec, k: int) -> Interval:
    """Enclosure of Gamma_k / gamma_k."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    return _impl(spec).quasi_horizon(k)


def horizon_ratio(spec: DiscountSpec, k: int) -> Interval:
    """Enclosure of k gamma_k / Gamma_k."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    return _impl(spec).horizon_ratio(k)


@dataclass(frozen=True)
class MonotoneScan:
    monotone: bool
    first_violation: Optional[int]  # least k with gamma_{k+1} > gamma_k


def check_monotone(spec: DiscountSpec, k_max: int) -> MonotoneScan:
    """Scan gamma_{k+1} <= gamma_k for 1 <= k < k_max."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    impl = _impl(spec)
    chunk = 1 << 16
    prev = impl.gamma(1)
    k = 1
    while k < k_max:
        end = min(k + chunk, k_max)
        vec = impl.gamma_vec(np.arange(k + 1, end + 1, dtype=np.int64))
        if vec is None:
            for j in range(k + 1, end + 1):
                cur = impl.gamma(j)
                if cur > prev:
                    return MonotoneScan(False, j - 1)
                prev = cur
        else:
            values = np.concatenate(([prev], vec))
            bad = np.nonzero(np.diff(values) > 0)[0]
            if bad.size:
                return MonotoneScan(False, k + int(bad[0]))
            prev = float(vec[-1])
        k = end
    return MonotoneScan(True, None)


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Suprema and trends of the two premise ratios over a grid.

    ratio_up   = k gamma_k / Gamma_k   (bounded <=> linear-or-faster horizon)
    ratio_down = Gamma_k / (k gamma_k) (bounded <=> linear-or-slower horizon)
    """

    sup_ratio_up: float
    sup_ratio_down: float
    label_up: str  # bounded | diverging | oscillating
    label_down: str
    analytic: bool  # labels from family knowledge rather than the grid
    grid: Tuple[int, ...]


def _trend_label(ks: List[int], vs: List[float]) -> str:
    if len(vs) < 4:
        return "bounded" if vs and max(vs) < 4 * min(vs) + 1e-12 else "oscillating"
    logs = [math.log(max(v, 1e-308)) for v in vs]
    lks = [math.log(k) for k in ks]
    n = len(vs)
    mx = sum(lks) / n
    my = sum(logs) / n
    sxx = sum((x - mx) ** 2 for x in lks)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lks, logs))
    slope = sxy / sxx if sxx > 0 else 0.0
    resid = [y - (my + slope * (x - mx)) for x, y in zip(lks, logs)]
    spread = max(resid) - min(resid)
    if slope > 0.15:
        return "diverging"
    if abs(slope) <= 0.15 and spread < 1.5:
        return "bounded"
    return "oscillating"


def growth_diagnostic(spec: DiscountSpec, k_grid: Sequence[int]) -> GrowthDiagnostic:
    grid = tuple(int(k) for k in k_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be nonempty and strictly increasing")
    impl = _impl(spec)
    ups: List[float] = []
    downs: List[float] = []
    ks_ok: List[int] = []
    for k in grid:
        try:
            r = horizon_ratio(spec.unscaled(), k)
            q = quasi_horizon(spec.unscaled(), k)
        except UndefinedMetric:
            continue
        ups.append(r.hi)
        downs.append(q.hi / k)
        ks_ok.append(k)
    sup_up = max(ups) if ups else 0.0
    sup_down = max(downs) if downs else 0.0
    verdicts = impl.premise_verdicts()
    if verdicts is not None:
        up_bounded, down_bounded, _note = verdicts
        label_up = "bounded" if up_bounded else "diverging"
        label_down = "bounded" if down_bounded else "diverging"
        return GrowthDiagnostic(sup_up, sup_down, label_up, label_down, True, grid)
    return GrowthDiagnostic(
        sup_up,
        sup_down,
        _trend_label(ks_ok, ups),
        _trend_label(ks_ok, downs),
        False,
        grid,
    )


# ---------------------------------------------------------------------------
# Patched construction
# ---------------------------------------------------------------------------


def build_patched(thresholds: Sequence[int], g: float = 0.5) -> DiscountSpec:
    """Monotone discount whose quasi-horizon ratio oscillates across the
    given thresholds.

    For each threshold n the sequence runs geometric until its tail model
    puts Gamma_k/(k gamma_k) below 1/(8n), holding the stretch long enough
    that the geometric mass actually dominates the following harmonic
    head (this realizes the k gamma_k / Gamma_k excursion above n), then
    runs on the 1/(k ln^2 k) shape until ln k >= 4n + 2 (the realized
    Gamma_k/(k gamma_k) maximum inside a harmonic stretch followed by a
    light tail is about ln(end)/4, so this realizes the excursion above
    n). A final infinite geometric stretch closes the spec with an
    analytic tail. Weights are continued across switches by value
    matching, which keeps the whole sequence nonincreasing.
    """
    if not (0.0 < g < 1.0):
        raise ValueError("geometric base must satisfy 0 < g < 1")
    thresholds = [int(n) for n in thresholds]
    if any(n < 1 for n in thresholds):
        raise ValueError("thresholds must be positive")
    guard = guard_index()
    segments: List[PatchedSegment] = []
    start = 1
    gamma_at_start = 1.0

    for n in thresholds:
        # geometric stretch: provisional tail ratio Gamma/(k gamma) = 1/(k(1-g))
        t = max(start, int(math.ceil(8 * n / (1.0 - g))) + 1)
        while True:
            # stretch must outlast the point where the harmonic head would
            # dominate: extra length ~ log_{1/g}(8 (t+1) ln^2(t+1) / (1-g))
            need = math.log(8.0 * (t + 1) * math.log(t + 1) ** 2 / (1.0 - g)) / math.log(1.0 / g)
            t_new = max(t, start + int(math.ceil(need)) + 2)
            if t_new == t:
                break
            t = t_new
        if t > guard:
            raise GuardExceeded("patched switch search exceeded guard")
        seg = PatchedSegment("geometric", start, t, g, gamma_at_start)
        segments.append(seg)
        start = t + 1
        gamma_at_start = _seg_gamma(seg, start)
        # harmonic stretch long enough that ln k (1 - ln k / ln T) reaches
        # n + 1/2 somewhere in [start, T]; the unconstrained peak sits at
        # ln k = ln T / 2, but a late start pins the peak to ln k = ln start
        ln_t = 4.0 * n + 2.0
        ln_s = math.log(start)
        if ln_s > 0.5 * ln_t:
            if ln_s <= n + 1.0:
                raise GuardExceeded("thresholds too dense to realize excursions")
            ln_t = max(ln_t, ln_s * ln_s / (ln_s - n - 0.5))
        if ln_t > math.log(guard):
            raise GuardExceeded("patched switch search exceeded guard")
        t = max(start, int(math.ceil(math.exp(ln_t))) + 1)
        seg = PatchedSegment("harmonic", start, t, 0.0, gamma_at_start)
        segments.append(seg)
        start = t + 1
        gamma_at_start = _seg_gamma(seg, start)
    segments.append(PatchedSegment("geometric", start, 0, g, gamma_at_start))
    return DiscountSpec("patched", (tuple(segments),))


def patched_witnesses(spec: DiscountSpec) -> Tuple[List[int], List[int]]:
    """Indices where a patched spec realizes its ratio excursions.

    Returns (up, down): one index per non-final geometric stretch where
    k gamma_k / Gamma_k peaks (far enough from the switch that the local
    geometric mass still dominates), and one per harmonic stretch where
    Gamma_k / (k gamma_k) peaks.
    """
    if spec.family != "patched":
        raise ValueError("witnesses are defined for patched specs only")
    up: List[int] = []
    down: List[int] = []
    for seg in spec.params[0]:
        if seg.kind == "geometric" and seg.end != 0:
            t = seg.end
            need = math.log(8.0 * (t + 1) * math.log(t + 1) ** 2 / (1.0 - seg.g))
            need /= math.log(1.0 / seg.g)
            up.append(max(seg.start, t - int(math.ceil(need))))
        elif seg.kind == "harmonic":
            peak = int(math.ceil(math.exp(0.5 * math.log(seg.end))))
            down.append(min(max(peak, seg.start), seg.end))
    return up, down


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def spec_to_dict(spec: DiscountSpec) -> dict:
    """The JSON form of a spec: family, params under the family's keys, scale."""
    params = _FAMILIES[spec.family].to_json(spec.params)
    return {"family": spec.family, "params": params, "scale": spec.scale}


def spec_from_dict(d: dict) -> DiscountSpec:
    """The spec of spec_to_dict's form, refusing a param the family does not
    take; params, a custom tail and scale may be left out where not needed."""
    fam = d["family"]
    params = d.get("params") or {}
    scale = float(d.get("scale", 1.0))
    if fam not in _FAMILIES:
        raise ValueError(f"unknown discount family {fam!r}")
    cls = _FAMILIES[fam]
    stray = next((key for key in params if key not in cls.keys), None)
    if stray is not None:
        raise ValueError(f"discount family {fam!r} takes no parameter {stray!r}")
    spec = cls.from_json(params)
    return spec.with_scale(scale) if scale != 1.0 else spec


def is_monotone_family(spec: DiscountSpec) -> bool:
    """Documented monotonicity flag (scan-verifiable for the monotone ones)."""
    return _impl(spec).monotone


def asymptotic_note(spec: DiscountSpec) -> str:
    """The family's asymptotic note, which `table` prints under its rows."""
    fam = _impl(spec)
    return fam.note.format(**vars(fam))


def premise_note(spec: DiscountSpec) -> Optional[Tuple[bool, bool, str]]:
    """Analytic boundedness verdicts for the two premise ratios, if known."""
    return _impl(spec).premise_verdicts()


def index_for_tail_bound(spec: DiscountSpec, target: float, start: int) -> Optional[int]:
    """Cheap certified index N >= start with Gamma_N <= target, if the
    family can produce one analytically (unscaled)."""
    return _impl(spec).index_for_tail_bound(target, start)
