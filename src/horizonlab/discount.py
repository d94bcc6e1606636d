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

Families without a closed-form tail (cosine_modulated, alternating_zero,
the harmonic stretches of patched) answer every tail and segment query
from one lazily grown table of block sums (_BlockSums): a float sum and
an error pad per block of S = 512 indices, built only as far as the
largest index N queried. Memory is 2N/S floats plus one chunk of 2**16
terms while the table grows; a query costs O(S + N/S), not O(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._guards import GuardExceeded, guard_index
from .intervals import Interval, IntegerInterval

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
    if m < 1:
        raise ValueError("finite horizon m must be >= 1")
    return DiscountSpec("finite", (int(m),))


def geometric(g: float) -> DiscountSpec:
    """gamma_k = g**k with 0 < g < 1. g = 0 is rejected: the total mass
    would be zero and every normalized quantity undefined."""
    if not (0.0 < g < 1.0):
        raise ValueError("geometric parameter must satisfy 0 < g < 1")
    return DiscountSpec("geometric", (float(g),))


def quadratic() -> DiscountSpec:
    """gamma_k = 1 / (k (k+1)), Gamma_k = 1/k."""
    return DiscountSpec("quadratic")


def power(eps: float) -> DiscountSpec:
    """gamma_k = k**(-1-eps) with eps > 0."""
    if not (eps > 0.0) or math.isinf(eps):
        raise ValueError("power parameter eps must be > 0")
    return DiscountSpec("power", (float(eps),))


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
    the table raise.
    """
    gammas = tuple(float(g) for g in table)
    if not gammas:
        raise ValueError("custom table must be nonempty")
    if any(g < 0 or math.isnan(g) or math.isinf(g) for g in gammas):
        raise ValueError("custom weights must be finite and nonnegative")
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


def _rel_pad_iv(value: float, rel: float) -> Interval:
    """Interval value * (1 +/- rel), outward rounded."""
    pad = abs(value) * rel + 5e-324
    return Interval.widened(value - pad, value + pad)


def _pow_iv(base: float, expo: float) -> Interval:
    """Enclosure of base**expo for base > 0.

    pow is assumed faithful to 1 ulp; the exponent itself may carry one
    rounding whose effect scales with |ln base|, hence the log factor.
    """
    y = base**expo
    rel = _U * (8.0 + 2.0 * abs(math.log(base)))
    return _rel_pad_iv(y, rel)


def _log_iv(x) -> Interval:
    """Enclosure of ln x for x > 1 (accepts arbitrarily large ints)."""
    y = math.log(x)
    return Interval.widened(y, y)


class _Base:
    """One discount family. Capabilities are per-class constants:

    mass_form: how V's runs path gets the mass of a reward's 1-runs.
        "tails" (default): segment_masses as tail differences.
        "blocks": segment_masses summed directly, plus tail_crude(k), an
            analytic sandwich of Gamma_k.
        "ratios": tail_ratio(j, k) = Gamma_j / Gamma_k and one_minus_g.
        None: no runs path; V is summed densely.
    sums_terms: False (default) when tails cost O(polylog k), so truncation
        indices may pass the work guard; True when tails sum terms.
    """

    name = "?"
    monotone = True
    mass_form: Optional[str] = "tails"
    sums_terms = False

    def gamma(self, k: int) -> float:
        raise NotImplementedError

    def gamma_iv(self, k: int) -> Interval:
        g = self.gamma(k)
        if g == 0.0:
            return Interval.exact(0.0)
        return _rel_pad_iv(g, 8 * _U)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        raise NotImplementedError

    def tail_batch(self, ks: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        return [self.tail(k, target) for k in ks]

    def gamma_vec(self, ks: np.ndarray) -> Optional[np.ndarray]:
        return None

    def segment_masses(self, bounds: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        """Mass over each [bounds[j], bounds[j+1]): tail differences, clamped at 0."""
        tails = self.tail_batch(bounds, target)
        diffs = [a - b for a, b in zip(tails, tails[1:])]
        return [Interval(max(d.lo, 0.0), max(d.hi, 0.0)) for d in diffs]

    # Analytic horizon overrides; None means use the generic search.
    def effective_horizon_exact(self, k: int) -> Optional[IntegerInterval]:
        return None

    def quasi_horizon_exact(self, k: int) -> Optional[Interval]:
        return None

    def horizon_ratio_exact(self, k: int) -> Optional[Interval]:
        return None

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        """Some index N >= start with tail(N).hi <= target, if cheaply
        computable; the caller refines toward the minimal one."""
        return None

    # (thm2_bounded, thm3_bounded, note); None means grid heuristics only.
    def premise_verdicts(self) -> Optional[Tuple[bool, bool, str]]:
        return None


class _Finite(_Base):
    name = "finite"

    def __init__(self, m: int) -> None:
        self.m = m

    def gamma(self, k: int) -> float:
        return 1.0 if k <= self.m else 0.0

    def gamma_iv(self, k: int) -> Interval:
        return Interval.exact(self.gamma(k))

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return Interval.exact(float(max(self.m - k + 1, 0)))

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        return (ks <= self.m).astype(np.float64)

    def effective_horizon_exact(self, k: int) -> IntegerInterval:
        t = self.m - k + 1
        if t <= 0:
            raise UndefinedMetric(f"tail is zero at k={k}")
        h = (t + 1) // 2
        return IntegerInterval(h, h)

    def quasi_horizon_exact(self, k: int) -> Interval:
        if k > self.m:
            raise UndefinedMetric(f"gamma is zero at k={k}")
        return Interval.exact(float(self.m - k + 1))

    def horizon_ratio_exact(self, k: int) -> Interval:
        if k > self.m:
            raise UndefinedMetric(f"tail is zero at k={k}")
        return Interval.rounded(k / (self.m - k + 1))

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, self.m + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "finite support; ratios bounded on it, undefined beyond")


class _Geometric(_Base):
    name = "geometric"
    mass_form = "ratios"

    def __init__(self, g: float) -> None:
        self.g = g
        mant, expo = math.frexp(g)
        # g an exact power of two: all weights and tails are exact dyadics
        self.dyadic_exp = expo - 1 if mant == 0.5 else None
        if g >= 0.5 or self.dyadic_exp is not None:
            self.one_minus_g = Interval.exact(1.0 - g)  # exact by Sterbenz or dyadic
        else:
            self.one_minus_g = Interval.rounded(1.0 - g)

    def gamma(self, k: int) -> float:
        if self.dyadic_exp is not None:
            if self.dyadic_exp * k < -1100:
                return 0.0
            return math.ldexp(1.0, self.dyadic_exp * k)
        try:
            return self.g**k
        except OverflowError:
            return 0.0

    def gamma_iv(self, k: int) -> Interval:
        if self.dyadic_exp is not None:
            return Interval.exact(self.gamma(k))
        y = self.gamma(k)
        return _rel_pad_iv(y, _U * (8.0 + 2.0 * k * _U / max(1.0 - self.g, _U)))

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        if self.g == 0.5:
            return Interval.exact(self.gamma(k) * 2.0)  # exact dyadic scaling
        return self.gamma_iv(k) / self.one_minus_g

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        return self.g ** ks.astype(np.float64)

    def effective_horizon_exact(self, k: int) -> IntegerInterval:
        # Gamma_{k+h} / Gamma_k = g**h; smallest integer h with g**h <= 1/2.
        if self.dyadic_exp is not None:
            return IntegerInterval(1, 1)  # g <= 1/2, and g**0 = 1 > 1/2
        approx = math.log(2.0) / -math.log(self.g)
        h = max(int(math.floor(approx)) - 1, 0)
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

    def quasi_horizon_exact(self, k: int) -> Interval:
        if self.g == 0.5:
            return Interval.exact(2.0)
        return Interval.exact(1.0) / self.one_minus_g

    def horizon_ratio_exact(self, k: int) -> Interval:
        if self.g == 0.5:
            return Interval.exact(math.ldexp(float(k), -1))  # k/2 exact
        return Interval.exact(float(k)) * self.one_minus_g

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # smallest-ish N with g**N / (1-g) <= target
        if target <= 0:
            raise ValueError("target must be positive")
        n = math.log(target * (1.0 - self.g)) / math.log(self.g)
        return max(start, int(math.ceil(n)) + 2)

    def tail_ratio(self, j: int, k: int) -> Interval:
        """Gamma_j / Gamma_k = g**(j-k), immune to the underflow that
        kills the absolute weights at large indices."""
        d = j - k
        if d < 0:
            raise ValueError("need j >= k")
        if self.dyadic_exp is not None:
            e = self.dyadic_exp * d
            if e < -1074:
                return Interval(0.0, 5e-324)  # positive but below subnormals
            return Interval.exact(math.ldexp(1.0, e))
        if d == 0:
            return Interval.exact(1.0)
        r = _pow_iv(self.g, float(d))
        return r if r.lo > 0.0 else Interval(0.0, max(r.hi, 5e-324))

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (False, True, "k gamma_k / Gamma_k = (1-g) k diverges; reciprocal tends to 0")


class _Quadratic(_Base):
    name = "quadratic"

    def gamma(self, k: int) -> float:
        return 1.0 / (k * (k + 1))

    def gamma_iv(self, k: int) -> Interval:
        return _rel_pad_iv(self.gamma(k), 4 * _U)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return Interval.rounded(1.0 / k)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        kf = ks.astype(np.float64)
        return 1.0 / (kf * (kf + 1.0))

    def effective_horizon_exact(self, k: int) -> IntegerInterval:
        # 1/(k+h) <= 1/(2k) iff h >= k: exact in integers.
        return IntegerInterval(k, k)

    def quasi_horizon_exact(self, k: int) -> Interval:
        return Interval.exact(float(k + 1))

    def horizon_ratio_exact(self, k: int) -> Interval:
        return Interval.rounded(k / (k + 1))

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, int(math.ceil(1.0 / target)) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "k gamma_k / Gamma_k = k/(k+1) in (1/2, 1); reciprocal in (1, 2)")


class _Power(_Base):
    name = "power"

    def __init__(self, eps: float) -> None:
        self.eps = eps

    def gamma(self, k: int) -> float:
        return float(k) ** (-1.0 - self.eps)

    def gamma_iv(self, k: int) -> Interval:
        return _pow_iv(float(k), -1.0 - self.eps)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        # integral sandwich: int_k^inf x^(-1-eps) dx <= Gamma_k <= gamma_k + integral
        integral = _pow_iv(float(k), -self.eps) / Interval.exact(self.eps)
        hi = (self.gamma_iv(k) + integral).hi
        return Interval(integral.lo, hi)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        return ks.astype(np.float64) ** (-1.0 - self.eps)

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # (N^-eps)/eps * (1 + eps/N) <= target; solve in logs with slack
        ln_n = (math.log(1.0 / (target * self.eps)) / self.eps) + 1.0
        if ln_n > 700:
            return max(start, guard_index() + 1)
        return max(start, int(math.ceil(math.exp(ln_n))) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "k gamma_k / Gamma_k tends to eps; both ratios bounded")


class _HarmonicLike(_Base):
    name = "harmonic_like"

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

    def gamma_iv(self, k: int) -> Interval:
        g = self.gamma(k)
        if g == 0.0:
            return Interval(0.0, 5e-324)
        return _rel_pad_iv(g, _U * (8.0 + 2.0 * math.log(math.log(max(k, 3)))))

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        # integral sandwich for the decreasing integrand 1/(x ln^2 x):
        # 1/ln k <= Gamma_k <= gamma_k + 1/ln k    (k >= 2)
        if k == 1:
            return self.gamma_iv(1) + self.tail(2)
        inv_ln = Interval.exact(1.0) / _log_iv(k)
        hi = (self.gamma_iv(k) + inv_ln).hi
        return Interval(inv_ln.lo, hi)

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
        bits = min(int(math.ceil((1.0 / target) / math.log(2.0))) + 2, 8192)
        n = 1 << bits
        return max(start, n)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, False, "k gamma_k / Gamma_k ~ 1/ln k tends to 0; reciprocal diverges")


class _StepLog(_Base):
    name = "step_log"

    @staticmethod
    def _block(k: int) -> int:
        return (k - 1).bit_length()

    def gamma(self, k: int) -> float:
        n = self._block(k)
        if 2 * n > 1100:
            return 0.0
        return math.ldexp(1.0, -2 * n)

    def gamma_iv(self, k: int) -> Interval:
        g = self.gamma(k)
        if g == 0.0:
            return Interval(0.0, 5e-324)
        return Interval.exact(g)

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
        y = math.ldexp(float(num), -shift) if shift < 1000 else 0.0
        if y == 0.0:
            return Interval(0.0, 5e-324)
        return Interval.rounded(y)

    def effective_horizon_exact(self, k: int) -> IntegerInterval:
        # exact integer bisection: Gamma(k+h) <= Gamma(k)/2 compared via
        # cross-multiplied scaled integers
        num_k, sh_k = self.tail_scaled(k)

        def satisfied(h: int) -> bool:
            num_h, sh_h = self.tail_scaled(k + h)
            # num_h / 2**sh_h <= num_k / 2**(sh_k + 1)
            return num_h * (1 << (sh_k + 1)) <= num_k * (1 << sh_h)

        hi = 1
        while not satisfied(hi):
            hi *= 2
            if hi > guard_index():
                raise GuardExceeded("effective horizon search exceeded guard")
        lo = hi // 2 if hi > 1 else 0
        while lo < hi:
            mid = (lo + hi) // 2
            if satisfied(mid):
                hi = mid
            else:
                lo = mid + 1
        return IntegerInterval(lo, lo)

    def quasi_horizon_exact(self, k: int) -> Interval:
        num, _ = self.tail_scaled(k)
        # Gamma_k / gamma_k = num / 2: dyadic, exact for num < 2**54
        if num.bit_length() <= 54:
            return Interval.exact(num / 2)
        return Interval.rounded(num / 2)

    def horizon_ratio_exact(self, k: int) -> Interval:
        num, _ = self.tail_scaled(k)
        return Interval.rounded(2 * k / num)

    def index_for_tail_bound(self, target: float, start: int) -> int:
        # Gamma at the start of block n is 2**(-n): pick n with 2**-n <= target
        n = max(0, int(math.ceil(-math.log2(target))) + 1)
        return max(start, (1 << n) + 1)

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (True, True, "both ratios oscillate inside [1/2, 2]-scale bands")


class _BlockSums:
    """Checkpointed block sums of a nonnegative weight sequence w_i, i >= origin.

    terms(idx) evaluates w at a float array of indices. The table keeps a
    float sum and an error pad per block of SIZE indices from origin (whole
    blocks below stop, if given), grown in chunks of CHUNK indices only as
    far as the last whole block a query covers. A mass over [a, b) is one
    math.fsum of the whole blocks inside and of the partial blocks at both
    ends, summed fresh; no prefix sums are subtracted. Results are a pure
    function of (a, b): chunks start at origin + j * CHUNK, and
    np.add.reduceat sums each piece by itself.

    A piece of n terms with float sum s gets the pad
    (u (260 + 2 log2 n) + term_rel(hi)) s. numpy's pairwise summation
    (reduceat adds the first term to a pairwise sum of the rest) errs by
    less than u (21 + log2 n) s; the rest covers per-term rounding of up
    to 200 ulps, far more than rational and logarithmic weights incur.
    term_rel(hi) adds a family's larger per-term bound for indices < hi.
    """

    SIZE = 1 << 9
    CHUNK = 1 << 16

    def __init__(self, terms, term_rel=None, origin: int = 1, stop: Optional[int] = None) -> None:
        self._terms, self._term_rel, self._origin = terms, term_rel, origin
        self._max_blocks = math.inf if stop is None else (stop - origin) // self.SIZE
        self._sums: List[float] = []
        self._pads: List[float] = []

    def _pads_of(self, sums: np.ndarray, n, hi) -> np.ndarray:
        rel = _U * (260.0 + 2.0 * np.log2(np.maximum(n, 2)))
        return (rel if self._term_rel is None else rel + self._term_rel(hi)) * sums

    def _grow(self, blocks: int) -> None:
        size = self.SIZE
        while len(self._sums) < blocks:
            n = min(self.CHUNK // size, self._max_blocks - len(self._sums))
            lo = self._origin + len(self._sums) * size
            sums = self._terms(np.arange(lo, lo + n * size, dtype=np.float64))
            sums = sums.reshape(n, size).sum(axis=1)
            ends = lo + size * np.arange(1, n + 1, dtype=np.float64)
            self._pads.extend(self._pads_of(sums, size, ends).tolist())
            self._sums.extend(sums.tolist())

    def masses(self, bounds: Sequence[int]) -> List[Interval]:
        """Enclosures of sum_{a <= i < b} w_i for consecutive bounds a, b."""
        size, o = self.SIZE, self._origin
        a, b = np.array(bounds[:-1], dtype=np.int64), np.array(bounds[1:], dtype=np.int64)
        first, last = -((o - a) // size), (b - o) // size  # whole blocks in [a, b)
        whole = first < last
        first, last = first * whole, last * whole
        self._grow(int(last.max()))
        # pieces [a, first block) and [past last block, b), or [a, b) and []
        lo = np.concatenate([a, np.where(whole, o + last * size, b)])
        hi = np.concatenate([np.where(whole, o + first * size, b), b])
        n, sums = hi - lo, np.zeros(2 * a.size)
        live, step = np.flatnonzero(n), self.CHUNK // (2 * size)
        for sel in (live[g : g + step] for g in range(0, live.size, step)):
            starts = np.cumsum(n[sel]) - n[sel]
            idx = np.arange(starts[-1] + n[sel[-1]]) + np.repeat(lo[sel] - starts, n[sel])
            sums[sel] = np.add.reduceat(self._terms(idx.astype(np.float64)), starts)
        pads, sums, m = self._pads_of(sums, n, hi).tolist(), sums.tolist(), a.size
        out = []
        for j, (f, e) in enumerate(zip(first.tolist(), last.tolist())):
            total = math.fsum(self._sums[f:e] + [sums[j], sums[m + j]])
            pad = math.fsum(self._pads[f:e] + [pads[j], pads[m + j]])
            out.append(Interval.widened(max(total - pad, 0.0), total + pad))
        return out


class _AlternatingZero(_Base):
    name = "alternating_zero"
    monotone = False
    mass_form = None
    sums_terms = True

    def __init__(self, base: DiscountSpec) -> None:
        self.base = _impl(base)
        self._evens = _BlockSums(self._even_terms)  # w_j = base gamma at 2j

    def gamma(self, k: int) -> float:
        return 0.0 if k % 2 == 1 else self.base.gamma(k)

    def gamma_iv(self, k: int) -> Interval:
        if k % 2 == 1:
            return Interval.exact(0.0)
        return self.base.gamma_iv(k)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        # partial sum over even indices plus the base tail as a bound on
        # the even-index remainder (crude but rigorous: 0 <= rest <= base tail)
        start = k if k % 2 == 0 else k + 1
        n = max(start + 4096, 1 << 16)
        cap = min(guard_index(), max(start * 64, 1 << 22))
        while True:
            rest = self.base.tail(n + 1)
            partial = self._evens.masses([start // 2, n // 2 + 1])[0]
            if rest.hi <= max(1e-3 * partial.lo, 1e-300) or n >= cap:
                lo = max(partial.lo, 0.0)
                return Interval(lo, partial.hi + rest.hi)
            n = min(n * 4, cap)

    def gamma_vec(self, ks: np.ndarray) -> Optional[np.ndarray]:
        base = self.base.gamma_vec(ks)
        if base is None:
            return None
        return np.where(ks % 2 == 1, 0.0, base)

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        # the even-index tail is bounded by the full base tail
        return self.base.index_for_tail_bound(target, start)

    def _even_terms(self, js: np.ndarray) -> np.ndarray:
        vec = self.base.gamma_vec(2.0 * js)
        return vec if vec is not None else np.array([self.base.gamma(2 * int(j)) for j in js])


class _CosineModulated(_Base):
    name = "cosine_modulated"
    monotone = False
    mass_form = "blocks"
    sums_terms = True

    _DEFAULT_N = 1 << 23

    def __init__(self) -> None:
        self._sums = _BlockSums(self.gamma_vec, self._term_rel)

    def gamma(self, k: int) -> float:
        x = math.sqrt(2.0 * k)
        return (2.0 + math.cos(math.pi * x)) / (k * k)

    def gamma_iv(self, k: int) -> Interval:
        x = math.sqrt(2.0 * k)
        arg = math.pi * x
        c = math.cos(arg)
        # cos argument carries ~3 roundings scaled by the argument size
        pad_c = 4.0 * math.ulp(arg) + 4.0 * _U
        kk = float(k) * float(k)
        lo = (2.0 + c - pad_c) / kk
        hi = (2.0 + c + pad_c) / kk
        return Interval.widened(lo, hi)

    def gamma_vec(self, ks: np.ndarray) -> np.ndarray:
        kf = np.asarray(ks, dtype=np.float64)
        return (2.0 + np.cos(np.pi * np.sqrt(2.0 * kf))) / (kf * kf)

    @staticmethod
    def _tail_beyond(n: int) -> Interval:
        # 1 <= 2 + cos <= 3 and sum_{i>N} i^-2 in [1/(N+1), 1/N]
        return Interval.widened(1.0 / (n + 1), 3.0 / n)

    def tail_crude(self, k: int) -> Interval:
        """Analytic sandwich of Gamma_k with no summation."""
        if k <= 1:
            return Interval.widened(1.0, 3.0 * math.pi * math.pi / 6.0)
        return self._tail_beyond(k - 1)

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

    def segment_masses(self, bounds: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        return self._sums.masses(bounds)

    def tail_batch(self, ks: Sequence[int], target: Optional[float] = None) -> List[Interval]:
        if not ks:
            return []
        ks = [int(k) for k in ks]
        if sorted(set(ks)) != list(ks):
            raise ValueError("tail_batch needs strictly increasing indices")
        t = target if target is not None else 3.0 / self._DEFAULT_N
        # the guard caps the truncation point, never below the last index asked for
        n_end = max(min(int(math.ceil(3.0 / t)) + 1, guard_index()), ks[-1] + 1)
        acc = self._tail_beyond(n_end - 1)
        out: List[Interval] = []
        for m in reversed(self.segment_masses(ks + [n_end])):
            acc = m + acc
            out.append(acc)
        out.reverse()
        return out

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        return self.tail_batch([k], target)[0]

    def index_for_tail_bound(self, target: float, start: int) -> int:
        return max(start, int(math.ceil(3.0 / target)) + 1)

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


class _Patched(_Base):
    name = "patched"
    sums_terms = True

    def __init__(self, segments: Tuple[PatchedSegment, ...]) -> None:
        if not segments or segments[-1].end != 0:
            raise ValueError("patched spec needs a final infinite segment")
        self.segments = segments
        self._suffix: List[Interval] = []  # mass from segment j's start to infinity
        # one block table per harmonic stretch, keyed by its start
        self._harm = {s.start: self._harm_table(s) for s in segments if s.kind == "harmonic"}
        self._build_suffix()

    def _seg_gamma(self, seg: PatchedSegment, k: int) -> float:
        if seg.kind == "geometric":
            return seg.gamma_start * seg.g ** (k - seg.start)
        return seg.gamma_start * _harmonic_shape(k) / _harmonic_shape(seg.start)

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
        return self._seg_gamma(self.segments[self._seg_index(k)], k)

    def _seg_mass(self, seg: PatchedSegment, k: int) -> Interval:
        """Mass of gamma over [k, seg.end], or [k, inf) for the final segment."""
        if seg.kind == "geometric":
            gk = _rel_pad_iv(self._seg_gamma(seg, k), 16 * _U)
            one_minus = Interval.rounded(1.0 - seg.g) if seg.g < 0.5 else Interval.exact(1.0 - seg.g)
            if seg.end == 0:
                return gk / one_minus
            g_next = _rel_pad_iv(self._seg_gamma(seg, seg.end + 1), 16 * _U)
            return (gk - g_next) / one_minus
        return self._harm[seg.start].masses([k, seg.end + 1])[0]

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
        if seg.end == 0:
            return self._seg_mass(seg, k)
        rest = self._suffix[j + 1]
        return self._seg_mass(seg, k) + rest

    def index_for_tail_bound(self, target: float, start: int) -> int:
        final = self.segments[-1]
        anchor = max(start, final.start)
        # inside the final geometric stretch: mass(k) = gamma(k)/(1-g)
        need = target * (1.0 - final.g)
        gk = self._seg_gamma(final, anchor)
        if gk <= need:
            return anchor
        steps = math.log(need / gk) / math.log(final.g)
        return anchor + int(math.ceil(steps)) + 2

    def premise_verdicts(self) -> Tuple[bool, bool, str]:
        return (False, False, "both ratios exceed every bound at realized switch excursions")


class _Custom(_Base):
    name = "custom"

    def __init__(self, gammas: Tuple[float, ...], tail_model: Optional[Tuple]) -> None:
        self.gammas = gammas
        self.tail_model = tail_model
        self.K = len(gammas)
        # backward partial sums over the table: suffix[j] = sum_{i>=j} (0-based),
        # suffix[K] = 0; np.cumsum adds sequentially, from the end, in floats
        table = np.array(gammas, dtype=np.float64)
        self._suffix = np.cumsum(np.concatenate(([0.0], table[::-1])))[::-1].tolist()
        self.monotone = bool(np.all(np.diff(table) <= 0.0))

    def gamma(self, k: int) -> float:
        if k <= self.K:
            return self.gammas[k - 1]
        if self.tail_model is None:
            raise ValueError(f"index {k} beyond custom table without a tail model")
        kind, p = self.tail_model
        anchor = self.gammas[-1]
        if kind == "geometric":
            return anchor * p ** (k - self.K)
        return anchor * (k / self.K) ** (-1.0 - p)

    def _model_tail(self, k: int) -> Interval:
        """Enclosure of the continuation mass from max(k, K+1) onward."""
        if self.tail_model is None:
            return Interval.exact(0.0)
        kind, p = self.tail_model
        start = max(k, self.K + 1)
        gk_iv = _rel_pad_iv(self.gamma(start), 16 * _U)
        if kind == "geometric":
            one_minus = Interval.rounded(1.0 - p) if p < 0.5 else Interval.exact(1.0 - p)
            return gk_iv / one_minus
        # power continuation anchored at the table edge:
        # sum_{i>=s} A (i/K)^(-1-p) sandwiched by the integral
        # A K/p (s/K)^(-p) from below and that plus gamma_s from above.
        anchor_iv = _rel_pad_iv(self.gammas[-1], 8 * _U)
        integral = anchor_iv * _pow_iv(start / self.K, -p) * Interval.rounded(self.K / p)
        hi = (integral + gk_iv).hi
        return Interval(max(integral.lo, 0.0), hi)

    def tail(self, k: int, target: Optional[float] = None) -> Interval:
        if k <= self.K:
            part = self._suffix[k - 1]
            pad = _U * (self.K - k + 2) * abs(part) + 5e-324
            table_part = Interval(part - pad, part + pad)
            return table_part + self._model_tail(self.K + 1)
        if self.tail_model is None:
            raise ValueError(f"index {k} beyond custom table without a tail model")
        return self._model_tail(k)

    def index_for_tail_bound(self, target: float, start: int) -> Optional[int]:
        if self.tail_model is None:
            return max(start, self.K + 1)
        return None


@lru_cache(maxsize=256)
def _build(spec: DiscountSpec) -> _Base:
    if spec.scale != 1.0:
        raise AssertionError("implementations are cached for unscaled specs only")
    fam = spec.family
    p = spec.params
    if fam == "finite":
        return _Finite(p[0])
    if fam == "geometric":
        return _Geometric(p[0])
    if fam == "quadratic":
        return _Quadratic()
    if fam == "power":
        return _Power(p[0])
    if fam == "harmonic_like":
        return _HarmonicLike()
    if fam == "step_log":
        return _StepLog()
    if fam == "alternating_zero":
        return _AlternatingZero(p[0])
    if fam == "cosine_modulated":
        return _CosineModulated()
    if fam == "patched":
        return _Patched(p[0])
    if fam == "custom":
        return _Custom(p[0], p[1])
    raise ValueError(f"unknown discount family {fam!r}")


def _impl(spec: DiscountSpec) -> _Base:
    """The family object of a spec; a scaled spec shares its unscaled twin's."""
    return spec._family


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


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


def gamma_tail(spec: DiscountSpec, k: int, target: Optional[float] = None) -> Interval:
    """Enclosure of Gamma_k = sum_{i >= k} gamma_i (scaled).

    target, when given, asks for an absolute tail-resolution hint; families
    with closed forms ignore it. Numerically summed families answer from
    their block table (module docstring): O(S + N/S) work per call.
    """
    if k < 1:
        raise ValueError("index k must be >= 1")
    iv = _impl(spec).tail(k, target)
    return iv if spec.scale == 1.0 else iv * spec.scale


def gamma_tail_batch(
    spec: DiscountSpec, ks: Sequence[int], target: Optional[float] = None
) -> List[Interval]:
    """Enclosures of Gamma at several increasing indices in one pass."""
    out = _impl(spec).tail_batch(list(ks), target)
    if spec.scale != 1.0:
        out = [iv * spec.scale for iv in out]
    return out


def segment_masses(
    spec: DiscountSpec, bounds: Sequence[int], target: Optional[float] = None
) -> List[Interval]:
    """Enclosures of the gamma mass over [bounds[j], bounds[j+1]) for each j.

    Cosine sums these directly from its block table of 2N/S floats
    (module docstring), so no truncation term is shared and differences
    stay sharp; the other families take tail differences.
    """
    bounds = [int(b) for b in bounds]
    if len(bounds) < 2 or any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing, length >= 2")
    out = _impl(spec).segment_masses(bounds, target)
    if spec.scale != 1.0:
        out = [iv * spec.scale for iv in out]
    return out


def effective_horizon(spec: DiscountSpec, k: int) -> IntegerInterval:
    """Smallest h >= 0 with Gamma_{k+h} <= Gamma_k / 2, as an integer
    interval [first possibly satisfied, first certainly satisfied]."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    impl = _impl(spec)
    exact = impl.effective_horizon_exact(k)
    if exact is not None:
        return exact
    tail_k = impl.tail(k)
    if not tail_k.lo > 0.0:
        raise UndefinedMetric(f"tail enclosure not positive at k={k}")
    if tail_k.width > 0.5 * tail_k.lo:
        raise EnclosureAmbiguous("tail enclosure too wide to halve certainly")
    half_hi = Interval.exact(0.5 * tail_k.hi + 2 * math.ulp(tail_k.hi))
    half_lo = Interval.exact(0.5 * tail_k.lo - 2 * math.ulp(tail_k.lo))
    guard = guard_index()
    target = tail_k.lo * 5e-4  # keeps summed tails sharp enough to halve

    def tail_at(h: int) -> Interval:
        return impl.tail(k + h, target)

    def first_with(pred) -> int:
        hi = 1
        while not pred(tail_at(hi)):
            hi *= 2
            if hi > guard:
                raise GuardExceeded("effective horizon search exceeded guard")
        lo = 0 if hi == 1 else hi // 2
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(tail_at(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    h_possible = first_with(lambda iv: iv.lo <= half_hi.hi)
    h_certain = first_with(lambda iv: iv.hi <= half_lo.lo)
    if h_certain < h_possible:  # can happen only through enclosure noise
        h_possible = h_certain
    return IntegerInterval(h_possible, h_certain)


def quasi_horizon(spec: DiscountSpec, k: int) -> Interval:
    """Enclosure of Gamma_k / gamma_k."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    impl = _impl(spec)
    exact = impl.quasi_horizon_exact(k)
    if exact is not None:
        return exact
    g = impl.gamma_iv(k)
    if not g.lo > 0.0:
        raise UndefinedMetric(f"gamma is zero (or indistinguishable from it) at k={k}")
    return impl.tail(k) / g


def horizon_ratio(spec: DiscountSpec, k: int) -> Interval:
    """Enclosure of k gamma_k / Gamma_k."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    impl = _impl(spec)
    exact = impl.horizon_ratio_exact(k)
    if exact is not None:
        return exact
    tail_k = impl.tail(k)
    if not tail_k.lo > 0.0:
        raise UndefinedMetric(f"tail is zero (or indistinguishable from it) at k={k}")
    g = impl.gamma_iv(k)
    if g.lo == 0.0 and g.hi == 0.0:
        return Interval.exact(0.0)  # k * 0 / Gamma is exactly zero
    return (g * Interval.exact(float(k))) / tail_k


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

    def harm_continue(prev_seg: PatchedSegment, k: int) -> float:
        # value the previous family would take at k (continuation)
        if prev_seg.kind == "geometric":
            return prev_seg.gamma_start * prev_seg.g ** (k - prev_seg.start)
        return prev_seg.gamma_start * _harmonic_shape(k) / _harmonic_shape(prev_seg.start)

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
        gamma_at_start = harm_continue(seg, start)
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
        gamma_at_start = harm_continue(seg, start)
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
    fam = spec.family
    p = spec.params
    if fam == "finite":
        params = {"m": p[0]}
    elif fam == "geometric":
        params = {"g": p[0]}
    elif fam == "power":
        params = {"eps": p[0]}
    elif fam == "alternating_zero":
        params = {"base": spec_to_dict(p[0])}
    elif fam == "patched":
        params = {
            "segments": [
                {
                    "kind": s.kind,
                    "start": s.start,
                    "end": s.end,
                    "g": s.g,
                    "gamma_start": s.gamma_start,
                }
                for s in p[0]
            ]
        }
    elif fam == "custom":
        params = {"table": list(p[0]), "tail": None if p[1] is None else {"type": p[1][0], "param": p[1][1]}}
    else:
        params = {}
    return {"family": fam, "params": params, "scale": spec.scale}


def spec_from_dict(d: dict) -> DiscountSpec:
    fam = d["family"]
    params = d.get("params", {})
    scale = float(d.get("scale", 1.0))
    if fam == "finite":
        spec = finite(int(params["m"]))
    elif fam == "geometric":
        spec = geometric(float(params["g"]))
    elif fam == "quadratic":
        spec = quadratic()
    elif fam == "power":
        spec = power(float(params["eps"]))
    elif fam == "harmonic_like":
        spec = harmonic_like()
    elif fam == "step_log":
        spec = step_log()
    elif fam == "alternating_zero":
        spec = alternating_zero(spec_from_dict(params["base"]))
    elif fam == "cosine_modulated":
        spec = cosine_modulated()
    elif fam == "patched":
        segs = tuple(
            PatchedSegment(s["kind"], int(s["start"]), int(s["end"]), float(s["g"]), float(s["gamma_start"]))
            for s in params["segments"]
        )
        spec = DiscountSpec("patched", (segs,))
    elif fam == "custom":
        tail = params.get("tail")
        spec = custom(params["table"], None if tail is None else (tail["type"], tail["param"]))
    else:
        raise ValueError(f"unknown discount family {fam!r}")
    return spec.with_scale(scale) if scale != 1.0 else spec


def is_monotone_family(spec: DiscountSpec) -> bool:
    """Documented monotonicity flag (scan-verifiable for the monotone ones)."""
    return _impl(spec).monotone


def premise_note(spec: DiscountSpec) -> Optional[Tuple[bool, bool, str]]:
    """Analytic boundedness verdicts for the two premise ratios, if known."""
    return _impl(spec).premise_verdicts()


def index_for_tail_bound(spec: DiscountSpec, target: float, start: int) -> Optional[int]:
    """Cheap certified index N >= start with Gamma_N <= target, if the
    family can produce one analytically (unscaled)."""
    return _impl(spec).index_for_tail_bound(target, start)
