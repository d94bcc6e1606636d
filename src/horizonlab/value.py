"""Average and discounted values, plus limit estimation along schedules.

U_{1m} is the plain mean of r_1..r_m and U_{km} the windowed mean, both
from reward.window_mean. V_{kg} = (1/Gamma_k) sum_{i>=k} gamma_i r_i
is returned as a rigorous enclosure, with all arithmetic outward rounded:
the terms up to a truncation index N are summed and the rewards past N
are enclosed. On a nonincreasing discount, a reward whose partial sums
keep near a mean (periodic, linear and exponential runs; see
reward.window_envelope) gets the summation-by-parts enclosure of
_rest_enclosure, and N is within 1/64 of the least index found whose
enclosure is at most tol * Gamma_k / 2 wide. So does a periodic reward
under cosine (through its variation bound) and under alternating over a
monotone base (through its even-index weights; see _truncate).
Otherwise the unseen rewards contribute [0, Gamma_{N+1}], with N the
smallest index whose remaining discount mass is below tol * Gamma_k.

Binary-run rewards take one runs path: the numerator is the discount
mass of the 1-runs, whose bounds reward.one_segments gives as one flat
integer array (int64, or Python ints past 2**63) that every layer takes
as it is, read in the family's mass_form (tail differences, block sums
or ratios to Gamma_k; see discount._Base).
Families with no mass_form, and other rewards, are summed densely by one
kernel (_dense_sum) of the family's own weight enclosures: gamma_arrays
over Gamma_k, for geometric tail_ratio_arrays (1 - g) over 1;
disc_value_detail says how the path is picked.

disc_value_details takes V at several indices in one pass, with the bits
of one disc_value_detail call per index: the indices share their runs,
and under a target_free family their rest probes and the ends of their
segment masses. disc_value_detail is its batch of one, and limit_scan
calls it once per V scan.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import discount as _d
from . import reward as _r
from ._guards import guard_index, short_index
from .intervals import Interval, Pair, hull_of, widened_arrays, widened_pair

class InconclusiveEnclosure(RuntimeError):
    """Requested tolerance unattainable before the guard index.

    Carries the best enclosure achieved in the `detail` attribute.
    """

    def __init__(self, message: str, detail: "ValueDetail") -> None:
        super().__init__(message)
        self.detail = detail


# ---------------------------------------------------------------------------
# Average values (exact where the sequence allows it)
# ---------------------------------------------------------------------------


def avg_value(spec: _r.RewardSpec, m: int) -> float:
    """U_{1m}: mean of r_1..r_m (reward.window_mean)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _r.window_mean(spec, 1, m)


def avg_value_from(spec: _r.RewardSpec, k: int, m: int) -> float:
    """U_{km}: mean of r_k..r_m (reward.window_mean)."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return _r.window_mean(spec, k, m)


# ---------------------------------------------------------------------------
# Discounted value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueDetail:
    """disc_value result with diagnostics.

    interval: enclosure clamped to [0,1]; raw: pre-clamp enclosure;
    truncation: last summed index N (0 for closed-form paths); the
    rewards past N enter as an enclosure of their discounted sum, of
    width at most tol * Gamma_k when attained (module docstring). When
    the work guard stops a sum before k, nothing is summed and N is
    k - 1 (with attained False);
    path: constant | product_zero | runs | dense; attained: whether that
    rest met the tolerance before the guard index (or, on the runs path,
    the run budget _SEG_CAP).
    """

    interval: Interval
    raw: Interval
    truncation: int
    path: str
    attained: bool


def _interval_sum(lo: Sequence[float], hi: Sequence[float]) -> Interval:
    """Enclosure of the sum of the intervals [lo[j], hi[j]]: one math.fsum
    per end, exactly 0 for none. fsum is correctly rounded whatever the
    order of its terms, and the widening by 4 ulp covers that rounding."""
    if not len(lo):
        return Interval.exact(0.0)
    return Interval.widened(math.fsum(lo), math.fsum(hi))


def _tail_target(tol: float, k: int) -> float:
    """tol * 0.3 / (k + 1), the resolution asked of Gamma_k. Past the
    float range of k + 1 the least positive float stands in: a target is
    only a hint, and every tail is an enclosure whatever it asks."""
    try:
        return tol * 0.3 / (k + 1)
    except OverflowError:
        return 5e-324


def _product_is_zero(rspec: _r.RewardSpec, dspec: _d.DiscountSpec) -> bool:
    """True when gamma_i * r_i = 0 for every i, provably from structure:
    an alternating-zero discount (zero at odd i) against a periodic
    reward that vanishes at all even i."""
    if dspec.family != "alternating_zero" or rspec.family != "periodic":
        return False
    pat = rspec.params[0]
    if len(pat) % 2 == 1:
        # odd period: every pattern slot lands on both parities eventually
        return all(x == 0.0 for x in pat)
    return all(pat[j] == 0.0 for j in range(1, len(pat), 2))


# truncation ceiling for families that sum no terms (the guard bounds
# summed terms): big enough that even 1/log tails drop three decades below
# any quasi-horizon reachable in tests, small enough for cheap integers
_N_CAP = 10**500

# runs-path work bound: 1-run pieces (closed-form mass evaluations) per value
_SEG_CAP = 200_000


def _truncation_index(
    dspec: _d.DiscountSpec, k: int, tail_k: Interval, tol: float, cap: int
) -> Tuple[int, Interval, bool]:
    """Smallest N with Gamma_{N+1}.hi <= tol * Gamma_k.lo (capped), its
    tail, and whether the target was met below the cap. Where a quarter of
    the target underflows no probe can ask for it: N = k - 1, not met."""
    target = tol * tail_k.lo
    if not 0.25 * target > 0.0:
        return k - 1, tail_k, False

    def tail_at(n: int) -> Interval:
        return _d.gamma_tail(dspec, n, 0.25 * target)

    hint = _d.index_for_tail_bound(dspec, target, k)
    hi: Optional[int] = None
    if hint is not None and hint <= cap:
        t = tail_at(hint + 1)
        if t.hi <= target:
            if _d._impl(dspec).sums_terms:
                # numeric tails: take the hint as-is rather than bisect for
                # the minimum, as each probe sums on to its own stopping index
                return hint, t, True
            hi = hint
    if hi is None:
        hi = max(k, 1)
        while tail_at(hi + 1).hi > target:
            if hi >= cap:
                # a cap below k stops the sum before it starts: N = k - 1
                n = max(cap, k - 1)
                return n, tail_at(n + 1), False
            hi = min(hi * 2, cap)
    lo = k
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_at(mid + 1).hi <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo, tail_at(lo + 1), True


def _add(x: Pair, y: Pair) -> Pair:
    """x + y as Interval.__add__ computes it, on (lo, hi) float pairs."""
    return widened_pair(x[0] + y[0], x[1] + y[1])


def _mul(x: Pair, y: Pair) -> Pair:
    """x * y as Interval.__mul__ computes it, every sign case included."""
    (a, b), (c, d) = x, y
    if 0.0 <= a and 0.0 <= c and b < math.inf and d < math.inf:
        return widened_pair(a * c, b * d)
    products = (a * c, a * d, b * c, b * d)
    return widened_pair(min(products), max(products))


def _div(x: Pair, y: Pair) -> Pair:
    """x / y as Interval.__truediv__ computes it, for y > 0."""
    (a, b), (c, d) = x, y
    if 0.0 <= a and b < math.inf and d < math.inf:
        return widened_pair(a / d, b / c)
    quotients = (a / c, a / d, b / c, b / d)
    return widened_pair(min(quotients), max(quotients))


def _int_times(n: int, x: Pair) -> Pair:
    """Enclosure of n x for x in the pair x, n >= 0 an integer of any size.

    n lies in [top, top + 1) 2^s with top < 2^53 exact, and scaling by 2^s
    is exact short of overflow, where the bounds go to inf and to the
    largest float. Below 2^53 (s = 0) that is n x at both ends.
    """
    if n < 1 << 53:
        return widened_pair(min(n * x[0], sys.float_info.max), n * x[1])
    shift = n.bit_length() - 53
    top = n >> shift
    try:
        hi = (top + 1) * math.ldexp(x[1], shift)
    except OverflowError:
        hi = math.inf
    try:
        lo = min(top * math.ldexp(x[0], shift), sys.float_info.max)
    except OverflowError:
        lo = sys.float_info.max
    return widened_pair(lo, hi)


@lru_cache(maxsize=64)
def _den_iv(den: int) -> Pair:
    """_int_times(den, 1), kept per denominator."""
    return _int_times(den, (1.0, 1.0))


def _q_times(num: int, den: int, x: Pair) -> Pair:
    """Enclosure of (num / den) x for den >= 1 and num ints of any size.
    The fraction is reduced first, as Fraction reduces it, so equal
    rationals give equal bits. num = 0 gives a pair that straddles 0, and
    a negative num negates."""
    g = math.gcd(num, den)
    lo, hi = _div(_int_times(abs(num) // g, x), _den_iv(den // g))
    return (-hi, -lo) if num < 0 else (lo, hi)


def _sqrt_iv(n: int) -> Pair:
    """Enclosure of sqrt(n) for an integer n >= 1."""
    if n < 1 << 53:
        y = math.sqrt(n)  # n exact, sqrt correctly rounded: Interval.rounded
        return y - math.ulp(y), y + math.ulp(y)
    r = math.isqrt(n)
    return widened_pair(float(r), float(r + 1))


def _rest_enclosure(
    fam: "_d._Base", env: _r.WindowEnvelope, m: int, hint: float
) -> Interval:
    """Enclosure of sum_{i>m} gamma_i r_i by summation by parts (Hutter,
    General Discounting versus Average Reward, ALT 2006, section 4), for a
    nonincreasing gamma, or for any gamma with a variation bound when
    p = 0.

    Let e_j = sum_{i<=j} (r_i - mu) with |e_j| <= a j^p + b (the reward's
    WindowEnvelope). As r_i - mu = e_i - e_{i-1}, for every L > m

        sum_{m<i<=L} gamma_i r_i = mu (Gamma_{m+1} - Gamma_{L+1})
            - gamma_{m+1} e_m + gamma_L e_L + sum_{m<i<L} (gamma_i - gamma_{i+1}) e_i.

    gamma_L e_L vanishes: for summable nonincreasing gamma,
    (L/2) gamma_L <= Gamma_{ceil(L/2)} tends to 0 and |e_L| <= (a + b) L;
    for p = 0, |e_L| <= a + b while gamma_L tends to 0. Hence

        sum_{i>m} gamma_i r_i = mu Gamma_{m+1} - gamma_{m+1} e_m
                                +- [a S_p(m) + b S_0(m)]

    with S_p(m) = sum_{i>m} |gamma_i - gamma_{i+1}| i^p. S_0 is the
    family's variation(m): gamma_{m+1} when gamma is nonincreasing (the
    sum telescopes), cosine's closed form otherwise. For nonincreasing
    gamma S_p is summed by parts again: S_1 = (m+1) gamma_{m+1} +
    Gamma_{m+2}; S_1/2 = sqrt(m+1) gamma_{m+1} + sum_{i>m+1} gamma_i
    (sqrt i - sqrt(i-1)) <= sqrt(m+1) gamma_{m+1} + Gamma_{m+2} / (2 sqrt(m+1)),
    as sqrt i - sqrt(i-1) <= 1 / (2 sqrt(i-1)). Beyond variation(m) only
    gamma_{m+1} and Gamma_{m+2} are evaluated; Gamma_{m+1} is their sum.
    As 0 <= r_i <= 1 the result is also clipped to [0, Gamma_{m+1}].
    Each step runs on (lo, hi) float pairs with the bits of the Interval
    operation it stands for; one Interval is built at the end.
    """
    g = fam.gamma_pair(m + 1)
    t2 = fam.tail_pair(m + 2, hint)
    t1 = _add(g, t2)
    s0 = g if fam.monotone else fam.variation(m).pair  # variation(m) is g then
    if env.p == 0.0:
        s = s0
    elif env.p == 1.0:
        s = _add(_int_times(m + 1, g), t2)
    else:
        root = _sqrt_iv(m + 1)
        s = _add(_mul(root, g), _div(t2, _add(root, root)))
    den = env.den
    radius = _add(_mul(env.a.pair, s), _q_times(env.b_num, den, s0))[1]
    mean, excess = _q_times(env.mean_num, den, t1), _q_times(env.excess_num(m), den, g)
    lo, hi = widened_pair(mean[0] - excess[1], mean[1] - excess[0])
    lo, hi = _add((lo, hi), (-radius, radius))
    return Interval(max(lo, 0.0), min(hi, t1[1]))


def _enveloped_truncation(
    fam: "_d._Base",
    env: _r.WindowEnvelope,
    k: int,
    target: float,
    cap: int,
    probes: Optional[dict] = None,
) -> Tuple[int, Interval, bool]:
    """(M, rest, attained): an M in [k - 1, max(cap, k)] whose _rest_enclosure
    is at most target/2 wide, the rest past M, and whether the target was
    met. The other half of the target is left to the enclosures of the
    summed part. A cap below k whose rest at k fails stops the sum before
    it starts: M = k - 1, not attained.

    M = k 2^e is tried for e = 1, 2, 4, ..., then bracketed by bit length
    and bisected to within 1/64 of the least passing index found: about
    2 log2(e) + 8 probes, however long M is. A monotone family that sums
    its tails first tries its tail hint, taken as-is when it passes (as in
    _truncation_index); cosine's hint, about 3/target, would pass far past
    the least index.

    probes, keyed by M, holds the rest enclosures already taken. A
    target_free family's probe is a function of M alone, so V at several
    indices may share one table (disc_value_details); by default each
    search keeps its own.
    """
    seen = {} if probes is None else probes

    def probe(m: int) -> Interval:
        if m not in seen:
            seen[m] = _rest_enclosure(fam, env, m, 0.25 * target)
        return seen[m]

    def ok(m: int) -> bool:
        return probe(m).width <= 0.5 * target

    if cap < k and not ok(k):
        return k - 1, probe(k - 1), False
    cap = max(cap, k)
    if fam.sums_terms and fam.monotone:
        hint = fam.index_for_tail_bound(0.5 * target, k)
        if hint is not None and hint <= cap and ok(hint):
            return hint, seen[hint], True
    lo, hi, e = k, k, 1
    while not ok(hi):
        if hi >= cap:
            return cap, seen[cap], False
        lo, hi, e = hi, min(k << e, cap), 2 * e
    while hi.bit_length() - lo.bit_length() >= 2:
        mid = 1 << ((lo.bit_length() + hi.bit_length()) // 2 - 1)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    while hi - lo > max(hi >> 6, 1):
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi, seen[hi], True


def _truncate(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    k: int,
    tail_k: Interval,
    tol: float,
    cap: int,
    probes: Optional[dict] = None,
) -> Tuple[int, Interval, bool]:
    """(N, rest, attained): the truncation index, an enclosure of
    sum_{i>N} gamma_i r_i and whether its width met the target of the
    search. A reward with a window envelope gets _rest_enclosure
    (_enveloped_truncation) under a monotone discount, and a periodic
    reward (p = 0) under a discount with a variation bound (cosine).
    Under alternating over a monotone base a periodic reward gets it on
    the even-index view: the odd weights vanish, so
    sum_{i>2M} gamma_i r_i = sum_{j>M} w_j r_{2j} with w_j = gamma_{2j}
    nonincreasing and r_{2j} periodic, and the search runs on w and
    r_{2j} from ceil(k/2) >= 1 (doubling from 0 would never end), with
    N = 2M >= k. A guard
    below that start leaves M = floor((k-1)/2): nothing is summed, and as
    gamma_{k-1} = 0 for even k the rest is the one past N = k - 1. The
    others get [0, Gamma_{N+1}] (_truncation_index). probes is a
    rest-probe table of _enveloped_truncation that the indices of one
    pass share where the family is target_free; the even view and the
    other families keep one per search."""
    fam = _d._impl(dspec)
    target = tol * tail_k.lo
    view = fam.even_view()
    if view is not None:
        even = _r.even_rewards(rspec)
        env = None if even is None else _r.window_envelope(even)
        if env is not None:
            m, rest, attained = _enveloped_truncation(view, env, (k + 1) // 2, target, cap // 2)
            return max(2 * m, k - 1), rest, attained
    else:
        env = _r.window_envelope(rspec)
        if env is not None and (fam.monotone or env.p == 0.0 and fam.variation(k) is not None):
            return _enveloped_truncation(fam, env, k, target, cap,
                                         probes if fam.target_free else None)
    n_trunc, tail, attained = _truncation_index(dspec, k, tail_k, tol, cap)
    return n_trunc, Interval(0.0, tail.hi), attained


def _budget_end(rspec: _r.RewardSpec, k: int) -> Optional[int]:
    """The index before the run that would add piece _SEG_CAP + 1 from k,
    in closed form; None for explicit lists, whose runs are all stored."""
    if _r.run_count(rspec) is not None:
        return None
    n = _r.run_index(rspec, k)
    if k >= _r.change_points(rspec, n)[1]:
        n += 1  # k lies in a 0-run: the first piece is the next 1-run
    return _r.change_points(rspec, n + _SEG_CAP)[0] - 1


def _runs_values(
    rspec: _r.RewardSpec, dspec: _d.DiscountSpec, ks: Sequence[int], tol: float
) -> List:
    """(numerator, denominator, truncation, attained) for binary runs at
    each of the increasing indices ks, or the UndefinedMetric met there.

    The numerator is the mass of the 1-run pieces in [k, N] plus the rest
    past N. The pieces are ordered and never touch, so their flat bounds
    (reward.one_segments; with k and N + 1 in the blocks form) are
    sorted, and the pieces are every other gap from the first. The gap
    masses come as lo and hi arrays in the family's mass_form: tails
    (discount.segment_masses; over Gamma_k), blocks (gaps over [k, N+1)
    also sum to a sharp denominator) or ratios to Gamma_k
    (tail_ratio_arrays; over 1, immune to underflow). Each end is summed
    by one math.fsum, which is correctly rounded whatever the order, so
    the sums keep the bits of the Interval sums they replace.

    The rest is [0, Gamma_{N+1}], except in the tails form for a reward
    with a WindowEnvelope (linear and exponential runs) and a
    nonincreasing discount, where _rest_enclosure gives it and
    _enveloped_truncation picks N (see _truncate). In the blocks form
    Gamma_{N+1} is the family's closed-form rest(N + 1), and the masses
    take the target tol * Gamma_k (from tail_crude(k)), so gaps far from
    k may come in closed form too (discount._CosineModulated). Once N covers the last
    change point of an even-length explicit list no 1s remain: the rest
    is dropped and the value attained. Generated runs stop N before the
    run that would pass _SEG_CAP pieces (closed form, _budget_end); a
    tolerance out of reach there is not attained.

    The indices share three things, none of which moves a bit: the rest
    probes of a target_free family (one table, keyed by M), the runs (one
    enumeration per stretch of overlapping [k, N], _run_bounds) and, in
    the tails form of a target_free family, the mass ends (one
    segment_masses call over the union of the bounds, gathered per k,
    _shared_masses).
    """
    impl = _d._impl(dspec)
    # an even-length explicit list has no 1s past its last change point
    pts = rspec.params[1] if rspec.params[0] == "explicit" else ()
    last = pts[-1] if pts and len(pts) % 2 == 0 else None
    probes: dict = {}
    plans: List = []
    for k in ks:
        try:
            plans.append(_runs_plan(rspec, dspec, impl, k, tol, last, probes))
        except _d.UndefinedMetric as exc:
            plans.append(exc)
    live = [p for p in plans if not isinstance(p, _d.UndefinedMetric)]
    flats, cuts = _run_bounds(rspec, [(p[0], p[1]) for p in live])
    if impl.mass_form == "tails" and impl.target_free:
        masses = _shared_masses(dspec, flats, cuts)
    else:
        masses = (None for _ in cuts)
    out = iter([_runs_finish(dspec, impl, plan, cut, last, m)
                for plan, cut, m in zip(live, cuts, masses)])
    return [p if isinstance(p, _d.UndefinedMetric) else next(out) for p in plans]


def _runs_plan(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    impl: "_d._Base",
    k: int,
    tol: float,
    last: Optional[int],
    probes: dict,
) -> tuple:
    """The per-index half of _runs_values before the runs are listed:
    (k, N, denominator, target, rest past N, attained); the blocks form
    leaves the denominator and the rest to _runs_finish, and the ratios
    form the rest."""
    form = impl.mass_form
    budget_end = None if form == "ratios" else _budget_end(rspec, k)
    attained = True
    denom = target = unseen = None
    if form == "ratios":
        denom = Interval.exact(1.0)
        n_trunc = _ratio_truncation(impl, k, tol)
        if last is not None:
            # covering the whole stored list costs only len(list)/2 ratio
            # evaluations and makes the numerator exact (zero slack)
            n_trunc = max(n_trunc, last - 1)
    elif form == "blocks":
        crude_lo = impl.tail_crude(k).lo
        if not crude_lo > 0.0:
            raise _d.UndefinedMetric(f"tail enclosure not positive at k={short_index(k)}")
        # kept positive where it underflows, and then out of reach
        target = max(tol * crude_lo, 5e-324)
        attained = target == tol * crude_lo
        n_trunc = max(k, impl.index_for_tail_bound(target, k))
        if n_trunc > guard_index():
            # a guard below k stops the sum before it starts: N = k - 1
            n_trunc, attained = max(guard_index(), k - 1), False
        if budget_end is not None and n_trunc > budget_end:
            n_trunc, attained = budget_end, False
    else:
        denom = _d.gamma_tail(dspec, k, _tail_target(tol, k))
        if not denom.lo > 0.0:
            raise _d.UndefinedMetric(f"tail enclosure not positive at k={short_index(k)}")
        # the masses' resolution hint, kept positive where it underflows
        target = max(tol * denom.lo, 5e-324)
        if last is not None:
            n_trunc, unseen = max(last - 1, k), Interval.exact(0.0)
        else:
            cap = guard_index() if impl.sums_terms else _N_CAP
            if budget_end is not None:
                cap = min(cap, budget_end)
            n_trunc, unseen, attained = _truncate(rspec, dspec, k, denom, tol, cap, probes)
    return k, n_trunc, denom, target, unseen, attained


_EMPTY = np.zeros(0)  # no masses: the lo or hi of an empty cut


def _run_bounds(
    rspec: _r.RewardSpec, spans: List[Tuple[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The flat bounds of reward.one_segments(rspec, k, n) for each span
    (k, n), for increasing k, from one enumeration per stretch of
    overlapping spans: the pieces that meet [k, n + 1), found by
    np.searchsorted, sliced off it and cut at its two ends. Returns the
    enumerations (which _shared_masses reads) and the bounds of each span,
    integer arrays of the dtype that one_segments picked."""
    flats: List[np.ndarray] = []
    out: List[np.ndarray] = []
    j = 0
    while j < len(spans):
        group, (lo, hi) = j, spans[j]
        while j + 1 < len(spans) and spans[j + 1][0] <= hi + 1:
            j += 1
            hi = max(hi, spans[j][1])
        flat = _r.one_segments(rspec, lo, hi)
        flats.append(flat)
        starts, ends = flat[0::2], flat[1::2]
        for k, n in spans[group : j + 1]:
            a, b = int(np.searchsorted(ends, k, "right")), int(np.searchsorted(starts, n + 1))
            if a >= b or n < k:
                out.append(flat[:0])
                continue
            bounds = flat[2 * a : 2 * b].copy()
            bounds[0], bounds[-1] = max(bounds[0], k), min(bounds[-1], n + 1)
            out.append(bounds)
        j += 1
    return flats, out


def _shared_masses(dspec: _d.DiscountSpec, flats: List[np.ndarray], cuts: List[np.ndarray]):
    """The masses over the gaps of each bounds array of cuts, from one
    segment_masses call over the union of the enumerations and the ends
    of the cuts, each cut gathered from it by np.searchsorted;
    an empty cut gets empty ones. lo and hi arrays, made as they are read."""
    live = [c for c in cuts if c.size]
    if not live:
        return ((_EMPTY, _EMPTY) for _ in cuts)
    # sorted and deduplicated by hand: np.unique imports numpy.ma on first use
    union = np.sort(np.concatenate(flats + [c[[0, -1]] for c in live]))
    union = union[np.append(True, union[1:] != union[:-1])]
    masses = _d.segment_masses(dspec, union, arrays=True,
                               picks=(np.searchsorted(union, c) for c in live))
    return (next(masses) if c.size else (_EMPTY, _EMPTY) for c in cuts)


def _runs_finish(
    dspec: _d.DiscountSpec,
    impl: "_d._Base",
    plan: tuple,
    bounds: np.ndarray,
    last: Optional[int],
    masses: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[Interval, Interval, int, bool]:
    """The per-index half of _runs_values once the runs of k are cut
    (_run_bounds): masses holds the tails form's shared masses, if any."""
    k, n_trunc, denom, target, unseen, attained = plan
    form = impl.mass_form
    pieces = bounds.size // 2
    first = 0
    finite_done = last is not None and last <= n_trunc + 1
    if form == "ratios":
        unseen = Interval(0.0, impl.tail_ratio(n_trunc + 1, k).hi)
        lo, hi = _ratio_masses(impl, k, bounds)
    elif form == "blocks":
        end = n_trunc + 1  # k when the guard stopped the sum before k
        if end > k:  # the dtype of the bounds holds end, hence k
            head = [k] if not pieces or bounds[0] > k else []
            tail = [end] if not pieces or bounds[-1] < end else []
            first = len(head)
            bounds = np.concatenate((np.array(head, bounds.dtype), bounds,
                                     np.array(tail, bounds.dtype)))
        # with no 1s past the last piece (finite_done), the gaps up to its
        # end are summed without a target, so the numerator stays as sharp
        # as the table; only the gaps past it may take a coarser form
        split = first + 2 * pieces - 1 if finite_done and pieces else 0
        lo = hi = _EMPTY
        if split:
            lo, hi = _d.segment_masses(dspec, bounds[: split + 1], arrays=True)
        if bounds.size > split + 1:
            far_lo, far_hi = _d.segment_masses(dspec, bounds[split:], target, arrays=True)
            lo, hi = np.concatenate((lo, far_lo)), np.concatenate((hi, far_hi))
        rest = impl.rest(end)
        denom = _interval_sum(lo.tolist(), hi.tolist()) + rest
        unseen = Interval(0.0, rest.hi)
    elif masses is not None:
        lo, hi = masses
    elif pieces:
        lo, hi = _d.segment_masses(dspec, bounds, target, arrays=True)
    else:
        lo = hi = _EMPTY
    s = _interval_sum(lo[first::2].tolist(), hi[first::2].tolist())
    if finite_done:
        unseen = Interval.exact(0.0)
    # the division by the denominator widens by 4 ulp, which covers the
    # rounding of these two sums
    numerator = Interval(max(s.lo + unseen.lo, 0.0), s.hi + unseen.hi)
    return numerator, denom, n_trunc, attained or finite_done


def _ratio_masses(impl: "_d._Base", k: int, bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The lo and hi ends of tail_ratio(a, k) - tail_ratio(b, k) over each
    gap [a, b) of the bounds, replayed on the arrays of tail_ratio_arrays
    at the offsets bounds - k (of the dtype of the bounds)."""
    if not bounds.size:
        return _EMPTY, _EMPTY
    r_lo, r_hi = impl.tail_ratio_arrays(bounds - k)
    return widened_arrays(r_lo[:-1] - r_hi[1:], r_hi[:-1] - r_lo[1:])


def _ratio_truncation(impl: "_d._Base", k: int, tol: float) -> int:
    """k + d with g**d <= tol/2, which leaves room for the arithmetic pads."""
    d_tail = int(math.ceil(math.log(0.5 * tol) / math.log(impl.g))) + 1
    return k + max(d_tail, 1)


def disc_value_detail(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    k: int,
    tol: float = 1e-3,
    strict: bool = True,
) -> ValueDetail:
    """V_{kg} as an enclosure with diagnostics: disc_value_details at the
    one index k, raising the UndefinedMetric it records.

    Paths: constant and product_zero are exact. Binary-run rewards take
    the runs path (_runs_values) when the family has a mass_form (tails,
    blocks or ratios); the rest are summed densely, in ratio form for a
    ratios family. On the dense branch a periodic reward gets the rest of
    _rest_enclosure under a monotone discount, under cosine and under
    alternating over a monotone base (_truncate). Only the structural
    product_zero test reads a family name.

    strict=True raises InconclusiveEnclosure when tol is unattainable
    within the work guard; strict=False returns the best achieved
    enclosure with attained=False.
    """
    detail = disc_value_details(rspec, dspec, [k], tol)[0]
    if isinstance(detail, _d.UndefinedMetric):
        raise detail
    if strict and not detail.attained:
        raise InconclusiveEnclosure(
            f"tolerance {tol} unattainable within the work guard at k={short_index(k)}", detail
        )
    return detail


def disc_value_details(
    rspec: _r.RewardSpec, dspec: _d.DiscountSpec, ks: Sequence[int], tol: float = 1e-3
) -> List:
    """V_{kg} at each of the increasing indices ks in one pass: the
    ValueDetail that disc_value_detail(k, strict=False) returns, bit for
    bit, or the UndefinedMetric it raises where V is undefined.

    The runs path shares its runs, and for a target_free family its rest
    probes and mass ends, between the indices (_runs_values); the dense
    path shares the rest probes. Each V keeps its own sums.
    """
    ks = list(ks)
    if not ks or ks[0] < 1:
        raise ValueError("index k must be >= 1")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("indices must be strictly increasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dspec = dspec.unscaled()  # V is scale-free; identical bits either way
    if rspec.family == "constant":
        iv = Interval.exact(rspec.params[0])
        return [ValueDetail(iv, iv, 0, "constant", True)] * len(ks)
    if _product_is_zero(rspec, dspec):
        iv = Interval.exact(0.0)
        return [ValueDetail(iv, iv, 0, "product_zero", True)] * len(ks)

    impl = _d._impl(dspec)
    if _r.is_binary_runs(rspec) and impl.mass_form is not None:
        path, parts = "runs", _runs_values(rspec, dspec, ks, tol)
    else:
        path, probes, parts = "dense", {}, []
        for k in ks:
            try:
                parts.append(_dense_value(rspec, dspec, impl, k, tol, probes))
            except _d.UndefinedMetric as exc:
                parts.append(exc)
    out: List = []
    for k, part in zip(ks, parts):
        if not isinstance(part, _d.UndefinedMetric) and not part[1].lo > 0.0:
            # the blocks form sums its denominator, which rounding may widen past 0
            part = _d.UndefinedMetric(f"tail enclosure not positive at k={short_index(k)}")
        if isinstance(part, _d.UndefinedMetric):
            out.append(part)
            continue
        numerator, denom, n_trunc, attained = part
        raw = numerator / denom
        out.append(ValueDetail(raw.clamp(0.0, 1.0), raw, n_trunc, path, attained))
    return out


def _dense_value(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    impl: "_d._Base",
    k: int,
    tol: float,
    probes: dict,
) -> Tuple[Interval, Interval, int, bool]:
    """(numerator, denominator, truncation, attained) of the dense path:
    _ratio_weights over exactly 1 for a ratios family, else _gamma_weights."""
    if impl.mass_form == "ratios":
        n_trunc = _ratio_truncation(impl, k, tol)
        s = _dense_sum(rspec, k, n_trunc, _ratio_weights(impl))
        numerator = Interval(max(s.lo, 0.0), s.hi + impl.tail_ratio(n_trunc + 1, k).hi)
        return numerator, Interval.exact(1.0), n_trunc, True
    tail_k = _d.gamma_tail(dspec, k, _tail_target(tol, k))
    if not tail_k.lo > 0.0:
        raise _d.UndefinedMetric(f"tail enclosure not positive at k={short_index(k)}")
    n_trunc, unseen, attained = _truncate(rspec, dspec, k, tail_k, tol, guard_index(), probes)
    s = _dense_sum(rspec, k, n_trunc, _gamma_weights(impl, k, n_trunc))
    numerator = Interval(max(s.lo + unseen.lo, 0.0), s.hi + unseen.hi)
    return numerator, tail_k, n_trunc, attained


def disc_value(
    rspec: _r.RewardSpec, dspec: _d.DiscountSpec, k: int, tol: float = 1e-3
) -> Interval:
    """V_{kg}: enclosure of (1/Gamma_k) sum_{i>=k} gamma_i r_i, clamped."""
    return disc_value_detail(rspec, dspec, k, tol).interval


def _gamma_weights(impl: "_d._Base", k: int, n_trunc: int):
    """_dense_sum's absolute weights: gamma_arrays at the indices k + d, an
    int64 array, or a list of Python ints where N passes int64."""
    big = n_trunc >> 63
    return lambda ds: impl.gamma_arrays([k + d for d in ds.tolist()] if big else ds + k)


def _ratio_weights(impl: "_d._Base"):
    """_dense_sum's weights gamma_{k+d} / Gamma_k = (Gamma_{k+d} / Gamma_k) (1 - g)
    of a ratios family: tail_ratio_arrays times one_minus_g, lo by lo, hi by hi."""
    omg = impl.one_minus_g

    def weights(ds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t_lo, t_hi = impl.tail_ratio_arrays(ds)
        return widened_arrays(t_lo * omg.lo, t_hi * omg.hi)

    return weights


_DENSE_CHUNK = 1 << 21


def _dense_sum(rspec: _r.RewardSpec, k: int, n_trunc: int, weights) -> Interval:
    """Enclosure of sum_{i=k}^{N} w_i r_i, the one dense kernel. weights(ds)
    encloses w_{k+d} >= 0 as lo and hi float64 arrays at the int64 offsets d
    where r_i != 0; a term of weight hi 0 is dropped. Each term is the interval
    product [lo, hi] * r_i (r_i >= 0), replayed with widened_arrays, and each
    end of a chunk of _DENSE_CHUNK indices is one math.fsum, correctly rounded
    whatever the order: one chunk is its _interval_sum; with more, each chunk's
    sums move one float outward, past their rounding, and _interval_sum adds them."""
    lo_sums, hi_sums = [], []
    for start in range(k, n_trunc + 1, _DENSE_CHUNK):
        rewards = _r.reward_vec(rspec, start, min(start + _DENSE_CHUNK - 1, n_trunc))
        js = np.flatnonzero(rewards)
        w_lo, w_hi = weights(js + (start - k))
        live = w_hi > 0.0
        r = rewards[js[live]]
        lo, hi = widened_arrays(w_lo[live] * r, w_hi[live] * r)
        if n_trunc - k < _DENSE_CHUNK:
            return _interval_sum(lo.tolist(), hi.tolist())
        if lo.size:
            lo_sums.append(math.nextafter(math.fsum(lo.tolist()), -math.inf))
            hi_sums.append(math.nextafter(math.fsum(hi.tolist()), math.inf))
    return _interval_sum(lo_sums, hi_sums)


# ---------------------------------------------------------------------------
# Limit scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitEstimate:
    """Empirical liminf/limsup evidence along a schedule.

    indices, values, tags and requested are parallel, one entry per
    evaluated point. tags marks subsequence membership only: lo or hi
    for a change-point subsequence that tracks the liminf or limsup,
    sched for any other point. requested marks the points that were in
    the caller's schedule; the others were added by the scan (change
    points, phase-offset probes). A requested index can carry any tag.

    verdict semantics (finite proxies for asymptotic statements, labeled
    as such): converged when the last quarter of values fits in a band
    of width <= tolerance; oscillating when the low and high subsequence
    bands are disjoint by >= tolerance; inconclusive otherwise.
    """

    quantity: str  # "U" or "V"
    indices: Tuple[int, ...]
    values: Tuple[Interval, ...]
    tags: Tuple[str, ...]  # subsequence membership: sched | lo | hi
    requested: Tuple[bool, ...]  # index was in the caller's schedule
    liminf_est: Interval
    limsup_est: Interval
    band: Interval  # hull of the last quarter of all values
    verdict: str  # converged | oscillating | inconclusive
    alpha: Optional[float]
    beta: Optional[float]
    tolerance: float
    notes: Tuple[str, ...] = ()


def _first_log_at_least(t: float, top: int) -> int:
    """The least n in 1..top with math.log(n) >= t, or top + 1 if none."""
    lo, hi = 1, top + 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.log(mid) >= t else (mid + 1, hi)
    return lo


def _thin_run_indices(n_max: int, cap: int = 48) -> List[int]:
    """At most cap of the run indices 1..n_max: for each of cap log-spaced
    targets t, the first n whose |ln n - t| is least, found by bisection
    over the ints. Below t the distance falls as ln n rises, so the pick
    is the first n with ln n >= t or the n before it, and that one is
    taken at the first n sharing its float log (past 2**53 neighbours do)."""
    if n_max <= cap:
        return list(range(1, n_max + 1))
    top, picked = math.log(n_max), set()
    for j in range(cap):
        t = top * j / (cap - 1)
        n = _first_log_at_least(t, n_max)
        if n > n_max or (n > 1 and abs(math.log(n - 1) - t) <= abs(math.log(n) - t)):
            n = _first_log_at_least(math.log(n - 1), n - 1)
        picked.add(n)
    return sorted(picked)


def _augment_schedule(
    rspec: _r.RewardSpec, quantity: str, max_idx: int
) -> Tuple[List[int], List[int]]:
    """Subsequence indices (lo-tagged, hi-tagged) up to max_idx."""
    lo_pts: List[int] = []
    hi_pts: List[int] = []
    if not _r.is_binary_runs(rspec):
        return lo_pts, hi_pts
    for n in _thin_run_indices(_r.runs_started(rspec, max_idx)):
        kn, mn = _r.change_points(rspec, n)
        if quantity == "U":
            # prefix ending after the previous 0-run tracks the liminf,
            # prefix ending after the 1-run tracks the limsup
            if kn - 1 >= 1:
                lo_pts.append(kn - 1)
            if mn - 1 <= max_idx and mn - 1 >= 1:
                hi_pts.append(mn - 1)
        else:
            # V from a 1-run start tracks the limsup, from a 0-run start
            # the liminf
            hi_pts.append(kn)
            if mn <= max_idx:
                lo_pts.append(mn)
    return lo_pts, hi_pts


def _last_quarter(items: List) -> List:
    if not items:
        return []
    w = max(1, math.ceil(len(items) / 4))
    return items[-w:]


def _miss_cause(rspec: _r.RewardSpec, k: int, det: ValueDetail) -> str:
    """The bound that stopped a not-attained value at k: the truncation
    ceiling _N_CAP, the run budget (_budget_end) or else the work guard."""
    if det.truncation == _N_CAP:
        return "truncation ceiling 10^500"
    if det.path == "runs" and det.truncation == _budget_end(rspec, k):
        return f"run budget of {_SEG_CAP} pieces"
    return "guard-limited"


def limit_scan(
    rspec: _r.RewardSpec,
    dspec: Optional[_d.DiscountSpec],
    quantity: str,
    schedule: Sequence[int],
    tol: float = 1e-3,
) -> LimitEstimate:
    """Evaluate U or V along a schedule and classify the limit behavior.

    The schedule is augmented with change-point subsequences for binary
    rewards (tagged lo / hi) and, for V of a periodic reward, with
    phase-offset probes m+1..m+p-1 at each schedule point (tagged
    sched). The result lists every evaluated point; its requested flags
    mark the points of the caller's schedule, whatever their tag. V is
    taken at every point in one disc_value_details pass.
    """
    if quantity not in ("U", "V"):
        raise ValueError("quantity must be 'U' or 'V'")
    if quantity == "V" and dspec is None:
        raise ValueError("V scans need a discount spec")
    sched = [int(m) for m in schedule]
    if not sched or any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] < 1:
        raise ValueError("schedule must be strictly increasing, indices >= 1")
    notes: List[str] = []
    lo_pts, hi_pts = _augment_schedule(rspec, quantity, sched[-1])
    extra: List[int] = []
    if quantity == "V" and rspec.family == "periodic":
        # V along one residue class hides the phase oscillation; probe
        # every offset of the (capped) period at each schedule point
        p = min(len(rspec.params[0]), 8)
        extra = [m + j for m in sched for j in range(1, p)]
    tagged = sorted(
        {(m, "sched") for m in list(sched) + extra}
        | {(m, "lo") for m in lo_pts}
        | {(m, "hi") for m in hi_pts},
        key=lambda t: (t[0], t[1]),
    )
    # a subsequence tag wins over plain sched at the same index
    dedup: dict = {}
    for m, tag in tagged:
        if m not in dedup or dedup[m] == "sched":
            dedup[m] = tag
    indices = sorted(dedup)
    tags = [dedup[m] for m in indices]

    values: List[Interval] = []
    kept: List[int] = []
    kept_tags: List[str] = []
    misses: Counter = Counter()
    skipped = 0
    if quantity == "V":
        details = disc_value_details(rspec, dspec, indices, tol / 3.0)
    for j, (m, tag) in enumerate(zip(indices, tags)):
        if quantity == "U":
            values.append(Interval.rounded(avg_value(rspec, m)))
        else:
            det = details[j]
            if isinstance(det, _d.UndefinedMetric):
                skipped += 1  # V undefined there (discount tail is zero)
                continue
            if not det.attained:
                misses[_miss_cause(rspec, m, det)] += 1
            values.append(det.interval)
        kept.append(m)
        kept_tags.append(tag)
    notes.extend(f"{n} point(s) report best-effort enclosures ({cause})"
                 for cause, n in misses.items())
    if skipped:
        notes.append(f"{skipped} point(s) skipped: value undefined (zero tail)")
    if not values:
        raise _d.UndefinedMetric("no schedule point has a positive discount tail")
    wanted = set(sched)
    return classify_scan(
        quantity, kept, values, kept_tags, tol, notes, [m in wanted for m in kept]
    )


def classify_scan(
    quantity: str,
    indices: Sequence[int],
    values: Sequence[Interval],
    tags: Sequence[str],
    tol: float,
    notes: Sequence[str] = (),
    requested: Optional[Sequence[bool]] = None,
) -> LimitEstimate:
    """Classify already-evaluated (index, enclosure, tag) points.

    requested flags the caller's own points (default: all of them).
    Verdicts are finite-sample proxies: see LimitEstimate.
    """
    if requested is None:
        requested = [True] * len(indices)
    values = list(values)
    tags = list(tags)
    band = hull_of(_last_quarter(values))
    lo_vals = _last_quarter([v for v, t in zip(values, tags) if t == "lo"])
    hi_vals = _last_quarter([v for v, t in zip(values, tags) if t == "hi"])
    if lo_vals and hi_vals:
        liminf_est = hull_of(lo_vals)
        limsup_est = hull_of(hi_vals)
    else:
        liminf_est, limsup_est = _cluster_bands(_last_quarter(values))
    if liminf_est.lo > limsup_est.lo or liminf_est.hi > limsup_est.hi:
        # enclosure noise can cross the bands; restore the invariant
        liminf_est, limsup_est = (
            Interval(min(liminf_est.lo, limsup_est.lo), min(liminf_est.hi, limsup_est.hi)),
            Interval(max(liminf_est.lo, limsup_est.lo), max(liminf_est.hi, limsup_est.hi)),
        )

    spread = max(band.width, limsup_est.hi - liminf_est.lo)
    if spread <= tol:
        verdict, alpha, beta = "converged", band.mid, band.mid
    elif limsup_est.lo - liminf_est.hi >= tol:
        verdict, alpha, beta = "oscillating", liminf_est.mid, limsup_est.mid
    else:
        verdict, alpha, beta = "inconclusive", None, None
    return LimitEstimate(
        quantity,
        tuple(indices),
        tuple(values),
        tuple(tags),
        tuple(requested),
        liminf_est,
        limsup_est,
        band,
        verdict,
        alpha,
        beta,
        tol,
        tuple(notes),
    )


def _cluster_bands(values: List[Interval]) -> Tuple[Interval, Interval]:
    """Low/high bands by mid-point clustering when no subsequence tags exist."""
    if not values:
        raise ValueError("no values to classify")
    lo_min = min(v.lo for v in values)
    hi_max = max(v.hi for v in values)
    gap = (hi_max - lo_min) / 3.0
    lows = [v for v in values if v.mid <= lo_min + gap]
    highs = [v for v in values if v.mid >= hi_max - gap]
    return hull_of(lows or values), hull_of(highs or values)


def dyadic_schedule(limit: int, start: int = 1) -> List[int]:
    """start, 2*start, 4*start, ... capped at limit (limit included)."""
    if limit < start:
        raise ValueError("limit must be >= start")
    out = []
    m = start
    while m < limit:
        out.append(m)
        m *= 2
    out.append(limit)
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def limit_estimate_to_dict(est: LimitEstimate) -> dict:
    return {
        "quantity": est.quantity,
        "schedule": list(est.indices),
        "requested": list(est.requested),
        "values": [[v.lo, v.hi] for v in est.values],
        "tags": list(est.tags),
        "liminf": [est.liminf_est.lo, est.liminf_est.hi],
        "limsup": [est.limsup_est.lo, est.limsup_est.hi],
        "band": [est.band.lo, est.band.hi],
        "verdict": est.verdict,
        "alpha": est.alpha,
        "beta": est.beta,
        "tolerance": est.tolerance,
        "notes": list(est.notes),
    }


def limit_estimate_csv_rows(est: LimitEstimate) -> List[Tuple]:
    rows: List[Tuple] = [("index", "lo", "hi", "tag")]
    for m, v, t in zip(est.indices, est.values, est.tags):
        rows.append((m, v.lo, v.hi, t))
    return rows
