"""Average and discounted values, plus limit estimation along schedules.

U_{1m} is the plain mean of r_1..r_m and U_{km} the windowed mean; both
are computed exactly for binary sequences (integer counting) and by
compensated summation otherwise. V_{kg} = (1/Gamma_k) sum_{i>=k} gamma_i r_i
is returned as a rigorous enclosure: the series is truncated at the
smallest N whose remaining discount mass is below tol * Gamma_k, the
unseen rewards contribute [0, Gamma_{N+1}], and all arithmetic is
outward rounded.

Binary-run rewards take one runs path: the numerator is the discount
mass of the 1-runs, read in the family's mass_form (tail differences,
block sums or ratios to Gamma_k; see discount._Base). Families with no
mass_form, and other rewards, are summed densely (geometric in ratio
form); disc_value_detail says how the path is picked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import discount as _d
from . import reward as _r
from ._guards import guard_index
from .intervals import Interval, hull_of

_U = 2.0**-53


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


def _window_sum(spec: _r.RewardSpec, k: int, m: int) -> Tuple[float, bool]:
    """Sum of r_k..r_m; second element reports exactness."""
    fam = spec.family
    n = m - k + 1
    if fam == "constant":
        return spec.params[0] * n, False
    if fam == "periodic":
        pat = spec.params[0]
        p = len(pat)
        cycle = math.fsum(pat)
        # shift to a common phase: sum over [k..m] = prefix(m) - prefix(k-1)
        def prefix(j: int) -> float:
            full, rem = divmod(j, p)
            return full * cycle + math.fsum(pat[:rem])

        exact = all(float(x).is_integer() for x in pat) and cycle <= 2**52
        return prefix(m) - prefix(k - 1), exact
    if fam == "custom":
        table = spec.params[0]
        if m > len(table):
            raise ValueError(f"index {m} beyond custom reward table")
        return math.fsum(table[k - 1 : m]), False
    ones = _r.ones_count(spec, m) - _r.ones_count(spec, k - 1)
    return float(ones), True


def avg_value(spec: _r.RewardSpec, m: int) -> float:
    """U_{1m}: mean of r_1..r_m.

    Binary sequences use exact integer counting (the result is the
    correctly rounded rational); others use compensated summation.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if spec.family == "constant":
        return spec.params[0]
    if _r.is_binary_runs(spec):
        return _r.ones_count(spec, m) / m
    s, _ = _window_sum(spec, 1, m)
    return min(max(s / m, 0.0), 1.0)


def avg_value_from(spec: _r.RewardSpec, k: int, m: int) -> float:
    """U_{km}: mean of r_k..r_m."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if spec.family == "constant":
        return spec.params[0]
    if _r.is_binary_runs(spec):
        ones = _r.ones_count(spec, m) - _r.ones_count(spec, k - 1)
        return ones / (m - k + 1)
    s, _ = _window_sum(spec, k, m)
    return min(max(s / (m - k + 1), 0.0), 1.0)


# ---------------------------------------------------------------------------
# Discounted value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueDetail:
    """disc_value result with diagnostics.

    interval: enclosure clamped to [0,1]; raw: pre-clamp enclosure;
    truncation: last summed index N (0 for closed-form paths);
    path: constant | product_zero | runs | dense; attained: whether the
    requested tolerance was met before the guard index.
    """

    interval: Interval
    raw: Interval
    truncation: int
    path: str
    attained: bool


def _interval_sum(ivs: Sequence[Interval]) -> Interval:
    if not ivs:
        return Interval.exact(0.0)
    lo = math.fsum(iv.lo for iv in ivs)
    hi = math.fsum(iv.hi for iv in ivs)
    return Interval.widened(lo, hi)  # fsum is correctly rounded; 4 ulp covers it


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

# runs-path work bound: closed-form mass evaluations per value
_SEG_CAP = 200_000
_SEG_FALLBACK = 4_096


def _truncation_index(
    dspec: _d.DiscountSpec, k: int, tail_k: Interval, tol: float, cap: int
) -> Tuple[int, Interval, bool]:
    """Smallest N with Gamma_{N+1}.hi <= tol * Gamma_k.lo (capped), its
    tail, and whether the target was met below the cap."""
    target = tol * tail_k.lo

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
                return cap, tail_at(cap + 1), False
            hi = min(hi * 2, cap)
    lo = k
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_at(mid + 1).hi <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo, tail_at(lo + 1), True


def _one_segments(
    rspec: _r.RewardSpec, k: int, n_trunc: int, cap: Optional[int] = None
) -> Tuple[List[Tuple[int, int]], int, bool]:
    """Half-open 1-run pieces [a,b) intersected with [k, n_trunc + 1).

    Returns (pieces, end, capped): end is the first index not covered
    (n_trunc + 1 normally); capped reports that the piece budget ran out
    first, in which case end is pulled back to the last covered index.
    """
    end = n_trunc + 1
    segs: List[Tuple[int, int]] = []
    gen = rspec.params[0]
    if gen == "explicit":
        pts = list(rspec.params[1])
        open_tail = len(pts) % 2 == 1
        pairs = [(pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2)]
        if open_tail:
            pairs.append((pts[-1], end))
        for a, b in pairs:
            a2, b2 = max(a, k), min(b, end)
            if a2 < b2:
                segs.append((a2, b2))
        return segs, end, False
    n = 1
    if k > 1:
        # jump near the run containing k instead of walking from n = 1
        kn, _ = _r._run_containing(rspec, k)
        while _r.change_points(rspec, n)[0] < kn:
            n += 1
    while True:
        a, b = _r.change_points(rspec, n)
        if a >= end:
            return segs, end, False
        if cap is not None and len(segs) >= cap:
            # stop at a run boundary so the uncovered part starts clean
            return segs, a, True
        a2, b2 = max(a, k), min(b, end)
        if a2 < b2:
            segs.append((a2, b2))
        n += 1


def _runs_value(
    rspec: _r.RewardSpec, dspec: _d.DiscountSpec, k: int, tol: float
) -> Tuple[Interval, Interval, int, bool]:
    """(numerator, denominator, truncation, attained) for binary runs.

    The numerator is the mass of the 1-run pieces in [k, N] plus the rest
    past N. Runs never touch, so each piece is one gap of the sorted piece
    bounds, whose masses come in the family's mass_form: tails (over
    Gamma_k), blocks (gaps over [k, N+1) also sum to a sharp denominator)
    or ratios to Gamma_k (over 1, immune to underflow). Once N covers the
    last change point of an even-length explicit list no 1s remain: the
    rest is dropped and the value attained.
    """
    impl = _d._impl(dspec)
    form = impl.mass_form
    # an even-length explicit list has no 1s past its last change point
    pts = rspec.params[1] if rspec.params[0] == "explicit" else ()
    last = pts[-1] if pts and len(pts) % 2 == 0 else None
    attained = True
    if form == "ratios":
        denom = Interval.exact(1.0)
        n_trunc = _ratio_truncation(impl, k, tol)
        if last is not None:
            # covering the whole stored list costs only len(list)/2 ratio
            # evaluations and makes the numerator exact (zero slack)
            n_trunc = max(n_trunc, last - 1)
    elif form == "blocks":
        target = tol * impl.tail_crude(k).lo
        n_trunc = max(k, impl.index_for_tail_bound(target, k))
        if n_trunc > guard_index():
            n_trunc, attained = guard_index(), False
    else:
        denom = _d.gamma_tail(dspec, k, tol * 0.3 / (k + 1))
        if not denom.lo > 0.0:
            raise _d.UndefinedMetric(f"tail enclosure not positive at k={k}")
        target = tol * denom.lo
        if last is not None:
            n_trunc, rest = max(last - 1, k), Interval.exact(0.0)
        else:
            cap = guard_index() if impl.sums_terms else _N_CAP
            n_trunc, rest, attained = _truncation_index(dspec, k, denom, tol, cap)
    segs, end, capped = _one_segments(
        rspec, k, n_trunc, cap=None if form == "ratios" else _SEG_CAP
    )
    if capped and form == "blocks":
        n_trunc, attained = end - 1, False
    elif capped:
        rest = _d.gamma_tail(dspec, end, 0.25 * tol * denom.lo)
        attained = rest.hi <= target
        if not attained and len(segs) > _SEG_FALLBACK:
            # the tolerance is out of reach by exhaustion; a short prefix
            # yields the same verdict without paying for one closed-form
            # tail evaluation per surviving boundary
            end, segs = segs[_SEG_FALLBACK][0], segs[:_SEG_FALLBACK]
            rest = _d.gamma_tail(dspec, end, 0.25 * tol * denom.lo)
        n_trunc = end - 1

    bounds = {x for seg in segs for x in seg}
    if form == "blocks":
        bounds |= {k, n_trunc + 1}
    bounds = sorted(bounds)
    if form == "ratios":
        rest = impl.tail_ratio(n_trunc + 1, k)
        ratios = [impl.tail_ratio(b, k) for b in bounds]
        masses = [a - b for a, b in zip(ratios, ratios[1:])]
    else:
        masses = _d.segment_masses(dspec, bounds, target) if bounds else []
    if form == "blocks":
        rest = impl.tail_crude(n_trunc + 1)
        denom = _interval_sum(masses) + rest
    gap = {a: j for j, a in enumerate(bounds)}
    s = _interval_sum([masses[gap[a]] for a, _ in segs])
    finite_done = last is not None and last <= n_trunc + 1
    numerator = Interval(max(s.lo, 0.0), s.hi + (0.0 if finite_done else rest.hi))
    return numerator, denom, n_trunc, attained or finite_done


def _ratio_truncation(impl: "_d._Base", k: int, tol: float) -> int:
    """k + d with g**d <= tol/2, which leaves room for the arithmetic pads."""
    d_tail = int(math.ceil(math.log(0.5 * tol) / math.log(impl.g))) + 1
    return k + max(d_tail, 1)


def _dense_relative(
    rspec: _r.RewardSpec, impl: "_d._Base", k: int, tol: float
) -> Tuple[Interval, int]:
    """(numerator, truncation) of the dense sum in ratio form: every weight
    enters as gamma_i / Gamma_k = (Gamma_i / Gamma_k) (1 - g), so the value
    stays computable where the absolute weights underflow to zero. The
    denominator is exactly 1."""
    n_trunc = _ratio_truncation(impl, k, tol)
    parts = []
    for i in range(k, n_trunc + 1):
        r_i = _r.reward_at(rspec, i)
        if r_i != 0.0:
            parts.append(impl.tail_ratio(i, k) * impl.one_minus_g * r_i)
    s = _interval_sum(parts)
    numerator = Interval(max(s.lo, 0.0), s.hi + impl.tail_ratio(n_trunc + 1, k).hi)
    return numerator, n_trunc


def disc_value_detail(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    k: int,
    tol: float = 1e-3,
    strict: bool = True,
) -> ValueDetail:
    """V_{kg} as an enclosure with diagnostics.

    Paths: constant and product_zero are exact. Binary-run rewards take
    the runs path (_runs_value) when the family has a mass_form (tails,
    blocks or ratios); the rest are summed densely, in ratio form for a
    ratios family. Only the structural product_zero test reads a family
    name.

    strict=True raises InconclusiveEnclosure when tol is unattainable
    within the work guard; strict=False returns the best achieved
    enclosure with attained=False.
    """
    if k < 1:
        raise ValueError("index k must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    dspec = dspec.unscaled()  # V is scale-free; identical bits either way
    if rspec.family == "constant":
        a = rspec.params[0]
        iv = Interval.exact(a)
        return ValueDetail(iv, iv, 0, "constant", True)
    if _product_is_zero(rspec, dspec):
        iv = Interval.exact(0.0)
        return ValueDetail(iv, iv, 0, "product_zero", True)

    impl = _d._impl(dspec)
    if _r.is_binary_runs(rspec) and impl.mass_form is not None:
        path = "runs"
        numerator, denom, n_trunc, attained = _runs_value(rspec, dspec, k, tol)
    elif impl.mass_form == "ratios":
        path, denom, attained = "dense", Interval.exact(1.0), True
        numerator, n_trunc = _dense_relative(rspec, impl, k, tol)
    else:
        path = "dense"
        tail_k = _d.gamma_tail(dspec, k, tol * 0.3 / (k + 1))
        if not tail_k.lo > 0.0:
            raise _d.UndefinedMetric(f"tail enclosure not positive at k={k}")
        n_trunc, tail_rest, attained = _truncation_index(
            dspec, k, tail_k, tol, guard_index()
        )
        s = _dense_sum(rspec, dspec, k, n_trunc, tail_k)
        numerator = Interval(max(s.lo, 0.0), s.hi + tail_rest.hi)
        denom = tail_k

    raw = numerator / denom
    clamped = raw.clamp(0.0, 1.0)
    detail = ValueDetail(clamped, raw, n_trunc, path, attained)
    if strict and not attained:
        raise InconclusiveEnclosure(
            f"tolerance {tol} unattainable within the work guard at k={k}", detail
        )
    return detail


def disc_value(
    rspec: _r.RewardSpec, dspec: _d.DiscountSpec, k: int, tol: float = 1e-3
) -> Interval:
    """V_{kg}: enclosure of (1/Gamma_k) sum_{i>=k} gamma_i r_i, clamped."""
    return disc_value_detail(rspec, dspec, k, tol).interval


_DENSE_CHUNK = 1 << 21


def _dense_sum(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    k: int,
    n_trunc: int,
    tail_k: Interval,
) -> Interval:
    """Enclosure of sum_{i=k}^{N} gamma_i r_i by direct evaluation."""
    if n_trunc < k:
        return Interval.exact(0.0)
    length = n_trunc - k + 1
    impl = _d._impl(dspec)
    if length <= (1 << 17):
        total = math.fsum(
            impl.gamma(i) * _r.reward_at(rspec, i) for i in range(k, n_trunc + 1)
        )
        pad = 16.0 * _U * tail_k.hi + math.ulp(total)
        return Interval.widened(total - pad, total + pad)
    total = 0.0
    abs_total = 0.0
    for start in range(k, n_trunc + 1, _DENSE_CHUNK):
        end = min(start + _DENSE_CHUNK - 1, n_trunc)
        ks = np.arange(start, end + 1, dtype=np.int64)
        vec = impl.gamma_vec(ks)
        if vec is None:
            vec = np.array([impl.gamma(int(i)) for i in ks])
        rew = _reward_vec(rspec, start, end)
        part = vec * rew
        total += float(np.sum(part))
        abs_total += float(np.sum(np.abs(part)))
    pad = _U * (300.0 + 2.0 * math.log2(length)) * abs_total + 16.0 * _U * tail_k.hi
    return Interval.widened(total - pad, total + pad)


def _reward_vec(rspec: _r.RewardSpec, start: int, end: int) -> np.ndarray:
    fam = rspec.family
    n = end - start + 1
    if fam == "constant":
        return np.full(n, rspec.params[0])
    if fam == "periodic":
        pat = np.array(rspec.params[0], dtype=np.float64)
        idx = (np.arange(start - 1, end, dtype=np.int64)) % len(pat)
        return pat[idx]
    if fam == "custom":
        table = rspec.params[0]
        if end > len(table):
            raise ValueError(f"index {end} beyond custom reward table")
        return np.array(table[start - 1 : end], dtype=np.float64)
    out = np.zeros(n)
    segs, _, _ = _one_segments(rspec, start, end)
    for a, b in segs:
        out[a - start : b - start] = 1.0
    return out


def subsequence_values(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    which: str,
    n_range: Sequence[int],
    tol: float = 1e-3,
) -> List[Interval]:
    """V at run starts (at_k_n: limsup candidates) or at 0-run starts
    (at_m_n: liminf candidates)."""
    if which not in ("at_k_n", "at_m_n"):
        raise ValueError("which must be 'at_k_n' or 'at_m_n'")
    if rspec.family == "constant":
        return [Interval.exact(rspec.params[0]) for _ in n_range]
    out = []
    for n in n_range:
        kn, mn = _r.change_points(rspec, n)
        idx = kn if which == "at_k_n" else mn
        out.append(disc_value(rspec, dspec, idx, tol))
    return out


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


def _thin_run_indices(ns: List[int], cap: int = 48) -> List[int]:
    if len(ns) <= cap:
        return ns
    lo, hi = math.log(ns[0]), math.log(ns[-1])
    picked = sorted({min(ns, key=lambda n: abs(math.log(n) - t)) for t in
                     [lo + (hi - lo) * j / (cap - 1) for j in range(cap)]})
    return picked


def _augment_schedule(
    rspec: _r.RewardSpec, quantity: str, max_idx: int
) -> Tuple[List[int], List[int]]:
    """Subsequence indices (lo-tagged, hi-tagged) up to max_idx."""
    lo_pts: List[int] = []
    hi_pts: List[int] = []
    if not _r.is_binary_runs(rspec):
        return lo_pts, hi_pts
    stored = _r.run_count(rspec)
    ns: List[int] = []
    n = 1
    while stored is None or n <= stored:
        try:
            kn, mn = _r.change_points(rspec, n)
        except ValueError:
            break
        if kn > max_idx:
            break
        ns.append(n)
        n += 1
    ns = _thin_run_indices(ns)
    for n in ns:
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
    mark the points of the caller's schedule, whatever their tag.
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
    misses = 0
    skipped = 0
    for m, tag in zip(indices, tags):
        if quantity == "U":
            values.append(Interval.rounded(avg_value(rspec, m)))
        else:
            try:
                det = disc_value_detail(rspec, dspec, m, tol / 3.0, strict=False)
            except _d.UndefinedMetric:
                skipped += 1  # V undefined there (discount tail is zero)
                continue
            if not det.attained:
                misses += 1
            values.append(det.interval)
        kept.append(m)
        kept_tags.append(tag)
    if misses:
        notes.append(
            f"{misses} point(s) report best-effort enclosures (guard-limited)"
        )
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
