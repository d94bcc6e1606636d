"""Premise checks and numeric harnesses for the value-equivalence results.

Three implications are validated on concrete (reward, discount) pairs:
U-convergence forces V-convergence when sup_k k gamma_k / Gamma_k is
finite and gamma is monotone; V-convergence forces U-convergence when
sup_k Gamma_k / (k gamma_k) is finite and gamma is monotone; and the two
limits agree whenever both exist and gamma is monotone. A fourth harness
covers the future-average variant (windowed means U_{k,m_k} against V).
Premises are labeled satisfied / violated / undecidable-at-scale: a sup
over all k is not machine-checkable, so known families carry analytic
verdicts and other families get grid evidence.

consistent=False is reserved for hard falsification: certified premises,
an established hypothesis limit, and a conclusion band that misses it by
more than the tolerance. Inconclusive scans never falsify.

The two counterexample constructors search a discount for change points
realizing divergence between U and V; searches compare enclosures
strictly and abort on ambiguity rather than guess.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import discount as _d
from . import reward as _r
from . import value as _v
from ._guards import SEARCH_BOUND_DEFAULT
from .intervals import Interval, hull_of

_log = logging.getLogger("horizonlab")


class PremiseFailure(RuntimeError):
    """The discount analytically fails a construction's premise."""


class SearchBoundExceeded(RuntimeError):
    """A construction search passed its index bound before finishing."""


@dataclass(frozen=True)
class PremiseCheck:
    name: str
    status: str  # satisfied | violated | undecidable-at-scale
    evidence: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one implication on one (reward, discount) pair.

    consistent is False only when the premises are certified, the
    hypothesis scan converged, and the conclusion band misses the
    hypothesis band by more than tol.
    """

    theorem: str
    premises: Tuple[PremiseCheck, ...]
    hypothesis: Optional[_v.LimitEstimate]
    conclusion: Optional[_v.LimitEstimate]
    consistent: bool
    log: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Premise evaluation
# ---------------------------------------------------------------------------


def _monotone_premise(dspec: _d.DiscountSpec, scale: int) -> PremiseCheck:
    k_max = min(max(scale, 2), 1 << 16)
    scan = _d.check_monotone(dspec, k_max)
    if not scan.monotone:
        return PremiseCheck(
            "monotone gamma",
            "violated",
            f"gamma_{scan.first_violation + 1} > gamma_{scan.first_violation}",
        )
    if _d.is_monotone_family(dspec):
        return PremiseCheck(
            "monotone gamma",
            "satisfied",
            f"monotone family; scan through k={k_max} clean",
        )
    return PremiseCheck(
        "monotone gamma",
        "undecidable-at-scale",
        f"no violation through k={k_max}, family not known monotone",
    )


def _bounded_premise(dspec: _d.DiscountSpec, which: str, scale: int) -> PremiseCheck:
    name = (
        "sup k*gamma_k/Gamma_k finite" if which == "up" else "sup Gamma_k/(k*gamma_k) finite"
    )
    note = _d.premise_note(dspec)
    if note is not None:
        up_ok, down_ok, text = note
        ok = up_ok if which == "up" else down_ok
        return PremiseCheck(name, "satisfied" if ok else "violated", f"analytic: {text}")
    grid = _v.dyadic_schedule(max(scale, 16))
    diag = _d.growth_diagnostic(dspec, grid)
    label = diag.label_up if which == "up" else diag.label_down
    sup = diag.sup_ratio_up if which == "up" else diag.sup_ratio_down
    evidence = f"grid to {grid[-1]}: trend {label}, observed sup {sup:.4g}"
    if label == "bounded":
        return PremiseCheck(name, "satisfied", evidence)
    if label == "diverging":
        return PremiseCheck(name, "violated", evidence)
    return PremiseCheck(name, "undecidable-at-scale", evidence)


def _bands_overlap(a: Interval, b: Interval, tol: float) -> bool:
    return not (a.lo > b.hi + tol or b.lo > a.hi + tol)


def _implication_report(
    theorem: str,
    premises: List[PremiseCheck],
    hyp: _v.LimitEstimate,
    concl: _v.LimitEstimate,
    tol: float,
) -> VerificationReport:
    log: List[str] = []
    for p in premises:
        log.append(f"premise [{p.name}]: {p.status} ({p.evidence})")
    log.append(
        f"hypothesis {hyp.quantity}: {hyp.verdict}, band [{hyp.band.lo:.6g}, {hyp.band.hi:.6g}]"
    )
    log.append(
        f"conclusion {concl.quantity}: {concl.verdict}, band [{concl.band.lo:.6g}, {concl.band.hi:.6g}]"
    )
    premises_ok = all(p.status == "satisfied" for p in premises)
    if not premises_ok:
        log.append("implication not in force (premise not certified); nothing to falsify")
        consistent = True
    elif hyp.verdict != "converged":
        label = "undecidable-at-scale" if hyp.verdict == "inconclusive" else hyp.verdict
        log.append(f"hypothesis limit not established ({label}); implication vacuous here")
        consistent = True
    else:
        consistent = _bands_overlap(hyp.band, concl.band, tol)
        if consistent:
            log.append("conclusion band overlaps hypothesis band: consistent")
        else:
            log.append("conclusion band misses hypothesis band beyond tol: FALSIFIED")
        if concl.verdict == "inconclusive":
            log.append("conclusion scan inconclusive: undecidable-at-scale")
    return VerificationReport(
        theorem, tuple(premises), hyp, concl, consistent, tuple(log)
    )


# ---------------------------------------------------------------------------
# The three implication harnesses
# ---------------------------------------------------------------------------


def verify_U_implies_V(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    scale: int = 10**5,
    tol: float = 5e-2,
) -> VerificationReport:
    """Check: bounded k*gamma_k/Gamma_k + monotone gamma + U converges
    implies V converges to the same limit. scale is the largest index
    probed by the scans."""
    sched = _v.dyadic_schedule(scale)
    premises = [
        _monotone_premise(dspec, scale),
        _bounded_premise(dspec, "up", scale),
    ]
    u_est = _v.limit_scan(rspec, None, "U", sched, tol)
    v_est = _v.limit_scan(rspec, dspec, "V", sched, tol)
    return _implication_report("avg-to-disc", premises, u_est, v_est, tol)


def verify_V_implies_U(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    scale: int = 10**5,
    tol: float = 5e-2,
) -> VerificationReport:
    """Check: bounded Gamma_k/(k*gamma_k) + monotone gamma + V converges
    implies U converges to the same limit."""
    sched = _v.dyadic_schedule(scale)
    premises = [
        _monotone_premise(dspec, scale),
        _bounded_premise(dspec, "down", scale),
    ]
    v_est = _v.limit_scan(rspec, dspec, "V", sched, tol)
    u_est = _v.limit_scan(rspec, None, "U", sched, tol)
    return _implication_report("disc-to-avg", premises, v_est, u_est, tol)


def verify_U_eq_V(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    scale: int = 10**5,
    tol: float = 5e-2,
) -> VerificationReport:
    """Check: monotone gamma + both limits established implies the limits
    agree. Non-monotone discounts whose limits disagree are logged as the
    expected counterexamples, not failures."""
    sched = _v.dyadic_schedule(scale)
    premises = [_monotone_premise(dspec, scale)]
    u_est = _v.limit_scan(rspec, None, "U", sched, tol)
    v_est = _v.limit_scan(rspec, dspec, "V", sched, tol)
    log: List[str] = []
    p = premises[0]
    log.append(f"premise [{p.name}]: {p.status} ({p.evidence})")
    log.append(f"U: {u_est.verdict}, band [{u_est.band.lo:.6g}, {u_est.band.hi:.6g}]")
    log.append(f"V: {v_est.verdict}, band [{v_est.band.lo:.6g}, {v_est.band.hi:.6g}]")
    both_converged = u_est.verdict == "converged" and v_est.verdict == "converged"
    if p.status != "satisfied":
        consistent = True
        if both_converged and not _bands_overlap(u_est.band, v_est.band, tol):
            log.append(
                "limits disagree under a non-monotone discount: expected counterexample"
            )
        else:
            log.append("monotonicity not certified; equality claim not in force")
    elif not both_converged:
        consistent = True
        log.append("at least one limit not established; equality claim vacuous here")
    else:
        consistent = _bands_overlap(u_est.band, v_est.band, tol)
        log.append(
            "bands overlap: consistent" if consistent else "bands disjoint beyond tol: FALSIFIED"
        )
    return VerificationReport(
        "avg-equals-disc", tuple(premises), u_est, v_est, consistent, tuple(log)
    )


def verify_future_avg(
    rspec: _r.RewardSpec,
    dspec: _d.DiscountSpec,
    horizon_map: Callable[[int], int],
    tol: float = 5e-2,
    scale: int = 10**5,
) -> VerificationReport:
    """Check: monotone gamma + gamma_{m_k}/gamma_k -> 1 + windowed means
    U_{k,m_k} converge implies V converges to the same limit.

    horizon_map gives m_k >= k and must be nondecreasing (validated on
    the probed schedule).
    """
    sched = _v.dyadic_schedule(scale)
    windows: List[Tuple[int, int]] = []
    prev_m = 0
    for k in sched:
        m = int(horizon_map(k))
        if m < k:
            raise ValueError(f"horizon map gives m_k={m} < k={k}")
        if m < prev_m:
            raise ValueError(f"horizon map not nondecreasing at k={k}")
        prev_m = m
        windows.append((k, m))

    premises = [_monotone_premise(dspec, scale)]
    impl = _d._impl(dspec)
    ratios = []
    for k, m in windows:
        if impl.mass_form == "ratios":
            # geometric: gamma_m/gamma_k = g**(m-k) exactly, no underflow
            ratios.append(impl.tail_ratio(m, k))
            continue
        num = _d.gamma_iv(dspec, m)
        den = _d.gamma_iv(dspec, k)
        ratios.append(num / den if den.lo > 0.0 else Interval(0.0, math.inf))
    w = max(1, math.ceil(len(ratios) / 4))
    tail_hull = hull_of(ratios[-w:])
    name = "gamma_{m_k}/gamma_k -> 1"
    span = f"late ratios within [{tail_hull.lo:.4g}, {tail_hull.hi:.4g}]"
    # a ratio still drifting toward 1 is indistinguishable from a slow
    # limit of 1 at finite scale; only a stalled gap counts as violated
    gaps = [abs(1.0 - rv.mid) for rv in ratios]
    prev_gap = max(gaps[-2 * w : -w] or gaps[:1])
    drifting = max(gaps[-w:]) <= 0.7 * prev_gap
    if math.isinf(tail_hull.hi):  # an undefined ratio's placeholder [0, inf]
        premises.append(PremiseCheck(
            name, "undecidable-at-scale",
            "late ratios undefined past the support (gamma_k not certainly positive)"))
    elif 1.0 - tol <= tail_hull.lo and tail_hull.hi <= 1.0 + tol:
        premises.append(PremiseCheck(name, "satisfied", span))
    elif drifting:
        premises.append(
            PremiseCheck(name, "undecidable-at-scale", span + ", still approaching 1")
        )
    elif tail_hull.hi < 1.0 - tol or tail_hull.lo > 1.0 + tol:
        premises.append(PremiseCheck(name, "violated", span))
    else:
        premises.append(
            PremiseCheck(name, "undecidable-at-scale", span + ", straddles 1")
        )

    values = [
        Interval.rounded(_v.avg_value_from(rspec, k, m)) for k, m in windows
    ]
    hyp = _v.classify_scan(
        "U", [k for k, _ in windows], values, ["sched"] * len(windows), tol,
        ["windowed means U_{k,m_k} along the schedule"],
    )
    concl = _v.limit_scan(rspec, dspec, "V", sched, tol)
    return _implication_report("future-avg-to-disc", premises, hyp, concl, tol)


# ---------------------------------------------------------------------------
# Counterexample constructions
# ---------------------------------------------------------------------------


def _certainly(iv: Interval, op: str, bound: Interval) -> Optional[bool]:
    """Three-way interval comparison: True / False when certain, None
    when the enclosures straddle the decision."""
    if op == ">=":
        if iv.lo >= bound.hi:
            return True
        if iv.hi < bound.lo:
            return False
        return None
    if op == "<":
        if iv.hi < bound.lo:
            return True
        if iv.lo >= bound.hi:
            return False
        return None
    raise ValueError(op)


def _require_monotone(dspec: _d.DiscountSpec, bound: int) -> None:
    scan = _d.check_monotone(dspec, min(bound, 1 << 16))
    if not scan.monotone:
        raise PremiseFailure(
            f"discount not monotone (gamma rises at k={scan.first_violation})"
        )


def construct_prop1_reward(
    dspec: _d.DiscountSpec,
    n_max: int,
    search_bound: int = SEARCH_BOUND_DEFAULT,
) -> _r.RewardSpec:
    """Change points under which U converges but V provably splits.

    Needs a monotone discount whose ratio k*gamma_k/Gamma_k diverges.
    m_n is the first index past m_{n-1} where the ratio certainly
    reaches n^2 and Gamma has certainly halved since m_{n-1}+1; k_n is
    the unique index in (m_{n-1}, m_n) with Gamma_{k_n+1} < 2Gamma_{m_n}
    <= Gamma_{k_n}. Comparisons must be interval-certain; straddles
    abort. Emits fewer than n_max runs (with a logged warning) when the
    search bound cuts the scan short.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # Every search comparison is homogeneous in the scale factor, so
    # normalize first: exact dyadic ties (e.g. 2*Gamma_m == Gamma_k at
    # g=1/2) stay decidable and the points cannot depend on scale.
    dspec = dspec.unscaled()
    note = _d.premise_note(dspec)
    if note is not None and note[0]:
        raise PremiseFailure(
            f"k*gamma_k/Gamma_k stays bounded for this discount ({note[2]})"
        )
    _require_monotone(dspec, search_bound)

    points: List[int] = []
    m_prev = 0
    for n in range(1, n_max + 1):
        thresh = Interval.exact(float(n * n))
        half_prev = _d.gamma_tail(dspec, m_prev + 1).scale_exact(0.5)
        m_n: Optional[int] = None
        m = m_prev + 1
        while m <= search_bound:
            ratio_ok = _certainly(_d.horizon_ratio(dspec, m), ">=", thresh)
            tail_ok = _certainly(_d.gamma_tail(dspec, m), "<", half_prev)
            if ratio_ok is None or tail_ok is None:
                raise _d.EnclosureAmbiguous(
                    f"cannot certify the change-point conditions at index {m}"
                )
            if ratio_ok and tail_ok:
                m_n = m
                break
            m += 1
        if m_n is None:
            _log.warning(
                "construction stopped at %d of %d runs: search bound %d reached",
                n - 1, n_max, search_bound,
            )
            break

        double_mn = _d.gamma_tail(dspec, m_n).scale_exact(2.0)

        def crossed(k: int) -> bool:
            c = _certainly(_d.gamma_tail(dspec, k + 1), "<", double_mn)
            if c is None:
                raise _d.EnclosureAmbiguous(
                    f"Gamma straddles the halving threshold at index {k + 1}"
                )
            return c

        lo, hi = m_prev + 1, m_n - 1
        if lo > hi or not crossed(hi):
            raise _d.EnclosureAmbiguous(
                f"no crossing index inside ({m_prev}, {m_n})"
            )
        while lo < hi:  # first k with Gamma_{k+1} certainly < 2 Gamma_{m_n}
            mid = (lo + hi) // 2
            if crossed(mid):
                hi = mid
            else:
                lo = mid + 1
        k_n = lo
        upper_ok = _certainly(_d.gamma_tail(dspec, k_n), ">=", double_mn)
        if upper_ok is None:
            raise _d.EnclosureAmbiguous(
                f"Gamma_{k_n} straddles 2*Gamma_{m_n}"
            )
        if not upper_ok:
            raise _d.EnclosureAmbiguous(
                f"no index in ({m_prev}, {m_n}) carries the two-sided bracket"
            )
        points.extend((k_n, m_n))
        m_prev = m_n
    if not points:
        raise SearchBoundExceeded(
            f"no admissible index at or below search bound {search_bound}"
        )
    return _r.explicit_change_points(points)


def construct_prop2_reward(
    dspec: _d.DiscountSpec,
    n_max: int,
    search_bound: int = SEARCH_BOUND_DEFAULT,
) -> _r.RewardSpec:
    """Change points under which V converges to 0 but U keeps oscillating.

    Needs a monotone discount whose ratio Gamma_k/(k*gamma_k) diverges,
    i.e. k*gamma_k/Gamma_k -> 0. k_n is the first index past 8*k_{n-1}
    where the ratio is certainly at most 1/n^2 (located by bisection on
    the enclosure's upper bound, then walked back to the first certified
    index); m_n = 2*k_n exactly.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # Scale-free for the same reason as the first construction.
    dspec = dspec.unscaled()
    note = _d.premise_note(dspec)
    if note is not None and note[1]:
        raise PremiseFailure(
            f"Gamma_k/(k*gamma_k) stays bounded for this discount ({note[2]})"
        )
    _require_monotone(dspec, search_bound)

    points: List[int] = []
    k_prev = 0
    for n in range(1, n_max + 1):
        start = 8 * k_prev + 1
        if start > search_bound:
            _log.warning(
                "construction stopped at %d of %d runs: search bound %d reached",
                n - 1, n_max, search_bound,
            )
            break
        cap = 1.0 / float(n * n)

        def certified(k: int) -> bool:
            return _d.horizon_ratio(dspec, k).hi <= cap

        hi = start
        while not certified(hi):
            if hi >= search_bound:
                hi = None
                break
            hi = min(hi * 2, search_bound)
        if hi is None:
            _log.warning(
                "construction stopped at %d of %d runs: search bound %d reached",
                n - 1, n_max, search_bound,
            )
            break
        lo = start
        while lo < hi:  # first certified index, assuming a decreasing bound
            mid = (lo + hi) // 2
            if certified(mid):
                hi = mid
            else:
                lo = mid + 1
        k_n = lo
        while k_n - 1 >= start and certified(k_n - 1):
            k_n -= 1
        points.extend((k_n, 2 * k_n))
        k_prev = k_n
    if not points:
        raise SearchBoundExceeded(
            f"no admissible index at or below search bound {search_bound}"
        )
    return _r.explicit_change_points(points)


# ---------------------------------------------------------------------------
# Ratio diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioDiagnostics:
    """Step ratios and weight shares of a discount over a grid.

    step_ratio: gamma_{k+1}/gamma_k; weight_share: gamma_k/Gamma_k;
    tail_ratio: Gamma_{k+1}/Gamma_k. labels holds a trend verdict per
    series; pattern flags which of (step ratio -> 1) and (weight share
    -> 0) the grid exhibits.
    """

    indices: Tuple[int, ...]
    step_ratio: Tuple[Interval, ...]
    weight_share: Tuple[Interval, ...]
    tail_ratio: Tuple[Interval, ...]
    labels: Dict[str, str]
    pattern: str


def _series_label(series: Sequence[Interval], drift: float = 0.1) -> str:
    w = max(1, math.ceil(len(series) / 4))
    tail_hull = hull_of(series[-w:])
    if math.isinf(tail_hull.hi):  # an undefined ratio's placeholder [0, inf]
        return "undefined"
    if 1.0 - drift <= tail_hull.lo and tail_hull.hi <= 1.0 + drift:
        return "tends-to-1"
    if 0.0 <= tail_hull.lo and tail_hull.hi <= drift:
        return "tends-to-0"
    if tail_hull.width <= 0.02 * max(abs(tail_hull.mid), 1.0):
        return f"flat around {tail_hull.mid:.4g}"
    return "no-clear-limit"


def lemma4_diagnostics(
    dspec: _d.DiscountSpec, k_grid: Sequence[int]
) -> RatioDiagnostics:
    """Per-grid-point discount shape ratios with trend labels.

    The expected pattern for smooth discounts is step ratio -> 1 forcing
    weight share -> 0; a grid showing the share collapse without the
    step ratio settling at 1 is flagged as step-like.
    """
    grid = tuple(int(k) for k in k_grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError("grid must be strictly increasing, indices >= 1")
    impl = _d._impl(dspec)
    step: List[Interval] = []
    share: List[Interval] = []
    tail_ratio: List[Interval] = []
    for k in grid:
        if impl.mass_form == "ratios":
            # geometric: all three ratios are exact powers of g
            r1 = impl.tail_ratio(k + 1, k)
            step.append(r1)
            share.append(impl.one_minus_g)
            tail_ratio.append(r1)
            continue
        g_k = _d.gamma_iv(dspec, k)
        g_next = _d.gamma_iv(dspec, k + 1)
        t_k = _d.gamma_tail(dspec, k)
        t_next = _d.gamma_tail(dspec, k + 1)
        step.append(g_next / g_k if g_k.lo > 0.0 else Interval(0.0, math.inf))
        share.append(g_k / t_k if t_k.lo > 0.0 else Interval(0.0, math.inf))
        tail_ratio.append(t_next / t_k if t_k.lo > 0.0 else Interval(0.0, math.inf))
    labels = {
        "step_ratio": _series_label(step),
        "weight_share": _series_label(share),
        "tail_ratio": _series_label(tail_ratio),
    }
    step_to_one = labels["step_ratio"] == "tends-to-1"
    share_to_zero = labels["weight_share"] == "tends-to-0"
    if labels["weight_share"] == "undefined":
        pattern = ("undefined: the ratios are undefined past the support "
                   "(Gamma_k not certainly positive)")
    elif step_to_one and share_to_zero:
        pattern = "smooth: step ratio -> 1 and weight share -> 0"
    elif share_to_zero:
        pattern = "step-like: weight share -> 0 without step ratio -> 1"
    elif step_to_one:
        pattern = "anomalous: step ratio -> 1 but weight share not collapsing"
    elif labels["weight_share"].startswith("flat around"):
        pattern = (
            "proportional: weight share stays "
            + labels["weight_share"].removeprefix("flat around ")
            + "; the lookahead never lengthens"
        )
    else:
        pattern = (
            f"mixed: step ratio {labels['step_ratio']}, "
            f"weight share {labels['weight_share']}"
        )
    return RatioDiagnostics(
        grid, tuple(step), tuple(share), tuple(tail_ratio), labels, pattern
    )
