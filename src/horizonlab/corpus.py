"""Worked reward/discount pairs with golden checks, plus randomized
identity suites.

Each example pair couples a reward process with a discount whose limit
behavior is known independently (closed forms, exact counting, or
rational identities); the golden checks assert those facts end to end
through the value and theorem layers. The identity suites draw seeded
random specs and check exact rational identities alongside enclosure
containment, so a regression anywhere in the numeric stack surfaces as
a named failure string rather than a silent drift.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import discount as _d
from . import reward as _r
from . import theorems as _t
from . import value as _v
from .intervals import Interval


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExamplePair:
    number: int
    title: str
    rspec: _r.RewardSpec
    dspec: _d.DiscountSpec
    scan_scale: int
    tolerance: float


@dataclass(frozen=True)
class Example:
    number: int
    title: str
    pairs: Tuple[ExamplePair, ...]


@functools.cache
def examples() -> Dict[int, Example]:
    """The worked examples by number, built on first use: example 6's
    patched discount runs a switch search under the work guard, which
    must not fire at import."""
    return {
        1: Example(1, "constant rewards: both limits equal the constant", (
            ExamplePair(1, "constant reward, power-law tail",
                        _r.constant(0.7), _d.power(1.0), 10**4, 5e-2),
            ExamplePair(1, "constant reward, slow geometric",
                        _r.constant(0.3), _d.geometric(0.9), 10**4, 5e-2),
        )),
        2: Example(2, "alternating rewards under geometric weights: V keeps the phase", (
            ExamplePair(2, "alternating reward, geometric 1/2",
                        _r.periodic([1.0, 0.0]), _d.geometric(0.5), 10**4, 5e-2),
        )),
        3: Example(3, "growing run lengths: quadratic V settles, geometric V splits", (
            ExamplePair(3, "growing runs, quadratic tail",
                        _r.linear_runs(), _d.quadratic(), 10**5, 5e-2),
            ExamplePair(3, "growing runs, geometric 1/2",
                        _r.linear_runs(), _d.geometric(0.5), 10**4, 5e-2),
        )),
        4: Example(4, "4^n runs under a log-squared tail: U splits, V settles at 1/2", (
            ExamplePair(4, "exponential runs, log-squared tail",
                        _r.exponential_runs(), _d.harmonic_like(), 4**11, 5e-2),
        )),
        5: Example(5, "non-monotone weights: V detaches from U", (
            ExamplePair(5, "rewards on odd steps, weights on even steps",
                        _r.periodic([1.0, 0.0]), _d.alternating_zero(), 10**5, 5e-2),
            ExamplePair(5, "growing runs, oscillating-weight tail",
                        _r.linear_runs(), _d.cosine_modulated(), 2**14, 5e-2),
        )),
        6: Example(6, "patched weights: both horizon ratios keep diverging", (
            ExamplePair(6, "growing runs, patched tail",
                        _r.linear_runs(), _d.build_patched([1, 2]), 2**14, 5e-2),
        )),
    }


def _band_inside(est: _v.LimitEstimate, lo: float, hi: float) -> bool:
    return est.verdict == "converged" and lo <= est.band.lo and est.band.hi <= hi


def _scan(ex: ExamplePair, quantity: str) -> _v.LimitEstimate:
    sched = _v.dyadic_schedule(ex.scan_scale)
    dspec = ex.dspec if quantity == "V" else None
    return _v.limit_scan(ex.rspec, dspec, quantity, sched, ex.tolerance)


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _check_example_1(ex: Example) -> List[CheckResult]:
    out = []
    for pair in ex.pairs:
        alpha = pair.rspec.params[0]
        name = pair.dspec.family
        u_vals_ok = all(_v.avg_value(pair.rspec, m) == alpha for m in (1, 137, 10**5))
        out.append(_check(f"U is exactly the constant ({name} pair)", u_vals_ok,
                          f"U(1..m) == {alpha} for m in 1, 137, 1e5"))
        v_ok = True
        detail = ""
        for k in (1, 17):
            iv = _v.disc_value(pair.rspec, pair.dspec, k, tol=1e-9)
            v_ok = v_ok and abs(iv.mid - alpha) <= 1e-9 and iv.width <= 1e-9
            detail = f"V({k})=[{iv.lo:.12f}, {iv.hi:.12f}]"
        out.append(_check(f"V pins the constant ({name})", v_ok, detail))
        u, v = _scan(pair, "U"), _scan(pair, "V")
        out.append(_check(
            f"both scans converge to the constant ({name})",
            _band_inside(u, alpha - 1e-6, alpha + 1e-6)
            and _band_inside(v, alpha - 1e-3, alpha + 1e-3),
            f"U verdict={u.verdict} V verdict={v.verdict} "
            f"V band=[{v.band.lo:.6f}, {v.band.hi:.6f}]"))
    return out


def _check_example_2(ex: Example) -> List[CheckResult]:
    out = []
    pair = ex.pairs[0]
    for g in (0.3, 0.5, 0.9):
        dspec = _d.geometric(g)
        ok = True
        worst = 0.0
        for k in range(1, 51):
            iv = _v.disc_value(pair.rspec, dspec, k, tol=1e-9)
            want = 1.0 / (1.0 + g) if k % 2 == 1 else g / (1.0 + g)
            err = max(abs(iv.lo - want), abs(iv.hi - want))
            worst = max(worst, err)
            ok = ok and err <= 1e-6
        out.append(_check(
            f"V matches the phase closed form for g={g}, k <= 50",
            ok, f"max deviation {worst:.3e}"))
    u = _scan(pair, "U")
    v = _scan(pair, "V")
    out.append(_check("U converges to 1/2", _band_inside(u, 0.499, 0.501),
                      f"verdict={u.verdict} band=[{u.band.lo:.5f}, {u.band.hi:.5f}]"))
    osc = (
        v.verdict == "oscillating"
        and v.alpha is not None
        and v.beta is not None
        and abs(v.alpha - 1.0 / 3.0) <= 2e-3
        and abs(v.beta - 2.0 / 3.0) <= 2e-3
    )
    out.append(_check("V oscillates between 1/3 and 2/3", osc,
                      f"verdict={v.verdict} alpha={v.alpha} beta={v.beta}"))
    return out


def _check_example_3(ex: Example) -> List[CheckResult]:
    out = []
    quad, geo = ex.pairs
    u = _scan(quad, "U")
    v = _scan(quad, "V")
    out.append(_check("U converges near 1/2", _band_inside(u, 0.45, 0.55),
                      f"verdict={u.verdict} band=[{u.band.lo:.5f}, {u.band.hi:.5f}]"))
    out.append(_check("quadratic V converges near 1/2", _band_inside(v, 0.45, 0.55),
                      f"verdict={v.verdict} band=[{v.band.lo:.5f}, {v.band.hi:.5f}]"))
    out.append(_check("quadratic limits agree", u.band.intersects(v.band),
                      "U band vs V band overlap"))
    k20, m20 = _r.change_points(geo.rspec, 20)
    hi = _v.disc_value(geo.rspec, geo.dspec, k20, tol=1e-6)
    lo = _v.disc_value(geo.rspec, geo.dspec, m20, tol=1e-6)
    out.append(_check("geometric V at the 20th run start is within 1e-3 of 1",
                      hi.lo >= 1.0 - 1e-3, f"V({k20})=[{hi.lo:.7f}, {hi.hi:.7f}]"))
    out.append(_check("geometric V at the 20th gap start is within 1e-3 of 0",
                      lo.hi <= 1e-3, f"V({m20})=[{lo.lo:.7f}, {lo.hi:.7f}]"))
    vg = _scan(geo, "V")
    out.append(_check("geometric V oscillates with split near 0 and 1",
                      vg.verdict == "oscillating" and vg.liminf_est.hi <= 0.1
                      and vg.limsup_est.lo >= 0.9,
                      f"verdict={vg.verdict} liminf=[{vg.liminf_est.lo:.4f}, {vg.liminf_est.hi:.4f}]"
                      f" limsup=[{vg.limsup_est.lo:.4f}, {vg.limsup_est.hi:.4f}]"))
    return out


def _check_example_4(ex: Example) -> List[CheckResult]:
    out = []
    pair = ex.pairs[0]
    seqs = _r.lemma1_limits(pair.rspec, 10)
    third, two_thirds = float(Fraction(1, 3)), float(Fraction(2, 3))
    lo_ok = all(iv.lo == iv.hi == third for iv in seqs.alpha_seq)
    hi_ok = all(iv.lo == iv.hi == two_thirds for iv in seqs.beta_seq[1:])
    u_at_starts = all(
        _v.avg_value(pair.rspec, _r.change_points(pair.rspec, n)[0] - 1) == third
        for n in range(2, 11)
    )
    out.append(_check("run-fraction ratio is exactly 1/3", lo_ok,
                      f"alpha_seq[:3]={[iv.lo for iv in seqs.alpha_seq[:3]]}"))
    out.append(_check("upper run-fraction ratio is exactly 2/3 from n=2", hi_ok,
                      f"beta_seq[1:4]={[iv.lo for iv in seqs.beta_seq[1:4]]}"))
    out.append(_check("prefix averages at run starts are exactly 1/3", u_at_starts,
                      "U(1..k_n - 1) == 1/3 for n = 2..10"))
    u = _scan(pair, "U")
    v = _scan(pair, "V")
    out.append(_check("U oscillates between 1/3 and 2/3",
                      u.verdict == "oscillating" and u.alpha is not None
                      and abs(u.alpha - 1.0 / 3.0) <= 2e-3
                      and u.beta is not None and abs(u.beta - 2.0 / 3.0) <= 2e-3,
                      f"verdict={u.verdict} alpha={u.alpha} beta={u.beta}"))
    out.append(_check("V converges near 1/2", _band_inside(v, 0.45, 0.55),
                      f"verdict={v.verdict} band=[{v.band.lo:.5f}, {v.band.hi:.5f}]"))
    return out


def _check_example_5(ex: Example) -> List[CheckResult]:
    out = []
    alt, cos = ex.pairs
    for k in (1, 5, 12):
        iv = _v.disc_value(alt.rspec, alt.dspec, k, tol=1e-9)
        out.append(_check(f"V at k={k} is exactly zero",
                          iv.lo == 0.0 and iv.hi == 0.0,
                          f"got [{iv.lo}, {iv.hi}]"))
    u_end = _v.avg_value(alt.rspec, 10**5)
    out.append(_check("U at 10^5 is exactly 1/2", u_end == 0.5, f"got {u_end!r}"))
    u = _scan(alt, "U")
    out.append(_check("U converges to 1/2", _band_inside(u, 0.499, 0.501),
                      f"verdict={u.verdict} band=[{u.band.lo:.5f}, {u.band.hi:.5f}]"))
    uc = _scan(cos, "U")
    vc = _scan(cos, "V")
    out.append(_check("U converges to 1/2 within 1e-2 (oscillating weights)",
                      _band_inside(uc, 0.49, 0.51),
                      f"verdict={uc.verdict} band=[{uc.band.lo:.5f}, {uc.band.hi:.5f}]"))
    out.append(_check("V converges away from 1/2 (oscillating weights)",
                      _band_inside(vc, 0.30, 0.38),
                      f"verdict={vc.verdict} band=[{vc.band.lo:.5f}, {vc.band.hi:.5f}]"))
    out.append(_check("V band separated from the U band",
                      vc.band.hi < uc.band.lo, "the two limits provably differ"))
    return out


def _check_example_6(ex: Example) -> List[CheckResult]:
    out = []
    pair = ex.pairs[0]
    scan = _d.check_monotone(pair.dspec, 10**4)
    out.append(_check("patched weights stay nonincreasing", scan.monotone,
                      f"first violation: {scan.first_violation}"))
    single = _d.build_patched([1])
    up_w, down_w = _d.patched_witnesses(single)
    grid = sorted(set(_v.dyadic_schedule(2**14)) | set(up_w) | set(down_w))
    diag = _d.growth_diagnostic(single, grid)
    out.append(_check(
        "single-threshold construction realizes both excursions",
        diag.sup_ratio_up > 1.0 and diag.sup_ratio_down > 1.0,
        f"sup k*gamma/Gamma >= {diag.sup_ratio_up:.3f}, "
        f"sup Gamma/(k*gamma) >= {diag.sup_ratio_down:.3f}"))
    u = _scan(pair, "U")
    v = _scan(pair, "V")
    agree = (u.verdict != "converged" or v.verdict != "converged"
             or u.band.intersects(v.band))
    out.append(_check("whenever both scans converge the bands overlap", agree,
                      f"U verdict={u.verdict} V verdict={v.verdict}"))
    return out


_CHECKS: Dict[int, Callable[[Example], List[CheckResult]]] = {
    1: _check_example_1,
    2: _check_example_2,
    3: _check_example_3,
    4: _check_example_4,
    5: _check_example_5,
    6: _check_example_6,
}


def golden_checks(number: int) -> List[CheckResult]:
    """Run the curated assertions for one example."""
    if number not in _CHECKS:
        raise ValueError(f"example number must be in 1..6, got {number}")
    return _CHECKS[number](examples()[number])


def verify_reports(pair: ExamplePair) -> List[_t.VerificationReport]:
    """All implication harnesses over one pair at its tuned scale."""
    return [
        _t.verify_U_implies_V(pair.rspec, pair.dspec, scale=pair.scan_scale, tol=pair.tolerance),
        _t.verify_V_implies_U(pair.rspec, pair.dspec, scale=pair.scan_scale, tol=pair.tolerance),
        _t.verify_U_eq_V(pair.rspec, pair.dspec, scale=pair.scan_scale, tol=pair.tolerance),
    ]


def all_pairs() -> List[ExamplePair]:
    return [pair for ex in examples().values() for pair in ex.pairs]


# ---------------------------------------------------------------------------
# Randomized identity suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    seed: int
    trials: int
    checks: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_MAX_STORED_FAILURES = 50


class _Tally:
    def __init__(self) -> None:
        self.checks = 0
        self.failures: List[str] = []

    def expect(self, cond: bool, msg: str) -> None:
        self.checks += 1
        if not cond and len(self.failures) < _MAX_STORED_FAILURES:
            self.failures.append(msg)


def _dyadic_table(rng: random.Random, length: int) -> Tuple[List[float], List[Fraction]]:
    fracs = [Fraction(rng.randint(0, 8), 8) for _ in range(length)]
    return [float(f) for f in fracs], fracs


def _prefix(fracs: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)]
    for f in fracs:
        out.append(out[-1] + f)
    return out


def _trial_averages(rng: random.Random, tally: _Tally, label: str) -> None:
    """Running averages against an exact rational mirror.

    The package sums dyadic tables exactly, so its averages must equal
    the nearest float of the true rational: equality, not closeness.
    """
    if rng.random() < 0.5:
        length = rng.randint(8, 200)
        table, fracs = _dyadic_table(rng, length)
        rspec = _r.custom_table(table)
    else:
        n_pts = 2 * rng.randint(1, 6)
        pts = sorted(rng.sample(range(1, 400), n_pts))
        rspec = _r.explicit_change_points(pts)
        length = pts[-1] + rng.randint(0, 30)
        fracs = [Fraction(int(_r.reward_at(rspec, i))) for i in range(1, length + 1)]
    pre = _prefix(fracs)
    m = rng.randint(2, length - 1)
    k = rng.randint(1, m)
    u_m = _v.avg_value(rspec, m)
    u_mp = _v.avg_value(rspec, m + 1)
    u_km = _v.avg_value_from(rspec, k, m)
    tally.expect(u_m == float(pre[m] / m), f"{label}: U(1..{m}) != nearest rational")
    tally.expect(u_mp == float(pre[m + 1] / (m + 1)), f"{label}: U(1..{m+1}) != nearest rational")
    tally.expect(
        u_km == float((pre[m] - pre[k - 1]) / (m - k + 1)),
        f"{label}: U({k}..{m}) != nearest rational",
    )
    # recurrence and window decomposition, exactly in rationals
    um, ump, ukm = pre[m] / m, pre[m + 1] / (m + 1), (pre[m] - pre[k - 1]) / (m - k + 1)
    tally.expect((m + 1) * ump == m * um + fracs[m], f"{label}: running-average recurrence broke")
    uk1 = pre[k - 1] / (k - 1) if k > 1 else Fraction(0)
    tally.expect(
        (m - k + 1) * ukm == m * um - (k - 1) * uk1,
        f"{label}: window decomposition broke",
    )
    if k >= 2:
        # |U_km - U_1m| <= |U_1m - U_1,k-1| / (m/(k-1) - 1), literally
        bound = abs(um - uk1) / (Fraction(m, k - 1) - 1)
        tally.expect(
            abs(ukm - um) <= bound,
            f"{label}: future-window deviation bound broke",
        )


def _random_discount(rng: random.Random) -> _d.DiscountSpec:
    pick = rng.randrange(6)
    if pick == 0:
        return _d.geometric(rng.choice([0.25, 0.5, 0.75, 0.9]))
    if pick == 1:
        return _d.quadratic()
    if pick == 2:
        return _d.power(rng.choice([0.7, 1.0, 1.5, 2.0]))
    if pick == 3:
        return _d.finite(rng.randint(50, 5000))
    if pick == 4:
        return _d.step_log()
    return _d.harmonic_like()


def _trial_tail_recurrence(rng: random.Random, tally: _Tally, label: str) -> None:
    """Gamma_k = gamma_k + Gamma_{k+1} must hold within enclosures."""
    dspec = _random_discount(rng)
    hi = dspec.params[0] - 1 if dspec.family == "finite" else 3000
    for _ in range(3):
        k = rng.randint(1, max(hi, 1))
        t_k = _d.gamma_tail(dspec, k)
        rebuilt = _d.gamma_iv(dspec, k) + _d.gamma_tail(dspec, k + 1)
        tally.expect(
            t_k.intersects(rebuilt),
            f"{label}: tail recurrence disjoint for {dspec.family} at k={k}",
        )


def _trial_telescope(rng: random.Random, tally: _Tally, label: str) -> None:
    """Summation by parts over a window, in enclosures and (for the
    quadratic family) exactly in rationals."""
    dspec = _random_discount(rng)
    if dspec.family == "finite":
        dspec = _d.quadratic()
    k = rng.randint(1, 2000)
    w = rng.randint(8, 48)
    n = k + w
    gam = [_d.gamma_iv(dspec, j) for j in range(k, n + 2)]
    lhs = Interval.exact(0.0)
    for j in range(k, n + 1):
        delta = gam[j - k] - gam[j - k + 1]
        lhs = lhs + delta * float(j - k + 1)
    lhs = lhs + gam[n + 1 - k] * float(n - k + 1)
    rhs = Interval.exact(0.0)
    for j in range(k, n + 1):
        rhs = rhs + gam[j - k]
    tally.expect(
        lhs.intersects(rhs),
        f"{label}: telescoped window sum disjoint for {dspec.family} at k={k} w={w}",
    )
    if dspec.family == "quadratic":
        gq = [Fraction(1, j * (j + 1)) for j in range(k, n + 2)]
        lhs_q = sum(
            (gq[j - k] - gq[j - k + 1]) * (j - k + 1) for j in range(k, n + 1)
        ) + gq[n + 1 - k] * (n - k + 1)
        rhs_q = sum(gq[j - k] for j in range(k, n + 1))
        tally.expect(lhs_q == rhs_q, f"{label}: exact telescope broke at k={k} w={w}")


def _trial_mixture(rng: random.Random, tally: _Tally, label: str) -> None:
    """V under dyadic geometric weights is a convex mixture of the
    windowed averages U_{k..j}, so it must land inside their hull
    (padded by the exactly-computable weight of the dropped tail)."""
    g = Fraction(1, 2) if rng.random() < 0.7 else Fraction(1, 4)
    k = rng.randint(1, 60)
    length = k + rng.randint(45, 90)
    table, fracs = _dyadic_table(rng, length)
    rspec = _r.custom_table(table)
    iv = _v.disc_value(rspec, _d.geometric(float(g)), k, tol=1e-9)
    pre = _prefix(fracs)
    u_vals = [
        float((pre[j] - pre[k - 1]) / (j - k + 1)) for j in range(k, length + 1)
    ]
    # mixture weight of all windows ending past the table
    w_tail = float(g ** (length - k) * (1 + (length - k) * (1 - g)))
    lo = min(u_vals) - w_tail - 1e-12
    hi = max(u_vals) + w_tail + 1e-12
    tally.expect(
        lo <= iv.lo and iv.hi <= hi,
        f"{label}: V=[{iv.lo:.9f},{iv.hi:.9f}] outside mixture hull "
        f"[{lo:.9f},{hi:.9f}] (g={g}, k={k})",
    )


def identity_trials(seed: int, n_trials: int = 10_000) -> IdentityReport:
    """Seeded randomized identity checks across the numeric stack.

    Trials rotate over four groups: exact running averages, discount
    tail recurrences, window telescopes, and the mixture containment of
    discounted values. The report is deterministic for a given seed.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = random.Random(seed)
    tally = _Tally()
    groups = (_trial_averages, _trial_tail_recurrence, _trial_telescope, _trial_mixture)
    for i in range(n_trials):
        groups[i % len(groups)](rng, tally, f"trial {i}")
    return IdentityReport(seed, n_trials, tally.checks, tuple(tally.failures))
