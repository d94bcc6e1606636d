"""Worked reward/discount pairs with golden checks, plus randomized
identity suites.

Each example pair couples a reward process with a discount whose limit
behavior is known independently (closed forms, exact counting, or
rational identities); the golden checks assert those facts end to end
through the value and theorem layers. The identity suites draw seeded
random specs and check exact rational identities alongside enclosure
containment, so a regression anywhere in the numeric stack surfaces as
a named failure string rather than a silent drift.

The suites mirror their reward tables in integers over a denominator of
8 (dyadic tables) or 1 (0/1 lists). Each float the package must match is
one correctly rounded int / int quotient, so == against it is exact
(identity_trials says why).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import discount as _d
from . import reward as _r
from . import theorems as _t
from . import value as _v
from .intervals import Pair, widened_arrays, widened_pair


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

    def expect(self, cond: bool, fmt: str, *args) -> None:
        """Count one check; format fmt with args only if it fails."""
        self.checks += 1
        if not cond and len(self.failures) < _MAX_STORED_FAILURES:
            self.failures.append(fmt.format(*args))


def _dyadic_table(rng: random.Random, length: int) -> List[int]:
    """Numerators of a table of eighths: entry i is nums[i] / 8.

    Each entry is rng.randint(0, 8), drawn as random.Random does it: one
    getrandbits(4), drawn again while it is 9 or more. The loop is that
    draw inline, so it gives the same numbers and leaves the generator in
    the same state, without randint's call chain per entry."""
    bits = rng.getrandbits
    nums = []
    for _ in range(length):
        x = bits(4)
        while x > 8:
            x = bits(4)
        nums.append(x)
    return nums


def _trial_averages(rng: random.Random, tally: _Tally, label: str) -> None:
    """Running averages against an exact integer mirror.

    The package sums these tables exactly, so its averages must equal
    the nearest float of the true rational: equality, not closeness.
    An explicit list has r_i = 1 on [p_{2j}, p_{2j+1}).

    The running-average recurrence (m+1) U_{1,m+1} = m U_1m + r_{m+1} and
    the window decomposition (m-k+1) U_km = m U_1m - (k-1) U_{1,k-1} add
    one entry r_j to the windows above: the package's one-entry window
    U_jj must be the table's r_j. The paper's future-window bound
    |U_km - U_1m| <= |U_1m - U_1,k-1| / (m/(k-1) - 1), both sides times
    den m (m-k+1), checks the bound itself on the mirror's integers, where
    it holds with equality, and not the package.
    """
    if rng.random() < 0.5:
        length = rng.randint(8, 200)
        nums, den = _dyadic_table(rng, length), 8
        rspec = _r.custom_table([x / den for x in nums])
    else:
        n_pts = 2 * rng.randint(1, 6)
        pts = sorted(rng.sample(range(1, 400), n_pts))
        rspec = _r.explicit_change_points(pts)
        length = pts[-1] + rng.randint(0, 30)
        nums, den = [0] * length, 1
        for a, b in zip(pts[::2], pts[1::2]):
            nums[a - 1:b - 1] = [1] * (b - a)
    pre = list(itertools.accumulate(nums, initial=0))
    m = rng.randint(2, length - 1)
    k = rng.randint(1, m)
    p_m, p_k = pre[m], pre[k - 1]  # m U_1m = p_m / den, (k-1) U_{1,k-1} = p_k / den
    tally.expect(_v.avg_value(rspec, m) == p_m / (den * m),
                 "{}: U(1..{}) != nearest rational", label, m)
    tally.expect(_v.avg_value(rspec, m + 1) == pre[m + 1] / (den * (m + 1)),
                 "{}: U(1..{}) != nearest rational", label, m + 1)
    tally.expect(_v.avg_value_from(rspec, k, m) == (p_m - p_k) / (den * (m - k + 1)),
                 "{}: U({}..{}) != nearest rational", label, k, m)
    tally.expect(_v.avg_value_from(rspec, m + 1, m + 1) == nums[m] / den,
                 "{}: r_{} of the running-average recurrence != table", label, m + 1)
    tally.expect(_v.avg_value_from(rspec, k, k) == nums[k - 1] / den,
                 "{}: r_{} of the window decomposition != table", label, k)
    if k >= 2:
        tally.expect(abs(m * (p_m - p_k) - (m - k + 1) * p_m) <= abs((k - 1) * p_m - m * p_k),
                     "{}: future-window deviation bound broke", label)


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
        tally.expect(t_k.intersects(rebuilt), "{}: tail recurrence disjoint for {} at k={}",
                     label, dspec.family, k)


def _window_sums(lo: np.ndarray, hi: np.ndarray) -> Tuple[Pair, Pair]:
    """Both sides of summation by parts, as (lo, hi) pairs, over the weights
    gamma_k..gamma_{n+1} with ends lo[j], hi[j] for gamma_{k+j}:
    sum_{j=k}^{n} (gamma_j - gamma_{j+1}) (j-k+1) + gamma_{n+1} (n-k+1) and
    sum_{j=k}^{n} gamma_j. The differences and products replay Interval's
    - and * (by c > 0: lo c and hi c) on the arrays; each side is one
    math.fsum per end and one widening, as value._interval_sum sums."""
    n1 = lo.size - 1  # n - k + 1
    d_lo, d_hi = widened_arrays(lo[:-1] - hi[1:], hi[:-1] - lo[1:])
    c = np.arange(1.0, n1 + 1.0)
    t_lo, t_hi = widened_arrays(np.append(d_lo * c, lo[-1] * n1), np.append(d_hi * c, hi[-1] * n1))
    return (widened_pair(math.fsum(t_lo.tolist()), math.fsum(t_hi.tolist())),
            widened_pair(math.fsum(lo[:-1].tolist()), math.fsum(hi[:-1].tolist())))


def _trial_telescope(rng: random.Random, tally: _Tally, label: str) -> None:
    """Summation by parts over a window, in enclosures (_window_sums, from
    one gamma_arrays call); for the quadratic family each weight of the
    window must also hold the exact gamma_j = 1 / (j (j+1)), compared in
    integers with the ends read by float.as_integer_ratio()."""
    dspec = _random_discount(rng)
    if dspec.family == "finite":
        dspec = _d.quadratic()
    k = rng.randint(1, 2000)
    w = rng.randint(8, 48)
    n = k + w
    lo, hi = _d.gamma_arrays(dspec, range(k, n + 2))
    (l_lo, l_hi), (r_lo, r_hi) = _window_sums(lo, hi)
    tally.expect(l_lo <= r_hi and r_lo <= l_hi,
                 "{}: telescoped window sum disjoint for {} at k={} w={}", label, dspec.family, k, w)
    if dspec.family == "quadratic":
        ends = [(j * (j + 1), a.as_integer_ratio(), b.as_integer_ratio())
                for j, a, b in zip(range(k, n + 2), lo.tolist(), hi.tolist())]
        tally.expect(all(p * m <= q and s <= r * m for m, (p, q), (r, s) in ends),
                     "{}: window weight misses 1/(j(j+1)) at k={} w={}", label, k, w)


def _trial_mixture(rng: random.Random, tally: _Tally, label: str) -> None:
    """V under dyadic geometric weights g = 1/q is a convex mixture of the
    windowed averages U_{k..j}, so it must land inside their hull,
    widened by the weight g^(L-k) (1 + (L-k)(1-g)) of the windows that end
    past the table (L its length). A window average is a / b with
    b = 8 (j-k+1) <= 728; two that differ do so by at least 1/728^2, far
    more than a rounding, so the first window whose float is extreme
    holds the exact extreme.

    V must also enclose every value the table allows:
    S_L = sum_{i=k}^{L} (1-g) g^(i-k) r_i plus anything in [0, g^(L+1-k)]
    for the rewards past it, that is [s, s + 8] / (8 q^(L+1-k)) with
    s = (q-1) sum_i nums_i q^(L-i) (by Horner); this side of the check
    sees an error in V down to the enclosure's own width. Every
    comparison is exact, cross-multiplied in integers, with V's ends read
    by float.as_integer_ratio()."""
    q = 2 if rng.random() < 0.7 else 4
    k = rng.randint(1, 60)
    length = k + rng.randint(45, 90)
    nums = _dyadic_table(rng, length)
    rspec = _r.custom_table([x / 8 for x in nums])
    iv = _v.disc_value(rspec, _d.geometric(1 / q), k, tol=1e-9)
    pre = list(itertools.accumulate(nums, initial=0))
    u_vals = [(pre[j] - pre[k - 1]) / (8 * (j - k + 1)) for j in range(k, length + 1)]
    j_lo, j_hi = u_vals.index(min(u_vals)), u_vals.index(max(u_vals))
    a_lo, b_lo = pre[k + j_lo] - pre[k - 1], 8 * (j_lo + 1)
    a_hi, b_hi = pre[k + j_hi] - pre[k - 1], 8 * (j_hi + 1)
    big_q = q ** (length + 1 - k)
    w_num = q + (length - k) * (q - 1)  # the tail weight times q^(L+1-k)
    acc = 0
    for x in nums[k - 1:]:
        acc = acc * q + x
    s, den = (q - 1) * acc, 8 * big_q
    (p_lo, r_lo), (p_hi, r_hi) = iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio()
    lo_num, hi_num = a_lo * big_q - w_num * b_lo, a_hi * big_q + w_num * b_hi
    tally.expect(
        lo_num * r_lo <= p_lo * b_lo * big_q and p_hi * b_hi * big_q <= hi_num * r_hi
        and p_lo * den <= s * r_lo and (s + 8) * r_hi <= p_hi * den,
        "{}: V=[{:.9f},{:.9f}] outside mixture hull [{:.9f},{:.9f}] or not enclosing the "
        "table's values [{:.12f},{:.12f}] (g=1/{}, k={})", label, iv.lo, iv.hi,
        lo_num / (b_lo * big_q), hi_num / (b_hi * big_q), s / den, (s + 8) / den, q, k,
    )


def identity_trials(seed: int, n_trials: int = 10_000) -> IdentityReport:
    """Seeded randomized identity checks across the numeric stack.

    Trials rotate over four groups: exact running averages, discount
    tail recurrences, window telescopes, and the mixture containment of
    discounted values. The report is deterministic for a given seed.

    The averages and mixture groups mirror their reward tables in
    integers: numerators over a denominator of 8 (dyadic tables) or 1
    (explicit 0/1 lists, built from the change points, not through the
    package). The expected average over a window is the single quotient
    (pre[m] - pre[k-1]) / (den (m-k+1)) of two ints; CPython's int true
    division is correctly rounded, as is float(Fraction(a, b)), so
    comparing the package's float with it by == checks equality with the
    nearest float of the exact rational.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = random.Random(seed)
    tally = _Tally()
    groups = (_trial_averages, _trial_tail_recurrence, _trial_telescope, _trial_mixture)
    for i in range(n_trials):
        groups[i % len(groups)](rng, tally, f"trial {i}")
    return IdentityReport(seed, n_trials, tally.checks, tuple(tally.failures))
