"""Randomized identity suites: pinned reports and fault sensitivity.

`identity_trials` is deterministic for a seed, so its (trials, checks,
failures) report is pinned for a few seeds. The fault tests swap one
package function for a broken copy and expect the suite to name the
broken identity: the integer mirror has to keep catching what the
package gets wrong.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import horizonlab.corpus as c
import horizonlab.discount as d
import horizonlab.reward as r
import horizonlab.value as v
from horizonlab.intervals import Interval


@pytest.mark.parametrize("seed, trials, checks", [
    (0, 500, 1415),
    (1, 500, 1410),
    (2039908866, 500, 1418),
    (0, 2000, 5624),
])
def test_identity_report_is_pinned(seed, trials, checks) -> None:
    rep = c.identity_trials(seed, trials)
    assert (rep.seed, rep.trials, rep.checks, rep.failures) == (seed, trials, checks, ())
    assert rep.ok


def test_int_quotient_is_the_nearest_float() -> None:
    # the mirror's premise: int / int rounds as float(Fraction) does
    rng = random.Random(11)
    for _ in range(20_000):
        a, b = rng.randrange(8 * 400), 8 * rng.randint(1, 400)
        assert a / b == float(Fraction(a, b))
        a, b = rng.getrandbits(200), rng.getrandbits(120) | 1
        assert a / b == float(Fraction(a, b))


@pytest.mark.parametrize("seed", [0, 1, 7, 3131, 2**40 + 5])
def test_dyadic_table_draws_as_randint_does(seed) -> None:
    # same numbers as randint(0, 8) and the same generator state after
    fast, slow = random.Random(seed), random.Random(seed)
    for length in (0, 1, 9, 200):
        assert c._dyadic_table(fast, length) == [slow.randint(0, 8) for _ in range(length)]
        assert fast.getstate() == slow.getstate()
    assert fast.random() == slow.random()


@pytest.mark.parametrize("n_trials", [0, -3])
def test_identity_trials_needs_one_trial(n_trials) -> None:
    with pytest.raises(ValueError, match="n_trials must be >= 1"):
        c.identity_trials(0, n_trials)


def _failures(seed: int = 0, trials: int = 500) -> tuple:
    rep = c.identity_trials(seed, trials)
    assert rep.failures, "the broken function went unnoticed"
    return rep.failures


def test_average_one_ulp_high_is_caught(monkeypatch) -> None:
    real = v.avg_value
    monkeypatch.setattr(v, "avg_value", lambda *a: math.nextafter(real(*a), math.inf))
    assert any("!= nearest rational" in f for f in _failures())


def test_shifted_discounted_value_leaves_the_mixture_hull(monkeypatch) -> None:
    # V sits well inside the hull of its window averages in most draws, so
    # only a shift of this size reaches the hull edge within 500 trials
    real = v.disc_value

    def shifted(*a, **kw):
        iv = real(*a, **kw)
        return Interval(iv.lo + 0.1, iv.hi + 0.1)

    monkeypatch.setattr(v, "disc_value", shifted)
    assert any("mixture hull" in f for f in _failures())


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_discounted_value_off_by_a_millionth_is_caught(monkeypatch, shift) -> None:
    # far inside the hull of the window averages, but off the table's
    # exact discounted sum, which the enclosure must contain
    real = v.disc_value

    def shifted(*a, **kw):
        iv = real(*a, **kw)
        return Interval(iv.lo + shift, iv.hi + shift)

    monkeypatch.setattr(v, "disc_value", shifted)
    assert any("not enclosing the table's values" in f for f in _failures())


def test_tail_raised_past_its_recurrence_is_caught(monkeypatch) -> None:
    # Gamma_k scaled by 1 + 1e-6 puts its lo above gamma_k + Gamma_{k+1}
    # (scaled alike) by about 1e-6 gamma_k; a uniform shift would cancel
    real = d.gamma_tail

    def raised(*a, **kw):
        t = real(*a, **kw)
        return Interval(t.lo * (1 + 1e-6), t.hi * (1 + 1e-6))

    monkeypatch.setattr(d, "gamma_tail", raised)
    assert any("tail recurrence" in f for f in _failures())


def test_one_entry_window_one_ulp_high_is_caught(monkeypatch) -> None:
    # the recurrence and decomposition checks read r_j as the package's U_jj
    real = v.avg_value_from

    def high(spec, k, m):
        u = real(spec, k, m)
        return math.nextafter(u, math.inf) if k == m else u

    monkeypatch.setattr(v, "avg_value_from", high)
    failures = _failures()
    assert any("recurrence != table" in f for f in failures)
    assert any("decomposition != table" in f for f in failures)


def test_quadratic_window_weight_one_ulp_high_is_caught(monkeypatch) -> None:
    # the telescope's exact check reads the window's gamma_arrays: one
    # weight whose enclosure sits one ulp above the correctly rounded
    # 1 / (j (j+1)) must be named
    real = d.gamma_arrays

    def high(spec, ks):
        lo, hi = real(spec, ks)
        if spec.family == "quadratic":
            j = ks[len(ks) // 2]
            lo[len(ks) // 2] = hi[len(ks) // 2] = math.nextafter(1 / (j * (j + 1)), math.inf)
        return lo, hi

    monkeypatch.setattr(d, "gamma_arrays", high)
    assert any("window weight misses 1/(j(j+1))" in f for f in _failures())


def mixture_reference(rng, tally, label) -> None:
    """corpus._trial_mixture in Fractions, before its integer mirror."""
    g = Fraction(1, 2) if rng.random() < 0.7 else Fraction(1, 4)
    k = rng.randint(1, 60)
    length = k + rng.randint(45, 90)
    nums = c._dyadic_table(rng, length)
    rspec = r.custom_table([x / 8 for x in nums])
    iv = v.disc_value(rspec, d.geometric(float(g)), k, tol=1e-9)
    pre = [0]
    for x in nums:
        pre.append(pre[-1] + x)
    ends = range(k, length + 1)
    u_vals = [(pre[j] - pre[k - 1]) / (8 * (j - k + 1)) for j in ends]

    def exact(x):
        return [Fraction(pre[j] - pre[k - 1], 8 * (j - k + 1))
                for j, u in zip(ends, u_vals) if u == x]

    w_tail = g ** (length - k) * (1 + (length - k) * (1 - g))
    lo = min(exact(min(u_vals))) - w_tail
    hi = max(exact(max(u_vals))) + w_tail
    q = g.denominator
    s = (q - 1) * sum(nums[i - 1] * q ** (length - i) for i in range(k, length + 1))
    den = 8 * q ** (length + 1 - k)
    s_lo, s_hi = Fraction(s, den), Fraction(s + 8, den)
    v_lo, v_hi = Fraction(iv.lo), Fraction(iv.hi)
    tally.expect(
        lo <= v_lo and v_hi <= hi and v_lo <= s_lo and s_hi <= v_hi,
        "{}: V=[{:.9f},{:.9f}] outside mixture hull [{:.9f},{:.9f}] or not enclosing the "
        "table's values [{:.12f},{:.12f}] (g={}, k={})", label, iv.lo, iv.hi,
        float(lo), float(hi), float(s_lo), float(s_hi), g, k,
    )


@pytest.mark.parametrize("shift", [0.0, 1e-6, -1e-6, 1e-3, 0.1, -0.1])
def test_mixture_mirror_decides_as_the_fraction_code(monkeypatch, shift) -> None:
    # same draws, same verdicts, same messages, under faults of each size
    real = v.disc_value

    def shifted(*a, **kw):
        iv = real(*a, **kw)
        return Interval(iv.lo + shift, iv.hi + shift)

    monkeypatch.setattr(v, "disc_value", shifted)
    fast, slow = c._Tally(), c._Tally()
    rng_fast, rng_slow = random.Random(17), random.Random(17)
    for i in range(120):
        c._trial_mixture(rng_fast, fast, f"trial {i}")
        mixture_reference(rng_slow, slow, f"trial {i}")
    assert (fast.checks, fast.failures) == (slow.checks, slow.failures)
    assert rng_fast.getstate() == rng_slow.getstate()
    assert bool(fast.failures) == (abs(shift) >= 1e-6)


def test_deviation_bound_in_ints_is_the_fraction_bound() -> None:
    # |U_km - U_1m| <= |U_1m - U_1,k-1| / (m/(k-1) - 1), which holds with equality
    rng = random.Random(3)
    for _ in range(2000):
        m = rng.randint(2, 300)
        k = rng.randint(2, m)
        den = rng.choice([1, 8])
        b = rng.randint(0, den * (k - 1))
        a = b + rng.randint(0, den * (m - k + 1))
        um, uk1, ukm = Fraction(a, den * m), Fraction(b, den * (k - 1)), Fraction(a - b, den * (m - k + 1))
        lhs, rhs = abs(ukm - um), abs(um - uk1) / (Fraction(m, k - 1) - 1)
        assert lhs == rhs
        scale = den * m * (m - k + 1)
        assert (lhs * scale, rhs * scale) == (abs(m * (a - b) - (m - k + 1) * a), abs((k - 1) * a - m * b))
