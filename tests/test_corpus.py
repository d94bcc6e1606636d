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
