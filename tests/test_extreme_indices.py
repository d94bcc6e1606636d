"""Discount primitives where floats stop being exact or underflow,
checked against exact rational oracles: every returned enclosure must
hold the true value, and a positive value never comes back as [0, 0]."""

from __future__ import annotations

from fractions import Fraction

import pytest

import horizonlab as h
import horizonlab.cli as cli
import horizonlab.discount as d


@pytest.mark.parametrize("k", [1, 2, 2**53 - 2, 2**53 - 1, 2**53, 2**60, 2**1023, 10**400],
                         ids=["1", "2", "2^53-2", "2^53-1", "2^53", "2^60", "2^1023", "10^400"])
def test_quadratic_quasi_horizon_holds_k_plus_one(k) -> None:
    iv = d.quasi_horizon(h.quadratic(), k)
    assert iv.lo <= k + 1 <= iv.hi
    if k < 2**53:
        assert iv.lo == iv.hi == k + 1


def test_table_shows_quadratic_past_the_float_range(capsys) -> None:
    code = cli.main(["table", "--discount", "quadratic", "--k", str(10**400), "--format", "csv"])
    assert code == 0
    quasi, ratio = capsys.readouterr().out.splitlines()[1].split('"')[-4::2]
    assert quasi == "[1.7976931348623157e+308, inf]"
    assert ratio == "[0.9999999999999998, 1.0000000000000002]"


def _step_log_tail(k: int) -> Fraction:
    """Gamma_k of step_log by blocks: the 2**n - k + 1 weights 4**-n left
    in block n, then every later block m, 2**(m-1) weights of 4**-m, which
    sum to 2**-(n+1)."""
    n = (k - 1).bit_length()
    return Fraction(2**n - k + 1, 4**n) + Fraction(1, 2 ** (n + 1))


@pytest.mark.parametrize("k", [2**499 + 1, 2**499 + 2**498, 2**520 - 1, 10**155, 2**1000 + 5],
                         ids=["2^499+1", "2^499+2^498", "2^520-1", "10^155", "2^1000+5"])
def test_step_log_tail_past_shift_1000(k) -> None:
    exact = _step_log_tail(k)
    iv = d.gamma_tail(h.step_log(), k)
    assert iv.lo <= exact <= iv.hi
    assert iv.lo > 0.0 and iv.hi <= 2 * exact


@pytest.mark.parametrize("g, k", [(0.5, 1075), (0.5, 1076), (0.5, 3000), (0.25, 538), (0.125, 359)])
def test_dyadic_geometric_weights_stay_positive(g, k) -> None:
    exact = Fraction(g) ** k
    iv = d.gamma_iv(h.geometric(g), k)
    assert iv.lo <= exact <= iv.hi and iv.hi > 0.0
    tail = d.gamma_tail(h.geometric(g), k)
    assert tail.lo <= exact / (1 - Fraction(g)) <= tail.hi and tail.hi > 0.0


def test_half_geometric_tail_is_exact_down_to_the_least_subnormal() -> None:
    assert d.gamma_tail(h.geometric(0.5), 1075) == h.Interval.exact(5e-324)
    assert d.gamma_iv(h.geometric(0.5), 1074) == h.Interval.exact(5e-324)
