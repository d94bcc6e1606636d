"""Discount primitives where floats stop being exact or underflow,
checked against exact rational oracles: every returned enclosure must
hold the true value, and a positive value never comes back as [0, 0]."""

from __future__ import annotations

import json
import math
import sys
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


@pytest.mark.parametrize("g, k", [(0.25, 512), (0.25, 537), (0.25, 538), (0.25, 551), (0.25, 600),
                                  (0.125, 342), (0.125, 359), (0.0625, 300)])
def test_dyadic_geometric_tails_past_the_normal_range_stay_at_or_above_zero(g, k) -> None:
    # Gamma_k = g^k / (1 - g), here a subnormal or below: a correctly rounded int quotient
    exact = Fraction(g) ** k / (1 - Fraction(g))
    tail = d.gamma_tail(h.geometric(g), k)
    assert 0.0 <= tail.lo <= exact <= tail.hi and tail.hi - tail.lo <= 1e-323


@pytest.mark.parametrize("k", [30_154, 31_182, 31_183, 40_000, 10**6])
def test_patched_weights_that_underflow_stay_positive(k) -> None:
    spec = d.build_patched([1, 2])
    last = d._impl(spec).segments[-1]  # the final stretch, geometric with g = 1/2
    exact = Fraction(last.gamma_start) * Fraction(last.g) ** (k - last.start)
    iv = d.gamma_iv(spec, k)
    assert iv.lo <= exact <= iv.hi and iv.hi > 0.0


@pytest.mark.parametrize("k", [2 * 10**154, 10**155, 10**200, 10**300],
                         ids=["2e154", "1e155", "1e200", "1e300"])
def test_cosine_weight_past_the_float_range_of_k_squared(k) -> None:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(400):
        exact = (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * mpmath.mpf(k)))) / mpmath.mpf(k) ** 2
        iv = d.gamma_iv(h.cosine_modulated(), k)
        assert 0.0 <= iv.lo <= exact <= iv.hi
        assert iv.lo <= d.gamma(h.cosine_modulated(), k) <= iv.hi
    # [1/k^2, 3/k^2], each end within 1.5 subnormal ulps, positive where 1/k^2 is
    assert Fraction(iv.hi) <= 3 * Fraction(1, k * k) + Fraction(1e-323)
    assert iv.lo > 0.0 or k * k > 2**1074


@pytest.mark.parametrize("k", [2**539, 2**1023, 2**1024 + 1, 10**400],
                         ids=["2^539", "2^1023", "2^1024+1", "10^400"])
def test_cosine_weight_that_rounds_to_zero_is_zero(k) -> None:
    # 3/k^2 rounds to 0, so does gamma_k <= 3/k^2: no phase is taken
    assert 3 / (k * k) == 0.0
    assert d.gamma(h.cosine_modulated(), k) == 0.0
    assert d.gamma_iv(h.cosine_modulated(), k) == h.Interval(0.0, 5e-324)


@pytest.mark.parametrize("k", [617, 618, 619, 700, 2000])
def test_geometric_weight_past_underflow_stays_at_or_above_zero(k) -> None:
    exact = Fraction(0.3) ** k
    iv = d.gamma_iv(h.geometric(0.3), k)
    assert 0.0 <= iv.lo <= exact <= iv.hi and iv.hi > 0.0
    if k >= 700:  # g^k rounds to 0: [0, 5e-324]
        assert iv == h.Interval(0.0, 5e-324)
    lo, hi = d.gamma_arrays(h.geometric(0.3), [k])
    assert (lo[0], hi[0]) == (iv.lo, iv.hi)


@pytest.mark.parametrize("k", [2**1030, 2**1024 + 1, 10**400], ids=["2^1030", "2^1024+1", "10^400"])
def test_cosine_tail_past_the_normal_range_stays_at_or_above_zero(k) -> None:
    # Gamma_k lies in [1/k, 3/(k-1)] (1 <= 2 + cos <= 3), whose ends are
    # correctly rounded int quotients: within half a subnormal ulp
    lo, hi = Fraction(1, k), Fraction(3, k - 1)
    iv = d.gamma_tail(h.cosine_modulated(), k)
    assert 0.0 <= iv.lo <= lo and hi <= iv.hi <= 3 / (k - 1) + 5e-324


def _ratio_range(k: int, spec) -> tuple:
    """[lo, hi] holding k gamma_k / Gamma_k from the integral sandwich
    F(k) <= Gamma_k <= F(k) + gamma_k (F the integral of the weight past
    k), in mpmath at 60 digits: power (and its even weights, which are
    2^(-1-eps) times the power weights at k/2) and harmonic-like."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(k)
        if spec.family == "harmonic_like":
            ln = mpmath.log(x)
            kg, f, g = 1 / ln**2, 1 / ln, 1 / (x * ln**2)
        else:
            eps = mpmath.mpf(0.5)
            kg = x**-eps
            if spec.family == "power":
                f, g = x**-eps / eps, x ** (-1 - eps)
            else:  # alternating over power, k even: the weights (2j)^(-1-eps), j >= k/2
                m, c = x / 2, mpmath.mpf(2) ** (-1 - eps)
                f, g = c * m**-eps / eps, c * m ** (-1 - eps)
        return kg / (f + g), kg / f


@pytest.mark.parametrize("spec", [h.power(0.5), h.harmonic_like(), h.alternating_zero(h.power(0.5)),
                                  h.power(0.5).with_scale(4.0)],
                         ids=["power", "harmonic-like", "alternating-power", "scaled-power"])
@pytest.mark.parametrize("k", [2**1024 + 2, 10**400], ids=["2^1024+2", "10^400"])
def test_horizon_ratio_past_the_float_range_holds_the_ratio(spec, k) -> None:
    # k gamma_k from its closed form where k has no float (was OverflowError)
    lo, hi = _ratio_range(k, spec)
    iv = d.horizon_ratio(spec, k)
    assert iv.lo <= lo and hi <= iv.hi
    assert iv.hi - iv.lo <= 1e-11 * iv.hi


@pytest.mark.parametrize("g, k", [(0.9, 10**400), (0.5, 10**400), (0.3, 2**1030),
                                  (1 - 2**-53, 2**1024 + 1), (0.75, 2**1025 - 1)],
                         ids=["0.9-10^400", "0.5-10^400", "0.3-2^1030", "1-2^-53-2^1024+1",
                              "0.75-2^1025-1"])
def test_geometric_horizon_ratio_past_the_float_range(g, k) -> None:
    exact = k * (1 - Fraction(g))
    iv = d.horizon_ratio(h.geometric(g), k)
    assert iv.lo <= exact <= iv.hi
    if exact > Fraction(sys.float_info.max):
        assert iv == h.Interval(sys.float_info.max, math.inf)
    else:  # (1 - 2^-53) and 0.75 at 2^1024 + 1 and 2^1025 - 1: inside the float range
        assert iv.hi < math.inf and iv.hi - iv.lo <= 4 * math.ulp(float(exact))


@pytest.mark.parametrize("k", [2**1023 + 1, 2**1024, 2**1024 + 1, 10**400],
                         ids=["2^1023+1", "2^1024", "2^1024+1", "10^400"])
def test_step_log_quasi_horizon_past_the_float_range(k) -> None:
    # Gamma_k / gamma_k = num / 2 in integers (_step_log_tail over 4^-n)
    n = (k - 1).bit_length()
    exact = _step_log_tail(k) * 4**n
    iv = d.quasi_horizon(h.step_log(), k)
    assert iv.lo <= exact <= iv.hi
    if exact > Fraction(sys.float_info.max):
        assert iv == h.Interval(sys.float_info.max, math.inf)


def test_power_weight_past_the_float_range_is_its_pair() -> None:
    k = 10**400
    assert d.gamma(h.power(0.5), k) == 0.0  # k^-1.5 = 1e-600 rounds to 0
    assert d.gamma(h.power(1e-3), k) == math.exp(-1.001 * math.log(k))


def test_table_past_the_float_range_ends_in_exit_codes(capsys) -> None:
    # geometric answers every cell; power's effective horizon (about 3e400)
    # passes the work guard, a typed error with its documented exit code
    k = str(10**400)
    assert cli.main(["table", "--discount", "geometric:0.9", "--k", k, "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.endswith('"[1.7976931348623157e+308, inf]"')
    assert cli.main(["table", "--discount", "power:0.5", "--k", k]) == cli.EXIT_LIMIT_INCONCLUSIVE
    assert "work guard exceeded: effective horizon search exceeded guard" in capsys.readouterr().err


def test_power_value_past_the_float_range(capsys) -> None:
    k = 10**400
    code = cli.main(["eval", "--reward", "periodic:1,0", "--discount", "power:0.5",
                     "--v-at", str(k), "--format", "json"])
    assert code == 0
    v = json.loads(capsys.readouterr().out)["V"]
    assert v["lo"] <= 0.5 <= v["hi"] and v["hi"] - v["lo"] < 1e-9


# ROADMAP item 8's underflow policy: a positive quantity that underflows
# is [0, 5e-324], or tighter from an int quotient, never below 0. These
# three reached below 0 at 10^400 ([-2e-323, 7e-323], [-7e-323, 7e-323]
# and [-2.5e-323, 2.5e-323]); the true values are below 1e-600.
@pytest.mark.parametrize("quantity", [
    lambda k: d.gamma_tail(h.geometric(0.9), k),
    lambda k: d.gamma_tail(h.build_patched([1, 2]), k),
    lambda k: d.gamma_iv(h.power(0.5), k),
], ids=["geometric:0.9 tail", "patched:1,2 tail", "power:0.5 weight"])
def test_underflowed_positive_quantities_stay_at_or_above_zero(quantity) -> None:
    assert quantity(10**400) == h.Interval(0.0, 5e-324)


@pytest.mark.parametrize("k", [10**300, 10**400, 2**1024 + 1, 10**215, 10**214],
                         ids=["10^300", "10^400", "2^1024+1", "10^215", "10^214"])
def test_power_weight_past_underflow_and_its_batch_mirror(k) -> None:
    # k^-1.5 rounds to 0 from about 10^216 on, and is a subnormal just below
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.mpf(k) ** mpmath.mpf(-1.5)
    iv = d.gamma_iv(h.power(0.5), k)
    assert 0.0 <= iv.lo <= exact <= iv.hi
    impl = d._impl(h.power(0.5))
    glo, ghi, _, _ = impl.bound_arrays([k])
    lo, hi = d.gamma_arrays(h.power(0.5), [k])
    assert (glo[0], ghi[0]) == (lo[0], hi[0]) == iv.pair


def _custom_spec_file(tmp_path, kind: str, param: float) -> str:
    path = tmp_path / f"custom_{kind}.json"
    path.write_text(json.dumps({"family": "custom", "params": {
        "table": [0.5, 0.25], "tail": {"type": kind, "param": param}}}))
    return f"@{path}"


def test_custom_tail_models_past_the_float_range(tmp_path, capsys) -> None:
    # k / K and p^(k - K) raised OverflowError in every primitive (exit 1).
    # The geometric model's weight and tail, and the power 1 model's tail
    # (1e-400), are below the least subnormal, so every horizon cell reads
    # "-"; the power 0.01 model's effective horizon (about k) passes the
    # work guard, as power's does
    k = str(10**400)
    for kind, param, tail in [("geometric", 0.5, "[0.0, 5e-324]"), ("power", 1.0, "[0.0, 1.14e-322]")]:
        spec = _custom_spec_file(tmp_path, kind, param)
        assert cli.main(["table", "--discount", spec, "--k", k, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(f'custom,{k},0.0,"{tail}",-,-,-')
    spec = _custom_spec_file(tmp_path, "power", 0.01)
    assert cli.main(["table", "--discount", spec, "--k", k]) == cli.EXIT_LIMIT_INCONCLUSIVE
    assert "work guard exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("k", [2**1024 * 2, 10**400, 10**1000], ids=["2^1025", "10^400", "10^1000"])
@pytest.mark.parametrize("p", [1.0, 0.01])
def test_custom_power_model_past_the_float_range_holds_its_weight_and_tail(k, p) -> None:
    # gamma_k = A (k/K)^(-1-p) and A K/p (k/K)^-p <= Gamma_k <= that + gamma_k
    mpmath = pytest.importorskip("mpmath")
    spec = h.custom([0.5, 0.25], ("power", p))
    with mpmath.workdps(60):
        ratio = mpmath.mpf(k) / 2
        weight = mpmath.mpf(0.25) * ratio ** (-1 - mpmath.mpf(p))
        integral = mpmath.mpf(0.25) * 2 / mpmath.mpf(p) * ratio ** -mpmath.mpf(p)
    g = d.gamma_iv(spec, k)
    assert 0.0 <= g.lo <= weight <= g.hi and g.hi > 0.0
    tail = d.gamma_tail(spec, k)
    assert 0.0 <= tail.lo <= integral and integral + weight <= tail.hi
    assert tail.hi - tail.lo <= 1e-9 * tail.hi + 1e-300


# The tail-bound hints took int(ceil(c / target)), which overflows to a
# float infinity once the target is subnormal (c = 1 for quadratic, and so
# alternating over it; c = 3 for cosine). Normal targets keep the float
# quotient's ceiling, so every hint the benchmark takes is unchanged.
@pytest.mark.parametrize("spec, c", [(h.quadratic(), 1), (h.cosine_modulated(), 3)],
                         ids=["quadratic", "cosine"])
def test_tail_bound_hints_past_the_float_range_of_their_quotient(spec, c) -> None:
    for target in (1e-310, 5e-324, 2.0**-1050 * 3):
        assert d.index_for_tail_bound(spec, target, 1) - 1 == math.ceil(c / Fraction(target))
    for target in (1e-3, 1 / 3, 7.3e-200, sys.float_info.min):
        assert d.index_for_tail_bound(spec, target, 1) - 1 == math.ceil(c / target)


# Four more hints left the float range at a subnormal target: harmonic-
# like's quotient 1 / target (OverflowError at 1e-310), the log of
# target (1 - g) under geometric and patched (ValueError at 5e-324, where
# it underflows to 0) and power's 1 / (target eps) (ZeroDivisionError).
# Each is an int now, from the sum of the logs, and the hints at normal
# targets keep the values they had.
_SUBNORMAL_HINTS = {
    "harmonic-like": (h.harmonic_like(), [1 << 1445, 1 << 8192, 1 << 8192]),
    "geometric": (h.geometric(0.9), [90, 4395, 6748]),
    "patched": (d.build_patched([1, 2]), [30154, 30770, 31127]),
    "power": (h.power(0.5), [10873129, 100000001, 100000001]),
    "alternating-power": (h.alternating_zero(h.power(0.5)), [10873129, 100000001, 100000001]),
}


@pytest.mark.parametrize("spec, normal", list(_SUBNORMAL_HINTS.values()), ids=list(_SUBNORMAL_HINTS))
def test_tail_bound_hints_at_subnormal_targets_are_ints(spec, normal) -> None:
    for target in (1e-310, 5e-324, 2.0**-1050 * 3):
        hint = d.index_for_tail_bound(spec, target, 7)
        assert isinstance(hint, int) and hint >= max(normal), (target, hint)
    assert [d.index_for_tail_bound(spec, t, 7) for t in (1e-3, 1e-200, sys.float_info.min)] == normal


# Run rewards under alternating and cosine past the float range ended in
# tracebacks: the hint's OverflowError at 10^310; under cosine at 10^400 a
# ZeroDivisionError, as Gamma_k's crude lower end is 0 there; a target that
# underflows in alternating's truncation search (10^321); and a cosine
# denominator widened below 0 (10^323). Each now ends not attained or
# undefined, with its documented exit code.
_RUNS_PAST_THE_FLOAT_RANGE = [
    ("alternating", 310, "not attained"),
    ("alternating", 321, "not attained"),
    ("cosine", 310, "not attained"),
    ("cosine", 323, "undefined"),
    ("cosine", 400, "undefined"),
]


@pytest.mark.parametrize("reward", [h.linear_runs(), h.exponential_runs()], ids=["linear", "exponential"])
@pytest.mark.parametrize("discount, e, outcome", _RUNS_PAST_THE_FLOAT_RANGE,
                         ids=[f"{name}-10^{e}" for name, e, _ in _RUNS_PAST_THE_FLOAT_RANGE])
def test_run_values_past_the_float_range_end_in_typed_results(reward, discount, e, outcome) -> None:
    spec = cli.parse_discount(discount)
    if outcome == "undefined":
        with pytest.raises(d.UndefinedMetric, match="tail enclosure not positive"):
            h.disc_value_detail(reward, spec, 10**e, strict=False)
    else:
        det = h.disc_value_detail(reward, spec, 10**e, strict=False)
        assert not det.attained and det.interval == h.Interval(0.0, 1.0)


def test_run_values_past_the_float_range_exit_with_their_codes(capsys) -> None:
    for reward in ("linear-runs", "exponential-runs"):
        for discount, e, code in [("alternating", 310, cli.EXIT_EVAL_INCONCLUSIVE),
                                  ("cosine", 310, cli.EXIT_EVAL_INCONCLUSIVE),
                                  ("cosine", 400, cli.EXIT_PARSE)]:
            argv = ["eval", "--reward", reward, "--discount", discount, "--v-at", str(10**e)]
            assert cli.main(argv) == code, argv
            out, err = capsys.readouterr()
            if code == cli.EXIT_PARSE:
                assert err.startswith("error: tail enclosure not positive at k=")
            else:
                assert "(best effort; tolerance not attained)" in out
