"""Average and discounted value computation plus limit scanning.

Oracles: exact rational averages for run prefixes (ones counts divide
evenly), the closed form 1/(1+g) vs g/(1+g) for the 10-periodic reward
under geometric decay, and the independent summation oracle in
oracles.py for spot cross-checks of discounted enclosures.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import horizonlab as h
import horizonlab.discount as d
import horizonlab.reward as r
import horizonlab.value as v
from horizonlab import InconclusiveEnclosure, Interval

import oracles


# -- exact averages -----------------------------------------------------


def test_average_of_period_two_prefix_is_half() -> None:
    assert v.avg_value(h.periodic([1.0, 0.0]), 6) == 0.5


@pytest.mark.parametrize("n", range(2, 9))
def test_average_before_run_start_is_exactly_one_third(n: int) -> None:
    # Up to k_n - 1 = 4^(n-1) - 1 steps, exactly (4^(n-1) - 1)/3 are ones.
    k_n = r.change_points(h.exponential_runs(), n)[0]
    assert v.avg_value(h.exponential_runs(), k_n - 1) == 1.0 / 3.0


def test_average_of_linear_runs_approaches_half() -> None:
    assert abs(v.avg_value(h.linear_runs(), 10**6) - 0.5) < 1e-2


def test_future_average_examples() -> None:
    assert v.avg_value_from(h.linear_runs(), 5, 5) == 1.0
    assert v.avg_value_from(h.linear_runs(), 2, 2) == 0.0
    assert v.avg_value_from(h.periodic([1.0, 0.0]), 2, 5) == 0.5
    got = v.avg_value_from(h.linear_runs(), 5 * 10**5, 10**6)
    lo, hi = oracles.avg_bounds("linear", None, 5 * 10**5, 10**6)
    assert lo <= got <= hi
    assert abs(got - 0.5) < 2e-2


def test_average_decomposition_identity() -> None:
    # m U_1m = (k-1) U_1,k-1 + (m-k+1) U_km.
    spec = h.linear_runs()
    k, m = 17, 1000
    lhs = m * v.avg_value(spec, m)
    rhs = (k - 1) * v.avg_value(spec, k - 1) + (m - k + 1) * v.avg_value_from(
        spec, k, m)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- discounted enclosures ----------------------------------------------


@pytest.mark.parametrize("g", [0.3, 0.5, 0.9])
def test_period_two_geometric_closed_form(g: float) -> None:
    rspec = h.periodic([1.0, 0.0])
    dspec = h.geometric(g)
    for k in range(1, 51):
        want = 1.0 / (1.0 + g) if k % 2 == 1 else g / (1.0 + g)
        iv = v.disc_value(rspec, dspec, k, tol=1e-7)
        assert abs(iv.mid - want) < 1e-6, (g, k)
        assert iv.width < 1e-6


def test_constant_reward_collapses_to_a_point() -> None:
    det = v.disc_value_detail(h.constant(0.7), h.power(1.5), 9)
    assert det.interval == Interval(0.7, 0.7)
    assert det.path == "constant" and det.attained


def test_linear_quadratic_value_near_half() -> None:
    iv = v.disc_value(h.linear_runs(), h.quadratic(), 10**4, tol=1e-4)
    assert iv.lo >= 0.47 and iv.hi <= 0.53
    assert iv.width <= 2e-4


@pytest.mark.parametrize("rspec,kind,payload,dspec,fam,params,k", [
    (h.linear_runs(), "linear", None, h.quadratic(), "quadratic", (), 4321),
    (h.linear_runs(), "linear", None, h.geometric(0.9), "geometric", (0.9,), 2000),
    (h.exponential_runs(), "exponential", None, h.step_log(), "step_log", (), 17),
    (h.periodic([1.0, 0.0]), "periodic", [1.0, 0.0], h.geometric(0.5),
     "geometric", (0.5,), 13),
    (h.linear_runs(), "linear", None, h.finite(5000), "finite", (5000,), 123),
])
def test_discounted_values_agree_with_independent_summation(
    rspec, kind, payload, dspec, fam, params, k
) -> None:
    olo, ohi = oracles.disc_bounds(kind, payload, fam, params, k, n_terms=10**7)
    got = v.disc_value(rspec, dspec, k, tol=1e-3)
    assert got.lo <= ohi and olo <= got.hi, (got, (olo, ohi))
    if got.width >= ohi - olo:
        # The oracle is tighter, so its midpoint must land inside.
        assert got.lo <= 0.5 * (olo + ohi) <= got.hi


def test_deep_geometric_indices_stay_finite_and_tight() -> None:
    det = v.disc_value_detail(h.linear_runs(), h.geometric(0.5), 10**6 + 3,
                              tol=1e-6)
    assert 0.0 <= det.interval.lo <= det.interval.hi <= 1.0
    assert det.interval.width < 1e-6
    assert det.attained


def test_discounted_value_is_scale_free() -> None:
    import dataclasses
    base = h.quadratic()
    scaled = dataclasses.replace(base, scale=7.0)
    for k in (1, 9, 170):
        assert v.disc_value(h.linear_runs(), base, k) == v.disc_value(
            h.linear_runs(), scaled, k)


def test_value_recurrence_holds_as_enclosures() -> None:
    # V_k Gamma_k = gamma_k r_k + V_{k+1} Gamma_{k+1}.
    rspec, dspec = h.linear_runs(), h.quadratic()
    for k in (1, 4, 9, 40):
        lhs = v.disc_value(rspec, dspec, k, tol=1e-9) * d.gamma_tail(dspec, k)
        rhs = Interval.exact(d.gamma(dspec, k) * r.reward_at(rspec, k)) + (
            v.disc_value(rspec, dspec, k + 1, tol=1e-9)
            * d.gamma_tail(dspec, k + 1))
        assert lhs.intersects(rhs), (k, lhs, rhs)


def test_strict_mode_raises_when_tolerance_unattainable() -> None:
    with pytest.raises(InconclusiveEnclosure) as exc_info:
        v.disc_value_detail(h.linear_runs(), h.cosine_modulated(), 3,
                            tol=1e-13, strict=True)
    detail = exc_info.value.detail
    assert not detail.attained
    assert detail.interval.width > 1e-13
    lax = v.disc_value_detail(h.linear_runs(), h.cosine_modulated(), 3,
                              tol=1e-13, strict=False)
    assert not lax.attained
    assert lax.interval.intersects(detail.interval)


def test_truncation_depth_grows_as_tolerance_shrinks() -> None:
    loose = v.disc_value_detail(h.linear_runs(), h.quadratic(), 10, tol=1e-3)
    tight = v.disc_value_detail(h.linear_runs(), h.quadratic(), 10, tol=1e-7)
    assert tight.truncation >= loose.truncation
    assert tight.interval.width <= loose.interval.width


# -- structured subsequences -------------------------------------------


def test_run_boundary_values_split_under_geometric_decay() -> None:
    # V from a run start k_n tracks the limsup, from a 0-run start m_n the
    # liminf
    runs = [h.change_points(h.linear_runs(), n) for n in range(5, 11)]
    at_k = [v.disc_value(h.linear_runs(), h.geometric(0.5), kn) for kn, _ in runs]
    at_m = [v.disc_value(h.linear_runs(), h.geometric(0.5), mn) for _, mn in runs]
    assert all(iv.lo > 0.99 for iv in at_k[2:])
    assert all(iv.hi < 0.01 for iv in at_m[2:])
    # Monotone separation as the runs lengthen.
    assert at_k[-1].lo >= at_k[0].lo - 1e-12
    assert at_m[-1].hi <= at_m[0].hi + 1e-12


# -- limit scans --------------------------------------------------------


def test_dyadic_schedule_shape() -> None:
    assert v.dyadic_schedule(10) == [1, 2, 4, 8, 10]
    assert v.dyadic_schedule(10, start=3) == [3, 6, 10]
    sched = v.dyadic_schedule(10**6)
    assert sched[0] == 1 and sched[-1] == 10**6
    assert all(a < b for a, b in zip(sched, sched[1:]))


def test_average_scan_of_linear_runs_converges_to_half() -> None:
    est = v.limit_scan(h.linear_runs(), None, "U", v.dyadic_schedule(10**5),
                       tol=1e-2)
    assert est.quantity == "U"
    assert est.verdict == "converged"
    assert 0.48 <= est.band.lo and est.band.hi <= 0.52
    assert est.band.contains(0.5)


def test_average_scan_of_exponential_runs_oscillates() -> None:
    est = v.limit_scan(h.exponential_runs(), None, "U",
                       v.dyadic_schedule(4**8))
    assert est.verdict == "oscillating"
    assert abs(est.alpha - 1.0 / 3.0) < 1e-3
    assert abs(est.beta - 2.0 / 3.0) < 1e-3
    assert est.liminf_est.hi < est.limsup_est.lo


def test_discounted_scan_of_period_two_geometric_oscillates() -> None:
    est = v.limit_scan(h.periodic([1.0, 0.0]), h.geometric(0.5), "V",
                       v.dyadic_schedule(10**4))
    assert est.quantity == "V"
    assert est.verdict == "oscillating"
    assert abs(est.alpha - 1.0 / 3.0) < 1e-3
    assert abs(est.beta - 2.0 / 3.0) < 1e-3


def test_discounted_scan_skips_zero_tail_points() -> None:
    est = v.limit_scan(h.linear_runs(), h.finite(100), "V",
                       v.dyadic_schedule(1000))
    assert max(est.indices) <= 100
    assert any("skipped" in note and "zero tail" in note for note in est.notes)


def test_scan_notes_name_the_limit_that_was_hit(monkeypatch) -> None:
    # past the 10^500 truncation ceiling, whatever the work guard
    monkeypatch.setenv("HORIZONLAB_GUARD", str(10**9))
    est = v.limit_scan(h.exponential_runs(), h.harmonic_like(), "V", [1, 64, 1024])
    misses = [n for n in est.notes if "best-effort" in n]
    assert misses == [f"{len(est.indices)} point(s) report best-effort "
                      "enclosures (truncation ceiling 10^500)"]
    # cosine sums its terms, so a low guard stops it
    monkeypatch.setenv("HORIZONLAB_GUARD", "20000")
    est = v.limit_scan(h.linear_runs(), h.cosine_modulated(), "V", [64, 1024])
    misses = [n for n in est.notes if "best-effort" in n]
    assert len(misses) == 1 and misses[0].endswith(" enclosures (guard-limited)")
    # the run budget sits near 8e10 for linear runs: too far to reach here
    k = 100
    at_budget = v.ValueDetail(Interval(0.0, 1.0), Interval(0.0, 1.0),
                              v._budget_end(h.linear_runs(), k), "runs", False)
    assert v._miss_cause(h.linear_runs(), k, at_budget) == "run budget of 200000 pieces"


def thin_run_indices_reference(ns, cap=48):
    """value._thin_run_indices before it bisected: one min over ns per target."""
    if len(ns) <= cap:
        return ns
    lo, hi = math.log(ns[0]), math.log(ns[-1])
    return sorted({min(ns, key=lambda n: abs(math.log(n) - t)) for t in
                   [lo + (hi - lo) * j / (cap - 1) for j in range(cap)]})


def thin_run_indices_walk_reference(ns, cap=48):
    """value._thin_run_indices over the walked list of run indices, before
    it took their count: one bisection over the logs of ns per target."""
    if len(ns) <= cap:
        return ns
    logs = [math.log(n) for n in ns]
    picked = set()
    for t in [logs[0] + (logs[-1] - logs[0]) * j / (cap - 1) for j in range(cap)]:
        i = bisect.bisect_left(logs, t)  # |ln n - t| falls up to i, then rises
        if i == len(logs) or (i and abs(logs[i - 1] - t) <= abs(logs[i] - t)):
            i -= 1
            while i and abs(logs[i - 1] - t) == abs(logs[i] - t):
                i -= 1
        picked.add(ns[i])
    return sorted(picked)


def test_thin_run_indices_pick_as_min_did() -> None:
    rng = random.Random(48)
    for n_max in [*range(60), 999, 1000, *(rng.randint(60, 3000) for _ in range(10))]:
        ns = list(range(1, n_max + 1))
        for cap in (2, 3, 10, 48):
            assert v._thin_run_indices(n_max, cap) == thin_run_indices_reference(ns, cap), (n_max, cap)


def test_thin_run_indices_pick_as_the_walk_did() -> None:
    rng = random.Random(2006)
    n_maxes = [*range(2001), *(2**j + e for j in range(1, 21) for e in (-1, 1)),
               *(rng.randint(10**5, 10**6) for _ in range(3))]
    for n_max in n_maxes:
        want = thin_run_indices_walk_reference(list(range(1, n_max + 1)))
        assert v._thin_run_indices(n_max) == want, n_max


def test_thin_run_indices_take_the_first_of_a_float_log_tie() -> None:
    # past 2**53 thousands of neighbours share one float log, and each
    # target's pick is the first n nearest to it, as min over the whole list
    # takes it: min over a window that holds the nearest tie and its start.
    # Here the top target rounds above ln n_max, whose tie then wins
    n_max = 14_853_217_099_695_609_141
    top, picks = math.log(n_max), v._thin_run_indices(n_max)
    for j in range(42, 48):  # the targets past 2**53
        t = top * j / 47
        mid = min(int(math.exp(t)), n_max)
        window = range(mid - 150_000, min(mid + 20_000, n_max) + 1)
        first = min(window, key=lambda n: abs(math.log(n) - t))
        assert math.log(window[0]) < math.log(first)
        assert window[-1] == n_max or math.log(first) == t  # none nearer past it
        assert picks[j - 48] == first, j


def test_scan_to_10_22_picks_its_runs_without_walking_them(monkeypatch) -> None:
    # the walk took one change_points call per run up to the last index:
    # about 7e10 of them here
    calls = []
    change_points = r.change_points

    def counted(spec, n):
        calls.append(n)
        if len(calls) > 2000:
            raise AssertionError("walked the runs")
        return change_points(spec, n)

    monkeypatch.setattr(r, "change_points", counted)
    est = v.limit_scan(h.linear_runs(), h.power(0.5), "V", [100, 2**53 + 1, 2**70, 10**22], 1e-3)
    assert est.verdict == "converged"
    assert abs(est.alpha - 0.5) < 1e-3 and abs(est.beta - 0.5) < 1e-3


def test_scan_serialization_helpers_are_consistent() -> None:
    est = v.limit_scan(h.linear_runs(), None, "U", v.dyadic_schedule(10**3))
    payload = v.limit_estimate_to_dict(est)
    assert payload["quantity"] == "U"
    assert payload["verdict"] == est.verdict
    rows = v.limit_estimate_csv_rows(est)
    assert rows[0][0] == "index"
    assert len(rows) - 1 == len(est.indices)


# -- summation-by-parts rest on nonincreasing discounts --------------------
#
# The oracle shares no code with the package: a numpy brute-force head with
# an explicit rounding budget (weights from oracles.py, reward bits from the
# run-length definitions), then a bracket of the rest from the run structure,
# as in the benchmark's checker. Its width is far below the package's, so
# an overlap pins the package enclosure to the truth.

_U = 2.0**-53


def _oracle_weights(family: str, params: tuple, ks: np.ndarray) -> np.ndarray:
    if family == "harmonic_like":
        kf = np.maximum(ks, 2).astype(np.float64)
        ln = np.log(kf)
        return 1.0 / (kf * ln * ln)
    return oracles.weight_vec(family, params, ks)


def _oracle_tail(family: str, params: tuple, n: int):
    """mpmath bracket of Gamma_n."""
    if family == "harmonic_like":
        ln = mpmath.log(n)
        return 1 / ln, 1 / ln + 1 / (n * ln**2)
    lo, hi = oracles.tail_bounds(family, params, n)
    return mpmath.mpf(lo), mpmath.mpf(hi)


def _brute(family: str, params: tuple, kind: str, k: int, end: int):
    """Brackets of sum_{k<=i<=end} gamma_i r_i and of sum gamma_i."""
    parts, weights = [], []
    for start in range(k, end + 1, 1 << 20):
        ks = np.arange(start, min(start + (1 << 20) - 1, end) + 1, dtype=np.int64)
        w = _oracle_weights(family, params, ks)
        parts.append(float(np.dot(w, oracles.reward_vec(kind, None, ks))))
        weights.append(float(w.sum()))
    total = math.fsum(weights)
    err = mpmath.mpf((32 + end - k + len(weights) + 8) * _U * total)
    s, t = mpmath.mpf(math.fsum(parts)), mpmath.mpf(total)
    return (s - err, s + err), (t - err, t + err)


def _linear_runs_oracle(family: str, params: tuple, k: int):
    """V_k of linear runs: brute force up to the start s of an odd oracle run
    J (run j has length j, odd runs hold the 1s), then the odd-run mass from
    J on lies in [(G - E)/2, (G + m_J + E)/2] for nonincreasing gamma, with
    G = Gamma_s, m_J <= J gamma_s and E = G/(J+1) (bench/check.py)."""
    j = math.isqrt(2 * (k + (1 << 21)))
    j += j % 2 == 0
    s = j * (j - 1) // 2 + 1
    with mpmath.workdps(40):
        num, den = _brute(family, params, "linear", k, s - 1)
        g_lo, g_hi = _oracle_tail(family, params, s)
        gamma_s = mpmath.mpf(float(_oracle_weights(family, params, np.array([s]))[0]))
        m_j = j * gamma_s * (1 + 64 * _U)
        e = g_hi / (j + 1)
        lo = (num[0] + (g_lo - e) / 2) / (den[1] + g_hi)
        hi = (num[1] + (g_hi + m_j + e) / 2) / (den[0] + g_lo)
        return float(lo), float(hi)


def _exponential_harmonic_oracle(k: int):
    """V_k of exponential runs under harmonic_like: oracle run j covers
    [2^(j-1), 2^j), odd runs hold the 1s. Runs up to 2^1000 are bracketed
    one by one by the integral sandwich; from the odd run 1001 on, run
    masses do not increase (gamma_2i + gamma_2i+1 <= gamma_i), so the odd
    runs carry between half of the tail and half of it plus run 1001."""
    f = lambda x: 1 / (x * mpmath.log(x) ** 2)  # noqa: E731
    big = lambda x: 1 / mpmath.log(x)  # noqa: E731
    with mpmath.workdps(60):
        lo = hi = mpmath.mpf(0)
        for j in range(1, 1001, 2):
            a, b = max(k, 2 ** (j - 1)), 2**j - 1
            if a > b:
                continue
            lo += big(a) - big(b + 1)
            hi += f(a) + big(a) - big(b)
        g, m_next = big(2**1000), f(2**1000) + big(2**1000) - big(2**1001 - 1)
        lo, hi = lo + g / 2, hi + (g + f(2**1000) + m_next) / 2
        return float(lo / (big(k) + f(k))), float(hi / big(k))


_LIN = h.linear_runs()
# 1-run start, 0-run start and an index inside a run, at two scales
_LIN_KS = [k for n in (7, 43) for k in (*r.change_points(_LIN, n), r.change_points(_LIN, n)[0] + 9)]


@pytest.mark.parametrize("dspec,family,params", [
    (h.quadratic(), "quadratic", ()),
    (h.power(0.5), "power", (0.5,)),
    (h.harmonic_like(), "harmonic_like", ()),
    (h.step_log(), "step_log", ()),
], ids=["quadratic", "power0.5", "harmonic", "step_log"])
@pytest.mark.parametrize("k", _LIN_KS)
def test_linear_runs_rest_enclosure_contains_the_oracle(dspec, family, params, k) -> None:
    det = v.disc_value_detail(_LIN, dspec, k, tol=1e-3)
    assert det.path == "runs" and det.attained
    lo, hi = _linear_runs_oracle(family, params, k)
    assert hi - lo < 0.6 * det.interval.width, (lo, hi, det.interval)
    assert det.interval.lo <= hi and lo <= det.interval.hi, (det.interval, (lo, hi))


@pytest.mark.parametrize("k", [4096, 5000, 8192, 70_000])
def test_exponential_runs_harmonic_rest_contains_the_oracle(k: int) -> None:
    det = v.disc_value_detail(h.exponential_runs(), h.harmonic_like(), k, tol=0.05 / 3)
    assert det.attained
    # bit length of the truncation: the parent's [0, Gamma] rest needed about
    # ln N >= ln(k) / tol; the band of width 1/3 needs a fraction of that
    assert det.truncation.bit_length() < 0.8 * math.log(k) / (0.05 / 3) / math.log(2)
    lo, hi = _exponential_harmonic_oracle(k)
    assert hi - lo < 0.25 * det.interval.width, (lo, hi, det.interval)
    assert det.interval.lo <= hi and lo <= det.interval.hi, (det.interval, (lo, hi))


def test_linear_harmonic_is_attained_with_few_run_evaluations(monkeypatch) -> None:
    # the parent enumerated 200,019 runs here and still missed the tolerance
    calls = []
    change_points = r.change_points

    def counted(spec, n):
        calls.append(n)
        return change_points(spec, n)

    monkeypatch.setattr(r, "change_points", counted)
    det = v.disc_value_detail(_LIN, h.harmonic_like(), 600, tol=1e-3, strict=False)
    assert det.attained
    assert len(calls) < 5000


def _periodic_step_log_value(pattern, k: int, blocks: int = 200) -> Fraction:
    """V_k of a 0/1 pattern under step_log, block by block: block n
    (2^(n-1) < i <= 2^n, weight 4^-n) holds a count of ones fixed by the
    residues. Blocks past n = blocks weigh 2^-(blocks+1) in all, so the
    result is exact to a relative 2^(n_k - blocks) for k in block n_k."""
    p = len(pattern)
    ones = [j + 1 for j, x in enumerate(pattern) if x]  # residues i mod p, 1-based

    def count(x: int) -> int:  # ones among r_1..r_x
        full, rem = divmod(x, p)
        return full * len(ones) + sum(1 for j in ones if j <= rem)

    n_k = (k - 1).bit_length()
    num = Fraction(count(2**n_k) - count(k - 1), 4**n_k)
    num += sum(Fraction(count(2**n) - count(2 ** (n - 1)), 4**n) for n in range(n_k + 1, blocks + 1))
    den = (2**n_k - k + 1) * Fraction(1, 4**n_k) + Fraction(1, 2 ** (n_k + 1))
    return num / den


def test_periodic_step_log_dense_branch_contains_the_exact_value() -> None:
    truth = _periodic_step_log_value([1, 0, 1], 64, blocks=2000)
    assert abs(truth - Fraction(37, 55)) < Fraction(1, 2**1900)
    det = v.disc_value_detail(h.periodic([1.0, 0.0, 1.0]), h.step_log(), 64, tol=1e-6)
    assert det.path == "dense" and det.attained
    assert det.interval.lo <= 37 / 55 <= det.interval.hi
    assert det.interval.width <= 1e-6
    # the parent summed 64,379,413 terms here; the envelope needs a few thousand
    assert det.truncation < 1 << 15


@pytest.mark.parametrize("pattern", [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0]])
@pytest.mark.parametrize("k", [1, 64, 1000, 1001])
def test_periodic_step_log_values_match_exact_blocks(pattern, k: int) -> None:
    det = v.disc_value_detail(h.periodic(pattern), h.step_log(), k, tol=1e-9)
    truth = float(_periodic_step_log_value(pattern, k))
    assert det.interval.lo <= truth <= det.interval.hi
    assert det.interval.width <= 1e-9


@pytest.mark.parametrize("dspec,family,params", [
    (h.quadratic(), "quadratic", ()),
    (h.power(0.5), "power", (0.5,)),
])
def test_periodic_rest_enclosure_contains_brute_force(dspec, family, params) -> None:
    pattern = [1.0, 0.25, 0.0, 1.0]
    det = v.disc_value_detail(h.periodic(pattern), dspec, 300, tol=1e-7)
    lo, hi = oracles.disc_bounds("periodic", pattern, family, params, 300, n_terms=10**6)
    assert det.interval.lo <= hi and lo <= det.interval.hi


def _cosine_grid():
    path = pathlib.Path(__file__).resolve().parent / "golden" / "cosine_v_grid.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("k, cut", [(150, 2_000), (700, 4_000), (2534, 10_000)])
def test_cosine_runs_values_sum_the_block_table_only_near_k(monkeypatch, k, cut) -> None:
    # the linear-runs x cosine V of the numeric_tails benchmark: every
    # block-table query ends below the closed form's cut (with the
    # first-order closed form the k = 2534 V read the table to 210,462)
    calls = _spy_block_queries(monkeypatch)
    det = v.disc_value_detail(r.linear_runs(), h.cosine_modulated(), k, 1e-3)
    ends = [args[-1] if name == "mass" else args[0][-1] for name, args in calls]
    assert det.attained and ends and max(ends) < cut


def _spy_block_queries(monkeypatch):
    """Record every _BlockSums query, through either entry, as (entry, args)."""
    calls = []
    for name in ("mass", "mass_arrays"):
        def spy(self, *args, _real=getattr(d._BlockSums, name), _name=name):
            calls.append((_name, args))
            return _real(self, *args)

        monkeypatch.setattr(d._BlockSums, name, spy)
    return calls


# recorded before tails took their one piece through _BlockSums.mass
_TABLE_CELLS_AT_150 = {
    "cosine": "cosine_modulated,150,6.513429223426278e-05,"
              '"[0.013564478208379981, 0.013564522864563095]",144,'
              '"[208.25402016488533, 208.25470576661917]","[0.7202718394661273, 0.7202742107030513]"',
    "alternating": "alternating_zero,150,4.415011037527594e-05,"
                   '"[0.003344443283051802, 0.003344445112164444]",149,'
                   '"[75.75164036112318, 75.7516817905248]","[1.9801540567085116, 1.9801551396764494]"',
    "patched:1,2": "patched,150,3.0464436085977205e-07,"
                   '"[3.8228010428533566e-05, 3.8228010428535816e-05]",87,'
                   '"[125.48405728123706, 125.48405728124494]","[1.1953709758029882, 1.1953709758030657]"',
}


@pytest.mark.parametrize("discount", list(_TABLE_CELLS_AT_150))
def test_table_cell_takes_its_tails_one_piece_each(monkeypatch, capsys, discount) -> None:
    # the numeric_tails table op: every tail asks the block table for one
    # piece, through mass; no query goes through the batch entry
    import horizonlab.cli as cli

    calls = _spy_block_queries(monkeypatch)
    assert cli.main(["table", "--discount", discount, "--k", "150", "--format", "csv"]) == 0
    header = "family,k,gamma_k,Gamma_k,eff_horizon,quasi_horizon,k*gamma/Gamma\n"
    assert capsys.readouterr().out == header + _TABLE_CELLS_AT_150[discount] + "\n"
    assert calls and {name for name, _ in calls} == {"mass"}


@pytest.mark.parametrize("reward", ["linear", "exponential", "explicit", "explicit_odd"])
def test_cosine_runs_values_keep_truncation_and_never_widen(reward) -> None:
    # recorded before the far masses and the rest took their closed forms
    grid = _cosine_grid()
    rspec = {"linear": r.linear_runs(), "exponential": r.exponential_runs()}.get(reward)
    if rspec is None:
        rspec = r.explicit_change_points(grid[reward])
    for case in (c for c in grid["cases"] if c["reward"] == reward):
        det = v.disc_value_detail(rspec, h.cosine_modulated(), case["k"], case["tol"], strict=False)
        old = Interval(case["lo"], case["hi"])
        assert (det.truncation, det.attained) == (case["truncation"], case["attained"]), case
        assert det.interval.intersects(old) and det.interval.width <= old.width, (case, det)


# ---------------------------------------------------------------------------
# Periodic rewards under the non-monotone discounts: summation-by-parts rests
# ---------------------------------------------------------------------------


def _nonmonotone_grid():
    path = pathlib.Path(__file__).resolve().parent / "golden" / "nonmonotone_v_grid.json"
    return json.loads(path.read_text())["cases"]


_NONMONOTONE = {"alternating": h.alternating_zero(), "cosine": h.cosine_modulated()}


@pytest.mark.parametrize("family", sorted(_NONMONOTONE))
def test_nonmonotone_periodic_values_shrink_truncation_and_never_widen(family) -> None:
    # recorded while these values still took the rest [0, Gamma_{N+1}]
    for case in (c for c in _nonmonotone_grid() if c["discount"] == family):
        det = v.disc_value_detail(h.periodic(case["pattern"]), _NONMONOTONE[family],
                                  case["k"], case["tol"], strict=False)
        old = Interval(case["lo"], case["hi"])
        assert det.attained == case["attained"] and det.truncation <= case["truncation"], case
        assert det.interval.intersects(old) and det.interval.width <= old.width, (case, det)


def _alternating_periodic_numerator(pattern, k: int):
    """sum_{i>=k} gamma_i r_i for alternating over quadratic, in mpmath.

    With L = lcm(2, P), each even residue class c mod L holds the reward
    r_c, and sum_{n>=0} 1/((a+nL)(a+nL+1)) = (psi((a+1)/L) - psi(a/L)) / L
    from its first index a >= k: exact, as 1/(x(x+1)) = 1/x - 1/(x+1)."""
    period = len(pattern) * (1 + len(pattern) % 2)
    total = mpmath.mpf(0)
    for a in range(k, k + period):
        rew = pattern[(a - 1) % len(pattern)]
        if a % 2 == 0 and rew:
            total += rew * (mpmath.digamma(mpmath.mpf(a + 1) / period)
                            - mpmath.digamma(mpmath.mpf(a) / period)) / period
    return total


_ORACLE_KS = [1, 2, 3, 100, 101, 2417, 10**8 - 1, 10**8 + 2]  # the last two: at the guard


def _value_at(rspec, dspec, k: int, tol: float):
    """V at k; at the guard (10^8) tol 1e-4 may be out of reach under
    cosine, whose summation-by-parts radius there, the reward's envelope
    constant times the variation bound, is up to 7.1e-5 of Gamma_k."""
    det = v.disc_value_detail(rspec, dspec, k, tol, strict=False)
    assert det.attained or (k >= 10**8 - 1 and tol < 1e-3 and dspec == h.cosine_modulated())
    if det.attained:
        assert det.interval.width <= tol
    return det


@pytest.mark.parametrize("pattern", [[1.0, 0.0, 1.0], [0.0, 1.0], [1.0, 1.0, 0.0, 0.5]])
@pytest.mark.parametrize("k", _ORACLE_KS)
@pytest.mark.parametrize("tol", [1e-3, 1e-4])
def test_alternating_periodic_value_contains_the_digamma_oracle(pattern, k, tol) -> None:
    det = _value_at(h.periodic(pattern), h.alternating_zero(), k, tol)
    with mpmath.workdps(40):
        true = (_alternating_periodic_numerator(pattern, k)
                / _alternating_periodic_numerator([1.0], k))
        assert mpmath.mpf(det.interval.lo) <= true <= mpmath.mpf(det.interval.hi), (det, true)


def _decimated_runs_oracle(gen: str, k: int, n_trunc: int, mass):
    """[S / W_k, (S + W_{N+1}) / W_k] in mpmath, which holds V_k of linear
    or exponential runs under alternating: S sums the even weights w_j =
    gamma_2j of each 1-run [k_n, m_n) cut to [k, N], the decimated run
    ceil(k_n / 2) <= j < ceil(m_n / 2), and the rewards past N add at most
    the tail W_{N+1}. mass(a, b) is sum_{a <= j < b} w_j (b None: to
    infinity). Linear runs: k_n = 2n^2 - 3n + 2, m_n = k_n + 2n - 1;
    exponential runs: k_n = 4^(n-1), m_n = 2 k_n."""
    half = lambda i: -(-i // 2)  # noqa: E731
    total, n = mpmath.mpf(0), 1
    while True:
        a = 2 * n * n - 3 * n + 2 if gen == "linear" else 4 ** (n - 1)
        if a > n_trunc:
            break
        b = a + 2 * n - 1 if gen == "linear" else 2 * a
        a, b = max(a, k), min(b, n_trunc + 1)
        if a < b:
            total += mass(half(a), half(b))
        n += 1
    whole = mass(half(k), None)
    return total / whole, (total + mass(half(n_trunc + 1), None)) / whole


def _quadratic_even_mass(a: int, b):
    """sum_{a <= j < b} 1/(2j (2j+1)) = sum (1/(2j) - 1/(2j+1)), by digamma."""
    part = lambda x: mpmath.digamma(mpmath.mpf(x) + 0.5) - mpmath.digamma(x)  # noqa: E731
    return (part(a) - (0 if b is None else part(b))) / 2


@functools.lru_cache(maxsize=None)
def _euler_maclaurin_coefficients(s):
    """B_2i/(2i)! s(s+1)...(s+2i-2) for i = 1..6."""
    out, rising = [], s
    for i in range(1, 7):
        out.append(mpmath.bernoulli(2 * i) / mpmath.factorial(2 * i) * rising)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return out


def _hurwitz_zeta(s, a: int):
    """zeta(s, a) = sum_{j >= a} j^-s: mpmath.zeta below a = 500, and from
    there its Euler-Maclaurin series a^(1-s)/(s-1) + a^-s/2 +
    sum_{i<=6} B_2i/(2i)! s(s+1)...(s+2i-2) a^(-s-2i+1), whose error is
    below the next term, under 1e-38 of the sum for s = 1.5 (mpmath.zeta
    takes about 0.3 ms a call, too slow for the 14,000 run ends here)."""
    if a < 500:
        return mpmath.zeta(s, a)
    x = mpmath.mpf(a)
    power, step = x ** (1 - s), 1 / (x * x)
    total = power / (s - 1) + power / (2 * x)
    for c in _euler_maclaurin_coefficients(s):
        power *= step
        total += c * power
    return total


def _power_half_even_mass(a: int, b):
    """sum_{a <= j < b} (2j)^-1.5 = 2^-1.5 (zeta(1.5, a) - zeta(1.5, b)), by Hurwitz zeta."""
    s = mpmath.mpf(1.5)
    return (_hurwitz_zeta(s, a) - (0 if b is None else _hurwitz_zeta(s, b))) / mpmath.mpf(2) ** s


@pytest.mark.parametrize("k", [10, 999, 5000])
@pytest.mark.parametrize("gen", ["linear", "exponential"])
def test_alternating_runs_values_contain_the_digamma_oracle(gen, k) -> None:
    # binary runs under alternating take the runs path: the masses of their
    # decimated runs come off the even-weight table
    rspec = h.linear_runs() if gen == "linear" else h.exponential_runs()
    det = v.disc_value_detail(rspec, h.alternating_zero(), k, 1e-3)
    assert det.path == "runs" and det.interval.width <= 1e-3
    with mpmath.workdps(40):
        lo, hi = _decimated_runs_oracle(gen, k, det.truncation, _quadratic_even_mass)
        assert mpmath.mpf(det.interval.lo) <= lo <= hi <= mpmath.mpf(det.interval.hi), (det, lo, hi)


def test_alternating_power_runs_value_at_the_guard_contains_the_zeta_oracle() -> None:
    # summed densely to the guard, this value took 21-29 s; from the table, well under one
    det = v.disc_value_detail(h.linear_runs(), h.alternating_zero(h.power(0.5)), 1000, 1e-3, strict=False)
    assert (det.path, det.truncation, det.attained) == ("runs", 10**8, False)
    with mpmath.workdps(30):
        for a in (500, 501, 10**4, 10**7):  # the series agrees with mpmath.zeta
            assert abs(_hurwitz_zeta(mpmath.mpf(1.5), a) / mpmath.zeta(1.5, a) - 1) < 1e-28
        lo, hi = _decimated_runs_oracle("linear", 1000, det.truncation, _power_half_even_mass)
        assert mpmath.mpf(det.interval.lo) <= lo <= hi <= mpmath.mpf(det.interval.hi), (det, lo, hi)


_COS_HEAD = 1 << 17


@functools.lru_cache(maxsize=None)
def _cosine_terms():
    """g(i) = (2 + cos(pi sqrt(2i))) / i^2 for 1 <= i < _COS_HEAD, in mpmath
    (index 0 holds 0)."""
    with mpmath.workprec(120):
        return [mpmath.mpf(0)] + [
            (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * i))) / mpmath.mpf(i) ** 2
            for i in range(1, _COS_HEAD)]


@functools.lru_cache(maxsize=None)
def _cosine_class_heads(step: int):
    """heads[i] = sum of g(i + n step) over n >= 0 with i + n step < _COS_HEAD."""
    terms = _cosine_terms()
    heads = terms + [mpmath.mpf(0)] * step
    with mpmath.workprec(120):
        for i in range(_COS_HEAD - 1, 0, -1):
            heads[i] = terms[i] + heads[i + step]
    return heads


def _cosine_periodic_numerator(pattern, k: int):
    """(T, e): sum_{i>=k} g(i) r_i in [T - e, T + e]: the terms below
    max(k, _COS_HEAD) exactly, then one Euler-Maclaurin tail per residue."""
    head_end = max(k, _COS_HEAD)
    period = len(pattern)
    with mpmath.workprec(200):
        heads = _cosine_class_heads(period) if k < _COS_HEAD else None
        total = mpmath.fsum(pattern[(i - 1) % period] * heads[i]
                            for i in range(k, min(k + period, head_end))) if heads else 0
        err = mpmath.mpf(0)
        for a in range(head_end, head_end + period):
            rew = pattern[(a - 1) % period]
            if rew:
                t, e = oracles.cosine_class_tail(a, period)
                total, err = total + rew * t, err + rew * e
        return total, err


@pytest.mark.parametrize("pattern", [[1.0, 0.0, 1.0], [1.0, 0.0], [1.0, 1.0, 0.0, 0.5]])
@pytest.mark.parametrize("k", _ORACLE_KS)
@pytest.mark.parametrize("tol", [1e-3, 1e-4])
def test_cosine_periodic_value_contains_the_mpmath_oracle(pattern, k, tol) -> None:
    det = _value_at(h.periodic(pattern), h.cosine_modulated(), k, tol)
    with mpmath.workprec(200):
        num, e_num = _cosine_periodic_numerator(pattern, k)
        den, e_den = _cosine_periodic_numerator([1.0], k)
        lo, hi = (num - e_num) / (den + e_den), (num + e_num) / (den - e_den)
        assert hi - lo <= 1e-2 * mpmath.mpf(det.interval.width)  # the oracle is sharper
        assert mpmath.mpf(det.interval.lo) <= lo and hi <= mpmath.mpf(det.interval.hi), (det, lo, hi)


def test_cosine_periodic_value_at_the_guard_is_attained() -> None:
    # the second-order rest is 2e-9 of Gamma_k wide at 10^8 (the first-order
    # one 1.2e-4), and the variation bound takes the mean of |sin|: the
    # summation-by-parts rest at the guard is 4.7e-5 of Gamma_k wide
    # (1.9e-4 before), so tol 1e-4 is met
    k = 10**8 - 1
    det = v.disc_value_detail(h.periodic([1.0, 0.0]), h.cosine_modulated(), k, 1e-4, strict=False)
    assert det.attained and det.interval.width <= 1e-4
    with mpmath.workprec(200):
        num, e_num = _cosine_periodic_numerator([1.0, 0.0], k)
        den, e_den = _cosine_periodic_numerator([1.0], k)
        lo, hi = (num - e_num) / (den + e_den), (num + e_num) / (den - e_den)
        assert mpmath.mpf(det.interval.lo) <= lo and hi <= mpmath.mpf(det.interval.hi), (det, lo, hi)


def test_cosine_periodic_dense_sum_is_padded_by_its_term_error() -> None:
    # a partial sum to N = 10^5, where each computed weight errs by up to
    # 1,288 u at i = 10^3 and 10,248 u at 10^5, far beyond a flat 16 u
    # Gamma_k pad: the dense kernel's pad is the weights' own (gamma_pair),
    # which grows with the argument's ulp
    rspec, dspec, k, n = h.periodic([1.0, 0.0, 1.0]), h.cosine_modulated(), 1000, 100_000
    impl = d._impl(dspec)
    s = v._dense_sum(rspec, k, n, v._gamma_weights(impl, k, n))
    terms, pat = _cosine_terms(), rspec.params[0]
    with mpmath.workprec(120):
        exact = mpmath.fsum(terms[i] * pat[(i - 1) % 3] for i in range(k, n + 1))
        assert mpmath.mpf(s.lo) <= exact <= mpmath.mpf(s.hi)
    lo, hi = d.gamma_arrays(dspec, range(k, n + 1))
    pad = math.fsum(((hi - lo) * r.reward_vec(rspec, k, n)).tolist())
    assert s.width >= pad >= 50 * 16 * d._U * d.gamma_tail(dspec, k).hi
    g_lo, g_hi = impl.gamma_pair(n)
    assert g_hi - g_lo >= 2 * 6_000 * d._U * g_lo  # the weight at N: over 6,000 u each side


# The dense kernel against an mpmath sum of the formula weights
# (oracles.mp_weight), for every family whose absolute weights it sums.
# Power's weights carry u (8 + 2 ln k) each, beyond a flat 16 u once
# ln k > 4: its sums reach N = 1,500 (ln N = 7.3) and past 10^22.
_SWEEP_FAMILIES = {
    "finite": d.finite(300),
    "quadratic": h.quadratic(),
    "power0.5": h.power(0.5),
    "harmonic_like": h.harmonic_like(),
    "step_log": h.step_log(),
    "cosine": h.cosine_modulated(),
    "alternating_quadratic": h.alternating_zero(h.quadratic()),
    "alternating_power": h.alternating_zero(h.power(0.5)),
    "patched": d.build_patched([1, 2]),
    "custom_tail": d.custom([0.5, 0.25, 0.125, 0.1], ("power", 0.5)),
}
_CUSTOM_40 = [((37 * i) % 101) / 100 for i in range(1, 41)]


@pytest.mark.parametrize("rspec", [h.periodic([1.0, 0.0, 1.0]), r.custom_table(_CUSTOM_40)],
                         ids=["periodic", "custom40"])
@pytest.mark.parametrize("dspec", list(_SWEEP_FAMILIES.values()), ids=list(_SWEEP_FAMILIES))
def test_dense_sum_contains_the_mpmath_sum_of_the_formula_weights(dspec, rspec) -> None:
    impl = d._impl(dspec)
    spans = [(1, 40), (7, 40)]
    if rspec.family == "periodic":
        spans += [(7, 1500), (10**22, 10**22 + 60)]
    for k, n in spans:
        s = v._dense_sum(rspec, k, n, v._gamma_weights(impl, k, n))
        with mpmath.workprec(160):
            exact = mpmath.fsum(oracles.mp_weight(dspec, i) * mpmath.mpf(r.reward_at(rspec, i))
                                for i in range(k, n + 1))
            assert mpmath.mpf(s.lo) <= exact <= mpmath.mpf(s.hi), (k, n, s, exact)
            if k < 10**22:  # there cosine's argument carries an ulp of 6e-5
                assert s.width <= 1e-11 * s.hi, (k, n, s)


@pytest.mark.parametrize("m", [0, 1, 9, 150, 2416, 10**5])
def test_cosine_variation_bounds_the_partial_variation(m: int) -> None:
    # sum_{m<i<=m+2^12} |gamma_i - gamma_{i+1}| in mpmath stays below the
    # closed-form bound on the whole infinite sum
    bound = d._impl(h.cosine_modulated()).variation(m).hi
    g = lambda i: (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * i))) / mpmath.mpf(i) ** 2  # noqa: E731
    with mpmath.workprec(80):
        values = [g(i) for i in range(m + 1, m + (1 << 12) + 2)]
        partial = mpmath.fsum(abs(a - b) for a, b in zip(values, values[1:]))
        assert partial <= mpmath.mpf(bound)
    # the bound is 2 sqrt(2) / 3 (m+1)^-3/2 + 3.5 (m+1)^-2, rounded upward:
    # below sqrt(2) pi / 3 (m+1)^-3/2 + 3 (m+1)^-2 for every m >= 0
    x = m + 1
    assert bound <= (0.9429 * x**-1.5 + 3.5 * x**-2.0) * (1 + 1e-12)
    assert bound <= (1.481 * x**-1.5 + 3 * x**-2.0) * (1 + 1e-12)


@pytest.mark.parametrize("k", [2**63, 10**22, 2**200])
@pytest.mark.parametrize("dspec", [h.alternating_zero(), h.cosine_modulated()],
                         ids=["alternating", "cosine"])
def test_periodic_values_past_the_guard_are_attained_without_summing(k, dspec) -> None:
    # the rest alone answers: at most the term at k itself is summed
    det = v.disc_value_detail(h.periodic([1.0, 0.0, 1.0]), dspec, k, 1e-3)
    assert det.attained and k - 1 <= det.truncation <= k
    assert det.interval.contains(2.0 / 3.0) and det.interval.width <= 1e-3


def test_cosine_periodic_value_past_the_closed_form_stays_unattained() -> None:
    # from 2^500 on only the crude tail sandwich is left: the rest at k is
    # too wide, so nothing is summed (truncation k - 1) and V is not attained
    k = 10**200
    det = v.disc_value_detail(h.periodic([1.0, 0.0]), h.cosine_modulated(), k, 1e-3, strict=False)
    assert (det.truncation, det.attained) == (k - 1, False)
    assert det.interval.contains(0.5)


@pytest.mark.parametrize("k", [10**155, 10**200, 10**300])
@pytest.mark.parametrize("dspec", [h.quadratic(), h.alternating_zero()], ids=["quadratic", "alternating"])
def test_periodic_values_past_the_quadratic_float_range(k, dspec) -> None:
    # |V - 2/3| <= 3/k for this pattern under either discount
    det = v.disc_value_detail(h.periodic([1.0, 0.0, 1.0]), dspec, k, 1e-3)
    assert det.attained and det.interval.width <= 1e-3
    assert Fraction(det.interval.lo) <= Fraction(2, 3) - Fraction(3, k)
    assert Fraction(2, 3) + Fraction(3, k) <= Fraction(det.interval.hi)


def test_undefined_values_far_out_name_k_by_its_magnitude() -> None:
    # k = 10**400 in full would put 401 digits in the message
    want = "tail enclosure not positive at k=1.00e400, 401 digits"
    for rspec in (h.periodic([1.0, 0.0, 1.0]), _LIN):
        with pytest.raises(d.UndefinedMetric) as exc:
            v.disc_value_detail(rspec, h.quadratic(), 10**400, 1e-3)
        assert str(exc.value) == want
    with pytest.raises(d.UndefinedMetric) as exc:
        d.horizon_ratio(h.finite(5), 10**400)
    assert str(exc.value) == "tail is zero at k=1.00e400, 401 digits"
    with pytest.raises(d.UndefinedMetric) as exc:
        d.horizon_ratio(h.finite(5), 10**20 - 1)
    assert str(exc.value) == "tail is zero at k=99999999999999999999"


def test_quadratic_value_where_the_tail_underflows_is_undefined() -> None:
    for rspec in (h.periodic([1.0, 0.0, 1.0]), _LIN):
        with pytest.raises(d.UndefinedMetric, match="tail enclosure not positive"):
            v.disc_value_detail(rspec, h.quadratic(), 10**400, 1e-3)


# the work behind four runs-path values, recorded before the runs path
# moved to arrays: the rest probes (value._rest_enclosure calls) and the
# segment bounds passed to discount.segment_masses; and the
# reward.change_points calls, two for the run budget: none per run since
# one_segments and ones_count take generated runs in closed form (the
# four values made 309, 119, 172 and 224 calls before)
@pytest.mark.parametrize("rspec, dspec, k, tol, probes, bounds, points", [
    (_LIN, h.harmonic_like(), 600, 1e-3, 15, 582, 2),
    (_LIN, h.power(0.5), 330, 1e-3, 13, 204, 2),
    (_LIN, h.quadratic(), 25_000, 1e-3, 12, 312, 2),
    (h.exponential_runs(), h.harmonic_like(), 1024, 5e-2 / 3, 25, 392, 2),
], ids=["lin-harm", "lin-pow", "lin-quad", "exp-harm"])
def test_runs_path_work_is_pinned(monkeypatch, rspec, dspec, k, tol, probes, bounds,
                                  points) -> None:
    seen = {"probes": 0, "bounds": 0, "points": 0}
    rest, masses, change_points = v._rest_enclosure, d.segment_masses, r.change_points

    def counted_rest(*args):
        seen["probes"] += 1
        return rest(*args)

    def counted_masses(spec, bs, *args, **kwargs):
        seen["bounds"] += len(bs)
        return masses(spec, bs, *args, **kwargs)

    def counted_points(*args):
        seen["points"] += 1
        return change_points(*args)

    monkeypatch.setattr(v, "_rest_enclosure", counted_rest)
    monkeypatch.setattr(d, "segment_masses", counted_masses)
    monkeypatch.setattr(r, "change_points", counted_points)
    det = v.disc_value_detail(rspec, dspec, k, tol, strict=False)
    assert det.attained and det.path == "runs"
    assert seen == {"probes": probes, "bounds": bounds, "points": points}


# -- V at several indices in one pass -------------------------------------------------
#
# disc_value_details shares the runs, and for a target_free family the rest
# probes and the mass ends, between its indices; limit_scan calls it once per
# V scan. Every value keeps the bits of disc_value_detail at its index.


def _same_detail(got, want) -> bool:
    return (got.truncation, got.path, got.attained) == (want.truncation, want.path, want.attained) \
        and all(math.copysign(1.0, a) == math.copysign(1.0, b) and a == b
                for a, b in zip(got.raw.pair + got.interval.pair, want.raw.pair + want.interval.pair))


_BATCH_REWARDS = [h.linear_runs(), h.exponential_runs(), h.explicit_change_points([2, 5, 9, 30]),
                  h.explicit_change_points([3, 4, 50])]
_BATCH_REWARD_IDS = ["linear", "exponential", "explicit-even", "explicit-odd"]


@pytest.mark.parametrize("dspec, sched", [
    (h.power(0.5), [3, 64, 600, 5000]),
    (h.harmonic_like(), [3, 64, 600, 5000]),
    (h.quadratic(), [3, 64, 600, 5000]),
    (h.step_log(), [3, 64, 600, 5000]),
    (h.alternating_zero(), [3, 40, 120]),
    (h.cosine_modulated(), [3, 40, 300]),
], ids=["power", "harmonic_like", "quadratic", "step_log", "alternating", "cosine"])
@pytest.mark.parametrize("rspec", _BATCH_REWARDS, ids=_BATCH_REWARD_IDS)
def test_scan_values_are_the_single_index_values(rspec, dspec, sched) -> None:
    for tol in (1e-3, 5e-2):
        est = v.limit_scan(rspec, dspec, "V", sched, tol)
        details = v.disc_value_details(rspec, dspec, est.indices, tol / 3.0)
        for m, value, det in zip(est.indices, est.values, details):
            want = v.disc_value_detail(rspec, dspec, m, tol / 3.0, strict=False)
            assert _same_detail(det, want), (m, tol, det, want)
            assert value.pair == want.interval.pair, (m, tol)


@pytest.mark.parametrize("rspec, dspec, ks, tol", [
    # truncations at the 10^500 ceiling: bounds past the float range, where
    # harmonic-like's bound_arrays takes its scalar fallback for the union
    (h.exponential_runs(), h.harmonic_like(), [100, 2**53 + 1, 2**70, 10**22, 2**200], 5e-2 / 3),
    # power's truncations pass 2^63 from k of about 2^60 on
    (h.linear_runs(), h.power(0.5), [100, 2**53 + 1, 2**70, 10**22], 1e-3),
    (h.exponential_runs(), h.quadratic(), [7, 2**53 + 1, 2**64 + 3, 10**22], 1e-3),
    (h.explicit_change_points([5, 10**6, 10**7, 10**30]), h.harmonic_like(), [3, 10**5, 10**8], 1e-3),
], ids=["exp-harm", "lin-pow", "exp-quad", "explicit-harm"])
def test_batch_past_int64_and_the_float_range_keeps_every_bit(rspec, dspec, ks, tol) -> None:
    details = v.disc_value_details(rspec, dspec, ks, tol)
    assert max(det.truncation for det in details) >= 2**63
    for k, det in zip(ks, details):
        assert _same_detail(det, v.disc_value_detail(rspec, dspec, k, tol, strict=False)), k


def test_batch_records_undefined_values_in_place() -> None:
    # quadratic's tail underflows from k of about 2^1074: V is undefined
    # there, and the scan skips the point (it raised before the batch)
    ks = [10, 2**1080]
    got = v.disc_value_details(h.linear_runs(), h.quadratic(), ks, 1e-3)
    assert isinstance(got[1], d.UndefinedMetric) and not isinstance(got[0], Exception)
    with pytest.raises(d.UndefinedMetric, match=str(got[1])):
        v.disc_value_detail(h.linear_runs(), h.quadratic(), 2**1080)
    with pytest.raises(ValueError, match="strictly increasing"):
        v.disc_value_details(h.linear_runs(), h.quadratic(), [10, 10], 1e-3)


def test_slow_tails_scan_work_is_pinned(monkeypatch, capsys) -> None:
    # the benchmark's one-shot `limits` scan (exponential runs x harmonic-like,
    # 16 points, tol 0.05 / 3): the points share one rest-probe table and one
    # segment_masses call over the union of their bounds; one call per point
    # took 372 probes and sent 4,250 bounds through 16 segment_masses calls
    import horizonlab.cli as cli

    seen = {"probes": 0, "bounds": 0, "calls": 0}
    rest, masses = v._rest_enclosure, d.segment_masses

    def counted_rest(*args):
        seen["probes"] += 1
        return rest(*args)

    def counted_masses(spec, bs, *args, **kwargs):
        seen["bounds"] += len(bs)
        seen["calls"] += 1
        return masses(spec, bs, *args, **kwargs)

    monkeypatch.setattr(v, "_rest_enclosure", counted_rest)
    monkeypatch.setattr(d, "segment_masses", counted_masses)
    code = cli.main(["limits", "--reward", "exponential-runs", "--discount", "harmonic-like",
                     "--schedule", "list:100,1000,8000", "--tol", "0.05"])
    assert code == cli.EXIT_LIMIT_INCONCLUSIVE
    assert seen["probes"] <= 302 and seen["bounds"] <= 526 and seen["calls"] == 1, seen
