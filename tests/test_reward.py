"""Binary run structures, run masses, and the two limit lemmas.

Closed forms used as oracles: linear runs have lengths A_n = 2n-1,
B_n = 2n with k_n = (2n-1)(n-1)+1; exponential runs have A_n = k_n =
4^(n-1), B_n = m_n = 2*4^(n-1). Run masses follow from telescoping
tail differences. For the log-decay discount the run-mass ratio obeys
a_n/b_n = n/(n-1) + o(1), which is what the numbers actually show.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import horizonlab as h
import horizonlab.discount as d
import horizonlab.reward as r
from horizonlab import Interval

import oracles


# -- pointwise rewards --------------------------------------------------


def test_linear_runs_prefix() -> None:
    assert [r.reward_at(h.linear_runs(), k) for k in range(1, 7)] == [
        1.0, 0.0, 0.0, 1.0, 1.0, 1.0,
    ]


def test_constant_reward() -> None:
    spec = h.constant(0.7)
    assert all(r.reward_at(spec, k) == 0.7 for k in (1, 13, 10**6))


def test_exponential_runs_prefix() -> None:
    spec = h.exponential_runs()
    assert r.reward_at(spec, 4) == 1.0
    assert [r.reward_at(spec, k) for k in range(1, 9)] == [
        1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0,
    ]


def test_periodic_reward_is_one_indexed() -> None:
    spec = h.periodic([0.2, 0.9])
    assert [r.reward_at(spec, k) for k in range(1, 6)] == [
        0.2, 0.9, 0.2, 0.9, 0.2,
    ]


def test_custom_table_bounds_checked() -> None:
    spec = r.custom_table([0.1, 0.2, 0.3])
    assert r.reward_at(spec, 3) == 0.3
    with pytest.raises(ValueError):
        r.reward_at(spec, 4)


# -- change points ------------------------------------------------------


def test_change_point_examples() -> None:
    assert r.change_points(h.linear_runs(), 2) == (4, 7)
    assert r.change_points(h.exponential_runs(), 3) == (16, 32)
    assert r.change_points(h.explicit_change_points([1, 2, 5, 9]), 2) == (5, 9)


def test_change_points_require_binary_spec() -> None:
    with pytest.raises(ValueError):
        r.change_points(h.constant(0.5), 1)


def test_linear_run_length_closed_forms() -> None:
    spec = h.linear_runs()
    prev_m = None
    for n in range(1, 1001):
        k_n, m_n = r.change_points(spec, n)
        assert k_n == (2 * n - 1) * (n - 1) + 1
        assert m_n == (2 * n - 1) * n + 1
        assert m_n - k_n == 2 * n - 1
        if prev_m is not None:
            assert k_n - prev_m == 2 * (n - 1)
        prev_m = m_n


def test_exponential_run_length_closed_forms() -> None:
    spec = h.exponential_runs()
    for n in range(1, 16):
        k_n, m_n = r.change_points(spec, n)
        assert k_n == 4 ** (n - 1)
        assert m_n == 2 * 4 ** (n - 1)
        # Both run lengths equal their own starting index.
        assert m_n - k_n == k_n
        assert r.change_points(spec, n + 1)[0] - m_n == m_n


def test_reward_membership_matches_change_points() -> None:
    for spec, runs in ((h.linear_runs(), 7), (h.exponential_runs(), 4),
                       (h.explicit_change_points([2, 3, 7, 11, 20, 21]), 3)):
        spans = [r.change_points(spec, n) for n in range(1, runs + 1)]
        for k in range(1, spans[-1][1]):
            expected = 1.0 if any(a <= k < b for a, b in spans) else 0.0
            assert r.reward_at(spec, k) == expected, (spec.family, k)


# -- closed-form run index ---------------------------------------------


@pytest.mark.parametrize("spec", [h.linear_runs(), h.exponential_runs()])
def test_run_index_matches_the_walk_up_to_a_million(spec) -> None:
    n, nxt = 1, r.change_points(spec, 2)[0]
    for k in range(1, 10**6 + 1):
        while k >= nxt:
            n += 1
            nxt = r.change_points(spec, n + 1)[0]
        assert r.run_index(spec, k) == n, k


@pytest.mark.parametrize("spec", [h.linear_runs(), h.exponential_runs(),
                                  h.explicit_change_points([2, 5, 9, 30]),
                                  h.explicit_change_points([3, 4, 50])],
                         ids=["linear", "exponential", "explicit4", "explicit3"])
def test_runs_started_counts_the_run_starts(spec) -> None:
    stored = r.run_count(spec) or 200
    starts = [r.change_points(spec, n)[0] for n in range(1, stored + 1)]
    for m in range(1, 120):
        assert r.runs_started(spec, m) == sum(1 for k in starts if k <= m), m


@pytest.mark.parametrize("spec", [h.linear_runs(), h.exponential_runs()])
@pytest.mark.parametrize("n", [10**6, 10**9 + 7, 10**20, 2**200 + 3])
def test_run_index_at_huge_run_edges(spec, n: int) -> None:
    if spec.params[0] == "exponential" and n > 10**6:
        n = n.bit_length()  # 4^(n-1) is already astronomically large
    k_n, m_n = r.change_points(spec, n)
    k_next = r.change_points(spec, n + 1)[0]
    assert r.run_index(spec, k_n) == n
    assert r.run_index(spec, k_n - 1) == n - 1
    assert r.run_index(spec, m_n) == n
    assert r.run_index(spec, k_next - 1) == n
    assert r.run_index(spec, k_next) == n + 1


def test_run_index_needs_a_generated_run_family() -> None:
    with pytest.raises(ValueError):
        r.run_index(h.explicit_change_points([3, 5]), 4)


@pytest.mark.parametrize("spec", [h.linear_runs(), h.exponential_runs()])
def test_ones_count_matches_a_direct_count(spec) -> None:
    total = 0
    for m in range(1, 20001):
        total += int(r.reward_at(spec, m))
        assert r.ones_count(spec, m) == total, m


# -- the two r_i maps: reward_at and reward_vec --------------------------
#
# value._dense_sum reads rewards through reward_vec and the interval
# references of tests/test_kernels.py through reward_at, so the two must
# give the same bits.

_CUSTOM_60 = [round(((37 * i) % 101) / 100, 2) for i in range(1, 61)]


def _run_edge_windows(spec, runs):
    """Short windows that straddle k_n and m_n of the given runs."""
    out = []
    for n in runs:
        k_n, m_n = r.change_points(spec, n)
        out += [(k_n - 2, k_n + 1), (m_n - 2, m_n + 1)]
    return out


_WINDOW_CASES = [
    (h.constant(0.3), [(1, 50), (10**6, 10**6 + 100)]),
    # every phase of a period-5 pattern, near 1 and near 10^9
    (h.periodic([1.0, 0.0, 0.5, 0.25, 0.1]),
     [(a, a + 23) for a in range(1, 6)] + [(10**9 + a, 10**9 + a + 7) for a in range(5)]
     # and past int64, where the phase must be reduced in Python ints
     + [(2**63 - 3, 2**63 + 5), (10**22, 10**22 + 7), (2**200 + 1, 2**200 + 12)]),
    (h.custom_table(_CUSTOM_60), [(1, 60), (17, 60), (60, 60), (1, 1)]),
    (h.linear_runs(), [(1, 5000)] + _run_edge_windows(h.linear_runs(), [2, 3, 40, 10**6])),
    (h.exponential_runs(),
     [(1, 5000)] + _run_edge_windows(h.exponential_runs(), [2, 3, 9, 30])),
    # past the last change point: even lists stay at 0, odd lists at 1
    (h.explicit_change_points([1, 2, 55, 110]), [(1, 200), (100, 300), (110, 111)]),
    (h.explicit_change_points([2, 9, 30]), [(1, 200), (29, 31), (30, 30), (1, 1)]),
]


@pytest.mark.parametrize("spec, windows", _WINDOW_CASES,
                         ids=[c[0].family + str(j) for j, c in enumerate(_WINDOW_CASES)])
def test_reward_vec_equals_reward_at_bit_for_bit(spec, windows) -> None:
    for a, b in windows:
        vec = r.reward_vec(spec, a, b)
        want = np.array([r.reward_at(spec, i) for i in range(a, b + 1)], dtype=np.float64)
        assert vec.dtype == np.float64 and vec.tobytes() == want.tobytes(), (a, b)


def test_reward_vec_and_reward_at_agree_past_a_custom_table() -> None:
    spec = h.custom_table(_CUSTOM_60)
    with pytest.raises(ValueError, match="index 61 beyond custom reward table"):
        r.reward_at(spec, 61)
    with pytest.raises(ValueError, match="index 61 beyond custom reward table"):
        r.reward_vec(spec, 50, 61)


@pytest.mark.parametrize("a, b, first_missing", [(50, 61, 61), (1, 10**6, 61), (70, 90, 70)])
def test_reward_vec_names_the_first_missing_index(a, b, first_missing) -> None:
    # the index a loop of reward_at from a would stop at, not b
    spec = h.custom_table(_CUSTOM_60)
    with pytest.raises(ValueError, match=f"^index {first_missing} beyond custom reward table$"):
        r.reward_vec(spec, a, b)
    with pytest.raises(ValueError, match=f"^index {first_missing} beyond"):
        for i in range(a, b + 1):
            r.reward_at(spec, i)


@pytest.mark.parametrize("spec, bits", [
    (h.linear_runs(), oracles.linear_bits),
    (h.exponential_runs(), oracles.exponential_bits),
    (h.explicit_change_points([1, 2, 55, 110]),
     lambda ks: oracles.reward_vec("explicit", [1, 2, 55, 110], ks)),
    (h.explicit_change_points([2, 9, 30]),
     lambda ks: oracles.reward_vec("explicit", [2, 9, 30], ks)),
], ids=["linear", "exponential", "explicit4", "explicit3"])
@pytest.mark.parametrize("k, n", [(1, 1), (1, 10**5), (12345, 67890), (29, 31),
                                  (4**9 - 3, 4**9 + 3), (10**12, 10**12 + 10**4)])
def test_one_segments_match_the_oracle_bits(spec, bits, k, n) -> None:
    flat = r.one_segments(spec, k, n).tolist()
    segs = list(zip(flat[0::2], flat[1::2]))
    # pieces are nonempty, in order, inside [k, n + 1) and never touch
    assert all(k <= a < b <= n + 1 for a, b in segs)
    assert all(b1 < a2 for (_, b1), (a2, _) in zip(segs, segs[1:]))
    got = np.zeros(n - k + 1)
    for a, b in segs:
        got[a - k:b - k] = 1.0
    assert np.array_equal(got, bits(np.arange(k, n + 1, dtype=np.int64)))


def one_segments_reference(spec, k, n):
    """reward.one_segments as a list of (a, b) pieces, before it returned
    flat integer arrays: one change_points call per run, from run_index(k)
    for generated runs and from the first run of an explicit list."""
    end, segs = n + 1, []
    stored = r.run_count(spec)
    if stored is None:
        if n < k:
            return segs
        j = r.run_index(spec, k)
        while True:
            a, b = r.change_points(spec, j)
            if a >= end:
                return segs
            if max(a, k) < min(b, end):
                segs.append((max(a, k), min(b, end)))
            j += 1
    for j in range(1, stored + 1):
        a, b = r.change_points(spec, j)
        if a >= end:
            return segs
        if max(a, k) < min(b, end):
            segs.append((max(a, k), min(b, end)))
    pts = spec.params[1]
    if len(pts) % 2 == 1 and max(pts[-1], k) < end:
        segs.append((max(pts[-1], k), end))
    return segs


def flat_reference(spec, k, n):
    return [x for seg in one_segments_reference(spec, k, n) for x in seg]


def _ends_near(spec, k):
    """N < k, N = k, N on and next to the run boundaries around k, and far past k."""
    j = r.run_index(spec, k)
    edges = [x for i in (j, j + 1, j + 3) for x in r.change_points(spec, i)]
    ns = [k - 3, k - 1, k, k + 1, k + 2**20] + [e + dx for e in edges for dx in (-2, -1, 0, 1)]
    return sorted({n for n in ns if n >= 0})


@pytest.mark.parametrize("spec", [h.linear_runs(), h.exponential_runs()],
                         ids=["linear", "exponential"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 100, 4**9 - 1, 4**9, 10**6,
                               10**12 + 1, 2**63 + 1, 10**30 - 1, 10**30])
def test_closed_form_run_ends_match_the_per_run_loop(spec, k) -> None:
    for n in _ends_near(spec, k):
        assert r.one_segments(spec, k, n).tolist() == flat_reference(spec, k, n), n


# indices around the float and int64 limits, where the bounds change dtype
_EDGE_KS = [2**53 - 1, 2**53 + 1, 2**62, 2**63 - 1, 2**63 + 1, 2**64 + 1, 10**310]
_RUN_SPECS = {
    "linear": h.linear_runs(),
    "exponential": h.exponential_runs(),
    "explicit_even": h.explicit_change_points([3, 7, 2**53, 2**53 + 2, 2**63 - 2, 2**63 + 5,
                                               2**64, 10**310]),
    "explicit_odd": h.explicit_change_points([2, 9, 2**62 + 1, 2**63, 10**310 + 7]),
}


def _edge_windows():
    for k in _EDGE_KS:
        for dk in (-3, -1, 0, 1, 2):
            for width in (0, 1, 2, 5, 100, 2**20):
                yield k + dk, k + dk + width
    yield 1, 10**5


@pytest.mark.parametrize("spec", list(_RUN_SPECS.values()), ids=list(_RUN_SPECS))
def test_one_segments_flat_arrays_match_the_list_enumeration(spec) -> None:
    for k, n in _edge_windows():
        flat = r.one_segments(spec, k, n)
        assert flat.tolist() == flat_reference(spec, k, n), (k, n)
        # int64 or Python ints, never uint64 or float64; the dtype holds n + 1
        assert flat.dtype in (np.dtype(np.int64), np.dtype(object)), (k, n, flat.dtype)
        assert n + 1 < 2**63 or flat.dtype == object, (k, n)
        assert all(type(x) is int for x in flat.tolist())


# -- window envelopes ---------------------------------------------------


def _q(env, num: int) -> Fraction:
    """An envelope quantity from its numerator over env.den."""
    return Fraction(num, env.den)


def _twice_excess(bits: np.ndarray) -> np.ndarray:
    """2 e_j = 2 (ones among r_1..r_j) - j for j = 1..len(bits), exact ints."""
    j = np.arange(1, bits.size + 1, dtype=np.int64)
    return 2 * np.cumsum(bits.astype(np.int64)) - j


def test_linear_runs_envelope_holds_up_to_a_million() -> None:
    env = r.window_envelope(h.linear_runs())
    assert (_q(env, env.mean_num), env.p, _q(env, env.b_num)) == (Fraction(1, 2), 0.5, 1)
    assert env.a.lo ** 2 <= 0.125 <= env.a.hi ** 2
    ks = np.arange(1, 10**6 + 1, dtype=np.int64)
    two_e = _twice_excess(oracles.linear_bits(ks))
    # |e| <= sqrt(j/8) + 1  <=>  |e| <= 1 or 2 (|2e| - 2)^2 <= j, in integers
    over = np.maximum(np.abs(two_e) - 2, 0)
    assert np.all(2 * over * over <= ks)
    for j in (1, 2, 3, 7, 1000, 99_999, 10**6):
        assert _q(env, env.excess_num(j)) == Fraction(int(two_e[j - 1]), 2)


def test_exponential_runs_envelope_holds_up_to_a_million() -> None:
    env = r.window_envelope(h.exponential_runs())
    assert (_q(env, env.mean_num), env.p, _q(env, env.b_num)) == (Fraction(1, 2), 1.0, Fraction(1, 3))
    assert env.a.lo <= 1 / Fraction(6) <= env.a.hi
    ks = np.arange(1, 10**6 + 1, dtype=np.int64)
    two_e = _twice_excess(oracles.exponential_bits(ks))
    # |e| <= j/6 + 1/3  <=>  3 |2e| <= j + 2; the bound is met at every 1-run end
    assert np.all(3 * np.abs(two_e) <= ks + 2)
    ends = [2 * 4**n - 1 for n in range(9)]
    assert all(3 * two_e[j - 1] == j + 2 for j in ends)
    for j in (1, 5, 4**9, 10**6):
        assert _q(env, env.excess_num(j)) == Fraction(int(two_e[j - 1]), 2)


@pytest.mark.parametrize("pattern", [
    [1.0, 0.0, 1.0], [1.0], [0.0, 0.0, 1.0, 0.25], [0.3, 0.7, 0.1, 0.9, 0.5],
])
def test_periodic_envelope_is_exact_over_every_phase(pattern) -> None:
    env = r.window_envelope(h.periodic(pattern))
    pat = [Fraction(x) for x in pattern]
    mean = sum(pat) / len(pat)
    assert (_q(env, env.mean_num), env.p) == (mean, 0.0) and env.a.hi == 0.0
    excess = [sum(pat[:j % len(pat)]) + (j // len(pat)) * sum(pat) - mean * j
              for j in range(4 * len(pat))]
    assert _q(env, env.b_num) == max(abs(e) for e in excess)
    assert [_q(env, env.excess_num(j)) for j in range(4 * len(pat))] == excess


def test_explicit_lists_and_custom_rewards_have_no_envelope() -> None:
    assert r.window_envelope(h.explicit_change_points([1, 4])) is None
    assert r.window_envelope(r.custom_table([0.5])) is None


# -- run masses ---------------------------------------------------------


def run_pair(rspec, dspec, n):
    """(k_n, m_n, k_{n+1}) and the masses a_n = Gamma_{k_n} - Gamma_{m_n},
    b_n = Gamma_{m_n} - Gamma_{k_{n+1}} of the nth run pair."""
    bounds = [*r.change_points(rspec, n), r.change_points(rspec, n + 1)[0]]
    return bounds, d.segment_masses(dspec, bounds)


def test_run_mass_quadratic_closed_form() -> None:
    # a_n = A_n / (k_n * m_n); n=2 gives 3/28.
    (k_n, m_n, k_next), (a_mass, _) = run_pair(h.linear_runs(), h.quadratic(), 2)
    assert k_n == 4 and m_n == 7
    assert m_n - k_n == 3 and k_next - m_n == 4
    assert a_mass.contains(3.0 / 28.0)
    assert a_mass.width < 1e-12


def test_run_mass_unit_discounts_count_steps() -> None:
    for n in (1, 2, 3, 5):
        (k_n, m_n, k_next), (a_mass, b_mass) = run_pair(h.linear_runs(), h.finite(1000), n)
        assert a_mass.contains(float(m_n - k_n))
        assert b_mass.contains(float(k_next - m_n))
        assert a_mass.width < 1e-9 and b_mass.width < 1e-9


def test_run_mass_ratio_for_log_decay_follows_n_over_n_minus_1() -> None:
    # The two adjacent run masses shrink like [4 n^2 ln 2]^-1 but their
    # ratio is n/(n-1) + o(1): at n=5 it is 1.25, not yet within 10%.
    for n in (5, 6, 7, 8):
        _, (a_mass, b_mass) = run_pair(h.exponential_runs(), h.harmonic_like(), n)
        ratio = a_mass.mid / b_mass.mid
        assert abs(ratio - n / (n - 1.0)) < 5e-3, (n, ratio)
    # Magnitude sanity against the asymptotic law, to a crude factor.
    _, (a_mass, _) = run_pair(h.exponential_runs(), h.harmonic_like(), 8)
    scaled = a_mass.mid * 4 * 8 * 8 * math.log(2)
    assert 0.5 < scaled < 2.0


@pytest.mark.parametrize("rspec,dspec,n_top", [
    (h.linear_runs(), h.quadratic(), 8),
    (h.exponential_runs(), h.harmonic_like(), 5),
    (h.linear_runs(), h.geometric(0.5), 6),
])
def test_run_mass_conservation(rspec, dspec, n_top: int) -> None:
    total = Interval.exact(0.0)
    for n in range(1, n_top + 1):
        _, (a_mass, b_mass) = run_pair(rspec, dspec, n)
        total = total + a_mass + b_mass
    k_1 = r.change_points(rspec, 1)[0]
    k_next = r.change_points(rspec, n_top + 1)[0]
    span = d.gamma_tail(dspec, k_1) - d.gamma_tail(dspec, k_next)
    assert total.intersects(span), (total, span)


# -- limit lemmas -------------------------------------------------------


def test_average_limits_linear_runs_tend_to_half() -> None:
    seq = r.lemma1_limits(h.linear_runs(), 50)
    a_last = seq.alpha_seq[-1]
    b_last = seq.beta_seq[-1]
    # A_n/(A_n+B_n) = (2n-1)/(4n-1) at n=50.
    assert a_last.contains(99.0 / 199.0)
    assert abs(a_last.mid - 0.5) < 1e-2 and abs(b_last.mid - 0.5) < 1e-2
    assert abs(seq.alpha_pred.mid - 0.5) < 1e-2
    assert abs(seq.beta_pred.mid - 0.5) < 1e-2


def test_average_limits_exponential_runs_are_exact_thirds() -> None:
    seq = r.lemma1_limits(h.exponential_runs(), 12)
    third = 1.0 / 3.0
    two_thirds = 2.0 / 3.0
    for a, b in zip(seq.alpha_seq, seq.beta_seq[1:]):
        assert a.lo == a.hi == third
        assert b.lo == b.hi == two_thirds
    assert seq.alpha_pred.contains(third)
    assert seq.beta_pred.contains(two_thirds)


def test_average_limits_alternating_change_points_are_half() -> None:
    pts = list(range(1, 42, 2))
    seq = r.lemma1_limits(h.explicit_change_points(pts), 8)
    for a in seq.alpha_seq:
        assert a.lo == a.hi == 0.5
    for b in seq.beta_seq[1:]:
        assert b.lo == b.hi == 0.5


def test_discounted_limits_linear_geometric_split_to_0_and_1() -> None:
    seq = r.lemma2_limits(h.linear_runs(), h.geometric(0.5), 8)
    assert seq.alpha_seq[-1].hi < 1e-3
    assert seq.beta_seq[-1].lo > 0.999
    assert seq.alpha_pred.hi < 1e-2
    assert seq.beta_pred.lo > 0.99


def test_discounted_limits_linear_quadratic_tend_to_half() -> None:
    seq = r.lemma2_limits(h.linear_runs(), h.quadratic(), 12)
    assert abs(seq.alpha_seq[-1].mid - 0.5) < 0.04
    assert abs(seq.beta_seq[-1].mid - 0.5) < 0.04
    # Convergence direction: the deviation shrinks along the sequence.
    assert abs(seq.alpha_seq[-1].mid - 0.5) < abs(seq.alpha_seq[3].mid - 0.5)
    assert abs(seq.beta_seq[-1].mid - 0.5) < abs(seq.beta_seq[3].mid - 0.5)


def test_discounted_limits_exponential_log_decay_tend_to_half() -> None:
    seq = r.lemma2_limits(h.exponential_runs(), h.harmonic_like(), 8)
    assert abs(seq.alpha_seq[-1].mid - 0.5) < 0.04
    assert abs(seq.beta_seq[-1].mid - 0.5) < 0.04
    assert abs(seq.alpha_seq[-1].mid - 0.5) < abs(seq.alpha_seq[2].mid - 0.5)


# -- serialization ------------------------------------------------------


@pytest.mark.parametrize("spec", [
    h.constant(0.7),
    h.periodic([1.0, 0.0]),
    h.periodic([0.2, 0.9, 0.4]),
    h.linear_runs(),
    h.exponential_runs(),
    h.explicit_change_points([1, 2, 5, 9]),
    r.custom_table([0.1, 0.5, 0.9]),
])
def test_reward_serialization_round_trips(spec) -> None:
    restored = r.reward_from_dict(r.reward_to_dict(spec))
    assert restored == spec
    top = 3 if spec.family == "custom" else 20
    for k in range(1, top + 1):
        assert r.reward_at(restored, k) == r.reward_at(spec, k)


def test_fractional_change_points_are_rejected_by_name() -> None:
    with pytest.raises(ValueError, match=r"change point 1 must be an integer, got 1\.5"):
        r.explicit_change_points([1.5, 3.9])
    with pytest.raises(ValueError, match=r"change point 4 must be an integer, got 9\.25"):
        r.reward_from_dict({"family": "binary_runs", "generator": "explicit",
                            "change_points": [1, 2, 5, 9.25]})
    with pytest.raises(ValueError, match="must be an integer, got inf"):
        r.explicit_change_points([1, math.inf])
    # integral floats keep working
    assert r.explicit_change_points([1.0, 3.0, 7.0, 8.0]) == r.explicit_change_points([1, 3, 7, 8])
