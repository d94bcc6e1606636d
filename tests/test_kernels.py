"""Array kernels against the scalar interval code they replaced.

value._dense_sum, value._runs_values and every family's
discount segment_mass_arrays replay a chain of Interval operations over
float64 lo/hi arrays, and value._rest_enclosure reads its rationals as
ints. The scalar loops, Interval lists and Fraction code they replaced
stay here as references, and every endpoint must match them bit for
bit: a kernel that differs by one ulp has changed an enclosure, however
harmless the change looks.
"""

from __future__ import annotations

import bisect
import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

import horizonlab as h
import horizonlab.corpus as corpus
import horizonlab.discount as d
import horizonlab.reward as r
import horizonlab.value as v
from horizonlab import Interval


def bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def same_bits(a: Interval, b: Interval) -> bool:
    return bits(a.lo) == bits(b.lo) and bits(a.hi) == bits(b.hi)


# -- the dense kernel ---------------------------------------------------------
#
# value._dense_sum sums lo/hi weight arrays against the rewards, for the
# ratio form of geometric (_ratio_weights) and the absolute weights of
# every other family (_gamma_weights) alike.


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def interval_sum_reference(ivs):
    """value._interval_sum before it took lo and hi sequences."""
    if not ivs:
        return Interval.exact(0.0)
    return Interval.widened(math.fsum(iv.lo for iv in ivs), math.fsum(iv.hi for iv in ivs))


def dense_relative(rspec, impl, k, tol):
    """(numerator, truncation) of the dense path in ratio form, as
    value._dense_value takes it over its exact denominator 1."""
    numerator, denominator, n_trunc, _ = v._dense_value(rspec, d.geometric(impl.g), impl, k, tol, {})
    assert denominator == Interval.exact(1.0)
    return numerator, n_trunc


def dense_relative_reference(rspec, impl, k, tol):
    """The per-index loop of the ratio-form dense sum before its array form."""
    n_trunc = v._ratio_truncation(impl, k, tol)
    parts = []
    for i in range(k, n_trunc + 1):
        r_i = r.reward_at(rspec, i)
        if r_i != 0.0:
            parts.append(impl.tail_ratio(i, k) * impl.one_minus_g * r_i)
    s = interval_sum_reference(parts)
    numerator = Interval(max(s.lo, 0.0), s.hi + impl.tail_ratio(n_trunc + 1, k).hi)
    return numerator, n_trunc


_REWARDS = [
    h.constant(0.3),
    h.constant(0.0),
    h.periodic([1.0, 0.0, 1.0]),
    h.periodic([0.25, 0.0, 0.7, 1.0, 0.1]),
    h.periodic([0.0, 0.0, 0.0, 1.0]),
    h.linear_runs(),
    h.exponential_runs(),
    h.explicit_change_points([2, 5, 9, 30]),
    h.explicit_change_points([3, 4, 50]),
    r.custom_table([((37 * i) % 101) / 100 for i in range(1, 2500)]),
]


@pytest.mark.parametrize("g", [0.5, 0.25, 0.9, 0.99, 0.3])
@pytest.mark.parametrize("rspec", _REWARDS, ids=lambda s: s.family + str(s.params)[:12])
def test_dense_relative_matches_the_scalar_loop(g, rspec) -> None:
    impl = d._impl(d.geometric(g))
    # past 2^63 the periodic phase must be reduced in Python ints, as reward_at does
    for k in (1, 2, 7, 64, 1000, 2**63 - 2, 2**63, 10**22, 2**200):
        for tol in (1e-3, 1e-9):
            got = outcome(dense_relative, rspec, impl, k, tol)
            want = outcome(dense_relative_reference, rspec, impl, k, tol)
            if isinstance(want, str):  # a custom table read past its end
                assert got == want
                continue
            assert got[1] == want[1] and same_bits(got[0], want[0]), (k, tol, got, want)


@pytest.mark.parametrize("g", [0.5, 0.25, 0.3])
def test_dense_relative_matches_where_the_weights_underflow(g) -> None:
    # tol = 1e-323 sums past d = 1074 / |log2 g|: dyadic ratios drop below
    # the least subnormal, and 0.3**d underflows to zero
    impl = d._impl(d.geometric(g))
    for rspec in (h.periodic([1.0, 0.0, 0.5]), h.constant(1.0)):
        got, n_got = dense_relative(rspec, impl, 5, 1e-323)
        want, n_want = dense_relative_reference(rspec, impl, 5, 1e-323)
        assert n_got == n_want and same_bits(got, want)
        assert impl.tail_ratio(n_got, 5).lo == 0.0


def test_dense_relative_of_zero_rewards_is_exactly_zero() -> None:
    impl = d._impl(d.geometric(0.9))
    got, _ = dense_relative(h.periodic([0.0]), impl, 3, 1e-3)
    assert got.lo == 0.0 and got.hi == impl.tail_ratio(v._ratio_truncation(impl, 3, 1e-3) + 1, 3).hi


@pytest.mark.parametrize("g", [0.5, 0.25, 0.9, 0.99, 0.3, 0.1])
def test_tail_ratio_arrays_match_tail_ratio(g) -> None:
    impl = d._impl(d.geometric(g))
    ds = np.array(list(range(0, 2200)) + [75_000, 10**6], dtype=np.int64)
    lo, hi = impl.tail_ratio_arrays(ds)
    for j, dj in enumerate(ds.tolist()):
        want = impl.tail_ratio(10 + dj, 10)
        assert bits(lo[j]) == bits(want.lo) and bits(hi[j]) == bits(want.hi), dj
    assert lo[-1] == 0.0 and hi[-1] > 0.0  # g**(10**6) underflows for every g here


def test_dense_relative_custom_table_names_its_first_missing_index() -> None:
    impl = d._impl(d.geometric(0.9))
    spec = r.custom_table([0.5] * 10)
    with pytest.raises(ValueError, match="^index 11 beyond custom reward table$"):
        dense_relative(spec, impl, 3, 1e-3)
    with pytest.raises(ValueError, match="^index 11 beyond custom reward table$"):
        dense_relative_reference(spec, impl, 3, 1e-3)


def dense_sum_reference(rspec, impl, k, n):
    """The absolute dense sum term by term: Interval(*gamma_pair(i)) * r_i
    over the i in [k, n] with r_i != 0 and a weight that is not exactly 0,
    summed by one fsum per end."""
    parts = []
    for i in range(k, n + 1):
        r_i = r.reward_at(rspec, i)
        if r_i != 0.0 and impl.gamma_pair(i)[1] > 0.0:
            parts.append(Interval(*impl.gamma_pair(i)) * r_i)
    return interval_sum_reference(parts)


def dense_sum(rspec, impl, k, n):
    return v._dense_sum(rspec, k, n, v._gamma_weights(impl, k, n))


_DENSE_FAMILIES = {
    "finite": d.finite(300),
    "geometric": d.geometric(0.9),
    "quadratic": d.quadratic(),
    "power0.5": d.power(0.5),
    "power1.3": d.power(1.3),
    "harmonic_like": d.harmonic_like(),
    "step_log": d.step_log(),
    "cosine": d.cosine_modulated(),
    "alternating": d.alternating_zero(),
    "alternating_power": d.alternating_zero(d.power(0.5)),
    "alternating_cosine": d.alternating_zero(d.cosine_modulated()),
    "patched": d.build_patched([1, 2]),
    "custom_geometric": d.custom([0.5, 0.25], ("geometric", 0.5)),
    "custom_power": d.custom([0.5, 0.25, 0.2], ("power", 1.0)),
}


# one chunk each: the kernel keeps the reference's bits, an exact 0 where
# no term is left (N = k - 1, a zero reward, finite's zero weights). Past
# 2^63 the indices reach gamma_arrays as Python ints; past 1.34e154
# cosine's k^2 has no float, and past 2^1024 no index has one
@pytest.mark.parametrize("dspec", list(_DENSE_FAMILIES.values()), ids=list(_DENSE_FAMILIES))
def test_dense_sum_matches_the_interval_loop(dspec) -> None:
    impl = d._impl(dspec)
    for rspec in _REWARDS:
        for k, n in ((k, k + w) for k in (1, 2, 7, 1000, 2**53 - 5, 2**63 - 100, 10**22, 2**200,
                                             10**155 + 3, 10**400) for w in (-1, 150)):
            got = outcome(dense_sum, rspec, impl, k, n)
            want = outcome(dense_sum_reference, rspec, impl, k, n)
            if isinstance(want, str):  # a custom reward table read past its end
                assert got == want
                continue
            assert same_bits(got, want), (rspec, k, got, want)


@pytest.mark.parametrize("dspec, rspec, k", [
    (d.quadratic(), h.periodic([1.0, 0.0, 0.7]), 10),
    (d.power(0.5), h.linear_runs(), 3),
    (d.cosine_modulated(), h.periodic([1.0, 0.0, 1.0]), 1000),
    (d.alternating_zero(d.power(0.5)), h.exponential_runs(), 2**70),
    (d.geometric(0.999), h.constant(0.3), 1),
], ids=["quadratic", "power", "cosine", "alternating-2^70", "geometric"])
def test_dense_sum_in_chunks_encloses_the_one_chunk_sum(monkeypatch, dspec, rspec, k) -> None:
    # 2,001 indices in 32 chunks of 64: each chunk's sums move one float
    # out, at most an ulp of the whole sum per chunk and end
    mpmath = pytest.importorskip("mpmath")
    import oracles

    impl, n = d._impl(dspec), k + 2000
    one = dense_sum(rspec, impl, k, n)
    monkeypatch.setattr(v, "_DENSE_CHUNK", 64)
    chunked = dense_sum(rspec, impl, k, n)
    assert chunked.lo <= one.lo and one.hi <= chunked.hi and not same_bits(chunked, one)
    assert chunked.width <= one.width + 2 * 32 * math.ulp(one.hi)
    with mpmath.workprec(160):
        exact = mpmath.fsum(oracles.mp_weight(dspec, i) * mpmath.mpf(r.reward_at(rspec, i))
                            for i in range(k, n + 1))
        assert mpmath.mpf(chunked.lo) <= exact <= mpmath.mpf(chunked.hi)


# the numpy batch weights that the dense kernel reads, over every index of
# a long range and up to 2^53, where cosine's argument carries a large ulp
# and step_log's k - 1 is still exact
@pytest.mark.parametrize("dspec", [d.cosine_modulated(), d.step_log()], ids=["cosine", "step_log"])
def test_numpy_gamma_arrays_are_gamma_pair_over_a_long_range(dspec) -> None:
    impl = d._impl(dspec)
    for ks in (range(1, 200_002), range(2**52 - 5000, 2**52 + 5000), range(2**53 - 3000, 2**53)):
        lo, hi = impl.gamma_arrays(np.arange(ks.start, ks.stop, dtype=np.int64))
        pairs = np.array([impl.gamma_pair(k) for k in ks])
        assert np.array_equal(lo, pairs[:, 0]) and np.array_equal(hi, pairs[:, 1])


# gamma_arrays takes an int64 array, which per-element code (patched,
# custom, finite, geometric) must read as Python ints, or a sequence of
# Python ints, which every index past int64 must be
@pytest.mark.parametrize("dspec", list(_DENSE_FAMILIES.values()), ids=list(_DENSE_FAMILIES))
def test_gamma_arrays_of_either_index_form_are_gamma_pair(dspec) -> None:
    impl = d._impl(dspec)
    for ks in ([1, 2, 3, 4, 5, 64, 65, 1999, 2000, 4097], list(range(2**40, 2**40 + 300)),
               [2**53 - 1, 2**53, 2**62, 2**63 - 1], [2**63 - 1, 2**63, 2**64 + 7, 10**22]):
        want = np.array([impl.gamma_pair(k) for k in ks])
        forms = [ks] + ([np.array(ks, dtype=np.int64)] if ks[-1] < 2**63 else [])
        for got in (impl.gamma_arrays(f) for f in forms):
            assert all(a.dtype == np.float64 for a in got)
            assert np.array_equal(got[0], want[:, 0]) and np.array_equal(got[1], want[:, 1]), ks


# -- closed-form segment masses -------------------------------------------------


def segment_masses_reference(impl, bounds):
    """The per-boundary loop of _Integrable.segment_masses before its array form."""
    big = [Interval(*impl.integral_pair(b)) for b in bounds]
    g = [impl.gamma_iv(b) for b in bounds]
    out = []
    for j in range(len(bounds) - 1):
        lo = big[j].lo - big[j + 1].hi
        hi = (big[j].hi - big[j + 1].lo) + (g[j].hi - g[j + 1].lo)
        iv = Interval.widened(lo, hi)
        out.append(Interval(max(iv.lo, 0.0), max(iv.hi, 0.0)))
    return out


_BOUNDS = [
    [1, 2, 3, 10, 11, 1000],
    [2, 5, 2**20, 2**20 + 1],
    [2**53 - 3, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 7, 2**54],
    [2**1000 - 1, 2**1000, 2**1000 + 1, 2**1001, 3 * 2**1001],
    [10**307, 10**308, 2 * 10**308, 10**309],
    [10**499, 10**500 - 1, 10**500, 10**500 + 1, 10**501],
    list(range(1, 3000, 7)),
]


@pytest.mark.parametrize("dspec", [d.power(0.5), d.power(1.3), d.power(0.001), d.harmonic_like()],
                         ids=["power0.5", "power1.3", "power0.001", "harmonic_like"])
@pytest.mark.parametrize("bounds", _BOUNDS, ids=["small", "2^20", "2^53", "2^1000", "float_max",
                                                 "10^500", "dense"])
def test_segment_masses_match_the_scalar_loop(dspec, bounds) -> None:
    impl = d._impl(dspec)
    got = d.segment_masses(dspec, bounds)
    want = segment_masses_reference(impl, bounds)
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        assert same_bits(a, b), (j, a, b)
    glo, ghi, tlo, thi = impl.bound_arrays(bounds)
    for j, b in enumerate(bounds):
        assert same_bits(Interval(glo[j].item(), ghi[j].item()), impl.gamma_iv(b)), b
        assert same_bits(Interval(tlo[j].item(), thi[j].item()), Interval(*impl.integral_pair(b))), b


def test_segment_masses_raise_as_the_scalar_loop_does() -> None:
    # 1/eps overflows, so both ends of every integral tail are inf and
    # each difference is inf - inf: NaN, refused by the same check
    impl = d._impl(d.power(5e-324))
    with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
        segment_masses_reference(impl, [1, 2, 3])
    for arrays in (False, True):
        with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
            d.segment_masses(d.power(5e-324), [1, 2, 3], arrays=arrays)


def test_pow_arrays_keep_libm_pow_per_element() -> None:
    # numpy's vectorised power may differ from pow in the last bit; the
    # kernels call pow per element, so they agree with the scalar form
    # exactly (_pow_iv under the underflow policy, which 10^400^-1.5 meets)
    bases = list(range(1, 5000)) + [2**1000 + 5, 10**400]
    for expo in (-1.5, -0.5, -1.001, -2.3):
        lo, hi = d._pow_arrays(bases, expo)
        for j, b in enumerate(bases):
            want = Interval(*d._positive_pad_pair(*d._pow_parts(b, expo)))
            assert bits(lo[j]) == bits(want.lo) and bits(hi[j]) == bits(want.hi), (b, expo)
    assert math.isfinite(lo[-1])


# -- the block-sum table ----------------------------------------------------
#
# discount._BlockSums answers every piece of a query in numpy from one
# float64 array of 64-index block sums. Its list-and-fsum form, with
# 512-index blocks and one fsum per piece, stays here as the reference:
# both are rigorous, so their enclosures must overlap, and their pads
# must agree to within 1e-12 of the mass. The new pad lies between a
# quarter and twice the old one: the old one bounds a fresh piece of up
# to 1022 terms by the per-term bound at its end, the new one per block.


class ListBlockSums:
    """discount._BlockSums before its array form, verbatim."""

    SIZE = 1 << 9
    CHUNK = 1 << 16

    def __init__(self, terms, term_rel=None, origin=1, stop=None):
        self._terms, self._term_rel, self._origin = terms, term_rel, origin
        self._max_blocks = math.inf if stop is None else (stop - origin) // self.SIZE
        self._sums = []
        self._pads = []

    def _pads_of(self, sums, n, hi):
        rel = d._U * (260.0 + 2.0 * np.log2(np.maximum(n, 2)))
        return (rel if self._term_rel is None else rel + self._term_rel(hi)) * sums

    def _grow(self, blocks):
        size = self.SIZE
        while len(self._sums) < blocks:
            n = min(self.CHUNK // size, self._max_blocks - len(self._sums))
            lo = self._origin + len(self._sums) * size
            sums = self._terms(np.arange(lo, lo + n * size, dtype=np.float64))
            sums = sums.reshape(n, size).sum(axis=1)
            ends = lo + size * np.arange(1, n + 1, dtype=np.float64)
            self._pads.extend(self._pads_of(sums, size, ends).tolist())
            self._sums.extend(sums.tolist())

    def masses(self, bounds):
        size, o = self.SIZE, self._origin
        a, b = np.array(bounds[:-1], dtype=np.int64), np.array(bounds[1:], dtype=np.int64)
        first, last = -((o - a) // size), (b - o) // size
        whole = first < last
        first, last = first * whole, last * whole
        self._grow(int(last.max()))
        lo = np.concatenate([a, np.where(whole, o + last * size, b)])
        hi = np.concatenate([np.where(whole, o + first * size, b), b])
        n, sums = hi - lo, np.zeros(2 * a.size)
        live, step = np.flatnonzero(n), self.CHUNK // (2 * size)
        for sel in (live[g : g + step] for g in range(0, live.size, step)):
            starts = np.cumsum(n[sel]) - n[sel]
            idx = np.arange(starts[-1] + n[sel[-1]]) + np.repeat(lo[sel] - starts, n[sel])
            sums[sel] = np.add.reduceat(self._terms(idx.astype(np.float64)), starts)
        pads, sums, m = self._pads_of(sums, n, hi).tolist(), sums.tolist(), a.size
        out = []
        for j, (f, e) in enumerate(zip(first.tolist(), last.tolist())):
            total = math.fsum(self._sums[f:e] + [sums[j], sums[m + j]])
            pad = math.fsum(self._pads[f:e] + [pads[j], pads[m + j]])
            out.append(Interval.widened(max(total - pad, 0.0), total + pad))
        return out


def _pairwise(x):
    """numpy's pairwise float64 sum, step by step."""
    n = len(x)
    if n < 8:
        res = 0.0
        for v_i in x:
            res += v_i
        return res
    if n <= 128:
        r8 = list(x[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r8[j] += x[i + j]
            i += 8
        res = ((r8[0] + r8[1]) + (r8[2] + r8[3])) + ((r8[4] + r8[5]) + (r8[6] + r8[7]))
        for v_i in x[i:]:
            res += v_i
        return res
    half = n // 2 - (n // 2) % 8
    return _pairwise(x[:half]) + _pairwise(x[half:])


def _pairwise_depth(n, memo={}):
    """The most rounded additions one term passes through in _pairwise."""
    if n not in memo:
        if n < 8:
            memo[n] = max(n - 1, 0)
        elif n <= 128:
            memo[n] = n // 8 + 2 + n % 8
        else:
            half = n // 2 - (n // 2) % 8
            memo[n] = 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))
    return memo[n]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130, 200, 1000,
                               8191, 8192, 8193, 100_003])
def test_reduceat_adds_the_first_term_to_a_pairwise_sum_of_the_rest(n) -> None:
    # the pad of _BlockSums rests on this model of np.add.reduceat
    rng = np.random.default_rng(n)
    x = rng.random(n + 40) * 10.0 ** rng.uniform(-12, 0, n + 40)
    got = np.add.reduceat(x, [3, 3 + n])[0]
    seg = x[3 : 3 + n].tolist()
    want = seg[0] + _pairwise(seg[1:]) if n > 1 else seg[0]
    assert bits(got) == bits(want)


def test_sum_depth_bounds_the_pairwise_depth() -> None:
    ns = np.array(list(range(1, 5000)) + [10**5, 2**20 + 7, 2**21, 1562500, 10**8 // 64])
    depth = d._sum_depth(ns)
    for n, got in zip(ns.tolist(), depth.tolist()):
        assert got >= 1 + _pairwise_depth(n - 1), n
    assert d._sum_depth(np.array([64, 128, 192])).tolist() == [25, 25, 26]


def block_masses(table, bounds):
    """_BlockSums.mass_arrays boxed as Intervals."""
    lo, hi = table.mass_arrays(bounds)
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def _cosine_table(origin=1):
    f = d._CosineModulated()
    return (d._BlockSums(f.gamma_vec, f._term_rel, origin=origin),
            ListBlockSums(f.gamma_vec, f._term_rel, origin=origin))


def _harmonic_table(origin, stop):
    def terms(idx):
        return 0.37 / (idx * np.log(idx) ** 2)
    return (d._BlockSums(terms, origin=origin, stop=stop),
            ListBlockSums(terms, origin=origin, stop=stop))


_S = d._BlockSums.SIZE
_RNG = np.random.default_rng(2006)
_BLOCK_CASES = [
    ("inside one block", _cosine_table, (), [5, 40]),
    ("single terms", _cosine_table, (), [1, 2, 1000, 1001]),
    ("block edges", _cosine_table, (),
     [1 + 4 * _S - 1, 1 + 4 * _S, 1 + 4 * _S + 1, 1 + 9 * _S - 1, 1 + 9 * _S, 1 + 9 * _S + 1]),
    ("empty gaps", _cosine_table, (), [3, 3, 700, 700, 700, 5000, 5001, 5001]),
    ("random", _cosine_table, (), np.unique(_RNG.integers(1, 300_000, 400)).tolist()),
    ("2^23", _cosine_table, (),
     [2**23 - 3 * _S - 1, 2**23 - 1, 2**23, 2**23 + 1, 2**23 + _S, 2**23 + 5 * _S + 3]),
    ("10^8", _cosine_table, (10**8 - 10**4,),
     [10**8 - 10**4, 10**8 - 7, 10**8, 10**8 + 1, 10**8 + 3 * _S, 10**8 + 9000]),
    ("patched stretch", _harmonic_table, (427, 30154),
     [427, 428, 427 + _S - 1, 427 + 2 * _S, 5000, 5000, 29_999, 30_154]),
    ("patched random", _harmonic_table, (427, 30154),
     np.unique(_RNG.integers(427, 30_155, 60)).tolist()),
]


@pytest.mark.parametrize("make, args, bounds", [c[1:] for c in _BLOCK_CASES],
                         ids=[c[0] for c in _BLOCK_CASES])
def test_block_masses_overlap_the_list_reference(make, args, bounds) -> None:
    table, reference = make(*args)
    got, want = block_masses(table, bounds), reference.masses(bounds)
    assert len(got) == len(want) == len(bounds) - 1
    for (a, b), g, w in zip(zip(bounds, bounds[1:]), got, want):
        assert g.intersects(w), (a, b, g, w)
        assert abs(g.width - w.width) <= 1e-12 * w.hi + 1e-300, (a, b, g, w)
        if w.lo > 0.0:  # no part of the pad is dropped
            assert 0.25 * w.width <= g.width <= 2.0 * w.width, (a, b, g, w)
        if a == b:
            assert g.lo <= 0.0 <= g.hi


def test_block_table_cut_short_by_the_guard_is_redone_whole(monkeypatch) -> None:
    bounds = [3, 900, 5000, 70_000]
    fresh = block_masses(_cosine_table()[0], bounds)
    table = _cosine_table()[0]
    monkeypatch.setenv("HORIZONLAB_GUARD", "1000")
    table.mass_arrays([3, 800])  # fills 15 blocks, part of the first chunk
    assert table._sums.size == 1000 // _S
    with pytest.raises(d.GuardExceeded):
        table.mass_arrays([3, 1000 + 2 * _S + 2])
    with pytest.raises(d.GuardExceeded):
        table.mass(3, 1000 + 2 * _S + 2)
    monkeypatch.delenv("HORIZONLAB_GUARD")
    assert [same_bits(a, b) for a, b in zip(block_masses(table, bounds), fresh)] == [True] * 3
    ones = [Interval(*table.mass(a, b)) for a, b in zip(bounds, bounds[1:])]
    assert [same_bits(a, b) for a, b in zip(ones, fresh)] == [True] * 3


def test_block_table_stops_at_the_guard(monkeypatch) -> None:
    monkeypatch.setenv("HORIZONLAB_GUARD", "5000")
    table = _cosine_table()[0]
    # the table holds the whole blocks below the guard; up to two blocks
    # past the last of them are summed fresh
    end = 1 + (5000 // _S + 2) * _S
    masses = block_masses(table, [10, 5000, end])
    assert table._sums.size == 5000 // _S and len(masses) == 2
    ones = [Interval(*_cosine_table()[0].mass(a, b)) for a, b in [(10, 5000), (5000, end)]]
    assert [same_bits(a, b) for a, b in zip(ones, masses)] == [True] * 2
    for a, b in [(10, end + 1), (2**63, 2**63 + 5)]:  # both entries stop at the same bounds
        with pytest.raises(d.GuardExceeded):
            table.mass_arrays([a, b])
        with pytest.raises(d.GuardExceeded):
            table.mass(a, b)


# -- one-piece block masses --------------------------------------------------
#
# A tail asks _BlockSums for one piece, through mass(a, b). It must return
# the bits of mass_arrays([a, b]), the batch entry: the same whole-block
# reduceat, fresh ends and pads, on Python floats.


def _even_table(base):
    return d._AlternatingZero(base)._evens


_ONE_PIECE_TABLES = {
    "cosine from 1": (lambda: _cosine_table()[0], 1, 300_000),
    "cosine from 10^8 - 10^4": (lambda: _cosine_table(10**8 - 10**4)[0], 10**8 - 10**4, 10**8 + 10**4),
    "patched stretch": (lambda: _harmonic_table(427, 30154)[0], 427, 30_154),
    "alternating evens": (lambda: _even_table(h.quadratic()), 1, 300_000),
    "alternating evens over cosine": (lambda: _even_table(h.cosine_modulated()), 1, 300_000),
}


def _one_piece_cases(origin, end):
    """Pieces [a, b) over a table from origin whose stretch ends at end."""
    rng = np.random.default_rng(origin)
    edge = origin + 9 * _S
    pieces = [tuple(sorted(p)) for p in rng.integers(origin, end + 1, (300, 2)).tolist()]
    pieces += [(origin + 5, origin + 40), (origin + 3 * _S + 1, origin + 4 * _S - 1)]  # one block
    pieces += [(origin, origin + 1), (origin + 1000, origin + 1001), (end - 1, end)]  # single terms
    pieces += [(origin + 7, origin + 7), (end, end)]  # empty
    pieces += [(a, b) for a in (edge - 1, edge, edge + 1) for b in (edge + 2 * _S - 1, edge + 2 * _S,
                                                                   edge + 2 * _S + 1)]
    pieces += [(origin, edge), (edge, end), (origin + 1, end)]  # from and to block edges
    return pieces


@pytest.mark.parametrize("name", list(_ONE_PIECE_TABLES))
def test_one_piece_mass_is_mass_arrays_bit_for_bit(name) -> None:
    make, origin, end = _ONE_PIECE_TABLES[name]
    one, batch = make(), make()
    for a, b in _one_piece_cases(origin, end):
        lo, hi = batch.mass_arrays([a, b])
        got = one.mass(a, b)
        assert all(type(x) is float for x in got)
        assert (bits(got[0]), bits(got[1])) == (bits(lo[0]), bits(hi[0])), (a, b)


@pytest.mark.parametrize("make", [lambda: _cosine_table()[0],
                                  lambda: _even_table(h.cosine_modulated())],
                         ids=["cosine", "alternating evens over cosine"])
def test_one_piece_mass_over_several_rho_runs(make) -> None:
    # rho_i steps up with the ulp of pi sqrt(2i): a long piece crosses
    # several runs of blocks of equal rho, each summed by itself
    one, batch = make(), make()
    for a, b in [(1000, 900_000), (5, 2**20 + 3), (20_000, 260_001)]:
        lo, hi = batch.mass_arrays([a, b])
        got = one.mass(a, b)
        assert (bits(got[0]), bits(got[1])) == (bits(lo[0]), bits(hi[0])), (a, b)
        f, e = -(-(a - 1) // _S), (b - 1) // _S  # the whole blocks (origin 1)
        runs = np.searchsorted(one._cuts, e, "left") - np.searchsorted(one._cuts, f, "right") + 1
        assert runs >= 3, (a, b)


def custom_tails_reference(impl, table, ks):
    """_Custom.tail at each k, with the suffix sums as a list of boxed
    floats and the continuation taken per call."""
    suffix = np.cumsum(np.concatenate(([0.0], np.array(table)[::-1])))[::-1].tolist()
    out = []
    for k in ks:
        if k > impl.K:
            out.append(impl._model_tail(k))
            continue
        part = suffix[k - 1]
        pad = d._U * (impl.K - k + 2) * abs(part) + 5e-324
        out.append(Interval(part - pad, part + pad) + impl._model_tail(impl.K + 1))
    return out


@pytest.mark.parametrize("model", [None, ("geometric", 0.9), ("power", 1.0), ("power", 0.25)],
                         ids=str)
def test_custom_tails_match_the_list_suffix_form(model) -> None:
    rng = np.random.default_rng(5000)
    table = (rng.random(5000) * 10.0 ** rng.uniform(-20, 0, 5000)).tolist()
    impl = d._Custom(tuple(table), model)
    ks = range(1, 5001) if model is None else range(1, 5011)
    for k, want in zip(ks, custom_tails_reference(impl, table, ks)):
        got = impl.tail(k)
        assert type(got.lo) is float and type(got.hi) is float
        assert same_bits(got, want), k


# alternating's even-weight table w_j = gamma_2j pads by its base's term
# bound at 2j (cosine's grows with the ulp of pi sqrt(2i)); it took none
# and padded [5000, 10^5) by 2.9e-14 of the mass, below the bound of
# 2.9e-13 at its first term. The bound at a window's first index holds
# for each of its terms, and on [99,000, 10^5) it is the one at 2b too.
@pytest.mark.parametrize("a, b", [(5000, 10**5), (99_000, 10**5), (5000, 5100)])
def test_alternating_even_table_pads_by_its_base_term_bound(a, b) -> None:
    rho = d._impl(d.cosine_modulated())._term_rel
    lo, hi = d._impl(d.alternating_zero(d.cosine_modulated()))._evens.mass_arrays([a, b])
    total = (lo[0] + hi[0]) / 2
    assert (hi[0] - lo[0]) / 2 >= rho(2.0 * a) * total
    if b - a <= 1000:
        assert rho(2.0 * a) == rho(2.0 * b)


# -- segment mass arrays ---------------------------------------------------
#
# Every family answers segment_mass_arrays with lo and hi arrays, and
# discount.segment_masses is the one place that turns them into
# Intervals. The Interval-list bodies they replaced stay here.


def tail_difference_reference(impl, bounds, target=None):
    """_Base.segment_masses before its array form: tail differences, clamped at 0."""
    tails = impl.tail_batch(bounds, target)
    diffs = [a - b for a, b in zip(tails, tails[1:])]
    return [Interval(max(x.lo, 0.0), max(x.hi, 0.0)) for x in diffs]


def cosine_masses_reference(impl, bounds, target=None):
    """_CosineModulated.segment_masses before its array form."""
    def closed(bs):
        lo, hi = impl._closed_mass_arrays(bs)
        return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]

    if target is None or bounds[-1] >= impl._FAR:
        return block_masses(impl._sums, bounds)
    cut = impl._reach(target / 64.0)
    j = bisect.bisect_left(bounds, cut)
    if j == 0:
        return closed(bounds)
    if j == len(bounds):
        return block_masses(impl._sums, bounds)
    if bounds[j] == cut:
        return block_masses(impl._sums, bounds[: j + 1]) + closed(bounds[j:])
    near = block_masses(impl._sums, bounds[:j] + [cut])
    far = closed([cut] + bounds[j:])
    return near[:-1] + [near[-1] + far[0]] + far[1:]


def masses_reference(dspec, bounds, target=None):
    """The Interval list that discount.segment_masses returned before."""
    impl = d._impl(dspec.unscaled())
    if isinstance(impl, d._Integrable):
        out = segment_masses_reference(impl, bounds)
    elif isinstance(impl, d._CosineModulated):
        out = cosine_masses_reference(impl, bounds, target)
    else:
        out = tail_difference_reference(impl, bounds, target)
    return out if dspec.scale == 1.0 else [iv * dspec.scale for iv in out]


def any_outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


_MASS_FAMILIES = {
    "quadratic": d.quadratic(),
    "power0.5": d.power(0.5),
    "power1.3": d.power(1.3),
    "harmonic_like": d.harmonic_like(),
    "cosine": d.cosine_modulated(),
    "alternating": d.alternating_zero(),
    "step_log": d.step_log(),
    "patched": d.build_patched([1, 2]),
    "finite": d.finite(50),
    "geometric": d.geometric(0.9),
    "custom_tail": d.custom([1.0 / (i * (i + 1)) for i in range(1, 300)], ("power", 1.0)),
    "custom_bare": d.custom([0.5, 0.25, 0.125]),
    "scaled_harmonic": d.harmonic_like().with_scale(3.0),
    "scaled_cosine": d.cosine_modulated().with_scale(0.7),
}

_MASS_BOUNDS = {
    "1,2,3": [1, 2, 3],
    "block edges": [1 + 4 * _S - 1, 1 + 4 * _S, 1 + 4 * _S + 1, 1 + 9 * _S - 1, 1 + 9 * _S,
                    1 + 9 * _S + 1],
    "2^53": [2**53 - 1, 2**53, 2**53 + 1],
    "2^63": [2**63 - 1, 2**63, 2**63 + 1],
    "below 2^1024": [2**1023, 2**1024 - 2**971, 2**1024 - 2**970 - 1],
    "2^1024": [2**1024 - 2**970, 2**1024 - 1, 2**1024, 2**1024 + 1],
    "2^300": [2**300, 2**300 + 1, 2**301],
    "10^400": [10**400, 10**400 + 1, 10**401],
    "mixed": [1, 2, 3, 1 + 4 * _S, 5000, 70_000, 2**53 + 1, 2**300, 10**400],
}


@pytest.mark.parametrize("target", [None, 1e-6, 1e-3])
@pytest.mark.parametrize("bounds", list(_MASS_BOUNDS.values()), ids=list(_MASS_BOUNDS))
@pytest.mark.parametrize("dspec", list(_MASS_FAMILIES.values()), ids=list(_MASS_FAMILIES))
def test_segment_mass_arrays_match_the_interval_lists(dspec, bounds, target) -> None:
    want = any_outcome(masses_reference, dspec, bounds, target)
    got = any_outcome(d.segment_masses, dspec, bounds, target)
    arrays = any_outcome(lambda: d.segment_masses(dspec, bounds, target, arrays=True))
    if isinstance(want, str):  # past a table or the guard: the same error
        assert got == want and arrays == want
        return
    assert len(got) == len(want) == arrays[0].size == len(bounds) - 1
    for j, (g, w) in enumerate(zip(got, want)):
        assert same_bits(g, w), (j, g, w)
        assert same_bits(Interval(arrays[0][j].item(), arrays[1][j].item()), w), j


def test_cosine_masses_split_across_the_closed_form_cut() -> None:
    # a piece across the cut adds its table part and its closed-form part
    impl = d._impl(d.cosine_modulated())
    target = 1e-3
    cut = impl._reach(target / 64.0)
    for bounds in ([5, cut - 3, cut + 10, cut + 500], [cut - 70, cut, cut + 1], [cut + 1, cut + 9]):
        got = d.segment_masses(d.cosine_modulated(), bounds, target)
        want = cosine_masses_reference(impl, bounds, target)
        assert all(same_bits(g, w) for g, w in zip(got, want)), bounds


# -- V's runs path ---------------------------------------------------------------


def runs_value_reference(rspec, dspec, k, tol):
    """value._runs_values at one index with its set, sort, dict and
    Interval lists."""
    impl = d._impl(dspec)
    form = impl.mass_form
    pts = rspec.params[1] if rspec.params[0] == "explicit" else ()
    last = pts[-1] if pts and len(pts) % 2 == 0 else None
    budget_end = None if form == "ratios" else v._budget_end(rspec, k)
    attained = True
    guard = v.guard_index()
    if form == "ratios":
        denom = Interval.exact(1.0)
        n_trunc = v._ratio_truncation(impl, k, tol)
        if last is not None:
            n_trunc = max(n_trunc, last - 1)
    elif form == "blocks":
        target = tol * impl.tail_crude(k).lo
        n_trunc = max(k, impl.index_for_tail_bound(target, k))
        if n_trunc > guard:
            n_trunc, attained = max(guard, k - 1), False
        if budget_end is not None and n_trunc > budget_end:
            n_trunc, attained = budget_end, False
    else:
        denom = d.gamma_tail(dspec, k, v._tail_target(tol, k))
        if not denom.lo > 0.0:
            raise d.UndefinedMetric(f"tail enclosure not positive at k={k}")
        target = tol * denom.lo
        if last is not None:
            n_trunc, unseen = max(last - 1, k), Interval.exact(0.0)
        else:
            cap = guard if impl.sums_terms else v._N_CAP
            if budget_end is not None:
                cap = min(cap, budget_end)
            n_trunc, unseen, attained = v._truncate(rspec, dspec, k, denom, tol, cap)
    flat = r.one_segments(rspec, k, n_trunc).tolist()
    segs = list(zip(flat[0::2], flat[1::2]))
    bounds = set(flat)
    if form == "blocks":
        end = n_trunc + 1
        if end > k:
            bounds |= {k, end}
    bounds = sorted(bounds)
    finite_done = last is not None and last <= n_trunc + 1
    if form == "ratios":
        unseen = Interval(0.0, impl.tail_ratio(n_trunc + 1, k).hi)
        ratios = [impl.tail_ratio(b, k) for b in bounds]
        masses = [a - b for a, b in zip(ratios, ratios[1:])]
    elif form == "blocks":
        split = bounds.index(segs[-1][1]) if finite_done and segs else 0
        masses = masses_reference(dspec, bounds[: split + 1]) if split else []
        if len(bounds) > split + 1:
            masses += masses_reference(dspec, bounds[split:], target)
        rest = impl.rest(end)
        denom = interval_sum_reference(masses) + rest
        unseen = Interval(0.0, rest.hi)
    else:
        masses = masses_reference(dspec, bounds, target) if bounds else []
    gap = {a: j for j, a in enumerate(bounds)}
    s = interval_sum_reference([masses[gap[a]] for a, _ in segs])
    if finite_done:
        unseen = Interval.exact(0.0)
    numerator = Interval(max(s.lo + unseen.lo, 0.0), s.hi + unseen.hi)
    return numerator, denom, n_trunc, attained or finite_done


_RUNS_REWARDS = [
    h.linear_runs(),
    h.exponential_runs(),
    h.explicit_change_points([2, 5, 9, 30]),
    h.explicit_change_points([3, 4, 50]),
    h.explicit_change_points([5, 10**6, 10**7, 10**30]),
]


@pytest.mark.parametrize("dspec", [d.harmonic_like(), d.power(0.5), d.quadratic(), d.step_log(),
                                   d.cosine_modulated(), d.geometric(0.5), d.geometric(0.9)],
                         ids=["harmonic_like", "power", "quadratic", "step_log", "cosine",
                              "geometric0.5", "geometric0.9"])
@pytest.mark.parametrize("rspec", _RUNS_REWARDS, ids=["linear", "exponential", "explicit4",
                                                      "explicit3", "explicit_far"])
def test_runs_value_matches_the_interval_lists(rspec, dspec) -> None:
    ks = [1, 2, 3, 7, 64, 101, 600, 3600]
    if dspec.family != "cosine_modulated":
        ks += [12_345, 2**53 + 1, 10**22, 2**200]
    for k in ks:
        for tol in (1e-3, 1e-5):
            got = any_outcome(lambda: v._runs_values(rspec, dspec, [k], tol)[0])
            if isinstance(got, d.UndefinedMetric):  # recorded, not raised
                got = f"UndefinedMetric: {got}"
            want = any_outcome(runs_value_reference, rspec, dspec, k, tol)
            if isinstance(want, str):
                assert got == want, (k, tol)
                continue
            assert got[2:] == want[2:], (k, tol, got, want)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (k, tol, got, want)


# indices around the float and int64 limits, where the run bounds change
# dtype (int64 below 2**63, Python ints from there up)
_EDGE_KS = [2**53 - 1, 2**53 + 1, 2**62, 2**63 - 1, 2**63 + 1, 2**64 + 1, 10**310]
_EDGE_REWARDS = {
    "linear": h.linear_runs(),
    "exponential": h.exponential_runs(),
    "explicit_even": h.explicit_change_points([3, 7, 600, 700, 2**53, 2**53 + 2, 2**63 - 2,
                                               2**63 + 5, 2**64, 10**310]),
    "explicit_odd": h.explicit_change_points([2, 9, 650, 2**62 + 1, 2**63, 10**310 + 7]),
}
_EDGE_DISCOUNTS = {
    "quadratic": d.quadratic(), "power": d.power(0.5), "harmonic_like": d.harmonic_like(),
    "step_log": d.step_log(), "cosine": d.cosine_modulated(), "geometric0.5": d.geometric(0.5),
    "geometric0.9": d.geometric(0.9),
}


@pytest.mark.parametrize("dspec", list(_EDGE_DISCOUNTS.values()), ids=list(_EDGE_DISCOUNTS))
@pytest.mark.parametrize("rspec", list(_EDGE_REWARDS.values()), ids=list(_EDGE_REWARDS))
def test_batched_runs_values_match_the_interval_lists_at_the_int64_edges(rspec, dspec) -> None:
    # one pass over every index: the runs are shared, and under quadratic,
    # power, harmonic-like and step_log the mass ends too (one union of
    # bounds); every value keeps the bits of the list reference at its index
    ks = [1, 7, 600, 3600] + _EDGE_KS
    if rspec.params[0] == "linear" and dspec.family in ("quadratic", "step_log"):
        # their rest at 10**310 is wide (Gamma_k is subnormal): N stops at the
        # run budget, whose 200,000 pieces take the list reference seconds
        ks.remove(10**310)
    for tol in (1e-3, 1e-5):
        got = any_outcome(v._runs_values, rspec, dspec, ks, tol)
        if isinstance(got, str):  # the pass as a whole raised
            assert got == any_outcome(runs_value_reference, rspec, dspec, ks[0], tol)
            continue
        for k, g in zip(ks, got):
            if isinstance(g, d.UndefinedMetric):  # recorded, not raised
                g = f"UndefinedMetric: {g}"
            want = any_outcome(runs_value_reference, rspec, dspec, k, tol)
            if isinstance(want, str) or isinstance(g, str):
                assert g == want, (k, tol)
                continue
            assert g[2:] == want[2:], (k, tol, g, want)
            assert same_bits(g[0], want[0]) and same_bits(g[1], want[1]), (k, tol, g, want)


def test_index_arrays_are_int64_or_python_ints() -> None:
    # numpy reads [2**63] as uint64, and uint64 with int64 as float64
    from horizonlab._guards import index_array, index_dtype
    for top in (0, 1, 2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 + 1, 10**310):
        assert index_dtype(top) in (np.int64, object)
    for values in ([1, 2**63 - 1], [2**62, 2**63], [5, 2**63 + 1, 2**64 + 1], [2**53 + 1, 10**310],
                   [np.int64(3), 2**64 + 1]):
        a, ints = index_array(values), [int(x) for x in values]
        assert a.dtype == (np.int64 if max(ints) < 2**63 else object)
        assert a.tolist() == ints and all(type(x) is int for x in a.tolist())
        # the numpy expressions of the runs path keep the dtype and the values
        assert np.diff(a).tolist() == [y - x for x, y in zip(ints, ints[1:])]
        assert np.concatenate((a[:1], a[1:])).dtype == a.dtype
        assert int(np.searchsorted(a, values[-1])) == len(values) - 1
    assert index_array([], 2**63).dtype == object and index_array([]).dtype == np.int64


@pytest.mark.parametrize("bounds", [[5, 3], [1], [], [7, 7, 9], [2**63 + 1, 2**63], [10**310],
                                    [1, 10**310, 10**310]])
def test_segment_masses_refuse_bad_bounds_in_every_form(bounds) -> None:
    from horizonlab._guards import index_array
    forms = [bounds, index_array(bounds)]
    if all(b < 2**63 for b in bounds):
        forms.append(np.array(bounds, dtype=object))
    for form in forms:
        for dspec in (d.quadratic(), d.cosine_modulated(), d.geometric(0.9)):
            with pytest.raises(ValueError, match=r"^bounds must be strictly increasing, length >= 2$"):
                d.segment_masses(dspec, form)


# -- the rest probe ----------------------------------------------------------------


def int_times_reference(n, iv):
    """value._int_times on Intervals, before it took float pairs."""
    if n < 1 << 53:
        return Interval.widened(min(n * iv.lo, sys.float_info.max), n * iv.hi)
    shift = n.bit_length() - 53
    top = n >> shift
    try:
        hi = (top + 1) * math.ldexp(iv.hi, shift)
    except OverflowError:
        hi = math.inf
    try:
        lo = min(top * math.ldexp(iv.lo, shift), sys.float_info.max)
    except OverflowError:
        lo = sys.float_info.max
    return Interval.widened(lo, hi)


def sqrt_iv_reference(n):
    """value._sqrt_iv on Intervals, before it took float pairs."""
    if n < 1 << 53:
        return Interval.rounded(math.sqrt(n))
    r = math.isqrt(n)
    return Interval.widened(float(r), float(r + 1))


def q_times_reference(q, iv):
    """value._q_times on a Fraction and Intervals, before it took ints and
    float pairs."""
    prod = int_times_reference(abs(q.numerator), iv) / int_times_reference(q.denominator,
                                                                           Interval.exact(1.0))
    return -prod if q < 0 else prod


def rest_enclosure_reference(fam, env, m, hint):
    """value._rest_enclosure with Fraction arithmetic on the envelope's
    mean, b and excess."""
    g = fam.gamma_iv(m + 1)
    t2 = fam.tail(m + 2, hint)
    t1 = g + t2
    s0 = g if fam.monotone else fam.variation(m)
    if env.p == 0.0:
        s = s0
    elif env.p == 1.0:
        s = int_times_reference(m + 1, g) + t2
    else:
        root = sqrt_iv_reference(m + 1)
        s = root * g + t2 / (root + root)
    mean, b, excess = (Fraction(x, env.den) for x in (env.mean_num, env.b_num, env.excess_num(m)))
    radius = (env.a * s + q_times_reference(b, s0)).hi
    iv = q_times_reference(mean, t1) - q_times_reference(excess, g) + Interval(-radius, radius)
    return Interval(max(iv.lo, 0.0), min(iv.hi, t1.hi))


_PATTERNS = [[1.0, 0.0, 1.0], [0.1, 0.7, 0.2], [0.0, 0.0, 1.0, 0.25], [1.0], [0.3, 0.7, 0.1, 0.9, 0.5]]
_REST_MS = [1, 2, 3, 7, 100, 1001, 2**53 - 1, 2**53, 2**53 + 1, 2**100 + 3, 2**300, 2**480,
            2**1024 - 1, 2**1024, 2**1024 + 1]


def _rest_cases():
    monotone = {"power": d.power(0.5), "harmonic_like": d.harmonic_like(),
                "quadratic": d.quadratic(), "step_log": d.step_log(),
                "geometric0.5": d.geometric(0.5), "geometric0.9": d.geometric(0.9),
                "finite": d.finite(300), "patched": d.build_patched([1])}
    for name, dspec in monotone.items():
        for rspec in [h.linear_runs(), h.exponential_runs()] + [h.periodic(p) for p in _PATTERNS]:
            yield name, d._impl(dspec), rspec
    for rspec in [h.periodic(p) for p in _PATTERNS]:
        yield "cosine", d._impl(d.cosine_modulated()), rspec
        view = d._impl(d.alternating_zero()).even_view()
        yield "alternating even view", view, r.even_rewards(rspec)


@pytest.mark.parametrize("name, fam, rspec", list(_rest_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_rest_enclosure_matches_the_fraction_code(name, fam, rspec) -> None:
    env = r.window_envelope(rspec)
    for m in _REST_MS:
        for hint in (1e-9, 3e-4):
            got = v._rest_enclosure(fam, env, m, hint)
            want = rest_enclosure_reference(fam, env, m, hint)
            assert same_bits(got, want), (name, rspec, m, hint, got, want)


_SIGNED = [(0.0, 0.0), (-2e-323, 2e-323), (5e-324, 1e-300), (0.3, 0.7), (-5.0, -1.0), (-1.0, 3.0),
           (2.0, math.inf), (0.0, math.inf), (-math.inf, 1.0), (1e308, 1.7e308)]


def test_pair_arithmetic_matches_the_interval_operators() -> None:
    # every sign case, infinities and 0 * inf included, with the same bits or the same error
    for x in _SIGNED:
        for y in _SIGNED:
            ops = [(v._add, Interval.__add__), (v._mul, Interval.__mul__)]
            if y[0] > 0.0:
                ops.append((v._div, Interval.__truediv__))
            for pair_op, interval_op in ops:
                got = any_outcome(lambda: Interval(*pair_op(x, y)))
                want = any_outcome(interval_op, Interval(*x), Interval(*y))
                assert got == want if isinstance(want, str) else same_bits(got, want), (x, y)


def test_q_times_reduces_as_fraction_does() -> None:
    iv = Interval(0.3, 0.30000000000000004)
    for num, den in [(3, 6), (0, 7), (-4, 6), (2**70 + 2, 2**55), (-(3**40), 3**41), (5, 1)]:
        got = Interval(*v._q_times(num, den, (iv.lo, iv.hi)))
        assert same_bits(got, q_times_reference(Fraction(num, den), iv))


# -- family float pairs ------------------------------------------------------------
# Quadratic, power and harmonic-like compute gamma_k and Gamma_k as float
# pairs and box them; their Interval forms before that stay here.


def rel_pad_reference(value, rel):
    pad = abs(value) * rel + 5e-324
    return Interval.widened(value - pad, value + pad)


def subnormal_reference(y):
    return Interval(max(y - 5e-324, 0.0), y + 5e-324)


def quadratic_reference(impl, k):
    """(gamma_iv, tail) of _Quadratic before its float pairs."""
    try:
        g = rel_pad_reference(1.0 / (k * (k + 1)), 4 * d._U)
    except OverflowError:
        g = subnormal_reference(1 / (k * (k + 1)))
    try:
        t = Interval.rounded(1.0 / k)
    except OverflowError:
        t = subnormal_reference(1 / k)
    return g, t


def positive_reference(value, rel):
    """rel_pad_reference of a positive quantity under the underflow policy:
    cut at 0, and [0, 5e-324] where the value rounded to 0."""
    if value == 0.0:
        return Interval(0.0, 5e-324)
    iv = rel_pad_reference(value, rel)
    return Interval(max(iv.lo, 0.0), iv.hi)


def power_reference(impl, k):
    """(gamma_iv, tail) of _Power before its float pairs; its powers
    follow the underflow policy."""
    g = positive_reference(*d._pow_parts(k, -1.0 - impl.eps))
    integral = positive_reference(*d._pow_parts(k, -impl.eps)) / Interval.exact(impl.eps)
    return g, Interval(integral.lo, (g + integral).hi)


def harmonic_reference(impl, k):
    """(gamma_iv, tail) of _HarmonicLike before its float pairs."""
    def gamma_iv(k):
        g = impl.gamma(k)
        return Interval(0.0, 5e-324) if g == 0.0 else rel_pad_reference(g, impl._gamma_rel(k))

    if k == 1:
        return gamma_iv(1), gamma_iv(1) + harmonic_reference(impl, 2)[1]
    y = math.log(k)
    inv_ln = Interval.exact(1.0) / Interval.widened(y, y)
    return gamma_iv(k), Interval(inv_ln.lo, (gamma_iv(k) + inv_ln).hi)


_PAIR_KS = [1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1,
            2**1024 - 1, 2**1024, 2**1024 + 1, 10**400]
_PAIR_IDS = ["1", "2", "3", "2^53-1", "2^53", "2^53+1", "2^63-1", "2^63", "2^63+1",
             "2^1024-1", "2^1024", "2^1024+1", "10^400"]


@pytest.mark.parametrize("k", _PAIR_KS, ids=_PAIR_IDS)
@pytest.mark.parametrize("dspec, reference", [
    (d.quadratic(), quadratic_reference), (d.power(0.5), power_reference),
    (d.power(1.3), power_reference), (d.harmonic_like(), harmonic_reference),
], ids=["quadratic", "power0.5", "power1.3", "harmonic_like"])
def test_family_pairs_match_the_interval_forms(dspec, reference, k) -> None:
    impl = d._impl(dspec)
    g, t = reference(impl, k)
    for hint in (None, 1e-9):
        assert same_bits(Interval(*impl.gamma_pair(k)), g) and same_bits(impl.gamma_iv(k), g)
        assert same_bits(Interval(*impl.tail_pair(k, hint)), t) and same_bits(impl.tail(k, hint), t)


@pytest.mark.parametrize("k", _PAIR_KS, ids=_PAIR_IDS)
@pytest.mark.parametrize("dspec", [
    d.quadratic(), d.power(0.5), d.harmonic_like(), d.step_log(), d.geometric(0.5),
    d.geometric(0.9), d.finite(300), d.build_patched([1, 2]), d.cosine_modulated(),
    d.alternating_zero(), d.custom([0.5, 0.25], ("geometric", 0.5)),
], ids=["quadratic", "power", "harmonic_like", "step_log", "geometric0.5", "geometric0.9",
        "finite", "patched", "cosine", "alternating", "custom"])
def test_family_pairs_unbox_their_intervals(dspec, k) -> None:
    impl = d._impl(dspec)
    for pair, boxed in [(impl.gamma_pair, impl.gamma_iv), (impl.tail_pair, impl.tail)]:
        got, want = any_outcome(pair, k), any_outcome(boxed, k)
        if isinstance(want, str):  # OverflowError past the float range: the same error
            assert got == want
        else:
            assert same_bits(Interval(*got), want)


# -- batch window weights ------------------------------------------------------
# discount.gamma_arrays answers gamma_iv for a list of indices at once;
# the telescope of corpus.identity_trials sums them with one fsum per end
# where it added one Interval per step.


_ARRAY_FAMILIES = {
    "finite": d.finite(2**26),
    "geometric0.9": d.geometric(0.9),
    "geometric0.3": d.geometric(0.3),
    "geometric0.5": d.geometric(0.5),
    "quadratic": d.quadratic(),
    "power0.5": d.power(0.5),
    "power1.3": d.power(1.3),
    "harmonic_like": d.harmonic_like(),
    "step_log": d.step_log(),
    "alternating": d.alternating_zero(),
    "cosine": d.cosine_modulated(),
    "patched": d.build_patched([1, 2]),
    "custom": d.custom([0.5, 0.25], ("geometric", 0.5)),
    "scaled_quadratic": d.quadratic().with_scale(3.0),
    "scaled_harmonic": d.harmonic_like().with_scale(0.7),
}

_ARRAY_KS = {
    "1-3": [1, 2, 3],
    "window": list(range(1990, 2040)),
    "below 2^26": [2**26 - 3, 2**26 - 1],
    "2^26": [2**26 - 1, 2**26, 2**26 + 1],
    "2^53": [2**53 - 1, 2**53, 2**53 + 1],
    "block edges": [e for n in (1, 5, 6, 20, 40) for e in (2**n, 2**n + 1)],
    "underflow": [600, 617, 618, 700, 1074, 1075, 1076],
    "2^1024": [2**1024 - 1, 2**1024, 2**1024 + 1],
    "10^400": [10**400],
    "mixed": [1, 2, 3, 700, 2000, 2**26 + 1, 2**53, 2**1024 + 1, 10**400],
}


def test_every_family_has_a_batch_weight_case() -> None:
    assert {s.family for s in _ARRAY_FAMILIES.values()} == set(d._FAMILIES)


@pytest.mark.parametrize("ks", list(_ARRAY_KS.values()), ids=list(_ARRAY_KS))
@pytest.mark.parametrize("dspec", list(_ARRAY_FAMILIES.values()), ids=list(_ARRAY_FAMILIES))
def test_gamma_arrays_match_gamma_iv(dspec, ks) -> None:
    want = [any_outcome(d.gamma_iv, dspec, k) for k in ks]
    got = any_outcome(d.gamma_arrays, dspec, ks)
    errors = [w for w in want if isinstance(w, str)]
    if errors:  # past a table or the float range: the first index's error
        assert got == errors[0]
        return
    lo, hi = got
    assert lo.dtype == hi.dtype == np.float64 and lo.size == hi.size == len(ks)
    for k, a, b, w in zip(ks, lo.tolist(), hi.tolist(), want):
        assert (bits(a), bits(b)) == (bits(w.lo), bits(w.hi)), (k, a, b, w)


def test_gamma_arrays_take_no_index_below_one() -> None:
    with pytest.raises(ValueError, match="index k must be >= 1"):
        d.gamma_arrays(d.quadratic(), [0, 1])
    lo, hi = d.gamma_arrays(d.quadratic(), [])
    assert lo.size == hi.size == 0


@pytest.mark.parametrize("g", [0.5, 0.25, 0.125])
def test_dyadic_gamma_vec_is_gamma_past_underflow(g) -> None:
    impl = d._impl(d.geometric(g))
    ks = np.arange(1, 3300, dtype=np.int64)  # 2^-3299 is 0 for each g
    assert [bits(x) for x in impl.gamma_vec(ks).tolist()] == [bits(impl.gamma(k)) for k in ks.tolist()]
    # the even weights of alternating pass int indices, as ldexp needs
    alt = d._impl(d.alternating_zero(d.geometric(g)))
    js = np.arange(1, 1700, dtype=np.float64)  # as _BlockSums passes them
    assert alt._even_terms(js).tolist() == [impl.gamma(2 * j) for j in range(1, 1700)]


def telescope_reference(gam):
    """corpus._trial_telescope's per-step Interval chain before _window_sums."""
    n1 = len(gam) - 1
    lhs = Interval.exact(0.0)
    for j in range(n1):
        lhs = lhs + (gam[j] - gam[j + 1]) * float(j + 1)
    lhs = lhs + gam[n1] * float(n1)
    rhs = Interval.exact(0.0)
    for j in range(n1):
        rhs = rhs + gam[j]
    return lhs, rhs


def test_window_sums_hold_the_exact_sums_of_their_ends() -> None:
    # each end of both sides, summed exactly in ints (every finite float
    # times 2^1100 is one); the fsum form is also inside the per-step chain
    def fixed(x):
        p, q = x.as_integer_ratio()
        return (p << 1100) // q

    rng = random.Random(2006)
    for trial in range(10_000):
        dspec = corpus._random_discount(rng)
        if dspec.family == "finite":
            dspec = d.quadratic()
        k, w = rng.randint(1, 2000), rng.randint(8, 48)
        lo, hi = d.gamma_arrays(dspec, range(k, k + w + 2))
        (l_lo, l_hi), (r_lo, r_hi) = corpus._window_sums(lo, hi)
        a, b = [fixed(x) for x in lo.tolist()], [fixed(x) for x in hi.tolist()]
        lhs_lo = sum((a[j] - b[j + 1]) * (j + 1) for j in range(w + 1)) + a[-1] * (w + 1)
        lhs_hi = sum((b[j] - a[j + 1]) * (j + 1) for j in range(w + 1)) + b[-1] * (w + 1)
        assert fixed(l_lo) <= lhs_lo and lhs_hi <= fixed(l_hi), (dspec, k, w)
        assert fixed(r_lo) <= sum(a[:-1]) and sum(b[:-1]) <= fixed(r_hi), (dspec, k, w)
        if trial % 10 == 0:
            lhs, rhs = telescope_reference([d.gamma_iv(dspec, j) for j in range(k, k + w + 2)])
            assert lhs.encloses(Interval(l_lo, l_hi)) and rhs.encloses(Interval(r_lo, r_hi))


# -- shared mass ends ------------------------------------------------------------
#
# V at several indices takes the mass ends once over the union of their
# bounds and gathers them per index (segment_masses' picks). Each end is a
# function of its bound alone, so the gap arithmetic over gathered ends must
# give the bits of segment_mass_arrays over the sub-list itself, also where
# the union, and not the sub-list, takes a scalar fallback.

_END_POOL = ([1, 2, 3, 4, 5] + list(range(6, 5000, 37)) + [2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1,
             2**63, 2**63 + 1, 2**200, 2**1023, 2**1024 - 1, 2**1024, 2**1024 + 1, 10**400])


@pytest.mark.parametrize("name", ["quadratic", "power0.5", "power1.3", "harmonic_like", "step_log",
                                  "finite", "geometric", "custom_tail", "scaled_harmonic"])
def test_gathered_ends_give_the_masses_of_each_sub_list(name) -> None:
    dspec = _MASS_FAMILIES[name]
    impl = d._impl(dspec.unscaled())
    assert impl.target_free
    rng = random.Random(name)
    for _ in range(40):
        union = sorted(rng.sample(_END_POOL, rng.randint(2, 24)))
        picks = [sorted(rng.sample(range(len(union)), rng.randint(2, len(union)))) for _ in range(3)]
        ends = impl.mass_ends(union)
        shared = d.segment_masses(dspec, union, arrays=True, picks=[np.array(p) for p in picks])
        for pick, (lo, hi) in zip(picks, shared):
            sub = [union[j] for j in pick]
            want = d.segment_masses(dspec, sub, arrays=True)
            if dspec.scale == 1.0:
                gathered = impl.gap_masses(tuple(e[np.array(pick)] for e in ends))
                direct = impl.segment_mass_arrays(sub)
                assert all(bits(a) == bits(b) for x, y in zip(gathered, direct)
                           for a, b in zip(x.tolist(), y.tolist())), (union, pick)
            assert all(bits(a) == bits(b) for x, y in zip((lo, hi), want)
                       for a, b in zip(x.tolist(), y.tolist())), (union, pick)


def test_summed_families_do_not_share_their_ends() -> None:
    for dspec in (d.cosine_modulated(), d.alternating_zero(), d.build_patched([1, 2])):
        with pytest.raises(ValueError, match="cannot share their ends"):
            d.segment_masses(dspec, [1, 2, 3], picks=[np.array([0, 2])])
