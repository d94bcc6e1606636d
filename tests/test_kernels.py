"""Array kernels against the scalar interval code they replaced.

value._dense_relative and discount._Integrable.segment_masses replay a
chain of Interval operations over float64 lo/hi arrays. The scalar
loops they replaced stay here as references, and every endpoint must
match them bit for bit: a kernel that differs by one ulp has changed
an enclosure, however harmless the change looks.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

import horizonlab as h
import horizonlab.discount as d
import horizonlab.reward as r
import horizonlab.value as v
from horizonlab import Interval


def bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def same_bits(a: Interval, b: Interval) -> bool:
    return bits(a.lo) == bits(b.lo) and bits(a.hi) == bits(b.hi)


# -- the ratio-form dense sum ------------------------------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def dense_relative_reference(rspec, impl, k, tol):
    """The per-index loop of value._dense_relative before its array form."""
    n_trunc = v._ratio_truncation(impl, k, tol)
    parts = []
    for i in range(k, n_trunc + 1):
        r_i = r.reward_at(rspec, i)
        if r_i != 0.0:
            parts.append(impl.tail_ratio(i, k) * impl.one_minus_g * r_i)
    s = v._interval_sum(parts)
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
            got = outcome(v._dense_relative, rspec, impl, k, tol)
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
        got, n_got = v._dense_relative(rspec, impl, 5, 1e-323)
        want, n_want = dense_relative_reference(rspec, impl, 5, 1e-323)
        assert n_got == n_want and same_bits(got, want)
        assert impl.tail_ratio(n_got, 5).lo == 0.0


def test_dense_relative_of_zero_rewards_is_exactly_zero() -> None:
    impl = d._impl(d.geometric(0.9))
    got, _ = v._dense_relative(h.periodic([0.0]), impl, 3, 1e-3)
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
        v._dense_relative(spec, impl, 3, 1e-3)
    with pytest.raises(ValueError, match="^index 11 beyond custom reward table$"):
        dense_relative_reference(spec, impl, 3, 1e-3)


# -- closed-form segment masses -------------------------------------------------


def segment_masses_reference(impl, bounds):
    """The per-boundary loop of _Integrable.segment_masses before its array form."""
    big = [impl.integral_tail(b) for b in bounds]
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
    got = impl.segment_masses(bounds)
    want = segment_masses_reference(impl, bounds)
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        assert same_bits(a, b), (j, a, b)
    glo, ghi = impl.gamma_arrays(bounds)
    tlo, thi = impl.integral_tail_arrays(bounds)
    for j, b in enumerate(bounds):
        assert same_bits(Interval(glo[j].item(), ghi[j].item()), impl.gamma_iv(b)), b
        assert same_bits(Interval(tlo[j].item(), thi[j].item()), impl.integral_tail(b)), b


def test_segment_masses_raise_as_the_scalar_loop_does() -> None:
    # 1/eps overflows, so both ends of every integral tail are inf and
    # each difference is inf - inf: NaN, refused by the same check
    impl = d._impl(d.power(5e-324))
    with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
        segment_masses_reference(impl, [1, 2, 3])
    with pytest.raises(ValueError, match="^interval endpoints must not be NaN$"):
        impl.segment_masses([1, 2, 3])


def test_pow_arrays_keep_libm_pow_per_element() -> None:
    # numpy's vectorised power may differ from pow in the last bit; the
    # kernels call pow per element, so they agree with _pow_iv exactly
    bases = list(range(1, 5000)) + [2**1000 + 5, 10**400]
    for expo in (-1.5, -0.5, -1.001, -2.3):
        lo, hi = d._pow_arrays(bases, expo)
        for j, b in enumerate(bases):
            want = d._pow_iv(b, expo)
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
    got, want = table.masses(bounds), reference.masses(bounds)
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
    fresh = _cosine_table()[0].masses(bounds)
    table = _cosine_table()[0]
    monkeypatch.setenv("HORIZONLAB_GUARD", "1000")
    table.masses([3, 800])  # fills 15 blocks, part of the first chunk
    assert table._sums.size == 1000 // _S
    with pytest.raises(d.GuardExceeded):
        table.masses([3, 1000 + 2 * _S + 2])
    monkeypatch.delenv("HORIZONLAB_GUARD")
    assert [same_bits(a, b) for a, b in zip(table.masses(bounds), fresh)] == [True] * 3


def test_block_table_stops_at_the_guard(monkeypatch) -> None:
    monkeypatch.setenv("HORIZONLAB_GUARD", "5000")
    table = _cosine_table()[0]
    # the table holds the whole blocks below the guard; up to two blocks
    # past the last of them are summed fresh
    end = 1 + (5000 // _S + 2) * _S
    masses = table.masses([10, 5000, end])
    assert table._sums.size == 5000 // _S and len(masses) == 2
    with pytest.raises(d.GuardExceeded):
        table.masses([10, end + 1])
    with pytest.raises(d.GuardExceeded):
        table.masses([2**63, 2**63 + 5])
