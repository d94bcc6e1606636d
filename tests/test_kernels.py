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
