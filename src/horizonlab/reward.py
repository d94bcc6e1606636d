"""Reward sequences: bounded values in [0,1], binary runs via change points.

A binary run sequence is described by change points
k_1 < m_1 < k_2 < m_2 < ... with r_i = 1 on [k_n, m_n) and r_i = 0 on
[m_n, k_{n+1}). Run lengths A_n = m_n - k_n (ones) and B_n = k_{n+1} - m_n
(zeros) drive all limit formulas; the discount masses of the runs are
a_n = Gamma_{k_n} - Gamma_{m_n} and b_n = Gamma_{m_n} - Gamma_{k_{n+1}}.

How each family lays out its rewards is decided here, and the value
module asks these functions for it:

    reward_at      r_k, one index at a time
    reward_vec     r_a..r_b as a float array, bit for bit equal to reward_at
    window_mean    U_{km}, the mean of r_k..r_m
    one_segments   the 1-runs of a binary sequence cut to a window, as flat bounds
    run_count      the stored runs of an explicit list (None when generated)
    even_rewards   r_2, r_4, ... as a spec of their own, where one exists
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import discount as _disc
from ._guards import as_index, index_array, index_dtype, json_list
from .intervals import Interval


@dataclass(frozen=True)
class RewardSpec:
    """Immutable description of a reward sequence.

    family: constant | periodic | binary_runs | custom.
    params: family-specific tuple (see constructors).

    A family's mini-language forms are rows of CLI_FORMS, and its JSON forms
    rows of _JSON_FORMS, which reward_to_dict and reward_from_dict read.
    """

    family: str
    params: tuple = ()


def constant(alpha: float) -> RewardSpec:
    """r_k = alpha for every k."""
    a = float(alpha)
    if not (0.0 <= a <= 1.0):
        raise ValueError("constant reward must lie in [0,1]")
    return RewardSpec("constant", (a,))


def periodic(pattern: Sequence[float]) -> RewardSpec:
    """r_k cycles through the pattern starting at k = 1."""
    pat = tuple(float(x) for x in pattern)
    if not pat:
        raise ValueError("periodic pattern must be nonempty")
    if any(not (0.0 <= x <= 1.0) for x in pat):
        raise ValueError("periodic pattern values must lie in [0,1]")
    return RewardSpec("periodic", (pat,))


def linear_runs() -> RewardSpec:
    """1 0 0 1 1 1 0 0 0 0 ...: run lengths 1,2,3,4,...

    Change points k_n = (2n-1)(n-1)+1, m_n = (2n-1)n+1, so A_n = 2n-1 and
    B_n = 2n. Both run-fraction sequences tend to 1/2.
    """
    return RewardSpec("binary_runs", ("linear",))


def exponential_runs() -> RewardSpec:
    """1 00 1111 00000000 ...: run lengths 1,2,4,8,...

    Change points k_n = 4^(n-1), m_n = 2 * 4^(n-1), so A_n = k_n and
    B_n = m_n. The prefix averages oscillate between 1/3 and 2/3.
    """
    return RewardSpec("binary_runs", ("exponential",))


def explicit_change_points(flat: Sequence[int]) -> RewardSpec:
    """Binary runs from an explicit flat list [k_1, m_1, k_2, m_2, ...].

    Beyond the last stored boundary the reward keeps its current value
    (an odd-length list ends inside a 1-run that then extends forever).
    """
    pts = tuple(as_index(x, f"change point {j + 1}") for j, x in enumerate(flat))
    if len(pts) < 2:
        raise ValueError("need at least k_1 and m_1")
    if pts[0] < 1 or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("change points must be strictly increasing and >= 1")
    return RewardSpec("binary_runs", ("explicit", pts))


def custom_table(values: Sequence[float]) -> RewardSpec:
    """Explicit rewards for k = 1..len(values); out-of-table queries raise."""
    vals = tuple(float(x) for x in values)
    if not vals:
        raise ValueError("custom table must be nonempty")
    if any(not (0.0 <= x <= 1.0) for x in vals):
        raise ValueError("custom rewards must lie in [0,1]")
    return RewardSpec("custom", (vals,))


# The reward mini-language (cli module docstring): each family's names,
# constructor and argument, as cli._parse_spec reads them.
CLI_FORMS = (
    (("constant",), constant, str),
    (("alternating",), partial(periodic, (1.0, 0.0)), None),
    (("periodic",), periodic, (float, "periodic pattern")),
    (("linear-runs",), linear_runs, None),
    (("exponential-runs",), exponential_runs, None),
    (("explicit",), explicit_change_points, (int, "change point")),
    (("custom",), custom_table, (float, "reward table")),
)


def is_binary_runs(spec: RewardSpec) -> bool:
    return spec.family == "binary_runs"


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------


def reward_at(spec: RewardSpec, k: int) -> float:
    """r_k."""
    if k < 1:
        raise ValueError("index k must be >= 1")
    fam = spec.family
    if fam == "constant":
        return spec.params[0]
    if fam == "periodic":
        pat = spec.params[0]
        return pat[(k - 1) % len(pat)]
    if fam == "custom":
        table = spec.params[0]
        if k > len(table):
            raise ValueError(f"index {k} beyond custom reward table")
        return table[k - 1]
    gen = spec.params[0]
    if gen == "explicit":
        pts = spec.params[1]
        return float(bisect_right(pts, k) % 2)
    kn, mn = change_points(spec, run_index(spec, k))
    return 1.0 if kn <= k < mn else 0.0


def even_rewards(spec: RewardSpec) -> Optional[RewardSpec]:
    """The rewards s_j = r_{2j}, j >= 1, as a spec of their own, or None.

    A periodic pattern of period P gives s_j = pat[(2j - 1) mod P], periodic
    in j with period P / gcd(P, 2): pat[1::2] for even P, and for odd P
    the odd slots of two periods. Other families have no such spec here.
    """
    if spec.family != "periodic":
        return None
    pat = spec.params[0]
    return RewardSpec("periodic", ((pat * (1 + len(pat) % 2))[1::2],))


def run_index(spec: RewardSpec, k: int) -> int:
    """The n with k_n <= k < k_{n+1}: the run block containing k, in closed form.

    Linear runs: k_n = 2n^2 - 3n + 2 <= k iff n <= (3 + sqrt(8k - 7)) / 4,
    and no integer lies strictly between isqrt(8k - 7) and sqrt(8k - 7),
    so n = (3 + isqrt(8k - 7)) // 4 exactly. Exponential runs:
    k_n = 4^(n-1) <= k < 4^n, so n - 1 = floor(log_4 k).
    """
    if k < 1:
        raise ValueError("index k must be >= 1")
    gen = spec.params[0] if is_binary_runs(spec) else None
    if gen == "linear":
        return (3 + math.isqrt(8 * k - 7)) // 4
    if gen == "exponential":
        return (k.bit_length() + 1) // 2
    raise ValueError("run index is defined for generated run families only")


def _generated_runs(gen: str, j):
    """(k_j, m_j) in closed form: (2j - 1)(j - 1) + 1 and (2j - 1) j + 1 for
    linear runs, 4^(j-1) and 2 4^(j-1) for exponential; for a Python int j,
    or elementwise for an index array j whose dtype holds m_j."""
    if gen == "linear":
        return (2 * j - 1) * (j - 1) + 1, (2 * j - 1) * j + 1
    return 1 << (2 * j - 2), 1 << (2 * j - 1)


def change_points(spec: RewardSpec, n: int) -> Tuple[int, int]:
    """(k_n, m_n), the boundaries of the nth 1-run."""
    if not is_binary_runs(spec):
        raise ValueError("change points are defined for binary run specs only")
    if n < 1:
        raise ValueError("run index n must be >= 1")
    if spec.params[0] != "explicit":
        return _generated_runs(spec.params[0], n)
    pts = spec.params[1]
    if 2 * n > len(pts):
        raise ValueError(f"run {n} beyond stored change points")
    return pts[2 * n - 2], pts[2 * n - 1]


def next_run_start(spec: RewardSpec, n: int) -> int:
    """k_{n+1}; for explicit lists this may be beyond storage (raises)."""
    return change_points(spec, n + 1)[0]


def run_count(spec: RewardSpec) -> Optional[int]:
    """Number of fully stored runs, or None when the generator is infinite."""
    if not is_binary_runs(spec):
        raise ValueError("run count is defined for binary run specs only")
    gen = spec.params[0]
    if gen == "explicit":
        return len(spec.params[1]) // 2
    return None


def runs_started(spec: RewardSpec, m: int) -> int:
    """The number of runs that start by m >= 1 (k_n <= m): run_index(m)
    for generated runs, the stored starts up to m for an explicit list."""
    stored = run_count(spec)
    if stored is None:
        return run_index(spec, m)
    return min((bisect_right(spec.params[1], m) + 1) // 2, stored)


def one_segments(spec: RewardSpec, k: int, n: int) -> np.ndarray:
    """The 1-runs [k_j, m_j) cut to [k, n + 1), as the flat bounds
    [a0, b0, a1, b1, ...] of nonempty half-open pieces in order.

    The bounds are one integer array of _guards.index_dtype: int64 when
    n + 1 and every run end or change point they are cut from lie below
    2**63, else object, holding Python ints. Scalar code reads them
    through .tolist(), never as np.int64 scalars, whose products (k (k + 1))
    overflow silently.

    Generated runs evaluate the closed forms of _generated_runs on the
    run indices run_index(k) .. run_index(n) (the runs that start by n);
    only the first and the last can be cut, and only the first can then
    be empty. An explicit list is searched (np.searchsorted) for the
    change points inside (k, n + 1): k opens a piece if it lies in a
    1-run, and n + 1 closes one if n does; an odd-length list ends in a
    1-run that reaches n.
    """
    end = n + 1
    stored = run_count(spec)
    if n < k:
        return index_array([], end)
    if stored is None:
        first, last = run_index(spec, k), run_index(spec, n)
        gen = spec.params[0]
        top = max(end, _generated_runs(gen, last)[1])
        js = np.arange(first, last + 1, dtype=index_dtype(top))
        starts, ends = _generated_runs(gen, js)
        flat = np.empty(2 * js.size, dtype=js.dtype)
        flat[0::2], flat[1::2] = starts, ends
        flat[0], flat[-1] = max(flat[0], k), min(flat[-1], end)
        return flat[2:] if flat[0] >= flat[1] else flat
    pts = index_array(spec.params[1], max(spec.params[1][-1], end))
    # pts[:i] <= k < pts[i:], pts[:j] < end <= pts[j:]: r_x = 1 iff an odd
    # number of change points is <= x
    i, j = int(np.searchsorted(pts, k, "right")), int(np.searchsorted(pts, end, "left"))
    flat = np.empty(j - i + i % 2 + j % 2, dtype=pts.dtype)
    flat[i % 2 : flat.size - j % 2] = pts[i:j]
    if i % 2:
        flat[0] = k
    if j % 2:
        flat[-1] = end
    return flat


def reward_vec(spec: RewardSpec, a: int, b: int) -> np.ndarray:
    """r_a..r_b as a float64 array, equal bit for bit to reward_at."""
    fam = spec.family
    if fam == "constant":
        return np.full(b - a + 1, spec.params[0])
    if fam == "periodic":
        pat = np.array(spec.params[0], dtype=np.float64)
        # the phase is reduced in Python ints, so a may pass int64
        phase = (a - 1) % len(pat)
        return pat[(np.arange(b - a + 1, dtype=np.int64) + phase) % len(pat)]
    if fam == "custom":
        table = spec.params[0]
        if b > len(table):
            # the first missing index, as reward_at reports it in a loop from a
            raise ValueError(f"index {max(a, len(table) + 1)} beyond custom reward table")
        return np.array(table[a - 1 : b], dtype=np.float64)
    # the pieces never touch: +1 at each start and -1 at each end, summed
    edges = np.zeros(b - a + 2, dtype=np.int8)
    bounds = (one_segments(spec, a, b) - a).astype(np.int64)
    edges[bounds[0::2]], edges[bounds[1::2]] = 1, -1
    return np.cumsum(edges[:-1]).astype(np.float64)


# ---------------------------------------------------------------------------
# Counting and run statistics
# ---------------------------------------------------------------------------


def ones_count(spec: RewardSpec, m: int) -> int:
    """Exact number of 1-rewards among r_1..r_m for binary run specs."""
    if not is_binary_runs(spec):
        raise ValueError("ones count is defined for binary run specs only")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0
    gen = spec.params[0]
    if gen == "explicit":
        total = 0
        pts = spec.params[1]
        for i in range(0, len(pts), 2):
            kn = pts[i]
            if kn > m:
                break
            mn = pts[i + 1] if i + 1 < len(pts) else m + 1
            total += min(mn - 1, m) - kn + 1
        return total
    # runs before n hold sum_{j<n} A_j ones: (n-1)^2 for A_j = 2j - 1,
    # (4^(n-1) - 1)/3 for A_j = 4^(j-1)
    n = run_index(spec, m)
    kn, mn = _generated_runs(gen, n)
    before = (n - 1) ** 2 if gen == "linear" else (kn - 1) // 3
    return before + min(mn, m + 1) - kn


def window_mean(spec: RewardSpec, k: int, m: int) -> float:
    """U_{km}, the mean of r_k..r_m for 1 <= k <= m.

    Binary sequences count their ones exactly, so the result is the
    correctly rounded rational; periodic and custom rewards are summed
    with math.fsum and clamped to [0, 1].
    """
    fam = spec.family
    if fam == "constant":
        return spec.params[0]
    if fam == "binary_runs":
        return (ones_count(spec, m) - ones_count(spec, k - 1)) / (m - k + 1)
    if fam == "periodic":
        pat = spec.params[0]
        cycle = math.fsum(pat)

        def prefix(j: int) -> float:
            full, rem = divmod(j, len(pat))
            return full * cycle + math.fsum(pat[:rem])

        s = prefix(m) - prefix(k - 1)
    else:
        table = spec.params[0]
        if m > len(table):
            raise ValueError(f"index {m} beyond custom reward table")
        s = math.fsum(table[k - 1 : m])
    return min(max(s / (m - k + 1), 0.0), 1.0)


# ---------------------------------------------------------------------------
# Window envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowEnvelope:
    """A bound on how far the partial sums of a reward stray from a mean.

    With e_j = sum_{i<=j} (r_i - mean), every j >= 0 obeys
    |e_j| <= a j^p + b. a encloses its constant and p is 0, 1/2 or 1.
    mean, b and every e_j are exact rationals over one denominator den,
    kept as int numerators: mean_num / den, b_num / den and
    excess_num(j) / den, so value._rest_enclosure, which turns this into
    an enclosure of the discounted rewards past any index, does no
    Fraction arithmetic. A periodic reward keeps den e_j for the phases
    j = 0 .. P - 1 in a table (phases); a binary sequence counts its ones.
    """

    spec: RewardSpec
    a: Interval
    p: float
    den: int
    mean_num: int
    b_num: int
    phases: Tuple[int, ...] = ()

    def excess_num(self, j: int) -> int:
        """den e_j, exactly: a whole period adds zero to e, and a binary
        sequence has den e_j = den ones(j) - mean_num j."""
        if self.phases:
            return self.phases[j % len(self.phases)]
        return self.den * ones_count(self.spec, j) - self.mean_num * j


def window_envelope(spec: RewardSpec) -> Optional[WindowEnvelope]:
    """The partial-sum envelope of a reward family, or None (explicit
    lists, custom tables and constants have none here).

    Linear runs, mean 1/2, a = 1/sqrt 8, p = 1/2, b = 1: before run n
    come (n-1)^2 ones among k_n - 1 = 2n^2 - 3n + 1 indices, so
    e_{k_n - 1} = -(n-1)/2; e rises by 1/2 per index of the 1-run to n/2
    at m_n - 1, then falls to -n/2 at k_{n+1} - 1. So |e_j| <= n/2 on
    block n, and for n >= 2 (n - 2)^2 / 4 <= (2n^2 - 3n + 2) / 8 (that is
    6 <= 5n) gives n/2 <= sqrt(j/8) + 1 for every j >= k_n; block 1 has
    |e_j| <= 1/2.

    Exponential runs, mean 1/2, a = 1/6, p = 1, b = 1/3: before run n
    come (4^(n-1) - 1)/3 ones among j0 = 4^(n-1) - 1 indices, so
    e_{j0} = -j0/6; e rises with slope 1/2 to j1/6 + 1/3 at
    j1 = 2 * 4^(n-1) - 1, then falls with slope 1/2 to -j2/6 at
    j2 = 4^n - 1. Both bounds have slope 1/6 < 1/2, so
    -j/6 <= e_j <= j/6 + 1/3 for all j.

    Periodic, mean = pattern sum / period, a = 0, p = 0: a whole period
    adds zero to e, so e_j = e_{j mod P}, and b = max over one period of
    |e_j| is exact. Each float entry is a dyadic rational n_i / L over
    the largest denominator L among them, so den = L P makes every
    den e_j = P (n_1 + ... + n_j) - j (n_1 + ... + n_P) an int.
    """
    if spec.family == "periodic":
        pat = [Fraction(x) for x in spec.params[0]]
        size = math.lcm(*(x.denominator for x in pat))
        nums = [int(x * size) for x in pat]
        total, acc, phases = sum(nums), 0, []
        for j, n in enumerate(nums):
            phases.append(len(nums) * acc - total * j)
            acc += n
        b_num = max(abs(e) for e in phases)
        return WindowEnvelope(spec, Interval.exact(0.0), 0.0, size * len(nums), total, b_num,
                              tuple(phases))
    if not is_binary_runs(spec) or spec.params[0] == "explicit":
        return None
    if spec.params[0] == "linear":
        # sqrt is correctly rounded, so 1/sqrt 8 = sqrt(0.125) within one ulp
        return WindowEnvelope(spec, Interval.rounded(math.sqrt(0.125)), 0.5, 2, 1, 2)
    return WindowEnvelope(spec, Interval.rounded(1.0 / 6.0), 1.0, 6, 3, 2)


def _nonneg(iv: Interval) -> Interval:
    if iv.hi < 0.0:
        return Interval.exact(0.0)
    return Interval(max(iv.lo, 0.0), iv.hi)


@dataclass(frozen=True)
class LimitSequences:
    """Run-fraction sequences with purely diagnostic limit predictions.

    alpha_seq approaches the limit inferior of the prefix quantity, and
    beta_seq its limit superior, when the respective ratios converge.
    Predictions are last-window means widened by the observed drift;
    they are evidence, not ground truth.
    """

    alpha_seq: List[Interval]
    beta_seq: List[Interval]
    alpha_pred: Interval
    beta_pred: Interval


def _window_prediction(values: List[Interval]) -> Interval:
    w = max(1, math.ceil(len(values) / 4))
    tail = values[-w:]
    mid = sum(v.mid for v in tail) / len(tail)
    lo = min(v.lo for v in tail)
    hi = max(v.hi for v in tail)
    drift = (hi - lo) * 0.5
    return Interval.widened(min(mid - drift, lo), max(mid + drift, hi))


def lemma1_limits(spec: RewardSpec, n_max: int) -> LimitSequences:
    """A_n/(A_n+B_n) and A_n/(B_{n-1}+A_n) for n <= n_max (B_0 := 0).

    The first sequence tracks the limit inferior of the prefix average,
    the second its limit superior; both are exact rationals reported as
    correctly rounded floats (degenerate intervals).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alpha: List[Interval] = []
    beta: List[Interval] = []
    b_prev = 0  # B_0 := 0
    for n in range(1, n_max + 1):
        kn, mn = change_points(spec, n)
        a_len = mn - kn
        b_len = next_run_start(spec, n) - mn
        alpha.append(Interval.exact(float(Fraction(a_len, a_len + b_len))))
        beta.append(Interval.exact(float(Fraction(a_len, b_prev + a_len))))
        b_prev = b_len
    return LimitSequences(alpha, beta, _window_prediction(alpha), _window_prediction(beta))


def lemma2_limits(
    spec: RewardSpec, disc: _disc.DiscountSpec, n_max: int
) -> LimitSequences:
    """a_{n+1}/(b_n+a_{n+1}) and a_n/(a_n+b_n) for n <= n_max.

    The first sequence tracks the limit inferior of the discounted value,
    the second its limit superior (both along the run subsequences).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # one batched Gamma pass over all needed boundaries
    bounds: List[int] = []
    for n in range(1, n_max + 2):
        kn, mn = change_points(spec, n)
        bounds.extend([kn, mn])
    tails = _disc.gamma_tail_batch(disc, bounds)
    a = [
        _nonneg(tails[2 * i] - tails[2 * i + 1]) for i in range(n_max + 1)
    ]  # a_1..a_{n_max+1}
    b = [
        _nonneg(tails[2 * i + 1] - tails[2 * i + 2]) for i in range(n_max)
    ]  # b_1..b_{n_max}
    alpha = [a[n] / (b[n - 1] + a[n]) for n in range(1, n_max + 1)]
    beta = [a[n - 1] / (a[n - 1] + b[n - 1]) for n in range(1, n_max + 1)]
    alpha = [iv.clamp(0.0, 1.0) for iv in alpha]
    beta = [iv.clamp(0.0, 1.0) for iv in beta]
    return LimitSequences(alpha, beta, _window_prediction(alpha), _window_prediction(beta))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# The reward JSON forms, one row per (family, generator; None outside
# binary runs): the constructor, the JSON key of its argument (None: it
# takes none) and how that key is read, for reward_to_dict to write and
# reward_from_dict to read back.
_JSON_FORMS = {
    ("constant", None): (constant, "alpha", dict.__getitem__),
    ("periodic", None): (periodic, "pattern", json_list),
    ("custom", None): (custom_table, "table", json_list),
    ("binary_runs", "linear"): (linear_runs, None, None),
    ("binary_runs", "exponential"): (exponential_runs, None, None),
    ("binary_runs", "explicit"): (explicit_change_points, "change_points", json_list),
}


def reward_to_dict(spec: RewardSpec) -> dict:
    gen = spec.params[0] if is_binary_runs(spec) else None
    out = {"family": spec.family} if gen is None else {"family": spec.family, "generator": gen}
    _, key, read = _JSON_FORMS[spec.family, gen]
    if key is not None:  # the argument is the last param
        out[key] = list(spec.params[-1]) if read is json_list else spec.params[-1]
    return out


def reward_from_dict(d: dict) -> RewardSpec:
    """The spec of reward_to_dict's form, refusing a key it would not write."""
    fam = d["family"]
    runs = fam == "binary_runs"
    gen = d["generator"] if runs else None
    try:
        make, key, read = _JSON_FORMS[fam, gen]
    except (KeyError, TypeError):  # TypeError: a JSON list or object as a name
        raise ValueError(f"unknown run generator {gen!r}" if runs
                         else f"unknown reward family {fam!r}") from None
    spec = make() if key is None else make(read(d, key))
    known = reward_to_dict(spec)
    stray = next((key for key in d if key not in known), None)
    if stray is not None:
        raise ValueError(f"reward family {fam!r} takes no key {stray!r}")
    return spec
