"""Independent oracles for the test suite.

Everything here is recomputed from first-principles definitions with
its own error accounting and shares no code path with the package
internals it checks: weights come from the family formulas, reward bits
from the run-length definitions, sums are brute force (exact integer
counting, Fraction arithmetic, or numpy with an explicit rounding
budget), and tails use independently derived closed forms or integral
bounds. Oracle results are (lo, hi) float pairs that contain the true
real value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

_U = 2.0**-52  # one ulp at 1.0; used for conservative rounding budgets
_CHUNK = 1 << 20


def _pad(lo: float, hi: float, rel: float = 1e-12) -> Tuple[float, float]:
    slack_lo = abs(lo) * rel + 1e-300
    slack_hi = abs(hi) * rel + 1e-300
    return lo - slack_lo, hi + slack_hi


# ---------------------------------------------------------------------------
# Discount weights, from the family definitions
# ---------------------------------------------------------------------------


def weight(family: str, params: tuple, k: int) -> float:
    if family == "finite":
        return 1.0 if k <= params[0] else 0.0
    if family == "geometric":
        return params[0] ** k
    if family == "quadratic":
        return 1.0 / (k * (k + 1))
    if family == "power":
        return float(k) ** (-1.0 - params[0])
    if family == "step_log":
        n = (k - 1).bit_length()  # block n: 2^(n-1) < k <= 2^n; k=1 is block 0
        return 4.0 ** -n
    raise ValueError(f"no oracle weight for family {family!r}")


def weight_vec(family: str, params: tuple, ks: np.ndarray) -> np.ndarray:
    kf = ks.astype(np.float64)
    if family == "finite":
        return (ks <= params[0]).astype(np.float64)
    if family == "geometric":
        # relative to the first index to dodge underflow; caller rescales
        raise ValueError("geometric handled in relative form")
    if family == "quadratic":
        return 1.0 / (kf * (kf + 1.0))
    if family == "power":
        return kf ** (-1.0 - params[0])
    if family == "step_log":
        blocks = np.ceil(np.log2(kf)).astype(np.int64)
        blocks = np.where(2.0**blocks < kf, blocks + 1, blocks)  # float-log slip
        blocks = np.where(2.0 ** (blocks - 1) >= kf, blocks - 1, blocks)
        return 4.0 ** (-blocks.astype(np.float64))
    raise ValueError(f"no oracle weight for family {family!r}")


def mp_weight(spec, i: int):
    """gamma_i of an unscaled discount spec from its family formula, as an
    mpmath number at the caller's working precision. Floats in the params
    (a patched stretch's anchor, a custom table entry) are taken exactly:
    the spec defines its weights through them."""
    import mpmath

    family, params = spec.family, spec.params
    x = mpmath.mpf(i)
    if family == "finite":
        return mpmath.mpf(1 if i <= params[0] else 0)
    if family == "geometric":
        return mpmath.mpf(params[0]) ** i
    if family == "quadratic":
        return 1 / (x * (x + 1))
    if family == "power":
        return x ** (-1 - mpmath.mpf(params[0]))
    if family == "harmonic_like":
        x = max(x, 2)  # gamma_1 = gamma_2
        return 1 / (x * mpmath.log(x) ** 2)
    if family == "step_log":
        return mpmath.mpf(4) ** -((i - 1).bit_length())
    if family == "cosine_modulated":
        return (2 + mpmath.cos(mpmath.pi * mpmath.sqrt(2 * x))) / x**2
    if family == "alternating_zero":
        return mpmath.mpf(0) if i % 2 else mp_weight(params[0], i)
    if family == "patched":
        seg = [s for s in params[0] if s.start <= i][-1]
        anchor = mpmath.mpf(seg.gamma_start)
        if seg.kind == "geometric":
            return anchor * mpmath.mpf(seg.g) ** (i - seg.start)
        start = mpmath.mpf(seg.start)
        return anchor * (start * mpmath.log(start) ** 2) / (x * mpmath.log(x) ** 2)
    if family == "custom":
        table, (kind, p) = params[0], params[1] or (None, None)
        if i <= len(table):
            return mpmath.mpf(table[i - 1])
        anchor, size = mpmath.mpf(table[-1]), len(table)
        if kind == "geometric":
            return anchor * mpmath.mpf(p) ** (i - size)
        if kind == "power":
            return anchor * (x / size) ** (-1 - mpmath.mpf(p))
    raise ValueError(f"no oracle weight for {family!r} at index {i}")


def cosine_class_tail(a: int, step: int = 1, order: int = 3):
    """(T, e): the cosine weights over one residue class,
    sum_{n>=0} g(a + n step) with g(x) = (2 + cos(pi sqrt(2x))) / x^2, lies
    in [T - e, T + e] (mpmath numbers).

    Euler-Maclaurin of order 2p (p = order) for h(t) = g(a + t step):
        sum_{n>=0} h(n) = int_0^inf h + h(0)/2 - sum_{j<=p} B_2j / (2j)! h^(2j-1)(0) + R,
        |R| <= |B_2p| / (2p)! int_0^inf |h^(2p)|,
    with int_0^inf h = (1/step) int_a^inf g, where int_a^inf g =
    2/a + 4 pi^2 (cos u/(2u^2) - sin u/(2u) + Ci(u)/2) at u = pi sqrt(2a),
    and h^(n)(t) = step^n g^(n)(a + t step). The derivatives are exact:
    g = 2 x^-2 + Re(x^-2 e^(i al sqrt x)), al = pi sqrt 2, and
    d/dx (x^b e^(i al sqrt x)) = (b x^(b-1) + (i al / 2) x^(b-1/2)) e^(i al sqrt x),
    so g^(n) is a finite sum of terms c x^b e^(i al sqrt x), and the
    triangle inequality over them bounds int_a^inf |g^(2p)| term by term.
    The working precision grows with a, so that cos(pi sqrt(2a)) keeps its
    digits far past the float range. Independent of the package's
    closed forms (those of _CosineModulated are of second order and bound
    their remainders by hand)."""
    import mpmath

    with mpmath.workprec(200 + 2 * a.bit_length()):
        x, pi = mpmath.mpf(a), mpmath.pi
        al = pi * mpmath.sqrt(2)
        u = al * mpmath.sqrt(x)
        phase = mpmath.expj(u)
        integral = 2 / x + 4 * pi**2 * (
            mpmath.cos(u) / (2 * u**2) - mpmath.sin(u) / (2 * u) + mpmath.ci(u) / 2)
        terms = {-4: mpmath.mpc(1)}  # twice the power b of x -> coefficient c
        derivs = []  # g^(n)(a) for n = 0 .. 2p
        for n in range(2 * order + 1):
            osc = sum(c * x ** (mpmath.mpf(k) / 2) for k, c in terms.items()) * phase
            derivs.append(2 * (-1) ** n * mpmath.factorial(n + 1) * x ** (-2 - n) + osc.real)
            if n == 2 * order:
                break
            nxt = {}
            for k, c in terms.items():
                nxt[k - 2] = nxt.get(k - 2, 0) + c * mpmath.mpf(k) / 2
                nxt[k - 1] = nxt.get(k - 1, 0) + c * 1j * al / 2
            terms = nxt
        total = integral / step + derivs[0] / 2
        for j in range(1, order + 1):
            total -= mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * step ** (2 * j - 1) * derivs[2 * j - 1]
        n = 2 * order  # int_a^inf x^b = a^(b+1) / (-b - 1) for b < -1
        bound = 2 * mpmath.factorial(n + 1) * x ** (-1 - n) / (1 + n)
        bound += sum(abs(c) * x ** (mpmath.mpf(k) / 2 + 1) / (-mpmath.mpf(k) / 2 - 1)
                     for k, c in terms.items())
        err = abs(mpmath.bernoulli(n)) / mpmath.factorial(n) * step ** (n - 1) * bound
        return total, err


def tail_bounds(family: str, params: tuple, k: int) -> Tuple[float, float]:
    """Independent enclosure of Gamma_k = sum_{i>=k} gamma_i."""
    if family == "finite":
        m = params[0]
        return (float(m - k + 1), float(m - k + 1)) if k <= m else (0.0, 0.0)
    if family == "geometric":
        g = params[0]
        t = g**k / (1.0 - g)
        return _pad(t, t)
    if family == "quadratic":
        # telescoping: sum 1/(i(i+1)) from k = 1/k
        return _pad(1.0 / k, 1.0 / k)
    if family == "power":
        # integral bracket: int_k^inf x^(-1-e) dx <= Gamma_k <= gamma_k + same
        eps = params[0]
        base = float(k) ** (-eps) / eps
        return _pad(base, base + float(k) ** (-1.0 - eps))
    if family == "step_log":
        # inside block n the rest of the block is (2^n - k + 1) 4^-n and
        # each later block j contributes 2^(j-1) 4^-j = 2^(-j-1), summing
        # to 2^(-n-1); everything is dyadic, so Fraction is exact
        n = (k - 1).bit_length()
        exact = (2**n - k + 1) * Fraction(1, 4**n) + Fraction(1, 2 ** (n + 1))
        return _pad(float(exact), float(exact))
    raise ValueError(f"no oracle tail for family {family!r}")


# ---------------------------------------------------------------------------
# Reward bits, from the run-length definitions
# ---------------------------------------------------------------------------


def linear_bit(i: int) -> int:
    """Run j has length j; odd runs carry 1s.  Run of i solves
    j(j-1)/2 < i <= j(j+1)/2."""
    j = int((math.isqrt(8 * i + 1) - 1) // 2)
    if j * (j + 1) // 2 < i:
        j += 1
    return j & 1


def exponential_bit(i: int) -> int:
    """Run j covers [2^(j-1), 2^j - 1]; odd runs carry 1s."""
    return i.bit_length() & 1


def linear_bits(ks: np.ndarray) -> np.ndarray:
    j = ((np.sqrt(8.0 * ks.astype(np.float64) + 1.0) - 1.0) / 2.0).astype(np.int64)
    j = np.where(j * (j + 1) // 2 < ks, j + 1, j)
    j = np.where(j * (j - 1) // 2 >= ks, j - 1, j)  # float sqrt can overshoot
    return (j & 1).astype(np.float64)


def exponential_bits(ks: np.ndarray) -> np.ndarray:
    j = np.floor(np.log2(ks.astype(np.float64))).astype(np.int64) + 1
    # exact correction of the float log at block edges
    j = np.where(2 ** (j - 1) > ks, j - 1, j)
    j = np.where(2**j <= ks, j + 1, j)
    return (j & 1).astype(np.float64)


def reward_vec(kind: str, payload, ks: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return linear_bits(ks)
    if kind == "exponential":
        return exponential_bits(ks)
    if kind == "constant":
        return np.full(ks.shape, float(payload))
    if kind == "periodic":
        pat = np.asarray(payload, dtype=np.float64)
        return pat[(ks - 1) % len(pat)]
    if kind == "explicit":
        # flat change points [k1, m1, ...]: 1 on [k_n, m_n), past the end
        # the sequence keeps its final value
        pts = np.asarray(payload, dtype=np.int64)
        pos = np.searchsorted(pts, ks, side="right")
        last = np.where(ks >= pts[-1], float(len(pts) & 1), 0.0)
        return np.where(pos < len(pts), (pos & 1).astype(np.float64), last)
    if kind == "custom":
        table = np.asarray(payload, dtype=np.float64)
        return table[ks - 1]
    raise ValueError(f"no oracle rewards for kind {kind!r}")


def ones_in_window(kind: str, payload, k: int, m: int) -> int:
    """Exact count of 1 rewards with k <= i <= m for binary kinds."""
    total = 0
    i = k
    while i <= m:
        end = min(m, i + _CHUNK - 1)
        ks = np.arange(i, end + 1, dtype=np.int64)
        total += int(reward_vec(kind, payload, ks).sum())
        i = end + 1
    return total


# ---------------------------------------------------------------------------
# Value oracles
# ---------------------------------------------------------------------------


def _frac_hull(f: Fraction) -> Tuple[float, float]:
    mid = float(f)
    return math.nextafter(mid, -math.inf), math.nextafter(mid, math.inf)


def avg_bounds(kind: str, payload, k: int, m: int) -> Tuple[float, float]:
    """Enclosure of the window average of rewards k..m."""
    n = m - k + 1
    if kind == "constant":
        return float(payload), float(payload)
    if kind in ("linear", "exponential", "explicit"):
        ones = ones_in_window(kind, payload, k, m)
        return _frac_hull(Fraction(ones, n))
    # rational table/pattern: exact Fraction accumulation
    if kind == "periodic":
        vals = [Fraction(payload[(i - 1) % len(payload)]) for i in range(k, m + 1)]
    else:
        vals = [Fraction(payload[i - 1]) for i in range(k, m + 1)]
    return _frac_hull(sum(vals, Fraction(0)) / n)


def disc_bounds(
    reward_kind: str,
    reward_payload,
    family: str,
    params: tuple,
    k: int,
    n_terms: int = 10**7,
) -> Tuple[float, float]:
    """Brute-force enclosure of the normalized discounted value at k.

    Sums n_terms weights (fewer when the tail is already gone), budgets
    one n*u*|S| rounding allowance for the float summation, bounds the
    remainder by the independent tail enclosure, and divides by the
    independent Gamma_k bracket.
    """
    if family == "geometric":
        return _disc_bounds_geometric(reward_kind, reward_payload, params[0], k, n_terms)
    end = k + n_terms - 1
    if family == "finite":
        end = min(end, params[0])
        if end < k:
            raise ZeroDivisionError("finite discount exhausted before k")
    parts = []
    abs_parts = []
    i = k
    while i <= end:
        stop = min(end, i + _CHUNK - 1)
        ks = np.arange(i, stop + 1, dtype=np.int64)
        w = weight_vec(family, params, ks)
        r = reward_vec(reward_kind, reward_payload, ks)
        parts.append(float(np.dot(w, r)))
        abs_parts.append(float(w.sum()))
        i = stop + 1
    s = math.fsum(parts)
    s_abs = math.fsum(abs_parts)
    fuzz = (n_terms + len(parts) + 4) * _U * max(s_abs, 1.0)
    tail_hi = tail_bounds(family, params, end + 1)[1]
    g_lo, g_hi = tail_bounds(family, params, k)
    lo = max((s - fuzz) / g_hi, 0.0)
    hi = min((s + fuzz + tail_hi) / g_lo, 1.0)
    return lo, hi


def _disc_bounds_geometric(
    reward_kind: str, reward_payload, g: float, k: int, n_terms: int
) -> Tuple[float, float]:
    """Relative form (1-g) sum_d g^d r_{k+d}: no underflow at large k."""
    depth = min(n_terms, int(math.ceil(math.log(1e-12) / math.log(g))) + 1)
    parts = []
    d = 0
    while d < depth:
        stop = min(depth, d + _CHUNK)
        ds = np.arange(d, stop, dtype=np.int64)
        w = g ** ds.astype(np.float64)
        r = reward_vec(reward_kind, reward_payload, ds + k)
        parts.append(float(np.dot(w, r)))
        d = stop
    s = math.fsum(parts) * (1.0 - g)
    fuzz = (depth + 8) * _U * max(1.0 / (1.0 - g), 1.0)
    tail_rel = g**depth  # remaining relative mass
    lo = max(s - fuzz, 0.0)
    hi = min(s + fuzz + tail_rel, 1.0)
    return lo, hi
