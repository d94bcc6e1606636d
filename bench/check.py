"""Correctness checks on one pass's results, run outside the timed window.

Every enclosure the program returns must overlap an independent
enclosure of the same quantity. Where tests/oracles.py covers the
discount family (quadratic, power, step-log, geometric) it is used as
is. For the families it does not cover (harmonic-like, cosine,
alternating, patched, custom) this module builds the enclosure itself:
weights from the family formulas, brute-force sums with an explicit
rounding budget, remainders from integral bounds or closed forms
evaluated with mpmath. Both sides provably contain the true value, so
disjoint enclosures mean one of them is wrong.

Verdicts are finite-sample evidence, so a limit verdict is checked only
against facts that hold at every scale: reported values overlap the
oracle, the exit code matches the reported verdict, and a split that is
certain (exponential runs under U) is never called converged.

check() returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
import oracles  # noqa: E402  (tests/oracles.py, imported read-only)

_U = 2.0**-53
_CHUNK = 1 << 20
_V_TERMS = 1 << 21  # brute-force terms per discounted value

mpmath.mp.dps = 40

Pair = Tuple[float, float]


def _down(x: float) -> float:
    return math.nextafter(math.nextafter(x, -math.inf), -math.inf)


def _up(x: float) -> float:
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


def _mp_pair(x) -> Pair:
    """Float enclosure of an mpmath value computed at 40 digits."""
    f = float(x)
    return _down(f), _up(f)


def _add(a: Pair, b: Pair) -> Pair:
    return _down(a[0] + b[0]), _up(a[1] + b[1])


def _div(a: Pair, b: Pair) -> Pair:
    """a / b for nonnegative a and positive b."""
    return _down(a[0] / b[1]), _up(a[1] / b[0])


def _overlap(got: Sequence[float], want: Pair) -> bool:
    return got[0] <= want[1] and want[0] <= got[1]


def _run_start(kind: str, j: int) -> int:
    """First index of run j of linear (length j) or exponential runs."""
    return j * (j - 1) // 2 + 1 if kind == "linear" else 2 ** (j - 1)


# ---------------------------------------------------------------------------
# Discount families the test oracles do not cover
# ---------------------------------------------------------------------------


class _Family:
    """Weights with a per-term relative error bound, and a rigorous
    bracket of the remainder sum_{i >= n} gamma_i for large n."""

    head_terms = 1 << 22  # brute-force terms summed before the remainder bracket
    monotone = False  # gamma nonincreasing in k

    def weights(self, ks: np.ndarray) -> Tuple[np.ndarray, float]:
        raise NotImplementedError

    def remainder(self, n: int) -> Pair:
        raise NotImplementedError

    def runs_rest(self, kind: str, j: int) -> Optional[Pair]:
        """Bracket of sum_{i >= s} gamma_i r_i, s the first index of run j
        of a binary-run reward whose odd runs carry the 1s; None if there
        is none sharper than [0, Gamma_s].

        Linear runs, from an odd run J on, for nonincreasing gamma:
        shifting run j by its length j maps it into run j+1 less its last
        index e_{j+1}, so m_j >= m_{j+1} - gamma(e_{j+1}) for the run
        masses m_j. Summing over the pairs puts the odd-run mass in
        [(G - E)/2, (G + m_J + E)/2], where G is the tail from run J on
        and E = sum_{j>J} gamma(e_j) <= sum_{j>J} m_j / j <= G / (J+1),
        as gamma(e_j) is the least weight of run j.
        """
        if kind != "linear" or not self.monotone:
            return None
        if j % 2 == 0:
            raise ValueError("linear rest must start at an odd run")
        s = _run_start("linear", j)
        g_lo, g_hi = self.remainder(s)
        w, rel = self.weights(np.array([s], dtype=np.int64))
        m_j = _up(j * _up(float(w[0]) * (1 + 4 * rel)))  # j weights of at most gamma_s
        e = _up(g_hi / (j + 1))
        return max(_down(_down(g_lo - e) / 2), 0.0), _up(_up(_up(g_hi + m_j) + e) / 2)


class _Formula(_Family):
    """A family that tests/oracles.py defines: its weights and tails."""

    monotone = True  # quadratic, power and step-log all are

    def __init__(self, name: str, params: tuple) -> None:
        self.name, self.params = name, params

    def weights(self, ks):
        # at most three roundings, or numpy's pow, per weight
        return oracles.weight_vec(self.name, self.params, ks), 32 * _U

    def remainder(self, n):
        return oracles.tail_bounds(self.name, self.params, n)


class _Harmonic(_Family):
    """gamma_k = 1/(k ln^2 k), gamma_1 = gamma_2."""

    head_terms = 1 << 16  # the remainder bracket is already sharp there
    monotone = True

    def weights(self, ks):
        kf = np.maximum(ks, 2).astype(np.float64)
        ln = np.log(kf)
        return 1.0 / (kf * ln * ln), 32 * _U

    def remainder(self, n):
        lo, hi = self._mass(n, None)
        return _mp_pair(lo)[0], _mp_pair(hi)[1]

    @staticmethod
    def _mass(a: int, b: Optional[int]):
        """mpmath bracket of sum_{i=a}^{b} gamma_i (b None: to infinity), a >= 2.

        f(x) = 1/(x ln^2 x) decreases on [2, inf) with antiderivative
        -1/ln x, so the sum lies between the integral over [a, b+1] and
        f(a) plus the integral over [a, b].
        """
        la = mpmath.log(a)
        if b is None:
            return 1 / la, 1 / la + 1 / (a * la**2)
        return 1 / la - 1 / mpmath.log(b + 1), 1 / (a * la**2) + 1 / la - 1 / mpmath.log(b)

    def runs_rest(self, kind, j):
        """Exponential runs: runs up to 2^1000 are summed one by one in
        closed form. From there on the run masses m_j do not increase,
        since gamma_2i + gamma_2i+1 <= 2 gamma_2i <= gamma_i for this
        family, so the odd runs from an odd run J on carry between half
        of the tail and half of the tail plus m_J. Other rewards: as for
        any nonincreasing family."""
        if kind != "exponential":
            return super().runs_rest(kind, j)
        last = 1000  # even, so the bracketed rest starts at an odd run
        if j > last:
            raise ValueError("exponential rest starts past the summed runs")
        lo = hi = mpmath.mpf(0)
        for r in range(j | 1, last + 1, 2):
            m_lo, m_hi = self._mass(2 ** (r - 1), 2**r - 1)
            lo, hi = lo + m_lo, hi + m_hi
        g_lo, g_hi = self._mass(2**last, None)
        m_next = self._mass(2**last, 2 ** (last + 1) - 1)[1]
        lo, hi = lo + g_lo / 2, hi + (g_hi + m_next) / 2
        return _mp_pair(lo)[0], _mp_pair(hi)[1]


class _Cosine(_Family):
    """gamma_k = (2 + cos(pi sqrt(2k))) / k^2."""

    def weights(self, ks):
        kf = ks.astype(np.float64)
        arg = np.pi * np.sqrt(2.0 * kf)
        # the argument carries a relative error of a few u, so cos is off
        # by up to ~4u * arg absolutely; 2 + cos >= 1 makes that relative
        rel = (4.0 * float(arg[-1]) + 32.0) * _U
        return (2.0 + np.cos(arg)) / (kf * kf), rel

    def remainder(self, n):
        # 1 <= 2 + cos <= 3 and sum_{i >= n} i^-2 lies in [1/n, 1/(n-1)]
        return _down(1.0 / n), _up(3.0 / (n - 1))


class _Alternating(_Family):
    """Zero at odd k, 1/(k(k+1)) at even k (the default quadratic base)."""

    head_terms = 0  # the remainder is in closed form

    def weights(self, ks):
        kf = ks.astype(np.float64)
        return np.where(ks % 2 == 1, 0.0, 1.0 / (kf * (kf + 1.0))), 4 * _U

    def remainder(self, n):
        # sum_{j >= J} 1/(2j(2j+1)) = (digamma(J + 1/2) - digamma(J)) / 2
        j = (n + 1) // 2
        return _mp_pair((mpmath.digamma(j + mpmath.mpf(1) / 2) - mpmath.digamma(j)) / 2)


class _Patched(_Family):
    """Weights rebuilt from the segment table of a patched spec."""

    def __init__(self, segments) -> None:
        self.segments = segments
        self.final = segments[-1]

    def weights(self, ks):
        out = np.zeros(ks.shape)
        for seg in self.segments:
            end = seg.end if seg.end else ks[-1]
            mask = (ks >= seg.start) & (ks <= end)
            if not mask.any():
                continue
            kf = ks[mask].astype(np.float64)
            if seg.kind == "geometric":
                out[mask] = seg.gamma_start * np.power(seg.g, kf - seg.start)
            else:
                s = float(seg.start)
                ln, ln_s = np.log(kf), math.log(s)
                out[mask] = seg.gamma_start * (s * ln_s * ln_s) / (kf * ln * ln)
        return out, 64 * _U

    def remainder(self, n):
        if n < self.final.start:
            raise ValueError("patched remainder starts in the final geometric stretch")
        f = self.final
        g = mpmath.mpf(f.g)
        return _mp_pair(mpmath.mpf(f.gamma_start) * g ** (n - f.start) / (1 - g))


def _brute(fam: _Family, k: int, n_end: int, reward=None) -> Tuple[Pair, Pair]:
    """Enclosures of sum_{i=k}^{n_end} gamma_i r_i and of sum gamma_i.

    Each chunk is a numpy dot product; its error is within m u sum|x|
    for m terms, plus the per-term relative error of the weights.
    """
    parts, abs_parts = [], []
    rel = 0.0
    i = k
    while i <= n_end:
        stop = min(n_end, i + _CHUNK - 1)
        ks = np.arange(i, stop + 1, dtype=np.int64)
        w, r_w = fam.weights(ks)
        rel = max(rel, r_w)
        abs_parts.append(float(w.sum()))
        if reward is not None:
            parts.append(float(np.dot(w, oracles.reward_vec(reward[0], reward[1], ks))))
        i = stop + 1
    total = math.fsum(abs_parts)
    err = (rel + (n_end - k + len(abs_parts) + 8) * _U) * total + 1e-300
    weighted = math.fsum(parts)
    return ((weighted - err, weighted + err) if reward is not None else (0.0, 0.0),
            (total - err, total + err))


def _family_tail(fam: _Family, k: int) -> Pair:
    if isinstance(fam, _Patched):
        n_end = fam.final.start - 1
    else:
        n_end = k + fam.head_terms - 1
    if n_end < k:
        return fam.remainder(k)
    _, head = _brute(fam, k, n_end)
    return _add(head, fam.remainder(n_end + 1))


def _family_value(fam: _Family, reward, k: int) -> Pair:
    kind = reward[0]
    n_end = k + _V_TERMS - 1
    rest = None
    if kind in ("linear", "exponential"):
        # end the brute-force head at a run boundary (an odd run next,
        # for linear runs) so that the rest can get a run bracket
        j = 1
        while _run_start(kind, j + 1) <= n_end + 1:
            j += 1
        if kind == "linear" and j % 2 == 0:
            j -= 1
        if _run_start(kind, j) <= k:
            raise ValueError(f"V oracle head at k={k} is shorter than one run")
        n_end = _run_start(kind, j) - 1
        rest = fam.runs_rest(kind, j)
    num, head = _brute(fam, k, n_end, reward)
    tail = fam.remainder(n_end + 1)
    den = _add(head, tail)
    num = (max(num[0], 0.0), num[1])
    num = _add(num, rest) if rest is not None else (num[0], _up(num[1] + tail[1]))
    lo, hi = _div(num, den)
    return max(lo, 0.0), min(hi, 1.0)


# ---------------------------------------------------------------------------
# Spec dispatch
# ---------------------------------------------------------------------------


class Specs:
    """Independent enclosures for the specs of one workload document."""

    def __init__(self, specs: Dict[str, list]) -> None:
        self.ctors = specs
        self._families: Dict[str, _Family] = {}
        self._tails: Dict[Tuple[str, int], Pair] = {}

    def reward(self, name: str):
        ctor = self.ctors[name]
        kinds = {"linear_runs": "linear", "exponential_runs": "exponential"}
        if ctor[0] in kinds:
            return kinds[ctor[0]], None
        if ctor[0] == "periodic":
            return "periodic", list(ctor[1])
        raise ValueError(f"no reward oracle for {ctor}")

    def _oracle_family(self, name: str) -> Optional[Tuple[str, tuple]]:
        ctor = self.ctors[name]
        if ctor[0] in ("quadratic", "step_log"):
            return ctor[0], ()
        if ctor[0] in ("power", "geometric"):
            return ctor[0], (float(ctor[1]),)
        return None

    def family(self, name: str) -> _Family:
        if name not in self._families:
            self._families[name] = _family_from_ctor(self.ctors[name])
        return self._families[name]

    def value(self, reward: str, discount: str, k: int) -> Pair:
        fam = self._oracle_family(discount)
        kind, payload = self.reward(reward)
        if fam is not None and fam[0] == "geometric":
            return oracles.disc_bounds(kind, payload, fam[0], fam[1], k, n_terms=_V_TERMS)
        family = _Formula(*fam) if fam is not None else self.family(discount)
        return _family_value(family, (kind, payload), k)

    def tail(self, discount: str, k: int) -> Pair:
        key = (discount, k)
        if key not in self._tails:
            fam = self._oracle_family(discount)
            if fam is not None:
                self._tails[key] = oracles.tail_bounds(fam[0], fam[1], k)
            elif self.ctors[discount][0] == "custom":
                self._tails[key] = _custom_tail(self.ctors[discount], k)
            else:
                self._tails[key] = _family_tail(self.family(discount), k)
        return self._tails[key]

    def average(self, reward: str, m: int) -> Pair:
        """Enclosure of U(1..m)."""
        kind, payload = self.reward(reward)
        if kind != "periodic":
            return oracles.avg_bounds(kind, payload, 1, m)
        pat = [Fraction(x) for x in payload]
        q, r = divmod(m, len(pat))
        exact = (q * sum(pat) + sum(pat[:r])) / m
        return _down(float(exact)), _up(float(exact))

    def weight(self, discount: str, k: int) -> Pair:
        fam = self._oracle_family(discount)
        if fam is not None:
            w = oracles.weight(fam[0], fam[1], k)
            return w * (1 - 1e-12), w * (1 + 1e-12)
        w, rel = self.family(discount).weights(np.array([k], dtype=np.int64))
        w = float(w[0])
        return _down(w * (1 - 2 * rel)), _up(w * (1 + 2 * rel))


def _family_from_ctor(ctor: list) -> _Family:
    if ctor[0] == "harmonic_like":
        return _Harmonic()
    if ctor[0] == "cosine_modulated":
        return _Cosine()
    if ctor[0] == "alternating_zero" and len(ctor) == 1:
        return _Alternating()
    if ctor[0] == "build_patched":
        # the segment table is the spec's definition, not a computed value
        from horizonlab import discount as _d

        return _Patched(_d.build_patched(ctor[1]).params[0])
    raise ValueError(f"no oracle for discount {ctor}")


def _custom_tail(ctor: list, k: int) -> Pair:
    table, (kind, p) = ctor[1], ctor[2]
    if kind != "power":
        raise ValueError("custom oracle covers the power tail model only")
    big_k = len(table)
    # continuation A (i/K)^(-1-p) for i >= s sums to A K^(1+p) zeta(1+p, s)
    start = max(k, big_k + 1)
    model = _mp_pair(mpmath.mpf(table[-1]) * mpmath.mpf(big_k) ** (1 + p)
                     * mpmath.zeta(1 + p, start))
    if k > big_k:
        return model
    head = math.fsum(table[k - 1:])  # correctly rounded
    return _add((math.nextafter(head, -math.inf), math.nextafter(head, math.inf)), model)


# ---------------------------------------------------------------------------
# Per-op checks
# ---------------------------------------------------------------------------


def _check_value(sp: Specs, op: dict, res: dict) -> List[str]:
    lo, hi = res["iv"]
    if not 0.0 <= lo <= hi <= 1.0:
        return [f"V({op['k']}) = {res['iv']} is not a subinterval of [0, 1]"]
    want = sp.value(op["reward"], op["discount"], op["k"])
    if not _overlap(res["iv"], want):
        return [f"V({op['reward']}, {op['discount']}, {op['k']}) = {res['iv']} "
                f"misses the oracle enclosure {list(want)}"]
    return []


def _horizon_checks(sp: Specs, name: str, k: int, op: str, res: dict) -> List[str]:
    t_k = sp.tail(name, k)
    if op == "effective_horizon":
        h_lo, h_hi = res["ih"]
        msgs = []
        # the true horizon needs the halving to be possible at h_hi and
        # possibly not yet reached at h_lo - 1
        if not sp.tail(name, k + h_hi)[0] <= t_k[1] / 2:
            msgs.append(f"eh({name}, {k}) = {res['ih']}: Gamma has certainly not halved at h={h_hi}")
        if h_lo >= 1 and not sp.tail(name, k + h_lo - 1)[1] > t_k[0] / 2:
            msgs.append(f"eh({name}, {k}) = {res['ih']}: Gamma has certainly halved at h={h_lo - 1}")
        return msgs
    g_k = sp.weight(name, k)
    if op == "quasi_horizon":
        want = _div(t_k, g_k)
    else:
        want = _div((_down(k * g_k[0]), _up(k * g_k[1])), t_k)
    if not _overlap(res["iv"], want):
        return [f"{op}({name}, {k}) = {res['iv']} misses the oracle enclosure {list(want)}"]
    return []


def _geometric_tail(g: Fraction, k: int) -> Fraction:
    return g**k / (1 - g)


def _check_prop1(ctor: list, n_max: int, points: List[int]) -> List[str]:
    """Change-point conditions of the first construction, exactly."""
    if ctor[0] != "geometric":
        raise ValueError("prop1 oracle covers geometric discounts only")
    g = Fraction(ctor[1])
    if len(points) != 2 * n_max:
        return [f"prop1 returned {len(points) // 2} runs, expected {n_max}"]

    def tail(k):
        return _geometric_tail(g, k)

    msgs = []
    m_prev = 0
    for n in range(1, n_max + 1):
        k_n, m_n = points[2 * n - 2], points[2 * n - 1]

        def admissible(m):
            return m * (1 - g) >= n * n and tail(m) < tail(m_prev + 1) / 2

        if not admissible(m_n) or any(admissible(m) for m in range(m_prev + 1, m_n)):
            msgs.append(f"prop1 run {n}: m_n={m_n} is not the first admissible index")
        if not (m_prev < k_n < m_n and tail(k_n + 1) < 2 * tail(m_n) <= tail(k_n)):
            msgs.append(f"prop1 run {n}: k_n={k_n} does not bracket 2 Gamma(m_n)")
        m_prev = m_n
    return msgs


def _check_prop2(sp: Specs, name: str, n_max: int, points: List[int]) -> List[str]:
    msgs = []
    if len(points) != 2 * n_max:
        return [f"prop2 returned {len(points) // 2} runs, expected {n_max}"]
    k_prev = 0
    for n in range(1, n_max + 1):
        k_n, m_n = points[2 * n - 2], points[2 * n - 1]
        g = sp.weight(name, k_n)
        ratio_lo = _div((k_n * g[0], k_n * g[1]), sp.tail(name, k_n))[0]
        if m_n != 2 * k_n or k_n < 8 * k_prev + 1 or not ratio_lo <= 1.0 / (n * n):
            msgs.append(f"prop2 run {n}: (k, m) = ({k_n}, {m_n}) violates the construction")
        k_prev = k_n
    return msgs


def _check_scan(sp: Specs, op: dict, res: dict) -> List[str]:
    """Reported values against the oracle, and verdicts forced at every scale."""
    msgs = []
    idx, vals = res["indices"], res["values"]
    if not idx or len(idx) != len(vals):
        return [f"scan returned {len(idx)} indices and {len(vals)} values"]
    if op["quantity"] == "U":
        picks = range(len(idx))
        want_fn = lambda m: sp.average(op["reward"], m)  # noqa: E731
    else:
        # a brute-force V per point is costly: check the first and last points
        picks = sorted({0, len(idx) - 1})
        want_fn = lambda m: sp.value(op["reward"], op["discount"], m)  # noqa: E731
    for j in picks:
        want = want_fn(idx[j])
        if not _overlap(vals[j], want):
            msgs.append(f"{op['quantity']} scan value at {idx[j]} = {vals[j]} "
                        f"misses the oracle enclosure {list(want)}")
    exp_runs = sp.ctors[op["reward"]][0] == "exponential_runs"
    if op["quantity"] == "U" and exp_runs and res["verdict"] == "converged":
        # U of exponential runs is exactly 1/3 and 2/3 along the run ends
        msgs.append("U scan of exponential runs reported converged")
    return msgs


_EXIT_FOR_VERDICT = {"converged": 0, "oscillating": 4, "inconclusive": 5}


def _parse_interval(cell: str) -> Optional[Pair]:
    if cell == "-":
        return None
    lo, hi = cell.strip("[]").split(",")
    return float(lo), float(hi)


def _check_cli(sp: Specs, op: dict, res: dict) -> List[str]:
    code, out = res["exit"], res["stdout"]
    if code not in op["exits"]:
        return [f"cli {' '.join(op['argv'])} exited {code}, expected one of {op['exits']}: "
                f"{res['stderr'][-300:]}"]
    kind = op["check"]
    msgs = []
    if kind == "limits":
        doc = json.loads(out)
        if _EXIT_FOR_VERDICT[doc["verdict"]] != code:
            msgs.append(f"limits exit {code} disagrees with verdict {doc['verdict']}")
        scan_op = {"quantity": "V", "reward": op["reward"], "discount": op["discount"]}
        msgs += _check_scan(sp, scan_op, {"indices": doc["schedule"], "values": doc["values"],
                                          "verdict": doc["verdict"]})
    elif kind == "table":
        names = {"cosine_modulated": "cos", "alternating_zero": "alt", "patched": "patched"}
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        col = {h: i for i, h in enumerate(header)}
        if len(body) != 3 * len(op["argv"][op["argv"].index("--k") + 1].split(",")):
            msgs.append(f"table printed {len(body)} rows")
        for row in body:
            name, k = names[row[col["family"]]], int(row[col["k"]])
            tail = _parse_interval(row[col["Gamma_k"]])
            if tail is not None and not _overlap(tail, sp.tail(name, k)):
                msgs.append(f"table Gamma({name}, {k}) = {list(tail)} misses the oracle "
                            f"{list(sp.tail(name, k))}")
            for metric, header_name in (("quasi_horizon", "quasi_horizon"),
                                        ("horizon_ratio", "k*gamma/Gamma")):
                iv = _parse_interval(row[col[header_name]])
                if iv is not None:
                    msgs += _horizon_checks(sp, name, k, metric, {"iv": list(iv)})
            eh = row[col["eff_horizon"]]
            if eh != "-":
                lo, _, hi = eh.partition("..")
                msgs += _horizon_checks(sp, name, k, "effective_horizon",
                                        {"ih": [int(lo), int(hi or lo)]})
    elif kind == "construct":
        doc = json.loads(out)
        n_max = int(op["argv"][op["argv"].index("--n-max") + 1])
        msgs += _check_prop1(["geometric", 0.5], n_max, doc["points"])
    elif kind == "verify":
        if "[FAIL" in out or not out.endswith("all checks passed\n"):
            msgs.append("verify reported failed checks")
    return msgs


def check(doc: dict, results: List[dict]) -> List[str]:
    """Failure messages for one pass's results (empty when all hold)."""
    ops = doc["ops"]
    if len(results) != len(ops):
        return [f"{len(results)} results for {len(ops)} ops"]
    sp = Specs(doc["specs"])
    msgs: List[str] = []
    for n, (op, res) in enumerate(zip(ops, results)):
        kind = op["op"]
        if "error" in res:
            msgs.append(f"op {n} ({kind}) raised {res['error']}")
            continue
        if kind == "disc_value_detail":
            msgs += _check_value(sp, op, res)
        elif kind == "gamma_tail":
            want = sp.tail(op["discount"], op["k"])
            if not _overlap(res["iv"], want):
                msgs.append(f"Gamma({op['discount']}, {op['k']}) = {res['iv']} misses "
                            f"the oracle enclosure {list(want)}")
        elif kind == "gamma":
            table = sp.ctors[op["discount"]][1]
            if res["value"] != table[op["k"] - 1]:
                msgs.append(f"gamma({op['discount']}, {op['k']}) = {res['value']} is not "
                            f"the table entry {table[op['k'] - 1]}")
        elif kind in ("effective_horizon", "quasi_horizon", "horizon_ratio"):
            msgs += _horizon_checks(sp, op["discount"], op["k"], kind, res)
        elif kind == "identity_trials":
            if res["failures"] or res["checks"] < op["n"]:
                msgs.append(f"identity trials failed: {res['failures'][:3]}")
        elif kind == "construct_prop1":
            msgs += _check_prop1(sp.ctors[op["discount"]], op["n_max"], res["points"])
        elif kind == "construct_prop2":
            msgs += _check_prop2(sp, op["discount"], op["n_max"], res["points"])
        elif kind == "golden_checks":
            bad = [c[0] for c in res["checks"] if not c[1]]
            if bad or not res["checks"]:
                msgs.append(f"golden checks of example {op['number']} failed: {bad}")
        elif kind == "lemma4_diagnostics":
            # the weight share of step-log is at most 2^(1-n) in block n
            if res["labels"]["weight_share"] != "tends-to-0":
                msgs.append(f"step-log weight share labelled {res['labels']['weight_share']}")
        elif kind == "limit_scan":
            msgs += _check_scan(sp, op, res)
        elif kind == "verify_future_avg":
            if not res["consistent"]:
                msgs.append("future-average harness reported a falsified implication")
        elif kind == "cli":
            msgs += _check_cli(sp, op, res)
        else:
            msgs.append(f"no check for op kind {kind!r}")
    return msgs
