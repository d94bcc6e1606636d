"""Seeded operation lists for the benchmark workloads.

A workload is a fixed list of operations drawn from the workload seed.
The program only ever sees the generated inputs: k grids, a custom
weight table, identity-suite seeds and schedule lists.

Indices are drawn by jittering a fixed log-spaced grid (each grid point
moves by up to +-10% on a log scale). A new seed therefore gives new
inputs, so nothing can be reused from a run on another seed, while the
cost and the enclosure widths of each operation stay close to those of
its grid point, which keeps the figures comparable across seeds.

Specs are plain constructor calls, [name, *args], resolved against
horizonlab.discount and horizonlab.reward by the worker at set-up.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

WORKLOADS = ("slow_tails", "numeric_tails", "certify")

_JITTER = 0.1


def _jitter(rng: random.Random, base: float, lo: int, hi: int) -> int:
    k = int(round(base * math.exp(rng.uniform(-_JITTER, _JITTER))))
    return min(max(k, lo), hi)


def _grid(rng: random.Random, bases: Sequence[float], lo: int, hi: int) -> List[int]:
    """One jittered index per base, strictly increasing."""
    out: List[int] = []
    for base in bases:
        k = _jitter(rng, base, lo, hi)
        if out and k <= out[-1]:
            k = out[-1] + 1
        out.append(k)
    return out


def _log_grid(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """n jittered points spread evenly in log scale over [lo, hi]."""
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    bases = [lo * math.exp(step * j) for j in range(n)]
    return _grid(rng, bases, lo, hi)


def _disc_value(reward: str, discount: str, k: int, tol: float) -> dict:
    return {"op": "disc_value_detail", "reward": reward, "discount": discount,
            "k": k, "tol": tol}


def _slow_tails(rng: random.Random) -> dict:
    """Binary-run rewards against closed-form, slowly decaying discounts."""
    specs = {
        "lin": ["linear_runs"],
        "exp": ["exponential_runs"],
        "harm": ["harmonic_like"],
        "pow": ["power", 0.5],
        "quad": ["quadratic"],
    }
    ops: List[dict] = []
    for k in _grid(rng, (80, 600, 3600), 64, 4096):
        ops.append(_disc_value("lin", "harm", k, 1e-3))
    for k in _grid(rng, (130, 330), 100, 1000):
        ops.append(_disc_value("lin", "pow", k, 1e-3))
    for k in _grid(rng, (12_000, 25_000, 50_000, 90_000), 10_000, 100_000):
        ops.append(_disc_value("lin", "quad", k, 1e-3))
    ops.append({"op": "limit_scan", "reward": "exp", "discount": "harm",
                "quantity": "V", "schedule": _grid(rng, (64, 256, 1024, 4096), 2, 10**6),
                "tol": 5e-2})
    sched = ",".join(str(k) for k in _grid(rng, (100, 1000, 8000), 2, 10**6))
    ops.append({"op": "cli", "argv": [
        "limits", "--reward", "exponential-runs", "--discount", "harmonic-like",
        "--schedule", f"list:{sched}", "--tol", "0.05", "--format", "json"],
        "check": "limits", "reward": "exp", "discount": "harm", "exits": [0, 4, 5]})
    warm = {"harm": 5, "pow": 7, "quad": 9}
    return {"specs": specs, "ops": ops, "warm": warm}


def _numeric_tails(rng: random.Random) -> dict:
    """Discounts whose tails are summed numerically, plus a long custom table."""
    table_len = 100_000
    # positive, nonincreasing weights around 1/(k(k+1)): a seeded random
    # walk on the log scale keeps every float distinct from the next seed
    table: List[float] = []
    level = 1.0
    for i in range(1, table_len + 1):
        level *= 1.0 - rng.random() * 1e-6
        table.append(level / (i * (i + 1)))
    specs = {
        "lin": ["linear_runs"],
        "per101": ["periodic", [1.0, 0.0, 1.0]],
        "cos": ["cosine_modulated"],
        "alt": ["alternating_zero"],
        "patched": ["build_patched", [1, 2]],
        "custom": ["custom", table, ["power", 1.0]],
    }
    ops: List[dict] = []
    # one row per family: a cosine row costs ~1.2 s, and a shorter pass
    # gives more passes per run, hence a steadier median
    ops.append({"op": "cli", "argv": [
        "table", "--discount", "cosine", "--discount", "alternating",
        "--discount", "patched:1,2", "--k", str(_jitter(rng, 150, 100, 300)),
        "--format", "csv"],
        "check": "table", "exits": [0]})
    for k in _grid(rng, (150, 600), 100, 1000):
        ops.append({"op": "gamma_tail", "discount": "cos", "k": k})
    for k in _grid(rng, (200, 800), 100, 1000):
        ops.append({"op": "gamma_tail", "discount": "alt", "k": k})
    for k in _grid(rng, (150, 700, 2500), 100, 4096):
        ops.append(_disc_value("lin", "cos", k, 1e-3))
    # fixed k: this op sets the workload's peak memory, which grows by about
    # 1% per unit of k, so jitter here would show up as peak_rss_mb spread
    ops.append(_disc_value("per101", "alt", 100, 1e-3))
    for k in _log_grid(rng, 1, table_len, 60):
        ops.append({"op": "gamma", "discount": "custom", "k": k})
        ops.append({"op": "gamma_tail", "discount": "custom", "k": k})
    warm = {"cos": 50, "alt": 50, "patched": 50, "custom": table_len // 2}
    return {"specs": specs, "ops": ops, "warm": warm}


def _certify(rng: random.Random) -> dict:
    """Many cheap scalar calls against closed-form tails."""
    specs = {
        "lin": ["linear_runs"],
        "exp": ["exponential_runs"],
        "per": ["periodic", [rng.choice([0.0, 1.0]) for _ in range(rng.randint(3, 7))] + [1.0, 0.0]],
        "quad": ["quadratic"],
        "pow": ["power", 0.5],
        "harm": ["harmonic_like"],
        "step": ["step_log"],
        "geo5": ["geometric", 0.5],
        "geo9": ["geometric", 0.9],
        "geo99": ["geometric", 0.99],
    }
    ops: List[dict] = []
    for _ in range(2):
        ops.append({"op": "identity_trials", "seed": rng.randrange(2**31), "n": 500})
    ops.append({"op": "construct_prop1", "discount": "geo5", "n_max": 20})
    ops.append({"op": "construct_prop2", "discount": "harm", "n_max": 4})
    for number in (1, 2):
        ops.append({"op": "golden_checks", "number": number})
    # the harmonic-like effective horizon grows like k^2 and would pass the
    # work guard beyond k ~ 1e4
    # k = 2 is excluded for harmonic-like, whose tail enclosure there is too
    # wide to halve certainly (a typed EnclosureAmbiguous, not a result)
    ranges = {"quad": (2, 10**5), "pow": (2, 10**5), "harm": (3, 3000), "step": (2, 10**5)}
    for name, (lo, hi) in ranges.items():
        for k in _log_grid(rng, lo, hi, 32):
            for metric in ("effective_horizon", "quasi_horizon", "horizon_ratio"):
                ops.append({"op": metric, "discount": name, "k": k})
    ops.append({"op": "lemma4_diagnostics", "discount": "step",
                "grid": _log_grid(rng, 2, 2**20, 24)})
    for reward in ("lin", "exp", "per"):
        ops.append({"op": "limit_scan", "reward": reward, "discount": None,
                    "quantity": "U", "schedule": _log_grid(rng, 2, 10**5, 18),
                    "tol": 1e-3})
    for geo in ("geo5", "geo9", "geo99"):
        for reward in ("lin", "per"):
            for k in _log_grid(rng, 1, 10**5, 12):
                ops.append(_disc_value(reward, geo, k, 1e-6))
    ops.append({"op": "verify_future_avg", "reward": "lin", "discount": "quad",
                "stretch": 2, "scale": 10**4})
    n_max = rng.randint(5, 8)
    ops.append({"op": "cli", "argv": [
        "construct", "--discount", "geometric:0.5", "--prop", "1",
        "--n-max", str(n_max), "--format", "json"],
        "check": "construct", "exits": [0]})
    ops.append({"op": "cli", "argv": ["verify", "--example", "1"],
                "check": "verify", "exits": [0]})
    warm = {"quad": 3, "pow": 3, "harm": 3, "step": 3, "geo5": 3, "geo9": 3, "geo99": 3}
    return {"specs": specs, "ops": ops, "warm": warm}


_GENERATORS = {"slow_tails": _slow_tails, "numeric_tails": _numeric_tails, "certify": _certify}


def generate(workload: str, seed: int) -> Dict:
    """The op list, specs and warm-up indices of one workload for one seed.

    warm maps each discount spec to an index at which set-up evaluates
    one tail; no op uses that index, so set-up primes lazy tables
    without precomputing any op's answer.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    doc = _GENERATORS[workload](rng)
    used: Dict[str, set] = {}
    for op in doc["ops"]:
        if op.get("discount") is not None:
            used.setdefault(op["discount"], set()).update(
                [op["k"]] if "k" in op else op.get("grid", []))
    for name, k in doc["warm"].items():
        while k in used.get(name, ()):
            k += 1
        doc["warm"][name] = k
    doc.update(workload=workload, seed=seed)
    return doc
