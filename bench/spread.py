"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload slow_tails --seeds 1-10 --seconds 30

Runs bench/run.py once per seed and prints, per metric, the median of
the values and their spread: the distance between the first and third
quartiles (statistics.quantiles with n=4) as a share of the median.
That spread must stay below each metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}

    values: dict = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:28s} median {med:<12.6g} spread {spread:.4f}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
