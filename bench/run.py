"""horizonlab benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload slow_tails --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each timed pass runs the workload's op list once in a fresh process
(bench/worker.py), so no pass reuses results cached by another; passes
repeat while the next one is expected to end within --seconds (at least
three per mode), and each timing is the median over the passes. After the passes, the results of
the first pass go through the correctness checker (bench/check.py), and
every pass must have returned byte-identical results.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones
(bench/spans.py) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
run's metadata (result digest, src/ line count, versions, pass count).
Spans and per-run details go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# an enclosure of width zero is exact; flooring it keeps the geometric
# mean finite and still far below any width a real enclosure reaches
_WIDTH_FLOOR = 1e-16

def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _layout_ok() -> bool:
    return all(os.path.isfile(os.path.join(ROOT, *p)) for p in (
        ("BENCHMARK.json",), ("src", "horizonlab", "__init__.py"), ("tests", "oracles.py")))


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread per pass: no BLAS or OpenMP pool competes for the two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_pass(ops_path: str, tag: str, traced: bool) -> dict:
    out_path = os.path.join(OUT, f"{tag}-pass.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ops_path, out_path]
    if traced:
        cmd += ["--trace", os.path.join(OUT, f"{tag}-spans.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(results: List[dict]) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    # importing the package here also compiles its bytecode, which the
    # first pass would otherwise pay for in setup_s
    import horizonlab  # noqa: F401
    import check
    import workloads
    from spans import LAYERS

    os.makedirs(OUT, exist_ok=True)
    doc = workloads.generate(workload, seed)
    tag = f"{workload}-{'trace' if trace else 'plain'}"  # the report records the seed
    ops_path = os.path.join(OUT, f"{tag}-ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    modes = [False, True] if trace else [False]
    passes: Dict[bool, List[dict]] = {m: [] for m in modes}
    durations: Dict[bool, List[float]] = {m: [] for m in modes}
    deadline = time.monotonic() + seconds
    n = 0
    while True:
        mode = modes[n % len(modes)]
        enough = all(len(p) >= MIN_PASSES for p in passes.values())
        # start a pass only if it is expected to end before the deadline
        if enough and time.monotonic() + statistics.median(durations[mode]) > deadline:
            break
        start = time.monotonic()
        passes[mode].append(_run_pass(ops_path, tag, mode))
        durations[mode].append(time.monotonic() - start)
        n += 1

    every = [p for m in modes for p in passes[m]]
    first = passes[False][0]
    digests = {_digest(p["results"]) for p in every}
    problems = check.check(doc, first["results"])
    if len(digests) != 1:
        problems.append(f"passes returned {len(digests)} different result sets")
    attempted = len(doc["ops"]) * len(every)
    failed = sum(p["failed"] for p in every)

    plain = passes[False]
    if not trace:
        widths = [max(r["iv"][1] - r["iv"][0], _WIDTH_FLOOR)
                  for op, r in zip(doc["ops"], first["results"])
                  if op["op"] == "disc_value_detail" and "iv" in r]
        values = {name: statistics.median(p[name] for p in plain)
                  for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        values["width_geomean"] = (
            math.exp(statistics.fmean(math.log(w) for w in widths)) if widths else 1.0)
        values["width_max"] = max(widths) if widths else 1.0
        values["ok_frac"] = 1.0 - failed / attempted
        units = _declared("end_to_end")
    else:
        traced = passes[True]
        counts = [p["trace"]["counts"] for p in traced]
        if any(c != counts[0] for c in counts):
            problems.append("traced counts differ between passes of the same inputs")
        values = dict(counts[0])
        for layer in LAYERS:
            values[f"{layer}.self_s"] = statistics.median(p["trace"]["self_s"][layer] for p in traced)
        values["cli.bytes_out"] = sum(
            len(r["stdout"].encode()) for op, r in zip(doc["ops"], first["results"])
            if op["op"] == "cli" and "stdout" in r)
        values["trace.span_cost_us"] = 1e6 * statistics.median(
            p["trace"]["span_cost_s"] for p in traced)
        values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                         / statistics.median(p["wall_s"] for p in plain) - 1.0)
        units = _declared("per_layer")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics the run does not make: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta = {
        "workload": workload,
        "seed": seed,
        "passes": {("traced" if m else "plain"): len(passes[m]) for m in modes},
        "samples": {name: [p[name] for p in plain]
                    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")},
        "digest": digests.pop() if len(digests) == 1 else sorted(digests),
        "src_lines": _src_lines(),
        "versions": dict(first["versions"], nproc=os.cpu_count()),
        "problems": problems[:20],
    }
    if trace:
        meta["spans"] = {k: traced[0]["trace"][k] for k in ("spans_kept", "spans_dropped")}
    with open(os.path.join(OUT, f"{tag}-report.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="slow_tails, numeric_tails, certify, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _layout_ok():
        sys.stderr.write("bench/run.py: run from a horizonlab checkout (BENCHMARK.json, "
                         "src/horizonlab and tests/oracles.py are needed)\n")
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    reports = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}

    for name, rep in reports.items():
        for problem in rep["meta"]["problems"]:
            sys.stderr.write(f"{name}: CHECK FAILED: {problem}\n")
    if args.workload != "all":
        rep = reports[names[0]]
        print(json.dumps({"meta": rep["meta"]}))
        print(json.dumps({k: rep[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    metrics = {}
    for name, rep in reports.items():
        print(json.dumps({"meta": rep["meta"]}))
        for metric, m in rep["metrics"].items():
            print(f"{name:14s} {metric:28s} {m['value']:<14.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
