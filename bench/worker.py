"""One timed pass over a workload's op list, in a fresh process.

Usage: python3 bench/worker.py OPS_JSON OUT_JSON [--trace SPANS_JSONL]

Set-up (timed as setup_s) imports horizonlab, builds every spec of the
workload and evaluates one tail per discount at an index no op uses, so
lazily built tables land in set-up. The pass then runs the op list once
in a closed loop on one thread. Each op's result is recorded in plain
JSON for the correctness checker and the output digest; an op that
raises is recorded as a failure and the pass goes on.

With --trace the layer modules are wrapped after set-up (see spans.py)
and the spans are written to SPANS_JSONL.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from typing import Callable, Dict


def _iv(iv) -> list:
    return [iv.lo, iv.hi]


def _estimate(est) -> dict:
    return {
        "verdict": est.verdict,
        "indices": list(est.indices),
        "values": [_iv(v) for v in est.values],
        "tags": list(est.tags),
        "band": _iv(est.band),
        "liminf": _iv(est.liminf_est),
        "limsup": _iv(est.limsup_est),
        "alpha": est.alpha,
        "beta": est.beta,
    }


def _cli(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _op_table(hl, specs: Dict[str, object]) -> Dict[str, Callable[[dict], dict]]:
    D, V, T, C = hl.discount, hl.value, hl.theorems, hl.corpus

    def spec(name):
        return None if name is None else specs[name]

    def disc_value(op):
        det = V.disc_value_detail(spec(op["reward"]), spec(op["discount"]), op["k"],
                                  tol=op["tol"], strict=False)
        return {"iv": _iv(det.interval), "attained": det.attained,
                "path": det.path, "truncation": det.truncation}

    def scan(op):
        return _estimate(V.limit_scan(spec(op["reward"]), spec(op["discount"]),
                                      op["quantity"], op["schedule"], op["tol"]))

    def eh(op):
        ih = D.effective_horizon(spec(op["discount"]), op["k"])
        return {"ih": [ih.lo, ih.hi]}

    def golden(op):
        return {"checks": [[c.name, c.passed, c.detail] for c in C.golden_checks(op["number"])]}

    def identity(op):
        rep = C.identity_trials(op["seed"], op["n"])
        return {"checks": rep.checks, "failures": list(rep.failures)}

    def lemma4(op):
        diag = T.lemma4_diagnostics(spec(op["discount"]), op["grid"])
        return {"pattern": diag.pattern, "labels": diag.labels}

    def future_avg(op):
        stretch = op["stretch"]
        rep = T.verify_future_avg(spec(op["reward"]), spec(op["discount"]),
                                  lambda k: stretch * k, scale=op["scale"])
        return {"consistent": rep.consistent,
                "premises": [[p.name, p.status] for p in rep.premises]}

    return {
        "disc_value_detail": disc_value,
        "limit_scan": scan,
        "gamma": lambda op: {"value": D.gamma(spec(op["discount"]), op["k"])},
        "gamma_tail": lambda op: {"iv": _iv(D.gamma_tail(spec(op["discount"]), op["k"]))},
        "effective_horizon": eh,
        "quasi_horizon": lambda op: {"iv": _iv(D.quasi_horizon(spec(op["discount"]), op["k"]))},
        "horizon_ratio": lambda op: {"iv": _iv(D.horizon_ratio(spec(op["discount"]), op["k"]))},
        "identity_trials": identity,
        "construct_prop1": lambda op: {"points": list(
            T.construct_prop1_reward(spec(op["discount"]), op["n_max"]).params[1])},
        "construct_prop2": lambda op: {"points": list(
            T.construct_prop2_reward(spec(op["discount"]), op["n_max"]).params[1])},
        "golden_checks": golden,
        "lemma4_diagnostics": lemma4,
        "verify_future_avg": future_avg,
        "cli": lambda op: _cli(hl.cli, op["argv"]),
    }


_REWARD_CTORS = {"periodic", "linear_runs", "exponential_runs"}


def _build(module, ctor: list):
    name, *args = ctor
    if name == "custom":
        table, tail = args
        return module.custom(table, tuple(tail))
    return getattr(module, name)(*args)


def main(argv) -> int:
    if len(argv) not in (2, 4) or (len(argv) == 4 and argv[2] != "--trace"):
        sys.stderr.write(__doc__)
        return 2
    ops_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if len(argv) == 4 else None
    with open(ops_path, encoding="utf-8") as fh:
        doc = json.load(fh)

    t0 = time.perf_counter()
    import horizonlab
    import horizonlab.cli  # noqa: F401  (the package init does not import it)
    import horizonlab.corpus  # noqa: F401

    specs = {}
    for name, ctor in doc["specs"].items():
        module = horizonlab.reward if ctor[0] in _REWARD_CTORS else horizonlab.discount
        specs[name] = _build(module, ctor)
    for name, k in doc["warm"].items():
        horizonlab.discount.gamma_tail(specs[name], k)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spans_path is not None:
        from spans import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
    table = _op_table(horizonlab, specs)

    results = []
    failed = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in doc["ops"]:
        fn = table[op["op"]]
        try:
            res = fn(op) if tracer is None else tracer.run("bench", fn, op)
        except Exception as exc:  # an op failure is data for the report, not a crash
            failed += 1
            res = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(res)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0

    import numpy

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed": failed,
        "results": results,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
