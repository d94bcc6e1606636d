"""Command line front end: horizon tables, value evaluation, limit
scans, counterexample construction, and the verification suite.

Exit codes: 0 success; 1 verification failure; 2 argument or spec parse
failure; 3 inconclusive evaluation; 4 oscillating limit; 5 inconclusive
limit (or an aborted construction search); 6 construction premises not
met. Output is deterministic for a fixed command line and seed.

Spec mini-language (also accepts @file.json with a serialized spec):
  discounts  finite:M  geometric:G  quadratic  power:EPS
             harmonic-like  step-log  alternating[:BASE]  cosine
             patched:T1,T2,...
  rewards    constant:X  periodic:X1,X2,...  linear-runs
             exponential-runs  explicit:P1,P2,...  custom:X1,X2,...

The HORIZONLAB_GUARD environment variable bounds per-call index work
for searches without closed-form tails (default 1e8).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import corpus as _c
from . import discount as _d
from . import reward as _r
from . import theorems as _t
from . import value as _v
from ._guards import GuardExceeded
from .intervals import IntegerInterval, Interval

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_EVAL_INCONCLUSIVE = 3
EXIT_OSCILLATING = 4
EXIT_LIMIT_INCONCLUSIVE = 5
EXIT_PREMISE_FAIL = 6


class SpecParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Spec mini-language
# ---------------------------------------------------------------------------


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecParseError(f"cannot read spec file {path!r}: {exc}") from exc


def _floats(text: str, what: str) -> List[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise SpecParseError(f"bad {what} list {text!r}") from exc


def _ints(text: str, what: str) -> List[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise SpecParseError(f"bad {what} list {text!r}") from exc


def parse_discount(text: str) -> _d.DiscountSpec:
    """Parse the discount mini-language or an @file.json reference."""
    if text.startswith("@"):
        try:
            return _d.spec_from_dict(_load_json_file(text[1:]))
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecParseError(f"bad discount spec file {text[1:]!r}: {exc}") from exc
    name, _, rest = text.partition(":")
    name = name.strip().lower().replace("_", "-")
    try:
        if name == "finite":
            return _d.finite(int(rest))
        if name == "geometric":
            return _d.geometric(float(rest))
        if name == "quadratic":
            return _d.quadratic()
        if name == "power":
            return _d.power(float(rest))
        if name in ("harmonic-like", "harmonic"):
            return _d.harmonic_like()
        if name in ("step-log", "steplog"):
            return _d.step_log()
        if name == "alternating":
            return _d.alternating_zero(parse_discount(rest) if rest else None)
        if name in ("cosine", "cosine-modulated"):
            return _d.cosine_modulated()
        if name == "patched":
            return _d.build_patched(_ints(rest, "patched threshold"))
    except SpecParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad discount spec {text!r}: {exc}") from exc
    raise SpecParseError(
        f"unknown discount family {name!r}; expected finite, geometric, "
        "quadratic, power, harmonic-like, step-log, alternating, cosine, "
        "patched, or @file.json"
    )


def parse_reward(text: str) -> _r.RewardSpec:
    """Parse the reward mini-language or an @file.json reference."""
    if text.startswith("@"):
        try:
            return _r.reward_from_dict(_load_json_file(text[1:]))
        except (ValueError, KeyError, TypeError) as exc:
            raise SpecParseError(f"bad reward spec file {text[1:]!r}: {exc}") from exc
    name, _, rest = text.partition(":")
    name = name.strip().lower().replace("_", "-")
    try:
        if name == "constant":
            return _r.constant(float(rest))
        if name == "alternating":
            return _r.periodic([1.0, 0.0])
        if name == "periodic":
            return _r.periodic(_floats(rest, "periodic pattern"))
        if name == "linear-runs":
            return _r.linear_runs()
        if name == "exponential-runs":
            return _r.exponential_runs()
        if name == "explicit":
            return _r.explicit_change_points(_ints(rest, "change point"))
        if name == "custom":
            return _r.custom_table(_floats(rest, "reward table"))
    except SpecParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad reward spec {text!r}: {exc}") from exc
    raise SpecParseError(
        f"unknown reward family {name!r}; expected constant, alternating, "
        "periodic, linear-runs, exponential-runs, explicit, custom, or "
        "@file.json"
    )


def parse_schedule(text: str) -> List[int]:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind == "dyadic":
        try:
            limit = int(rest)
        except ValueError as exc:
            raise SpecParseError(f"bad schedule {text!r}") from exc
        if limit < 1:
            raise SpecParseError("dyadic schedule limit must be >= 1")
        return _v.dyadic_schedule(limit)
    if kind == "list":
        pts = _ints(rest, "schedule")
        if not pts or any(b <= a for a, b in zip(pts, pts[1:])) or pts[0] < 1:
            raise SpecParseError("schedule list must be strictly increasing, >= 1")
        return pts
    raise SpecParseError(f"schedule must be dyadic:N or list:a,b,c, got {text!r}")


# ---------------------------------------------------------------------------
# Deterministic emitters
# ---------------------------------------------------------------------------


def _fnum(x: float) -> str:
    return repr(float(x))


def _fiv(iv: Optional[Interval]) -> str:
    if iv is None:
        return "-"
    return f"[{_fnum(iv.lo)}, {_fnum(iv.hi)}]"


def _fint_iv(iv: Optional[IntegerInterval]) -> str:
    if iv is None:
        return "-"
    return str(iv.lo) if iv.lo == iv.hi else f"{iv.lo}..{iv.hi}"


def _iv_dict(iv: Optional[Interval]) -> Optional[dict]:
    return None if iv is None else {"lo": iv.lo, "hi": iv.hi}


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                  footer: Sequence[str] = ()) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    for note in footer:
        lines.append(note)
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _render_json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_ASYMPTOTIC: Dict[str, Callable[[_d.DiscountSpec], str]] = {
    "finite": lambda s: (
        f"Gamma_k = {s.params[0]}-k+1 and eh_k = ceil((m-k+1)/2) for k <= {s.params[0]}; "
        "undefined beyond"
    ),
    "geometric": lambda s: (
        f"Gamma_k = g^k/(1-g) with g={s.params[0]}; eh constant "
        f"(~ln 2/ln(1/g) = {math.log(2.0) / -math.log(s.params[0]):.4g}); "
        f"quasi-horizon constant 1/(1-g); ratio grows like (1-g)k"
    ),
    "quadratic": lambda s: "Gamma_k = 1/k exactly; eh_k = k; quasi-horizon k+1; ratio k/(k+1) -> 1",
    "power": lambda s: (
        f"gamma_k = k^-(1+eps) with eps={s.params[0]}; Gamma_k ~ k^-eps/eps; "
        "eh and quasi-horizon grow linearly; ratio -> eps"
    ),
    "harmonic_like": lambda s: (
        "gamma_k ~ 1/(k ln^2 k); Gamma_k ~ 1/ln k; eh_k ~ k^2; ratio -> 0"
    ),
    "step_log": lambda s: (
        "gamma = 4^-n on each block 2^(n-1) < k <= 2^n; the step ratio drops to "
        "1/4 at block ends while the weight share still vanishes"
    ),
    "alternating_zero": lambda s: (
        "gamma vanishes at every odd index; tails and horizons follow the "
        "even-index base weights"
    ),
    "cosine_modulated": lambda s: (
        "gamma_k = (2 + cos(pi sqrt(2k)))/k^2; Gamma_k within [1/(k+1), 3/k]"
    ),
    "patched": lambda s: (
        "harmonic-shaped segments re-anchored at geometric weights on a "
        "doubling threshold ladder"
    ),
    "custom": lambda s: "finite weight table with an attached tail model",
}


# column names of the table, CSV and JSON renderings alike
_TABLE_HEADERS = (
    "family", "k", "gamma_k", "Gamma_k", "eff_horizon", "quasi_horizon", "k*gamma/Gamma",
)


def _table_cells(dspec: _d.DiscountSpec, k: int) -> Tuple[dict, List[str]]:
    def attempt(fn):
        try:
            return fn()
        except (_d.UndefinedMetric, _d.EnclosureAmbiguous):
            return None

    gam: Optional[float] = attempt(lambda: _d.gamma(dspec, k))
    tail = attempt(lambda: _d.gamma_tail(dspec, k))
    if tail is not None and not tail.hi > 0.0:
        tail = None  # the tail is gone: downstream metrics are undefined
    eh = attempt(lambda: _d.effective_horizon(dspec, k)) if tail is not None else None
    quasi = attempt(lambda: _d.quasi_horizon(dspec, k)) if tail is not None else None
    ratio = attempt(lambda: _d.horizon_ratio(dspec, k)) if tail is not None else None
    # (JSON value, rendered cell) per column, in _TABLE_HEADERS order
    columns = [
        (dspec.family, dspec.family),
        (k, str(k)),
        (gam, "-" if gam is None else _fnum(gam)),
        (_iv_dict(tail), _fiv(tail)),
        (_iv_dict(eh), _fint_iv(eh)),
        (_iv_dict(quasi), _fiv(quasi)),
        (_iv_dict(ratio), _fiv(ratio)),
    ]
    record = {h: value for h, (value, _) in zip(_TABLE_HEADERS, columns)}
    return record, [cell for _, cell in columns]


def cmd_table(args: argparse.Namespace) -> int:
    k_list = _ints(args.k, "index")
    if not k_list or any(k < 1 for k in k_list):
        raise SpecParseError("--k indices must be >= 1")
    discounts = [parse_discount(t) for t in args.discount]
    if not discounts:
        raise SpecParseError("table needs at least one --discount")
    records, rows, footer = [], [], []
    for dspec in discounts:
        for k in k_list:
            record, cells = _table_cells(dspec, k)
            records.append(record)
            rows.append(cells)
        note = _ASYMPTOTIC[dspec.family](dspec)
        footer.append(f"{dspec.family}: {note}")
    if args.fmt == "json":
        text = _render_json({"rows": records, "footer": footer})
    elif args.fmt == "csv":
        text = _render_csv(_TABLE_HEADERS, rows)
    else:
        text = _render_table(_TABLE_HEADERS, rows, footer)
    _write_out(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    rspec = parse_reward(args.reward)
    dspec = parse_discount(args.discount[0]) if args.discount else None
    m = args.m if args.m is not None else args.u_to
    k = args.k
    v_at = args.v_at if args.v_at is not None else (k if dspec is not None else None)
    if m is None and (dspec is None or v_at is None):
        raise SpecParseError(
            "eval needs --m/--u-to (average window), --v-at with --discount, or both"
        )
    u_1m = None if m is None else _v.avg_value(rspec, m)
    u_km = None if m is None or k <= 1 else _v.avg_value_from(rspec, k, m)
    v_det = None
    inconclusive = False
    if dspec is not None and v_at is not None:
        try:
            v_det = _v.disc_value_detail(rspec, dspec, v_at, tol=args.tol, strict=True)
        except _v.InconclusiveEnclosure as exc:
            v_det = exc.detail
            inconclusive = True

    payload = {
        "U_1m": u_1m,
        "U_km": u_km,
        "k": k,
        "m": m,
        "V": None if v_det is None else {
            "at": v_at,
            "lo": v_det.interval.lo,
            "hi": v_det.interval.hi,
            "tolerance": args.tol,
            "attained": v_det.attained,
            "truncation": v_det.truncation,
            "path": v_det.path,
        },
    }
    rows = []
    if u_1m is not None:
        rows.append((f"U(1..{m})", _fnum(u_1m)))
    if u_km is not None:
        rows.append((f"U({k}..{m})", _fnum(u_km)))
    if v_det is not None:
        suffix = "" if v_det.attained else "  (best effort; tolerance not attained)"
        rows.append((f"V({v_at})", _fiv(v_det.interval) + suffix))
    if args.fmt == "json":
        text = _render_json(payload)
    elif args.fmt == "csv":
        text = _render_csv(("quantity", "value"), rows)
    else:
        text = _render_table(("quantity", "value"), rows)
    _write_out(text, args.out)
    return EXIT_EVAL_INCONCLUSIVE if inconclusive else EXIT_OK


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def cmd_limits(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.schedule)
    rspec = parse_reward(args.reward)
    dspec = parse_discount(args.discount[0]) if args.discount else None
    quantity = "V" if dspec is not None else "U"
    est = _v.limit_scan(rspec, dspec, quantity, schedule, tol=args.tol)
    if args.fmt == "json":
        text = _render_json(_v.limit_estimate_to_dict(est))
    elif args.fmt == "csv":
        # one row per requested index; the added probes stay in table/json
        header, *rows = _v.limit_estimate_csv_rows(est)
        text = _render_csv(header, [r for r, req in zip(rows, est.requested) if req])
    else:
        rows = [
            (str(i), _fnum(iv.lo), _fnum(iv.hi), tag)
            for i, iv, tag in zip(est.indices, est.values, est.tags)
        ]
        footer = [
            f"verdict: {est.verdict}",
            f"band (last quarter): {_fiv(est.band)}",
            f"liminf estimate: {_fiv(est.liminf_est)}",
            f"limsup estimate: {_fiv(est.limsup_est)}",
        ]
        if est.alpha is not None:
            footer.append(f"alpha: {_fnum(est.alpha)}  beta: {_fnum(est.beta)}")
        footer.extend(f"note: {n}" for n in est.notes)
        text = _render_table(("index", "lo", "hi", "tag"), rows, footer)
    _write_out(text, args.out)
    if est.verdict == "converged":
        return EXIT_OK
    if est.verdict == "oscillating":
        return EXIT_OSCILLATING
    return EXIT_LIMIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _prop1_certificates(dspec: _d.DiscountSpec, pts: Sequence[int]) -> List[str]:
    lines = []
    prev = 0
    for n in range(len(pts) // 2):
        k_n, m_n = pts[2 * n], pts[2 * n + 1]
        ratio = _d.horizon_ratio(dspec, m_n)
        gm = _d.gamma_tail(dspec, m_n)
        g_prev = _d.gamma_tail(dspec, prev + 1)
        gk1 = _d.gamma_tail(dspec, k_n + 1)
        gk = _d.gamma_tail(dspec, k_n)
        lines.append(
            f"n={n + 1}: k={k_n} m={m_n}; "
            f"ratio(m).lo={ratio.lo:.6g} >= n^2={n * n + 2 * n + 1}; "
            f"Gamma(m).hi={gm.hi:.6g} < (1/2)Gamma({prev + 1}).lo={0.5 * g_prev.lo:.6g}; "
            f"bracket Gamma(k+1).hi={gk1.hi:.6g} < 2Gamma(m).lo={2.0 * gm.lo:.6g} "
            f"and 2Gamma(m).hi={2.0 * gm.hi:.6g} <= Gamma(k).lo={gk.lo:.6g}"
        )
        prev = m_n
    return lines


def _prop2_certificates(dspec: _d.DiscountSpec, pts: Sequence[int]) -> List[str]:
    lines = []
    for n in range(len(pts) // 2):
        k_n, m_n = pts[2 * n], pts[2 * n + 1]
        hr = _d.horizon_ratio(dspec, k_n)
        bound = 1.0 / ((n + 1) * (n + 1))
        lines.append(
            f"n={n + 1}: k={k_n} m={m_n}=2k; "
            f"k*gamma/Gamma.hi={hr.hi:.6g} <= 1/n^2={bound:.6g}"
        )
    return lines


def cmd_construct(args: argparse.Namespace) -> int:
    if not args.discount:
        raise SpecParseError("construct needs --discount")
    dspec = parse_discount(args.discount[0])
    try:
        if args.prop == 1:
            rspec = _t.construct_prop1_reward(dspec, args.n_max)
            lines = _prop1_certificates(dspec, rspec.params[1])
        else:
            rspec = _t.construct_prop2_reward(dspec, args.n_max)
            lines = _prop2_certificates(dspec, rspec.params[1])
    except _t.PremiseFailure as exc:
        sys.stderr.write(f"construction premises not met: {exc}\n")
        return EXIT_PREMISE_FAIL
    except (_t.SearchBoundExceeded, _d.EnclosureAmbiguous, GuardExceeded) as exc:
        sys.stderr.write(f"construction aborted: {exc}\n")
        return EXIT_LIMIT_INCONCLUSIVE

    reward_doc = _r.reward_to_dict(rspec)
    pts = list(rspec.params[1])
    if args.fmt == "json":
        text = _render_json({
            "prop": args.prop,
            "points": pts,
            "certificates": lines,
            "reward": reward_doc,
        })
        _write_out(text, args.out)
    elif args.fmt == "csv":
        rows = [(n + 1, pts[2 * n], pts[2 * n + 1]) for n in range(len(pts) // 2)]
        _write_out(_render_csv(("n", "k_n", "m_n"), rows), args.out)
    else:
        for line in lines:
            sys.stdout.write(line + "\n")
        if args.out is None:
            sys.stdout.write(_render_json(reward_doc))
        else:
            _write_out(_render_json(reward_doc), args.out)
            sys.stdout.write(f"reward spec written to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _print_checks(number: int, checks: Sequence[_c.CheckResult]) -> int:
    failures = 0
    title = _c.examples()[number].title
    sys.stdout.write(f"example {number}: {title}\n")
    for c in checks:
        mark = "ok" if c.passed else "FAIL"
        sys.stdout.write(f"  [{mark:4s}] {c.name}: {c.detail}\n")
        failures += 0 if c.passed else 1
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    if args.example is None and not args.all:
        raise SpecParseError("verify needs --example N or --all")
    failures = 0
    if args.example is not None:
        failures += _print_checks(args.example, _c.golden_checks(args.example))
    else:
        for number in sorted(_c.examples()):
            failures += _print_checks(number, _c.golden_checks(number))
        sys.stdout.write("cross-checking limit claims over the full corpus\n")
        for pair in _c.all_pairs():
            for rep in _c.verify_reports(pair):
                flag = "ok" if rep.consistent else "FAIL"
                sys.stdout.write(
                    f"  [{flag:4s}] {pair.title} / {rep.theorem}: "
                    f"consistent={rep.consistent}\n"
                )
                failures += 0 if rep.consistent else 1
        sys.stdout.write(f"randomized identity suites (seed={args.seed})\n")
        idrep = _c.identity_trials(args.seed, args.trials)
        sys.stdout.write(
            f"  {idrep.trials} trials, {idrep.checks} checks, "
            f"{len(idrep.failures)} failures\n"
        )
        for msg in idrep.failures:
            sys.stdout.write(f"  [FAIL] {msg}\n")
        failures += len(idrep.failures)
    sys.stdout.write(("all checks passed\n" if failures == 0 else
                      f"{failures} check(s) failed\n"))
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizonlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_reward: bool,
                   fmt_help: Optional[str] = None) -> None:
        p.add_argument("--discount", action="append", default=[],
                       metavar="SPEC", help="discount spec (repeatable)")
        if with_reward:
            p.add_argument("--reward", metavar="SPEC", help="reward spec")
        p.add_argument("--tol", type=float, default=1e-3,
                       help="target enclosure width / scan tolerance")
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table", dest="fmt", help=fmt_help)
        p.add_argument("--out", default=None, help="write output to this path")

    p_table = sub.add_parser("table", help="horizon metrics per (discount, k)")
    add_common(p_table, with_reward=False)
    p_table.add_argument("--k", default="1,10,100,1000",
                         help="comma-separated evaluation indices")

    p_eval = sub.add_parser("eval", help="average and discounted values")
    add_common(p_eval, with_reward=True)
    p_eval.add_argument("--k", type=int, default=1, help="window start")
    p_eval.add_argument("--m", type=int, default=None, help="window end")
    p_eval.add_argument("--u-to", type=int, default=None, dest="u_to",
                        help="synonym for --m")
    p_eval.add_argument("--v-at", type=int, default=None, dest="v_at",
                        help="index for the discounted value (default --k)")

    p_lim = sub.add_parser("limits", help="limit scan along a schedule")
    add_common(p_lim, with_reward=True, fmt_help=(
        "csv: one row per requested --schedule index; table and json: every "
        "scanned point, including the added change-point and phase-offset probes. "
        "In json, schedule lists every scanned index and requested, parallel to "
        "it, is true for the indices given in --schedule"))
    p_lim.add_argument("--schedule", default="dyadic:100000",
                       help="dyadic:N or list:a,b,c; the scan adds change points "
                            "of binary rewards and, for V of a periodic reward, "
                            "phase-offset probes")

    p_con = sub.add_parser("construct", help="counterexample change points")
    add_common(p_con, with_reward=False)
    p_con.add_argument("--prop", type=int, choices=(1, 2), required=True,
                       help="1: U settles while V splits; 2: V settles while U splits")
    p_con.add_argument("--n-max", type=int, default=5, dest="n_max",
                       help="number of certified runs to emit")

    p_ver = sub.add_parser("verify", help="golden checks and identity suites")
    p_ver.add_argument("--example", type=int, choices=range(1, 7), default=None,
                       help="run one example's checks")
    p_ver.add_argument("--all", action="store_true",
                       help="all examples, the corpus sweep, and identity suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=10_000,
                       help="identity trial count for --all")
    return parser


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "table": cmd_table,
    "eval": cmd_eval,
    "limits": cmd_limits,
    "construct": cmd_construct,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)  # argparse exits with status 2 on bad flags
    try:
        return _COMMANDS[args.command](args)
    except SpecParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (ValueError, _d.UndefinedMetric) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except GuardExceeded as exc:
        sys.stderr.write(f"work guard exceeded: {exc} "
                         "(raise HORIZONLAB_GUARD to extend the search)\n")
        return EXIT_LIMIT_INCONCLUSIVE


if __name__ == "__main__":
    raise SystemExit(main())
