"""Golden CLI outputs: exit code, stdout and stderr of fixed commands.

tests/golden/cli.json holds the recorded output of every case below. A
refactor that must not change results has to reproduce it byte for byte.
To record it afresh after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py --capture

and review the diff of tests/golden/cli.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

import horizonlab.cli as cli

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"
CUSTOM_SPEC = "@" + str(GOLDEN_DIR / "custom_discount.json")


def _eval(reward, discount, v_at, *extra):
    return ["eval", "--reward", reward, "--discount", discount,
            "--v-at", str(v_at), "--format", "json", *extra]


# name -> (argv, HORIZONLAB_GUARD or None)
CASES = {
    "eval_linear_quadratic": (_eval("linear-runs", "quadratic", 1000), None),
    "eval_linear_power": (_eval("linear-runs", "power:0.5", 100), None),
    "eval_linear_harmonic": (_eval("linear-runs", "harmonic-like", 64), None),
    "eval_linear_steplog": (_eval("linear-runs", "step-log", 1000), None),
    "eval_linear_finite": (_eval("linear-runs", "finite:300", 10), None),
    "eval_linear_patched": (_eval("linear-runs", "patched:1", 50), None),
    "eval_linear_cosine": (_eval("linear-runs", "cosine", 100), None),
    "eval_linear_geometric": (_eval("linear-runs", "geometric:0.9", 100003), None),
    "eval_explicit4_quadratic": (_eval("explicit:1,2,55,110", "quadratic", 3), None),
    "eval_explicit4_cosine": (_eval("explicit:1,2,55,110", "cosine", 3), None),
    "eval_explicit4_geometric": (_eval("explicit:1,2,55,110", "geometric:0.5", 3), None),
    "eval_explicit4_inside_quadratic": (_eval("explicit:1,2,55,110", "quadratic", 60), None),
    "eval_explicit4_inside_cosine": (_eval("explicit:1,2,55,110", "cosine", 60), None),
    "eval_explicit4_inside_geometric": (
        _eval("explicit:1,2,55,110", "geometric:0.5", 60), None),
    "eval_explicit4_custom_file": (_eval("explicit:1,2,55,110", CUSTOM_SPEC, 2), None),
    "eval_explicit3_quadratic": (_eval("explicit:2,9,30", "quadratic", 3), None),
    "eval_explicit3_cosine": (_eval("explicit:2,9,30", "cosine", 3), None),
    "eval_explicit3_geometric": (_eval("explicit:2,9,30", "geometric:0.5", 3), None),
    "eval_linear_alternating": (_eval("linear-runs", "alternating", 10), None),
    "eval_linear_custom_file": (_eval("linear-runs", CUSTOM_SPEC, 5), None),
    "eval_linear_finite_past_support": (_eval("linear-runs", "finite:300", 400), None),
    "eval_periodic_alternating": (_eval("periodic:1,0,1", "alternating", 7), None),
    "eval_periodic_geometric": (_eval("periodic:1,0,1", "geometric:0.5", 7), None),
    "eval_cosine_guard_limited": (
        _eval("linear-runs", "cosine", 100, "--tol", "1e-6"), "100000"),
    "limits_exponential_harmonic": (
        ["limits", "--reward", "exponential-runs", "--discount", "harmonic-like",
         "--schedule", "dyadic:1024", "--format", "json"], None),
    "table_custom_file": (
        ["table", "--discount", CUSTOM_SPEC, "--k", "1,3,8,9,50", "--format", "csv"],
        None),
    # argument errors: which check fires first, and its message
    "table_bad_k_before_bad_discount": (
        ["table", "--discount", "bogus", "--k", "0"], None),
    "limits_bad_schedule_before_bad_reward": (
        ["limits", "--reward", "bogus", "--schedule", "list:3,2"], None),
    "verify_needs_selector": (["verify"], None),
}


def run_case(argv, guard):
    """(exit code, stdout, stderr) of an in-process cli.main call."""
    old = os.environ.get("HORIZONLAB_GUARD")
    if guard is not None:
        os.environ["HORIZONLAB_GUARD"] = guard
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if old is None:
            os.environ.pop("HORIZONLAB_GUARD", None)
        else:
            os.environ["HORIZONLAB_GUARD"] = old
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, monkeypatch, capsys) -> None:
    argv, guard = CASES[name]
    if guard is not None:
        monkeypatch.setenv("HORIZONLAB_GUARD", guard)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    want = golden[name]
    assert (code, captured.out, captured.err) == (want["exit"], want["stdout"], want["stderr"])


def _capture() -> None:
    record = {}
    for name in sorted(CASES):
        code, out, err = run_case(*CASES[name])
        record[name] = {"exit": code, "stdout": out, "stderr": err}
    GOLDEN_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    _capture()
