"""Golden CLI outputs: exit code, stdout and stderr of fixed commands.

tests/golden/cli.json holds the recorded output of every case below. A
refactor that must not change results has to reproduce it byte for byte.
Every case runs from tests/golden, so the spec files under specs/ are
named by relative paths, as the error messages print them.
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
EXPLICIT_REWARD = "@" + str(GOLDEN_DIR / "explicit_reward.json")
# 60 rewards ((37 i) mod 101) / 100, rounded to two places
CUSTOM_60 = "custom:" + ",".join(str(round(((37 * i) % 101) / 100, 2)) for i in range(1, 61))


def _eval(reward, discount, v_at, *extra):
    return ["eval", "--reward", reward, "--discount", discount,
            "--v-at", str(v_at), "--format", "json", *extra]


def _window(reward, k, m, *extra):
    return ["eval", "--reward", reward, "--k", str(k), "--m", str(m),
            "--format", "json", *extra]


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
    # U windows and V of every reward family
    "window_constant_quadratic": (
        _window("constant:0.3", 3, 40, "--discount", "quadratic", "--v-at", "7"), None),
    "window_periodic": (_window("periodic:1,0,0", 3, 1000), None),
    "window_explicit3": (_window("explicit:2,9,30", 3, 40), None),
    "window_explicit4": (_window("explicit:1,2,55,110", 50, 200), None),
    "window_exponential_quadratic": (
        _window("exponential-runs", 17, 5000, "--discount", "quadratic", "--v-at", "64"),
        None),
    "window_linear": (_window("linear-runs", 1000, 123456), None),
    "window_custom60_geometric": (
        _window(CUSTOM_60, 5, 60, "--discount", "geometric:0.25", "--v-at", "3"), None),
    "window_explicit_file_quadratic": (
        _window(EXPLICIT_REWARD, 2, 30, "--discount", "quadratic", "--v-at", "4"), None),
    "eval_linear_alternating_long": (_eval("linear-runs", "alternating", 5000), None),
    "limits_periodic_phase_probes": (
        ["limits", "--reward", "periodic:1,0,0", "--discount", "geometric:0.5",
         "--schedule", "list:4,8"], None),
    "limits_exponential_u_csv": (
        ["limits", "--reward", "exponential-runs", "--schedule", "dyadic:65536",
         "--format", "csv"], None),
    "construct_prop1_geometric": (
        ["construct", "--discount", "geometric:0.5", "--prop", "1", "--n-max", "3",
         "--format", "json"], None),
    # custom reward tables define nothing past their end
    "eval_custom_u_past_table": (["eval", "--reward", "custom:0.5,0.5", "--m", "3"], None),
    "eval_custom_v_past_table": (
        ["eval", "--reward", "custom:0.2,0.9,0.4", "--discount", "geometric:0.5",
         "--v-at", "1"], None),
    # argument errors: which check fires first, and its message
    "table_bad_k_before_bad_discount": (
        ["table", "--discount", "bogus", "--k", "0"], None),
    "limits_bad_schedule_before_bad_reward": (
        ["limits", "--reward", "bogus", "--schedule", "list:3,2"], None),
    "verify_needs_selector": (["verify"], None),
}

# the mini-language names and aliases of every discount family, in text
# format, the one with footer notes
TABLE_NAMES = (
    "finite:300", "geometric:0.9", "quadratic", "power:0.5", "harmonic-like", "harmonic",
    "Harmonic_Like", "step-log", "steplog", "alternating", "alternating:geometric:0.5",
    "alternating:@specs/geometric.json", "cosine", "cosine-modulated", "patched:1,2",
    "patched:",
)
# discount spec files, good and bad, each in a table
DISCOUNT_FILES = (
    "finite", "finite_float_m", "geometric", "geometric_string_g", "quadratic_scaled",
    "quadratic_no_params", "power", "harmonic_like", "step_log", "alternating_zero",
    "cosine_modulated", "patched", "custom_geometric_tail", "custom_no_tail",
    "bad_unknown_family", "bad_no_family", "bad_finite_no_m", "bad_finite_fractional",
    "bad_geometric_range", "bad_geometric_text", "bad_power_negative",
    "bad_alternating_nested", "bad_alternating_base", "bad_patched_open", "bad_custom_tail",
    "bad_custom_negative", "bad_scale", "bad_not_json", "missing",
)
# reward spec files, good and bad, each in an eval
REWARD_FILES = (
    "reward_constant", "reward_periodic", "reward_custom", "reward_linear",
    "reward_exponential", "reward_explicit", "bad_reward_unknown_family",
    "bad_reward_generator", "bad_reward_no_alpha", "bad_reward_constant_range",
    "bad_reward_periodic_empty", "bad_reward_explicit_order",
)
# unknown families and bad arguments in the mini-language
BAD_DISCOUNTS = (
    "bogus:1", "custom:1,2", "finite:abc", "finite", "finite:0", "finite:2.5",
    "geometric:1.5", "geometric:abc", "geometric", "power:-1", "power:inf", "patched:a",
    "patched:0", "patched:100", "alternating:bogus", "alternating:alternating",
    "alternating:geometric:2", "alternating:patched:a", "alternating:@specs/missing.json",
)
BAD_REWARDS = (
    "bogus", "constant:2", "constant:x", "constant", "periodic:a,b", "periodic:",
    "periodic:2", "explicit:1", "explicit:3,2", "explicit:1.5,3", "custom:", "custom:a",
    "custom:1.5",
)
for _name in TABLE_NAMES:
    CASES[f"table_name_{_name}"] = (
        ["table", "--discount", _name, "--k", "1,10,100"], None)
CASES["table_custom_file_text"] = (["table", "--discount", CUSTOM_SPEC, "--k", "1,9"], None)
for _name in DISCOUNT_FILES:
    CASES[f"table_file_{_name}"] = (
        ["table", "--discount", f"@specs/{_name}.json", "--k", "1,2"], None)
for _name in REWARD_FILES:
    CASES[f"eval_file_{_name}"] = (_window(f"@specs/{_name}.json", 2, 4), None)
for _name in BAD_DISCOUNTS:
    CASES[f"discount_error_{_name}"] = (["table", "--discount", _name, "--k", "1"], None)
for _name in BAD_REWARDS:
    CASES[f"reward_error_{_name}"] = (["eval", "--reward", _name, "--m", "3"], None)


def run_case(argv, guard):
    """(exit code, stdout, stderr) of an in-process cli.main call."""
    old = os.environ.get("HORIZONLAB_GUARD")
    if guard is not None:
        os.environ["HORIZONLAB_GUARD"] = guard
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(GOLDEN_DIR)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
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
    monkeypatch.chdir(GOLDEN_DIR)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    want = golden[name]
    assert (code, captured.out, captured.err) == (want["exit"], want["stdout"], want["stderr"])


# command lines that argparse answers itself: every --help, bad flags,
# bad choices and types, a missing required flag, leftover arguments, no
# command and an unknown one
_PARSER_EXITS = [
    ["--help"], ["-h"], [], ["bogus"], ["--bogus"], ["TABLE"], ["table", "--bogus"],
    ["table", "extra"], ["table", "--help"], ["eval", "-h"], ["limits", "--help"],
    ["construct", "--help"], ["verify", "--help"], ["construct"], ["construct", "--prop", "3"],
    ["table", "--format", "xml"], ["eval", "--k", "abc"], ["eval", "--v-at", "1.5"],
    ["verify", "--example", "9"], ["limits", "--tol"], ["verify", "--all", "--seed", "x"],
    ["table", "--k", "5", "--", "x"],
]


def test_back_to_back_calls_print_the_golden_bytes(golden, monkeypatch, capsys) -> None:
    # cli.main builds the parser of the named command alone; on the golden
    # cases and on every command line that argparse answers itself it prints
    # the bytes of the full parser, built afresh, call after call
    monkeypatch.chdir(GOLDEN_DIR)

    def exits(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    for _ in range(2):
        for name in ("table_custom_file", "limits_exponential_harmonic"):
            argv, _guard = CASES[name]
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            want = golden[name]
            assert (code, captured.out, captured.err) == (want["exit"], want["stdout"], want["stderr"])
        for argv in _PARSER_EXITS:
            fresh = exits(cli._build_parser().parse_args, argv)
            assert exits(cli.main, argv) == fresh and fresh[0] in (0, 2), argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_parsers_read_what_the_full_parser_reads(name) -> None:
    argv = list(CASES[name][0])
    handler, args = cli._parse(argv)
    full = cli._build_parser().parse_args(argv)
    assert vars(full) == {**vars(args), "command": argv[0]}
    assert handler is cli._COMMANDS[full.command][0]


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
