"""Command-line surface: parsing, exit codes, formats, determinism.

Exit code contract: 0 success, 1 verification failure, 2 argument or
spec parse error, 3 evaluation tolerance unattainable, 4 scan verdict
oscillating, 5 scan inconclusive or search aborted, 6 construction
premise failure. Output must be byte-identical across repeat runs.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time

import pytest

import horizonlab.cli as cli
import horizonlab.corpus as corpus
import horizonlab.discount as d
import horizonlab as h


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table ----------------------------------------------------------------


def test_table_csv_matches_closed_forms(capsys) -> None:
    code, out, _ = run_main(
        ["table", "--discount", "quadratic", "--discount", "geometric:0.5",
         "--k", "1,10", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "k", "gamma_k", "Gamma_k", "eff_horizon",
                       "quasi_horizon", "k*gamma/Gamma"]
    body = {(r[0], int(r[1])): r for r in rows[1:]}
    assert float(body[("quadratic", 10)][2]) == pytest.approx(1 / 110)
    assert body[("quadratic", 10)][4] == "10"
    assert float(body[("geometric", 10)][2]) == 0.5**10
    assert body[("geometric", 10)][4] == "1"


def test_table_json_has_rows_and_footer(capsys) -> None:
    code, out, _ = run_main(
        ["table", "--discount", "finite:100", "--k", "1,1000",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "footer"}
    k1, k1000 = payload["rows"]
    assert k1000["eff_horizon"] is None  # past the horizon: undefined
    assert k1["Gamma_k"]["lo"] <= 100.0 <= k1["Gamma_k"]["hi"]
    _, csv_out, _ = run_main(
        ["table", "--discount", "finite:100", "--k", "1,1000",
         "--format", "csv"], capsys)
    header = next(csv.reader(io.StringIO(csv_out)))
    assert [list(row) for row in payload["rows"]] == [header, header]


def test_table_renders_dashes_for_undefined_cells(capsys) -> None:
    code, out, _ = run_main(
        ["table", "--discount", "alternating", "--k", "3"], capsys)
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("alternating"))
    assert " - " in row


# -- eval -----------------------------------------------------------------


def test_eval_discounted_point_value(capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", "alternating", "--discount", "geometric:0.5",
         "--v-at", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["V"]["lo"] <= 2.0 / 3.0 <= payload["V"]["hi"]
    assert payload["V"]["attained"] is True
    assert payload["U_1m"] is None


@pytest.mark.parametrize("k, value", [
    (10**22, 4.0 / 7.0),  # r_k = 1: (1 - g) / (1 - g^3)
    (2**63 - 2, 2.0 / 7.0),  # r_k = 0, r_{k+1} = 1
    (2**63, 1.0 / 7.0),  # r_k = r_{k+1} = 0, r_{k+2} = 1
])
def test_eval_v_at_an_index_past_int64(k, value, capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", "periodic:1,0,0", "--discount", "geometric:0.5",
         "--v-at", str(k), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["V"]["at"] == k
    assert payload["V"]["lo"] <= value <= payload["V"]["hi"]


# Block-summed discounts past the work guard: nothing is summed there, so
# V is [0, 1] from the analytic tail bounds, not attained (exit 3); a base
# tail that underflows to zero leaves V undefined (exit 2). Before, the
# block tables grew linearly up to k (2.7 s at 8e7 under guard 1000), and
# past 2^63 an int64 cast raised OverflowError.
@pytest.mark.parametrize("discount, code", [
    ("cosine", 3), ("alternating", 3), ("alternating:geometric:0.5", 2),
])
@pytest.mark.parametrize("k, guard", [
    (80_000_000, "1000"), (2**63 - 2, None), (2**63, None), (10**22, None), (2**200, None),
])
def test_eval_v_at_past_the_guard_answers_without_summing(
        discount, code, k, guard, capsys, monkeypatch) -> None:
    if guard is not None:
        monkeypatch.setenv("HORIZONLAB_GUARD", guard)
    start = time.perf_counter()
    got, out, err = run_main(
        ["eval", "--reward", "linear-runs", "--discount", discount,
         "--v-at", str(k), "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert got == code and "Traceback" not in err
    if code == 3:
        payload = json.loads(out)["V"]
        assert (payload["lo"], payload["hi"], payload["attained"]) == (0.0, 1.0, False)
    else:
        # an index of 20 digits or more reads as a magnitude and a digit count
        at = {10**22: "1.00e22, 23 digits", 2**200: "1.61e60, 61 digits"}.get(k, str(k))
        assert err == f"error: tail enclosure not positive at k={at}\n"


# A guard below k stops the sum before it starts: truncation is k - 1
# ("nothing summed"), on the blocks path (cosine) and the dense path
# (alternating) alike, never the guard index itself.
@pytest.mark.parametrize("discount, k, guard", [
    ("cosine", 10**22, None), ("cosine", 80_000_000, "1000"), ("alternating", 10**22, None),
])
def test_eval_guard_stop_before_k_reports_k_minus_one(discount, k, guard, capsys, monkeypatch) -> None:
    if guard is not None:
        monkeypatch.setenv("HORIZONLAB_GUARD", guard)
    code, out, _ = run_main(
        ["eval", "--reward", "linear-runs", "--discount", discount,
         "--v-at", str(k), "--format", "json"], capsys)
    payload = json.loads(out)["V"]
    assert code == 3 and payload["attained"] is False
    assert payload["truncation"] == k - 1


# Periodic rewards under the non-monotone discounts stop their sums by
# summation by parts: cosine through its variation bound, alternating
# through its even-index weights (parent truncations 36,082,564 and
# 19,990,015)
@pytest.mark.parametrize("reward, discount, k, most", [
    ("periodic:1,0", "cosine", 2417, 200_000),
    ("periodic:1,0,1", "alternating", 1000, 10_000),
])
def test_eval_periodic_nonmonotone_truncation_is_short(reward, discount, k, most, capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", reward, "--discount", discount, "--v-at", str(k),
         "--tol", "1e-4", "--format", "json"], capsys)
    payload = json.loads(out)["V"]
    assert code == 0 and payload["attained"] is True
    assert k <= payload["truncation"] <= most
    assert payload["hi"] - payload["lo"] <= 1e-4


@pytest.mark.parametrize("digits, exit_code", [(155, 0), (300, 0), (400, 2)])
def test_eval_quadratic_past_the_float_range(digits, exit_code, capsys) -> None:
    # k (k+1) no longer converts to float from about 1.34e154; Gamma_k = 1/k
    # underflows from about 2^1074, where V is undefined
    code, out, err = run_main(
        ["eval", "--reward", "periodic:1,0,1", "--discount", "quadratic",
         "--v-at", "1" + "0" * digits, "--format", "json"], capsys)
    assert code == exit_code
    if exit_code:
        assert err.startswith("error: tail enclosure not positive")
    else:
        payload = json.loads(out)["V"]
        assert payload["attained"] and payload["lo"] <= 2 / 3 <= payload["hi"]


def test_eval_average_only(capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", "constant:0.7", "--u-to", "100",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["U_1m"] == 0.7
    assert payload["V"] is None


def test_eval_with_tolerance_flag(capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", "linear-runs", "--discount", "quadratic",
         "--v-at", "10000", "--tol", "1e-4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert 0.47 <= payload["V"]["lo"] <= payload["V"]["hi"] <= 0.53
    assert payload["V"]["hi"] - payload["V"]["lo"] <= 2e-4


def test_eval_unattainable_tolerance_exits_3_with_best_effort(capsys) -> None:
    code, out, _ = run_main(
        ["eval", "--reward", "linear-runs", "--discount", "cosine",
         "--v-at", "3", "--tol", "1e-13", "--format", "json"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["V"]["attained"] is False
    assert payload["V"]["hi"] - payload["V"]["lo"] > 1e-13


def test_eval_requires_something_to_compute(capsys) -> None:
    code, _, err = run_main(["eval", "--reward", "constant:0.5"], capsys)
    assert code == 2
    assert err


# -- limits -----------------------------------------------------------------


def test_limits_converged_exits_zero(capsys) -> None:
    code, out, _ = run_main(
        ["limits", "--reward", "constant:0.25", "--schedule", "dyadic:1000",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "U"
    assert payload["verdict"] == "converged"
    assert payload["alpha"] == pytest.approx(0.25)


def test_limits_of_linear_runs_at_2_to_the_100_converge(capsys) -> None:
    # the scan's run picks are closed-form: walking the 8e14 runs up to
    # 2^100 one by one never ended. At dyadic:100000 the same pair still
    # reads oscillating (ROADMAP item 6)
    start = time.perf_counter()
    code, out, _ = run_main(
        ["limits", "--reward", "linear-runs", "--discount", "quadratic",
         "--schedule", f"dyadic:{2**100}", "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "converged"
    assert abs(payload["alpha"] - 0.5) < 1e-9 and abs(payload["beta"] - 0.5) < 1e-9


def test_limits_oscillating_exits_4(capsys) -> None:
    code, out, _ = run_main(
        ["limits", "--reward", "alternating", "--discount", "geometric:0.5",
         "--schedule", "dyadic:10000", "--format", "json"], capsys)
    assert code == 4
    payload = json.loads(out)
    assert payload["quantity"] == "V"
    assert payload["verdict"] == "oscillating"
    assert abs(payload["alpha"] - 1 / 3) < 1e-2
    assert abs(payload["beta"] - 2 / 3) < 1e-2


def test_limits_inconclusive_exits_5(capsys) -> None:
    # Linear runs under power:0.1 at this scale: V at run starts and at gap
    # starts stays apart by less than the tolerance, yet the late values
    # spread over more than it. The enclosures are far narrower than either
    # figure, so the scan is undecided by the values, not by their widths.
    code, out, _ = run_main(
        ["limits", "--reward", "linear-runs", "--discount", "power:0.1",
         "--schedule", "dyadic:4096", "--format", "json"], capsys)
    assert code == 5
    payload = json.loads(out)
    assert payload["verdict"] == "inconclusive"
    late = payload["values"][-len(payload["values"]) // 4:]
    assert max(hi - lo for lo, hi in late) < payload["tolerance"] / 4


def test_limits_csv_has_one_row_per_index(capsys) -> None:
    code, out, _ = run_main(
        ["limits", "--reward", "linear-runs", "--schedule", "list:1,10,100",
         "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "index"
    assert [r[0] for r in rows[1:]] == ["1", "10", "100"]
    # 10 is also a change point: its row stays, with its subsequence tag
    assert rows[2][3] == "lo"
    # the phase-offset probes m+1, m+2 of a periodic V scan get no row
    code, out, _ = run_main(
        ["limits", "--reward", "periodic:1,0,0", "--discount", "geometric:0.5",
         "--schedule", "list:4,8", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["4", "8"]
    # the JSON lists every scanned point and flags the requested ones
    code, out, _ = run_main(
        ["limits", "--reward", "periodic:1,0,0", "--discount", "geometric:0.5",
         "--schedule", "list:4,8", "--format", "json"], capsys)
    payload = json.loads(out)
    assert len(payload["requested"]) == len(payload["schedule"]) > 2
    assert [m for m, r in zip(payload["schedule"], payload["requested"]) if r] == [4, 8]


# -- construct ---------------------------------------------------------------


def test_construct_first_proposition_points(capsys) -> None:
    code, out, _ = run_main(
        ["construct", "--prop", "1", "--discount", "geometric:0.5",
         "--n-max", "4", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k_n", "m_n"]
    assert [tuple(map(int, r)) for r in rows[1:]] == [
        (1, 2, 3), (2, 7, 8), (3, 17, 18), (4, 31, 32)]


def test_construct_json_round_trips_through_eval(tmp_path, capsys) -> None:
    out_path = tmp_path / "reward.json"
    code, out, _ = run_main(
        ["construct", "--prop", "2", "--discount", "harmonic-like",
         "--n-max", "2", "--format", "json", "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["prop"] == 2
    assert payload["points"] == [1, 2, 55, 110]
    assert payload["certificates"]
    reward_path = tmp_path / "spec.json"
    reward_path.write_text(json.dumps(payload["reward"]))
    code2, out2, _ = run_main(
        ["eval", "--reward", f"@{reward_path}", "--u-to", "109",
         "--format", "json"], capsys)
    assert code2 == 0
    # Ones on [1,2) and [55,110): 1 + 55 = 56 of the first 109 indices.
    assert json.loads(out2)["U_1m"] == pytest.approx(56 / 109)


def test_construct_premise_failure_exits_6(capsys) -> None:
    code, _, err = run_main(
        ["construct", "--prop", "1", "--discount", "quadratic"], capsys)
    assert code == 6
    assert "stays bounded" in err


def test_construct_guard_exhaustion_exits_5_with_hint(capsys) -> None:
    code, _, err = run_main(
        ["construct", "--prop", "1", "--discount", "patched:4,9"], capsys)
    assert code == 5
    assert "HORIZONLAB_GUARD" in err


# -- verify -------------------------------------------------------------------


def test_verify_single_example_passes(capsys) -> None:
    code, out, _ = run_main(["verify", "--example", "4"], capsys)
    assert code == 0
    assert "[ok  ]" in out
    assert "FAIL" not in out


def test_verify_maps_failures_to_exit_1(monkeypatch, capsys) -> None:
    monkeypatch.setattr(
        corpus, "golden_checks",
        lambda number: [corpus.CheckResult("forced", False, "injected")])
    code, out, _ = run_main(["verify", "--example", "1"], capsys)
    assert code == 1
    assert "FAIL" in out


# -- parsing and files ---------------------------------------------------------


def test_unknown_family_exits_2(capsys) -> None:
    code, _, err = run_main(
        ["eval", "--reward", "constant:0.5", "--discount", "bogus:1",
         "--v-at", "1"], capsys)
    assert code == 2
    assert "bogus" in err


def test_discount_spec_file_round_trip(tmp_path, capsys) -> None:
    spec_path = tmp_path / "disc.json"
    spec_path.write_text(json.dumps(d.spec_to_dict(h.geometric(0.5))))
    code, out, _ = run_main(
        ["eval", "--reward", "alternating", "--discount", f"@{spec_path}",
         "--v-at", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["V"]["lo"] <= 2 / 3 <= payload["V"]["hi"]


@pytest.mark.parametrize("kind, payload", [
    ("reward", {"family": "binary_runs", "generator": "explicit", "change_points": "19"}),
    ("reward", {"family": "periodic", "pattern": "10"}),
    ("reward", {"family": "custom", "table": "01"}),
    ("discount", {"family": "custom", "params": {"table": "12", "tail": None}}),
], ids=["change_points", "pattern", "reward_table", "discount_table"])
def test_spec_file_string_in_place_of_list_exits_2(kind, payload, tmp_path, capsys) -> None:
    # a string is not read one character at a time as if it were a list
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    if kind == "reward":
        argv = ["eval", "--reward", f"@{spec_path}", "--m", "6"]
    else:
        argv = ["eval", "--reward", "constant:0.5", "--discount", f"@{spec_path}",
                "--v-at", "1"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert f"bad {kind} spec file" in err and "must be a list, got str" in err


@pytest.mark.parametrize("kind, payload, entry", [
    ("reward", {"family": "binary_runs", "generator": "explicit", "change_points": [1.5, 3.9]},
     "change point 1"),
    ("discount", {"family": "finite", "params": {"m": 2.5}}, "finite horizon m"),
], ids=["change_points", "finite_m"])
def test_spec_file_fractional_index_exits_2(kind, payload, entry, tmp_path, capsys) -> None:
    # 1.5 is not truncated to 1: the entry is named and the spec refused
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    if kind == "reward":
        argv = ["eval", "--reward", f"@{spec_path}", "--m", "4"]
    else:
        argv = ["eval", "--reward", "constant:0.5", "--discount", f"@{spec_path}",
                "--v-at", "1"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert f"bad {kind} spec file" in err and f"{entry} must be an integer" in err


@pytest.mark.parametrize("option, text, family, stray", [
    ("--discount", "cosine:9", "cosine", "'9'"),
    ("--discount", "quadratic:junk", "quadratic", "'junk'"),
    ("--discount", "steplog:2", "steplog", "'2'"),
    ("--discount", "alternating:harmonic:1", "harmonic", "'1'"),
    ("--reward", "linear-runs:7", "linear-runs", "'7'"),
    ("--reward", "exponential-runs:1", "exponential-runs", "'1'"),
    ("--reward", "alternating:0.3", "alternating", "'0.3'"),
])
def test_stray_mini_language_argument_exits_2(option, text, family, stray, capsys) -> None:
    # a family without a parameter refuses an argument instead of dropping it
    argv = ["eval", "--reward", "constant:0.5", "--discount", text, "--v-at", "1"]
    if option == "--reward":
        argv = ["eval", "--reward", text, "--m", "3"]
    code, _, err = run_main(argv, capsys)
    assert code == 2
    assert f"{family} takes no argument, got {stray}" in err


@pytest.mark.parametrize("kind, payload, family, stray", [
    ("discount", {"family": "quadratic", "params": {"x": 1}}, "quadratic", "x"),
    ("discount", {"family": "geometric", "params": {"g": 0.5, "m": 3}}, "geometric", "m"),
    ("discount", {"family": "custom", "params": {"table": [0.5], "model": None}}, "custom",
     "model"),
    ("discount", {"family": "alternating_zero", "params": {
        "base": {"family": "power", "params": {"eps": 1.0, "g": 0.5}}}}, "power", "g"),
    ("reward", {"family": "constant", "alpha": 0.3, "beta": 0.1}, "constant", "beta"),
    ("reward", {"family": "binary_runs", "generator": "linear", "change_points": [1, 2]},
     "binary_runs", "change_points"),
    ("reward", {"family": "periodic", "pattern": [1, 0], "scale": 2.0}, "periodic", "scale"),
], ids=["quadratic", "geometric", "custom", "alternating_base", "constant", "linear_runs",
        "periodic"])
def test_spec_file_stray_key_exits_2(kind, payload, family, stray, tmp_path, capsys) -> None:
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(payload))
    argv = ["eval", "--reward", f"@{spec_path}", "--m", "3"]
    if kind == "discount":
        argv = ["eval", "--reward", "constant:0.5", "--discount", f"@{spec_path}",
                "--v-at", "1"]
    code, _, err = run_main(argv, capsys)
    assert code == 2
    assert f"family {family!r} takes no" in err and repr(stray) in err


def test_alternating_reward_is_period_two_alias(capsys) -> None:
    code_a, out_a, _ = run_main(
        ["eval", "--reward", "alternating", "--u-to", "7",
         "--format", "json"], capsys)
    code_b, out_b, _ = run_main(
        ["eval", "--reward", "periodic:1,0", "--u-to", "7",
         "--format", "json"], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_output_file_matches_stdout_format(tmp_path, capsys) -> None:
    out_path = tmp_path / "table.csv"
    code, _, _ = run_main(
        ["table", "--discount", "step-log", "--k", "1,17",
         "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows[0][0] == "family"
    assert len(rows) == 3


def test_low_guard_reaches_commands_not_import(monkeypatch) -> None:
    # the worked examples are built on first use, so a guard too low for
    # example 6's patched discount only stops the commands that need it
    monkeypatch.setenv("HORIZONLAB_GUARD", "5000")
    base = [sys.executable, "-m", "horizonlab.cli"]
    table = subprocess.run(base + ["table", "--discount", "cosine", "--k", "4000"],
                           capture_output=True, text=True)
    assert table.returncode == 0
    assert "Traceback" not in table.stderr and table.stdout.startswith("family")
    verify = subprocess.run(base + ["verify", "--example", "5"],
                            capture_output=True, text=True)
    assert verify.returncode == 5
    assert "Traceback" not in verify.stderr
    assert verify.stderr.startswith("work guard exceeded:")


def test_repeat_runs_are_byte_identical() -> None:
    argv = [sys.executable, "-m", "horizonlab.cli", "table",
            "--discount", "step-log", "--discount", "power:1.0",
            "--discount", "cosine", "--discount", "alternating",
            "--k", "1,2,16,17,100"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


@pytest.mark.parametrize("kind, term", [("reward", "@{}"), ("discount", "@{}"),
                                        ("discount", "alternating:@{}")],
                         ids=["reward", "discount", "nested"])
def test_missing_spec_file_is_named_once(kind, term, tmp_path, capsys) -> None:
    missing = tmp_path / "missing.json"
    spec = term.format(missing)
    if kind == "reward":
        argv = ["eval", "--reward", spec, "--m", "4"]
    else:
        argv = ["eval", "--reward", "constant:0.5", "--discount", spec, "--v-at", "1"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bad {kind} spec file {str(missing)!r}: [Errno 2] No such file or directory\n"


@pytest.mark.parametrize("kind, term", [("reward", "@{}"), ("discount", "@{}"),
                                        ("discount", "alternating:@{}")],
                         ids=["reward", "discount", "nested"])
def test_spec_file_that_is_not_json_is_named_once(kind, term, tmp_path, capsys) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    spec = term.format(bad)
    if kind == "reward":
        argv = ["eval", "--reward", spec, "--m", "4"]
    else:
        argv = ["eval", "--reward", "constant:0.5", "--discount", spec, "--v-at", "1"]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: bad {kind} spec file {str(bad)!r}: Expecting property name "
                   "enclosed in double quotes: line 2 column 1 (char 2)\n")
