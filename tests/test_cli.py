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
    code, out, _ = run_main(
        ["limits", "--reward", "linear-runs", "--discount", "harmonic-like",
         "--schedule", "dyadic:4096"], capsys)
    assert code == 5


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
