"""Command-line front end: parsing, commands, file formats, exit codes."""

import json

import numpy as np
import pytest

from cbcontrol import (
    bundled_problem,
    check_nonrepetitive_sufficient,
    list_bundled,
    load_problem,
    parse_problem,
)
from cbcontrol.cli import cmd_analyze, cmd_design, cmd_simulate, cmd_sweep_h, main
from cbcontrol.errors import ProblemFormatError
from cbcontrol.problem_io import read_csv, read_inputs_csv


def test_bundled_problems_present():
    names = list_bundled()
    for expected in ("rotation_2d", "expander_2d", "four_state", "identity_2d", "drift_only"):
        assert expected in names
    for name in names:
        load_problem(bundled_problem(name))  # every bundled file parses


def test_parse_reports_json_position():
    with pytest.raises(ProblemFormatError, match=r"line \d+"):
        parse_problem('{"system": {"A": [[1, 2],')


def test_parse_reports_missing_field():
    with pytest.raises(ProblemFormatError, match="task.x0"):
        parse_problem(
            json.dumps(
                {
                    "system": {"A": [[0.5]], "B": [[1.0]]},
                    "task": {"xf": [1.0], "b": 2, "h": 2, "regime": "repetitive"},
                }
            )
        )


def test_parse_rejects_bad_shapes_and_values():
    base = {
        "system": {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]]},
        "task": {"x0": [0.0, 0.0], "xf": [1.0, 1.0], "b": 2, "h": 2,
                 "regime": "non-repetitive"},
    }
    bad_square = json.loads(json.dumps(base))
    bad_square["system"]["A"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(ProblemFormatError, match="square"):
        parse_problem(json.dumps(bad_square))

    for field, value in (("h", 1), ("h", True), ("b", True), ("b", 0)):
        bad_task = json.loads(json.dumps(base))
        bad_task["task"][field] = value
        with pytest.raises(ProblemFormatError, match=f"task.{field}"):
            parse_problem(json.dumps(bad_task))

    bad_regime = json.loads(json.dumps(base))
    bad_regime["task"]["regime"] = "mixed"
    with pytest.raises(ProblemFormatError, match="regime"):
        parse_problem(json.dumps(bad_regime))

    bad_tol = json.loads(json.dumps(base))
    bad_tol["tolerances"] = {"windup": 3}
    with pytest.raises(ProblemFormatError, match="windup"):
        parse_problem(json.dumps(bad_tol))

    for field, value in (
        ("rank_slack", -1.0), ("rank_slack", 0.5), ("rank_slack", 0.999),
        ("terminal", "tiny"), ("reach", None),
        ("max_order", 2.5), ("max_order", True), ("eig_sep", 0.0),
    ):
        bad_tol["tolerances"] = {field: value}
        with pytest.raises(ProblemFormatError, match=field):
            parse_problem(json.dumps(bad_tol))


def test_parse_tolerance_overrides():
    problem = load_problem(bundled_problem("rotation_2d"))
    assert problem.tolerances.terminal == 1e-6
    text = bundled_problem("rotation_2d").read_text()
    doc = json.loads(text)
    doc["tolerances"] = {"terminal": 1e-9, "max_order": 16}
    tweaked = parse_problem(json.dumps(doc))
    assert tweaked.tolerances.terminal == 1e-9
    assert tweaked.tolerances.max_order == 16
    # numpy integers count as integers; the stored value is unchanged
    assert tweaked.tolerances.with_overrides(max_order=np.int64(8)).max_order == 8
    # rank_slack may sit exactly at its lower bound of 1
    assert tweaked.tolerances.with_overrides(rank_slack=1.0).rank_slack == 1.0


def test_main_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", "--problem", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err

    # a negative rank slack would let PBH pass this uncontrollable pair
    slack = tmp_path / "slack.json"
    slack.write_text(json.dumps({
        "system": {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [0.0]]},
        "task": {"x0": [0.0, 0.0], "xf": [1.0, 1.0], "b": 2, "h": 2,
                 "regime": "non-repetitive"},
        "tolerances": {"rank_slack": -1.0},
    }))
    assert main(["analyze", "--problem", str(slack)]) == 2
    assert "rank_slack" in capsys.readouterr().err
    # below 1 the rank cutoff drops under the SVD's own rounding error
    doc = json.loads(slack.read_text())
    doc["tolerances"] = {"rank_slack": 0.5}
    slack.write_text(json.dumps(doc))
    assert main(["analyze", "--problem", str(slack)]) == 2
    assert "at least 1" in capsys.readouterr().err

    fixture = str(bundled_problem("rotation_2d"))
    for flags in (["--max-order", "0"], ["--tol-term", "-1"], ["--tol-cb", "nan"]):
        assert main(["analyze", "--problem", fixture, *flags]) == 2


def test_analyze_rotation_auto_selects_four(capsys):
    report = cmd_analyze(load_problem(bundled_problem("rotation_2d")))
    assert report.verdict["h"] == 4
    assert report.verdict["selected_h"] == 4
    assert report.verdict["controllable"] == "yes"
    out = capsys.readouterr().out
    assert "verdict: yes" in out
    assert "selected h: 4" in out


def test_analyze_identity_no_with_unit_eigenvalue_reason():
    report = cmd_analyze(load_problem(bundled_problem("identity_2d")))
    assert report.verdict["controllable"] == "no"
    failing = [r["name"] for r in report.verdict["reasons"] if not r["holds"]]
    assert "no eigenvalue of A at 1" in failing


def test_analyze_four_state_numeric_fallback():
    report = cmd_analyze(load_problem(bundled_problem("four_state")))
    assert report.verdict["controllable"] == "yes"
    assert report.verdict["numeric_rank"] == 4
    names = {r["name"]: r["holds"] for r in report.verdict["reasons"]}
    assert names["numeric rank fallback"] is True


def test_design_rotation_writes_expected_files(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    report = cmd_design(problem, tmp_path / "run")
    assert len(report.manifest) == 5
    assert all(isinstance(path, str) for path in report.manifest)
    header, rows = read_csv(tmp_path / "run" / "states.csv")
    assert header == ["k", "x_1", "x_2"]
    assert len(rows) == 21
    terminal = np.array(rows[-1][1:])
    assert rows[-1][0] == 20.0
    assert np.abs(terminal - np.array([1.0, -0.6])).max() <= 1e-6

    saved = json.loads((tmp_path / "run" / "report.json").read_text())
    assert saved["design"]["passed"] is True
    from pathlib import Path

    for entry in saved["manifest"]:
        assert Path(entry).exists()


def test_design_rotation_h2_b10_flag_override(tmp_path):
    exit_code = main(
        [
            "design",
            "--problem", str(bundled_problem("rotation_2d")),
            "--h", "2",
            "--b", "10",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert exit_code == 0
    _, rows = read_csv(tmp_path / "run" / "states.csv")
    assert len(rows) == 21
    assert np.abs(np.array(rows[-1][1:]) - np.array([1.0, -0.6])).max() <= 1e-6
    _, block_rows = read_csv(tmp_path / "run" / "blocks.csv")
    assert len(block_rows) == 10
    assert max(row[2] for row in block_rows) <= 1e-10


def test_design_expander_blocks_identical(tmp_path):
    problem = load_problem(bundled_problem("expander_2d"))
    cmd_design(problem, tmp_path / "run", plot=False)
    _, rows = read_csv(tmp_path / "run" / "states.csv")
    assert np.abs(np.array(rows[-1][1:]) - np.array([1.0, -0.6])).max() <= 1e-6

    inputs = read_inputs_csv(tmp_path / "run" / "inputs.csv", 2)
    blocks = inputs.reshape(10, -1)
    for p in range(1, 10):
        assert np.array_equal(blocks[0], blocks[p])
    assert not (tmp_path / "run" / "plot.gp").exists()


def test_design_drift_only_zero_inputs(tmp_path):
    problem = load_problem(bundled_problem("drift_only"))
    cmd_design(problem, tmp_path / "run")
    inputs = read_inputs_csv(tmp_path / "run" / "inputs.csv", 2)
    assert np.abs(inputs).max() == 0.0


def test_design_identity_exit_code(tmp_path):
    code = main(
        [
            "design",
            "--problem", str(bundled_problem("identity_2d")),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 4


def test_design_unreachable_exit_code(tmp_path):
    # a single two-step block only reaches a line in the plane
    code = main(
        [
            "design",
            "--problem", str(bundled_problem("rotation_2d")),
            "--h", "2",
            "--b", "1",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 3


def test_simulate_replay_bit_identical(tmp_path):
    problem_path = str(bundled_problem("rotation_2d"))
    assert main(["design", "--problem", problem_path, "--h", "2", "--b", "10",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--problem", problem_path,
                 "--inputs", str(tmp_path / "a" / "inputs.csv"),
                 "--out", str(tmp_path / "b")]) == 0
    original = (tmp_path / "a" / "states.csv").read_bytes()
    replayed = (tmp_path / "b" / "states.csv").read_bytes()
    assert original == replayed


def test_sweep_rotation_reports_h3_fallback(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    report = cmd_sweep_h(problem, 2, 5, tmp_path)
    by_h = {row["h"]: row for row in report.rows}
    assert by_h[3]["conditions"] == "undetermined"
    assert by_h[3]["numeric_rank"] == 2
    assert by_h[3]["controllable"] == "yes"
    assert by_h[2]["numeric_rank"] == 2
    assert by_h[2]["conditions"] == "yes"
    for row in report.rows:
        verdict = check_nonrepetitive_sufficient(problem.system, row["h"], problem.tolerances)
        assert row["conditions"] == verdict.conditions

    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["h", "conditions", "numeric_rank", "controllable", "energy"]
    assert [row[0] for row in rows] == [2.0, 3.0, 4.0, 5.0]
    # every h in this sweep admits the steering task
    assert all(isinstance(row[4], float) for row in rows)


def test_sweep_identity_all_rank_zero(tmp_path):
    problem = load_problem(bundled_problem("identity_2d"))
    report = cmd_sweep_h(problem, 2, 4, tmp_path)
    assert all(row["numeric_rank"] == 0 for row in report.rows)
    assert all(row["controllable"] == "no" for row in report.rows)


def test_sweep_rejects_repetitive(tmp_path):
    code = main(
        [
            "sweep-h",
            "--problem", str(bundled_problem("expander_2d")),
            "--out", str(tmp_path),
        ]
    )
    assert code == 4


def test_emitted_csvs_roundtrip_through_reader(tmp_path):
    problem = load_problem(bundled_problem("expander_2d"))
    cmd_design(problem, tmp_path / "run")
    inputs = read_inputs_csv(tmp_path / "run" / "inputs.csv", 2)
    from cbcontrol import simulate

    traj = simulate(problem.system, problem.x0, inputs)
    _, state_rows = read_csv(tmp_path / "run" / "states.csv")
    parsed = np.array([row[1:] for row in state_rows])
    assert np.array_equal(parsed, traj.states)  # exact via 17 digits


def test_plot_script_mentions_files_and_targets(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    cmd_design(problem, tmp_path / "run")
    script = (tmp_path / "run" / "plot.gp").read_text()
    assert "states.csv" in script
    assert "inputs.csv" in script
    assert "dashtype 2" in script  # targets drawn as dashed lines
    assert "-0.6" in script


def test_analyze_select_h_precondition_exit_code(tmp_path):
    doc = {
        "system": {"A": [[2.0, 0.0], [0.0, 2.0]], "B": [[1.0], [0.0]]},
        "task": {"x0": [0.0, 0.0], "xf": [1.0, 1.0], "b": 2, "h": "auto",
                 "regime": "non-repetitive"},
    }
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--problem", str(path)]) == 4


def test_tolerance_flags_flow_through(tmp_path):
    # an impossible terminal tolerance flips the verification flag only
    code = main(
        [
            "design",
            "--problem", str(bundled_problem("expander_2d")),
            "--tol-term", "1e-30",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 5
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["design"]["passed"] is False
    assert (tmp_path / "run" / "inputs.csv").exists()

    # a bounded ratio-order search skips the order-3 pair and settles on h = 2
    import dataclasses
    import warnings

    problem = load_problem(bundled_problem("rotation_2d"))
    capped = dataclasses.replace(
        problem, tolerances=problem.tolerances.with_overrides(max_order=2)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report2 = cmd_analyze(capped)
    assert report2.verdict["h"] == 2


def test_regime_flag_aliases(tmp_path):
    # nonrep alias forces the distinct-block law on a repetitive fixture
    code = main(
        [
            "design",
            "--problem", str(bundled_problem("expander_2d")),
            "--regime", "nonrep",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["design"]["regime"] == "non-repetitive"


def test_one_rollout_per_design(tmp_path, monkeypatch):
    # a design simulates its plan once, in verify_plan; states.csv reuses
    # that trajectory and the designers never simulate
    import cbcontrol.cli as cli
    import cbcontrol.design as design
    from cbcontrol import SteeringTask, build_scheme, lift

    calls = []
    original = design.simulate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(design, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting)
    problem = load_problem(bundled_problem("rotation_2d"))
    report = cmd_design(problem, tmp_path / "run", plot=False)
    assert report.design["passed"]
    assert len(calls) == 1
    _, states = read_csv(tmp_path / "run" / "states.csv")
    assert len(states) == problem.b * report.design["h"] + 1

    del calls[:]
    problem = load_problem(bundled_problem("expander_2d"))  # B = I reaches every target
    system = problem.system
    scheme = build_scheme(2, system.m)
    lifted = lift(system, scheme)
    for regime, designer in (
        ("non-repetitive", design.design_nonrepetitive),
        ("repetitive", design.design_repetitive),
    ):
        task = SteeringTask(x0=problem.x0, xf=problem.xf, b=problem.b, regime=regime)
        designer(lifted, task)
        design.oracle_stacked_ls(system, scheme, task)
    assert calls == []
