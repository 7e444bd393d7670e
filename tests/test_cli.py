"""Command-line front end: parsing, commands, file formats, exit codes."""

import argparse
import csv
import dataclasses
import importlib.util
import json
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cbcontrol import (
    SteeringTask,
    build_scheme,
    bundled_problem,
    check_nonrepetitive_sufficient,
    design_nonrepetitive,
    design_repetitive,
    lift,
    load_problem,
    parse_problem,
    problem_io,
    reachability_matrix,
    verify_plan,
)
from cbcontrol.bundled import list_bundled
from cbcontrol.cli import cmd_analyze, cmd_design, cmd_sweep_h, main
from cbcontrol.design import _balanced
from cbcontrol.errors import ProblemFormatError
from cbcontrol.lifting import krylov
from cbcontrol.problem_io import read_inputs_csv, write_csv, write_text
from cbcontrol.tolerances import Tolerances

from helpers import floored_rank, read_csv, rotation_system

_MATRIX_SPEC = importlib.util.spec_from_file_location(
    "cli_matrix", Path(__file__).resolve().parent.parent / "tools" / "cli_matrix.py")
cli_matrix = importlib.util.module_from_spec(_MATRIX_SPEC)
_MATRIX_SPEC.loader.exec_module(cli_matrix)

# the thresholds, the ratio-order search bound and the charge-balance bound:
# constants, not Tolerances fields, at their values
RETIRED_TOLERANCE_KEYS = (
    ("reach", 1e-8), ("rank_slack", 100.0), ("eig_sep", 1e-8),
    ("unit_modulus", 1e-9), ("root_of_unity", 1e-8), ("unit_eigenvalue", 1e-8),
    ("max_order", 64), ("charge_balance", 1e-9),
)


def test_bundled_problems_present():
    names = list_bundled()
    for expected in ("rotation_2d", "expander_2d", "four_state", "identity_2d", "drift_only"):
        assert expected in names
    for name in names:
        load_problem(bundled_problem(name))  # every bundled file parses
    with pytest.raises(FileNotFoundError, match="no bundled problem named 'nope.json'.*rotation_2d"):
        bundled_problem("nope")


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


def test_parse_rejects_bad_shapes_and_values(tmp_path, capsys):
    base = {
        "system": {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]]},
        "task": {"x0": [0.0, 0.0], "xf": [1.0, 1.0], "b": 2, "h": 2,
                 "regime": "non-repetitive"},
    }
    bad_square = json.loads(json.dumps(base))
    bad_square["system"]["A"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(ProblemFormatError, match="square"):
        parse_problem(json.dumps(bad_square))

    with pytest.raises(ProblemFormatError, match="top level must be an object"):
        parse_problem(json.dumps([base]))
    for value, wording in (("identity", "'system.A' is not a numeric matrix"),
                           ([0.5, 0.0], "'system.A' must be a list of rows")):
        bad_matrix = json.loads(json.dumps(base))
        bad_matrix["system"]["A"] = value
        with pytest.raises(ProblemFormatError, match=wording):
            parse_problem(json.dumps(bad_matrix))
    # json reads an integer of any size: one past float64's range is refused, naming its field
    for section, field in (("system", "A"), ("system", "B"), ("task", "x0"), ("task", "xf")):
        huge = json.loads(json.dumps(base))
        entries = huge[section][field]
        (entries[0] if section == "system" else entries)[0] = 10**400
        with pytest.raises(ProblemFormatError, match=f"'{section}.{field}' exceeds float64's range"):
            parse_problem(json.dumps(huge))
    # an array or missing-field error starts with the file's path, as every other does
    for section, field, value, wording in (
            ("system", "A", "identity", "field 'system.A' is not a numeric matrix"),
            ("task", "xf", [[1.0], [1.0]], "field 'task.xf' must be a flat list of numbers"),
            ("system", "A", [[10**400]], "field 'system.A' exceeds float64's range"),
            ("task", "b", None, "missing field 'task.b'")):
        doc = json.loads(json.dumps(base))
        doc[section][field] = value
        if value is None:
            del doc[section][field]
        with pytest.raises(ProblemFormatError, match=f"^bad.json: {wording}$"):
            parse_problem(json.dumps(doc), source="bad.json")
    # numpy would convert json's strings and booleans: only numbers are entries
    for section, field, value in (("system", "A", [["0.5", 0.0], [0.0, 0.5]]),
                                  ("system", "A", [[0.5, True], [0.0, 0.5]]),
                                  ("system", "B", [[1], ["1e0"]]), ("task", "x0", [False, 0]),
                                  ("task", "xf", ["1", 0.5])):
        kind = "matrix" if section == "system" else "vector"
        doc = json.loads(json.dumps(base))
        doc[section][field] = value
        with pytest.raises(ProblemFormatError,
                           match=f"^bad.json: field '{section}.{field}' is not a numeric {kind}$"):
            parse_problem(json.dumps(doc), source="bad.json")
    mixed = json.loads(json.dumps(base))
    mixed["system"] = {"A": [["0.5", True], [0, "-0.3"]], "B": [[1], ["1e0"]]}
    mixed["task"].update(x0=[False, 0], xf=["1", 0.5])
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed))
    for command in ("analyze", "design"):
        assert main([command, "--problem", str(path), "--out", str(tmp_path / command)]) == 2
        assert "field 'system.A' is not a numeric matrix" in capsys.readouterr().err
    bad_length = json.loads(json.dumps(base))
    bad_length["task"]["x0"] = [0.0, 0.0, 0.0]
    with pytest.raises(ProblemFormatError, match="must have length 2, got x0 of 3 and xf of 2"):
        parse_problem(json.dumps(bad_length))

    for field, value in (("h", 1), ("h", True), ("h", None), ("b", True), ("b", 0)):
        bad_task = json.loads(json.dumps(base))
        bad_task["task"][field] = value
        with pytest.raises(ProblemFormatError, match=f"task.{field}"):
            parse_problem(json.dumps(bad_task))

    bad_regime = json.loads(json.dumps(base))
    bad_regime["task"]["regime"] = "mixed"
    with pytest.raises(ProblemFormatError, match="regime"):
        parse_problem(json.dumps(bad_regime))

    bad_tol = json.loads(json.dumps(base))
    bad_tol["tolerances"] = []
    with pytest.raises(ProblemFormatError, match="field 'tolerances' must be an object"):
        parse_problem(json.dumps(bad_tol))
    bad_tol["tolerances"] = {"windup": 3}
    with pytest.raises(ProblemFormatError, match="windup"):
        parse_problem(json.dumps(bad_tol))

    for value in ("tiny", True, 10**400):
        bad_tol["tolerances"] = {"terminal": value}
        with pytest.raises(ProblemFormatError, match="terminal"):
            parse_problem(json.dumps(bad_tol))
    # the fixed thresholds are no fields: a file naming one is refused, even
    # at the value the threshold has
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["terminal"]
    assert Tolerances.charge_balance == Tolerances().charge_balance == 1e-9
    with pytest.raises(TypeError, match="charge_balance"):
        Tolerances(charge_balance=1e-9)
    for field, value in RETIRED_TOLERANCE_KEYS:
        bad_tol["tolerances"] = {field: value}
        with pytest.raises(ProblemFormatError, match=rf"unknown tolerance fields \['{field}'\]"):
            parse_problem(json.dumps(bad_tol))


def test_max_order_is_no_flag(capsys):
    # the ratio-order search bound is the constant MAX_ORDER and the
    # charge-balance bound the constant Tolerances.charge_balance: --max-order
    # and --tol-cb are usage errors, as a file naming max_order or
    # charge_balance is a parse error (with the other retired keys in
    # RETIRED_TOLERANCE_KEYS)
    for flag, value in (("--max-order", "8"), ("--tol-cb", "1e-9")):
        with pytest.raises(SystemExit) as exited:
            main(["analyze", "--problem", str(bundled_problem("rotation_2d")), flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_parse_tolerance_overrides():
    problem = load_problem(bundled_problem("rotation_2d"))
    assert problem.tolerances.terminal == 1e-6
    text = bundled_problem("rotation_2d").read_text()
    doc = json.loads(text)
    doc["tolerances"] = {"terminal": 1e-9}
    tweaked = parse_problem(json.dumps(doc))
    assert tweaked.tolerances.terminal == 1e-9


def test_main_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", "--problem", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err

    # a file that names a fixed threshold fails with one stderr line naming it
    fixed = tmp_path / "fixed.json"
    for key, value in RETIRED_TOLERANCE_KEYS:
        doc = json.loads(bundled_problem("rotation_2d").read_text())
        doc["tolerances"] = {key: value}
        fixed.write_text(json.dumps(doc))
        assert main(["analyze", "--problem", str(fixed)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and f"'{key}'" in captured.err
        assert captured.out == ""

    # a bad override flag fails as the same value written into the file:
    # one stderr line, the same words, naming the field
    path = tmp_path / "problem.json"
    for flags, section, key, value in (
        (["--b", "0"], "task", "b", 0),
        (["--h", "1"], "task", "h", 1),
        (["--tol-term", "-1"], "tolerances", "terminal", -1.0),
    ):
        doc = json.loads(bundled_problem("rotation_2d").read_text())
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--problem", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and f"{section}.{key}" in captured.err
        assert captured.out == ""
        doc.setdefault(section, {})[key] = value
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--problem", str(path)]) == 2
        assert capsys.readouterr().err == captured.err, flags

    fixture = str(bundled_problem("rotation_2d"))

    # --h that is neither an integer nor "auto" is refused by argparse itself
    with pytest.raises(SystemExit) as exited:
        main(["analyze", "--problem", fixture, "--h", "x"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "must be an integer or 'auto', got 'x'" in captured.err and captured.out == ""

    # a sweep range that cannot be swept is a bad flag value, like --b 0
    for flags in (["--h-min", "1"], ["--h-min", "5", "--h-max", "3"]):
        out = tmp_path / "sweep"
        assert main(["sweep-h", "--problem", fixture, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: need 2 <= h_min <= h_max")
        assert not out.exists()

    # an --out that cannot be a directory is a bad flag value on every
    # command: one stderr line naming the path, and the file is untouched
    run = tmp_path / "run"
    assert main(["design", "--problem", fixture, "--out", str(run)]) == 0
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    capsys.readouterr()
    for command in (["analyze"], ["design"], ["sweep-h"],
                    ["simulate", "--inputs", str(run / "inputs.csv")]):
        for out in (taken, taken / "sub"):
            assert main([*command, "--problem", fixture, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: cannot use --out")
            assert str(out) in err
    assert taken.read_text() == "kept\n"


# flag, its text, the problem-file field it sets, and that value as JSON
_OVERRIDE_FLAGS = (
    ("--h", "3", "task", "h", 3),
    ("--h", "auto", "task", "h", "auto"),
    ("--b", "7", "task", "b", 7),
    ("--regime", "rep", "task", "regime", "repetitive"),
    ("--regime", "nonrep", "task", "regime", "non-repetitive"),
    ("--tol-term", "1e-9", "tolerances", "terminal", 1e-9),
)


def _problem_parts(problem):
    """Every Problem and task field as comparable data, value and type alike."""
    fields = {**vars(problem.task), **vars(problem), "A": problem.system.A, "B": problem.system.B}
    return [(name, type(value), value.tobytes() if isinstance(value, np.ndarray) else value)
            for name, value in fields.items() if name not in ("system", "task")]


def test_override_flags_equal_the_same_value_in_the_file(tmp_path, monkeypatch):
    import cbcontrol.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda problem, out_dir: seen.append(problem))
    fixture = bundled_problem("rotation_2d")
    for flag, text, section, key, value in _OVERRIDE_FLAGS:
        assert main(["analyze", "--problem", str(fixture), flag, text]) == 0
        doc = json.loads(fixture.read_text())
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "written.json"
        path.write_text(json.dumps(doc))
        assert _problem_parts(seen.pop()) == _problem_parts(load_problem(path)), flag


def test_unusable_out_fails_before_any_analysis_or_replay(tmp_path, monkeypatch, capsys):
    import cbcontrol.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("worked despite an unusable --out")

    for name in ("_analyze", "read_inputs_csv", "simulate"):
        monkeypatch.setattr(cli, name, refuse)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    fixture = str(bundled_problem("rotation_2d"))
    for command in (["analyze"], ["simulate", "--inputs", str(tmp_path / "inputs.csv")]):
        assert main([*command, "--problem", fixture, "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot use --out")
        assert captured.out == ""
    assert taken.read_text() == "kept\n"


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    # a directory where an output file goes: one typed stderr line naming
    # the file, for every file every command writes
    fixture = str(bundled_problem("rotation_2d"))
    assert main(["design", "--problem", fixture, "--out", str(tmp_path / "run")]) == 0
    inputs = str(tmp_path / "run" / "inputs.csv")
    capsys.readouterr()
    runs = [(["design"], name) for name in
            ("inputs.csv", "states.csv", "blocks.csv", "plot.gp", "report.json")]
    runs += [(["sweep-h"], "sweep.csv"), (["simulate", "--inputs", inputs], "states.csv"),
             (["analyze"], "report.json")]
    for command, name in runs:
        out = tmp_path / f"{command[0]}-{name}"
        (out / name).mkdir(parents=True)
        assert main([*command, "--problem", fixture, "--out", str(out)]) == 2, (command, name)
        err = capsys.readouterr().err
        assert err.count("\n") == 1, (command, name, err)
        assert err.startswith(f"error: cannot write {out / name}: "), (command, name, err)


def test_unusable_out_fails_before_any_design(tmp_path, monkeypatch, capsys):
    import cbcontrol.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("designed despite an unusable --out")

    monkeypatch.setattr(cli, "design_nonrepetitive", refuse)
    monkeypatch.setattr(cli, "design_repetitive", refuse)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    fixture = str(bundled_problem("rotation_2d"))
    for command in (["design"], ["sweep-h"]):
        assert main([*command, "--problem", fixture, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: cannot use --out")
    assert taken.read_text() == "kept\n"

    # the directory comes first, so a design refused by its verdict leaves it empty
    run = tmp_path / "run"
    identity = str(bundled_problem("identity_2d"))
    assert main(["design", "--problem", identity, "--out", str(run)]) == 4
    assert run.is_dir() and not any(run.iterdir())


def test_eigensolver_failure_exits_4(monkeypatch, capsys):
    def diverge(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", diverge)
    assert main(["analyze", "--problem", str(bundled_problem("rotation_2d"))]) == 4
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: eigensolver failed to converge (condition estimate")
    assert captured.out == ""


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    import cbcontrol.cli as cli

    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    fixture = str(bundled_problem("rotation_2d"))
    for _ in range(3):
        assert main(["analyze", "--problem", fixture]) == 0
        assert len(built) == 5  # the top parser and its four subcommands

    # a fresh Namespace per call: flags of one call never reach the next
    terminals = []
    original_verify = cli.verify_plan

    def recording(*args):
        terminals.append(args[-1].terminal)
        return original_verify(*args)

    monkeypatch.setattr(cli, "verify_plan", recording)
    expander = str(bundled_problem("expander_2d"))
    overridden, plain = tmp_path / "overridden", tmp_path / "plain"
    assert main(["design", "--problem", expander, "--h", "3", "--b", "7", "--tol-term", "1e-7",
                 "--out", str(overridden)]) == 0
    assert main(["design", "--problem", expander, "--h", "1", "--out", str(plain)]) == 2
    assert "'task.h'" in capsys.readouterr().err
    assert main(["design", "--problem", expander, "--out", str(plain)]) == 0
    problem = load_problem(expander)
    design = json.loads((plain / "report.json").read_text())["design"]
    assert (design["h"], design["b"]) == (problem.h, problem.task.b) == (2, 10)
    assert json.loads((overridden / "report.json").read_text())["design"]["b"] == 7
    assert terminals == [1e-7, problem.tolerances.terminal] and terminals[1] != 1e-7
    assert len(built) == 5


def test_main_exit_code_problem_file_not_text(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{\x00\x80")
    assert main(["analyze", "--problem", str(binary)]) == 2
    assert "cannot read problem file" in capsys.readouterr().err


def test_main_exit_code_problem_file_not_finite(tmp_path, capsys):
    # json reads NaN and Infinity; a problem file may not carry them
    doc = json.loads(bundled_problem("expander_2d").read_text())
    for section, field, value in (
        ("task", "x0", [float("nan"), 0.3]),
        ("task", "xf", [float("inf"), -0.6]),
        ("system", "A", [[2.0, float("-inf")], [0.0, 0.5]]),
    ):
        bad = json.loads(json.dumps(doc))
        bad[section][field] = value
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(bad))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ProblemFormatError, match=f"{section}.{field}' has a non-finite"):
            load_problem(path)
        out = tmp_path / f"run_{field}"
        assert main(["design", "--problem", str(path), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


def _no_bare_constants(name):
    raise AssertionError(f"report.json holds the non-JSON constant {name}")


def test_design_float64_overflow(tmp_path, capsys):
    problem = str(bundled_problem("expander_2d"))  # eigenvalue 2, so A^(2b) overflows near b = 512
    numpy_default = np.geterr()

    def run(command, b, regime=None):
        out = tmp_path / f"{command}_{b}_{regime}"
        regime_args = [] if regime is None else ["--regime", regime]
        # the CLI reports overflow once, as a typed error: a numpy warning
        # would raise here instead of reaching stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--problem", problem, "--b", b, *regime_args, "--out", str(out)])
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (command, b, regime, err)
        assert np.geterr() == numpy_default  # library calls keep numpy's default
        return code, out, err

    # b = 510: the solve is finite but the rollout overflows; the plan fails
    # its verification and report.json stays strict JSON
    code, out, _ = run("design", "510")
    assert code == 5
    text = (out / "report.json").read_text()
    report = json.loads(text, parse_constant=_no_bare_constants)
    assert report["design"]["terminal_error"] is None
    assert report["design"]["passed"] is False
    # past that, the solve's own matrix or right-hand side overflows: exit 4
    runs = (
        ("design", "510", "nonrep"), ("design", "600", "rep"), ("design", "600", "nonrep"),
        ("sweep-h", "600", "nonrep"),
    )
    for command, b, regime in runs:
        code, _, err = run(command, b, regime)
        assert code == 4, (command, b, regime)
        assert err.startswith("error: float64 overflow"), (command, b, regime, err)


def test_analyze_block_length_overflow_exits_4(tmp_path, capsys):
    # A = diag(2, -2) has lambda^h twice at even h, so the lifted PBH test
    # runs: at h = 600 the norm of A^h overflows, at h = 1100 A^h itself,
    # and the identical-block rank reads A^1098 B; each is one typed error.
    # At h = 1101 lambda^h is +inf and -inf, which differ in sign, but an
    # overflowed spectrum reads as not simple, so the lifted test runs too.
    # A plant near float64's limit overflows its own PBH pencil at h = 2:
    # lambda - A_ii is +-inf in diag(1e308, -1e308), and the eigenvalue
    # 2e308 of 1e308 ones(2) is inf, so that error too comes before any verdict.
    # An integer h, or h * b, past float64's range is no exponent numpy can
    # take: analyze and design end with the same typed error, design's --out empty
    plants = {
        "doubling": ([[2.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]]),
        "diag_1e308": ([[1e308, 0.0], [0.0, -1e308]], [[1.0], [1.0]]),
        "ones_1e308": ([[1e308, 1e308], [1e308, 1e308]], [[1.0], [0.0]]),
    }
    runs = [("doubling", "analyze", ["--h", h, "--regime", regime]) for h, regime in
            (("600", "nonrep"), ("1100", "nonrep"), ("1101", "nonrep"), ("1100", "rep"))]
    runs += [(name, "analyze", ["--h", "2", "--regime", regime])
             for name in ("diag_1e308", "ones_1e308") for regime in ("nonrep", "rep")]
    huge, out = str(10**400), tmp_path / "out"
    for flags in (["--h", huge, "--regime", "nonrep"], ["--b", huge, "--regime", "rep"]):
        runs += [("doubling", "analyze", flags), ("doubling", "design", [*flags, "--out", str(out)])]
    for name, (A, B) in plants.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "system": {"A": A, "B": B},
            "task": {"x0": [0.0, 0.0], "xf": [1.0, 1.0], "b": 2, "h": 2,
                     "regime": "non-repetitive"},
        }))
    for name, command, flags in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--problem", str(tmp_path / f"{name}.json"), *flags])
        captured = capsys.readouterr()
        assert code == 4, (name, command, flags)
        assert len(captured.err.splitlines()) == 1, (name, command, flags, captured.err)
        assert captured.err.startswith("error: float64 overflow"), (name, command, flags)
    assert not any(out.iterdir())


def test_edge_plants_exit_with_typed_codes(tmp_path, capsys):
    # one-state plants, whose lambda^h may overflow alone, and small plants
    # with repeated, zero or defective spectra: every run ends in a typed
    # exit, with one stderr line when it is not 0
    plants = {
        "two": ([[2.0]], [[1.0]]), "huge": ([[1e200]], [[1.0]]), "half": ([[0.5]], [[1.0]]),
        "flip": ([[-1.0]], [[1.0]]), "zero": ([[0.0]], [[1.0]]),
        "quarter_turn": ([[0.0, -1.0], [1.0, 0.0]], [[1.0], [0.0]]),
        "doubling": ([[2.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]]),
        "jordan": ([[3.0, 1.0], [0.0, 3.0]], [[0.0], [1.0]]),
        "zero_2d": ([[0.0, 0.0], [0.0, 0.0]], [[1.0], [0.0]]),
    }
    for name, (A, B) in plants.items():
        n = len(A)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "system": {"A": A, "B": B},
            "task": {"x0": [0.0] * n, "xf": [1.0] * n, "b": 2, "h": 2, "regime": "non-repetitive"},
        }))
        for h in ("2", "3", "1100"):
            for regime in ("rep", "nonrep"):
                for command in ("analyze", "design", "sweep-h"):
                    run = (name, h, regime, command)
                    # sweep-h refuses --h: its one-length range is the same h
                    block = ["--h-min", h, "--h-max", h] if command == "sweep-h" else ["--h", h]
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        code = main([command, "--problem", str(path), *block, "--regime", regime,
                                     "--out", str(tmp_path / "_".join(run))])
                    err = capsys.readouterr().err
                    assert code in (0, 2, 3, 4, 5), run
                    assert code == 0 or len(err.splitlines()) == 1, (run, err)
                    assert command != "sweep-h" or code != 2, (run, err)  # a valid range

    # sweep-h takes its block lengths from --h-min and --h-max only: --h is a
    # bad flag value, refused before the problem is read or --out is made
    out = tmp_path / "refused"
    assert main(["sweep-h", "--problem", str(tmp_path / "two.json"), "--h", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: sweep-h takes --h-min/--h-max, not --h"]
    assert not out.exists()

    # a one-state plant has a simple spectrum even when lambda^2 overflows:
    # the conditions say yes, and design fails on the overflowed lift
    huge = str(tmp_path / "huge.json")
    assert main(["analyze", "--problem", huge, "--out", str(tmp_path / "verdict")]) == 0
    verdict = json.loads((tmp_path / "verdict" / "report.json").read_text())["verdict"]
    assert (verdict["conditions"], verdict["controllable"]) == ("yes", "yes")
    assert {r["name"]: r["holds"] for r in verdict["reasons"]}["A^2 has a simple spectrum"] is True
    capsys.readouterr()
    assert main(["design", "--problem", huge, "--out", str(tmp_path / "plan")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: float64 overflow"), err


def test_horizon_too_long_to_hold_exits_4(tmp_path, monkeypatch, capsys):
    # at b = 1e8 the block-Krylov array of Rb does not fit in memory, and
    # numpy's np.empty raises MemoryError: one typed error line, exit 4,
    # and nothing written (no real allocation is attempted here)
    import cbcontrol.lifting as lifting

    original = lifting.krylov

    def krylov(M, X, k):
        if k >= 10**6:
            raise MemoryError(f"Unable to allocate 2.98 GiB for an array with shape ({k}, 2, 2)")
        return original(M, X, k)

    monkeypatch.setattr(lifting, "krylov", krylov)
    for command, name in (("design", "expander_2d"), ("sweep-h", "rotation_2d")):
        out = tmp_path / command
        code = main([command, "--problem", str(bundled_problem(name)), "--regime", "nonrep",
                     "--b", "100000000", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4, command
        assert err.splitlines() == [
            "error: Unable to allocate 2.98 GiB for an array with shape (100000000, 2, 2)"
        ]
        assert list(out.iterdir()) == []


def test_horizon_too_large_to_address_exits_4(tmp_path, capsys):
    # past numpy's index range an array cannot even be requested: np.empty,
    # np.zeros and np.tile raise ValueError or OverflowError there, which
    # surface as the MemoryError of a failed allocation: exit 4, one line
    huge = str(2**70)
    decaying = tmp_path / "decaying.json"
    decaying.write_text(json.dumps({
        "system": {"A": [[0.5, 0.0], [0.0, 0.25]], "B": [[1.0, 0.0], [0.0, 1.0]]},
        "task": {"x0": [1.0, 0.0], "xf": [0.0, 1.0], "b": 2, "h": 2,
                 "regime": "repetitive"},
    }))
    runs = [
        (command, str(bundled_problem(name)), ["--regime", "nonrep", "--b", huge],
         f"error: a {huge} x ")
        # analysis says "no" for identity_2d, so neither command designs a plan
        for command in ("design", "sweep-h") for name in list_bundled() if name != "identity_2d"
    ] + [
        (command, str(bundled_problem("rotation_2d")), ["--h", huge],
         f"error: a {2**70 - 1} x 2 x 1 Krylov array is too large to address")
        for command in ("analyze", "design")
    ] + [
        ("design", str(bundled_problem("rotation_2d")), ["--h", str(2**40)],
         f"error: a {2**40} x {2**40 - 1} kernel basis is too large to address"),
    ] + [
        # np.tile raises ValueError at b = 2^60 and OverflowError at 2^70
        ("design", str(decaying), ["--b", str(b)],
         f"error: a plan of {b} blocks of 4 inputs is too large to address")
        for b in (2**60, 2**70)
    ]
    for index, (command, problem, flags, message) in enumerate(runs):
        out = tmp_path / str(index)
        code = main([command, "--problem", problem, *flags, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 4, (command, problem, flags)
        assert len(err) == 1 and err[0].startswith(message), (command, problem, flags, err)
        assert list(out.iterdir()) == []


VARIANT_FLAGS = {
    "plain": [], "rep": ["--regime", "rep"], "nonrep": ["--regime", "nonrep"],
    "b20": ["--b", "20"], "b30": ["--b", "30"],
}
# bundled runs that analyze calls "yes" and design still ends as unreachable
YES_BUT_UNREACHABLE = {
    ("expander_2d", "b30"): "ROADMAP item 4: identical-block gain rank 1 of 2",
    ("four_state", "nonrep"): "ROADMAP item 1: Gramian rank 3 of 4 at b = 5",
    ("four_state", "b20"): "ROADMAP item 4: identical-block gain rank 2 of 4",
    ("four_state", "b30"): "ROADMAP item 4: identical-block gain rank 2 of 4",
}


@pytest.mark.parametrize("name, variant", [
    pytest.param(name, variant, marks=[pytest.mark.xfail(strict=True, reason=reason)]
                 if (reason := YES_BUT_UNREACHABLE.get((name, variant))) else [])
    for name in list_bundled() for variant in VARIANT_FLAGS
])
def test_bundled_yes_verdict_never_exits_3(tmp_path, capsys, name, variant):
    # where analyze says "yes", design writes a plan: exit 0, or 5 when it
    # fails verification; where it says "no", design refuses with exit 4
    args = ["--problem", str(bundled_problem(name)), *VARIANT_FLAGS[variant]]
    assert main(["analyze", *args, "--out", str(tmp_path / "analyze")]) == 0
    verdict = json.loads((tmp_path / "analyze" / "report.json").read_text())["verdict"]
    assert verdict["controllable"] in ("yes", "no")
    code = main(["design", *args, "--out", str(tmp_path / "design")])
    capsys.readouterr()
    assert code in ((0, 5) if verdict["controllable"] == "yes" else (4,)), code


def test_designed_blocks_balance_exactly_with_no_negative_zero(tmp_path, capsys):
    # every bundled design that writes a plan reports max_imbalance 0.0 and
    # an all-0 imbalance column, and no input cell reads -0: the last step of
    # a block is 0.0 minus the others' sum, +0.0 where that sum is a zero;
    # a zero-displacement plan of either law holds no negative zero, nor does
    # a block whose tiny negative step rounds to zero on the balance grid
    written = 0
    for name in list_bundled():
        for variant, flags in VARIANT_FLAGS.items():
            out = tmp_path / f"{name}-{variant}"
            code = main(["design", "--problem", str(bundled_problem(name)), *flags,
                         "--out", str(out)])
            capsys.readouterr()
            if code not in (0, 5):
                continue
            written += 1
            assert json.loads((out / "report.json").read_text())["design"]["max_imbalance"] == 0.0
            with open(out / "blocks.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert {row[header.index("imbalance")] for row in rows} == {"0"}, (name, variant)
            with open(out / "inputs.csv", newline="") as fh:
                assert not any("-0" in row for row in csv.reader(fh)), (name, variant)
    assert written > 0
    lifted = lift(rotation_system(), build_scheme(3, 1))
    for regime, law in (("non-repetitive", design_nonrepetitive),
                        ("repetitive", design_repetitive)):
        plan = law(lifted, SteeringTask(x0=[0.0, 0.0], xf=[0.0, 0.0], b=4, regime=regime))
        assert not np.signbit(plan.flat_inputs).any(), regime
    steps = _balanced(np.array([[1.0], [-1e-20], [-1.0]]), build_scheme(3, 1))
    assert steps.tolist() == [[1.0], [0.0], [-1.0]] and not np.signbit(steps[1, 0])


def test_analyze_rotation_auto_selects_four(capsys):
    report = cmd_analyze(load_problem(bundled_problem("rotation_2d")))
    assert report["verdict"]["h"] == 4
    assert report["verdict"]["selected_h"] == 4
    assert report["verdict"]["controllable"] == "yes"
    out = capsys.readouterr().out
    assert "verdict: yes" in out
    assert "selected h: 4" in out


def test_analyze_repetitive_auto_h_selects_two(tmp_path, capsys):
    doc = json.loads(bundled_problem("expander_2d").read_text())
    assert doc["task"]["regime"] == "repetitive"
    doc["task"]["h"] = "auto"
    report = cmd_analyze(parse_problem(json.dumps(doc)), tmp_path)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved == {"verdict": report["verdict"]}
    assert (saved["verdict"]["selected_h"], saved["verdict"]["ratio_orders"]) == (2, [])
    assert report["manifest"] == [str(tmp_path / "report.json")]
    assert "selected h: 2" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: automatic h is 2 for identical blocks, "
                   "where rotation_2d reads 'no' (rank(B) 1 of 2) and design exits 4")
def test_design_rotation_repetitive_auto_selects_h3(tmp_path, capsys):
    # the smallest h at which the identical-block conditions hold is 3, and
    # --h 3 designs there a plan that verifies
    code = main(["design", "--problem", str(bundled_problem("rotation_2d")), "--regime", "rep",
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    design = json.loads((tmp_path / "report.json").read_text())["design"]
    assert (design["h"], design["passed"]) == (3, True)
    assert design["energy"] == pytest.approx(0.277333, rel=1e-5)


def test_analyze_identity_no_with_unit_eigenvalue_reason():
    report = cmd_analyze(load_problem(bundled_problem("identity_2d")))
    assert report["verdict"]["controllable"] == "no"
    failing = [r["name"] for r in report["verdict"]["reasons"] if not r["holds"]]
    assert "no eigenvalue of A at 1" in failing
    # the modal screen clears neither eigenvalue at 1, PBH fails at the first
    # one's pencil, [[0, 0, 1], [0, 0, 0]], and the verdict reports it from
    # that one values-only SVD
    assert report["verdict"]["numeric_rank"] == 1
    assert report["verdict"]["singular_values"] == [1.0, 0.0]


def test_analyze_four_state_yes_by_exact_conditions():
    # identical blocks at h = 3: the conditions decide, numeric_rank is rank(K), K = [A B, B]
    report = cmd_analyze(load_problem(bundled_problem("four_state")))
    assert report["verdict"]["controllable"] == "yes"
    assert report["verdict"]["conditions"] == "yes"
    assert report["verdict"]["numeric_rank"] == 4
    names = {r["name"]: r["holds"] for r in report["verdict"]["reasons"]}
    assert names["rank([A^(h-2) B, ..., A B, B]) = n"] is True
    assert names["no eigenvalue with lambda^15 = 1 and lambda^3 != 1"] is True


def test_design_rotation_writes_expected_files(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    report = cmd_design(problem, tmp_path / "run")
    assert len(report["manifest"]) == 5
    assert all(isinstance(path, str) for path in report["manifest"])
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


def test_design_blocks_csv_matches_per_block_loops(tmp_path):
    # blocks.csv energies and imbalances against per-block U @ U and R @ U
    # over the written inputs; report.json keeps only the totals
    cases = (("rotation_2d", []), ("rotation_2d", ["--h", "2", "--b", "10"]),
             ("expander_2d", []), ("expander_2d", ["--regime", "nonrep"]),
             ("four_state", []), ("drift_only", []))
    for index, (name, flags) in enumerate(cases):
        out = tmp_path / f"run{index}"
        code = main(["design", "--problem", str(bundled_problem(name)), *flags, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert code == (0 if report["design"]["passed"] else 5)
        h, b = report["design"]["h"], report["design"]["b"]
        m = load_problem(bundled_problem(name)).system.m
        inputs = read_inputs_csv(out / "inputs.csv", m)
        blocks = inputs.reshape(b, -1)
        _, rows = read_csv(out / "blocks.csv")
        table = np.array(rows)
        assert np.array_equal(table[:, 0], np.arange(b))
        energies = np.array([U @ U for U in blocks])
        assert np.abs(table[:, 1] - energies).max() <= 1e-13 * energies.max(initial=0.0)
        balance = np.tile(np.eye(m), (1, h))  # per-channel block sums [I_m ... I_m]
        imbalances = np.array([np.abs(balance @ U).max() for U in blocks])
        assert np.abs(table[:, 2] - imbalances).max() <= 1e-15 * np.abs(inputs).max()
        assert "per_block_energies" not in report["design"]
        assert report["design"]["max_imbalance"] == table[:, 2].max()


def test_design_expander_blocks_identical(tmp_path):
    problem = load_problem(bundled_problem("expander_2d"))
    cmd_design(problem, tmp_path / "run")
    _, rows = read_csv(tmp_path / "run" / "states.csv")
    assert np.abs(np.array(rows[-1][1:]) - np.array([1.0, -0.6])).max() <= 1e-6

    inputs = read_inputs_csv(tmp_path / "run" / "inputs.csv", 2)
    blocks = inputs.reshape(10, -1)
    for p in range(1, 10):
        assert np.array_equal(blocks[0], blocks[p])


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


def test_simulate_replay_bit_identical(tmp_path, monkeypatch):
    # a replay reproduces states.csv byte for byte, and every CSV is what the
    # csv.writer reference prints for the cells it parses to: at b = 10
    # (h = 2) every table is under the kernel's size rule, and at b = 150
    # (h = 4) the 1,200-cell inputs.csv and the 1,803-cell states.csv go
    # through the kernel while the 450-cell blocks.csv does not
    kernel_cells = []
    kernel = problem_io._format_chunk

    def counting(chunk):
        kernel_cells.append(chunk.size)
        return kernel(chunk)

    monkeypatch.setattr(problem_io, "_format_chunk", counting)
    problem_path = str(bundled_problem("rotation_2d"))
    for flags, kernel_sizes in ((["--h", "2", "--b", "10"], []),
                                (["--b", "150"], [1200, 1803, 1803])):
        kernel_cells.clear()
        design, replay = tmp_path / f"b{flags[-1]}", tmp_path / f"b{flags[-1]}-replay"
        assert main(["design", "--problem", problem_path, *flags, "--out", str(design)]) == 0
        assert main(["simulate", "--problem", problem_path, *flags,
                     "--inputs", str(design / "inputs.csv"), "--out", str(replay)]) == 0
        assert sorted(kernel_cells) == kernel_sizes
        assert (design / "states.csv").read_bytes() == (replay / "states.csv").read_bytes()
        for path in (*(design / name for name in ("inputs.csv", "states.csv", "blocks.csv")),
                     replay / "states.csv"):
            _write_csv_reference(tmp_path / "want.csv", *read_csv(path))
            assert path.read_bytes() == (tmp_path / "want.csv").read_bytes(), path


def test_simulate_writes_its_own_states(tmp_path, monkeypatch):
    # write_csv prints the step column itself, so states.csv is written
    # from simulate's locked (N + 1, n) states, not from an indexed copy
    import cbcontrol.cli as cli
    from cbcontrol import simulate

    problem_path = str(bundled_problem("rotation_2d"))
    design, replay = tmp_path / "design", tmp_path / "replay"
    assert main(["design", "--problem", problem_path, "--out", str(design)]) == 0
    received, replayed = [], []

    def recording(path, header, columns):
        received.append(columns)
        write_csv(path, header, columns)

    def replaying(*args):
        replayed.append(simulate(*args))
        return replayed[-1]

    monkeypatch.setattr(cli, "write_csv", recording)
    monkeypatch.setattr(cli, "simulate", replaying)
    assert main(["simulate", "--problem", problem_path, "--inputs", str(design / "inputs.csv"),
                 "--out", str(replay)]) == 0
    [states], [traj] = received, replayed
    assert states is traj.states and not states.flags.writeable
    assert states.shape == (traj.horizon + 1, 2)
    assert (design / "states.csv").read_bytes() == (replay / "states.csv").read_bytes()


def test_sweep_rotation_reports_h3_fallback(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    sweep = cmd_sweep_h(problem, 2, 5, tmp_path)
    by_h = {row["h"]: row for row in sweep}
    assert by_h[3]["conditions"] == "undetermined"
    assert by_h[3]["numeric_rank"] == 2
    assert by_h[3]["controllable"] == "yes"
    assert by_h[2]["numeric_rank"] == 2
    assert by_h[2]["conditions"] == "yes"
    for row in sweep:
        verdict = check_nonrepetitive_sufficient(problem.system, row["h"])
        assert row["conditions"] == verdict.conditions

    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["h", "conditions", "numeric_rank", "controllable", "energy"]
    assert [row[0] for row in rows] == [2.0, 3.0, 4.0, 5.0]
    # every h in this sweep admits the steering task
    assert all(isinstance(row[4], float) for row in rows)
    _assert_sweep_csv(tmp_path, sweep)

    # in one block at h = 2 the design raises ReachabilityError: the row
    # keeps its "yes" verdict and leaves the energy empty
    one_block = dataclasses.replace(problem, task=dataclasses.replace(problem.task, b=1))
    sweep = cmd_sweep_h(one_block, 2, 2, tmp_path / "one")
    assert sweep[0]["energy"] == ""
    assert read_csv(tmp_path / "one" / "sweep.csv")[1] == [[2.0, "yes", 2.0, "yes", ""]]
    _assert_sweep_csv(tmp_path / "one", sweep)


def _assert_sweep_csv(out, sweep):
    """out/sweep.csv is, byte for byte, what csv.writer makes of the returned rows."""
    rows = [list(row.values()) for row in sweep]
    _write_csv_reference(out / "want.csv", list(sweep[0]), rows)
    assert (out / "sweep.csv").read_bytes() == (out / "want.csv").read_bytes()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: sweep-h tabulates each plan's energy unverified; on "
                   "drift_only at b = 20 every plan for h 2-6 misses its target (terminal error "
                   "0.031 to 9.8e19) and no row says so")
def test_sweep_rows_carry_the_plans_verification(tmp_path):
    problem = load_problem(bundled_problem("drift_only"))
    problem = dataclasses.replace(problem, task=dataclasses.replace(problem.task, b=20))
    sweep = cmd_sweep_h(problem, 2, 6, tmp_path)
    shown = [row for row in sweep if row["energy"] != ""]
    assert [row["h"] for row in shown] == [2, 3, 4, 5, 6]
    for row in shown:
        lifted = lift(problem.system, build_scheme(row["h"], problem.system.m))
        plan = design_nonrepetitive(lifted, problem.task)
        report = verify_plan(problem.system, lifted.scheme, problem.task, plan, problem.tolerances)
        assert row.get("passed") == report.passed


def test_sweep_identity_all_rank_zero(tmp_path):
    problem = load_problem(bundled_problem("identity_2d"))
    system = problem.system
    sweep = cmd_sweep_h(problem, 2, 4, tmp_path)
    # the eigenvalue at 1 decides, so the reported rank is the PBH pencil's at 1
    assert all(row["numeric_rank"] == 1 for row in sweep)
    assert all(row["controllable"] == "no" for row in sweep)
    # S Q = 0 exactly for A = I, so the n-block Gramian has rank 0 at every h
    for row in sweep:
        lifted = lift(system, build_scheme(row["h"], system.m))
        Rb = reachability_matrix(lifted, system.n)
        S = krylov(system.A, system.B, row["h"])
        assert floored_rank(Rb @ Rb.T, np.linalg.norm(S, 2) ** 2) == 0
    # the "no" rows leave every energy blank
    assert all(row["energy"] == "" for row in sweep)
    _assert_sweep_csv(tmp_path, sweep)


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

    traj = simulate(problem.system, problem.task.x0, inputs)
    _, state_rows = read_csv(tmp_path / "run" / "states.csv")
    parsed = np.array([row[1:] for row in state_rows])
    assert np.array_equal(parsed, traj.states)  # exact via 17 digits


def _write_csv_reference(path, header, rows):
    """The csv.writer serializer that write_csv replaced (the byte reference)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else "{:.17g}".format(cell) for cell in row]
            )


def _awkward_doubles(rng):
    """Doubles where a '%.17g' kernel can go wrong, both signs."""

    def ulp_neighbours(v):
        return np.concatenate([np.nextafter(v, 0), v, np.nextafter(v, np.inf)])

    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99e99, 1e100, 1e-280, 1e280, 0.0, np.inf])
    odd = rng.integers(2**52, 2**53, 20_000) | 1
    positive = np.concatenate([
        ulp_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
        ulp_neighbours(np.array([float(f"1e{k}") for k in range(-300, 301)])),
        ulp_neighbours(edges),
        odd / 4,  # exact ties at the 17th digit, in [2**50, 2**51)
        rng.integers(0, 2**60, 20_000, endpoint=True).astype(float),
        np.ldexp(1.0, np.arange(61)) - 1,
    ])
    # random bit patterns: NaN payloads, negative NaN and subnormals too
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(float)
    return np.concatenate([positive, -positive, bits])


def _with_steps(columns):
    """columns behind a step column 0 .. N - 1 of floats: the table
    write_csv prints for them, as the byte reference takes it."""
    return np.column_stack((np.arange(len(columns), dtype=float), columns))


def _periodic_table(n, tail):
    """n rows: the rows of tail over and over."""
    return np.resize(tail, (n, tail.shape[1]))


def _periodic_cases(rng):
    """Periodic tables for the byte check, as (header, value columns),
    named by what they test; the row widths count the step column."""
    gate = problem_io._PERIODIC_MIN_CELLS
    step = problem_io._CHUNK_CELLS // 3  # rows per chunk of a 3-cell row

    def case(n, tail):
        tail = np.asarray(tail, dtype=float)
        return ["k"] + [f"u_{j + 1}" for j in range(tail.shape[1])], _periodic_table(n, tail)

    cases = {
        "period 2, signed zeros": case(1001, [[-0.0, 0.0], [0.0, -0.0]]),
        "period 2, non-finite": case(777, [[np.nan, np.inf, 0.1], [-np.inf, 5e-324, -1e300]]),
        "period 1": case(500, [[2.5, 1e-17]]),
        "period 5 of 1001 rows": case(1001, rng.standard_normal((5, 1))),
        # step % 4 == 2, so every other chunk starts inside a period
        "chunks start inside a period": case(
            3 * step + 5, rng.standard_normal((4, 2)) * 10.0 ** rng.integers(-300, 300, (4, 2))),
        "repeats from row 1 only": case(1500, rng.standard_normal((3, 2))),
        "below the gate": case(gate // 2 - 1, rng.standard_normal((2, 1))),
        "at the gate": case(gate // 2, rng.standard_normal((2, 1))),
        "a period of the gate's cells": case(3 * gate, rng.standard_normal((gate // 2, 1))),
        "a period past the gate's cells": case(3 * gate, rng.standard_normal((gate // 2 + 1, 1))),
        # step cells 99,999 and 100,000 gain a digit inside a period's text
        "steps past 100,000": case(100_002, rng.standard_normal((3, 1))),
    }
    cases["repeats from row 1 only"][1][0] = [0.25, -0.5]  # no other row repeats row 0
    return cases


def test_write_csv_matches_csv_writer(tmp_path):
    # write_csv prints row k as "k,<its cells>": the bytes csv.writer gives
    # the table with a float step column in front (see _with_steps)
    rng = np.random.default_rng(51)
    specials = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308, 0.1]
    chunk = problem_io._CHUNK_CELLS // 5  # rows per chunk of a 5-cell row
    table = rng.standard_normal((3 * chunk + 1, 4)) * 10.0 ** rng.integers(-300, 300, (3 * chunk + 1, 4))
    table[: len(specials), 0] = specials
    table[-1, :] = specials[-4:]
    table[chunk - 1 : chunk + 1, 1] = specials[:2]  # across a chunk boundary
    header = ["k", "x_1", "x_2", "x_3", "x_4"]
    awkward = _awkward_doubles(rng)
    rule = problem_io._KERNEL_MIN_CELLS
    column = rng.standard_normal((3 * problem_io._CHUNK_CELLS + 5, 1))

    def wide(cols, rows):
        """rows x cols of the series' cells, as signed and scaled as they come."""
        return ["k"] + [f"v_{j}" for j in range(cols)], table.ravel()[: rows * cols].reshape(rows, cols)

    step = problem_io._CHUNK_CELLS // 3  # rows per chunk of a 3-cell row
    both = wide(2, step + rule // 6)
    assert 3 * (len(both[1]) - step) < rule <= 3 * step
    cases = {
        "series": (header, table),
        "one row": (header, table[:1]),
        "no rows": (header, table[:0]),
        "one column": (header[:2], table[:, :1]),
        # 2**k, 10**k and their neighbours, ties, integers, exponent and
        # fast-range edges, +-0, +-inf and random bit patterns
        "awkward, one column": (["k", "v"], awkward[:, None]),
        "awkward, 7 columns": (["k"] + ["v"] * 7, awkward[: len(awkward) // 7 * 7].reshape(-1, 7)),
        # chunks of 2-cell rows just below, at and just above the kernel's
        # size rule
        "below the rule": (["k", "v"], column[: rule // 2 - 1]),
        "at the rule": (["k", "v"], column[: rule // 2]),
        "above the rule": (["k", "v"], column[: rule // 2 + 1]),
        "rule in 4 columns": (["k", "v", "w", "z"], column[: rule // 4 * 3].reshape(-1, 3)),
        # the widths of inputs.csv and states.csv of small plants (3 and 7
        # cells, the step's included), one row short of the rule and at it
        **{f"{cols + 1} columns, {where} the rule": wide(cols, -(-rule // (cols + 1)) - short)
           for cols in (2, 6) for where, short in (("below", 1), ("at", 0))},
        # one chunk through the kernel, then a last chunk under the rule
        "both paths in one file": both,
        "one column, chunks": (["k", "v"], column),
        # step cells 99,999 and 100,000 gain a digit inside a chunk
        "steps past 100,000": (["k", "v"], rng.standard_normal((100_002, 1))),
        # rows that repeat bit for bit (see _periodic_table)
        **_periodic_cases(rng),
    }
    for name, (head, columns) in cases.items():
        write_csv(tmp_path / "got.csv", head, columns)
        _write_csv_reference(tmp_path / "want.csv", head, _with_steps(columns))
        got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
        assert got == want, name
    assert b"\r\n" in got and b'"' not in got
    # the step is printed by '%d': the bytes of '%.17g' for every k a double
    # holds exactly, up to 2**53
    for k in (9, 10, 99, 100, 9_999, 10_000, 99_999, 100_000, 10**16, 2**53):
        assert "%d" % k == "%.17g" % float(k), k


def test_written_files_keep_their_line_ends(tmp_path):
    # no writer translates line ends: write_text leaves the bytes it is
    # given, so plot.gp and report.json end their lines with "\n" and
    # sweep.csv with "\r\n"
    write_text(tmp_path / "mixed.txt", "a\r\nb\nc")
    assert (tmp_path / "mixed.txt").read_bytes() == b"a\r\nb\nc"
    problem = load_problem(bundled_problem("rotation_2d"))
    cmd_design(problem, tmp_path / "design")
    cmd_sweep_h(problem, 2, 3, tmp_path / "sweep")
    for path in (tmp_path / "design" / "plot.gp", tmp_path / "design" / "report.json"):
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, path
    text = (tmp_path / "sweep" / "sweep.csv").read_bytes()
    assert text.endswith(b"\r\n") and text.count(b"\n") == text.count(b"\r\n") == 3


def test_write_csv_kernel_proves_ordinary_tables():
    # a standard-normal table sends no cell to the '%.17g' fallback, so the
    # kernel cannot quietly hand its work back to the slow path
    tables = problem_io._kernel_tables()
    table = np.random.default_rng(52).standard_normal((4096, 9))
    assert problem_io._scaled_digits(table.ravel(), tables)[2].all()
    # nor do the neighbours of powers of ten, where log10 often puts the
    # exponent one off, but for one exact tie: 1e15 - 0.125
    powers = np.array([float(f"1e{k}") for k in range(-279, 280)])
    near = np.concatenate([np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    proved = problem_io._scaled_digits(near, tables)[2]
    assert near[~proved].tolist() == [1e15 - 0.125]


def test_write_csv_memory_is_bounded(tmp_path):
    # chunks are bounded in cells, so a wide table stays under the traced
    # peak of the earlier 1024-row chunks of '%' formatting, about 12 MB;
    # so does one built from 2 rows, whose period is formatted once and
    # whose chunks' formats hold only their own rows
    rng = np.random.default_rng(53)
    problem_io._kernel_tables()
    for table in (rng.standard_normal((4096, 200)),
                  _periodic_table(4096, rng.standard_normal((2, 200)))):
        tracemalloc.start()
        try:
            write_csv(tmp_path / "wide.csv", ["k"] + [f"x_{i}" for i in range(200)], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12.0e6


def test_write_csv_formats_one_period_of_a_periodic_table(tmp_path, monkeypatch):
    # a 4,000-row table of period 2 formats the 4 cells of one period as
    # floats; its steps are printed into that text, and no float step cell
    # is formed: formatted in full it would be 12,000 cells
    formatted = []
    rows = problem_io._format_rows

    def counting(chunk):
        formatted.append(chunk.shape)
        return rows(chunk)

    monkeypatch.setattr(problem_io, "_format_rows", counting)
    table = _periodic_table(4000, np.random.default_rng(54).standard_normal((2, 2)))
    write_csv(tmp_path / "got.csv", ["k", "u_1", "u_2"], table)
    _write_csv_reference(tmp_path / "want.csv", ["k", "u_1", "u_2"], _with_steps(table))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert formatted == [(2, 2)]


def _record_interned(monkeypatch):
    """A list that records, per call of problem_io._interned_inputs,
    whether it took the file (True) or left it to the full parse."""
    taken = []
    interned = problem_io._interned_inputs

    def recording(rows, m):
        inputs = interned(rows, m)
        taken.append(inputs is not None)
        return inputs

    monkeypatch.setattr(problem_io, "_interned_inputs", recording)
    return taken


def test_read_inputs_csv_periodic_files_match_the_full_parse(tmp_path, monkeypatch):
    # a periodic file at or above the gate is parsed one distinct row tail
    # at a time, into the array one np.loadtxt of every row gives, bit for bit
    gate = problem_io._PERIODIC_MIN_CELLS
    periodic = _record_interned(monkeypatch)
    rng = np.random.default_rng(55)
    tails = {
        "below the gate": (gate // 2 - 1, np.array([[1e-300], [-0.0], [0.0]])),
        "at the gate": (gate // 2, np.array([[1e-300], [-0.0], [0.0]])),
        "above the gate": (gate, rng.standard_normal((7, 2))),
        "period 1": (3 * gate, rng.standard_normal((1, 2))),
        "m = 6, 4,001 rows": (4001, rng.standard_normal((5, 6)) * 1e200),
    }
    for name, (n, tail) in tails.items():
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["k"] + [f"u_{j + 1}" for j in range(tail.shape[1])],
                  _periodic_table(n, tail))
        lines = path.read_text().splitlines(keepends=True)[1:]
        full = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        assert np.array_equal(full[:, 0], np.arange(n)), name
        full = full[:, 1:]
        periodic.clear()
        got = read_inputs_csv(path, tail.shape[1])
        assert periodic == ([] if name == "below the gate" else [True]), name
        assert got.shape == full.shape and got.flags.c_contiguous, name
        assert got.tobytes() == np.ascontiguousarray(full).tobytes(), name


def test_read_inputs_csv_interns_rows_in_any_order(tmp_path, monkeypatch):
    # rows that repeat out of order take the interned path up to
    # _PERIODIC_MIN_CELLS // (m + 1) distinct tails and the full parse past
    # it, and both give what one np.loadtxt of every row gives, bit for bit
    cap = problem_io._PERIODIC_MIN_CELLS // 3  # m = 2
    taken = _record_interned(monkeypatch)
    rng = np.random.default_rng(50)
    three = np.array([[-0.0, 0.0], [1e-300, -0.0], [0.0, 1e-300]])
    order = rng.integers(0, 3, 600)
    assert not any(np.array_equal(order[p:], order[:-p]) for p in range(1, 600))
    many = rng.standard_normal((cap + 1, 2))
    cases = {
        "3 tails, no period": (three[order], [True]),
        "cap tails": (many[np.resize(np.arange(cap), 600)][rng.permutation(600)], [True]),
        "cap + 1 tails": (many[np.resize(np.arange(cap + 1), 600)], [False]),
    }
    for name, (columns, want) in cases.items():
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["k", "u_1", "u_2"], columns)
        lines = path.read_text().splitlines(keepends=True)[1:]
        full = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)[:, 1:]
        taken.clear()
        got = read_inputs_csv(path, 2)
        assert taken == want, name
        assert got.shape == full.shape and got.flags.c_contiguous, name
        assert got.tobytes() == np.ascontiguousarray(full).tobytes(), name


def test_read_inputs_csv_rejects_malformed(tmp_path, capsys):
    problem = str(bundled_problem("expander_2d"))  # m = 2, so k, u_1, u_2
    good = "k,u_1,u_2\r\n0,1,-1\r\n1,-1,1\r\n"
    cases = {
        "empty": ("", "empty CSV"),
        "header width": ("k,u_1\r\n0,1\r\n", "expected 3 columns"),
        "short row": (good + "2,1\r\n", "malformed row 3"),
        "long row": ("k,u_1,u_2\r\n0,1,-1,0\r\n", "malformed row 1"),
        "non-numeric cell": (good.replace("1,-1,1", "1,-1,one"), "malformed row 2"),
        "empty cell": (good.replace("0,1,-1", "0,,-1"), "malformed row 1"),
        "blank line": (good.replace("\r\n1,", "\r\n\r\n1,"), "malformed row 2"),
        "blank first line": (good.replace("u_2\r\n", "u_2\r\n\r\n"), "malformed row 1"),
        "blank last line": (good + "\r\n", "malformed row 3"),
        "whitespace line": (good + "   \r\n", "malformed row 3"),
        "nan cell": (good.replace("1,-1,1", "1,nan,1"), "malformed row 2"),
        "inf cell": (good.replace("0,1,-1", "0,1,-inf"), "malformed row 1"),
        "Infinity cell": (good + "2,Infinity,1\r\n", "malformed row 3"),
        "nan step index": (good.replace("\r\n1,", "\r\nNaN,"), "malformed row 2"),
    }
    # a periodic file above the gate, each bad row after its first period
    rows = [f"{k},{0.5 if k % 2 else -0.25},{-0.5 if k % 2 else 0.25}\r\n" for k in range(600)]
    periodic = "k,u_1,u_2\r\n" + "".join(rows)
    for name, bad in (("short row", "300,0.25\r\n"), ("non-numeric cell", "300,-0.25,one\r\n"),
                      ("nan step index", "NaN,-0.25,0.25\r\n"), ("blank line", "\r\n"),
                      ("empty step cell", ",-0.25,0.25\r\n"),
                      ("extra column", "300,-0.25,0.25,0\r\n")):
        cases[f"periodic, {name}"] = (periodic.replace(rows[300], bad), "malformed row 301")
    cases["periodic, blank line inserted"] = (
        periodic.replace(rows[300], "\r\n" + rows[300]), "malformed row 301")
    for name, (text, message) in cases.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ProblemFormatError, match=message):
            read_inputs_csv(path, 2)
        code = main(["simulate", "--problem", problem, "--inputs", str(path),
                     "--out", str(tmp_path / "replay")])
        assert code == 2, name
        assert message in capsys.readouterr().err, name
    missing = tmp_path / "missing.csv"
    code = main(["simulate", "--problem", problem, "--inputs", str(missing),
                 "--out", str(tmp_path / "replay")])
    assert code == 2
    assert "cannot read inputs file" in capsys.readouterr().err
    # bytes that are not text fail as a non-numeric cell
    undecodable = tmp_path / "undecodable.csv"
    undecodable.write_bytes(good.encode() + b"2,\xff,1\r\n")
    with pytest.raises(ProblemFormatError, match="malformed row 3"):
        read_inputs_csv(undecodable, 2)

    # the accepted forms: "\r\n" or "\n" line ends, no final line end, no rows
    path = tmp_path / "ok.csv"
    for text in (good, good.replace("\r\n", "\n"), good.rstrip("\r\n")):
        path.write_bytes(text.encode())
        assert np.array_equal(read_inputs_csv(path, 2), [[1.0, -1.0], [-1.0, 1.0]])
    path.write_bytes(periodic.encode())
    want = np.resize([[-0.25, 0.25], [0.5, -0.5]], (600, 2))
    assert np.array_equal(read_inputs_csv(path, 2), want)
    path.write_bytes(b"k,u_1,u_2\r\n")
    assert read_inputs_csv(path, 2).shape == (0, 2)


def test_plot_script_mentions_files_and_targets(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    cmd_design(problem, tmp_path / "run")
    script = (tmp_path / "run" / "plot.gp").read_text()
    assert "states.csv" in script
    assert "inputs.csv" in script
    assert "dashtype 2" in script  # targets drawn as dashed lines
    assert "-0.6" in script


def test_every_design_writes_plot_script(tmp_path, capsys):
    # plot.gp is always written, fourth in the manifest, and no flag turns
    # it off: --no-plot is an unknown argument
    names = ["inputs.csv", "states.csv", "blocks.csv", "plot.gp", "report.json"]
    for name in list_bundled():
        if name == "identity_2d":  # analysis says "no", so nothing is designed
            continue
        out = tmp_path / name
        report = cmd_design(load_problem(bundled_problem(name)), out)
        assert report["manifest"] == [str(out / file) for file in names], name
        assert json.loads((out / "report.json").read_text())["manifest"] == report["manifest"][:4]
        assert (out / "plot.gp").stat().st_size > 0, name
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        main(["design", "--problem", str(bundled_problem("rotation_2d")), "--no-plot",
              "--out", str(tmp_path / "no-plot")])
    assert exited.value.code == 2
    assert "unrecognized arguments: --no-plot" in capsys.readouterr().err
    assert not (tmp_path / "no-plot").exists()


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
    from cbcontrol import build_scheme, lift

    calls = []
    original = design.simulate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(design, "simulate", counting)
    monkeypatch.setattr(cli, "simulate", counting)
    problem = load_problem(bundled_problem("rotation_2d"))
    report = cmd_design(problem, tmp_path / "run")
    assert report["design"]["passed"]
    assert len(calls) == 1
    _, states = read_csv(tmp_path / "run" / "states.csv")
    assert len(states) == problem.task.b * report["design"]["h"] + 1

    del calls[:]
    problem = load_problem(bundled_problem("expander_2d"))  # B = I reaches every target
    system = problem.system
    scheme = build_scheme(2, system.m)
    lifted = lift(system, scheme)
    for regime, designer in (
        ("non-repetitive", design.design_nonrepetitive),
        ("repetitive", design.design_repetitive),
    ):
        task = dataclasses.replace(problem.task, regime=regime)
        designer(lifted, task)
        design.oracle_stacked_ls(system, scheme, task)
    assert calls == []


def _counting_eig(monkeypatch) -> list:
    """np.linalg.eig, patched to append to the returned list on each call."""
    calls, original = [], np.linalg.eig

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def test_session_decomposes_each_plant_once(tmp_path, monkeypatch):
    # consecutive commands on one (A, B), whatever the task or flags, share
    # parse_problem's LtiSystem and so its one eig
    calls = _counting_eig(monkeypatch)
    drift = str(bundled_problem("drift_only"))
    for command in ("analyze", "design", "sweep-h"):
        assert main([command, "--problem", drift, "--out", str(tmp_path / command)]) == 0
    assert main(["simulate", "--problem", drift, "--inputs",
                 str(tmp_path / "design" / "inputs.csv"), "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 1

    expander = bundled_problem("expander_2d")
    for flags in ([], ["--b", "20"], ["--b", "20", "--regime", "nonrep"]):
        assert main(["analyze", "--problem", str(expander), *flags]) == 0
    assert len(calls) == 2

    # a plant one ulp away is another plant
    doc = json.loads(expander.read_text())
    doc["system"]["A"][0][1] = float(np.nextafter(doc["system"]["A"][0][1], np.inf))
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(doc))
    assert main(["analyze", "--problem", str(moved)]) == 0
    assert len(calls) == 3


def _matrix_session(work: Path, capsys, cold: bool) -> list:
    """Every run of tools/cli_matrix.py's bundled matrix, its simulate
    replays included, called in-process from work with relative paths:
    (argv, exit code, stdout, stderr, {file: bytes}) per run. A cold
    session clears the plant cache before each call."""
    runs = []

    def run(problem, variant, command, flags):
        out = Path(variant, problem, command)
        argv = [command, "--problem", f"{problem}.json", *flags, "--out", str(out)]
        if cold:
            problem_io._shared_system.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        files = {str(path): path.read_bytes() for path in sorted(out.rglob("*"))
                 if path.is_file()}
        runs.append((argv, code, captured.out, captured.err, files))
        return out

    for problem in cli_matrix.PROBLEMS:
        shutil.copy(bundled_problem(problem), work)
        for variant, flags in cli_matrix.VARIANTS.items():
            for command in cli_matrix.COMMANDS:
                out = run(problem, variant, command, flags)
                if command == "design" and (out / "inputs.csv").is_file():
                    run(problem, variant, "simulate", [*flags, "--inputs", str(out / "inputs.csv")])
    return runs


def test_warm_and_cold_sessions_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    sessions = {}
    for name in ("cold", "warm"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        calls = _counting_eig(monkeypatch)
        sessions[name] = _matrix_session(tmp_path / name, capsys, cold=name == "cold")
    assert len(calls) == len(cli_matrix.PROBLEMS)  # the warm session: one eig a plant
    cold, warm = sessions["cold"], sessions["warm"]
    assert len(cold) == 90
    assert {run[1] for run in cold} == {0, 3, 4, 5}
    for cold_run, warm_run in zip(cold, warm, strict=True):
        assert warm_run == cold_run, cold_run[0]
