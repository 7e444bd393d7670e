"""Workload ``cli-session``: in-process ``cbcontrol.cli.main(argv)`` calls.

Per problem a session runs ``analyze``, ``design --out``, ``sweep-h
--h-min 2 --h-max 6`` (non-repetitive problems only) and ``simulate
--inputs``, which replays the inputs.csv that design just wrote. One op
is one main() call with stdout captured. The cli and problem_io layers
and system.simulate do the work; the linear algebra is tiny. Design
writes and simulate reads through the same problem_io layer, so a gain
on one side that costs the other shows; sweep-h re-verdicts one plant
at five block lengths, which is shared work that analyze-grid lacks.

Problems are the five bundled files, the expander at b = 20 and 30 in
both regimes (ROADMAP item 3), and generated plants with n <= 8 and up
to 2e4 steps. A command is scheduled from the ground truth alone, so
simulate runs whenever design should have succeeded.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cbcontrol.cli as cli
from cbcontrol.bundled import bundled_problem

from outcome import (
    ERROR, EXIT_CODE, PASS, UNVERIFIED, WRONG, Outcome, verdict_outcome,
)
from plants import make_plant, power_simple, rotation_pair, unit_vector

TERMINAL_TOL = 1e-6
SWEEP_H = range(2, 7)


@dataclass
class Truth:
    """What every command of one session must produce."""

    regime: str
    verdict: str
    design_exit: int
    selected_h: int | None = None
    # h -> (conditions column, controllable column or None when not
    # certain, whether an energy must be present)
    sweep: dict | None = None


def _all_h(conditions, controllable, energy):
    return {h: (conditions, controllable, energy) for h in SWEEP_H}


YES_ROWS = _all_h("yes", "yes", True)
# Bundled problems and why each answer holds:
#  rotation_2d  120-degree rotation, B = e1: controllable, conjugate ratio of
#               order 3 so auto h = 4; at h = 3 and 6, A^h = I and the
#               conditions cannot decide, but Bbar has rank 2 (S annihilates
#               only the all-ones block), so the pair is still controllable
#  drift_only   diag(0.5, 2), B = I: every condition holds at every h
#  expander_2d  eigenvalues 2 and 0.5, B = I: every condition holds in both
#               regimes and at every b, so design must succeed
#  four_state   h = 3 identical blocks: rank(H_5 Bbar) = 4 in exact rational
#               arithmetic, so the numeric fallback must say yes
#  identity_2d  A = I has an eigenvalue at 1: "no", and design must refuse
BUNDLED = (
    ("rotation_2d", (), Truth("non-repetitive", "yes", 0, 4, {
        2: ("yes", "yes", True), 3: ("undetermined", "yes", True), 4: ("yes", "yes", True),
        5: ("yes", "yes", True), 6: ("undetermined", "yes", True)})),
    ("drift_only", (), Truth("non-repetitive", "yes", 0, None, YES_ROWS)),
    ("expander_2d", (), Truth("repetitive", "yes", 0)),
    ("four_state", (), Truth("repetitive", "yes", 0)),
    ("identity_2d", (), Truth("non-repetitive", "no", cli.EXIT_PRECONDITION, None,
                              _all_h("no", "no", False))),
    # ROADMAP item 3: B = I, so every target is reachable at any horizon
    ("expander_2d", ("--b", "20"), Truth("repetitive", "yes", 0)),
    ("expander_2d", ("--b", "20", "--regime", "nonrep"), Truth("non-repetitive", "yes", 0, None, YES_ROWS)),
    ("expander_2d", ("--b", "30"), Truth("repetitive", "yes", 0)),
    ("expander_2d", ("--b", "30", "--regime", "nonrep"), Truth("non-repetitive", "yes", 0, None, YES_ROWS)),
)
# generated: (n, m, regime, b, planted order-3 pair); b >= n throughout,
# spectral radius 0.9 so long horizons stay at unit scale
GENERATED = (
    (3, 1, "non-repetitive", 60, False),
    (4, 4, "repetitive", 150, False),
    (5, 2, "non-repetitive", 100, True),
    (6, 6, "repetitive", 500, False),
)
# one heavy session every third round, in turn: 2e4 steps, 2e3 steps,
# 2e4 steps, 2e3 steps. Heavy ops stay a small share of all ops, so
# op_p50_ms and op_p90_ms fall among the many light and mid-sized ops,
# and a run holds enough of those for steady percentiles.
HEAVY_EVERY = 3
HEAVY = (
    (4, 1, "non-repetitive", 5000, True),
    (8, 3, "non-repetitive", 1000, False),
    (8, 8, "repetitive", 10000, False),
    (8, 3, "non-repetitive", 1000, False),
)


class CliSession:
    name = "cli-session"
    # nominal seconds per round at the seed; sets how many rounds --seconds buys
    round_seconds = 0.6

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.sessions = {}

    # -- schedule -------------------------------------------------------------
    @staticmethod
    def _commands(truth: Truth) -> list:
        commands = ["analyze", "design"]
        if truth.regime == "non-repetitive":
            commands.append("sweep-h")
        if truth.design_exit == 0:
            commands.append("simulate")
        return commands

    def _round(self, r: int) -> list:
        specs = [("bundled", k) for k in range(len(BUNDLED))]
        specs += [("generated", g) for g in GENERATED]
        if r % HEAVY_EVERY == 0:
            specs.append(("generated", HEAVY[(r // HEAVY_EVERY) % len(HEAVY)]))
        cells = []
        for s, spec in enumerate(specs):
            commands = self._commands(self._spec_truth(spec))
            for c, command in enumerate(commands):
                cells.append((r, s, spec, command, c == len(commands) - 1))
        return cells

    @staticmethod
    def _spec_truth(spec) -> Truth:
        kind, value = spec
        if kind == "bundled":
            return BUNDLED[value][2]
        return Truth(value[2], "yes", 0)

    def schedule(self, rounds: int) -> list:
        return [(r, i, cell) for r in range(rounds) for i, cell in enumerate(self._round(r))]

    first_cell = (-1, 0, ("bundled", 0), "analyze", True)

    # -- one op -----------------------------------------------------------------
    def prepare(self, rng, cell):
        where, session, spec, command, last = cell
        key = (where, session)
        if command == "analyze":
            folder = self.workdir / f"r{where}-s{session}"
            folder.mkdir(parents=True, exist_ok=True)
            self.sessions[key] = self._new_session(rng, spec, folder)
        state = self.sessions[key]
        argv = [command, "--problem", str(state["problem"]), *state["extra"]]
        folder = state["folder"]
        if command == "design":
            argv += ["--out", str(folder / "design")]
        elif command == "sweep-h":
            argv += ["--h-min", "2", "--h-max", "6", "--out", str(folder / "sweep")]
        elif command == "simulate":
            argv += ["--inputs", str(folder / "design" / "inputs.csv"), "--out", str(folder / "replay")]
        return {"argv": argv, "command": command, "state": state, "last": last, "key": key}

    @staticmethod
    def _new_session(rng, spec, folder: Path) -> dict:
        kind, value = spec
        if kind == "bundled":
            name, extra, truth = BUNDLED[value]
            path = bundled_problem(name)
            xf = json.loads(path.read_text())["task"]["xf"]
            return {"problem": path, "extra": list(extra), "truth": truth, "folder": folder, "xf": xf}
        n, m, regime, b, planted = value
        if regime == "repetitive":
            plant = make_plant(rng, n, m, 0.9, inputs="orthogonal")
        else:
            pairs = (rotation_pair(1.0, 1, 3),) if planted else ()
            plant = make_plant(rng, n, m, 0.9, planted=pairs)
        sweep = None
        if regime == "non-repetitive":
            sweep = {}
            for h in SWEEP_H:
                simple = power_simple(plant.modes, h)
                if simple is True:
                    sweep[h] = ("yes", "yes", True)
                elif simple is False:
                    sweep[h] = ("undetermined", None, False)
        truth = Truth(regime, "yes", 0, plant.h if regime == "non-repetitive" else None, sweep)
        x0, xf = unit_vector(rng, n), unit_vector(rng, n)
        doc = {
            "system": {"A": plant.A.tolist(), "B": plant.B.tolist()},
            "task": {"x0": x0.tolist(), "xf": xf.tolist(), "b": b,
                     "h": "auto" if regime == "non-repetitive" else 2, "regime": regime},
        }
        path = folder / "problem.json"
        path.write_text(json.dumps(doc))
        return {"problem": path, "extra": [], "truth": truth, "folder": folder, "xf": xf.tolist()}

    @staticmethod
    def run(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        return {"code": code, "stdout": out.getvalue()}

    def check(self, op, raw) -> Outcome:
        try:
            return _check(op, raw)
        finally:
            if op["last"]:
                shutil.rmtree(op["state"]["folder"], ignore_errors=True)
                self.sessions.pop(op["key"], None)


def _check(op, raw) -> Outcome:
    truth, folder, command = op["state"]["truth"], op["state"]["folder"], op["command"]
    expected = truth.design_exit if command == "design" else cli.EXIT_OK
    code = raw["code"]
    if code != expected:
        kind = WRONG if code == cli.EXIT_OK else EXIT_CODE
        return Outcome(kind, f"{command} exited {code}, expected {expected}")
    if code != cli.EXIT_OK:
        return PASS
    if command == "analyze":
        return _check_analyze(truth, raw["stdout"])
    if command == "design":
        return _check_design(folder / "design", op["state"]["xf"])
    if command == "sweep-h":
        return _check_sweep(truth, folder / "sweep" / "sweep.csv")
    replay = folder / "replay" / "states.csv"
    original = folder / "design" / "states.csv"
    if replay.read_bytes() != original.read_bytes():
        return Outcome(WRONG, "simulate does not reproduce states.csv byte for byte")
    return PASS


def _check_analyze(truth: Truth, stdout: str) -> Outcome:
    fields = dict(
        line.split(": ", 1) for line in stdout.splitlines()
        if line.startswith(("verdict: ", "selected h: "))
    )
    outcome = verdict_outcome("analyze", fields.get("verdict", "<missing>"), truth.verdict)
    if not outcome.ok:
        return outcome
    if truth.selected_h is not None:
        selected = fields.get("selected h", "").split(" ")[0]
        if selected != str(truth.selected_h):
            return Outcome(WRONG, f"selected h {selected!r}, certified {truth.selected_h}")
    return PASS


def _check_design(folder: Path, xf) -> Outcome:
    report = json.loads((folder / "report.json").read_text())
    if report["design"]["passed"] is not True:
        return Outcome(UNVERIFIED, "report.json has passed = false with exit 0")
    last = (folder / "states.csv").read_text().rstrip("\n").rsplit("\n", 1)[-1]
    terminal = np.array([float(cell) for cell in last.split(",")[1:]])
    error = float(np.linalg.norm(terminal - np.asarray(xf)))
    if not error <= TERMINAL_TOL:
        return Outcome(WRONG, f"passed plan ends {error:.3e} from the target")
    return PASS


def _check_sweep(truth: Truth, path: Path) -> Outcome:
    lines = path.read_text().strip().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    table = {int(float(row[0])): dict(zip(header, row)) for row in rows}
    for h, (conditions, controllable, energy) in truth.sweep.items():
        row = table.get(h)
        if row is None:
            return Outcome(WRONG, f"sweep-h has no row for h = {h}")
        outcome = verdict_outcome(f"sweep-h conditions at h = {h}", row["conditions"], conditions)
        if not outcome.ok:
            return outcome
        if controllable is not None:
            outcome = verdict_outcome(f"sweep-h at h = {h}", row["controllable"], controllable)
            if not outcome.ok:
                return outcome
        if energy and row["energy"] == "":
            return Outcome(f"{ERROR}:ReachabilityError", f"sweep-h designs nothing at h = {h}")
        if not energy and controllable == "no" and row["energy"] != "":
            return Outcome(WRONG, f"sweep-h designs a plan at h = {h} where the verdict is no")
    return PASS

