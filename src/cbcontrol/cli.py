"""Command-line front end: analyze, design, sweep-h, and simulate (replay).

Exit codes: 0 success, 2 problem-file parse error or bad flag value
(including an --out path that cannot be created as a directory, and an
output file that cannot be written), 3 unreachable target, 4 analysis
precondition failure, float64 overflow or a horizon too long to hold in
memory, 5 design wrote a plan that failed its own verification (every
output file is still written).
Every command creates --out before it analyzes, designs or replays, so
an unusable --out exits 2 before any of that work, and a design that
exits 3 or 4 writes nothing into it (a new directory stays empty).
report.json is strict JSON: a non-finite number is written as null.

main() builds its argument parser once per process, on the first call, and
reuses it for every later call. Consecutive calls on one plant (A and B
equal bit for bit, whatever the task or flags) share the LtiSystem that
problem_io.parse_problem holds, so A is decomposed and PBH decided once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ControllabilityVerdict,
    check_nonrepetitive_sufficient,
    check_repetitive_sufficient,
    select_h,
    unit_ratio_orders,
)
from .charge_balance import build_scheme
from .design import (
    NON_REPETITIVE,
    REGIMES,
    REPETITIVE,
    design_nonrepetitive,
    design_repetitive,
    verify_plan,
)
from .errors import AnalysisError, PreconditionError, ProblemFormatError, ReachabilityError
from .lifting import lift
from .problem_io import FLOAT_FMT, Problem, load_problem, read_inputs_csv, write_csv, write_text
from .system import simulate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNREACHABLE = 3
EXIT_PRECONDITION = 4
EXIT_UNVERIFIED = 5


def _verdict_dict(verdict: ControllabilityVerdict, h: int, extra: dict | None = None) -> dict:
    return {
        "mode": verdict.mode,
        "h": h,
        "controllable": verdict.controllable,
        "conditions": verdict.conditions,
        "numeric_rank": verdict.numeric_rank,
        "singular_values": [float(s) for s in verdict.singular_values],
        "reasons": [
            {"name": r.name, "holds": r.holds, "detail": r.detail}
            for r in verdict.reasons
        ],
        **(extra or {}),
    }


def _strict(value):
    """value with every non-finite float replaced by None, for strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return value


def _output_dir(out_dir) -> Path:
    """The --out directory, created if missing.

    A path that cannot be a directory (an existing file, say) is a bad
    flag value: ProblemFormatError naming the path.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProblemFormatError(
            f"cannot use --out {out_dir}: {exc.strerror or exc}"
        ) from exc
    return out_dir


def _write_report(path: Path, report: dict):
    write_text(path, json.dumps(_strict(report), indent=2, allow_nan=False) + "\n")


def _resolve_h(problem: Problem):
    """The block length to use, plus the selection certificate when automatic."""
    if problem.h is not None:
        return problem.h, None
    if problem.task.regime == NON_REPETITIVE:
        h = select_h(problem.system)
        orders = [dataclasses.asdict(o) for o in unit_ratio_orders(problem.system)]
        return h, {"selected_h": h, "ratio_orders": orders}
    # identical blocks: the h = 2 conditions are the ones with coverage
    return 2, {"selected_h": 2, "ratio_orders": []}


def _analyze(problem: Problem):
    """(h, verdict, verdict document) for the problem's regime."""
    h, cert = _resolve_h(problem)
    if problem.task.regime == REPETITIVE:
        verdict = check_repetitive_sufficient(problem.system, problem.task.b, h=h)
    else:
        verdict = check_nonrepetitive_sufficient(problem.system, h)
    return h, verdict, _verdict_dict(verdict, h, cert)


def _print_verdict(doc: dict):
    print(f"mode: {doc['mode']} (h = {doc['h']})")
    for reason in doc["reasons"]:
        mark = "x" if reason["holds"] else " "
        detail = f"  ({reason['detail']})" if reason["detail"] else ""
        print(f"  [{mark}] {reason['name']}{detail}")
    print(f"numeric rank: {doc['numeric_rank']}")
    if "selected_h" in doc:
        orders = ", ".join(
            f"({o['i']},{o['j']}) order {o['order']}" for o in doc["ratio_orders"]
        )
        print(f"selected h: {doc['selected_h']}" + (f" from ratio orders {orders}" if orders else ""))
    print(f"verdict: {doc['controllable']}")


def cmd_analyze(problem: Problem, out_dir=None) -> dict:
    """Condition-by-condition controllability verdict for the problem.

    Returns the report: the verdict document, as written to report.json
    when out_dir is given, and the manifest of written files.
    """
    report_path = None if out_dir is None else _output_dir(out_dir) / "report.json"
    _, _, doc = _analyze(problem)
    _print_verdict(doc)
    report = {"verdict": doc}
    if report_path is not None:
        _write_report(report_path, report)
    report["manifest"] = [] if report_path is None else [str(report_path)]
    return report


def _plot_script(n: int, m: int, xf) -> str:
    lines = [
        "# state and input traces; render with: gnuplot plot.gp",
        "set datafile separator ','",
        "set terminal pngcairo size 900,700",
        "set output 'trajectory.png'",
        "set multiplot layout 2,1",
        "set xlabel 'k'",
        "set ylabel 'state'",
    ]
    state_parts = [
        f"'states.csv' skip 1 using 1:{i + 2} with linespoints title 'x_{i + 1}'"
        for i in range(n)
    ]
    state_parts += [
        f"{float(xf[i])!r} with lines dashtype 2 title 'target x_{i + 1}'"
        for i in range(n)
    ]
    lines.append("plot " + ", \\\n     ".join(state_parts))
    lines.append("set ylabel 'input'")
    input_parts = [
        f"'inputs.csv' skip 1 using 1:{j + 2} with impulses title 'u_{j + 1}'"
        for j in range(m)
    ]
    lines.append("plot " + ", \\\n     ".join(input_parts))
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def _header(prefix: str, d: int) -> list[str]:
    """k, prefix_1 .. prefix_d: the header of inputs.csv and states.csv."""
    return ["k"] + [f"{prefix}_{i + 1}" for i in range(d)]


def cmd_design(problem: Problem, out_dir) -> dict:
    """Design, verify, and serialize a minimum-energy plan.

    Refuses to design when the analysis verdict is "no". Writes
    inputs.csv, states.csv, blocks.csv, plot.gp and report.json into the
    output directory, which is created before any analysis, so an
    unusable --out fails first. Returns the report that report.json
    holds, its manifest then extended by report.json itself.
    """
    out_dir = _output_dir(out_dir)
    h, verdict, verdict_doc = _analyze(problem)
    if verdict.controllable == "no":
        failing = "; ".join(r.name for r in verdict.reasons if not r.holds)
        raise PreconditionError(
            "design precondition failed: analysis verdict is 'no' "
            f"(failing conditions: {failing})"
        )

    system, task, tol = problem.system, problem.task, problem.tolerances
    scheme = build_scheme(h, system.m)
    lifted = lift(system, scheme)
    design = design_repetitive if task.regime == REPETITIVE else design_nonrepetitive
    plan = design(lifted, task)
    check = verify_plan(system, scheme, task, plan, tol)

    inputs_path = out_dir / "inputs.csv"
    states_path = out_dir / "states.csv"
    blocks_path = out_dir / "blocks.csv"
    report_path = out_dir / "report.json"

    write_csv(inputs_path, _header("u", system.m), plan.flat_inputs)
    write_csv(states_path, _header("x", system.n), check.trajectory.states)
    block_energies = np.square(plan.flat_inputs).reshape(task.b, -1).sum(axis=1)
    write_csv(blocks_path, ["p", "energy", "imbalance"],
              np.column_stack((block_energies, check.imbalances)))
    plot_path = out_dir / "plot.gp"
    write_text(plot_path, _plot_script(system.n, system.m, task.xf))
    manifest = [str(inputs_path), str(states_path), str(blocks_path), str(plot_path)]

    design_doc = {
        "h": h,
        "b": task.b,
        "regime": task.regime,
        "energy": plan.energy,
        "terminal_error": check.terminal_error,
        "max_imbalance": float(check.imbalances.max()),
        "passed": check.passed,
    }
    report = {"verdict": verdict_doc, "design": design_doc, "manifest": manifest}
    _write_report(report_path, report)
    manifest.append(str(report_path))

    print(
        f"designed {task.regime} plan: h = {h}, b = {task.b}, "
        f"energy {plan.energy:.6g}, terminal error {check.terminal_error:.3e}"
    )
    for path in manifest:
        print(f"wrote {path}")
    return report


def cmd_sweep_h(problem: Problem, h_min: int, h_max: int, out_dir) -> list[dict]:
    """Tabulate verdict, rank and the designed plan's unverified energy per h; returns the rows."""
    if h_min < 2 or h_max < h_min:
        raise ProblemFormatError(f"need 2 <= h_min <= h_max, got [{h_min}, {h_max}]")
    if problem.task.regime != NON_REPETITIVE:
        raise PreconditionError("sweep-h applies to the non-repetitive regime only")
    out_dir = _output_dir(out_dir)
    system, task = problem.system, problem.task
    columns = ("h", "conditions", "numeric_rank", "controllable", "energy")
    # FLOAT_FMT prints the ints h and rank as integers; a blank energy stays blank
    line = f"{FLOAT_FMT},%s,{FLOAT_FMT},%s,%s\r\n"
    rows, lines = [], [",".join(columns) + "\r\n"]
    for h in range(h_min, h_max + 1):
        verdict = check_nonrepetitive_sufficient(system, h)
        energy = ""
        if verdict.controllable != "no":
            lifted = lift(system, build_scheme(h, system.m))
            try:
                energy = design_nonrepetitive(lifted, task).energy
            except ReachabilityError:
                pass
        values = (h, verdict.conditions, verdict.numeric_rank, verdict.controllable, energy)
        rows.append(dict(zip(columns, values)))
        lines.append(line % (*values[:4], energy if energy == "" else FLOAT_FMT % energy))

    sweep_path = out_dir / "sweep.csv"
    write_text(sweep_path, "".join(lines))
    print(f"{'h':>3}  {'conditions':>12}  {'rank':>4}  {'controllable':>12}  energy")
    for r in rows:
        energy = f"{r['energy']:.6g}" if r["energy"] != "" else "-"
        print(
            f"{r['h']:>3}  {r['conditions']:>12}  {r['numeric_rank']:>4}  "
            f"{r['controllable']:>12}  {energy}"
        )
    print(f"wrote {sweep_path}")
    return rows


def cmd_simulate(problem: Problem, inputs_path, out_dir):
    """Replay a serialized input sequence and write the resulting states."""
    states_path = _output_dir(out_dir) / "states.csv"
    system = problem.system
    inputs = read_inputs_csv(inputs_path, system.m)
    traj = simulate(system, problem.task.x0, inputs)
    write_csv(states_path, _header("x", system.n), traj.states)
    terminal_error = float(np.linalg.norm(traj.terminal - problem.task.xf))
    print(
        f"replayed {traj.horizon} steps, terminal error {terminal_error:.3e}, "
        f"wrote {states_path}"
    )


_REGIME_ALIASES = {"rep": REPETITIVE, "nonrep": NON_REPETITIVE, **{r: r for r in REGIMES}}


def _int_or_auto(value: str):
    try:
        return value if value == "auto" else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'auto', got {value!r}") from None


def _add_common(parser: argparse.ArgumentParser, needs_out: bool):
    parser.add_argument("--problem", required=True, help="path to a JSON problem file")
    parser.add_argument(
        "--out", required=needs_out, default=None, help="output directory"
    )
    # an override's dest is the problem-file field it replaces: argparse
    # converts the text, and parse_problem checks the value
    parser.add_argument("--h", dest="task.h", metavar="H", type=_int_or_auto,
                        help="override block length (integer >= 2 or 'auto')")
    parser.add_argument("--b", dest="task.b", metavar="B", type=int, help="override block horizon")
    parser.add_argument("--regime", dest="task.regime", choices=sorted(_REGIME_ALIASES),
                        type=lambda value: _REGIME_ALIASES.get(value, value),
                        help="override regime (rep / nonrep)")
    parser.add_argument("--tol-term", dest="tolerances.terminal", metavar="TOL_TERM",
                        type=float, help="terminal-state tolerance override")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the process.

    parse_args returns a fresh Namespace on every call, so nothing
    carries over from one main() call to the next.
    """
    parser = argparse.ArgumentParser(
        prog="cbcontrol",
        description="Charge-balanced control: analyze, design, sweep-h, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="controllability verdict")
    _add_common(p_analyze, needs_out=False)

    p_design = sub.add_parser("design", help="minimum-energy plan plus CSV output")
    _add_common(p_design, needs_out=True)

    p_sweep = sub.add_parser("sweep-h", help="verdict and energy across block lengths")
    _add_common(p_sweep, needs_out=True)
    p_sweep.add_argument("--h-min", type=int, default=2)
    p_sweep.add_argument("--h-max", type=int, default=6)

    p_sim = sub.add_parser("simulate", help="replay a serialized input sequence")
    _add_common(p_sim, needs_out=True)
    p_sim.add_argument("--inputs", required=True, help="inputs.csv to replay")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # float64 overflow is reported once, as exit 4, exit 5 or a null in
        # report.json, so numpy's own overflow warnings are not printed
        with np.errstate(over="ignore", invalid="ignore"):
            overrides = {name: value for name, value in vars(args).items()
                         if "." in name and value is not None}
            if args.command == "sweep-h" and "task.h" in overrides:
                raise ProblemFormatError("sweep-h takes --h-min/--h-max, not --h")
            problem = load_problem(args.problem, overrides)
            if args.command == "analyze":
                cmd_analyze(problem, args.out)
            elif args.command == "design":
                report = cmd_design(problem, args.out)
                if not report["design"]["passed"]:
                    print("error: the designed plan failed verification; see report.json",
                          file=sys.stderr)
                    return EXIT_UNVERIFIED
            elif args.command == "sweep-h":
                cmd_sweep_h(problem, args.h_min, args.h_max, args.out)
            elif args.command == "simulate":
                cmd_simulate(problem, args.inputs, args.out)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ReachabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (PreconditionError, AnalysisError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
