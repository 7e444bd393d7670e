"""Command-line front end: analyze, design, sweep-h, and simulate (replay).

Exit codes: 0 success, 2 problem-file parse error, 3 unreachable target,
4 analysis precondition failure, 5 design wrote a plan that failed its own
verification (every output file is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
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
    SteeringTask,
    design_nonrepetitive,
    design_repetitive,
    verify_plan,
)
from .errors import (
    AnalysisError,
    InfeasibleTaskError,
    PreconditionError,
    ProblemFormatError,
    ReachabilityError,
)
from .lifting import lift
from .problem_io import Problem, load_problem, read_inputs_csv, write_csv
from .system import simulate

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNREACHABLE = 3
EXIT_PRECONDITION = 4
EXIT_UNVERIFIED = 5


@dataclass(frozen=True, eq=False)
class RunReport:
    """What one command produced: verdict data, design data, emitted files."""

    verdict: dict | None = None
    design: dict | None = None
    rows: tuple = ()
    manifest: tuple = ()


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


def _resolve_h(problem: Problem):
    """The block length to use, plus the selection certificate when automatic."""
    if problem.h is not None:
        return problem.h, None
    if problem.regime == NON_REPETITIVE:
        orders = unit_ratio_orders(problem.system, tol=problem.tolerances)
        h = select_h(problem.system, tol=problem.tolerances, orders=orders)
        return h, {"selected_h": h, "ratio_orders": [dataclasses.asdict(o) for o in orders]}
    # identical blocks: the h = 2 conditions are the ones with coverage
    return 2, {"selected_h": 2, "ratio_orders": []}


def _analyze(problem: Problem):
    """(h, verdict, verdict document) for the problem's regime."""
    h, cert = _resolve_h(problem)
    if problem.regime == REPETITIVE:
        verdict = check_repetitive_sufficient(
            problem.system, problem.b, h=h, tol=problem.tolerances
        )
    else:
        verdict = check_nonrepetitive_sufficient(problem.system, h, tol=problem.tolerances)
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


def cmd_analyze(problem: Problem, out_dir=None) -> RunReport:
    """Condition-by-condition controllability verdict for the problem."""
    _, _, doc = _analyze(problem)
    _print_verdict(doc)
    manifest = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        report_path.write_text(json.dumps({"verdict": doc}, indent=2) + "\n")
        manifest.append(str(report_path))
    return RunReport(verdict=doc, manifest=tuple(manifest))


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


def _write_series(path, prefix: str, series):
    """Rows k, prefix_1 .. prefix_d: the layout of inputs.csv and states.csv."""
    write_csv(
        path,
        ["k"] + [f"{prefix}_{i + 1}" for i in range(series.shape[1])],
        ([float(k)] + list(row) for k, row in enumerate(series)),
    )


def cmd_design(problem: Problem, out_dir, plot: bool = True) -> RunReport:
    """Design, verify, and serialize a minimum-energy plan.

    Refuses to design when the analysis verdict is "no". Writes
    inputs.csv, states.csv, blocks.csv, report.json, and (optionally)
    plot.gp into the output directory.
    """
    h, verdict, verdict_doc = _analyze(problem)
    if verdict.controllable == "no":
        failing = "; ".join(r.name for r in verdict.reasons if not r.holds)
        raise PreconditionError(
            "design precondition failed: analysis verdict is 'no' "
            f"(failing conditions: {failing})"
        )

    system, tol = problem.system, problem.tolerances
    scheme = build_scheme(h, system.m)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=problem.x0, xf=problem.xf, b=problem.b, regime=problem.regime)
    design = design_repetitive if problem.regime == REPETITIVE else design_nonrepetitive
    plan = design(lifted, task, tol)
    check = verify_plan(system, scheme, task, plan, tol)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs_path = out_dir / "inputs.csv"
    states_path = out_dir / "states.csv"
    blocks_path = out_dir / "blocks.csv"
    report_path = out_dir / "report.json"

    _write_series(inputs_path, "u", plan.flat_inputs)
    _write_series(states_path, "x", check.trajectory.states)
    block_energies = [float(U @ U) for U in plan.blocks]
    write_csv(
        blocks_path,
        ["p", "energy", "imbalance"],
        ([float(p), e, imb] for p, (e, imb) in enumerate(zip(block_energies, check.imbalances))),
    )
    manifest = [str(inputs_path), str(states_path), str(blocks_path)]
    if plot:
        plot_path = out_dir / "plot.gp"
        plot_path.write_text(_plot_script(system.n, system.m, problem.xf))
        manifest.append(str(plot_path))

    design_doc = {
        "h": h,
        "b": problem.b,
        "regime": problem.regime,
        "energy": plan.energy,
        "terminal_error": check.terminal_error,
        "per_block_energies": block_energies,
        "max_imbalance": float(check.imbalances.max()),
        "passed": check.passed,
    }
    report = {"verdict": verdict_doc, "design": design_doc, "manifest": manifest}
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    manifest.append(str(report_path))

    print(
        f"designed {problem.regime} plan: h = {h}, b = {problem.b}, "
        f"energy {plan.energy:.6g}, terminal error {check.terminal_error:.3e}"
    )
    for path in manifest:
        print(f"wrote {path}")
    return RunReport(verdict=verdict_doc, design=design_doc, manifest=tuple(manifest))


def cmd_sweep_h(problem: Problem, h_min: int, h_max: int, out_dir) -> RunReport:
    """Tabulate verdict, rank, and achievable energy across block lengths."""
    if problem.regime != NON_REPETITIVE:
        raise PreconditionError("sweep-h applies to the non-repetitive regime only")
    if h_min < 2 or h_max < h_min:
        raise PreconditionError(
            f"need 2 <= h_min <= h_max, got [{h_min}, {h_max}]"
        )
    system, tol = problem.system, problem.tolerances
    rows = []
    for h in range(h_min, h_max + 1):
        verdict = check_nonrepetitive_sufficient(system, h, tol)
        energy = ""
        if verdict.controllable != "no":
            lifted = lift(system, build_scheme(h, system.m))
            task = SteeringTask(
                x0=problem.x0, xf=problem.xf, b=problem.b, regime=NON_REPETITIVE
            )
            try:
                energy = design_nonrepetitive(lifted, task, tol).energy
            except ReachabilityError:
                energy = ""
        rows.append(
            {
                "h": h,
                "conditions": verdict.conditions,
                "numeric_rank": verdict.numeric_rank,
                "controllable": verdict.controllable,
                "energy": energy,
            }
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_path = out_dir / "sweep.csv"
    write_csv(
        sweep_path,
        ["h", "conditions", "numeric_rank", "controllable", "energy"],
        (
            [float(r["h"]), r["conditions"], float(r["numeric_rank"]),
             r["controllable"], r["energy"] if r["energy"] == "" else float(r["energy"])]
            for r in rows
        ),
    )
    print(f"{'h':>3}  {'conditions':>12}  {'rank':>4}  {'controllable':>12}  energy")
    for r in rows:
        energy = f"{r['energy']:.6g}" if r["energy"] != "" else "-"
        print(
            f"{r['h']:>3}  {r['conditions']:>12}  {r['numeric_rank']:>4}  "
            f"{r['controllable']:>12}  {energy}"
        )
    print(f"wrote {sweep_path}")
    return RunReport(rows=tuple(rows), manifest=(str(sweep_path),))


def cmd_simulate(problem: Problem, inputs_path, out_dir) -> RunReport:
    """Replay a serialized input sequence and write the resulting states."""
    system = problem.system
    inputs = read_inputs_csv(inputs_path, system.m)
    traj = simulate(system, problem.x0, inputs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    states_path = out_dir / "states.csv"
    _write_series(states_path, "x", traj.states)
    terminal_error = float(np.linalg.norm(traj.terminal - problem.xf))
    print(
        f"replayed {traj.horizon} steps, terminal error {terminal_error:.3e}, "
        f"wrote {states_path}"
    )
    return RunReport(
        design={"terminal_error": terminal_error, "steps": traj.horizon},
        manifest=(str(states_path),),
    )


def _parse_h_flag(value: str):
    if value == "auto":
        return None
    try:
        h = int(value)
    except ValueError:
        h = None
    if h is None or h < 2:
        raise argparse.ArgumentTypeError("--h must be an integer >= 2 or 'auto'")
    return h


_REGIME_ALIASES = {"rep": REPETITIVE, "nonrep": NON_REPETITIVE, **{r: r for r in REGIMES}}

_UNSET = object()


def _add_common(parser: argparse.ArgumentParser, needs_out: bool):
    parser.add_argument("--problem", required=True, help="path to a JSON problem file")
    parser.add_argument(
        "--out", required=needs_out, default=None, help="output directory"
    )
    parser.add_argument(
        "--h", type=_parse_h_flag, default=_UNSET,
        help="override block length (integer >= 2 or 'auto')",
    )
    parser.add_argument("--b", type=int, default=None, help="override block horizon")
    parser.add_argument(
        "--regime", choices=sorted(_REGIME_ALIASES), default=None,
        help="override regime (rep / nonrep)",
    )
    parser.add_argument("--tol-term", type=float, default=None,
                        help="terminal-state tolerance override")
    parser.add_argument("--tol-cb", type=float, default=None,
                        help="charge-balance tolerance override")
    parser.add_argument("--max-order", type=int, default=None,
                        help="largest ratio order searched in block-length selection")


def _apply_overrides(problem: Problem, args) -> Problem:
    updates = {}
    if args.h is not _UNSET:
        updates["h"] = args.h
    if args.b is not None:
        if args.b < 1:
            raise ProblemFormatError("--b must be a positive integer")
        updates["b"] = args.b
    if args.regime is not None:
        updates["regime"] = _REGIME_ALIASES[args.regime]
    flags = {"terminal": args.tol_term, "charge_balance": args.tol_cb, "max_order": args.max_order}
    tol_updates = {name: value for name, value in flags.items() if value is not None}
    if tol_updates:
        try:
            updates["tolerances"] = problem.tolerances.with_overrides(**tol_updates)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc
    return dataclasses.replace(problem, **updates) if updates else problem


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbcontrol",
        description="Charge-balanced control: analyze, design, sweep-h, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="controllability verdict")
    _add_common(p_analyze, needs_out=False)

    p_design = sub.add_parser("design", help="minimum-energy plan plus CSV output")
    _add_common(p_design, needs_out=True)
    p_design.add_argument(
        "--plot", action=argparse.BooleanOptionalAction, default=True,
        help="emit a gnuplot script next to the CSVs",
    )

    p_sweep = sub.add_parser("sweep-h", help="verdict and energy across block lengths")
    _add_common(p_sweep, needs_out=True)
    p_sweep.add_argument("--h-min", type=int, default=2)
    p_sweep.add_argument("--h-max", type=int, default=6)

    p_sim = sub.add_parser("simulate", help="replay a serialized input sequence")
    _add_common(p_sim, needs_out=True)
    p_sim.add_argument("--inputs", required=True, help="inputs.csv to replay")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = _apply_overrides(load_problem(args.problem), args)
        if args.command == "analyze":
            cmd_analyze(problem, args.out)
        elif args.command == "design":
            report = cmd_design(problem, args.out, plot=args.plot)
            if not report.design["passed"]:
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
    except (ReachabilityError, InfeasibleTaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except (PreconditionError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
