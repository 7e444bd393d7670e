"""One workload in a fresh interpreter; started by run.py, not by hand.

The set-up being measured is everything up to the return of the
workload's first op: interpreter start, ``import cbcontrol`` and
``cbcontrol.cli``, then the first op. The benchmark's own imports and
input generation in between are timed here and reported, so the runner
subtracts them. Right after the first op the worker takes a few
yardstick samples and prints ``ready <excluded seconds> <scale>``: the
runner's clock stops when it reads the line, the samples' time is part
of the excluded seconds, and the scale converts set-up to nominal host
speed as for op times.

Modes: ``setup`` stops after the first op; ``run`` then times its part
of the schedule (rounds r with r % parts == part); ``trace`` runs half
the schedule untraced and the same half traced. The last stdout line is
a JSON document for the runner.
"""

import time

import cbcontrol  # noqa: F401  (the import is part of the measured set-up)
import cbcontrol.cli  # noqa: F401

IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from analyze_grid import AnalyzeGrid  # noqa: E402
from cli_session import CliSession  # noqa: E402
from design_horizon import DesignHorizon  # noqa: E402
from outcome import error  # noqa: E402
import selftest  # noqa: E402
from tracing import Tracer  # noqa: E402
import yardstick  # noqa: E402

WORKLOADS = ("analyze-grid", "design-horizon", "cli-session")
# a run times at least this many ops, so at least ten lie beyond p90
MIN_OPS = 100
# yardstick samples that scale one set-up measurement
SETUP_SAMPLES = 5


def make_workload(name: str, workdir: Path):
    if name == "analyze-grid":
        return AnalyzeGrid()
    if name == "design-horizon":
        return DesignHorizon()
    return CliSession(workdir)


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds filling ``seconds`` at the seed's speed, >= MIN_OPS ops.

    The op list depends only on the seed and ``seconds``, never on how
    fast this machine or this commit is, so every run of one seed does
    the same work and fail_ratio and calls repeat exactly.
    """
    rounds = max(1, round(seconds / workload.round_seconds))
    while len(workload.schedule(rounds)) < MIN_OPS:
        rounds += 1
    return rounds


def one_op(workload, seed: int, entry, op_id: int, sampler, tracer=None):
    """Prepare (untimed), run (timed), check (untimed); returns (ms, Outcome)."""
    r, i, cell = entry
    rng = np.random.default_rng([seed, r + 1, i])
    inputs = workload.prepare(rng, cell)
    if tracer is not None:
        tracer.begin(op_id)
    sampler.start()
    start = time.perf_counter()
    try:
        raw = workload.run(inputs)
    except Exception as exc:  # a failed op is counted, and the run continues
        raw, outcome = None, error(exc)
    elapsed = time.perf_counter() - start
    sampler.stop()
    if tracer is not None:
        tracer.end()
    if raw is not None:
        outcome = checked(workload, inputs, raw)
    return (elapsed - sampler.paused) * 1e3, outcome


def checked(workload, inputs, raw):
    try:
        return workload.check(inputs, raw)
    except Exception as exc:  # output too malformed to check
        return error(exc, "check")


def run_pass(workload, seed, schedule, tracer=None) -> dict:
    """Every op of the schedule, with a yardstick sample before and after each.

    ``times_ms`` are the op times at the yardstick's nominal host speed;
    ``raw_ms`` are the wall times less the samples taken inside ops.
    """
    sampler = yardstick.InsideSampler(tracer.pause if tracer is not None else None)
    raw, kinds, between, inside, examples = [], [], [yardstick.sample()], [], {}
    for op_id, entry in enumerate(schedule):
        ms, outcome = one_op(workload, seed, entry, op_id, sampler, tracer)
        raw.append(ms)
        kinds.append(outcome.kind)
        inside.append(sampler.samples)
        if not outcome.ok:
            examples.setdefault(outcome.kind, f"{entry[2]}: {outcome.detail}")
        between.append(yardstick.sample())
    factors = yardstick.scales(between, inside)
    return {
        "times_ms": [ms * f for ms, f in zip(raw, factors)],
        "raw_ms": raw,
        "kinds": kinds,
        "factors": factors,
        "examples": examples,
    }


def first_op(workload, seed: int):
    """The set-up op; prints the ready line as soon as it returns."""
    inputs = workload.prepare(np.random.default_rng([seed, 0, 0]), workload.first_cell)
    excluded = time.perf_counter() - IMPORTED
    try:
        raw = workload.run(inputs)
    except Exception as exc:  # counted like any failed op
        raw, outcome = None, error(exc)
    start = time.perf_counter()
    scale = yardstick.NOMINAL_MS / statistics.median(yardstick.sample() for _ in range(SETUP_SAMPLES))
    excluded += time.perf_counter() - start
    print("ready", excluded, scale, flush=True)
    return outcome if raw is None else checked(workload, inputs, raw)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args()

    root = Path(args.root).resolve()
    source = Path(cbcontrol.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"cbcontrol was imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 3
    warnings.simplefilter("ignore")  # verdict warnings are expected; outcomes are checked

    workdir = root / ".bench_work" / f"{args.workload}-{args.mode}{args.part}-{args.seed}"
    workload = make_workload(args.workload, workdir)
    try:
        first = first_op(workload, args.seed)
        result = {"first": first.kind}
        if args.mode == "run":
            schedule = workload.schedule(rounds_for(workload, args.seconds))
            schedule = [entry for entry in schedule if entry[0] % args.parts == args.part]
            result.update(run_pass(workload, args.seed, schedule))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.mode == "trace":
            rounds = max(1, rounds_for(workload, args.seconds) // 2)
            schedule = workload.schedule(rounds)
            result["untraced"] = run_pass(workload, args.seed, schedule)
            tracer = Tracer()
            tracer.install()
            try:
                result.update(run_pass(workload, args.seed, schedule, tracer))
            finally:
                tracer.uninstall()
            result["layers"] = tracer.metrics(result["factors"])
            out = root / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}.jsonl")
        if args.mode != "setup":
            result["selftest"] = selftest.run(workdir / "selftest")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
