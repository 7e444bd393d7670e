"""Run design-horizon's ops in one process and print one outcome line per op.

The schedule is the benchmark's own: `worker.rounds_for` at --seconds,
and each op runs as a benchmark worker runs it: `prepare` with
`default_rng([seed, r + 1, i])`, then `run`, then `check`, with warnings
ignored and an exception counted as its `error:` kind. For each op it
prints the schedule index, the cell, the outcome kind, the terminal error
of verify_plan in float.hex() and the first 16 hex digits of the sha256
of the plan's inputs ("-" for both when no plan was made). Then it prints
the count of each kind, the failed ops against the schedule's length,
one sha256 over the non-repetitive lines and one over the repetitive
lines, so a change that keeps either law's arithmetic shows in one line
that it leaves that law's plans bit for bit alone, and last
`peak_rss_mb <value>`: the `ru_maxrss` of this one process in MB, as
benchmark/worker.py reads it, so the whole schedule's peak memory shows
without a benchmark run.

Two checkouts with the same outcomes print the same lines but the last,
so compare them with diff:

    python3 tools/op_outcomes.py --seed 1 > after.txt
    python3 tools/op_outcomes.py --seed 1 --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

--src runs the package sources of another checkout instead of the ones
next to this script; the benchmark code is always this checkout's. BLAS
runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import sys
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def op_lines(seed: int, seconds: float):
    """Yield (cell, kind, line) for every op of design-horizon's schedule at seed and seconds."""
    import numpy as np
    from design_horizon import DesignHorizon
    from outcome import error
    from worker import checked, rounds_for

    workload = DesignHorizon()
    for index, (r, i, cell) in enumerate(workload.schedule(rounds_for(workload, seconds))):
        inputs = workload.prepare(np.random.default_rng([seed, r + 1, i]), cell)
        try:
            raw = workload.run(inputs)
        except Exception as exc:  # a failed op is counted, as the worker counts it
            raw, outcome = None, error(exc)
        terminal = plan = "-"
        if raw is not None:
            outcome = checked(workload, inputs, raw)
            terminal = raw["report"].terminal_error.hex()
            plan = hashlib.sha256(raw["plan"].flat_inputs.tobytes()).hexdigest()[:16]
        yield cell, outcome.kind, f"{index} {cell} {outcome.kind} {terminal} {plan}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sets the number of rounds, as benchmark/run.py's flag (default 10)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cbcontrol package (default: this checkout's src)")
    args = parser.parse_args(argv)
    # before numpy loads, as benchmark/run.py does for its workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmark")]
    warnings.simplefilter("ignore")  # verdict warnings are expected; outcomes are checked

    kinds = Counter()
    regimes = {"non-repetitive": hashlib.sha256(), "repetitive": hashlib.sha256()}
    for cell, kind, line in op_lines(args.seed, args.seconds):
        print(line, flush=True)
        kinds[kind] += 1
        regimes[cell[0]].update(line.encode() + b"\n")
    ops = sum(kinds.values())
    print("kinds " + " ".join(f"{kind}={count}" for kind, count in sorted(kinds.items())))
    print(f"failed {ops - kinds['ok']} of {ops}")
    for regime, digest in regimes.items():
        print(f"{regime} sha256={digest.hexdigest()}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
