"""cbcontrol benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 benchmark/run.py --workload analyze-grid --seed 1 --seconds 10 --trace 0

Workloads are analyze-grid, design-horizon and cli-session (see
benchmark/README.md). With ``--trace 0`` the runner starts seven fresh
interpreters, each timed to the return of its first op; four of them
then run the workload's rounds between them. It prints setup_s,
op_p50_ms, op_p90_ms, ok_per_s, fail_ratio and peak_rss_mb.
With ``--trace 1`` it runs the workload once untraced and once with
spans around every public cbcontrol function, and prints the per-layer
metrics plus the tracing overhead. The package is imported from the
checkout's ``src/``; nothing is installed and no file under ``src/`` is
touched. The last stdout line is the result as JSON.
"""

import os

# Fix the BLAS/OpenMP pool before numpy loads, here and in every worker:
# the matrices are at most 200 x 200, so one thread is steadier than two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import OVERHEAD, metric_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("analyze-grid", "design-horizon", "cli-session")
# The rounds are shared out among RUN_PARTS workers in turn, because each
# interpreter carries its own few-percent offset in op times (memory
# layout); SETUP_ONLY more interpreters stop after the first op. Each of
# them gives one set-up sample.
RUN_PARTS = 4
SETUP_ONLY = 3
# every worker is done, or killed, this long after the runner starts
DEADLINE = time.monotonic() + 170.0


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Facts readable from this process; no machine setting is changed."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, mode: str, part: int = 0, parts: int = 1):
    """Start a worker and wait for its first op; returns (process, set-up seconds).

    Set-up is scaled to nominal host speed by yardstick samples the worker
    takes right after its first op, on the CPU it ran on.
    """
    command = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--root", str(ROOT),
        "--part", str(part), "--parts", str(parts),
    ]
    start = time.perf_counter()
    # unbuffered, so reading the ready line takes no bytes beyond it and
    # communicate() later sees everything after it
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, bufsize=0, env=worker_env(), cwd=ROOT)
    line = read_ready(proc)
    ready = time.perf_counter()
    if not line.startswith("ready "):
        finish(proc)
        raise BenchError(f"{mode} worker did not reach its first op")
    _, excluded, scale = line.split()
    return proc, (ready - start - float(excluded)) * float(scale)


def read_ready(proc) -> str:
    """The worker's ready line; empty if it exits or the deadline passes first."""
    line = b""
    while not line.endswith(b"\n"):
        if not select.select([proc.stdout], [], [], max(0.0, DEADLINE - time.monotonic()))[0]:
            return ""
        byte = proc.stdout.read(1)
        if not byte:
            return ""
        line += byte
    return line.decode()


def finish(proc) -> dict:
    """Wait for a worker and return its JSON result."""
    try:
        out, _ = proc.communicate(timeout=max(0.1, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tally(result: dict) -> tuple:
    counts = dict(Counter(result["kinds"]))
    attempted = len(result["kinds"])
    return attempted, attempted - counts.get("ok", 0), counts


def end_to_end(args) -> tuple:
    setups, firsts = [], []
    for _ in range(SETUP_ONLY):
        proc, seconds = start_worker(args, "setup")
        firsts.append(finish(proc)["first"])
        setups.append(seconds)
    result = {"times_ms": [], "raw_ms": [], "kinds": [], "factors": [], "examples": {},
              "selftest": [], "peak_rss_mb": 0.0}
    for part in range(RUN_PARTS):
        proc, seconds = start_worker(args, "run", part, RUN_PARTS)
        share = finish(proc)
        setups.append(seconds)
        firsts.append(share["first"])
        for key in ("times_ms", "raw_ms", "kinds", "factors", "selftest"):
            result[key] += share[key]
        for kind, example in share["examples"].items():
            result["examples"].setdefault(kind, example)
        result["peak_rss_mb"] = max(result["peak_rss_mb"], share["peak_rss_mb"])
    times = result["times_ms"]
    attempted, failed, counts = tally(result)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (percentile(times, 50), "ms"),
        "op_p90_ms": (percentile(times, 90), "ms"),
        "ok_per_s": ((attempted - failed) / (sum(times) / 1e3), "1/s"),
        "fail_ratio": (failed / attempted, "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    info = {
        "outcomes": counts,
        "examples": result["examples"],
        "first_op": firsts,
        "ops": attempted,
        "raw_op_p50_ms": percentile(result["raw_ms"], 50),
        "host_scale_median": statistics.median(result["factors"]),
        "selftest": result["selftest"],
        "setup_samples_s": setups,
    }
    return attempted, failed, counts, metrics, info


def per_layer(args) -> tuple:
    proc, _ = start_worker(args, "trace")
    result = finish(proc)
    attempted, failed, counts = tally(result)
    units = dict(metric_names())
    metrics = {name: (value, units[name]) for name, value in result["layers"].items()}
    overhead = percentile(result["times_ms"], 50) - percentile(result["untraced"]["times_ms"], 50)
    metrics[OVERHEAD[0]] = (overhead, OVERHEAD[1])
    info = {"outcomes": counts, "examples": result["examples"], "first_op": [result["first"]],
            "ops": attempted, "selftest": result["selftest"]}
    return attempted, failed, counts, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cbcontrol" / "__init__.py").is_file():
        print(f"error: no cbcontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("env:", json.dumps(environment()), flush=True)
    try:
        attempted, failed, counts, metrics, info = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("info:", json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # correct: the checks themselves work, and no output was silently wrong;
    # outputs the program itself flags as failed count in "failed"
    correct = not info["selftest"] and "wrong" not in counts and "wrong" not in info["first_op"]
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
