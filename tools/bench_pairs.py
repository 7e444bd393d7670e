"""Compare this checkout with a base revision in alternating benchmark pairs.

    python3 tools/bench_pairs.py --base HEAD --out BENCH.json

Both sides run in one fresh temporary directory, each as a copy of its
`src/` beside a copy of this checkout's `benchmark/`, since
`benchmark/run.py` takes `src/` from its own parent directory: the base
side's `src/` comes from `git archive REV src`, the change side's is this
checkout's working tree. For every workload in BENCHMARK.json it runs
--pairs pairs at --seed (default 1, as CI's smoke runs) and --seconds
(`--trace 0`), the side that goes first alternating from pair to pair,
then one `--trace 1` run per side for the per-layer numbers.

The JSON file named by --out holds, per workload and end-to-end metric,
the values of both sides pair by pair, their medians, the base side's
IQR, the change side's wins (a tie counts for neither), the gain verdict
(a win in at least 9 of 10 pairs and a median gap above the base IQR)
and the bound verdict ("worse" past the metric's bound, "unresolved" when
the base IQR exceeds the bound and not every change run beats every base
run, else "within"). It also records each run's correct and failed
counts, the `env:` line of each side, and, for both sides,
`tools/cli_matrix.py`'s sha and exit tally, `tools/op_outcomes.py
--seconds 3`'s failed counts, differing lines (its last line, peak memory,
is recorded apart and not compared) and peak memory at seeds 1-12 (about
2 s a run, so about 48 s for both sides), and the lines of `src/**/*.py`.
It prints one line per workload and end-to-end metric, then per
op_outcomes seed both sides' failed lines and the count of differing op
lines, then the `src/` line counts and their difference.
Nothing is written under `src/` or `benchmark/`, and the temporary
directory is removed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
OUTCOME_SEEDS = tuple(range(1, 13))
OUTCOME_SECONDS = 3
# a child writes no bytecode, so nothing lands in this checkout's src/ or benchmark/
CHILD_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")


median = statistics.median


def iqr(values) -> float:
    """Third minus first quartile (linear interpolation); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def _sign(better: str) -> int:
    """+1 where a lower value is better, -1 where a higher one is."""
    return {"lower": 1, "higher": -1}[better]


def wins(base, change, better: str) -> int:
    """Pairs in which the change side is strictly better; a tie counts for neither."""
    return sum(_sign(better) * (b - c) > 0 for b, c in zip(base, change))


def gain(base, change, better: str) -> bool:
    """A win in at least 9 of 10 pairs, and a median gap above the base side's IQR."""
    gap = _sign(better) * (median(base) - median(change))
    return 10 * wins(base, change, better) >= 9 * len(base) and gap > iqr(base)


def bound_verdict(base, change, better: str, bound: float) -> str:
    """The bound verdict, for a bound relative to the base median.

    "unresolved" when the base IQR exceeds the bound and not every change
    run beats every base run (the runs spread too widely to tell), else
    "worse" when the change median is worse by more than the bound, else
    "within".
    """
    sign, base_median = _sign(better), median(base)
    allowed = bound * abs(base_median)
    every = all(sign * (b - c) > 0 for b in base for c in change)
    if iqr(base) > allowed and not every:
        return "unresolved"
    return "worse" if sign * (median(change) - base_median) > allowed else "within"


def compare(base, change, better: str, bound: float) -> dict:
    return {
        "base": base, "change": change,
        "base_median": median(base), "change_median": median(change),
        "base_iqr": iqr(base), "wins": wins(base, change, better),
        "gain": gain(base, change, better),
        "bound_verdict": bound_verdict(base, change, better, bound),
    }


def _run(argv, **kwargs) -> str:
    done = subprocess.run(argv, env=CHILD_ENV, capture_output=True, text=True, check=False,
                          **kwargs)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def _bench(side: Path, workload: str, seed: int, seconds: int,
           trace: int) -> tuple[dict, dict]:
    """(env record, result document) of one benchmark/run.py run on a side."""
    out = _run([sys.executable, str(side / "benchmark" / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.splitlines()
    env = next(json.loads(line[len("env:"):]) for line in lines if line.startswith("env:"))
    return env, json.loads(lines[-1])


def _matrix(side: Path) -> dict:
    lines = _run([sys.executable, str(ROOT / "tools" / "cli_matrix.py"),
                  "--src", str(side / "src")]).splitlines()
    exits = Counter(re.findall(r" exit=(\d+) ", "\n".join(lines)))
    return {"sha256": lines[-1].split("=", 1)[1], "exits": dict(sorted(exits.items()))}


def _outcomes(side: Path, seed: int) -> list[str]:
    return _run([sys.executable, str(ROOT / "tools" / "op_outcomes.py"), "--seed", str(seed),
                 "--seconds", str(OUTCOME_SECONDS), "--src", str(side / "src")]).splitlines()


def src_lines(src: Path) -> int:
    """Lines of every .py file under src, at any depth."""
    return sum(len(path.read_text().splitlines()) for path in src.rglob("*.py"))


def side_dirs(work: Path) -> dict[str, Path]:
    """Each side's directory in work, named by its initial: the names have
    one length, so neither side imports from longer paths."""
    return {name: work / name[0] for name in SIDES}


def _make_sides(work: Path, rev: str) -> dict[str, Path]:
    ignore = shutil.ignore_patterns("__pycache__")
    sides = side_dirs(work)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    sides["base"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(sides["base"])], input=archive, check=True)
    shutil.copytree(ROOT / "src", sides["change"] / "src", ignore=ignore)
    for side in sides.values():
        shutil.copytree(ROOT / "benchmark", side / "benchmark", ignore=ignore)
    return sides


def measure(args, sides: dict[str, Path]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"base": args.base, "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
           "env": {}, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, values = [], {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"first": order[0]}
            for side in order:
                env, result = _bench(sides[side], workload, args.seed, args.seconds, 0)
                doc["env"].setdefault(side, env)
                run[side] = {key: result[key] for key in ("correct", "attempted", "failed")}
                values[side].append({name: m["value"] for name, m in result["metrics"].items()})
            runs.append(run)
            print(f"{workload} pair {pair + 1}/{args.pairs}", file=sys.stderr, flush=True)
        traced = {}
        for side in SIDES:
            _, result = _bench(sides[side], workload, args.seed, args.seconds, 1)
            layers = {m["name"]: result["metrics"][m["name"]]["value"]
                      for m in spec["per_layer"] if m["name"] in result["metrics"]}
            traced[side] = {"correct": result["correct"], "failed": result["failed"],
                            "metrics": layers}
        doc["workloads"][workload] = {
            "runs": runs,
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                            **compare([v[m["name"]] for v in values["base"]],
                                      [v[m["name"]] for v in values["change"]],
                                      m["better"], m["bound"])}
                for m in spec["end_to_end"]
            },
            "per_layer": traced,
        }
    doc["numpy"] = {side: env["numpy"] for side, env in doc["env"].items()}
    doc["cli_matrix"] = {side: _matrix(sides[side]) for side in SIDES}
    failed = {side: {} for side in SIDES}
    peaks = {side: {} for side in SIDES}
    differing = {}
    for seed in OUTCOME_SEEDS:
        lines = {side: _outcomes(sides[side], seed) for side in SIDES}
        for side in SIDES:
            failed[side][str(seed)] = next(line for line in lines[side]
                                           if line.startswith("failed "))
            # the last line, peak memory, differs between runs; it is kept, not compared
            peaks[side][str(seed)] = float(lines[side].pop().removeprefix("peak_rss_mb "))
        differing[str(seed)] = sum(a != b for a, b in zip_longest(*lines.values()))
    doc["op_outcomes"] = {"seconds": OUTCOME_SECONDS, **failed, "differing_lines": differing,
                          "peak_rss_mb": peaks}
    doc["src_lines"] = {side: src_lines(sides[side] / "src") for side in SIDES}
    doc["summary"] = {
        verdict: [f"{workload}/{name}" for workload, result in doc["workloads"].items()
                  for name, metric in result["end_to_end"].items()
                  if (metric["gain"] if verdict == "gain" else metric["bound_verdict"] == verdict)]
        for verdict in ("gain", "worse", "unresolved")
    }
    return doc


def report_lines(doc: dict) -> list[str]:
    """The lines main prints for a measure() document."""
    lines = [f"{workload:15} {name:12} base {metric['base_median']:<10.4g} change "
             f"{metric['change_median']:<10.4g} iqr {metric['base_iqr']:<9.3g} "
             f"wins {metric['wins']}/{doc['pairs']} gain {metric['gain']!s:5} "
             f"{metric['bound_verdict']}"
             for workload, result in doc["workloads"].items()
             for name, metric in result["end_to_end"].items()]
    outcomes = doc["op_outcomes"]
    lines += [f"op_outcomes seed {seed:3} base {outcomes['base'][seed]:18} change "
              f"{outcomes['change'][seed]:18} differing lines {differing}"
              for seed, differing in outcomes["differing_lines"].items()]
    src = doc["src_lines"]
    lines.append(f"src lines base {src['base']} change {src['change']} "
                 f"({src['change'] - src['base']:+d})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="benchmark/run.py's --seconds for every run (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark/run.py's --seed for every run (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        doc = measure(args, _make_sides(Path(work), args.base))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(report_lines(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
