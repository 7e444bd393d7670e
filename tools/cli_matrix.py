"""Run the bundled CLI matrix and print one fingerprint line per run.

The matrix is every bundled problem x {plain, --regime rep, --regime
nonrep, --b 20, --b 30} x {analyze, design, sweep-h}: 75 runs of the
`cbcontrol` command, each in its own process. For each run it prints the
exit code, the sha256 of stdout and of stderr, and the sha256 of every
file written under --out (each cut to its first 16 hex digits); every
command gets an --out, so analyze's report.json (verdict, rank and
singular values) is fingerprinted too; a design
that wrote report.json adds its passed flag, energy (%.12g) and terminal
error (%.3e), so a change that moves last bits can be read by value.
Each design that wrote inputs.csv is replayed by `simulate` with the
same flags and its own --out (15 runs today, 90 in all); the replay's
line gives its exit code, stdout, stderr and states.csv hashes, and
same_states=, whether that states.csv equals the design's byte for byte.
Then it prints one full sha256 over all the lines.

Every run works in one fresh temporary directory, with the problem file
copied in and a relative --out, so no path of the checkout or of the
temporary directory reaches the output. Two checkouts with the same
behaviour print the same lines, so compare them with diff:

    python3 tools/cli_matrix.py > after.txt
    python3 /path/to/other/checkout/tools/cli_matrix.py > before.txt
    diff before.txt after.txt

--src runs the package sources of another checkout instead of the ones
next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PROBLEMS = ("rotation_2d", "expander_2d", "four_state", "identity_2d", "drift_only")
VARIANTS = {
    "plain": [],
    "rep": ["--regime", "rep"],
    "nonrep": ["--regime", "nonrep"],
    "b20": ["--b", "20"],
    "b30": ["--b", "30"],
}
COMMANDS = ("analyze", "design", "sweep-h")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _design_values(report: Path) -> str:
    """passed, energy and terminal error from a design's report.json ("" without one)."""
    if not report.is_file():
        return ""
    design = json.loads(report.read_text())["design"]

    def value(key, spec):
        return "null" if design[key] is None else spec % design[key]

    return (f"passed={design['passed']} energy={value('energy', '%.12g')} "
            f"terminal_error={value('terminal_error', '%.3e')}")


def run_matrix(src: Path, work: Path):
    """Yield one line per run: label, exit code, stdout, stderr and file hashes."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(problem, variant, command, flags):
        out = Path("out", problem, variant, command)
        argv = [sys.executable, "-m", "cbcontrol.cli", command,
                "--problem", f"{problem}.json", *flags, "--out", str(out)]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        return out, (f"{problem}/{variant}/{command} exit={done.returncode} "
                     f"stdout={_digest(done.stdout)[:16]} stderr={_digest(done.stderr)[:16]}")

    for problem in PROBLEMS:
        shutil.copy(src / "cbcontrol" / "fixtures" / f"{problem}.json", work)
        for variant, flags in VARIANTS.items():
            for command in COMMANDS:
                out, line = run(problem, variant, command, flags)
                files = sorted(path for path in (work / out).rglob("*") if path.is_file())
                hashes = " ".join(f"{path.name}={_digest(path.read_bytes())[:16]}"
                                  for path in files)
                values = _design_values(work / out / "report.json") if command == "design" else ""
                yield f"{line} {hashes} {values}".rstrip()
                if command == "design" and (work / out / "inputs.csv").is_file():
                    replay, line = run(problem, variant, "simulate",
                                       [*flags, "--inputs", str(out / "inputs.csv")])
                    states = work / replay / "states.csv"
                    written = states.read_bytes() if states.is_file() else b""
                    same = written == (work / out / "states.csv").read_bytes()
                    yield f"{line} states.csv={_digest(written)[:16]} same_states={same}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the cbcontrol package (default: this checkout's src)")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for line in run_matrix(args.src.resolve(), Path(work)):
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"matrix sha256={total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
