"""End-to-end tour of the command-line front end.

Runs analyze, design, simulate (replay), and sweep-h on the bundled
problem files, into cli_out under the working directory. The replayed
states are byte-identical to the designed ones, and the sweep table shows
the h = 3 row where the sufficient conditions stay silent but the numeric
rank decides. Every exit code, the replay and each design's plot.gp are
asserted, so the tour fails loudly if the front end changes under it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

from cbcontrol import bundled_problem

OUT = Path.cwd() / "cli_out"


def run(*args, expect=0):
    command = [sys.executable, "-m", "cbcontrol.cli", *args]
    print("$ cbcontrol " + " ".join(args))
    result = subprocess.run(command, text=True, capture_output=True)
    print(result.stdout, end="")
    if result.stderr:
        print(result.stderr, end="")
    print(f"(exit {result.returncode})\n")
    assert result.returncode == expect, (args, result.returncode, expect)
    return result


if OUT.exists():
    shutil.rmtree(OUT)

rotation = str(bundled_problem("rotation_2d"))
expander = str(bundled_problem("expander_2d"))
identity = str(bundled_problem("identity_2d"))

run("analyze", "--problem", rotation)
run("design", "--problem", rotation, "--h", "2", "--b", "10",
    "--out", str(OUT / "rotation"))
run("simulate", "--problem", rotation,
    "--inputs", str(OUT / "rotation" / "inputs.csv"),
    "--out", str(OUT / "replay"))

original = (OUT / "rotation" / "states.csv").read_bytes()
replayed = (OUT / "replay" / "states.csv").read_bytes()
print("replayed states byte-identical to designed states:",
      original == replayed, "\n")
assert original == replayed

run("sweep-h", "--problem", rotation, "--h-min", "2", "--h-max", "5",
    "--out", str(OUT / "sweep"))
run("design", "--problem", expander, "--out", str(OUT / "expander"))
run("design", "--problem", identity, "--out", str(OUT / "identity"), expect=4)
for name in ("rotation", "expander"):  # each design that exits 0 writes its plot script
    assert (OUT / name / "plot.gp").stat().st_size > 0, name
print("the identity plant exits with code 4: an eigenvalue at 1 fails a")
print("necessary condition, so the design command refuses to run.")
