"""Self-test of the benchmark's correctness checks.

Each checker must pass a true result and flag the same result corrupted:
a perturbed plan (design-horizon), a flipped verdict (analyze-grid) and
a wrong exit code (cli-session). Every benchmark run performs this test
outside the timed region and reports ``correct: false`` if it fails. To
run it alone, from the root of a checkout:

    PYTHONPATH=src python3 benchmark/selftest.py
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from analyze_grid import AnalyzeGrid
from cli_session import CliSession
from design_horizon import DesignHorizon


def _expect(problems: list, label: str, outcome, ok: bool):
    if outcome.ok != ok:
        problems.append(f"{label}: got {outcome.kind} {outcome.detail}".strip())


def perturbed_plan(problems: list):
    workload = DesignHorizon()
    task = workload.prepare(np.random.default_rng(7), ("repetitive", 4, 10, 0.9, 4, 2, "orthogonal"))
    raw = workload.run(task)
    _expect(problems, "true plan", workload.check(task, raw), True)
    flat = np.array(raw["plan"].flat_inputs)
    flat[0, 0] += 1e-3  # a balanced nudge: charge balance holds, the endpoint moves
    flat[1, 0] -= 1e-3
    bad = dataclasses.replace(raw["plan"], flat_inputs=flat)
    _expect(problems, "perturbed plan", workload.check(task, dict(raw, plan=bad)), False)


def flipped_verdict(problems: list):
    workload = AnalyzeGrid()
    for cls, truth, flipped in (("real-stable", "yes", "no"), ("uncontrollable", "no", "yes")):
        plant = workload.prepare(np.random.default_rng(7), (10, 3, cls))
        raw = dict(workload.run(plant), nonrep=truth)
        _expect(problems, f"true verdict on {cls}", workload.check(plant, raw), True)
        raw["nonrep"] = flipped
        _expect(problems, f"flipped verdict on {cls}", workload.check(plant, raw), False)


def wrong_exit_code(problems: list, workdir: Path):
    workload = CliSession(workdir)
    try:
        rng = np.random.default_rng(7)
        # rotation_2d: analyze must exit 0
        op = workload.prepare(rng, (-1, 0, ("bundled", 0), "analyze", False))
        raw = workload.run(op)
        _expect(problems, "true analyze", workload.check(op, raw), True)
        _expect(problems, "analyze exit 4", workload.check(op, dict(raw, code=4)), False)
        # identity_2d: design must refuse with exit 4
        op = workload.prepare(rng, (-1, 4, ("bundled", 4), "analyze", False))
        op = workload.prepare(rng, (-1, 4, ("bundled", 4), "design", True))
        raw = workload.run(op)
        _expect(problems, "true refusal", workload.check(op, raw), True)
        _expect(problems, "design exit 0", workload.check(op, dict(raw, code=0)), False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workdir: Path) -> list:
    """Problems found; empty when every checker behaves."""
    problems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        perturbed_plan(problems)
        flipped_verdict(problems)
        wrong_exit_code(problems, workdir)
    return problems


if __name__ == "__main__":
    found = run(Path.cwd() / ".bench_work" / "selftest")
    for line in found:
        print("FAIL", line)
    print("checker self-test:", "failed" if found else "passed")
    sys.exit(1 if found else 0)
