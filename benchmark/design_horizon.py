"""Workload ``design-horizon``: minimum-energy plans over the ROADMAP grid.

One op is lift, then design_nonrepetitive or design_repetitive, then
verify_plan, then rollout. The lifting, numeric, design, system and
charge_balance layers do the work; analysis is never called. The grid
covers n and b up to 200 with stable and unstable spectra, which is
where square-root solves, KKT recursions and rollout vectorisation show.

Every task is feasible by construction:
* repetitive (m = n, h = 2): B = V C with C orthogonal, no eigenvalue at
  1 and no root of unity, so H_b Bbar = H_b (A - I) B / sqrt(2) is
  invertible for every b;
* non-repetitive with b >= n: the sufficient conditions hold at the
  certified h, so the lifted pair is controllable and reaches any
  target within n blocks;
* non-repetitive with b < n: each mode is driven by one input channel
  and no channel drives more than b states; per channel the b-block
  reachability matrix is a Vandermonde matrix in the distinct lambda^h
  scaled by non-zero factors, so it has full row rank.
Cells with b * m < n cannot meet the last rule and are left out.
"""

from __future__ import annotations

import random

import numpy as np

import cbcontrol.charge_balance as charge_balance
import cbcontrol.design as design
import cbcontrol.lifting as lifting
from cbcontrol.system import LtiSystem
from cbcontrol.tolerances import DEFAULT

from outcome import ENERGY_MISMATCH, PASS, UNVERIFIED, WRONG, Outcome, error
from plants import make_plant, unit_vector

N_GRID = (4, 20, 50, 100, 200)
B_GRID = (10, 50, 200)
RADII = (0.9, 1.1, 1.5)
# (n, b, m) for non-repetitive cells with b < n, certified per channel
CHANNEL_CELLS = ((20, 10, 3), (50, 10, 5), (100, 50, 3), (200, 50, 5))
# the stacked oracle is checked on stable tasks with at most this many
# unknowns, to the relative energy tolerance of the acceptance suite's
# oracle-equivalence criterion
ORACLE_UNKNOWNS = 400
ORACLE_RTOL = 1e-8


def _cycle() -> list:
    """85 cells: (regime, n, b, radius, m, h, inputs)."""
    cells = []
    for n in N_GRID:
        for b in B_GRID:
            for radius in RADII:
                cells.append(("repetitive", n, b, radius, n, 2, "orthogonal"))
    k = 0
    for n in N_GRID:
        for b in B_GRID:
            if b < n:
                continue
            for radius in RADII:
                m, h = (1, 3, 5)[k % 3], (2, 3, 4)[(k // 3) % 3]
                cells.append(("non-repetitive", n, b, radius, m, h, "dense"))
                k += 1
    for n, b, m in CHANNEL_CELLS:
        for radius in RADII:
            cells.append(("non-repetitive", n, b, radius, m, 2, "channels"))
    # ROADMAP item 2: stable n = 100, m = 5, h = 4, b = 100
    cells.append(("non-repetitive", 100, 100, 0.9, 5, 4, "dense"))
    random.Random(1).shuffle(cells)
    return cells


class DesignHorizon:
    name = "design-horizon"
    # nominal seconds per round at the seed; sets how many rounds --seconds buys
    round_seconds = 0.75

    def schedule(self, rounds: int) -> list:
        cells = _cycle()
        return [(r, i, cell) for r in range(rounds) for i, cell in enumerate(cells)]

    first_cell = ("repetitive", 20, 50, 0.9, 20, 2, "orthogonal")

    def prepare(self, rng, cell):
        regime, n, b, radius, m, h, inputs = cell
        plant = make_plant(
            rng, n, m, radius, complex_share=0.5, h=h, inputs=inputs,
            group_limit=b if inputs == "channels" else None,
        )
        return {
            "plant": plant, "regime": regime, "b": b, "h": h, "radius": radius,
            "x0": unit_vector(rng, n), "xf": unit_vector(rng, n),
        }

    @staticmethod
    def run(task):
        plant = task["plant"]
        system = LtiSystem(A=plant.A, B=plant.B)
        scheme = charge_balance.build_scheme(task["h"], system.m)
        lifted = lifting.lift(system, scheme)
        steering = design.SteeringTask(x0=task["x0"], xf=task["xf"], b=task["b"], regime=task["regime"])
        if task["regime"] == "repetitive":
            plan = design.design_repetitive(lifted, steering)
        else:
            plan = design.design_nonrepetitive(lifted, steering)
        report = design.verify_plan(system, scheme, steering, plan)
        trajectory = design.rollout(system, steering, plan)
        return {"system": system, "scheme": scheme, "steering": steering,
                "plan": plan, "report": report, "trajectory": trajectory}

    @staticmethod
    def check(task, raw) -> Outcome:
        plan, report = raw["plan"], raw["report"]
        own = plan_error(task, plan.flat_inputs)
        if not report.passed:
            if own is None:
                return Outcome(WRONG, "verify_plan rejects a plan that meets the target")
            return Outcome(UNVERIFIED, own)
        if own is not None:
            return Outcome(WRONG, f"verify_plan passed a plan that fails: {own}")
        states = raw["trajectory"].states
        if states.shape[0] != plan.flat_inputs.shape[0] + 1:
            return Outcome(WRONG, "rollout length does not match the plan")
        energy = float(np.sum(np.asarray(plan.flat_inputs) ** 2))
        if not abs(plan.energy - energy) <= 1e-9 * max(1.0, energy):
            return Outcome(WRONG, f"plan energy {plan.energy} differs from its inputs' {energy}")
        return oracle_outcome(task, raw)


def plan_error(task, flat) -> str | None:
    """Independent check of a plan's shape, charge balance and endpoint."""
    plant, b, h = task["plant"], task["b"], task["h"]
    m = plant.B.shape[1]
    flat = np.asarray(flat, dtype=float)
    if flat.shape != (b * h, m):
        return f"plan has shape {flat.shape}, expected {(b * h, m)}"
    imbalance = float(np.abs(flat.reshape(b, h, m).sum(axis=1)).max())
    if not imbalance <= DEFAULT.charge_balance:
        return f"block imbalance {imbalance:.3e}"
    x = np.array(task["x0"], dtype=float)
    with np.errstate(all="ignore"):
        for u in flat:
            x = plant.A @ x + plant.B @ u
        terminal = float(np.linalg.norm(x - task["xf"]))
    if not terminal <= DEFAULT.terminal:
        return f"terminal error {terminal:.3e}"
    return None


def oracle_outcome(task, raw) -> Outcome:
    """Energy of the plan against the stacked least-squares oracle."""
    plant = task["plant"]
    unknowns = task["b"] * task["h"] * plant.B.shape[1]
    if task["radius"] >= 1.0 or unknowns > ORACLE_UNKNOWNS:
        return PASS
    try:
        oracle = design.oracle_stacked_ls(raw["system"], raw["scheme"], raw["steering"])
    except Exception as exc:  # the oracle is program code; any failure fails the op
        return error(exc, "oracle_stacked_ls")
    energy = raw["plan"].energy
    if not abs(energy - oracle.energy) <= ORACLE_RTOL * max(energy, oracle.energy, 1e-12):
        return Outcome(ENERGY_MISMATCH, f"plan energy {energy:.12g}, oracle {oracle.energy:.12g}")
    return PASS
