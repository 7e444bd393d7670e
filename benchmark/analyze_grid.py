"""Workload ``analyze-grid``: controllability verdicts on fresh plants.

One op takes one plant through the non-repetitive verdict at automatic
block length (select_h, then check_nonrepetitive_sufficient) and the
repetitive verdict at h = 2, b = n (check_repetitive_sufficient, then
hb_invertible). The analysis layer does almost all the work; design and
problem_io do none. PBH is O(n^4) and dominates at n = 100, while small
n exposes the repeated eigen-solves instead.
"""

from __future__ import annotations

import random

import cbcontrol.analysis as analysis
from cbcontrol.errors import PreconditionError
from cbcontrol.system import LtiSystem

from outcome import PASS, WRONG, Outcome, error, verdict_outcome
from plants import UNIT_EIGENVALUE, make_plant, rotation_pair

# spectrum classes: (complex share, spectral radius, planted pair)
CLASSES = {
    "real-stable": (0.0, 0.9, None),
    "complex-stable": (0.6, 0.9, None),
    "real-unstable": (0.0, 1.2, None),
    "complex-unstable": (0.6, 1.2, None),
    # a conjugate pair on the unit circle at 90 or 60 degrees: its ratio is
    # a root of unity of order 2 or 3, so automatic h is 3 or 4; at 90
    # degrees H_b is singular whenever b is even
    "rotation-90": (0.5, 0.9, (1.0, 1, 2)),
    "rotation-60": (0.5, 0.9, (1.0, 1, 3)),
}
POSITIVE = ("real-stable", "complex-stable", "real-unstable", "complex-unstable")


class AnalyzeGrid:
    name = "analyze-grid"
    # nominal seconds per round at the seed; sets how many rounds --seconds buys
    round_seconds = 1.85

    # -- schedule ---------------------------------------------------------
    @staticmethod
    def _round(r: int) -> list:
        """89 cells; n = 10 and 25 twice as often as n = 50, n = 100 rarely.

        The mix puts op_p50_ms inside the n = 25 cells and op_p90_ms
        inside the n = 50 cells, away from the jumps between sizes.
        About one cell in eight is a planted negative.
        """
        cells = []
        rotation = "rotation-90" if r % 2 == 0 else "rotation-60"
        for n, repeats in ((10, 2), (25, 2), (50, 1)):
            for rep in range(repeats):
                for m in (1, 3, 5):
                    for cls in POSITIVE + (rotation,):
                        cells.append((n, m, cls))
                cells.append((n, (1, 3, 5)[(r + rep) % 3], "unit-eigenvalue"))
                cells.append((n, (1, 3, 5)[(r + rep + 1) % 3], "uncontrollable"))
        cells.append((100, 5, "item2"))
        cells.append((100, 1, POSITIVE[r % 4]))
        cells.append((100, 3, (rotation, POSITIVE[(r + 1) % 4])[r % 2]))
        cells.append((100, (1, 3, 5)[r % 3], ("unit-eigenvalue", "uncontrollable")[r % 2]))
        random.Random(r).shuffle(cells)
        return cells

    def schedule(self, rounds: int) -> list:
        return [(r, i, cell) for r in range(rounds) for i, cell in enumerate(self._round(r))]

    first_cell = (25, 3, "complex-stable")

    # -- one op -------------------------------------------------------------
    def prepare(self, rng, cell):
        n, m, cls = cell
        if cls == "item2":
            # ROADMAP item 2: stable, n = 100, m = 5, certified h = 4
            return make_plant(rng, n, m, 0.9, complex_share=0.5, planted=(rotation_pair(0.8, 1, 3),))
        if cls == "unit-eigenvalue":
            return make_plant(rng, n, m, 0.9, complex_share=0.5, planted=(UNIT_EIGENVALUE,))
        if cls == "uncontrollable":
            return make_plant(rng, n, m, 0.9, complex_share=0.5, uncontrollable=True)
        share, radius, pair = CLASSES[cls]
        planted = (rotation_pair(*pair),) if pair else ()
        return make_plant(rng, n, m, radius, complex_share=share, planted=planted)

    @staticmethod
    def run(plant):
        system = LtiSystem(A=plant.A, B=plant.B)
        n = system.n
        try:
            h = analysis.select_h(system)
            refused = None
        except PreconditionError as exc:
            h, refused = 2, exc
        nonrep = analysis.check_nonrepetitive_sufficient(system, h)
        rep = analysis.check_repetitive_sufficient(system, n, 2)
        invertible = analysis.hb_invertible(system, 2, n)
        return {
            "h": h,
            "refused": refused,
            "nonrep": nonrep.controllable,
            "rep": rep.controllable,
            "invertible": invertible,
        }

    @staticmethod
    def check(plant, raw) -> Outcome:
        n = plant.n
        if plant.unit_eigenvalue:
            if raw["refused"] is None:
                return Outcome(WRONG, f"select_h returned {raw['h']} with an eigenvalue at 1")
        elif raw["refused"] is not None:
            return error(raw["refused"], "select_h")
        elif raw["h"] != plant.h:
            return Outcome(WRONG, f"select_h returned {raw['h']}, certified {plant.h}")
        truth = "yes" if plant.controllable and not plant.unit_eigenvalue else "no"
        outcome = verdict_outcome("non-repetitive", raw["nonrep"], truth)
        if not outcome.ok:
            return outcome
        # one identical latent block spans at most m < n directions
        outcome = verdict_outcome("repetitive", raw["rep"], "no")
        if not outcome.ok:
            return outcome
        expected = not plant.hb_singular(2, n)
        if raw["invertible"] != expected:
            return Outcome(WRONG, f"hb_invertible returned {raw['invertible']}, expected {expected}")
        return PASS
