"""Controllability analysis under the zero-net-charge constraint.

Walks the decidable conditions on three systems: the plane rotation
(complex spectrum, single input), a diagonal plant with real distinct
eigenvalues, and a plant with an eigenvalue at 1 that no block length
can rescue.
"""

import numpy as np

from cbcontrol import (
    LtiSystem,
    check_nonrepetitive_sufficient,
    pbh_controllable,
    select_h,
    unit_ratio_orders,
)

ROT = LtiSystem(
    A=[[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]], B=[[1.0], [0.0]]
)


def show(verdict):
    for reason in verdict.reasons:
        print(f"    [{'x' if reason.holds else ' '}] {reason.name}")
    print(f"    -> {verdict.controllable} (numeric rank {verdict.numeric_rank})")


print("== plane rotation, single input ==")
print("PBH controllable:", pbh_controllable(ROT).controllable)
orders = unit_ratio_orders(ROT)
print("eigenvalue-ratio orders:", [(o.i, o.j, o.order) for o in orders])
print("selected block length:", select_h(ROT), "(smallest length no order divides)")
for h in (2, 3, 4):
    print(f"  conditions at h = {h}:")
    show(check_nonrepetitive_sufficient(ROT, h))
print("note: at h = 2 and 4 the conditions decide and the rank shown is the")
print("PBH pencil's. h = 3 fails the simple-spectrum condition (A^3 = I), the")
print("one case the conditions leave open; PBH on the lifted pair then")
print("decides, with one pencil [mu I - A^3, c K] at the repeated eigenvalue")
print("mu = 1 of A^3, and still certifies controllability, since the")
print("sufficient conditions are one-sided.")

print("\n== real distinct spectrum ==")
diag = LtiSystem(A=np.diag([2.0, 0.5]), B=np.eye(2))
print("selected block length:", select_h(diag), "(no ratio is a root of unity)")
print("conditions at h = 3:", check_nonrepetitive_sufficient(diag, 3).conditions,
      "(distinct reals have distinct cubes)")

print("\n== eigenvalue at 1: unfixable ==")
stuck = LtiSystem(A=np.diag([1.0, 0.5]), B=np.eye(2))
show(check_nonrepetitive_sufficient(stuck, 2))
print("a left eigenvector at 1 pairs every stacked block to zero, so no")
print("charge-balanced input sequence moves that mode.")
