"""Minimum-energy steering with distinct charge-balanced blocks.

Steers the plane rotation from [-0.2, 0.2] to [1, -0.6] in 20 steps,
once with five blocks of length four and once with ten blocks of length
two, then cross-checks optimality against the stacked least-squares
oracle.
"""

import numpy as np

from cbcontrol import (
    LtiSystem,
    SteeringTask,
    build_scheme,
    design_nonrepetitive,
    lift,
    oracle_stacked_ls,
    rollout,
    verify_plan,
)

system = LtiSystem(
    A=[[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]], B=[[1.0], [0.0]]
)
x0, xf = [-0.2, 0.2], [1.0, -0.6]

for h, b in ((4, 5), (2, 10)):
    scheme = build_scheme(h, 1)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=x0, xf=xf, b=b, regime="non-repetitive")
    plan = design_nonrepetitive(lifted, task)
    check = verify_plan(system, scheme, task, plan)

    print(f"== h = {h}, b = {b} (N = {h * b} steps) ==")
    print(f"energy {plan.energy:.6f}, terminal error {check.terminal_error:.2e}, "
          f"worst block imbalance {check.imbalances.max():.2e}")
    blocks = plan.flat_inputs.reshape(b, -1)  # one stacked block U per row
    print("per-block energies:", [round(float(U @ U), 5) for U in blocks])

    traj = rollout(system, task, plan)
    print("state every h steps (block boundaries):")
    for p in range(b + 1):
        x = traj.states[p * h]
        print(f"  k={p * h:2d}: [{x[0]: .4f}, {x[1]: .4f}]")

    oracle = oracle_stacked_ls(system, scheme, task)
    gap = np.abs(oracle.flat_inputs - plan.flat_inputs).max()
    print(f"stacked-oracle agreement: max input gap {gap:.2e}, "
          f"energy gap {abs(oracle.energy - plan.energy):.2e}")
    print()

print("the trajectories oscillate inside each block: charge balance forces")
print("positive and negative lobes to alternate, visible in the state traces.")
