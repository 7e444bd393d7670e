"""Minimum-energy steering when every block repeats the same input.

Two plants: a fully actuated two-state expander where the h = 2
conditions certify controllability directly, and a four-state plant with
rank-deficient B where those conditions fail at h = 2 but hold at h = 3,
where rank(Bbar) = n. A plan is its applied inputs; the repeated block
is their first h steps.
"""

import numpy as np

from cbcontrol import (
    LtiSystem,
    SteeringTask,
    build_scheme,
    check_repetitive_sufficient,
    design_repetitive,
    h_sum,
    lift,
    verify_plan,
)


def steer(system, h, b, x0, xf, label):
    scheme = build_scheme(h, system.m)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=x0, xf=xf, b=b, regime="repetitive")
    verdict = check_repetitive_sufficient(system, b, h=h)
    plan = design_repetitive(lifted, task)
    check = verify_plan(system, scheme, task, plan)

    print(f"== {label} (h = {h}, b = {b}) ==")
    for reason in verdict.reasons:
        print(f"    [{'x' if reason.holds else ' '}] {reason.name}")
    # one doubling gives the geometric sum H_b and the free response Abar^b x0
    total, free = h_sum(lifted, b, task.x0)
    gain = total @ lifted.Bbar
    print(f"rank of the geometric-sum map: {np.linalg.matrix_rank(gain)} "
          f"of {system.n}")
    block = plan.flat_inputs[:h]  # the first h steps; every block repeats them
    print(f"single repeated block: {np.round(block.ravel(), 6).tolist()}")
    w = scheme.Q.T @ block.ravel()  # the block's latent coordinates
    closed = free + gain @ w
    print(f"closed form Abar^b x0 + H_b Bbar w misses the target by "
          f"{np.linalg.norm(closed - task.xf):.2e}")
    print(f"energy {plan.energy:.6f} (= b * ||w||^2), "
          f"terminal error {check.terminal_error:.2e}")
    print()


expander = LtiSystem(A=[[2.0, 1.0], [0.0, 0.5]], B=np.eye(2))
steer(expander, 2, 10, [-0.2, 0.3], [1.0, -0.6], "fully actuated expander")

four_state = LtiSystem(
    A=[
        [1.0, 2.0, -2.0, 1.0],
        [1.0, 2.0, 2.0, -1.0],
        [-1.0, 1.0, 3.0, 1.0],
        [-6.0, 6.0, -6.0, 8.0],
    ],
    B=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
)
print("rank(B) =", np.linalg.matrix_rank(four_state.B),
      "< 4, so the h = 2 conditions cannot apply; widen the block instead\n")
steer(four_state, 3, 5, np.zeros(4), [1.0, -0.6, 0.5, -0.4],
      "four states, two inputs")

print("with identical blocks the wiggle room is one latent vector; staying")
print("steerable then depends on the geometric sum of block maps keeping")
print("full rank, which a wider block can restore even when rank(B) < n.")
