"""Plant simulation and block lifting, on a plane-rotation system.

The running example is a single-input rotation by 120 degrees. Its
eigenvalues are complex cube roots of unity, which makes it a good
specimen: powers of A cycle with period three, so the choice of block
length genuinely matters later on.
"""

import numpy as np

from cbcontrol import LtiSystem, build_scheme, lift, simulate, unpack

A = np.array([[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
system = LtiSystem(A=A, B=[[1.0], [0.0]])

print("eigenvalues of A:", system.eigenvalues)
print("A^3 (cycles back to the identity):")
print(np.linalg.matrix_power(system.A, 3).round(12))

# zero inputs: the state just rotates
traj = simulate(system, [1.0, 0.0], np.zeros((6, 1)))
print("\nzero-input rollout from [1, 0]:")
for k, x in enumerate(traj.states):
    print(f"  k={k}: [{x[0]: .4f}, {x[1]: .4f}]")

# a charge-balanced block: two steps that sum to zero per channel
scheme = build_scheme(2, 1)
R = np.tile(np.eye(scheme.m), (1, scheme.h))  # per-channel block sums [I ... I]
print("\nconstraint matrix R:", R)
print("kernel basis Q (each block is (u, -u) / sqrt(2)):")
print(scheme.Q)

w = np.array([0.8])
U = unpack(w, scheme)
print("latent w =", w, "-> stacked block U =", U, " (sums to", U.sum(), ")")

# lifting compresses one block into a single update of the boundary state
lifted = lift(system, scheme)
S = np.hstack([system.A @ system.B, system.B])  # [A^(h-1) B, ..., A B, B] at h = 2
print("\nS  =", S.tolist())
print("Abar = A^2, Bbar = S Q =", lifted.Bbar.ravel())

x0 = np.array([0.3, -0.2])
stepwise = simulate(system, x0, U.reshape(2, 1)).terminal
boundary = lifted.Abar @ x0 + lifted.Bbar @ w
print("per-step terminal:     ", stepwise)
print("lifted one-block update:", boundary)
print("difference:", np.abs(stepwise - boundary).max())
