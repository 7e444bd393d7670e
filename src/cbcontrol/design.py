"""Minimum-energy charge-balanced steering plans.

The closed-form laws act on the lifted block dynamics. With distinct
blocks, the displacement d = x_f - Abar^b x_0 is pulled back through the
pseudoinverse of the b-block Gramian G = Rb Rb^T:

    [w[0]; ...; w[b-1]] = Rb^T G^+ d,  i.e.  w[p] = Bbar^T (Abar^T)^(b-1-p) G^+ d

With identical blocks one latent vector solves H_b Bbar w = d in the
minimum-norm sense: by LU when the gain H_b Bbar is square (m(h-1) = n)
and a Cholesky of its Gram matrix proves full rank, so the solution is
unique, and otherwise as below. Pseudoinverses are SVD truncations with
the shared rank rule, so both laws return the minimum-norm minimizer when
the reachable space is rank deficient. Both laws and the oracle check
their solve's residual with _require_reached. A plan is its inputs U = Q w,
formed as the rows of w @ Q.T and snapped by charge_balance._balanced so
that each block sums to exactly 0.0; a law's plan keeps that numeric.Solve
as plan.solve, which no output reads.

A stacked least-squares solver over the raw per-step inputs
(oracle_stacked_ls) provides an independent optimality cross-check; it
never touches the lifted objects. With identical blocks it solves for
the inputs of the one block that repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charge_balance import BlockScheme, _balanced, _block_imbalances
from .errors import ChargeBalanceError, DimensionError, PreconditionError, ReachabilityError
from .lifting import LiftedSystem, _require_channels, h_sum, reachability_matrix
from .numeric import Solve, min_norm_solve, unique_or_min_norm_solve
from .system import LtiSystem, Trajectory, _addressable, _locked, simulate
from .tolerances import DEFAULT, REACH, Tolerances, require_integer

NON_REPETITIVE = "non-repetitive"
REPETITIVE = "repetitive"
REGIMES = (NON_REPETITIVE, REPETITIVE)


@dataclass(frozen=True, eq=False)
class SteeringTask:
    """Steer from x0 to xf at the boundary of block b, in one regime."""

    x0: np.ndarray
    xf: np.ndarray
    b: int
    regime: str

    def __post_init__(self):
        x0 = _locked(np.asarray(self.x0, dtype=float).reshape(-1))
        xf = _locked(np.asarray(self.xf, dtype=float).reshape(-1))
        if x0.size != xf.size:
            raise DimensionError(
                f"x0 has length {x0.size} but xf has length {xf.size}"
            )
        b = require_integer("block horizon", self.b, 1)
        if self.regime not in REGIMES:
            raise PreconditionError(
                f"regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if not (np.isfinite(x0).all() and np.isfinite(xf).all()):
            raise ValueError("task states must have finite entries")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "xf", xf)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class ControlPlan:
    """A designed input sequence: the applied inputs, and their energy derived from them.

    flat_inputs is the (b*h, m) per-step sequence that is applied, stored
    as a C-ordered float64 copy and locked (it cannot be made writeable
    again); anything but a (steps, m) array-like raises DimensionError.
    solve is the Solve a design law drew them from; None for other plans.
    A plan keeps its last rollout: verify_plan and rollout on the same
    system object from the same x0 share one simulation.
    """

    flat_inputs: np.ndarray
    solve: Solve | None = None

    def __post_init__(self):
        flat = np.array(self.flat_inputs, dtype=float, order="C")
        if flat.ndim != 2:
            raise DimensionError(f"plan inputs must have shape (steps, m), got {flat.shape}")
        object.__setattr__(self, "flat_inputs", _locked(flat))
        object.__setattr__(self, "_rollout", {})  # (system, x0 bytes) -> Trajectory, one entry

    @cached_property
    def energy(self) -> float:
        """Total squared norm of flat_inputs."""
        return float(np.vdot(self.flat_inputs, self.flat_inputs))


@dataclass(frozen=True, eq=False)
class PlanVerification:
    """Simulation-based report on a plan; see verify_plan."""

    trajectory: Trajectory
    terminal_error: float
    imbalances: np.ndarray
    passed: bool


def _require_regime(task: SteeringTask, expected: str):
    if task.regime != expected:
        raise PreconditionError(
            f"task regime is {task.regime!r}, expected {expected!r}"
        )


def _require_states(task: SteeringTask, n: int):
    """The task's states have the plant's length n, checked before d = x_f - Abar^b x_0."""
    if task.x0.size != n:
        raise DimensionError(f"task states have length {task.x0.size}, system has {n}")


def _require_reached(residual: float, d, what: str, rank_text: str, rank: int):
    """ReachabilityError when residual exceeds REACH relative to d; a zero d is always reached."""
    dnorm = float(np.linalg.norm(d))
    if dnorm > 0.0 and residual > REACH * dnorm:
        raise ReachabilityError(
            f"{what}: residual {residual:.3e} (relative {residual / dnorm:.3e}), {rank_text}",
            residual=residual,
            rank=rank,
        )


def design_nonrepetitive(lifted: LiftedSystem, task: SteeringTask) -> ControlPlan:
    """Minimum-energy plan with distinct blocks.

    Raises ReachabilityError when the displacement lies outside the
    column space of the b-block Gramian (relative residual above REACH);
    the error carries the least-squares residual and the Gramian rank.
    """
    _require_regime(task, NON_REPETITIVE)
    _require_states(task, lifted.n)
    d = task.xf - np.linalg.matrix_power(lifted.Abar, task.b) @ task.x0
    Rb = reachability_matrix(lifted, task.b)
    solve = min_norm_solve(Rb @ Rb.T, d)
    _require_reached(solve.residual, d, f"target displacement is not reachable in {task.b} blocks",
                     f"Gramian rank {solve.rank} of {lifted.n}", solve.rank)
    latents = (Rb.T @ solve.x).reshape(task.b, -1)
    inputs = _balanced(latents @ lifted.scheme.Q.T, lifted.scheme)
    return ControlPlan(inputs.reshape(-1, lifted.scheme.m), solve)


def design_repetitive(lifted: LiftedSystem, task: SteeringTask) -> ControlPlan:
    """Minimum-energy plan applying one identical block b times.

    Solves H_b Bbar w = d in the minimum-norm sense, with
    d = x_f - Abar^b x_0; one binary doubling (h_sum) gives both H_b and
    Abar^b x_0, the last squaring applied to x_0 alone. A square gain
    that a Cholesky certifies of full rank is solved by LU. By the
    isometry of the kernel basis the energy is b * ||w||^2, to about h eps.
    """
    _require_regime(task, REPETITIVE)
    _require_states(task, lifted.n)
    total, free = h_sum(lifted, task.b, task.x0)
    d = task.xf - free
    gain = total @ lifted.Bbar
    del total  # H_b is n x n: not held through the solve
    solve = unique_or_min_norm_solve(gain, d)
    _require_reached(solve.residual, d, "target displacement is not reachable with "
                     "identical blocks", f"rank {solve.rank} of {lifted.n}", solve.rank)
    block = _balanced(solve.x[None, :] @ lifted.scheme.Q.T, lifted.scheme)
    inputs = _addressable(f"a plan of {task.b} blocks of {block.size} inputs",
                          np.tile, block, task.b)
    return ControlPlan(inputs.reshape(-1, lifted.scheme.m), solve)


def oracle_stacked_ls(system: LtiSystem, scheme: BlockScheme, task: SteeringTask) -> ControlPlan:
    """Independent optimality oracle over the raw per-step inputs.

    Minimizes the Euclidean norm of the stacked inputs subject to the
    unrolled terminal equality and the per-block zero-sum rows. With
    identical blocks the unknowns are the h*m inputs of the one block
    that repeats, the terminal rows sum the b blocks' columns, and the
    plan is that block b times (whose norm is sqrt(b) times its own).
    Solved as one minimum-norm least-squares system after row
    equilibration (which leaves the solution set of a consistent system
    unchanged). Shares no arithmetic with the closed-form laws. Raises
    ReachabilityError, with the scaled residual and the stacked rank, when
    that system is infeasible, or with the unscaled terminal residual when
    the solution misses the target by _require_reached's rule; before
    that, ChargeBalanceError when a block of the solution carries net
    charge above DEFAULT.charge_balance.
    """
    _require_channels(system, scheme)
    _require_states(task, system.n)
    m, h, b = system.m, scheme.h, task.b
    steps = b * h

    # terminal rows: [A^(steps-1) B, ..., A B, B] u = xf - A^steps x0
    powers = [system.B]
    for _ in range(steps - 1):
        powers.append(system.A @ powers[-1])
    terminal = np.hstack(powers[::-1])
    d_full = task.xf - np.linalg.matrix_power(system.A, steps) @ task.x0

    balance = np.tile(np.eye(m), (1, h))  # per-channel block sums [I_m ... I_m]
    if task.regime == REPETITIVE:  # u is one block v repeated: the columns of the b blocks add
        terminal = terminal.reshape(system.n, b, h * m).sum(axis=1)
    else:
        balance = np.kron(np.eye(b), balance)
    lhs = np.vstack((terminal, balance))
    target = np.concatenate((d_full, np.zeros(len(balance))))

    row_norms = np.linalg.norm(lhs, axis=1)
    row_norms[row_norms == 0.0] = 1.0
    scaled_lhs = lhs / row_norms[:, None]
    scaled_target = target / row_norms
    solve = min_norm_solve(scaled_lhs, scaled_target)
    u, rank, residual = solve.x, solve.rank, solve.residual
    if residual > REACH * max(1.0, float(np.linalg.norm(scaled_target))):
        raise ReachabilityError(
            f"stacked equality system is infeasible: scaled residual {residual:.3e}, rank {rank}",
            residual=residual,
            rank=rank,
        )

    flat = (np.tile(u, b) if task.regime == REPETITIVE else u).reshape(steps, m)
    imbalances = _block_imbalances(flat, h)
    if imbalances.max() > DEFAULT.charge_balance:
        raise ChargeBalanceError(
            f"stacked solution is not charge balanced: block imbalance "
            f"{imbalances.max():.3e} exceeds {DEFAULT.charge_balance:g}",
            imbalance=imbalances,
        )
    miss = float(np.linalg.norm(terminal @ u - d_full))  # unscaled: equilibration hides it
    _require_reached(miss, d_full, "stacked solution misses the target", f"rank {rank}", rank)
    return ControlPlan(flat)


def verify_plan(
    system: LtiSystem,
    scheme: BlockScheme,
    task: SteeringTask,
    plan: ControlPlan,
    tol: Tolerances = DEFAULT,
) -> PlanVerification:
    """Simulate a plan's applied inputs; report terminal error and imbalance.

    Both checks read plan.flat_inputs, the very array that is simulated;
    the imbalance of a block is the largest per-channel net charge of its
    h steps. The report passes iff the terminal error is within
    tol.terminal and every per-block imbalance is within the fixed bound
    DEFAULT.charge_balance, which a designed plan meets with 0.0 and only
    a caller's plan can miss; a failed check is reported, not raised.
    Raises DimensionError when the inputs are not b blocks of h steps
    (checked before simulating) of m channels.
    The trajectory is rollout(system, task, plan), so a later rollout
    with the same system object and x0 returns it without a second
    simulation.
    """
    steps = plan.flat_inputs.shape[0]
    if steps != task.b * scheme.h:
        raise DimensionError(
            f"plan has {steps} steps, task needs {task.b} blocks of {scheme.h}"
        )
    traj = rollout(system, task, plan)
    terminal_error = float(np.linalg.norm(traj.terminal - task.xf))
    imbalances = _block_imbalances(plan.flat_inputs, scheme.h)
    passed = terminal_error <= tol.terminal and bool(
        np.all(imbalances <= DEFAULT.charge_balance)
    )
    return PlanVerification(
        trajectory=traj, terminal_error=terminal_error, imbalances=imbalances, passed=passed
    )


def rollout(system: LtiSystem, task: SteeringTask, plan: ControlPlan) -> Trajectory:
    """Full per-step trajectory of a plan from task.x0, simulated once and kept on the plan.

    Every array the rollout depends on is locked, so the system object and
    the bytes of x0 identify it; a new key replaces the one kept. After
    verify_plan it is report.trajectory itself, and verify_plan after
    rollout reuses it.
    """
    key = (system, task.x0.tobytes())
    memo = plan._rollout
    traj = memo.get(key)
    if traj is None:
        traj = simulate(system, task.x0, plan.flat_inputs)
        memo.clear()
        memo[key] = traj
    return traj
