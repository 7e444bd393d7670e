"""Discrete-time linear plant description and exact forward simulation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnalysisError, DimensionError

# simulate looks for a period in the input rows from this N * n * m on:
# the check costs 8-14 us, about what the batched product costs at
# n = m = 50 over 40 steps or n = m = 32 over 100 (one BLAS thread)
_PERIOD_MIN_WORK = 2**17


def _locked(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr whose write flag cannot be set back.

    numpy lets an array that owns its data be made writeable again, but
    not a view of a read-only base. An array that owns its data is locked
    in place, with no copy, so pass a freshly built one (copy what a
    caller may still hold); a view is copied first, since its base could
    be made writeable.
    """
    if arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr.view()


def _addressable(what: str, allocate, *args) -> np.ndarray:
    """allocate(*args), a size past numpy's index range refused as if out of memory."""
    try:
        return allocate(*args)
    except (ValueError, OverflowError) as exc:
        raise MemoryError(f"{what} is too large to address: {exc}") from exc


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """The pair (A, B) of the recursion x[k+1] = A x[k] + B u[k].

    A is n x n and B is n x m with m >= 1; all entries must be finite.
    Instances are immutable (the arrays are locked) and safe to share
    between concurrent analyses. Derived data are computed on first use,
    cached and shared by every analysis of the system: the modal basis
    (eigenvalues, unit right eigenvectors V and W = V^-1, from one eig and
    one inv, locked), and the PBH decision, which analysis.pbh_controllable
    makes and keeps in the _pbh slot (None until decided).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionError(
                f"B must have {A.shape[0]} rows, got shape {B.shape}"
            )
        if B.shape[1] < 1:
            raise DimensionError("B must have at least one column")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("system matrices must have finite entries")
        object.__setattr__(self, "A", _locked(A))
        object.__setattr__(self, "B", _locked(B))
        object.__setattr__(self, "_pbh", None)  # analysis.pbh_controllable, once decided

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def _modal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda, V, W): eigenvalues, unit right eigenvectors, W = V^-1 (NaN for a singular V)."""
        try:
            eigs, V = np.linalg.eig(self.A)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(self.A))
            raise AnalysisError(
                f"eigensolver failed to converge (condition estimate {cond:.3e})"
            ) from exc
        try:
            W = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            W = np.full_like(V, np.nan)
        return _locked(eigs), _locked(V), _locked(W)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, locked; AnalysisError if the eigensolver fails."""
        return self._modal[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A rollout: the states x[0..N] as rows, copied and locked; N is its horizon."""

    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _locked(np.array(self.states, dtype=float)))

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def _period(rows: np.ndarray) -> int:
    """p with rows[k] == rows[k - p] bit for bit for every k >= p, else len(rows).

    Only one p is tried: the first row equal to row 0 among the first 8
    after it that share row 0's first entry. Bits, not values, are
    compared: -0.0 and 0.0 can give products of different bits, and
    print differently. simulate forms B @ u once per period by it, and
    problem_io.write_csv formats one period of a table's value rows;
    rows may be any float64 view, contiguous or not.
    """
    bits = rows.view(np.uint64)
    first = rows[0].tobytes()
    for p in (np.flatnonzero(bits[1:, 0] == bits[0, 0])[:8] + 1).tolist():
        if rows[p].tobytes() == first:
            return p if np.array_equal(bits[p:], bits[:-p]) else len(rows)
    return len(rows)


def simulate(system: LtiSystem, x0, inputs) -> Trajectory:
    """Roll the recursion forward and return every intermediate state.

    Args:
        system: the plant.
        x0: initial state, length n.
        inputs: an (N, m) array-like of numbers, one row per step.

    Returns:
        Trajectory with states[k+1] = A @ states[k] + B @ inputs[k],
        bit for bit that expression at every step. The inputs are made
        C-ordered first, so B @ u does not round by their memory layout.
        The input products B @ u are formed for all steps at once,
        straight into the state rows, since none depends on a state;
        each step then adds A @ x. The batched product runs the same
        per-row BLAS product as B @ u on C-ordered inputs, and the
        two-term sum commutes exactly, so no state differs from the
        step-by-step expression. Where N * n * m >= 2**17 and the input
        rows repeat bit for bit with a period p (as every identical-block
        plan's do), B @ u is formed for the first p rows and copied into
        the rest. The steps walk the state rows in consecutive pairs, so
        a long rollout holds no list of them.

    Raises:
        DimensionError: naming the shape of inputs that are not (N, m),
            or x0 when the initial state has the wrong size.
        ValueError, TypeError: from numpy, for ragged or non-numeric
            rows, or an iterator or generator of inputs.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise DimensionError(f"x0 has length {x0.size}, expected {system.n}")
    rows = np.asarray(inputs, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != system.m:
        raise DimensionError(f"inputs must have shape (N, {system.m}), got {rows.shape}")
    rows = np.ascontiguousarray(rows)
    steps = len(rows)
    dot = system.A.dot
    states = np.empty((steps + 1, system.n))
    states[0] = x0
    p = _period(rows) if steps * system.n * system.m >= _PERIOD_MIN_WORK else steps
    # B @ u goes straight into the state rows: no N x n temporary
    np.matmul(system.B, rows[:p, :, None], out=states[1:p + 1, :, None])
    if p < steps:  # whole periods by one broadcast copy, then the partial one
        whole = steps // p
        states[p + 1:whole * p + 1].reshape(whole - 1, p, system.n)[:] = states[1:p + 1]
        states[whole * p + 1:] = states[1:steps - whole * p + 1]
    ax = np.empty(system.n)
    for x, nxt in itertools.pairwise(states):
        dot(x, ax)
        nxt += ax
    return Trajectory(states=states)
