"""Discrete-time linear plant description and exact forward simulation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnalysisError, DimensionError


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """The pair (A, B) of the recursion x[k+1] = A x[k] + B u[k].

    A is n x n and B is n x m with m >= 1; all entries must be finite.
    Instances are immutable (the arrays are locked) and safe to share
    between concurrent analyses. Two derived arrays are computed on first
    use, cached and locked, so every analysis of one system shares them:
    the spectrum of A (one eigen-solve) and the singular values of the PBH
    pencil [lambda I - A, B] at each eigenvalue (one pencil sweep).
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _frozen_array(self.A)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionError(
                f"B must have {A.shape[0]} rows, got shape {B.shape}"
            )
        if B.shape[1] < 1:
            raise DimensionError("B must have at least one column")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("system matrices must have finite entries")
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, solved once per system and locked.

        Raises AnalysisError when the eigensolver fails to converge.
        """
        try:
            eigs = np.linalg.eigvals(self.A)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(self.A))
            raise AnalysisError(
                f"eigensolver failed to converge (condition estimate {cond:.3e})"
            ) from exc
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def pencil_singular_values(self) -> np.ndarray:
        """Singular values of [lambda I - A, B], one row per eigenvalue, locked.

        Row k holds the n singular values, in descending order, of the PBH
        pencil at ``eigenvalues[k]``. A real eigenvalue gets a real pencil.
        A complex one gets one complex SVD, and its exact conjugate, which
        LAPACK returns right after it, reuses that row: conjugate pencils
        have equal singular values. One pencil buffer per dtype is reused,
        with only its diagonal rewritten per eigenvalue.
        """
        eigs = self.eigenvalues
        diag = np.diag(self.A)
        pencil = np.hstack([-self.A, self.B])
        complex_pencil = None
        rows = np.empty((eigs.size, self.n))
        for k, lam in enumerate(eigs):
            if lam.imag == 0:
                np.fill_diagonal(pencil, lam.real - diag)
                rows[k] = np.linalg.svd(pencil, compute_uv=False)
            elif lam.imag < 0 and k and eigs[k - 1] == np.conj(lam):
                rows[k] = rows[k - 1]
            else:
                if complex_pencil is None:
                    complex_pencil = pencil.astype(complex)
                np.fill_diagonal(complex_pencil, lam - diag)
                rows[k] = np.linalg.svd(complex_pencil, compute_uv=False)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A rollout: states x[0..N] (rows) and the inputs u[0..N-1] that produced it."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        states = _frozen_array(self.states)
        inputs = _frozen_array(self.inputs)
        if states.shape[0] != inputs.shape[0] + 1:
            raise DimensionError(
                f"need exactly one more state than inputs, got {states.shape[0]} "
                f"states for {inputs.shape[0]} inputs"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


def simulate(system: LtiSystem, x0, inputs) -> Trajectory:
    """Roll the recursion forward and return every intermediate state.

    Args:
        system: the plant.
        x0: initial state, length n.
        inputs: sequence of input vectors, each of length m (an (N, m)
            array also works).

    Returns:
        Trajectory with states[k+1] = A @ states[k] + B @ inputs[k].

    Raises:
        DimensionError: naming the offending input index on a length
            mismatch, or x0 when the initial state has the wrong size.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise DimensionError(f"x0 has length {x0.size}, expected {system.n}")
    rows = []
    for k, u in enumerate(inputs):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.size != system.m:
            raise DimensionError(f"input {k} has length {u.size}, expected {system.m}")
        rows.append(u)
    steps = len(rows)
    states = np.empty((steps + 1, system.n))
    states[0] = x0
    for k in range(steps):
        states[k + 1] = system.A @ states[k] + system.B @ rows[k]
    stacked = np.array(rows).reshape(steps, system.m)
    return Trajectory(states=states, inputs=stacked)

