"""Discrete-time linear plant description and exact forward simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AnalysisError, DimensionError

_EPS = float(np.finfo(np.float64).eps)


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


def _modal_screen(A: np.ndarray, B: np.ndarray, eigs: np.ndarray, V: np.ndarray):
    """LtiSystem.modal_screen from the eigenvalues and unit right eigenvectors V of A.

    With W = V^-1 as computed, N = W A - diag(lambda) W and F = W V - I,
    ||W^-1|| <= v = sqrt(n) / (1 - ||F||_F), and W P_k diag(W^-1, I) =
    [lambda_k I - diag(lambda) - N W^-1, W B]. With a_k = ||w_k B||,
    g = ||W B||_F and delta_k the gap from lambda_k to the other
    eigenvalues, Weyl's inequality on that form and w_k P_k = [-N_k, w_k B]
    bound sigma_n(P_k) between
    (a_k / hypot(1, (a_k + g) / delta_k) - ||N||_F v) / (||W||_F max(v, 1))
    and (||N_k|| + a_k) / ||w_k||, and ||B||_F / sqrt(m) <= sigma_1(P_k) <=
    2 ||A||_F + ||B||_F. The products are widened by their rounding bound,
    the cutoffs by twice the SVD's backward error (n + m) eps sigma_1.
    """
    n, m = B.shape
    norm_b = math.sqrt(np.vdot(B, B))
    sigma_1 = 2.0 * math.sqrt(np.vdot(A, A)) + norm_b
    # rounding of one product entry per unit of ||w_k||, and of the SVD
    slop = (n + 2) * _EPS * (math.sqrt(2 * n) + sigma_1)
    noise = 2 * (n + m) * _EPS * sigma_1
    with np.errstate(all="ignore"):  # an inf or NaN threshold decides nothing
        try:
            W = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            W = np.full_like(V, np.nan)
        # one product for [W, W A, W V, W B], then [W, N, F, W B] in place
        X = W @ np.concatenate((np.eye(n), A, V, B), axis=1)
        X[:, n:2 * n] -= eigs[:, None] * W
        X.reshape(-1)[2 * n:: 3 * n + m + 1] -= 1.0
        squares = np.add.reduceat(np.square(np.abs(X)), [0, n, 2 * n, 3 * n], axis=1)
        norm_w, norm_n, norm_f, g = (math.sqrt(x) for x in squares.sum(axis=0).tolist())
        w, r, _, a = np.sqrt(squares).T
        norm_n, norm_f, g = (x + slop * norm_w for x in (norm_n, norm_f, g))
        v = math.sqrt(n) / (1.0 - norm_f) if norm_f < 1.0 else math.inf
        gaps = np.abs(np.subtract.outer(eigs, eigs))
        gaps.reshape(-1)[:: n + 1] = np.inf
        # a_k - slop w_k in place of a_k lowers the bound by at most slop
        core = a / np.hypot(1.0, (a + g) / gaps.min(axis=1, initial=np.inf))
        unit = np.float64(sigma_1 + noise)  # numpy division: zero only for A = 0, B = 0
        holds_below = (core - norm_n * v) / (norm_w * max(v, 1.0) * unit) - (slop + noise) / unit
        low = norm_b / math.sqrt(m) - noise
        # an overflowed ||w_k|| hides its residual
        scale = (1.0 / low if low > 0 else math.inf) if math.isfinite(norm_w) else math.nan
        fails_from = ((a + r) / w + (2 * slop + noise)) * scale
        values = np.fmin(a / w, np.inf)  # NaN reads as inf
    return _locked(values), _locked(holds_below), _locked(fails_from)


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """The pair (A, B) of the recursion x[k+1] = A x[k] + B u[k].

    A is n x n and B is n x m with m >= 1; all entries must be finite.
    Instances are immutable (the arrays are locked) and safe to share
    between concurrent analyses. Derived data are computed on first use,
    cached and locked, and shared by every analysis of the system: the
    spectrum of A (one eig), the modal PBH screen from its eigenvectors,
    the PBH pencil singular values asked for, the PBH result per Tolerances.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
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
        object.__setattr__(self, "A", _locked(A))
        object.__setattr__(self, "B", _locked(B))
        object.__setattr__(self, "_pencils", {})  # eigenvalue index -> pencil_svals
        object.__setattr__(self, "_pbh", {})  # Tolerances -> analysis.pbh_controllable

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        try:
            eigs, vectors = np.linalg.eig(self.A)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(self.A))
            raise AnalysisError(
                f"eigensolver failed to converge (condition estimate {cond:.3e})"
            ) from exc
        return _locked(eigs), vectors

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A, locked; AnalysisError if the eigensolver fails."""
        return self._eig[0]

    @cached_property
    def modal_screen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, holds_below, fails_from), one entry per eigenvalue, locked.

        values[k] = ||w_k B|| / ||w_k||, w_k the k-th row of W = V^-1. The
        SVD of P_k = [lambda_k I - A, B] has sigma_n > c sigma_1 at every
        cutoff c below holds_below[k] and at none from fails_from[k] on; a
        cutoff in between, or a NaN threshold, needs that SVD.
        """
        return _modal_screen(self.A, self.B, *self._eig)

    def _pencil(self, k: int) -> np.ndarray:
        """The PBH pencil [lambda_k I - A, B], freshly built; real for a real eigenvalue."""
        lam = self.eigenvalues[k]
        lam = lam if lam.imag else lam.real
        pencil = np.concatenate((-self.A, self.B), axis=1).astype(type(lam), copy=False)
        pencil.reshape(-1)[:: self.n + self.m + 1] = lam - self.A.diagonal()
        return pencil

    def pencil_svals(self, k: int) -> np.ndarray:
        """Singular values of [lambda_k I - A, B], descending, computed once per k, locked.

        The PBH witness SVD of a failing pencil fills the entry it finds
        empty, so a reported failure takes no second SVD.
        """
        if k not in self._pencils:
            self._pencils[k] = _locked(np.linalg.svd(self._pencil(k), compute_uv=False))
        return self._pencils[k]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A rollout: states x[0..N] (rows) and the inputs u[0..N-1] that produced it, locked."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        states = _locked(np.array(self.states, dtype=float))
        inputs = _locked(np.array(self.inputs, dtype=float))
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


def _input_rows(inputs, m: int) -> np.ndarray:
    """The inputs as a C-ordered (N, m) float array, checked once.

    Ragged rows and iterators are checked row by row, so the error names
    the offending input index.
    """
    try:
        rows = np.asarray(inputs, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is None or rows.ndim == 0:
        checked = []
        for k, u in enumerate(inputs):
            u = np.asarray(u, dtype=float).reshape(-1)
            if u.size != m:
                raise DimensionError(f"input {k} has length {u.size}, expected {m}")
            checked.append(u)
        return np.array(checked).reshape(len(checked), m)
    if len(rows) == 0:
        return np.zeros((0, m))
    if rows[0].size != m:  # every row has the size of the first
        raise DimensionError(f"input 0 has length {rows[0].size}, expected {m}")
    # C order, so B @ u does not round by the memory layout of the inputs
    return np.ascontiguousarray(rows.reshape(len(rows), m))


def simulate(system: LtiSystem, x0, inputs) -> Trajectory:
    """Roll the recursion forward and return every intermediate state.

    Args:
        system: the plant.
        x0: initial state, length n.
        inputs: an (N, m) array, or a sequence or iterator of N input
            vectors of length m each (for m = 1, N scalars also work).

    Returns:
        Trajectory with states[k+1] = A @ states[k] + B @ inputs[k],
        bit for bit that expression at every step. The input products
        B @ u are formed for all steps at once, straight into the state
        rows, since none depends on a state; each step then adds A @ x.
        The batched product runs the same per-row BLAS product as
        B @ u on C-ordered inputs, and the two-term sum commutes exactly,
        so no state differs from the step-by-step expression.

    Raises:
        DimensionError: naming the offending input index on a length
            mismatch, or x0 when the initial state has the wrong size.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != system.n:
        raise DimensionError(f"x0 has length {x0.size}, expected {system.n}")
    rows = _input_rows(inputs, system.m)
    A, dot = system.A, np.dot
    states = np.empty((len(rows) + 1, system.n))
    states[0] = x0
    # B @ u goes straight into the state rows: no N x n temporary
    np.matmul(system.B, rows[:, :, None], out=states[1:, :, None])
    ax = np.empty(system.n)
    for x, nxt in zip(states, states[1:]):
        nxt += dot(A, x, out=ax)
    return Trajectory(states=states, inputs=rows)
