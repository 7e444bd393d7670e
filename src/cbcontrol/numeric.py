"""Dense linear-algebra helpers shared by analysis and design."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import AnalysisError
from .system import _locked
from .tolerances import _EPS, rank_cutoff


class Solve(NamedTuple):
    """x for matrix @ x = rhs, its arrays locked; singular_values None: the certified LU ran."""

    x: np.ndarray
    rank: int
    singular_values: np.ndarray | None
    residual: float


def _require_finite(matrix: np.ndarray, what: str) -> np.ndarray:
    """matrix, unless an inf or NaN shows float64 overflow of A or its powers: AnalysisError."""
    if not np.isfinite(matrix).all():
        raise AnalysisError(f"float64 overflow: {what} has non-finite entries "
                            "(the plant, horizon or block length is past float64's range)")
    return matrix


def _rank(svals: np.ndarray, shape) -> int:
    """Count of descending singular values above the cutoff."""
    top = svals[0] if svals.size else 0.0
    return int(np.count_nonzero(svals > rank_cutoff(shape) * top))


def numeric_rank(matrix):
    """Numeric rank: number of singular values above the cutoff.

    The cutoff is ``rank_cutoff(shape) * sigma_max``: relative to the
    matrix alone, with no absolute floor, so scaling keeps the rank.

    Accepts real or complex matrices. Returns (rank, singular_values)
    with the values in descending order. Raises AnalysisError when the
    matrix has a non-finite entry.
    """
    matrix = _require_finite(np.atleast_2d(np.asarray(matrix)), "the matrix to rank-test")
    svals = np.linalg.svd(matrix, compute_uv=False)
    return _rank(svals, matrix.shape), svals


def min_norm_solve(matrix, rhs):
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    Uses a truncated SVD with the shared rank cutoff. Returns a Solve
    (x, rank, singular_values, residual); ``residual`` is the Euclidean
    distance from ``rhs`` to the numerical column space of ``matrix``.
    Raises AnalysisError when either has a non-finite entry.
    """
    matrix = _require_finite(np.asarray(matrix, dtype=float), "the matrix of the solve")
    rhs = _require_finite(np.asarray(rhs, dtype=float), "the right-hand side of the solve")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _rank(s, matrix.shape)
    coeffs = u[:, :rank].T @ rhs
    x = vt[:rank].T @ (coeffs / s[:rank])
    residual = float(np.linalg.norm(rhs - u[:, :rank] @ coeffs))
    return Solve(_locked(x), rank, _locked(s), residual)


def _certified_full_rank(matrix: np.ndarray) -> bool:
    """Whether a shifted Cholesky proves the square matrix M has sigma_min > c sigma_max,
    c = rank_cutoff. With M scaled exactly to a largest entry in [0.5, 1), G = M^T M errs
    by gamma_n F, F = trace(G), and a Cholesky that completes is exact within
    gamma_(n+1) F (Demmel 1989; Higham 2002, sec. 10.1). If G - (c^2 + 4(n+1) eps) F I
    factors, then sigma_min^2 > c^2 F >= c^2 sigma_max^2: Frobenius conditions up to
    ~1/sqrt(4(n+1) eps). Its n x n arrays are freed on return."""
    n = len(matrix)
    scaled = np.ldexp(matrix, -np.frexp(np.abs(matrix).max())[1])
    gram = scaled.T @ scaled
    gram.flat[:: n + 1] -= (rank_cutoff((n, n)) ** 2 + 4 * (n + 1) * _EPS) * np.trace(gram)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def unique_or_min_norm_solve(matrix, rhs):
    """As min_norm_solve, but by LU (a Solve of rank n, residual 0, singular values None)
    when _certified_full_rank proves a square matrix has sigma_min > rank_cutoff sigma_max."""
    matrix = _require_finite(np.asarray(matrix, dtype=float), "the matrix of the solve")
    rhs = _require_finite(np.asarray(rhs, dtype=float), "the right-hand side of the solve")
    n = len(matrix)
    if matrix.shape == (n, n) and _certified_full_rank(matrix):
        try:
            return Solve(_locked(np.linalg.solve(matrix, rhs)), n, None, 0.0)
        except np.linalg.LinAlgError:
            pass
    return min_norm_solve(matrix, rhs)
