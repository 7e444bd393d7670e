"""Dense linear-algebra helpers shared by analysis and design."""

from __future__ import annotations

import numpy as np

from .errors import AnalysisError
from .tolerances import DEFAULT, Tolerances


def _require_finite(matrix: np.ndarray, what: str) -> np.ndarray:
    """matrix, unless an inf or NaN shows float64 overflow of powers of A: AnalysisError."""
    if not np.isfinite(matrix).all():
        raise AnalysisError(f"float64 overflow: {what} has non-finite entries "
                            "(the horizon or block length is too long for this plant)")
    return matrix


def _rank(svals: np.ndarray, shape, tol: Tolerances) -> int:
    """Count of descending singular values above the cutoff."""
    top = svals[0] if svals.size else 0.0
    return int(np.count_nonzero(svals > tol.rank_cutoff(shape) * top))


def numeric_rank(matrix, tol: Tolerances = DEFAULT):
    """Numeric rank: number of singular values above the cutoff.

    The cutoff is ``tol.rank_cutoff(shape) * sigma_max``: relative to the
    matrix alone, with no absolute floor, so scaling keeps the rank.

    Accepts real or complex matrices. Returns (rank, singular_values)
    with the values in descending order. Raises AnalysisError when the
    matrix has a non-finite entry.
    """
    matrix = _require_finite(np.atleast_2d(np.asarray(matrix)), "the matrix to rank-test")
    svals = np.linalg.svd(matrix, compute_uv=False)
    return _rank(svals, matrix.shape, tol), svals


def min_norm_solve(matrix, rhs, tol: Tolerances = DEFAULT):
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    Uses a truncated SVD with the shared rank cutoff. Returns
    (x, rank, singular_values, residual); ``residual`` is the Euclidean
    distance from ``rhs`` to the numerical column space of ``matrix``.
    Raises AnalysisError when either has a non-finite entry.
    """
    matrix = _require_finite(np.asarray(matrix, dtype=float), "the matrix of the solve")
    rhs = _require_finite(np.asarray(rhs, dtype=float), "the right-hand side of the solve")
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _rank(s, matrix.shape, tol)
    coeffs = u[:, :rank].T @ rhs
    x = vt[:rank].T @ (coeffs / s[:rank])
    residual = float(np.linalg.norm(rhs - u[:, :rank] @ coeffs))
    return x, rank, s, residual


def unique_or_min_norm_solve(matrix, rhs, tol: Tolerances = DEFAULT):
    """As min_norm_solve, but by LU when the matrix is square and of full numeric
    rank by its singular values alone: the solution is then unique and the
    residual 0. Any other matrix, or an LU that raises, goes to min_norm_solve."""
    matrix = _require_finite(np.asarray(matrix, dtype=float), "the matrix of the solve")
    rhs = _require_finite(np.asarray(rhs, dtype=float), "the right-hand side of the solve")
    if matrix.shape[0] == matrix.shape[1]:
        svals = np.linalg.svd(matrix, compute_uv=False)
        if _rank(svals, matrix.shape, tol) == len(matrix):
            try:
                return np.linalg.solve(matrix, rhs), len(matrix), svals, 0.0
            except np.linalg.LinAlgError:
                pass
    return min_norm_solve(matrix, rhs, tol)
