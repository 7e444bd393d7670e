"""Dense linear-algebra helpers shared by analysis and design."""

from __future__ import annotations

import numpy as np

from .errors import AnalysisError
from .tolerances import DEFAULT, Tolerances


def _rank(svals: np.ndarray, shape, tol: Tolerances, floor: float = 0.0) -> int:
    """Count of descending singular values above the cutoff."""
    top = svals[0] if svals.size else 0.0
    return int(np.count_nonzero(svals > tol.rank_cutoff(shape) * max(top, floor)))


def numeric_rank(matrix, tol: Tolerances = DEFAULT, floor: float = 0.0):
    """Numeric rank: number of singular values above the cutoff.

    The cutoff is ``tol.rank_cutoff(shape) * max(sigma_max, floor)``. The
    absolute ``floor`` serves objects assembled from larger factors: they
    carry rounding noise at the scale of those factors, so singular values
    below cutoff * floor are indistinguishable from assembly noise even
    when they dominate sigma_max (e.g. Bbar = 0 in exact arithmetic).

    Accepts real or complex matrices. Returns (rank, singular_values)
    with the values in descending order.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    svals = np.linalg.svd(matrix, compute_uv=False)
    return _rank(svals, matrix.shape, tol, floor), svals


def min_norm_solve(matrix, rhs, tol: Tolerances = DEFAULT):
    """Minimum-norm least-squares solution of ``matrix @ x = rhs``.

    Uses a truncated SVD with the shared rank cutoff. Returns
    (x, rank, singular_values, residual); ``residual`` is the Euclidean
    distance from ``rhs`` to the numerical column space of ``matrix``.
    Raises AnalysisError when either has a non-finite entry, which is how
    float64 overflow of powers of A over a long horizon shows.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise AnalysisError(
            "float64 overflow: the matrix or right-hand side of the solve has "
            "non-finite entries (the horizon is too long for this plant)"
        )
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _rank(s, matrix.shape, tol)
    coeffs = u[:, :rank].T @ rhs
    x = vt[:rank].T @ (coeffs / s[:rank])
    residual = float(np.linalg.norm(rhs - u[:, :rank] @ coeffs))
    return x, rank, s, residual
