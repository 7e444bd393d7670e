"""Dense linear-algebra helpers shared by analysis and design."""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT, Tolerances


def _rank(svals: np.ndarray, shape, tol: Tolerances, floor: float = 0.0):
    """Count of descending singular values above the cutoff.

    ``svals`` is one row (an int is returned) or a stack of rows from
    matrices of one ``shape`` (an array with one rank per row).
    """
    top = svals[..., :1] if svals.shape[-1] else 0.0
    above = svals > tol.rank_cutoff(shape) * np.maximum(top, floor)
    # count_nonzero without an axis is the fast path for the common single row
    return int(np.count_nonzero(above)) if svals.ndim == 1 else np.count_nonzero(above, axis=-1)


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
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = _rank(s, matrix.shape, tol)
    coeffs = u[:, :rank].T @ rhs
    x = vt[:rank].T @ (coeffs / s[:rank])
    residual = float(np.linalg.norm(rhs - u[:, :rank] @ coeffs))
    return x, rank, s, residual
