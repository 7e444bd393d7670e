"""Zero-net-charge block constraint: kernel basis and latent coordinates.

Inputs are grouped into blocks of h consecutive steps, and within each
block every input channel must sum to zero. Stacking one block into a
vector U in R^(m*h), the constraint reads R @ U = 0 with
R = [I_m  I_m ... I_m], which no law needs formed. An orthonormal basis
Q of the null space of R turns constrained blocks into free latent
coordinates w through U = Q @ w, and the orthonormality makes the map an
isometry: ||U|| = ||w||.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .system import _locked
from .tolerances import BASIS_ATOL, require_integer


def _zero_sum_basis(h: int) -> np.ndarray:
    """Orthonormal h x (h-1) basis of the zero-column-sum subspace of R^h, h >= 2.

    Columns are the modified Gram-Schmidt orthonormalization, processed
    left to right, of the difference vectors e1 - e2, e2 - e3, ...,
    e(h-1) - eh. Column j is zero below row j + 1, so e_i - e(i+1) meets
    only column i - 1: the sweep's other projections subtract exact zeros
    and are skipped. The columns are built in place as the rows of an
    (h-1) x h array, whose transpose is returned, so each projection reads
    a contiguous row. The construction is deterministic, so schemes are
    reproducible across runs and platforms.
    """
    try:
        rows = np.zeros((h - 1, h))
    except ValueError as exc:  # past numpy's index range: as if out of memory
        raise MemoryError(f"a {h} x {h - 1} kernel basis is too large to address: {exc}") from exc
    for i in range(h - 1):
        v = rows[i]
        v[i] = 1.0
        v[i + 1] = -1.0
        if i:
            v -= (rows[i - 1] @ v) * rows[i - 1]
        v /= np.linalg.norm(v)
    return rows.T


def _require_block_shape(h, m) -> tuple[int, int]:
    return require_integer("block length", h, 2), require_integer("input dimension", m, 1)


@dataclass(frozen=True, eq=False)
class BlockScheme:
    """Charge-balance data for blocks of h steps on m input channels.

    Q is an (m*h) x (m*(h-1)) orthonormal basis of Ker(R), where R is the
    m x (m*h) per-channel block-sum matrix [I_m ... I_m]; R itself is not
    held. Any Q satisfying the invariants is accepted, so recombined bases
    Q @ Theta (Theta orthogonal) can stand in for the canonical one.
    """

    h: int
    m: int
    Q: np.ndarray

    def __post_init__(self):
        _require_block_shape(self.h, self.m)
        # C order whatever the caller passed: _zero_sum_basis returns a transpose
        Q = _locked(np.array(self.Q, dtype=float, order="C"))
        if Q.shape != (self.m * self.h, self.m * (self.h - 1)):
            raise DimensionError(
                f"Q must be {self.m * self.h} x {self.m * (self.h - 1)}, got {Q.shape}"
            )
        # |Q.T Q - I| in the one Gram array; written "not <=" so NaN fails
        gram = Q.T @ Q
        gram.flat[:: gram.shape[0] + 1] -= 1.0
        if not np.abs(gram, out=gram).max() <= BASIS_ATOL:
            raise ValueError("Q columns are not orthonormal")
        # R @ Q without the product: per channel, Q's rows summed over the h steps
        if not np.abs(Q.reshape(self.h, self.m, -1).sum(axis=0)).max() <= BASIS_ATOL:
            raise ValueError("Q columns do not lie in the null space of R")
        object.__setattr__(self, "Q", Q)


def build_scheme(h: int, m: int) -> BlockScheme:
    """Canonical scheme for block length h and m input channels.

    For h = 2 the kernel basis is exactly [I_m; -I_m] / sqrt(2). For
    larger h it is V kron I_m with V = _zero_sum_basis(h), which keeps the
    channels decoupled inside the basis.

    Raises PreconditionError unless h >= 2 and m >= 1 are integers (numpy
    integers count; bool and float do not). A scheme is immutable, with Q
    locked read-only, so one object per (h, m) is built and checked once
    and shared by every caller in the process; the 128 latest shapes are
    held.
    """
    return _shared_scheme(*_require_block_shape(h, m))


@functools.lru_cache
def _shared_scheme(h: int, m: int) -> BlockScheme:
    return BlockScheme(h=h, m=m, Q=np.kron(_zero_sum_basis(h), np.eye(m)))


def unpack(w, scheme: BlockScheme) -> np.ndarray:
    """Stacked block U = Q @ w; satisfies R @ U = 0 and ||U|| = ||w||, and Q.T @ U = w."""
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != scheme.Q.shape[1]:
        raise DimensionError(f"w has length {w.size}, expected {scheme.Q.shape[1]}")
    return scheme.Q @ w

