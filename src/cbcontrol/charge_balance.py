"""Zero-net-charge block constraint: kernel basis, exact balance and its measure.

Inputs are grouped into blocks of h consecutive steps, and within each
block every input channel must sum to zero. Stacking one block into a
vector U in R^(m*h), the constraint reads R @ U = 0 with
R = [I_m  I_m ... I_m], which no law needs formed. An orthonormal basis
Q of the null space of R turns constrained blocks into free latent
coordinates w through U = Q @ w, and the orthonormality makes the map an
isometry: ||U|| = ||w||. The design laws form their blocks as the rows
of w @ Q.T, one row per latent vector; _balanced snaps them so that each
block sums to exactly 0.0, and _block_imbalances measures a plan's blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .system import _addressable, _locked
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
    rows = _addressable(f"a {h} x {h - 1} kernel basis", np.zeros, (h - 1, h))
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
    and shared by every caller in the process; the 32 latest shapes are
    held.
    """
    return _shared_scheme(*_require_block_shape(h, m))


# benchmark traffic at seed 1: design-horizon 14 shapes in 1,105 ops, cli-session 18 in 788
@functools.lru_cache(maxsize=32)
def _shared_scheme(h: int, m: int) -> BlockScheme:
    return BlockScheme(h=h, m=m, Q=np.kron(_zero_sum_basis(h), np.eye(m)))


def _block_imbalances(flat_inputs: np.ndarray, h: int) -> np.ndarray:
    """Largest per-channel net charge of each block of h steps."""
    return np.abs(flat_inputs.reshape(-1, h, flat_inputs.shape[1]).sum(axis=1)).max(axis=1)


def _balanced(inputs: np.ndarray, scheme: BlockScheme) -> np.ndarray:
    """Inputs whose per-channel block sums are exactly 0.0 in every summation order.

    Per block and channel, with max |U| < 2^e and g = 2^(e + ceil(log2 h) - 53),
    the h steps are rounded to multiples of g, so every partial sum of them is
    a multiple of g below 2^53 g and exact; the last step is then 0.0 minus the
    sum of the others. Adding 0.0 to a rounded step and subtracting from 0.0
    make every zero +0.0. The shift is about h eps relative to max |U|.
    """
    blocks = inputs.reshape(-1, scheme.h, scheme.m)
    e = np.frexp(np.abs(blocks).max(axis=1, keepdims=True))[1]
    shift = e + (scheme.h - 1).bit_length() - 53  # (h - 1).bit_length() is ceil(log2 h)
    snapped = np.ldexp(np.rint(np.ldexp(blocks, -shift)) + 0.0, shift)
    snapped[:, -1] = 0.0 - snapped[:, :-1].sum(axis=1)
    return snapped.reshape(inputs.shape)
