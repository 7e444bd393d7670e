"""Block-to-block lifted dynamics, reachability matrices, and geometric sums.

Sampling the plant at block boundaries k = 0, h, 2h, ... turns the
constrained per-step problem into an unconstrained one in the latent
coordinates: x[(p+1)h] = Abar @ x[ph] + Bbar @ w[p], where Abar = A^h
and Bbar = S @ Q collects the effect of one stacked block through
S = [A^(h-1) B, ..., A B, B]; only Abar and Bbar are kept.

The identical-block design needs the geometric sum
H_b = I + Abar + ... + Abar^(b-1) and the free response Abar^b x[0],
since x[bh] = Abar^b x[0] + H_b Bbar w. `h_sum` forms both in one binary
doubling in O(log b) dense products instead of b - 1, applying the last
squaring to x[0] by matrix-vector products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .charge_balance import BlockScheme
from .errors import DimensionError
from .system import LtiSystem, _locked
from .tolerances import require_integer


@dataclass(frozen=True, eq=False)
class LiftedSystem:
    """Block-boundary dynamics x[(p+1)h] = Abar @ x[ph] + Bbar @ w[p]."""

    system: LtiSystem
    scheme: BlockScheme
    Abar: np.ndarray
    Bbar: np.ndarray

    def __post_init__(self):
        for name in ("Abar", "Bbar"):
            object.__setattr__(self, name, _locked(np.array(getattr(self, name), dtype=float)))

    @property
    def n(self) -> int:
        return self.system.n


def krylov(M: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """Block-Krylov matrix [M^(k-1) X, ..., M X, X], k >= 1, by k - 1 products from X.

    lift's S, reachability_matrix's Rb and analysis' K are all built here.
    Each product is written in place into a stage of c contiguous (n, w)
    blocks (at most 2^16 cells, at least 2 blocks), the top block of one
    stage giving the next its first product, and each stage is copied into
    its place in one C-ordered (n, k, w) result, so the matrix is never
    held twice. For w = 1 a transposed view would be F-ordered, and
    products with it round differently.
    """
    n, w = X.shape
    c = min(k, max(2, 2**16 // max(1, n * w)))
    try:
        result = np.empty((n, k, w))
    except ValueError as exc:  # past numpy's index range: as if out of memory
        raise MemoryError(f"a {k} x {n} x {w} Krylov array is too large to address: {exc}") from exc
    stage = np.empty((c, n, w))
    stage[-1] = X
    dot = M.dot
    for top in range(k, 0, -c):
        if top < k:
            dot(stage[0], out=stage[-1])
        part = stage[max(0, c - top):]
        for block, below in itertools.pairwise(part[::-1]):
            dot(block, out=below)
        result[:, top - len(part):top] = part.transpose(1, 0, 2)
    return result.reshape(n, k * w)


def _require_channels(system: LtiSystem, scheme: BlockScheme):
    if scheme.m != system.m:
        raise DimensionError(f"scheme is for {scheme.m} input channels, system has {system.m}")


def lift(system: LtiSystem, scheme: BlockScheme) -> LiftedSystem:
    """Abar = A^h and Bbar = S @ Q for the scheme, with S = krylov(A, B, h) not kept."""
    _require_channels(system, scheme)
    Bbar = krylov(system.A, system.B, scheme.h) @ scheme.Q
    Abar = np.linalg.matrix_power(system.A, scheme.h)
    return LiftedSystem(system=system, scheme=scheme, Abar=Abar, Bbar=Bbar)


def reachability_matrix(lifted: LiftedSystem, b: int) -> np.ndarray:
    """Reachability matrix Rb = krylov(Abar, Bbar, b) = [Abar^(b-1) Bbar, ..., Bbar].

    Its Gramian is Rb @ Rb.T; the distinct-block law is w = Rb.T G^+ d.
    """
    return krylov(lifted.Abar, lifted.Bbar, require_integer("block horizon", b, 1))


def h_sum(lifted: LiftedSystem, b: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometric matrix sum H_b = I + Abar + ... + Abar^(b-1), and Abar^b @ x.

    x is a vector or a matrix with n rows; the identical-block state is
    x_b = Abar^b x_0 + H_b Bbar w. Binary doubling over the bits of b,
    most significant first, from S_k and P = Abar^k: S_2k = S_k + P S_k
    and P <- P P; on a 1 bit that is not the last, S_(2k+1) = S_2k + P
    (the square just formed) and P <- P Abar. The last square is never
    formed: Abar^b x = P (P x), times Abar on a final 1 bit, by
    matrix-vector products, where S_(2k+1) = I + Abar S_2k. That is 5
    dense products at b = 10, 10 at b = 50 and 14 at b = 200, in real
    arithmetic whatever the spectrum. Rounding is that of binary
    powering: within about 1e-13 relative of the b - 1 step Horner sum
    for normal Abar, growing with the condition number of Abar's
    eigenvectors; the power's last digits can differ from
    np.linalg.matrix_power's, which multiplies its squares least
    significant bit first.
    """
    b = require_integer("block horizon", b, 1)
    Abar = lifted.Abar
    eye = np.eye(lifted.n)
    bits = bin(b)[3:]
    if not bits:
        return eye, Abar @ x
    total, power = eye + Abar, Abar  # S_1 = I, so S_2 = I + Abar needs no product
    for bit in bits[:-1]:
        power = power @ power
        if bit == "1":
            total = total + power
            power = power @ Abar
        total = total + power @ total
    free = power @ (power @ x)
    if bits[-1] == "1":
        total = eye + Abar @ total
        free = Abar @ free
    return total, free
