"""The fixed thresholds of the rank and spectral tests, the terminal tolerance a
caller sets (with a desk-scale default) beside the fixed charge-balance bound,
and the integer checks shared by argument validation."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import PreconditionError

_EPS = float(np.finfo(np.float64).eps)


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bool, an int subclass."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integer(name: str, value, low: int) -> int:
    """value as an int; PreconditionError unless it is an integer >= low."""
    if not is_integer(value) or value < low:
        raise PreconditionError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


# fixed thresholds of the rank and spectral tests
RANK_SLACK = 100.0  # headroom factor of the SVD numeric-rank rule, over the SVD's own error
REACH = 1e-8  # relative residual of a target displacement past which it is out of reach
EIG_SEP = 1e-8  # relative eigenvalue gap below which a spectrum is not simple
UNIT_MODULUS = 1e-9  # bound on abs(abs(r) - 1) screening eigenvalue ratios r
ROOT_OF_UNITY = 1e-8  # bound on abs(r**k - 1) for a ratio order, and on abs(lambda**k - 1), k >= 1
MAX_ORDER = 64  # largest eigenvalue-ratio order searched when selecting a block length
BASIS_ATOL = 1e-12  # bound on the entries of Q^T Q - I and R Q for a block scheme's basis Q


def rank_cutoff(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * eps * RANK_SLACK."""
    return max(shape) * _EPS * RANK_SLACK


@dataclass(frozen=True)
class Tolerances:
    """The bound a caller sets; the thresholds of the tests are constants above.

    terminal: absolute bound on the terminal-state error of a designed plan,
    positive and finite in float64; else ValueError.
    charge_balance: fixed absolute per-channel bound on the block sum of
    inputs, no field: every designed block sums to exactly 0.0, so it only
    judges plans a caller builds.
    """

    charge_balance: ClassVar[float] = 1e-9
    terminal: float = 1e-6

    def __post_init__(self):
        value = self.terminal
        ok = isinstance(value, numbers.Real) and 0 < value <= sys.float_info.max
        if isinstance(value, bool) or not ok:
            raise ValueError(f"tolerances.terminal must be finite and positive, got {value!r}")


DEFAULT = Tolerances()
