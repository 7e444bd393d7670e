"""The fixed thresholds of the rank and spectral tests, the tolerances a caller
sets (with desk-scale defaults), and the integer checks shared by argument
validation."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

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
ROOT_OF_UNITY = 1e-8  # bound on abs(r**k - 1) for a ratio order, and on abs(lambda**k - 1)
UNIT_EIGENVALUE = 1e-8  # bound on abs(lambda - 1) for an eigenvalue at 1
# past ROOT_OF_UNITY / eps the rounding of the running products r^k alone
# reaches the root-of-unity bound, so no larger order is searched
_MAX_ORDER = int(ROOT_OF_UNITY / _EPS)  # 45035996


def rank_cutoff(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * eps * RANK_SLACK."""
    return max(shape) * _EPS * RANK_SLACK


@dataclass(frozen=True)
class Tolerances:
    """The bounds a caller sets; the thresholds of the tests are constants above.

    charge_balance: absolute per-channel bound on the block sum of inputs.
    terminal: absolute bound on the terminal-state error of a designed plan.
    max_order: largest ratio order searched when selecting a block length,
        at most ROOT_OF_UNITY / eps = 45035996.

    Both float fields must be positive and finite in float64, and
    max_order a positive integer within its bound; else ValueError.
    """

    charge_balance: float = 1e-9
    terminal: float = 1e-6
    max_order: int = 64

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "max_order":
                kind = f"a positive int at most ROOT_OF_UNITY / eps = {_MAX_ORDER}"
                ok = is_integer(value) and 1 <= int(value) <= _MAX_ORDER
            else:
                kind = "finite and positive"
                ok = isinstance(value, numbers.Real) and 0 < value <= sys.float_info.max
            if isinstance(value, bool) or not ok:
                raise ValueError(f"tolerances.{field.name} must be {kind}, got {value!r}")


DEFAULT = Tolerances()
