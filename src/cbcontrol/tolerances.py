"""Numerical tolerances used by analysis and design, with desk-scale defaults,
and the integer checks shared by their argument validation."""

from __future__ import annotations

import math
import numbers
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


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs shared across the package.

    charge_balance: absolute per-channel bound on the block sum of inputs.
    terminal: absolute bound on the terminal-state error of a designed plan.
    reach: relative bound on the residual of the target displacement after
        projection onto the reachable column space.
    rank_slack: headroom factor in the SVD numeric-rank rule (see rank_cutoff);
        at least 1, since below that the cutoff falls under the SVD's own
        backward error and rank decisions become rounding noise.
    eig_sep: relative eigenvalue separation below which a spectrum is not
        considered simple.
    unit_modulus: tolerance on abs(r) - 1 when screening eigenvalue ratios.
    root_of_unity: tolerance on abs(r**k - 1) when searching for the order of
        an eigenvalue ratio, and in the spectral tests built on it.
    unit_eigenvalue: tolerance on abs(lambda - 1) for the eigenvalue-at-one test.
    max_order: largest ratio order searched when selecting a block length;
        at most root_of_unity / eps, since past that order the rounding of
        the running products r^k alone reaches the root-of-unity tolerance.

    Every float field must be finite and positive, rank_slack at least 1,
    and max_order a positive integer within its bound; else ValueError.
    """

    charge_balance: float = 1e-9
    terminal: float = 1e-6
    reach: float = 1e-8
    rank_slack: float = 100.0
    eig_sep: float = 1e-8
    unit_modulus: float = 1e-9
    root_of_unity: float = 1e-8
    unit_eigenvalue: float = 1e-8
    max_order: int = 64

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "max_order":  # root_of_unity, an earlier field, is checked
                cap = self.root_of_unity / _EPS  # inf past about 4e292
                shown = f" = {int(cap)}" if math.isfinite(cap) else ""
                kind = f"a positive int at most root_of_unity / eps{shown}"
                ok = is_integer(value) and 1 <= int(value) <= cap  # int vs float is exact
            else:
                kind = "finite and positive"
                ok = isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
            if isinstance(value, bool) or not ok:
                raise ValueError(f"tolerances.{field.name} must be {kind}, got {value!r}")
        if self.rank_slack < 1:
            raise ValueError(f"tolerances.rank_slack must be at least 1, got {self.rank_slack!r}")

    def rank_cutoff(self, shape) -> float:
        """Relative singular-value cutoff: max(rows, cols) * eps * rank_slack."""
        return max(shape) * _EPS * self.rank_slack


DEFAULT = Tolerances()
