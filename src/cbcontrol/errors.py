"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An array argument has the wrong shape; the message names the offender."""


class ChargeBalanceError(ValueError):
    """A stacked block input violates the per-channel zero-sum constraint."""

    def __init__(self, message: str, imbalance=None):
        super().__init__(message)
        self.imbalance = imbalance


class ReachabilityError(RuntimeError):
    """The requested displacement lies outside the reachable column space.

    ``residual`` is the least-squares distance from the displacement to the
    column space; ``rank`` is the numeric rank of the reachability object.
    """

    def __init__(self, message: str, residual: float, rank: int):
        super().__init__(message)
        self.residual = residual
        self.rank = rank


class AnalysisError(RuntimeError):
    """A numerical analysis step failed, e.g. eigensolver breakdown."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class ProblemFormatError(ValueError):
    """A problem file could not be parsed or fails basic validation."""
