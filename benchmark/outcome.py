"""Per-op correctness outcomes shared by the three workloads.

Every op ends in exactly one Outcome. Anything but OK counts toward
``fail_ratio``. WRONG marks a result the program presents as good that
the benchmark's independent check refutes: a decisive verdict against
the certified one, a plan passed by verify_plan that misses its target,
a replay that differs, a success exit where refusal is certain. A run
with any WRONG outcome reports ``correct: false``.
"""

from __future__ import annotations

from dataclasses import dataclass

OK = "ok"
UNDETERMINED = "undetermined"  # verdict left open where the answer is certified
UNVERIFIED = "unverified"  # the program's own verification rejects its plan
ENERGY_MISMATCH = "energy-mismatch"  # plan energy disagrees with the stacked oracle
EXIT_CODE = "exit-code"  # a CLI command ended with another code than expected
ERROR = "error"  # an unexpected exception; the kind carries its type name
WRONG = "wrong"  # a result presented as good that the check refutes


@dataclass(frozen=True)
class Outcome:
    kind: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind == OK


PASS = Outcome(OK)


def error(exc: BaseException, where: str = "") -> Outcome:
    prefix = f"{where}: " if where else ""
    return Outcome(f"{ERROR}:{type(exc).__name__}", f"{prefix}{exc}"[:300])


def verdict_outcome(what: str, got: str, expected: str) -> Outcome:
    """Compare a "yes"/"no"/"undetermined" verdict with its ground truth."""
    if got == expected:
        return PASS
    kind = UNDETERMINED if got == "undetermined" else WRONG
    return Outcome(kind, f"{what}: got {got!r}, expected {expected!r}")
