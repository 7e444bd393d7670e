"""Controllability analysis under the zero-net-charge block constraint.

The decidable conditions implemented here:

* PBH controllability of the raw pair (A, B).
* Non-repetitive regime, sufficient: (A, B) controllable, no eigenvalue
  of A at 1, and A^h with a simple spectrum. The first two are also
  necessary, so their failure decides "no".
* Block-length selection: whenever a ratio of eigenvalues is a root of
  unity of order k, powers of A can collapse distinct eigenvalues;
  h = lcm(orders) + 1 avoids every such collapse.
* All-real shortcut: a distinct real spectrum keeps cubes distinct, so
  h = 3 is certified.
* Invertibility of the geometric sum H_b through the spectrum of A.
* Repetitive regime at h = 2, sufficient: no disruptive root of unity in
  the spectrum, no eigenvalue at 1, and rank(B) = n.

All sufficient conditions are one-sided. When they do not decide, the
check functions fall back to the numeric rank of the relevant
reachability object and label the fallback as such in the verdict
reasons; a condition-based verdict always takes precedence in the
reporting when both agree, and a disagreement is surfaced rather than
silently resolved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charge_balance import build_scheme
from .design import NON_REPETITIVE, REPETITIVE
from .errors import PreconditionError
from .lifting import h_sum, lift, reachability_matrix
from .numeric import _rank, numeric_rank
from .system import LtiSystem
from .tolerances import DEFAULT, Tolerances, require_integer


@dataclass(frozen=True, eq=False)
class PbhResult:
    """Outcome of the PBH test, with a witness on failure."""

    controllable: bool
    eigenvalue: complex | None = None
    left_eigenvector: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.controllable


@dataclass(frozen=True)
class ConditionCheck:
    """One named condition and whether it holds."""

    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ControllabilityVerdict:
    """Aggregate verdict for one regime at one configuration.

    ``controllable`` is "yes", "no", or "undetermined". ``conditions`` is
    what the conditions alone decide, before the numeric rank fallback:
    "no" when a necessary condition fails, "yes" when the sufficient
    conditions hold, "undetermined" otherwise. ``reasons`` lists every
    condition that was evaluated with its truth value.
    ``numeric_rank`` and ``singular_values`` describe the n-block Gramian
    (non-repetitive) or the geometric-sum map H_b Bbar (repetitive).
    """

    mode: str
    controllable: str
    conditions: str
    reasons: tuple[ConditionCheck, ...]
    numeric_rank: int
    singular_values: np.ndarray


@dataclass(frozen=True)
class RatioOrder:
    """An eigenvalue pair whose ratio is a root of unity of the given order."""

    i: int
    j: int
    order: int


def _spectral_scale(eigs: np.ndarray) -> float:
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    return max(radius, 1.0)


def _pairwise_distinct(eigs: np.ndarray, tol: Tolerances) -> bool:
    gap = tol.eig_sep * _spectral_scale(eigs)
    upper = np.triu_indices(eigs.size, 1)
    return not np.any(np.abs(eigs[:, None] - eigs[None, :])[upper] <= gap)


def _has_unit_eigenvalue(eigs: np.ndarray, tol: Tolerances) -> bool:
    return bool(np.any(np.abs(eigs - 1.0) <= tol.unit_eigenvalue))


def _all_real(eigs: np.ndarray, tol: Tolerances) -> bool:
    return bool(np.all(np.abs(eigs.imag) <= tol.eig_sep * _spectral_scale(eigs)))


def _require_blocks(h, b=1) -> tuple[int, int]:
    """(h, b) as ints, after checking both are integers with h >= 2 and b >= 1."""
    return require_integer("block length", h, 2), require_integer("block horizon", b, 1)


def pbh_controllable(system: LtiSystem, tol: Tolerances = DEFAULT) -> PbhResult:
    """PBH test: rank [lambda I - A, B] = n for every eigenvalue lambda.

    Reads the pencil singular values cached on the system, so every PBH
    test of one system shares one pencil sweep. On failure, returns the
    first offending eigenvalue and a unit left eigenvector phi whose
    product phi^T B is numerically zero.
    """
    n = system.n
    ranks = _rank(system.pencil_singular_values, (n, n + system.m), tol)
    failing = np.flatnonzero(ranks < n)
    if not failing.size:
        return PbhResult(True)
    # witness from the left null space of the pencil, so it pairs the
    # eigen relation with a vanishing phi^T B
    lam = system.eigenvalues[failing[0]]
    pencil = np.hstack([lam * np.eye(n) - system.A.astype(complex), system.B])
    u, _, _ = np.linalg.svd(pencil)
    phi = np.conj(u[:, -1])
    return PbhResult(False, complex(lam), phi / np.linalg.norm(phi))


def _necessary_conditions(system: LtiSystem, tol: Tolerances) -> tuple[list, bool]:
    """Reasons for the two necessary conditions, and whether both hold."""
    pbh = pbh_controllable(system, tol).controllable
    unit = _has_unit_eigenvalue(system.eigenvalues, tol)
    reasons = [
        ConditionCheck("pair (A, B) controllable (PBH)", pbh),
        ConditionCheck("no eigenvalue of A at 1", not unit),
    ]
    return reasons, pbh and not unit


_NECESSARY_FAILED = ConditionCheck(
    "necessary conditions hold", False,
    "an uncontrollable pair or an eigenvalue at 1 rules out every block length",
)
# once the necessary conditions hold: (sufficient, full rank) -> verdict,
# closing reason, and the key of its detail in the regime's wording
_LADDER = {
    (True, True): ("yes", "sufficient conditions hold", "sufficient"),
    (False, True): ("yes", "numeric rank fallback", "fallback_yes"),
    (True, False): ("undetermined", "analysis disagreement", "disagreement"),
    (False, False): ("no", "numeric rank fallback", "fallback_no"),
}


def _verdict(
    mode: str, reasons: list, necessary: bool, sufficient: bool,
    rank: int, svals: np.ndarray, n: int, wording: dict,
) -> ControllabilityVerdict:
    """The shared verdict ladder: conditions first, numeric rank as fallback.

    ``wording`` maps each ladder key to the regime's detail template, and
    "warning" to its disagreement warning; templates take ``rank`` and ``n``.
    """
    if not necessary:
        conditions = verdict = "no"
        last = _NECESSARY_FAILED
    else:
        conditions = "yes" if sufficient else "undetermined"
        verdict, name, key = _LADDER[sufficient, rank == n]
        last = ConditionCheck(name, verdict == "yes", wording[key].format(rank=rank, n=n))
        if verdict == "undetermined":
            warnings.warn(wording["warning"], RuntimeWarning)
    return ControllabilityVerdict(
        mode=mode,
        controllable=verdict,
        conditions=conditions,
        reasons=tuple(reasons) + (last,),
        numeric_rank=rank,
        singular_values=svals,
    )


_NONREPETITIVE_WORDING = {
    "sufficient": "Gramian rank {rank} of {n}",
    "fallback_yes": "rank(G) = {rank} = n over {n} blocks; sufficient conditions did not decide",
    "disagreement": "conditions certify controllability but rank(G) = {rank} < {n}",
    "fallback_no": "rank(G) = {rank} < {n} at the n-block horizon",
    "warning": "sufficient conditions and numeric Gramian rank disagree; "
    "verdict left undetermined",
}


def check_nonrepetitive_sufficient(
    system: LtiSystem, h: int, tol: Tolerances = DEFAULT
) -> ControllabilityVerdict:
    """Verdict for distinct per-block inputs at block length h.

    Evaluates (i) PBH controllability of (A, B), (ii) no eigenvalue of A
    at 1, (iii) simple spectrum of A^h. Failure of (i) or (ii) is
    decisive ("no"). When only (iii) fails, the verdict falls back to the
    numeric rank of the n-block Gramian at this h, which can still
    certify controllability.
    """
    h, _ = _require_blocks(h)
    reasons, necessary = _necessary_conditions(system, tol)
    # the spectrum of A^h is lambda^h over the spectrum of A
    simple = _pairwise_distinct(system.eigenvalues**h, tol)

    lifted = lift(system, build_scheme(h, system.m))
    Rb = reachability_matrix(lifted, system.n)
    s_norm = float(np.linalg.norm(lifted.S, 2))
    rank, svals = numeric_rank(Rb @ Rb.T, tol, floor=s_norm**2)

    reasons.append(ConditionCheck(f"A^{h} has a simple spectrum", simple))
    return _verdict(
        NON_REPETITIVE, reasons, necessary, necessary and simple,
        rank, svals, system.n, _NONREPETITIVE_WORDING,
    )


def unit_ratio_orders(
    system: LtiSystem, max_order: int | None = None, tol: Tolerances = DEFAULT
) -> list[RatioOrder]:
    """Orders of eigenvalue ratios that are roots of unity.

    A ratio r = lambda_i / lambda_j counts when |r| is within the
    unit-modulus tolerance of 1 and some k <= max_order brings r^k within
    the root-of-unity tolerance of 1; the smallest such k is the order.
    Unit-modulus ratios that reach no order within the search bound are
    skipped with a warning.
    """
    limit = tol.max_order if max_order is None else int(max_order)
    eigs = system.eigenvalues
    i, j = np.triu_indices(eigs.size, 1)
    # screen every pair at once: both moduli clear of zero, ratio on the unit circle
    moduli = np.abs(eigs)
    nonzero = np.minimum(moduli[i], moduli[j]) > tol.eig_sep * _spectral_scale(eigs)
    i, j = i[nonzero], j[nonzero]
    ratio = eigs[i] / eigs[j]
    on_circle = np.abs(np.abs(ratio) - 1.0) <= tol.unit_modulus
    i, j, ratio = i[on_circle], j[on_circle], ratio[on_circle]
    found: list[RatioOrder] = []
    # the power search runs on Python complex scalars: the candidates are
    # few (about one per conjugate pair), and per-call numpy overhead on
    # such short arrays costs more than the scalar loop
    for p, q, r in zip(i.tolist(), j.tolist(), ratio.tolist()):
        rk = r
        for k in range(1, limit + 1):
            if abs(rk - 1.0) <= tol.root_of_unity:
                found.append(RatioOrder(i=p, j=q, order=k))
                break
            rk *= r
        else:
            warnings.warn(
                f"eigenvalue ratio for pair ({p}, {q}) stays on the unit "
                f"circle but has no order <= {limit}; pair skipped",
                RuntimeWarning,
            )
    return found


def select_h(
    system: LtiSystem,
    max_order: int | None = None,
    tol: Tolerances = DEFAULT,
    orders: list[RatioOrder] | None = None,
) -> int:
    """Block length certified to keep the eigenvalues of A^h distinct.

    Requires numerically distinct eigenvalues and no eigenvalue at 1.
    Returns lcm(orders) + 1 over all root-of-unity ratio orders, or 2
    when no ratio is a root of unity. ``orders`` takes the result of
    ``unit_ratio_orders(system, max_order, tol)`` when the caller already
    has it, so the pair search runs once.
    """
    eigs = system.eigenvalues
    if not _pairwise_distinct(eigs, tol):
        raise PreconditionError(
            "eigenvalues of A are not numerically distinct; block-length "
            "selection needs a simple spectrum"
        )
    if _has_unit_eigenvalue(eigs, tol):
        raise PreconditionError(
            "A has an eigenvalue at 1; no block length restores controllability"
        )
    if orders is None:
        orders = unit_ratio_orders(system, max_order, tol)
    if not orders:
        return 2
    return math.lcm(*(entry.order for entry in orders)) + 1


def check_real_spectrum_shortcut(system: LtiSystem, tol: Tolerances = DEFAULT) -> bool:
    """True when a distinct all-real spectrum certifies block length 3.

    Needs (A, B) PBH-controllable, no eigenvalue at 1, and all eigenvalues
    real and distinct; distinct reals keep cubes distinct, so h = 3 makes
    the lifted pair controllable.
    """
    eigs = system.eigenvalues
    return (
        _all_real(eigs, tol)
        and _pairwise_distinct(eigs, tol)
        and not _has_unit_eigenvalue(eigs, tol)
        and pbh_controllable(system, tol).controllable
    )


def _no_disruptive_roots(eigs: np.ndarray, h: int, b: int, tol: Tolerances) -> bool:
    """True when no eigenvalue satisfies lambda^(hb) = 1 with lambda^h != 1."""
    disruptive = (np.abs(eigs ** (h * b) - 1.0) <= tol.root_of_unity) & (
        np.abs(eigs**h - 1.0) > tol.root_of_unity
    )
    return not np.any(disruptive)


def hb_invertible(system: LtiSystem, h: int, b: int, tol: Tolerances = DEFAULT) -> bool:
    """Spectral invertibility of H_b = I + A^h + ... + A^(h(b-1)).

    H_b is singular exactly when some eigenvalue lambda of A has
    lambda^(hb) = 1 while lambda^h != 1, i.e. A^h carries a nontrivial
    b-th root of unity. The spectral verdict is cross-checked against the
    singular values of the assembled H_b; a disagreement raises a warning
    and the spectral verdict is returned.
    """
    h, b = _require_blocks(h, b)
    invertible = _no_disruptive_roots(system.eigenvalues, h, b, tol)

    total = h_sum(lift(system, build_scheme(h, system.m)), b)
    # absolute floor of 1: the sum starts at the identity, so a uniformly
    # tiny H_b means exact cancellation, not a well-scaled invertible matrix
    rank, svals = numeric_rank(total, tol, floor=1.0)
    if (rank == system.n) != invertible:
        warnings.warn(
            f"spectral and numeric invertibility of the geometric sum disagree "
            f"(spectral {invertible}, smallest singular value {svals[-1]:.3e})",
            RuntimeWarning,
        )
    return invertible


def check_repetitive_sufficient(
    system: LtiSystem, b: int, h: int = 2, tol: Tolerances = DEFAULT
) -> ControllabilityVerdict:
    """Verdict for identical blocks over b repetitions.

    At h = 2 the sufficient conditions are: (i) no eigenvalue lambda with
    lambda^(2b) = 1 and lambda^2 != 1, (ii) no eigenvalue at 1, and
    (iii) rank(B) = n. For other block lengths, or when the conditions do
    not decide, the verdict falls back to the numeric rank of H_b Bbar at
    the given (h, b).
    """
    h, b = _require_blocks(h, b)
    reasons, necessary = _necessary_conditions(system, tol)

    lifted = lift(system, build_scheme(h, system.m))
    s_norm = float(np.linalg.norm(lifted.S, 2))
    rank, svals = numeric_rank(h_sum(lifted, b) @ lifted.Bbar, tol, floor=s_norm)

    sufficient = False
    if h == 2:
        clean_roots = _no_disruptive_roots(system.eigenvalues, 2, b, tol)
        rank_b, _ = numeric_rank(system.B, tol)
        full_b = rank_b == system.n
        reasons.append(
            ConditionCheck(
                f"no eigenvalue with lambda^{2 * b} = 1 and lambda^2 != 1", clean_roots
            )
        )
        reasons.append(ConditionCheck("rank(B) = n", full_b, f"rank {rank_b} of {system.n}"))
        sufficient = necessary and clean_roots and full_b
    else:
        reasons.append(
            ConditionCheck(
                "identical-block sufficient conditions apply only at h = 2",
                False,
                f"h = {h}; falling back to the numeric rank at this configuration",
            )
        )
    at = f" at h = {h}, b = {b}"
    wording = {
        "sufficient": "rank {rank} of {n}",
        "fallback_yes": "rank(H_b Bbar) = {rank} = n" + at,
        "disagreement": "conditions certify controllability but rank(H_b Bbar) = {rank} < {n}",
        "fallback_no": "rank(H_b Bbar) = {rank} < {n}" + at,
        "warning": "sufficient conditions and numeric rank disagree; verdict left undetermined",
    }
    return _verdict(REPETITIVE, reasons, necessary, sufficient, rank, svals, system.n, wording)
