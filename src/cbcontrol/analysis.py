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
* Repetitive regime, exact at every h: no disruptive root of unity in
  the spectrum (H_b invertible) and rank(Bbar) = n, read as rank(K) = n.

The conditions decide every verdict but one: when the necessary
conditions hold and A^h has a repeated eigenvalue, PBH on the lifted
pair decides (Bittanti & Colaneri 2009), one pencil per cluster of equal
lambda^h, labeled as such in the verdict reasons. No matrix assembled
from powers of A is rank-tested against a condition that already decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import NON_REPETITIVE, REPETITIVE
from .errors import PreconditionError
from .lifting import krylov
from .numeric import _rank, numeric_rank
from .system import LtiSystem, _locked
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

    ``controllable`` is "yes" or "no". ``conditions`` is what the
    conditions alone decide: "no" when a necessary condition fails, "yes"
    when the sufficient conditions hold, "undetermined" when only the
    non-repetitive lifted PBH test can decide. In the repetitive regime
    every condition is necessary and together they suffice, so
    ``conditions`` equals ``controllable``. ``reasons`` lists every
    condition that was evaluated with its truth value.
    ``numeric_rank`` and ``singular_values`` describe the rank test that
    decided. When the non-repetitive conditions decide, they are n and the
    modal values ||w B|| / ||w||, descending, if the modal screen alone
    passed PBH, else the cached PBH pencil where PBH failed, or at the
    smallest modal value; the least-rank lifted pencil when that decides;
    K = [A^(h-2) B, ..., A B, B] in the repetitive regime.
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
    return float(np.maximum.reduce(np.abs(eigs), initial=1.0))  # the spectral radius, at least 1


def _pairwise_distinct(eigs: np.ndarray, tol: Tolerances) -> bool:
    gaps = np.abs(np.subtract.outer(eigs, eigs))
    gaps.reshape(-1)[:: eigs.size + 1] = np.inf
    return not (gaps <= tol.eig_sep * _spectral_scale(eigs)).any()


def _has_unit_eigenvalue(eigs: np.ndarray, tol: Tolerances) -> bool:
    return bool(np.any(np.abs(eigs - 1.0) <= tol.unit_eigenvalue))


def _all_real(eigs: np.ndarray, tol: Tolerances) -> bool:
    return bool(np.all(np.abs(eigs.imag) <= tol.eig_sep * _spectral_scale(eigs)))


def _require_blocks(h, b=1) -> tuple[int, int]:
    """(h, b) as ints, after checking both are integers with h >= 2 and b >= 1."""
    return require_integer("block length", h, 2), require_integer("block horizon", b, 1)


def pbh_controllable(system: LtiSystem, tol: Tolerances = DEFAULT) -> PbhResult:
    """PBH test: rank [lambda I - A, B] = n for every eigenvalue lambda.

    Decided once per system and Tolerances, and cached on the system. The
    modal screen decides each eigenvalue whose left eigenvector phi puts
    ||phi^T B|| clearly on one side of the pencil's rank cutoff; only the
    rest (clusters, ill-conditioned eigenvectors, values near the cutoff)
    take their own pencil SVD, also cached. On failure, returns the first
    offending eigenvalue and a locked unit left eigenvector phi (real for
    a real eigenvalue) whose product phi^T B is numerically zero.
    """
    result = system._pbh.get(tol)
    if result is None:
        result = system._pbh[tol] = _decide_pbh(system, tol)
    return result


def _decide_pbh(system: LtiSystem, tol: Tolerances) -> PbhResult:
    n = system.n
    shape = (n, n + system.m)
    cutoff = tol.rank_cutoff(shape)
    _, holds_below, fails_from = system.modal_screen
    fails = cutoff >= fails_from
    for k in np.flatnonzero(~(fails | (cutoff < holds_below))).tolist():
        fails[k] = _rank(system.pencil_svals(k), shape, tol) < n
    failing = np.flatnonzero(fails)
    if not failing.size:
        return PbhResult(True)
    # witness from the left null space of the pencil, so it pairs the
    # eigen relation with a vanishing phi^T B; its singular values serve
    # the verdict's report of the failing pencil
    k = int(failing[0])
    u, svals, _ = np.linalg.svd(system._pencil(k))
    system._pencils.setdefault(k, _locked(svals))
    phi = np.conj(u[:, -1])
    return PbhResult(False, complex(system.eigenvalues[k]), _locked(phi / np.linalg.norm(phi)))


def _necessary_conditions(system: LtiSystem, tol: Tolerances) -> tuple[list, bool, PbhResult]:
    """Reasons for the two necessary conditions, whether both hold, and the PBH result."""
    pbh = pbh_controllable(system, tol)
    unit = _has_unit_eigenvalue(system.eigenvalues, tol)
    reasons = [ConditionCheck("pair (A, B) controllable (PBH)", pbh.controllable),
               ConditionCheck("no eigenvalue of A at 1", not unit)]
    return reasons, pbh.controllable and not unit, pbh


_NECESSARY_FAILED = ConditionCheck(
    "necessary conditions hold", False,
    "an uncontrollable pair or an eigenvalue at 1 rules out every block length",
)


def check_nonrepetitive_sufficient(
    system: LtiSystem, h: int, tol: Tolerances = DEFAULT
) -> ControllabilityVerdict:
    """Verdict for distinct per-block inputs at block length h.

    Evaluates (i) PBH controllability of (A, B), (ii) no eigenvalue of A
    at 1, (iii) simple spectrum of A^h. Failure of (i) or (ii) decides
    "no"; (i) to (iii) together decide "yes", with no lift. When (iii)
    alone fails, PBH on the lifted pair decides: Bbar = S Q spans (A - I) K,
    so by (ii) it is PBH on (A^h, K), which a simple lambda^h passes by (i),
    leaving [mu I - A^h, c K], c = max(||A^h||_F / ||K||_F, 1), per cluster.
    """
    h, _ = _require_blocks(h)
    n = system.n
    reasons, necessary, pbh = _necessary_conditions(system, tol)
    # the spectrum of A^h is lambda^h over the spectrum of A
    powers = system.eigenvalues**h
    simple = _pairwise_distinct(powers, tol)
    reasons.append(ConditionCheck(f"A^{h} has a simple spectrum", simple))

    if necessary and not simple:
        conditions = "undetermined"
        Ah, K = np.linalg.matrix_power(system.A, h), krylov(system.A, system.B, h - 1)
        # an overflowed A^h or norm leaves inf or NaN in the pencil: numeric_rank raises
        c = max(float(np.linalg.norm(Ah)) / float(np.linalg.norm(K)), 1.0)
        # clusters: chains of the gaps _pairwise_distinct rejects, NaN (overflow) included
        near = ~(np.abs(np.subtract.outer(powers, powers)) > tol.eig_sep * _spectral_scale(powers))
        reach = np.linalg.matrix_power(near, n)
        clusters = reach[reach.argmax(axis=1) == np.arange(n)]  # one row each, at its first index
        rank, svals = min((numeric_rank(np.hstack((powers[k].mean() * np.eye(n) - Ah, c * K)), tol)
                           for k in clusters if k.sum() > 1), key=lambda pencil: pencil[0])
        verdict = "yes" if rank == n else "no"
        last = ConditionCheck(f"lifted PBH at each repeated eigenvalue of A^{h}", rank == n,
                              f"least rank of [mu I - A^{h}, c K] {rank} of {n}")
    else:
        conditions = verdict = "yes" if necessary else "no"
        values, holds_below, _ = system.modal_screen
        if tol.rank_cutoff((n, n + system.m)) < holds_below.min(initial=np.inf):  # all pencils pass
            rank, svals = n, np.sort(values)[::-1]
        else:  # the cached pencil PBH failed at, else the one at the smallest modal value
            k = np.argmin(values if pbh else system.eigenvalues != pbh.eigenvalue)
            svals = system.pencil_svals(int(k))
            rank = _rank(svals, (n, n + system.m), tol)
        last = _NECESSARY_FAILED if not necessary else ConditionCheck(
            "sufficient conditions hold", True, f"smallest PBH pencil rank {rank} of {n}"
        )
    return ControllabilityVerdict(
        NON_REPETITIVE, verdict, conditions, tuple(reasons) + (last,), rank, svals
    )


def unit_ratio_orders(system: LtiSystem, tol: Tolerances = DEFAULT) -> list[RatioOrder]:
    """Orders of eigenvalue ratios that are roots of unity.

    A ratio r = lambda_i / lambda_j counts when |r| is within the
    unit-modulus tolerance of 1 and some k <= tol.max_order brings r^k
    within the root-of-unity tolerance of 1; the smallest such k is the
    order. Unit-modulus ratios that reach no order within the search bound
    are skipped silently: every conjugate pair has a unit-modulus ratio,
    and the chosen block length is checked again by the gap test on the
    spectrum of A^h.
    """
    eigs = system.eigenvalues
    # pairs i < j of moduli clear of zero (no ratio overflows), ratio on the unit circle
    keep = (np.abs(eigs) > tol.eig_sep * _spectral_scale(eigs)).nonzero()[0]
    ratios = np.divide.outer(eigs[keep], eigs[keep])
    i, j = np.nonzero(np.abs(np.abs(ratios) - 1.0) <= tol.unit_modulus)
    i, j = i[i < j], j[i < j]
    if not i.size:
        return []
    # r^k, k = 1..max_order, down each column by a scalar loop's products r^(k-1) * r
    powers = np.multiply.accumulate(np.full((tol.max_order, i.size), ratios[i, j]))
    hits = abs(powers - 1.0) <= tol.root_of_unity
    first = hits.argmax(axis=0).tolist()  # 0 for order 1 and for no order alike
    return [RatioOrder(i=p, j=q, order=k + 1) for p, q, k, one in zip(
        keep[i].tolist(), keep[j].tolist(), first, hits[0].tolist()) if k or one]


def select_h(
    system: LtiSystem, tol: Tolerances = DEFAULT, orders: list[RatioOrder] | None = None
) -> int:
    """Block length certified to keep the eigenvalues of A^h distinct.

    Requires numerically distinct eigenvalues and no eigenvalue at 1.
    Returns lcm(orders) + 1 over all root-of-unity ratio orders, or 2
    when no ratio is a root of unity. ``orders`` takes the result of
    ``unit_ratio_orders(system, tol)`` when the caller already has it, so
    the pair search runs once.
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
        orders = unit_ratio_orders(system, tol)
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
    b-th root of unity.
    """
    h, b = _require_blocks(h, b)
    return _no_disruptive_roots(system.eigenvalues, h, b, tol)


def check_repetitive_sufficient(
    system: LtiSystem, b: int, h: int = 2, tol: Tolerances = DEFAULT
) -> ControllabilityVerdict:
    """Verdict for identical blocks over b repetitions, exact at every h.

    The state after b blocks is Abar^b x0 + H_b Bbar w with H_b square,
    so rank(H_b Bbar) = n exactly when (i) no eigenvalue lambda has
    lambda^(hb) = 1 and lambda^h != 1 (H_b invertible) and (ii)
    rank(Bbar) = n, which with no eigenvalue at 1 is rank(K) = n (K = B at
    h = 2). The necessary conditions are reported too; the verdict is
    "yes" exactly when every condition holds.
    """
    h, b = _require_blocks(h, b)
    n = system.n
    reasons, necessary, _ = _necessary_conditions(system, tol)
    invertible = hb_invertible(system, h, b, tol)
    rank, svals = numeric_rank(krylov(system.A, system.B, h - 1), tol)
    reasons += [
        ConditionCheck(f"no eigenvalue with lambda^{h * b} = 1 and lambda^{h} != 1", invertible),
        ConditionCheck("rank(B) = n" if h == 2 else "rank([A^(h-2) B, ..., A B, B]) = n",
                       rank == n, f"rank {rank} of {n}"),
    ]

    verdict = "yes" if necessary and invertible and rank == n else "no"
    last = _NECESSARY_FAILED if not necessary else ConditionCheck(
        "sufficient conditions hold", verdict == "yes",
        f"H_b is square, so rank(H_b Bbar) = n at h = {h}, b = {b} "
        "exactly when the two conditions above hold",
    )
    return ControllabilityVerdict(
        REPETITIVE, verdict, verdict, tuple(reasons) + (last,), rank, svals
    )
