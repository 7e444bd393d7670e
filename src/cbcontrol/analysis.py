"""Controllability analysis under the zero-net-charge block constraint.

The decidable conditions implemented here:

* PBH controllability of the raw pair (A, B).
* Non-repetitive regime, sufficient: (A, B) controllable, no eigenvalue
  of A at 1, and A^h with a simple spectrum. The first two are also
  necessary, so their failure decides "no".
* Block-length selection: whenever a ratio of eigenvalues is a root of
  unity of order k, powers of A can collapse distinct eigenvalues;
  h = lcm(orders) + 1 over orders up to MAX_ORDER avoids every such
  collapse, and the gap test on the spectrum of A^h catches the rest.
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
from .errors import AnalysisError, PreconditionError
from .lifting import krylov
from .numeric import numeric_rank
from .system import LtiSystem, _locked
from .tolerances import _EPS, EIG_SEP, MAX_ORDER, ROOT_OF_UNITY, UNIT_MODULUS
from .tolerances import rank_cutoff, require_integer


@dataclass(frozen=True, eq=False)
class PbhResult:
    """Outcome of the PBH test and its rank evidence.

    ``numeric_rank`` and ``singular_values`` (locked) are n and the modal
    values ||w B|| / ||w||, descending, when the modal screen clears every
    pencil; else numeric_rank of the pencil at the first eigenvalue where
    PBH fails, or, when PBH holds, of the one at the smallest modal value.
    """

    controllable: bool
    numeric_rank: int
    singular_values: np.ndarray


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
    decided: the PbhResult's when the non-repetitive conditions decide,
    the least-rank lifted pencil when that decides, and
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


def _near(values: np.ndarray) -> np.ndarray:
    """Pairs whose gap is not above EIG_SEP times the scale: NaN (overflow) counts as near."""
    return ~(np.abs(np.subtract.outer(values, values)) > EIG_SEP * _spectral_scale(values))


def _pairwise_distinct(eigs: np.ndarray) -> bool:
    return bool(np.count_nonzero(_near(eigs)) == eigs.size)  # near itself only


def _has_unit_eigenvalue(eigs: np.ndarray) -> bool:
    return bool(np.any(np.abs(eigs - 1.0) <= ROOT_OF_UNITY))  # lambda**1 == 1


def _power(eigs: np.ndarray, k: int) -> np.ndarray:
    """eigs**k; AnalysisError when the integer k is past float64's range, where numpy raises."""
    try:
        return eigs**k
    except OverflowError:
        raise AnalysisError("float64 overflow: the exponent of lambda^k is past float64's range "
                            "(the horizon or block length is too large)") from None


def pbh_controllable(system: LtiSystem) -> PbhResult:
    """PBH test: rank [lambda I - A, B] = n for every eigenvalue lambda.

    Decided once per system, and kept in the system's _pbh slot. The
    modal screen clears each eigenvalue whose row w of the system's cached
    W = V^-1 puts ||w B|| / ||w|| clearly above the pencil's rank cutoff.
    The rest (clusters, ill-conditioned eigenvectors, values near or below
    the cutoff) are ranked by numeric_rank, which raises AnalysisError on a
    non-finite pencil, in index order until one has rank below n: PBH
    fails there, and that pencil is the one reported.
    """
    if system._pbh is not None:
        return system._pbh
    A, B, eigs, n = system.A, system.B, system.eigenvalues, system.n
    values, holds_below = _modal_screen(system)
    taken, controllable = {}, False  # eigenvalue index -> (rank, singular values) of its pencil
    for k in np.flatnonzero(~(rank_cutoff((n, n + system.m)) < holds_below)).tolist():
        taken[k] = numeric_rank(_pencil(A, B, eigs[k]))
        if taken[k][0] < n:  # the first failure
            break
    else:  # PBH holds: report the pencil at the smallest modal value
        controllable, k = True, int(np.argmin(values))
        if taken and k not in taken:
            taken[k] = numeric_rank(_pencil(A, B, eigs[k]))
    # n and the modal values when the screen clears every pencil
    rank, reported = taken[k] if taken else (n, np.sort(values)[::-1])
    result = PbhResult(controllable, rank, _locked(reported))
    object.__setattr__(system, "_pbh", result)
    return result


def _modal_screen(system: LtiSystem) -> tuple[np.ndarray, np.ndarray]:
    """(values, holds_below) of the modal PBH screen, one per eigenvalue, locked.

    values[k] = ||w_k B|| / ||w_k||, w_k the k-th row of the system's cached
    W = V^-1. The SVD of P_k = [lambda_k I - A, B] has sigma_n > c sigma_1
    at every cutoff c below holds_below[k]; any other cutoff, or a NaN
    threshold, needs that SVD. With W as computed, N = W A - diag(lambda) W
    and F = W V - I, ||W^-1|| <= v = sqrt(n) / (1 - ||F||_F), and
    W P_k diag(W^-1, I) = [lambda_k I - diag(lambda) - N W^-1, W B]. With
    a_k = ||w_k B||, g = ||W B||_F and delta_k the gap from lambda_k to the
    other eigenvalues, Weyl's inequality on that form bounds sigma_n(P_k)
    below by (a_k / hypot(1, (a_k + g) / delta_k) - ||N||_F v) / (||W||_F max(v, 1)),
    and sigma_1(P_k) <= 2 ||A||_F + ||B||_F. The products are widened by
    their rounding bound, the cutoff by twice the SVD's backward error
    (n + m) eps sigma_1.
    """
    A, B, (eigs, V, W) = system.A, system.B, system._modal
    n, m = B.shape
    norm_b = math.sqrt(np.vdot(B, B))
    sigma_1 = 2.0 * math.sqrt(np.vdot(A, A)) + norm_b
    # rounding of one product entry per unit of ||w_k||, and of the SVD
    slop = (n + 2) * _EPS * (math.sqrt(2 * n) + sigma_1)
    noise = 2 * (n + m) * _EPS * sigma_1
    with np.errstate(all="ignore"):  # an inf or NaN threshold decides nothing
        # one product for [W, W A, W V, W B], then [W, N, F, W B] in place
        X = W @ np.concatenate((np.eye(n), A, V, B), axis=1)
        X[:, n:2 * n] -= eigs[:, None] * W
        X.reshape(-1)[2 * n:: 3 * n + m + 1] -= 1.0
        squares = np.add.reduceat(np.square(np.abs(X)), [0, n, 2 * n, 3 * n], axis=1)
        norm_w, norm_n, norm_f, g = (math.sqrt(x) for x in squares.sum(axis=0).tolist())
        w, _, _, a = np.sqrt(squares).T
        norm_n, norm_f, g = (x + slop * norm_w for x in (norm_n, norm_f, g))
        v = math.sqrt(n) / (1.0 - norm_f) if norm_f < 1.0 else math.inf
        gaps = np.abs(np.subtract.outer(eigs, eigs))
        gaps.reshape(-1)[:: n + 1] = np.inf
        # a_k - slop w_k in place of a_k lowers the bound by at most slop
        core = a / np.hypot(1.0, (a + g) / gaps.min(axis=1, initial=np.inf))
        unit = np.float64(sigma_1 + noise)  # numpy division: zero only for A = 0, B = 0
        holds_below = (core - norm_n * v) / (norm_w * max(v, 1.0) * unit) - (slop + noise) / unit
        values = np.fmin(a / w, np.inf)  # NaN reads as inf
    return _locked(values), _locked(holds_below)


def _pencil(A: np.ndarray, B: np.ndarray, lam) -> np.ndarray:
    """The PBH pencil [lam I - A, B], freshly built; real for a real lam."""
    lam = lam if lam.imag else lam.real
    pencil = np.concatenate((-A, B), axis=1).astype(type(lam), copy=False)
    pencil.reshape(-1)[:: A.shape[0] + B.shape[1] + 1] = lam - A.diagonal()
    return pencil


def _necessary_conditions(system: LtiSystem) -> tuple[list, bool, PbhResult]:
    """Reasons for the two necessary conditions, whether both hold, and the PBH result."""
    pbh = pbh_controllable(system)
    unit = _has_unit_eigenvalue(system.eigenvalues)
    reasons = [ConditionCheck("pair (A, B) controllable (PBH)", pbh.controllable),
               ConditionCheck("no eigenvalue of A at 1", not unit)]
    return reasons, pbh.controllable and not unit, pbh


_NECESSARY_FAILED = ConditionCheck(
    "necessary conditions hold", False,
    "an uncontrollable pair or an eigenvalue at 1 rules out every block length",
)


def check_nonrepetitive_sufficient(system: LtiSystem, h: int) -> ControllabilityVerdict:
    """Verdict for distinct per-block inputs at block length h.

    Evaluates (i) PBH controllability of (A, B), (ii) no eigenvalue of A
    at 1, (iii) simple spectrum of A^h. Failure of (i) or (ii) decides
    "no"; (i) to (iii) together decide "yes", with no lift. When (iii)
    alone fails, PBH on the lifted pair decides: Bbar = S Q spans (A - I) K,
    so by (ii) it is PBH on (A^h, K), which a simple lambda^h passes by (i),
    leaving [mu I - A^h, c K], c = max(||A^h||_F / ||K||_F, 1), per cluster.
    """
    h = require_integer("block length", h, 2)
    n = system.n
    reasons, necessary, pbh = _necessary_conditions(system)
    # the spectrum of A^h is lambda^h over the spectrum of A
    powers = _power(system.eigenvalues, h)
    near = _near(powers)
    simple = bool(np.count_nonzero(near) == n)
    reasons.append(ConditionCheck(f"A^{h} has a simple spectrum", simple))

    if necessary and not simple:
        conditions = "undetermined"
        Ah, K = np.linalg.matrix_power(system.A, h), krylov(system.A, system.B, h - 1)
        # an overflowed A^h or norm leaves inf or NaN in the pencil: numeric_rank raises
        c = max(float(np.linalg.norm(Ah)) / float(np.linalg.norm(K)), 1.0)
        # clusters: chains of near powers, closed by squaring the reflexive relation in
        # floats (BLAS, exact: entries <= n); not simple, so one has two members
        for _ in range(n.bit_length()):
            near = near @ near.astype(float) > 0
        clusters = near[near.argmax(axis=1) == np.arange(n)]  # one row each, at its first index
        rank, svals = min((numeric_rank(_pencil(Ah, c * K, powers[k].mean()))
                           for k in clusters if k.sum() > 1), key=lambda pencil: pencil[0])
        verdict = "yes" if rank == n else "no"
        last = ConditionCheck(f"lifted PBH at each repeated eigenvalue of A^{h}", rank == n,
                              f"least rank of [mu I - A^{h}, c K] {rank} of {n}")
    else:
        conditions = verdict = "yes" if necessary else "no"
        rank, svals = pbh.numeric_rank, pbh.singular_values
        last = _NECESSARY_FAILED if not necessary else ConditionCheck(
            "sufficient conditions hold", True, f"smallest PBH pencil rank {rank} of {n}"
        )
    return ControllabilityVerdict(
        NON_REPETITIVE, verdict, conditions, tuple(reasons) + (last,), rank, svals
    )


def unit_ratio_orders(system: LtiSystem) -> list[RatioOrder]:
    """Orders of eigenvalue ratios that are roots of unity.

    A ratio r = lambda_i / lambda_j counts when |r| is within
    UNIT_MODULUS of 1 and some k <= MAX_ORDER brings r^k within
    ROOT_OF_UNITY of 1; the smallest such k is the order. Unit-modulus
    ratios of no order up to MAX_ORDER are skipped silently: every
    conjugate pair has a unit-modulus ratio, and a higher order that
    divides the chosen block length is caught by the gap test on the
    spectrum of A^h.
    """
    eigs = system.eigenvalues
    # pairs i < j of moduli clear of zero (no ratio overflows), ratio on the unit circle
    keep = (np.abs(eigs) > EIG_SEP * _spectral_scale(eigs)).nonzero()[0]
    ratios = np.divide.outer(eigs[keep], eigs[keep])
    i, j = np.nonzero(np.abs(np.abs(ratios) - 1.0) <= UNIT_MODULUS)
    i, j = i[i < j], j[i < j]
    if not i.size:
        return []
    # r^k, k = 1..MAX_ORDER, down each column by a scalar loop's products r^(k-1) * r
    powers = np.multiply.accumulate(np.full((MAX_ORDER, i.size), ratios[i, j]))
    hits = abs(powers - 1.0) <= ROOT_OF_UNITY
    orders = np.where(hits.any(axis=0), 1 + hits.argmax(axis=0), 0)  # order 0: none found
    return [RatioOrder(i=p, j=q, order=k) for p, q, k in zip(
        keep[i].tolist(), keep[j].tolist(), orders.tolist()) if k]


def select_h(system: LtiSystem) -> int:
    """Block length certified to keep the eigenvalues of A^h distinct.

    Requires numerically distinct eigenvalues and no eigenvalue at 1.
    Returns lcm(orders) + 1 over all root-of-unity ratio orders up to
    MAX_ORDER, or 2 when no ratio has one; a higher order that divides
    the result is caught by the gap test on the spectrum of A^h.
    """
    eigs = system.eigenvalues
    if not _pairwise_distinct(eigs):
        raise PreconditionError(
            "eigenvalues of A are not numerically distinct; block-length "
            "selection needs a simple spectrum"
        )
    if _has_unit_eigenvalue(eigs):
        raise PreconditionError(
            "A has an eigenvalue at 1; no block length restores controllability"
        )
    orders = unit_ratio_orders(system)
    if not orders:
        return 2
    return math.lcm(*(entry.order for entry in orders)) + 1


def _no_disruptive_roots(eigs: np.ndarray, h: int, b: int) -> bool:
    """True when no eigenvalue satisfies lambda^(hb) = 1 with lambda^h != 1."""
    disruptive = (np.abs(_power(eigs, h * b) - 1.0) <= ROOT_OF_UNITY) & (
        np.abs(eigs**h - 1.0) > ROOT_OF_UNITY
    )
    return not np.any(disruptive)


def hb_invertible(system: LtiSystem, h: int, b: int) -> bool:
    """Spectral invertibility of H_b = I + A^h + ... + A^(h(b-1)).

    H_b is singular exactly when some eigenvalue lambda of A has
    lambda^(hb) = 1 while lambda^h != 1, i.e. A^h carries a nontrivial
    b-th root of unity.
    """
    h, b = require_integer("block length", h, 2), require_integer("block horizon", b, 1)
    return _no_disruptive_roots(system.eigenvalues, h, b)


def check_repetitive_sufficient(system: LtiSystem, b: int, h: int) -> ControllabilityVerdict:
    """Verdict for identical blocks over b repetitions, exact at every h.

    The state after b blocks is Abar^b x0 + H_b Bbar w with H_b square,
    so rank(H_b Bbar) = n exactly when (i) no eigenvalue lambda has
    lambda^(hb) = 1 and lambda^h != 1 (H_b invertible) and (ii)
    rank(Bbar) = n, which with no eigenvalue at 1 is rank(K) = n (K = B at
    h = 2). The necessary conditions are reported too; the verdict is
    "yes" exactly when every condition holds.
    """
    h, b = require_integer("block length", h, 2), require_integer("block horizon", b, 1)
    n = system.n
    reasons, necessary, _ = _necessary_conditions(system)
    invertible = _no_disruptive_roots(system.eigenvalues, h, b)
    rank, svals = numeric_rank(krylov(system.A, system.B, h - 1))
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
