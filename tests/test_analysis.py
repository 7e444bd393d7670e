"""Controllability conditions, block-length selection, and spectral tests."""

import warnings

import numpy as np
import pytest

from cbcontrol import (
    DEFAULT,
    LtiSystem,
    PreconditionError,
    build_scheme,
    check_nonrepetitive_sufficient,
    check_real_spectrum_shortcut,
    check_repetitive_sufficient,
    hb_invertible,
    h_sum,
    lift,
    pbh_controllable,
    reachability_matrix,
    select_h,
    unit_ratio_orders,
)
from cbcontrol.analysis import _has_unit_eigenvalue
from cbcontrol.numeric import numeric_rank

from helpers import (
    expander_system,
    four_state_system,
    random_orthogonal,
    random_real_simple_system,
    random_system,
    rotation_system,
)


def _kalman_rank(system):
    blocks = [system.B]
    for _ in range(system.n - 1):
        blocks.append(system.A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks))


def test_pbh_rotation_controllable():
    assert pbh_controllable(rotation_system()).controllable


def test_pbh_repeated_eigenvalue_single_input_fails():
    system = LtiSystem(A=np.diag([2.0, 2.0]), B=[[1.0], [0.0]])
    result = pbh_controllable(system)
    assert not result.controllable
    assert abs(result.eigenvalue - 2.0) <= 1e-9
    phi = result.left_eigenvector
    assert np.abs(phi @ system.A - result.eigenvalue * phi).max() <= 1e-9
    assert np.abs(phi @ system.B).max() <= 1e-9


def test_pbh_agrees_with_kalman_rank_oracle():
    rng = np.random.default_rng(40)
    # companion (controller canonical) pairs are controllable by construction
    for _ in range(25):
        n = int(rng.integers(2, 5))
        coeffs = rng.standard_normal(n) * 0.5
        A = np.zeros((n, n))
        A[:-1, 1:] = np.eye(n - 1)
        A[-1] = coeffs
        B = np.zeros((n, 1))
        B[-1, 0] = 1.0
        system = LtiSystem(A=A, B=B)
        assert pbh_controllable(system).controllable
        assert _kalman_rank(system) == n

    # two decoupled companion blocks, input reaching only the first
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[1] = [-0.1, 0.5, 0.0, 0.0]
    A[2, 3] = 1.0
    A[3] = [0.0, 0.0, -0.2, 0.3]
    B = np.array([[0.0], [1.0], [0.0], [0.0]])
    system = LtiSystem(A=A, B=B)
    assert not pbh_controllable(system).controllable
    assert _kalman_rank(system) < 4


def test_spectral_report_flags():
    system = rotation_system()
    eigs = system.eigenvalues
    assert eigs.shape == (2,)
    # conjugate closure of the spectrum of a real matrix
    assert np.abs(np.sort(eigs) - np.sort(eigs.conj())).max() <= 1e-9
    assert not check_real_spectrum_shortcut(system)  # the spectrum is not real
    assert not _has_unit_eigenvalue(eigs, DEFAULT)  # a rotation has no eigenvalue at 1
    reasons = {r.name: r.holds for r in check_nonrepetitive_sufficient(system, 3).reasons}
    assert reasons["no eigenvalue of A at 1"]
    assert not reasons["A^3 has a simple spectrum"]  # cube of the spectrum is {1, 1}

    reasons4 = {r.name: r.holds for r in check_nonrepetitive_sufficient(system, 4).reasons}
    assert reasons4["A^4 has a simple spectrum"]


def test_nonrepetitive_rotation_h4_yes_by_conditions():
    verdict = check_nonrepetitive_sufficient(rotation_system(), 4)
    assert verdict.controllable == "yes"
    assert all(r.holds for r in verdict.reasons[:3])
    assert verdict.numeric_rank == 2


def test_nonrepetitive_rotation_h3_yes_by_fallback():
    verdict = check_nonrepetitive_sufficient(rotation_system(), 3)
    assert verdict.controllable == "yes"
    names = {r.name: r.holds for r in verdict.reasons}
    assert names["A^3 has a simple spectrum"] is False
    assert names["numeric rank fallback"] is True
    assert verdict.numeric_rank == 2


def test_nonrepetitive_identity_no():
    system = LtiSystem(A=np.eye(2), B=[[1.0], [0.0]])
    for h in (2, 3):
        verdict = check_nonrepetitive_sufficient(system, h)
        assert verdict.controllable == "no"
        names = {r.name: r.holds for r in verdict.reasons}
        assert names["no eigenvalue of A at 1"] is False


def test_select_h_rotation_returns_four():
    assert select_h(rotation_system()) == 4


def test_select_h_distinct_real_moduli_returns_two():
    system = LtiSystem(A=np.diag([2.0, 0.5]), B=np.eye(2))
    assert select_h(system) == 2
    assert unit_ratio_orders(system) == []


def test_select_h_conjugate_pair_order_two():
    # eigenvalues +-i, ratio -1 of order 2
    system = LtiSystem(A=[[0.0, -1.0], [1.0, 0.0]], B=[[1.0], [0.0]])
    orders = unit_ratio_orders(system)
    assert len(orders) == 1
    # brute enumeration confirms the minimal exponent
    eigs = np.linalg.eigvals(system.A)
    ratio = eigs[orders[0].i] / eigs[orders[0].j]
    minimal = min(k for k in range(1, 65) if abs(ratio**k - 1.0) <= 1e-8)
    assert orders[0].order == minimal == 2
    assert select_h(system) == 3


def test_select_h_preconditions():
    repeated = LtiSystem(A=np.diag([2.0, 2.0]), B=np.eye(2))
    with pytest.raises(PreconditionError, match="distinct"):
        select_h(repeated)
    unit = LtiSystem(A=np.diag([1.0, 2.0]), B=np.eye(2))
    with pytest.raises(PreconditionError, match="eigenvalue at 1"):
        select_h(unit)

    # block lengths and counts must be integers, never truncated
    system = rotation_system()
    for bad_h in (2.9, 4.0, True, "4"):
        with pytest.raises(PreconditionError, match="block length must be an integer"):
            check_nonrepetitive_sufficient(system, bad_h)
    for bad_b in (2.7, True, 0):
        with pytest.raises(PreconditionError, match="block horizon must be an integer"):
            check_repetitive_sufficient(system, bad_b)
        with pytest.raises(PreconditionError, match="block horizon must be an integer"):
            hb_invertible(system, 2, bad_b)
    # numpy integers are integers
    assert check_nonrepetitive_sufficient(system, np.int64(4)).controllable == "yes"
    assert hb_invertible(system, np.int32(2), np.int64(5)) == hb_invertible(system, 2, 5)


def test_select_h_skips_high_order_ratio_with_warning():
    theta = 2.0 * np.pi * np.sqrt(2.0) / 17.0  # irrational angle
    A = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    system = LtiSystem(A=A, B=[[1.0], [0.0]])
    with pytest.warns(RuntimeWarning, match="no order"):
        h = select_h(system, max_order=32)
    assert h == 2


def test_select_h_certificate_keeps_power_spectrum_simple():
    rng = np.random.default_rng(41)
    for _ in range(50):
        system = random_real_simple_system(rng, int(rng.integers(2, 5)), 1)
        h = select_h(system)
        eigs_h = np.linalg.eigvals(np.linalg.matrix_power(system.A, h))
        scale = max(1.0, np.abs(eigs_h).max())
        for i in range(eigs_h.size):
            for j in range(i + 1, eigs_h.size):
                assert abs(eigs_h[i] - eigs_h[j]) > 1e-8 * scale


def test_real_spectrum_shortcut():
    assert check_real_spectrum_shortcut(LtiSystem(A=np.diag([2.0, 0.5]), B=np.eye(2)))
    assert not check_real_spectrum_shortcut(rotation_system())

    # cross-check through the Gramian at the certified block length
    system = LtiSystem(A=np.diag([3.0, -3.0]), B=[[1.0], [1.0]])
    assert check_real_spectrum_shortcut(system)
    lifted = lift(system, build_scheme(3, 1))
    Rb = reachability_matrix(lifted, 2)
    assert np.linalg.matrix_rank(Rb @ Rb.T) == 2


def test_hb_invertible_expander():
    assert hb_invertible(expander_system(), 2, 10)


def test_hb_not_invertible_for_constructed_root_of_unity():
    # rotation by 2*pi/(h*b): lambda^(hb) = 1 while lambda^h != 1
    h, b = 2, 5
    theta = 2.0 * np.pi / (h * b)
    A = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    system = LtiSystem(A=A, B=np.eye(2))
    assert not hb_invertible(system, h, b)


def test_hb_invertible_stable_systems_and_polynomial_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        system = random_system(rng, 3, 1, radius=0.8)
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # spectral and numeric must agree
            assert hb_invertible(system, h, b)
        lifted = lift(system, build_scheme(h, 1))
        explicit = sum(np.linalg.matrix_power(lifted.Abar, i) for i in range(b))
        assert np.abs(h_sum(lifted, b) - explicit).max() <= 1e-10


def test_repetitive_expander_yes_by_conditions():
    verdict = check_repetitive_sufficient(expander_system(), 10, h=2)
    assert verdict.controllable == "yes"
    assert verdict.numeric_rank == 2
    names = {r.name: r.holds for r in verdict.reasons}
    assert names["rank(B) = n"] is True
    assert names["no eigenvalue with lambda^20 = 1 and lambda^2 != 1"] is True


def test_repetitive_four_state_fallback_yes():
    system = four_state_system()
    assert np.linalg.matrix_rank(system.B) == 2  # rules the h = 2 conditions out
    verdict = check_repetitive_sufficient(system, 5, h=3)
    assert verdict.controllable == "yes"
    assert verdict.numeric_rank == 4
    names = {r.name: r.holds for r in verdict.reasons}
    assert names["numeric rank fallback"] is True


def test_repetitive_unit_eigenvalue_no():
    system = LtiSystem(A=np.diag([1.0, 0.5]), B=np.eye(2))
    verdict = check_repetitive_sufficient(system, 4, h=2)
    assert verdict.controllable == "no"


def test_unit_eigenvalue_annihilates_lifted_input_map():
    # a left eigenvector at eigenvalue 1 kills the lifted input map for
    # every block length, at the scale of the eigenvector and of S
    from helpers import random_unit_eigenvalue_system

    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        system = random_unit_eigenvalue_system(rng, n, m)
        _, _, vt = np.linalg.svd(system.A.T - np.eye(n))
        phi = vt[-1]
        for h in (2, 3, 4):
            lifted = lift(system, build_scheme(h, m))
            bound = 1e-9 * np.linalg.norm(phi) * np.linalg.norm(lifted.S, 2)
            assert np.abs(phi @ lifted.Bbar).max() <= bound


def test_repetitive_rank_deficient_b_at_h2_undecided_then_numeric():
    # single input, two states: rank(B) < n, yet the numeric fallback decides
    system = LtiSystem(A=np.diag([2.0, 0.5]), B=[[1.0], [1.0]])
    verdict = check_repetitive_sufficient(system, 3, h=2)
    names = {r.name: r.holds for r in verdict.reasons}
    assert names["rank(B) = n"] is False
    # H_b Bbar is 2 x 1 here, so rank n is impossible at h = 2
    assert verdict.controllable == "no"
    assert verdict.numeric_rank == 1

    # widening the block restores full rank through the fallback
    verdict3 = check_repetitive_sufficient(system, 3, h=3)
    assert verdict3.controllable == "yes"
    assert verdict3.numeric_rank == 2


def test_one_eigen_solve_per_system(monkeypatch):
    calls = []
    original = np.linalg.eigvals

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    system = expander_system()
    h = select_h(system)
    check_nonrepetitive_sufficient(system, h)
    check_repetitive_sufficient(system, 4)
    hb_invertible(system, 2, 4)
    assert len(calls) == 1
    assert not system.eigenvalues.flags.writeable


def test_vectorised_spectral_tests_match_pair_loops():
    from cbcontrol.analysis import _no_disruptive_roots, _pairwise_distinct, _spectral_scale
    from cbcontrol.tolerances import DEFAULT as tol

    def distinct_loop(eigs):
        gap = tol.eig_sep * _spectral_scale(eigs)
        return all(
            abs(eigs[i] - eigs[j]) > gap
            for i in range(eigs.size) for j in range(i + 1, eigs.size)
        )

    def no_disruptive_loop(eigs, h, b):
        return not any(
            abs(lam ** (h * b) - 1.0) <= tol.root_of_unity
            and abs(lam**h - 1.0) > tol.root_of_unity
            for lam in eigs
        )

    rng = np.random.default_rng(21)
    roots = np.exp(2j * np.pi * np.arange(1, 7) / 6)
    for _ in range(200):
        eigs = rng.choice(np.concatenate([roots, [0.5, -0.5, 2.0, 1.0, -1.0]]), size=5)
        if rng.random() < 0.5:
            eigs = eigs + 1e-3 * rng.standard_normal(5)
        for h in (1, 2, 3):
            assert _pairwise_distinct(eigs**h, tol) == distinct_loop(eigs**h)
            for b in (1, 2, 3, 6):
                assert _no_disruptive_roots(eigs, h, b, tol) == no_disruptive_loop(eigs, h, b)

    def ratio_orders_loop(system, limit):
        eigs = system.eigenvalues
        scale = _spectral_scale(eigs)
        found = []
        for i in range(eigs.size):
            for j in range(i + 1, eigs.size):
                if min(abs(eigs[i]), abs(eigs[j])) <= tol.eig_sep * scale:
                    continue
                ratio = eigs[i] / eigs[j]
                if abs(abs(ratio) - 1.0) > tol.unit_modulus:
                    continue
                rk = ratio
                for k in range(1, limit + 1):
                    if abs(rk - 1.0) <= tol.root_of_unity:
                        found.append((i, j, k))
                        break
                    rk *= ratio
                else:
                    warnings.warn(
                        f"eigenvalue ratio for pair ({i}, {j}) stays on the unit "
                        f"circle but has no order <= {limit}; pair skipped",
                        RuntimeWarning,
                    )
        return found

    def recorded(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args)
        return result, [str(w.message) for w in caught]

    hits = skips = 0
    for trial in range(150):
        system = _rotation_mix(rng, irrational=trial % 3 == 0)
        limit = (64, 8)[trial % 2]
        got, got_warnings = recorded(unit_ratio_orders, system, limit)
        want, want_warnings = recorded(ratio_orders_loop, system, limit)
        assert [(o.i, o.j, o.order) for o in got] == want
        assert got_warnings == want_warnings
        hits += bool(want)
        skips += bool(want_warnings)
    assert hits and skips


def _rotation_mix(rng, irrational=False):
    """Rotations on or near the unit circle mixed with real eigenvalues.

    Rotation angles are 2 pi p / q for small q, or arbitrary when
    ``irrational``; an orthogonal similarity hides the block structure
    half of the time.
    """
    size = int(rng.integers(1, 9))
    blocks = []
    while sum(block.shape[0] for block in blocks) < size:
        if rng.random() < 0.6:
            q = int(rng.integers(1, 9))
            angle = 2.0 * np.pi * int(rng.integers(1, 2 * q)) / q
            if irrational and rng.random() < 0.5:
                angle = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            blocks.append(rng.choice([1.0, 0.5, 1.0 + 1e-12]) * np.array([[c, -s], [s, c]]))
        else:
            blocks.append(np.array([[rng.choice([0.5, -0.5, -1.0, 0.0, 2.0])]]))
    n = sum(block.shape[0] for block in blocks)
    A = np.zeros((n, n))
    at = 0
    for block in blocks:
        k = block.shape[0]
        A[at:at + k, at:at + k] = block
        at += k
    if rng.random() < 0.5:
        basis = random_orthogonal(rng, n)
        A = basis @ A @ basis.T
    return LtiSystem(A=A, B=rng.standard_normal((n, int(rng.integers(1, 3)))))


def _pbh_pencil_loop(system, tol):
    """PBH by one complex SVD of [lambda I - A, B] per eigenvalue (the reference)."""
    n = system.n
    eye = np.eye(n)
    for lam in system.eigenvalues:
        pencil = np.hstack([lam * eye - system.A.astype(complex), system.B])
        rank, _ = numeric_rank(pencil, tol)
        if rank < n:
            u, _, _ = np.linalg.svd(pencil)
            phi = np.conj(u[:, -1])
            return False, complex(lam), phi / np.linalg.norm(phi)
    return True, None, None


def test_pbh_matches_per_eigenvalue_pencil_loop():
    rng = np.random.default_rng(44)
    slacks = [DEFAULT.rank_slack, 1.0, 1e8, *(10.0 ** rng.uniform(0.0, 8.0, size=3))]
    failures = 0
    for trial in range(160):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        kind = trial % 4
        if kind == 3:
            system = _rotation_mix(rng)
        else:
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            if kind == 1:
                # integer entries repeat eigenvalues often
                A, B = np.round(1.5 * A), np.round(B)
            elif kind == 2 and n > 1:
                # planted uncontrollable: B misses an invariant block of A
                k = int(rng.integers(1, n))
                A[k:, :k] = 0.0
                B[k:] = 0.0
            system = LtiSystem(A=A, B=B)
        for slack in slacks:
            tol = DEFAULT.with_overrides(rank_slack=float(slack))
            got = pbh_controllable(system, tol)
            controllable, eigenvalue, phi = _pbh_pencil_loop(system, tol)
            assert got.controllable == controllable
            assert got.eigenvalue == eigenvalue
            if phi is None:
                assert got.left_eigenvector is None
            else:
                assert np.array_equal(got.left_eigenvector, phi)
            failures += not controllable
    assert failures


@pytest.mark.filterwarnings("ignore:eigenvalue ratio")
def test_one_pbh_sweep_per_system(monkeypatch):
    calls = []
    original = np.linalg.svd

    def counting(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(45)
    mixed = random_system(rng, 7, 2)
    assert np.any(mixed.eigenvalues.imag > 0)  # a conjugate pair shares one SVD
    # n + m is odd, so no lifted or reachability object shares the pencil shape
    for system in (mixed, random_real_simple_system(rng, 5, 2)):
        calls.clear()
        h = select_h(system)
        check_nonrepetitive_sufficient(system, h)
        check_repetitive_sufficient(system, 4)
        check_real_spectrum_shortcut(system)
        check_nonrepetitive_sufficient(system, h + 1)
        eigs = system.eigenvalues
        sweeps = np.count_nonzero(eigs.imag == 0) + np.count_nonzero(eigs.imag > 0)
        assert calls.count((system.n, system.n + system.m)) == sweeps
        assert not system.pencil_singular_values.flags.writeable
