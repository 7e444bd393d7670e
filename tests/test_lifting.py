"""Lifted block dynamics, reachability matrices, and geometric sums."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from cbcontrol import (
    DimensionError,
    LiftedSystem,
    LtiSystem,
    PreconditionError,
    SteeringTask,
    build_scheme,
    check_repetitive_sufficient,
    design_repetitive,
    h_sum,
    lift,
    reachability_matrix,
    simulate,
    unpack,
    verify_plan,
)
from cbcontrol.lifting import krylov
from cbcontrol.numeric import numeric_rank

from helpers import (
    expander_system, feasible_task, random_orthogonal, random_system, rotation_system,
)


def test_lift_rotation_h2_closed_form():
    lifted = lift(rotation_system(), build_scheme(2, 1))
    expected = np.array([-3.0 * np.sqrt(2.0) / 4.0, np.sqrt(6.0) / 4.0])
    assert np.abs(lifted.Bbar.ravel() - expected).max() <= 1e-12


def test_lift_column_order_of_s():
    rng = np.random.default_rng(30)
    system = random_system(rng, 3, 2)
    lifted = lift(system, build_scheme(3, 2))
    A, B = system.A, system.B
    S = krylov(A, B, 3)
    assert np.array_equal(S, np.hstack([A @ (A @ B), A @ B, B]))
    assert np.array_equal(lifted.Bbar, S @ lifted.scheme.Q)


def test_lifted_system_holds_only_abar_and_bbar():
    # S = krylov(A, B, h) is read once, for Bbar = S @ Q: at n = m = 200,
    # h = 2 keeping it would hold 640,000 bytes beside Abar and Bbar
    system = random_system(np.random.default_rng(31), 200, 200)
    scheme = build_scheme(2, 200)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lifted = lift(system, scheme)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= lifted.Abar.nbytes + lifted.Bbar.nbytes + 16384, held
    assert [f.name for f in dataclasses.fields(lifted)] == ["system", "scheme", "Abar", "Bbar"]


# the three loops krylov replaced, copied as they were: lift's S over h
# blocks, reachability_matrix's Rb over b blocks, analysis' K over h - 1
def _loop_S(A, B, h):
    blocks = [B]
    for _ in range(h - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks[::-1])


def _loop_Rb(Abar, Bbar, b):
    blocks = [Bbar]
    for _ in range(b - 1):
        blocks.append(Abar @ blocks[-1])
    return np.hstack(blocks[::-1])


def _loop_K(A, B, h):
    blocks = [B]
    for _ in range(h - 2):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks[::-1])


def test_krylov_is_bit_identical_to_the_loops_it_replaced():
    rng = np.random.default_rng(34)
    for k in (1, 2, 3, 7, 64, 300):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        M = rng.standard_normal((n, n)) / np.sqrt(n)
        X = rng.standard_normal((n, m))
        got = krylov(M, X, k)
        assert got.shape == (n, k * m) and np.isfinite(got).all()
        for want in (_loop_S(M, X, k), _loop_Rb(M, X, k), _loop_K(M, X, k + 1)):
            assert got.tobytes() == want.tobytes(), k
    X = rng.standard_normal((3, 2))
    K = krylov(rng.standard_normal((3, 3)), X, 1)  # h = 2: K = B, as a new array
    assert np.array_equal(K, X) and not np.shares_memory(K, X)
    # one column per block is still C-ordered: products with an F-ordered
    # view of the same values round differently
    for k in (2, 3, 200):
        assert krylov(rng.standard_normal((4, 4)), rng.standard_normal((4, 1)), k).flags.c_contiguous


# krylov as it was before its products went through a bounded stage: every
# block written in place into one (k, n, w) array, then one C-ordered copy
def _one_array_krylov(M, X, k):
    n, w = X.shape
    blocks = np.empty((k, n, w))
    blocks[-1] = X
    for block, below in itertools.pairwise(blocks[::-1]):
        M.dot(block, out=below)
    return np.ascontiguousarray(blocks.transpose(1, 0, 2)).reshape(n, k * w)


def test_krylov_stage_is_bit_identical_to_one_array():
    # the stage holds c = min(k, max(2, 2^16 // (n w))) blocks; k runs across
    # one block, a part, the whole, one past and many stages of it, and the
    # last shapes hold more than 2^16 cells a block, so c = 2
    rng = np.random.default_rng(36)
    for n, w, ks in (
        (4, 3, (1, 2, 100, 5461, 5462, 20000)),  # c = 5461
        (5, 1, (1, 13107, 13108, 40000)),  # w = 1: c = 13107
        (1, 2, (1, 32768, 32769, 100000)),  # n = 1: c = 32768
        (1, 1, (3, 65537)),
        (200, 15, (21, 22, 200)),  # c = 21
        (300, 300, (1, 2, 3, 5)),  # 90,000 cells a block: c = 2
    ):
        M = rng.standard_normal((n, n))
        M *= 0.999 / np.abs(np.linalg.eigvals(M)).max()  # 10^5 powers stay normal floats
        X = rng.standard_normal((n, w))
        for k in ks:
            got = krylov(M, X, k)
            assert got.flags.c_contiguous and got.shape == (n, k * w), (n, w, k)
            assert got.tobytes() == _one_array_krylov(M, X, k).tobytes(), (n, w, k)


def test_krylov_holds_the_matrix_once():
    # the result plus one stage of 2^16 // (n w) blocks, and a few small
    # objects; the one-array build holds the matrix twice, 9.6 MB here
    rng = np.random.default_rng(37)
    n, w, k = 200, 15, 200
    M = rng.standard_normal((n, n)) * (0.5 / np.sqrt(n))
    X = rng.standard_normal((n, w))
    stage = (2**16 // (n * w)) * n * w * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        K = krylov(M, X, k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= K.nbytes + stage + 16384, (peak, K.nbytes)


def test_lift_reachability_and_analysis_build_the_parent_arrays():
    rng = np.random.default_rng(35)
    # m = 1 makes S a single-column Krylov, the case a column-ordered S
    # would round differently in S @ Q
    for h, m in ((2, 1), (2, 2), (3, 1), (7, 2), (64, 1), (300, 2)):
        system = random_system(rng, int(rng.integers(2, 6)), m)
        lifted = lift(system, build_scheme(h, m))
        S = _loop_S(system.A, system.B, h)
        assert krylov(system.A, system.B, h).tobytes() == S.tobytes(), h
        assert lifted.Bbar.tobytes() == (S @ lifted.scheme.Q).tobytes(), h
        for b in (1, 2, 7):
            Rb = reachability_matrix(lifted, b)
            assert Rb.tobytes() == _loop_Rb(lifted.Abar, lifted.Bbar, b).tobytes(), (h, b)
        if h <= 7:
            verdict = check_repetitive_sufficient(system, 2, h=h)
            _, svals = numeric_rank(_loop_K(system.A, system.B, h))
            assert verdict.singular_values.tobytes() == svals.tobytes(), h


def test_lift_identity_a_gives_zero_bbar():
    # all the stacked powers collapse to B, which the kernel basis annihilates
    system = LtiSystem(A=np.eye(3), B=np.arange(6.0).reshape(3, 2))
    for h in (2, 3, 4):
        lifted = lift(system, build_scheme(h, 2))
        assert np.abs(lifted.Bbar).max() <= 1e-13


def test_lift_one_block_simulation_oracle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        system = random_system(rng, 3, 2)
        scheme = build_scheme(3, 2)
        lifted = lift(system, scheme)
        x0 = rng.standard_normal(3)
        w = rng.standard_normal(scheme.Q.shape[1])
        flat = unpack(w, scheme).reshape(3, 2)
        traj = simulate(system, x0, flat)
        predicted = lifted.Abar @ x0 + lifted.Bbar @ w
        scale = max(1.0, np.abs(predicted).max())
        assert np.abs(traj.terminal - predicted).max() <= 1e-11 * scale


def test_lift_dimension_mismatch():
    with pytest.raises(DimensionError):
        lift(rotation_system(), build_scheme(2, 3))


def test_reachability_single_block():
    lifted = lift(expander_system(), build_scheme(2, 2))
    Rb = reachability_matrix(lifted, 1)
    assert np.array_equal(Rb, lifted.Bbar)
    assert np.allclose(Rb @ Rb.T, lifted.Bbar @ lifted.Bbar.T, atol=1e-14)


def test_reachability_rotation_two_blocks_rank():
    lifted = lift(rotation_system(), build_scheme(2, 1))
    Rb = reachability_matrix(lifted, 2)
    assert np.linalg.matrix_rank(Rb) == 2


def test_gramian_term_sum_oracle():
    rng = np.random.default_rng(32)
    for _ in range(25):
        system = random_system(rng, 3, 2)
        lifted = lift(system, build_scheme(2, 2))
        Rb = reachability_matrix(lifted, 4)
        total = np.zeros((3, 3))
        for p in range(4):
            Ap = np.linalg.matrix_power(lifted.Abar, p)
            total += Ap @ lifted.Bbar @ lifted.Bbar.T @ Ap.T
        scale = max(1.0, np.abs(total).max())
        assert np.abs(Rb @ Rb.T - total).max() <= 1e-11 * scale


def test_gramian_symmetric_and_psd():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        lifted = lift(random_system(rng, n, m), build_scheme(h, m))
        Rb = reachability_matrix(lifted, b)
        G = Rb @ Rb.T
        assert np.abs(G - G.T).max() <= 1e-12 * max(1.0, np.abs(G).max())
        eigs = np.linalg.eigvalsh(G)
        assert eigs.min() >= -1e-10 * max(1.0, np.linalg.norm(G, 2))


def _horner_h_sum(Abar, b):
    """The former O(b) build of H_b, kept as the reference: H <- H @ Abar + I."""
    eye = np.eye(len(Abar))
    total = np.eye(len(Abar))
    for _ in range(b - 1):
        total = total @ Abar + eye
    return total


def _lifted_with(Abar):
    """A lifted system with the given Abar; only Abar and n matter to h_sum."""
    n = len(Abar)
    return LiftedSystem(system=LtiSystem(A=Abar, B=np.zeros((n, 1))), scheme=build_scheme(2, 1),
                        Abar=Abar, Bbar=np.zeros((n, 1)))


HORIZONS = (1, 2, 3, 7, 8, 9, 63, 64, 65, 200, 257)


def _real_spectrum(rng, n, rho):
    """n real eigenvalues of either sign with spectral radius rho."""
    eigs = rng.uniform(-rho, rho, size=n)
    eigs[0] = rng.choice([-rho, rho])
    return np.diag(eigs)


def _states(n):
    """The two forms of h_sum's x: a vector and the identity, whose product is Abar^b itself."""
    return np.arange(1.0, n + 1.0) * (-1.0) ** np.arange(n), np.eye(n)


def test_h_sum_trivial_cases():
    lifted = lift(expander_system(), build_scheme(2, 2))
    identity = lift(LtiSystem(A=np.eye(3), B=np.ones((3, 1))), build_scheme(2, 1))
    zero = _lifted_with(np.zeros((3, 3)))
    N = np.array([[0, 2, -1, 3], [0, 0, 4, -2], [0, 0, 0, 5], [0, 0, 0, 0]])
    nilpotent = _lifted_with(N.astype(float))
    exponents, signs = np.array([1, -1, -2, 0]), np.array([1.0, -1.0, 1.0, -1.0])
    dyadic = _lifted_with(np.diag(signs * np.ldexp(1.0, exponents)))
    for x2, x3, x4 in zip(_states(2), _states(3), _states(4)):
        total, free = h_sum(lifted, 1, x2)
        assert np.array_equal(total, np.eye(2))
        assert np.array_equal(free, lifted.Abar @ x2)
        for b in HORIZONS + (2**20,):  # exact in float64
            assert np.array_equal(h_sum(identity, b, x3)[0], b * np.eye(3))
            assert np.array_equal(h_sum(identity, b, x3)[1], x3)
            assert np.array_equal(h_sum(zero, b, x3)[0], np.eye(3))
            assert np.array_equal(h_sum(zero, b, x3)[1], np.zeros_like(x3))
        # integer nilpotent Abar: H_b = I + N + ... + N^(min(b, 4) - 1) and
        # N^b x, exactly
        for b in HORIZONS:
            exact = np.eye(4, dtype=np.int64)
            power = np.eye(4, dtype=np.int64)
            for _ in range(min(b, 4) - 1):
                power = power @ N
                exact = exact + power
            total, free = h_sum(nilpotent, b, x4)
            assert np.array_equal(total, exact)
            assert np.array_equal(free, np.linalg.matrix_power(N, min(b, 4)) @ x4)
        # dyadic diagonal Abar: every power is a signed power of two, so
        # Abar^b x is exact
        for b in HORIZONS:
            exact = np.diag(signs**b * np.ldexp(1.0, exponents * b))
            assert np.array_equal(h_sum(dyadic, b, x4)[1], exact @ x4)


def test_h_sum_expander_full_rank_map():
    lifted = lift(expander_system(), build_scheme(2, 2))
    for x in _states(2):
        gain = h_sum(lifted, 10, x)[0] @ lifted.Bbar
        assert np.linalg.matrix_rank(gain) == 2


def test_h_sum_matches_power_series():
    rng = np.random.default_rng(34)
    for _ in range(25):
        system = random_system(rng, 3, 1, radius=1.2)
        lifted = lift(system, build_scheme(3, 1))
        b = int(rng.integers(1, 7))
        explicit = sum(np.linalg.matrix_power(lifted.Abar, i) for i in range(b))
        for x in _states(3):
            got, free = h_sum(lifted, b, x)
            assert np.abs(got - explicit).max() <= 1e-10 * max(1.0, np.abs(explicit).max())
            power = np.linalg.matrix_power(lifted.Abar, b) @ x
            assert np.abs(free - power).max() <= 1e-10 * max(1.0, np.abs(power).max())


def test_h_sum_doubling_matches_horner():
    rng = np.random.default_rng(37)
    worst = worst_power = 0.0
    for rho in (0.9, 1.1, 1.5):
        for n in (1, 2, 5, 17, 50):
            basis = random_orthogonal(rng, n)
            dense = rng.standard_normal((n, n))  # mostly complex pairs
            dense *= rho / max(np.abs(np.linalg.eigvals(dense)))
            symmetric = basis @ _real_spectrum(rng, n, rho) @ basis.T
            for Abar in (symmetric, dense):
                lifted = _lifted_with(Abar)
                for b in HORIZONS:
                    ref = _horner_h_sum(lifted.Abar, b)
                    for x in _states(n):
                        err = np.linalg.norm(h_sum(lifted, b, x)[0] - ref) / np.linalg.norm(ref)
                        worst = max(worst, err)
            # the free response from the doubling, against numpy's binary
            # powering
            lifted = _lifted_with(symmetric)
            for b in range(1, 301):
                ref = np.linalg.matrix_power(symmetric, b)
                for x in _states(n):
                    err = np.linalg.norm(h_sum(lifted, b, x)[1] - ref @ x) / np.linalg.norm(ref @ x)
                    worst_power = max(worst_power, err)
    assert worst <= 1e-12
    assert worst_power <= 1e-12


def test_h_sum_non_normal_as_accurate_as_squaring():
    # with ill-conditioned eigenvectors every squaring loses accuracy, so
    # the doubling sum drifts from the Horner sum about as far as
    # matrix_power(Abar, b), which the design already uses, drifts from
    # b - 1 successive products (up to 1e-7 relative at cond(V) = 5e3)
    rng = np.random.default_rng(38)
    for rho in (0.9, 1.1, 1.5):
        for n in (5, 17, 30):
            basis = rng.standard_normal((n, n))
            lifted = _lifted_with(basis @ _real_spectrum(rng, n, rho) @ np.linalg.inv(basis))
            for b in HORIZONS:
                ref = _horner_h_sum(lifted.Abar, b)
                power = np.eye(n)
                for _ in range(b):
                    power = power @ lifted.Abar
                squaring = np.linalg.matrix_power(lifted.Abar, b)
                for x in _states(n):
                    total, free = h_sum(lifted, b, x)
                    err = np.linalg.norm(total - ref) / np.linalg.norm(ref)
                    power_err = np.linalg.norm(squaring @ x - power @ x) / np.linalg.norm(power @ x)
                    assert err <= 1e-12 + 100.0 * power_err, (rho, n, b, err, power_err)
                    # the doubling's own Abar^b x drifts no further
                    free_err = np.linalg.norm(free - power @ x) / np.linalg.norm(power @ x)
                    assert free_err <= 1e-12 + 100.0 * power_err, (rho, n, b, free_err)


def test_h_sum_long_horizon_closed_form():
    lam = np.array([0.5, -0.25])
    b = 2**20
    for x in _states(2):
        got, free = h_sum(_lifted_with(np.diag(lam)), b, x)
        assert np.abs(np.diag(got) - (1.0 - lam**b) / (1.0 - lam)).max() <= 1e-15
        assert not got[0, 1] and not got[1, 0]
        assert not free.any()  # lam^b underflows to zero


def test_block_boundary_equivalence():
    # iterating the lifted recursion equals per-step simulation sampled at
    # block boundaries
    rng = np.random.default_rng(35)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        x0 = rng.standard_normal(n)
        latents = [rng.standard_normal(scheme.Q.shape[1]) for _ in range(b)]

        flat = np.vstack([unpack(w, scheme).reshape(h, m) for w in latents])
        traj = simulate(system, x0, flat)

        x = x0.copy()
        for p in range(b):
            x = lifted.Abar @ x + lifted.Bbar @ latents[p]
            boundary = traj.states[(p + 1) * h]
            scale = max(1.0, np.abs(x).max())
            assert np.abs(boundary - x).max() <= 1e-10 * scale


def test_repetitive_closed_form():
    # b repeats of one latent vector land on Abar^b x0 + H_b Bbar w
    rng = np.random.default_rng(36)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 4))
        b = int(rng.integers(1, 6))
        system = random_system(rng, n, m, radius=1.1)
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        x0 = rng.standard_normal(n)
        w = rng.standard_normal(scheme.Q.shape[1])

        x = x0.copy()
        for _ in range(b):
            x = lifted.Abar @ x + lifted.Bbar @ w
        total, free = h_sum(lifted, b, x0)
        total_eye, power = h_sum(lifted, b, np.eye(n))
        assert np.array_equal(total, total_eye)
        for closed in (free + total @ lifted.Bbar @ w, power @ x0 + total @ lifted.Bbar @ w):
            scale = max(1.0, np.abs(closed).max())
            assert np.abs(x - closed).max() <= 1e-11 * scale


def test_design_repetitive_takes_abar_b_x0_from_h_sum(monkeypatch):
    # d = xf - Abar^b x0 reads the free response the doubling forms;
    # numpy's binary powering is not called
    rng = np.random.default_rng(39)
    system = random_system(rng, 4, 2, radius=1.1)
    scheme = build_scheme(3, 2)
    lifted = lift(system, scheme)
    task = feasible_task(rng, system, scheme, 9, "repetitive")
    calls = []
    original = np.linalg.matrix_power

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    plan = design_repetitive(lifted, task)
    assert calls == []
    monkeypatch.undo()
    assert verify_plan(system, scheme, task, plan).passed
    with pytest.raises(DimensionError):
        design_repetitive(lifted, SteeringTask(x0=np.zeros(3), xf=np.zeros(3), b=9,
                                               regime="repetitive"))


def test_horizon_validation():
    lifted = lift(expander_system(), build_scheme(2, 2))
    for bad_b in (0, 2.7, True):
        with pytest.raises(PreconditionError):
            reachability_matrix(lifted, bad_b)
        with pytest.raises(PreconditionError):
            h_sum(lifted, bad_b, np.zeros(2))
