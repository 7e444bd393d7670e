"""Minimum-energy plans, the stacked-least-squares oracle, and verification."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cbcontrol import (
    ChargeBalanceError,
    ControlPlan,
    BlockScheme,
    DimensionError,
    LtiSystem,
    PreconditionError,
    ReachabilityError,
    SteeringTask,
    build_scheme,
    bundled_problem,
    design_nonrepetitive,
    design_repetitive,
    h_sum,
    lift,
    oracle_stacked_ls,
    parse_problem,
    reachability_matrix,
    rollout,
    simulate,
    unpack,
    verify_plan,
)
from cbcontrol.bundled import list_bundled
from cbcontrol.cli import _resolve_h
from cbcontrol.design import NON_REPETITIVE, REGIMES, REPETITIVE
from cbcontrol.errors import AnalysisError
from cbcontrol.numeric import Solve, min_norm_solve, numeric_rank, unique_or_min_norm_solve
from cbcontrol.tolerances import DEFAULT, Tolerances, rank_cutoff

from helpers import (
    counting_svd,
    exact_min_energy,
    expander_system,
    feasible_task,
    four_state_system,
    random_orthogonal,
    random_system,
    rotation_system,
)


def _rotation_task(b):
    return SteeringTask(x0=[-0.2, 0.2], xf=[1.0, -0.6], b=b, regime="non-repetitive")


def test_nonrepetitive_zero_displacement_gives_zero_plan():
    rng = np.random.default_rng(50)
    system = random_system(rng, 3, 2)
    scheme = build_scheme(3, 2)
    lifted = lift(system, scheme)
    x0 = rng.standard_normal(3)
    xf = np.linalg.matrix_power(lifted.Abar, 4) @ x0
    plan = design_nonrepetitive(
        lifted, SteeringTask(x0=x0, xf=xf, b=4, regime="non-repetitive")
    )
    assert plan.energy == 0.0
    assert np.abs(plan.flat_inputs).max() == 0.0


@pytest.mark.parametrize("h,b", [(4, 5), (2, 10)])
def test_nonrepetitive_rotation_steering(h, b):
    system = rotation_system()
    scheme = build_scheme(h, 1)
    lifted = lift(system, scheme)
    task = _rotation_task(b)
    plan = design_nonrepetitive(lifted, task)
    check = verify_plan(system, scheme, task, plan)
    assert check.terminal_error <= 1e-8
    assert check.imbalances.max() <= 1e-10
    assert check.passed
    assert plan.flat_inputs.shape == (20, 1)


def test_nonrepetitive_h2_inputs_alternate_in_sign():
    # with two-step blocks, balance forces each block to be (u, -u)
    system = rotation_system()
    scheme = build_scheme(2, 1)
    plan = design_nonrepetitive(lift(system, scheme), _rotation_task(10))
    flat = plan.flat_inputs.ravel()
    assert np.allclose(flat[0::2], -flat[1::2], atol=1e-14)
    assert np.abs(flat).min() > 0.0


def test_repetitive_zero_displacement():
    system = expander_system()
    scheme = build_scheme(2, 2)
    lifted = lift(system, scheme)
    x0 = np.array([0.1, -0.2])
    xf = np.linalg.matrix_power(lifted.Abar, 3) @ x0
    plan = design_repetitive(
        lifted, SteeringTask(x0=x0, xf=xf, b=3, regime="repetitive")
    )
    assert plan.energy == 0.0


def test_repetitive_expander_steering():
    system = expander_system()
    scheme = build_scheme(2, 2)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=[-0.2, 0.3], xf=[1.0, -0.6], b=10, regime="repetitive")
    plan = design_repetitive(lifted, task)
    check = verify_plan(system, scheme, task, plan)
    assert check.terminal_error <= 1e-8
    blocks = plan.flat_inputs.reshape(10, -1)
    assert all(np.array_equal(blocks[0], U) for U in blocks)
    # total energy is b times the single-block energy
    single = float(blocks[0] @ blocks[0])
    assert abs(plan.energy - 10 * single) <= 1e-12 * max(1.0, plan.energy)


def test_repetitive_four_state_steering():
    system = four_state_system()
    scheme = build_scheme(3, 2)
    lifted = lift(system, scheme)
    task = SteeringTask(
        x0=np.zeros(4), xf=[1.0, -0.6, 0.5, -0.4], b=5, regime="repetitive"
    )
    plan = design_repetitive(lifted, task)
    check = verify_plan(system, scheme, task, plan)
    assert check.terminal_error <= 1e-6
    assert check.passed
    # the independent stacked solver confirms the derived fixture target
    oracle = oracle_stacked_ls(system, scheme, task)
    assert verify_plan(system, scheme, task, oracle).terminal_error <= 1e-6
    assert np.abs(oracle.flat_inputs - plan.flat_inputs).max() <= 1e-7
    assert abs(oracle.energy - plan.energy) <= 1e-6 * max(1.0, plan.energy)


def test_oracle_zero_input_on_drifting_target():
    rng = np.random.default_rng(51)
    system = random_system(rng, 3, 1)
    scheme = build_scheme(2, 1)
    x0 = rng.standard_normal(3)
    xf = np.linalg.matrix_power(system.A, 6) @ x0
    plan = oracle_stacked_ls(
        system, scheme, SteeringTask(x0=x0, xf=xf, b=3, regime="non-repetitive")
    )
    assert plan.energy <= 1e-20
    assert np.abs(plan.flat_inputs).max() <= 1e-11


def test_oracle_matches_design_rotation():
    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = _rotation_task(10)
    plan = design_nonrepetitive(lift(system, scheme), task)
    oracle = oracle_stacked_ls(system, scheme, task)
    assert np.abs(oracle.flat_inputs - plan.flat_inputs).max() <= 1e-8
    assert abs(oracle.energy - plan.energy) <= 1e-8 * max(1.0, plan.energy)


def test_oracle_matches_design_expander_repetitive():
    system = expander_system()
    scheme = build_scheme(2, 2)
    task = SteeringTask(x0=[-0.2, 0.3], xf=[1.0, -0.6], b=10, regime="repetitive")
    plan = design_repetitive(lift(system, scheme), task)
    oracle = oracle_stacked_ls(system, scheme, task)
    assert np.abs(oracle.flat_inputs - plan.flat_inputs).max() <= 1e-8
    assert abs(oracle.energy - plan.energy) <= 1e-8 * max(1.0, plan.energy)


@pytest.mark.parametrize("regime", ["non-repetitive", "repetitive"])
def test_optimality_against_oracle_random(regime):
    rng = np.random.default_rng(52)
    designers = {
        "non-repetitive": design_nonrepetitive,
        "repetitive": design_repetitive,
    }
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 7))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        task = feasible_task(rng, system, scheme, b, regime)

        plan = designers[regime](lifted, task)
        oracle = oracle_stacked_ls(system, scheme, task)

        energy_scale = max(plan.energy, oracle.energy, 1e-12)
        assert abs(plan.energy - oracle.energy) <= 1e-8 * energy_scale
        assert np.abs(plan.flat_inputs - oracle.flat_inputs).max() <= 1e-7


def test_min_norm_among_feasible_alternatives():
    # when the Gramian is singular but the target is reachable, the design
    # is the smallest-norm exact solution: explicit null-space moves never
    # reduce the stacked input norm
    rng = np.random.default_rng(53)
    from cbcontrol import LtiSystem, reachability_matrix

    # third state is untouched by the input, so the Gramian is singular
    system = LtiSystem(A=np.diag([0.5, 0.25, 0.0]), B=[[1.0], [1.0], [0.0]])
    scheme = build_scheme(3, 1)
    lifted = lift(system, scheme)
    b = 2
    Rb = reachability_matrix(lifted, b)
    assert np.linalg.matrix_rank(Rb @ Rb.T) < 3

    latents = [np.array([0.4, -0.7]), np.array([0.2, 0.9])]
    x0 = np.array([0.3, -0.1, 0.5])
    x = x0.copy()
    for w in latents:
        x = lifted.Abar @ x + lifted.Bbar @ w
    task = SteeringTask(x0=x0, xf=x, b=b, regime="non-repetitive")
    plan = design_nonrepetitive(lifted, task)
    assert verify_plan(system, scheme, task, plan).terminal_error <= 1e-10

    # stacked equality system for the same task
    steps = b * scheme.h
    powers = [system.B]
    for _ in range(steps - 1):
        powers.append(system.A @ powers[-1])
    terminal = np.hstack(powers[::-1])
    balance = np.kron(np.eye(b), np.tile(np.eye(scheme.m), (1, scheme.h)))
    E = np.vstack([terminal, balance])
    u_star = plan.flat_inputs.ravel()

    _, _, vt = np.linalg.svd(E)
    null_dim = vt.shape[0] - np.linalg.matrix_rank(E)
    assert null_dim > 0
    for _ in range(50):
        eta = rng.standard_normal(null_dim)
        candidate = u_star + vt[vt.shape[0] - null_dim :].T @ eta
        assert np.linalg.norm(candidate) >= np.linalg.norm(u_star) - 1e-10


def test_unreachable_target_raises_with_consistent_residual():
    system = rotation_system()
    scheme = build_scheme(2, 1)
    lifted = lift(system, scheme)
    task = _rotation_task(1)  # one block spans a single line in the plane
    with pytest.raises(ReachabilityError) as info:
        design_nonrepetitive(lifted, task)
    err = info.value
    assert err.rank == 1
    assert str(err) == (
        "target displacement is not reachable in 1 blocks: residual 2.196e-01 "
        "(relative 2.217e-01), Gramian rank 1 of 2"
    )
    from cbcontrol import reachability_matrix

    Rb = reachability_matrix(lifted, 1)
    G = Rb @ Rb.T
    d = task.xf - lifted.Abar @ np.asarray(task.x0)
    z, *_ = np.linalg.lstsq(G, d, rcond=None)
    distance = np.linalg.norm(G @ z - d)
    assert abs(err.residual - distance) <= 1e-10 * max(1.0, distance)


def test_unreachable_repetitive_raises():
    system = rotation_system()
    scheme = build_scheme(2, 1)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=[-0.2, 0.2], xf=[1.0, -0.6], b=1, regime="repetitive")
    with pytest.raises(ReachabilityError):
        design_repetitive(lifted, task)


def _snapped(block, h, m):
    """One block on the laws' exact-balance grid, from its definition.

    Per channel, with max |U| < 2^e and g = 2^(e + ceil(log2 h) - 53), the
    steps round to multiples of g and the last is 0.0 minus the sum of the
    others; every zero is +0.0.
    """
    U = np.reshape(block, (h, m))
    g = np.ldexp(1.0, np.frexp(np.abs(U).max(axis=0))[1] + math.ceil(math.log2(h)) - 53)
    U = np.round(U / g) * g + 0.0
    U[-1] = 0.0 - U[:-1].sum(axis=0)
    return U.reshape(np.shape(block))


def _min_norm_reference(lifted, task):
    """The identical-block plan and singular values of min_norm_solve on the gain."""
    total, free = h_sum(lifted, task.b, task.x0)
    gain = total @ lifted.Bbar
    solve = min_norm_solve(gain, task.xf - free)
    scheme = lifted.scheme
    block = _snapped(unpack(solve.x, scheme), scheme.h, scheme.m)
    flat = np.tile(block, task.b).reshape(-1, scheme.m)
    return flat, gain, solve.rank, solve.singular_values, solve.residual


def test_full_rank_square_gain_solves_by_lu(monkeypatch):
    # m(h - 1) = n makes H_b Bbar square; at full numeric rank the
    # solution is unique, so a shifted Cholesky of its Gram matrix
    # certifies the rank with no SVD and LU solves, within n eps kappa of
    # the truncated-SVD solution
    rng = np.random.default_rng(59)
    shapes = [(2, 2), (1, 3), (2, 3), (4, 2), (1, 4), (3, 3)]  # (m, h)
    cases = [(expander_system(), build_scheme(2, 2), SteeringTask(
        x0=[-0.2, 0.3], xf=[1.0, -0.6], b=10, regime="repetitive"))]
    for trial in range(60):
        m, h = shapes[trial % len(shapes)]
        system = random_system(rng, m * (h - 1), m)
        scheme = build_scheme(h, m)
        cases.append((system, scheme, feasible_task(
            rng, system, scheme, int(rng.integers(1, 40)), "repetitive")))
    calls = counting_svd(monkeypatch)
    for system, scheme, task in cases:
        lifted = lift(system, scheme)
        calls.clear()
        plan = design_repetitive(lifted, task)
        assert calls == []
        reference, gain, rank, svals, _ = _min_norm_reference(lifted, task)
        assert gain.shape == (system.n, system.n) and rank == system.n
        kappa = svals[0] / svals[-1]
        gap = np.linalg.norm(plan.flat_inputs - reference)
        assert gap <= 10 * system.n * np.finfo(float).eps * kappa * np.linalg.norm(reference)
        assert verify_plan(system, scheme, task, plan).passed


def test_rank_deficient_square_gain_raises_as_min_norm_solve(monkeypatch):
    # expander_2d at b = 30: H_b Bbar is square but of rank 1 of 2, so
    # the Cholesky certificate fails and the design takes the truncated
    # SVD alone, reporting that solve's residual and rank; ||d|| there is
    # float64 rounding amplified by 2^60, so the relative residual's
    # digits follow the order of h_sum's products
    lifted = lift(expander_system(), build_scheme(2, 2))
    task = SteeringTask(x0=[-0.2, 0.3], xf=[1.0, -0.6], b=30, regime="repetitive")
    _, _, rank, _, residual = _min_norm_reference(lifted, task)
    calls = counting_svd(monkeypatch)
    with pytest.raises(ReachabilityError) as info:
        design_repetitive(lifted, task)
    assert [with_u for *_, with_u in calls] == [True]
    assert str(info.value) == (
        "target displacement is not reachable with identical blocks: "
        "residual 6.000e-01 (relative 1.829e-02), rank 1 of 2"
    )
    assert (info.value.rank, info.value.residual) == (rank, residual) == (1, 0.6)


def test_non_square_gain_plan_is_the_min_norm_solve_plan(monkeypatch):
    # m(h - 1) != n: the gain is not square, so the design is the
    # truncated-SVD solve itself, bit for bit, by its one SVD with U
    rng = np.random.default_rng(60)
    calls = counting_svd(monkeypatch)
    for trial in range(40):
        n, m, h = int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        if m * (h - 1) == n:
            continue
        system, scheme = random_system(rng, n, m), build_scheme(h, m)
        lifted = lift(system, scheme)
        task = feasible_task(rng, system, scheme, int(rng.integers(1, 40)), "repetitive")
        calls.clear()
        plan = design_repetitive(lifted, task)
        assert [with_u for *_, with_u in calls] == [True]
        assert np.array_equal(plan.flat_inputs, _min_norm_reference(lifted, task)[0])


def test_overflowed_gain_raises_before_any_svd(monkeypatch):
    # expander_2d at b = 600: A^1200 overflows, so the gain is not finite
    lifted = lift(expander_system(), build_scheme(2, 2))
    task = SteeringTask(x0=[-0.2, 0.3], xf=[1.0, -0.6], b=600, regime="repetitive")
    calls = counting_svd(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(AnalysisError, match="float64 overflow"):
        design_repetitive(lifted, task)
    for matrix, rhs in (([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]), (np.eye(2), [np.nan, 1.0])):
        with pytest.raises(AnalysisError, match="float64 overflow"):
            unique_or_min_norm_solve(matrix, rhs)
    assert calls == []


def _with_singular_values(rng, svals):
    """U diag(svals) V^T with random orthogonal U and V."""
    n = len(svals)
    return random_orthogonal(rng, n) @ np.diag(svals) @ random_orthogonal(rng, n).T


def _solves_alike(first, second):
    """The (x, rank, singular values, residual) of two solves, bit for bit."""
    return (np.array_equal(first[0], second[0]) and first[1] == second[1]
            and np.array_equal(first[2], second[2]) and first[3] == second[3])


def test_cholesky_certificate_is_sound(monkeypatch):
    # sigma_n / sigma_1 from 1e-1 to 1e-17 and at half, one and twice the
    # rank cutoff, with the middle values spread or all at sigma_1: when the
    # helper takes no SVD, the SVD rank rule gives rank n, and every
    # matrix with kappa <= 1e5 is certified, so the check is not vacuous
    rng = np.random.default_rng(71)
    calls = counting_svd(monkeypatch)
    for n in (2, 4, 20, 100):
        cutoff = rank_cutoff((n, n))
        for ratio in (*np.logspace(-1, -17, 49), 0.5 * cutoff, cutoff, 2 * cutoff):
            middles = (np.exp(rng.uniform(np.log(ratio), 0.0, n - 2)), np.ones(n - 2))
            for middle in middles:
                matrix = _with_singular_values(rng, np.concatenate(([1.0], middle, [ratio])))
                calls.clear()
                unique_or_min_norm_solve(matrix, rng.standard_normal(n))
                if not calls:
                    assert numeric_rank(matrix)[0] == n, (n, ratio)
                elif ratio >= 1e-5:
                    raise AssertionError(f"kappa {1 / ratio:.1e} at n = {n} not certified")


def test_declined_full_rank_gain_is_the_min_norm_solve(monkeypatch):
    # kappa = 1e9 at n = 4 is full rank by the SVD rule but past the
    # certificate's reach: one SVD with U, and min_norm_solve's result
    rng = np.random.default_rng(72)
    matrix = _with_singular_values(rng, [1.0, 1e-3, 1e-6, 1e-9])
    rhs = rng.standard_normal(4)
    calls = counting_svd(monkeypatch)
    result = unique_or_min_norm_solve(matrix, rhs)
    assert [with_u for *_, with_u in calls] == [True]
    assert result[1] == 4
    assert _solves_alike(result, min_norm_solve(matrix, rhs))


def test_certificate_ignores_power_of_two_scaling(monkeypatch):
    # M 2^600 and M 2^-600 decide as M (certified, declined at kappa 1e9,
    # rank 2 of 3) with every warning an error: the Gram matrix of the
    # scaled copy neither overflows nor underflows, and LU on M 2^k
    # returns x 2^-k exactly
    rng = np.random.default_rng(73)
    calls, paths = counting_svd(monkeypatch), []
    for svals in ([1.0, 0.5, 0.25], [1.0, 1e-4, 1e-9], [1.0, 0.5, 0.0]):
        matrix, rhs = _with_singular_values(rng, svals), rng.standard_normal(3)
        calls.clear()
        x, rank, *_ = unique_or_min_norm_solve(matrix, rhs)
        path = list(calls)
        paths.append([with_u for *_, with_u in calls])
        for k in (600, -600):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled_x, scaled_rank, *_ = unique_or_min_norm_solve(np.ldexp(matrix, k), rhs)
            assert calls == path and scaled_rank == rank
            if not path:
                assert np.array_equal(scaled_x, np.ldexp(x, -k))
            else:  # the SVD scales internally, not by a power of two
                kappa = svals[0] / svals[rank - 1]
                gap = np.linalg.norm(np.ldexp(scaled_x, k) - x)
                assert gap <= 30 * np.finfo(float).eps * kappa * np.linalg.norm(x)
    assert paths == [[], [True], [True]]


def test_lu_that_raises_falls_back_to_min_norm_solve(monkeypatch):
    # a certified matrix whose LU raises still gets min_norm_solve's result
    rng = np.random.default_rng(74)
    matrix, rhs = _with_singular_values(rng, [1.0, 0.5, 0.25]), rng.standard_normal(3)
    expected, raised = min_norm_solve(matrix, rhs), []

    def failing_solve(*args, **kwargs):
        raised.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    calls = counting_svd(monkeypatch)
    assert _solves_alike(unique_or_min_norm_solve(matrix, rhs), expected)
    assert len(raised) == 1 and [with_u for *_, with_u in calls] == [True]


def _entry_bytes(monkeypatch, module, name):
    """Replace module.name by a wrapper that records, per call, tracemalloc's
    current bytes at entry and the nbytes of its first argument."""
    real, entries = getattr(module, name), []

    def recording(*args, **kwargs):
        entries.append((tracemalloc.get_traced_memory()[0], args[0].nbytes))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return entries


def _traced_from(func, *args):
    """func(*args) under tracemalloc; returns the traced bytes just before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func(*args)
    finally:
        tracemalloc.stop()
    return base


def test_certificate_arrays_are_freed_before_the_solve(monkeypatch):
    # at n = 200 the certificate's scaled copy and Gram array are 640,000
    # bytes; neither the LU nor the SVD fallback runs while they are held
    import cbcontrol.numeric as numeric

    rng = np.random.default_rng(75)
    n = 200
    full = _with_singular_values(rng, np.linspace(1.0, 0.5, n))
    deficient = _with_singular_values(rng, np.concatenate((np.ones(n - 1), [0.0])))
    rhs = rng.standard_normal(n)
    solves = _entry_bytes(monkeypatch, np.linalg, "solve")
    fallbacks = _entry_bytes(monkeypatch, numeric, "min_norm_solve")
    for matrix, entries in ((full, solves), (deficient, fallbacks)):
        solves.clear()
        fallbacks.clear()
        base = _traced_from(unique_or_min_norm_solve, matrix, rhs)
        assert solves + fallbacks == entries and len(entries) == 1
        assert entries[0][0] - base <= 64 * 1024, entries[0][0] - base


def test_identical_block_design_frees_h_b_before_the_solve(monkeypatch):
    # H_b is n x n (320,000 bytes at n = 200) and only forms the gain: the
    # solve runs with the gain and two n-vectors held above the baseline
    import cbcontrol.design as design

    rng = np.random.default_rng(76)
    system, scheme = random_system(rng, 200, 200), build_scheme(2, 200)
    lifted = lift(system, scheme)
    task = feasible_task(rng, system, scheme, 10, "repetitive")
    entries = _entry_bytes(monkeypatch, design, "unique_or_min_norm_solve")
    base = _traced_from(design_repetitive, lifted, task)
    [(held, gain_bytes)] = entries
    assert held - base <= gain_bytes + 64 * 1024, (held - base, gain_bytes)


def test_q_invariance_of_designed_blocks():
    # the optimal stacked inputs depend on the kernel basis only through
    # the projector Q Q^T, so any orthogonal recombination gives the same plan
    rng = np.random.default_rng(54)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        theta = random_orthogonal(rng, scheme.Q.shape[1])
        recombined = BlockScheme(h=h, m=m, Q=scheme.Q @ theta)

        task = feasible_task(rng, system, scheme, b, "non-repetitive")
        plan_a = design_nonrepetitive(lift(system, scheme), task)
        plan_b = design_nonrepetitive(lift(system, recombined), task)
        assert np.abs(plan_a.flat_inputs - plan_b.flat_inputs).max() <= 1e-9


def test_plan_energy_equals_latent_energy():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        task = feasible_task(rng, system, scheme, b, "non-repetitive")
        plan = design_nonrepetitive(lift(system, scheme), task)
        latents = plan.flat_inputs.reshape(b, -1) @ scheme.Q  # w = Q^T U per block
        latent_energy = float(sum(w @ w for w in latents))
        assert abs(plan.energy - latent_energy) <= 1e-10 * max(1.0, plan.energy)


def test_designed_plans_pass_verification():
    rng = np.random.default_rng(56)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        h = int(rng.integers(2, 4))
        b = int(rng.integers(1, 5))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        for regime, designer in (
            ("non-repetitive", design_nonrepetitive),
            ("repetitive", design_repetitive),
        ):
            task = feasible_task(rng, system, scheme, b, regime)
            plan = designer(lifted, task)
            assert verify_plan(system, scheme, task, plan).passed


def _per_block_reference(lifted, task, plan):
    """Blocks and energy as the per-block loops build them: one unpack and snap per latent.

    The latents come from the plan's own solve, so the comparison checks
    the assembly of the plan, not the solve.
    """
    scheme, b = lifted.scheme, task.b
    if task.regime == "repetitive":
        latents = [plan.solve.x] * b
    else:
        latents = (reachability_matrix(lifted, b).T @ plan.solve.x).reshape(b, -1)
    blocks = [_snapped(unpack(w, scheme), scheme.h, scheme.m) for w in latents]
    return blocks, float(sum(U @ U for U in blocks))


def test_plan_arrays_match_per_block_loops():
    # one product with Q (distinct blocks) or one tiled block (identical
    # blocks), the energy as one squared norm and the imbalances from the
    # (b, h, m) view agree with the per-block unpack, U @ U and R @ U loops
    assert [f.name for f in dataclasses.fields(ControlPlan)] == ["flat_inputs", "solve"]
    rng = np.random.default_rng(58)
    designers = {"non-repetitive": design_nonrepetitive, "repetitive": design_repetitive}
    for _ in range(30):
        n, m, h = int(rng.integers(2, 7)), int(rng.integers(1, 9)), int(rng.integers(2, 7))
        b = int(rng.integers(1, 301))
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        for regime, designer in designers.items():
            task = feasible_task(rng, system, scheme, b, regime)
            plan = designer(lifted, task)
            blocks, energy = _per_block_reference(lifted, task, plan)
            reference = np.concatenate(blocks).reshape(-1, m)
            scale = np.abs(reference).max()
            assert plan.flat_inputs.shape == (b * h, m)
            if regime == "repetitive":
                assert np.array_equal(plan.flat_inputs, reference)
            else:
                # the product's last bits can round to the next cell of the snap's
                # grid (at most 2^(ceil(log2 h) - 52) scale), each step's error
                # landing once more on the last step
                cell = 2.0 ** (math.ceil(math.log2(h)) - 52) * scale
                assert np.abs(plan.flat_inputs - reference).max() <= 1e-15 * scale + h * cell
            assert abs(plan.energy - energy) <= 1e-13 * energy

            check = verify_plan(system, scheme, task, plan)
            applied = plan.flat_inputs.reshape(b, -1)
            balance = np.tile(np.eye(m), (1, h))  # per-channel block sums [I_m ... I_m]
            imbalances = [np.abs(balance @ U).max() for U in applied]
            assert check.imbalances.shape == (b,)
            assert np.abs(check.imbalances - imbalances).max() <= 1e-15 * scale


def test_every_block_of_every_plan_sums_to_exactly_zero():
    # U = Q w balances only to rounding, and minus the sum of the other steps
    # alone is exact only in one order: numpy sums a contiguous axis in eight
    # interleaved lanes, so at m = 1 and h >= 9 that leaves nonzero sums. The
    # laws' grid makes every order give 0.0, even for rotation_2d steered to
    # xf x 1e8 (inputs near 1e7), which then passes the absolute 1e-9 check
    rng = np.random.default_rng(61)
    plans, plain_sums = [], []
    for _ in range(12):
        n, h, b = int(rng.integers(2, 6)), int(rng.integers(9, 40)), int(rng.integers(1, 30))
        system, scheme = random_system(rng, n, 1), build_scheme(h, 1)
        lifted = lift(system, scheme)
        for regime, designer in (("non-repetitive", design_nonrepetitive),
                                 ("repetitive", design_repetitive)):
            plan = designer(lifted, feasible_task(rng, system, scheme, b, regime))
            plans.append((plan, h))
            if regime == "repetitive":
                plain = unpack(plan.solve.x, scheme).reshape(1, h)
            else:
                latents = (reachability_matrix(lifted, b).T @ plan.solve.x).reshape(b, -1)
                plain = latents @ scheme.Q.T
            plain[:, -1] = -plain[:, :-1].sum(axis=1)
            plain_sums.append(plain.sum(axis=1))
    assert np.count_nonzero(np.concatenate(plain_sums))

    system, scheme = rotation_system(), build_scheme(4, 1)
    task = SteeringTask(x0=[-0.2, 0.2], xf=[1e8, -0.6e8], b=5, regime="non-repetitive")
    plan = design_nonrepetitive(lift(system, scheme), task)
    assert np.abs(plan.flat_inputs).max() > 1e7
    assert verify_plan(system, scheme, task, plan).passed
    plans.append((plan, 4))

    for plan, h in plans:
        m = plan.flat_inputs.shape[1]
        blocks = plan.flat_inputs.reshape(-1, h, m)
        assert not np.any(blocks.sum(axis=1))
        for column in np.ascontiguousarray(blocks.transpose(0, 2, 1)).reshape(-1, h):
            assert column.sum() == sum(reversed(column.tolist())) == math.fsum(column) == 0.0


def test_plan_carries_the_solve_it_was_drawn_from():
    # rotation_2d (distinct blocks) solves the Gramian Rb Rb^T by SVD,
    # four_state (identical blocks, kappa 1.2e8) declines the certificate
    # and expander_2d's square gain is certified and solved by LU; the
    # oracle's plans and a caller's carry no solve
    plans = {}
    for name in ("rotation_2d", "four_state", "expander_2d"):
        problem = parse_problem(bundled_problem(name).read_text())
        h, system, task = _resolve_h(problem)[0], problem.system, problem.task
        lifted = lift(system, build_scheme(h, system.m))
        design = design_repetitive if task.regime == REPETITIVE else design_nonrepetitive
        plans[name] = lifted, task, design(lifted, task)
        assert verify_plan(system, lifted.scheme, task, plans[name][2]).passed
        assert oracle_stacked_ls(system, lifted.scheme, task).solve is None

    lifted, task, plan = plans["rotation_2d"]
    _, rank, svals, residual = plan.solve
    assert task.regime == NON_REPETITIVE and rank == 2 and residual <= 1e-15
    Rb = reachability_matrix(lifted, task.b)
    gram_rank, gram_svals = numeric_rank(Rb @ Rb.T)
    assert gram_rank == rank and np.allclose(svals, gram_svals, rtol=1e-12, atol=0.0)
    assert abs(svals[-1] / svals[0] - 12 / 13) <= 1e-12

    _, task, plan = plans["four_state"]
    svals = plan.solve.singular_values
    assert task.regime == REPETITIVE and plan.solve.rank == 4
    assert 8.1e-9 <= svals[-1] / svals[0] <= 8.2e-9

    _, task, plan = plans["expander_2d"]
    assert task.regime == REPETITIVE
    assert plan.solve[1:] == (2, None, 0.0)
    for solve in (plans["rotation_2d"][2].solve, plans["four_state"][2].solve, plan.solve):
        arrays = [a for a in (solve.x, solve.singular_values) if a is not None]
        assert all(not a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0].flags.writeable = True
    assert ControlPlan(plan.flat_inputs).solve is None


def test_oracle_rejects_charged_solution(monkeypatch):
    # the oracle checks the charge balance of what its solve returns
    import cbcontrol.design as design

    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = _rotation_task(3)
    plan = oracle_stacked_ls(system, scheme, task)
    charged = plan.flat_inputs.ravel().copy()
    charged[2] += 1e-3  # block 1 now carries net charge

    def charged_solve(matrix, rhs):
        return Solve(charged, 0, np.ones(1), 0.0)

    monkeypatch.setattr(design, "min_norm_solve", charged_solve)
    with pytest.raises(ChargeBalanceError, match="not charge balanced") as info:
        oracle_stacked_ls(system, scheme, task)
    assert np.array_equal(info.value.imbalance > 1e-9, [False, True, False])


def test_oracle_rejects_infeasible_and_mismatched_tasks():
    # B = 0 reaches nothing: the terminal rows are zero, so the scaled
    # residual is |e1| and the rank is the three block-sum rows'
    system = LtiSystem(A=np.diag([0.5, 0.8]), B=np.zeros((2, 1)))
    scheme = build_scheme(2, 1)
    task = SteeringTask(x0=[0.0, 0.0], xf=[1.0, 0.0], b=3, regime="non-repetitive")
    with pytest.raises(ReachabilityError, match="stacked equality system is infeasible") as info:
        oracle_stacked_ls(system, scheme, task)
    assert info.value.residual == pytest.approx(1.0, rel=1e-12)
    assert info.value.rank == 3

    with pytest.raises(DimensionError, match="scheme is for 2 input channels, system has 1"):
        oracle_stacked_ls(system, build_scheme(2, 2), task)
    short = SteeringTask(x0=[0.0], xf=[1.0], b=3, regime="non-repetitive")
    with pytest.raises(DimensionError, match="task states have length 1, system has 2"):
        oracle_stacked_ls(system, scheme, short)


def test_repetitive_oracle_solves_over_the_one_block(monkeypatch):
    # identical blocks: the unknowns are one block's h m inputs, the rows the
    # n summed terminal rows and the m block sums, and the plan is that block
    # b times, bit for bit
    import cbcontrol.design as design

    shapes = []

    def recording(matrix, rhs):
        shapes.append(np.shape(matrix))
        return min_norm_solve(matrix, rhs)

    monkeypatch.setattr(design, "min_norm_solve", recording)
    rng = np.random.default_rng(59)
    for n, m, h, b in ((2, 1, 2, 1), (3, 2, 3, 4), (5, 2, 2, 20), (4, 3, 4, 7)):
        system = random_system(rng, n, m)
        scheme = build_scheme(h, m)
        task = feasible_task(rng, system, scheme, b, REPETITIVE)
        plan = oracle_stacked_ls(system, scheme, task)
        assert shapes.pop() == (n + m, h * m)
        blocks = plan.flat_inputs.reshape(b, -1)
        assert all(block.tobytes() == blocks[0].tobytes() for block in blocks)
        nonrep = dataclasses.replace(task, regime=NON_REPETITIVE)
        oracle_stacked_ls(system, scheme, nonrep)
        assert shapes.pop() == (n + b * m, b * h * m)


def test_oracle_rejects_a_plan_that_misses():
    # four_state at b = 10: the row-equilibrated residual is tiny because the
    # equilibrated target is, yet the plan ends 2.6 from xf; a zero
    # displacement still gives the zero plan
    system = four_state_system()
    scheme = build_scheme(3, 2)
    for regime in REGIMES:
        task = SteeringTask(x0=np.zeros(4), xf=[1.0, -0.6, 0.5, -0.4], b=10, regime=regime)
        with pytest.raises(ReachabilityError, match="stacked solution misses the target") as info:
            oracle_stacked_ls(system, scheme, task)
        assert info.value.residual > 1.0
        still = SteeringTask(x0=np.zeros(4), xf=np.zeros(4), b=10, regime=regime)
        assert oracle_stacked_ls(system, scheme, still).energy == 0.0


def test_verify_zero_plan_on_drifting_target():
    rng = np.random.default_rng(57)
    system = random_system(rng, 2, 1)
    scheme = build_scheme(2, 1)
    x0 = rng.standard_normal(2)
    xf = np.linalg.matrix_power(system.A, 4) @ x0
    task = SteeringTask(x0=x0, xf=xf, b=2, regime="non-repetitive")
    zero = ControlPlan(flat_inputs=np.zeros((4, 1)))
    check = verify_plan(system, scheme, task, zero)
    assert check.passed
    assert check.terminal_error == 0.0


def test_verify_flags_perturbed_block():
    system = rotation_system()
    scheme = build_scheme(2, 1)
    lifted = lift(system, scheme)
    task = _rotation_task(10)
    plan = design_nonrepetitive(lifted, task)

    flat = plan.flat_inputs.copy()
    flat[8, 0] += 0.1  # first step of block 4
    tampered = ControlPlan(flat_inputs=flat)
    check = verify_plan(system, scheme, task, tampered)
    assert not check.passed
    flagged = np.nonzero(check.imbalances > 1e-9)[0]
    assert list(flagged) == [4]


def test_verify_terminal_tolerance_is_inclusive():
    # a plan passes when its terminal error equals tol.terminal, and fails
    # one float below it
    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = _rotation_task(3)
    plan = design_nonrepetitive(lift(system, scheme), task)
    error = verify_plan(system, scheme, task, plan).terminal_error
    assert error > 0.0
    assert verify_plan(system, scheme, task, plan, Tolerances(terminal=error)).passed
    below = Tolerances(terminal=float(np.nextafter(error, 0.0)))
    assert not verify_plan(system, scheme, task, plan, below).passed


def test_verify_charge_balance_tolerance_is_inclusive():
    # a caller's plan passes when its largest block imbalance equals the
    # fixed bound DEFAULT.charge_balance, and fails one float above it
    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = SteeringTask(x0=[0.0, 0.0], xf=[0.0, 0.0], b=10, regime="non-repetitive")
    for charge, passed in ((DEFAULT.charge_balance, True),
                           (float(np.nextafter(DEFAULT.charge_balance, np.inf)), False)):
        flat = np.zeros((20, 1))
        flat[8, 0] = charge  # block 4 carries net charge `charge`, and no other block any
        check = verify_plan(system, scheme, task, ControlPlan(flat))
        assert check.imbalances.max() == charge
        assert check.terminal_error <= DEFAULT.terminal
        assert check.passed is passed


def test_verify_fails_a_rollout_that_reaches_nan():
    # the states overflow to inf - inf = NaN: a NaN terminal error is no pass
    system = LtiSystem(A=[[1e300, -1e300], [1e300, 1e300]], B=[[1.0], [0.0]])
    scheme = build_scheme(2, 1)
    task = SteeringTask(x0=[1.0, 0.0], xf=[0.0, 0.0], b=2, regime="non-repetitive")
    with np.errstate(all="ignore"):
        check = verify_plan(system, scheme, task, ControlPlan(np.zeros((4, 1))))
    assert np.isnan(check.terminal_error)
    assert not check.passed


def test_verify_reads_the_applied_inputs():
    # imbalance is taken from the inputs that are simulated: a first block
    # with net charge 5 fails, and the energy is derived from those inputs
    system = LtiSystem(A=[[0.0]], B=[[1.0]])
    scheme = build_scheme(2, 1)
    task = SteeringTask(x0=[0.0], xf=[0.0], b=2, regime="non-repetitive")
    plan = design_nonrepetitive(lift(system, scheme), task)
    assert verify_plan(system, scheme, task, plan).passed
    charged = dataclasses.replace(plan, flat_inputs=[[5.0], [0.0], [0.0], [0.0]])
    assert (plan.energy, charged.energy) == (0.0, 25.0)
    check = verify_plan(system, scheme, task, charged)
    assert not check.passed
    assert check.terminal_error == 0.0  # A = 0 forgets the charge by the end
    assert list(check.imbalances) == [5.0, 0.0]
    assert check.trajectory.horizon == 4  # the trajectory is the states alone
    with pytest.raises(ValueError):
        charged.flat_inputs[0, 0] = 0.0  # the applied inputs are read-only
    for arr in (charged.flat_inputs, task.x0, task.xf):  # and cannot be unlocked
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    with pytest.raises(DimensionError):
        verify_plan(system, scheme, task, dataclasses.replace(plan, flat_inputs=[[0.0]] * 3))


def test_plan_inputs_are_one_c_ordered_form():
    # a plan stores its inputs as a C-ordered (steps, m) float64 copy, so
    # simulate runs on that very array; any other form is refused by shape
    from cbcontrol.design import _block_imbalances

    rng = np.random.default_rng(58)
    inputs = np.asfortranarray(rng.standard_normal((6, 2)))
    plan = ControlPlan(inputs)
    assert plan.flat_inputs.flags.c_contiguous and plan.flat_inputs.dtype == np.float64
    assert np.array_equal(plan.flat_inputs, inputs) and inputs.flags.writeable
    for value, shape in ((0.0, r"\(\)"), ([0.0, 1.0], r"\(2,\)"),
                         (np.zeros((4, 1, 1)), r"\(4, 1, 1\)")):
        with pytest.raises(DimensionError, match=rf"shape \(steps, m\), got {shape}$"):
            ControlPlan(value)
    # the imbalances are those of plan.flat_inputs, bit for bit
    system = random_system(rng, 3, 2)
    scheme = build_scheme(3, 2)
    check = verify_plan(system, scheme, SteeringTask(x0=np.zeros(3), xf=np.zeros(3), b=2,
                                                     regime="non-repetitive"), plan)
    want = _block_imbalances(plan.flat_inputs, 3)
    assert check.imbalances.tobytes() == want.tobytes() and want.min() > 0.0
    assert check.trajectory.states.tobytes() == simulate(system, np.zeros(3), inputs).states.tobytes()


def _count_calls(monkeypatch, name: str = "simulate") -> list:
    """The calls verify_plan and rollout make to design.<name>, one entry each."""
    import cbcontrol.design as design

    calls = []
    original = getattr(design, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(design, name, counting)
    return calls


def test_verify_and_rollout_share_one_simulation(monkeypatch):
    calls = _count_calls(monkeypatch)
    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = _rotation_task(10)
    plan = design_nonrepetitive(lift(system, scheme), task)
    report = verify_plan(system, scheme, task, plan)
    assert rollout(system, task, plan) is report.trajectory
    assert len(calls) == 1
    # the reverse order, and a new task with the same x0, share it too
    other = dataclasses.replace(plan)
    traj = rollout(system, task, other)
    assert verify_plan(system, scheme, _rotation_task(10), other).trajectory is traj
    assert len(calls) == 2
    # another x0, or another system object with equal arrays, simulates again
    moved = SteeringTask(x0=[0.3, -0.1], xf=task.xf, b=10, regime=task.regime)
    twin = LtiSystem(A=system.A, B=system.B)
    for sys_, task_ in ((system, moved), (twin, task), (system, task)):
        traj = rollout(sys_, task_, plan)
        fresh = simulate(sys_, task_.x0, plan.flat_inputs)
        assert traj.states.tobytes() == fresh.states.tobytes()
    # one entry is kept: returning to the first key simulated once more
    assert len(calls) == 5


def test_verify_plan_simulates_only_through_rollout(monkeypatch):
    simulated = _count_calls(monkeypatch)
    rolled = _count_calls(monkeypatch, "rollout")
    system = rotation_system()
    scheme = build_scheme(2, 1)
    task = _rotation_task(10)
    lifted = lift(system, scheme)
    for count, plan in enumerate((design_nonrepetitive(lifted, task),
                                  ControlPlan(np.zeros((20, 1)))), start=1):
        report = verify_plan(system, scheme, task, plan)
        assert (len(rolled), len(simulated)) == (count, count)
        assert rollout(system, task, plan) is report.trajectory
        assert len(simulated) == count


def test_verify_checks_the_step_count_before_simulating(monkeypatch):
    calls = _count_calls(monkeypatch)
    system = LtiSystem(A=[[0.0]], B=[[1.0]])
    scheme = build_scheme(2, 1)
    task = SteeringTask(x0=[0.0], xf=[0.0], b=2, regime="non-repetitive")
    short = ControlPlan(flat_inputs=[[0.0]] * 3)
    with pytest.raises(DimensionError, match="plan has 3 steps, task needs 2 blocks of 2"):
        verify_plan(system, scheme, task, short)
    assert calls == []


def test_regime_mismatch_rejected():
    system = rotation_system()
    lifted = lift(system, build_scheme(2, 1))
    task = SteeringTask(x0=[0.0, 0.0], xf=[0.0, 0.0], b=2, regime="repetitive")
    with pytest.raises(PreconditionError):
        design_nonrepetitive(lifted, task)
    task2 = SteeringTask(x0=[0.0, 0.0], xf=[0.0, 0.0], b=2, regime="non-repetitive")
    with pytest.raises(PreconditionError):
        design_repetitive(lifted, task2)


def test_task_validation():
    with pytest.raises(PreconditionError):
        SteeringTask(x0=[0.0], xf=[0.0], b=0, regime="repetitive")
    for bad in (2.7, 2.0, True, "2", None):
        with pytest.raises(PreconditionError):
            SteeringTask(x0=[0.0], xf=[0.0], b=bad, regime="repetitive")
    task = SteeringTask(x0=[0.0], xf=[0.0], b=np.int64(3), regime="repetitive")
    assert task.b == 3 and type(task.b) is int
    with pytest.raises(PreconditionError):
        SteeringTask(x0=[0.0], xf=[0.0], b=1, regime="sometimes")
    with pytest.raises(DimensionError, match="x0 has length 2 but xf has length 1"):
        SteeringTask(x0=[0.0, 0.0], xf=[0.0], b=1, regime="repetitive")
    for bad in ([np.nan, 0.3], [np.inf, 0.3], [0.2, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            SteeringTask(x0=bad, xf=[1.0, -0.6], b=2, regime="repetitive")
        with pytest.raises(ValueError, match="finite"):
            SteeringTask(x0=[1.0, -0.6], xf=bad, b=2, regime="repetitive")


def test_simulate_designed_plan_reaches_printed_target():
    # end to end: raw simulation of the designed per-step inputs
    system = rotation_system()
    scheme = build_scheme(2, 1)
    plan = design_nonrepetitive(lift(system, scheme), _rotation_task(10))
    traj = simulate(system, [-0.2, 0.2], plan.flat_inputs)
    assert np.abs(traj.terminal - np.array([1.0, -0.6])).max() <= 1e-8


# bundled runs whose plan misses the exact minimum, most by a ReachabilityError
# on a target that is exactly reachable
_EXACT_MISSES = {
    ("four_state", NON_REPETITIVE, 5): "ROADMAP item 1: ReachabilityError, Gramian rank 3 of 4",
    ("four_state", NON_REPETITIVE, 10): "ROADMAP item 2: ReachabilityError, Gramian rank 2 of 4",
    ("four_state", NON_REPETITIVE, 20): "ROADMAP item 2: ReachabilityError, Gramian rank 2 of 4",
    ("four_state", NON_REPETITIVE, 30): "ROADMAP item 2: ReachabilityError, Gramian rank 1 of 4",
    ("four_state", REPETITIVE, 10): "ROADMAP item 4: ReachabilityError, gain rank 3 of 4",
    ("four_state", REPETITIVE, 20): "ROADMAP item 4: ReachabilityError, gain rank 2 of 4",
    ("four_state", REPETITIVE, 30): "ROADMAP item 4: ReachabilityError, gain rank 2 of 4",
    ("expander_2d", NON_REPETITIVE, 20): "ROADMAP item 2: ReachabilityError, Gramian rank 1 of 2",
    ("expander_2d", NON_REPETITIVE, 30): "ROADMAP item 2: ReachabilityError, Gramian rank 1 of 2",
    ("expander_2d", REPETITIVE, 30): "ROADMAP item 4: ReachabilityError, gain rank 1 of 2",
    ("drift_only", NON_REPETITIVE, 20): "ROADMAP item 1: the rank rule drops the 0.5 mode (1.875)",
    ("drift_only", NON_REPETITIVE, 30): "ROADMAP item 2: the rank rule drops the 0.5 mode (1.875)",
    ("drift_only", REPETITIVE, 30): "ROADMAP item 4: the rank rule drops the 0.5 mode (33.75)",
}


def _bundled_cases(misses):
    """Every bundled problem in both regimes at b = 5, 10, 20, 30; strict xfails from misses."""
    return [
        pytest.param(name, regime, b, marks=[pytest.mark.xfail(strict=True, reason=reason)]
                     if (reason := misses.get((name, regime, b))) else [])
        for name in list_bundled() for regime in REGIMES for b in (5, 10, 20, 30)
    ]


def _bundled_task(name, regime, b):
    """(h, system, task, exact minimum energy or None) of a bundled problem at regime and b."""
    doc = json.loads(bundled_problem(name).read_text())
    doc["task"].update(regime=regime, b=b)
    problem = parse_problem(json.dumps(doc))
    h, system, task = _resolve_h(problem)[0], problem.system, problem.task
    return h, system, task, exact_min_energy(system, h, task)


@pytest.mark.parametrize("name, regime, b", _bundled_cases(_EXACT_MISSES))
def test_bundled_energy_is_the_exact_minimum(name, regime, b):
    # every bundled plant is rational, so exact arithmetic gives the minimum
    # energy at the file's h (as the CLI resolves it), or exact unreachability
    h, system, task, exact = _bundled_task(name, regime, b)
    # one input at h = 2 leaves rotation_2d's identical block one direction
    assert exact is not None or name in ("identity_2d", "rotation_2d")
    if name == "identity_2d":  # A = I holds the unactuated second state
        assert exact is None
    design = design_repetitive if regime == REPETITIVE else design_nonrepetitive
    lifted = lift(system, build_scheme(h, system.m))
    if exact is None:
        with pytest.raises(ReachabilityError):
            design(lifted, task)
    else:
        assert abs(design(lifted, task).energy - float(exact)) <= 1e-8 * float(exact)


# bundled runs where the oracle raises ReachabilityError on a target that is
# exactly reachable: its stacked rows unroll A^(b h) of an unstable plant, and
# its plan misses xf by more than REACH relative
_ORACLE_MISSES = {
    (name, regime, b): f"ROADMAP item 3: plan misses xf; unrolls A^{h * b}, spectral radius {rho}"
    for name, h, rho, horizons in (
        ("four_state", 3, 5, (10, 20, 30)),
        ("expander_2d", 2, 2, (20, 30)),
    )
    for regime in REGIMES for b in horizons
}


@pytest.mark.parametrize("name, regime, b", _bundled_cases(_ORACLE_MISSES))
def test_oracle_energy_is_the_exact_minimum(name, regime, b):
    # the oracle against the same exact minimum, or ReachabilityError where
    # the target is exactly out of reach
    h, system, task, exact = _bundled_task(name, regime, b)
    scheme = build_scheme(h, system.m)
    if exact is None:
        with pytest.raises(ReachabilityError):
            oracle_stacked_ls(system, scheme, task)
    else:
        energy = oracle_stacked_ls(system, scheme, task).energy
        assert abs(energy - float(exact)) <= 1e-8 * float(exact)
