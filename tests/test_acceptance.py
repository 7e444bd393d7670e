"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines with measured runtimes.
"""

import time

import numpy as np

from cbcontrol import (
    BlockScheme,
    SteeringTask,
    build_scheme,
    check_nonrepetitive_sufficient,
    design_nonrepetitive,
    design_repetitive,
    h_sum,
    lift,
    load_problem,
    bundled_problem,
    oracle_stacked_ls,
    pbh_controllable,
    reachability_matrix,
    select_h,
    simulate,
    unpack,
    verify_plan,
)
from cbcontrol.cli import cmd_sweep_h
from cbcontrol.lifting import krylov

from helpers import (
    expander_system,
    feasible_task,
    floored_rank,
    random_orthogonal,
    random_real_simple_system,
    random_system,
    random_unit_eigenvalue_system,
    rotation_system,
)


def _report(number, description, ok, runtime=None):
    stamp = f" [{runtime * 1e3:.3f} ms]" if runtime is not None else ""
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def _best_of(fn, repeats=3):
    fn()  # warm up caches and BLAS dispatch
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_lifting_closed_form_and_rank():
    system = rotation_system()

    def run():
        scheme = build_scheme(2, 1)
        lifted = lift(system, scheme)
        Rb = reachability_matrix(lifted, 2)
        return lifted, Rb

    (lifted, Rb), runtime = _best_of(run)
    expected = np.array([-3.0 * np.sqrt(2.0) / 4.0, np.sqrt(6.0) / 4.0])
    value_ok = np.abs(lifted.Bbar.ravel() - expected).max() <= 1e-12
    rank_ok = np.linalg.matrix_rank(Rb) == 2
    _report(
        1,
        "two-step lifting matches the closed form and the 2-block "
        "reachability matrix has rank 2",
        value_ok and rank_ok and runtime < 1e-3,
        runtime,
    )


def test_criterion_2_nonrepetitive_steering_both_configurations():
    system = rotation_system()
    x0, xf = [-0.2, 0.2], [1.0, -0.6]
    worst_runtime = 0.0
    ok = True
    for h, b in ((4, 5), (2, 10)):
        scheme = build_scheme(h, 1)
        lifted = lift(system, scheme)
        task = SteeringTask(x0=x0, xf=xf, b=b, regime="non-repetitive")

        def run():
            plan = design_nonrepetitive(lifted, task)
            return plan, verify_plan(system, scheme, task, plan)

        (plan, check), runtime = _best_of(run)
        worst_runtime = max(worst_runtime, runtime)
        ok = ok and plan.flat_inputs.shape[0] == 20
        ok = ok and check.terminal_error <= 1e-8
        ok = ok and check.imbalances.max() <= 1e-10
        ok = ok and runtime < 10e-3
    _report(
        2,
        "distinct-block plans reach [1, -0.6] at k = 20 for both (h=4, b=5) "
        "and (h=2, b=10)",
        ok,
        worst_runtime,
    )


def test_criterion_3_repetitive_steering_expander():
    system = expander_system()
    scheme = build_scheme(2, 2)
    lifted = lift(system, scheme)
    task = SteeringTask(x0=[-0.2, 0.3], xf=[1.0, -0.6], b=10, regime="repetitive")

    def run():
        plan = design_repetitive(lifted, task)
        return plan, verify_plan(system, scheme, task, plan)

    (plan, check), runtime = _best_of(run)
    gain = h_sum(lifted, 10, task.x0)[0] @ lifted.Bbar
    ok = check.terminal_error <= 1e-8
    ok = ok and np.linalg.matrix_rank(gain) == 2
    blocks = plan.flat_inputs.reshape(10, -1)
    ok = ok and all(np.array_equal(blocks[0], U) for U in blocks)
    ok = ok and runtime < 10e-3
    _report(
        3,
        "identical-block plan reaches [1, -0.6] at k = 20, the geometric-sum "
        "map has rank 2, and all 10 blocks are bit-identical",
        ok,
        runtime,
    )


def test_criterion_4_repetitive_steering_four_state():
    problem = load_problem(bundled_problem("four_state"))
    system = problem.system
    scheme = build_scheme(problem.h, system.m)
    lifted = lift(system, scheme)
    task = problem.task
    assert task.regime == "repetitive"

    def run():
        plan = design_repetitive(lifted, task)
        return plan, verify_plan(system, scheme, task, plan)

    (plan, check), runtime = _best_of(run)
    gain = h_sum(lifted, task.b, task.x0)[0] @ lifted.Bbar
    ok = check.terminal_error <= 1e-6
    ok = ok and np.linalg.matrix_rank(gain) == 4
    ok = ok and plan.flat_inputs.shape[0] == 15
    ok = ok and runtime < 10e-3
    # the stored target pair is derived, so re-verify it with the
    # independent stacked solver
    oracle = oracle_stacked_ls(system, scheme, task)
    ok = ok and verify_plan(system, scheme, task, oracle).terminal_error <= 1e-6
    ok = ok and np.abs(oracle.flat_inputs - plan.flat_inputs).max() <= 1e-7
    _report(
        4,
        "four-state identical-block plan reaches the stored target at k = 15 "
        "with rank(H_b Bbar) = 4, confirmed by the stacked oracle",
        ok,
        runtime,
    )


def test_criterion_5_block_length_selection():
    chosen = select_h(rotation_system())
    _report(5, "automatic block-length selection returns exactly 4", chosen == 4)


def test_criterion_6_oracle_equivalence_random_tasks():
    rng = np.random.default_rng(60)
    start = time.perf_counter()
    designers = {
        "non-repetitive": design_nonrepetitive,
        "repetitive": design_repetitive,
    }
    ok = True
    for regime, designer in designers.items():
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            h = int(rng.integers(2, 5))
            b = int(rng.integers(1, 7))
            system = random_system(rng, n, m)
            scheme = build_scheme(h, m)
            lifted = lift(system, scheme)
            task = feasible_task(rng, system, scheme, b, regime)
            plan = designer(lifted, task)
            oracle = oracle_stacked_ls(system, scheme, task)
            scale = max(plan.energy, oracle.energy, 1e-12)
            ok = ok and abs(plan.energy - oracle.energy) <= 1e-8 * scale
            ok = ok and np.abs(plan.flat_inputs - oracle.flat_inputs).max() <= 1e-7
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    _report(
        6,
        "design energy and inputs match the stacked-least-squares oracle on "
        "100 random feasible tasks per regime",
        ok and elapsed < 5.0,
        elapsed,
    )


def test_criterion_7_condition_soundness_sweeps():
    rng = np.random.default_rng(61)
    start = time.perf_counter()

    sufficient_ok = True
    accepted = 0
    while accepted < 200 and sufficient_ok:
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        system = random_real_simple_system(rng, n, m)
        if not pbh_controllable(system).controllable:
            continue  # extremely rare with random B; redraw to keep the count
        h = 2 + accepted % 3
        accepted += 1
        lifted = lift(system, build_scheme(h, m))
        Rb = reachability_matrix(lifted, n)
        G = Rb @ Rb.T
        verdict = check_nonrepetitive_sufficient(system, h)
        rank = floored_rank(G, np.linalg.norm(krylov(system.A, system.B, h), 2) ** 2)
        if verdict.controllable != "yes" or rank != n:
            sufficient_ok = False
            print(f"counterexample: n={n} m={m} h={h} rank={rank} verdict={verdict.controllable}")
            print("A =", repr(system.A))
            print("B =", repr(system.B))
            print("gramian singular values:", np.linalg.svd(G, compute_uv=False))

    necessary_ok = True
    for trial in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        system = random_unit_eigenvalue_system(rng, n, m)
        h = 2 + trial % 3
        scheme = build_scheme(h, m)
        lifted = lift(system, scheme)
        # unit left eigenvector of A at eigenvalue 1; it is also a left
        # eigenvector of A^h, and it must annihilate the lifted input map
        M = system.A.T - np.eye(n)
        _, _, vt = np.linalg.svd(M)
        phi = vt[-1]
        coupling = np.abs(phi @ lifted.Bbar).max()
        if coupling > 1e-9:
            necessary_ok = False
            print(f"counterexample: n={n} m={m} h={h} coupling={coupling:.3e}")
            break

    elapsed = time.perf_counter() - start
    _report(
        7,
        "200 random systems meeting the sufficient conditions have full "
        "Gramian rank; 200 systems with an eigenvalue at 1 have a left "
        "eigenvector annihilating the lifted input map",
        sufficient_ok and necessary_ok and elapsed < 10.0,
        elapsed,
    )


def test_criterion_8_sweep_reports_fallback_row(tmp_path):
    problem = load_problem(bundled_problem("rotation_2d"))
    rows = cmd_sweep_h(problem, 2, 5, tmp_path)
    by_h = {row["h"]: row for row in rows}
    ok = by_h[3]["conditions"] == "undetermined"
    ok = ok and by_h[3]["numeric_rank"] == 2
    ok = ok and by_h[3]["controllable"] == "yes"
    _report(
        8,
        "block-length sweep reports h = 3 as undetermined by the sufficient "
        "conditions yet numerically controllable",
        ok,
    )


def test_criterion_9_property_suite():
    rng = np.random.default_rng(62)
    ok = True

    # kernel-basis invariance of the designed blocks
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
        ok = ok and np.abs(plan_a.flat_inputs - plan_b.flat_inputs).max() <= 1e-9
    q_invariance_ok = ok

    # energy isometry of the kernel map
    ok = True
    for _ in range(100):
        h = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        scheme = build_scheme(h, m)
        w = rng.standard_normal(scheme.Q.shape[1])
        U = unpack(w, scheme)
        ok = ok and abs(np.linalg.norm(U) - np.linalg.norm(w)) <= 1e-12 * max(
            1.0, float(np.linalg.norm(w))
        )
    isometry_ok = ok

    # Gramian symmetry and positive semidefiniteness
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        system = random_system(rng, n, m)
        lifted = lift(system, build_scheme(int(rng.integers(2, 5)), m))
        Rb = reachability_matrix(lifted, int(rng.integers(1, 5)))
        G = Rb @ Rb.T
        ok = ok and np.abs(G - G.T).max() <= 1e-12 * max(1.0, np.abs(G).max())
        ok = ok and np.linalg.eigvalsh(G).min() >= -1e-10 * max(
            1.0, float(np.linalg.norm(G, 2))
        )
    gramian_ok = ok

    # block-boundary equivalence of lifted and per-step simulation
    ok = True
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
            scale = max(1.0, np.abs(x).max())
            ok = ok and np.abs(traj.states[(p + 1) * h] - x).max() <= 1e-10 * scale
    boundary_ok = ok

    _report(
        9,
        "kernel-basis invariance, energy isometry, Gramian symmetry and "
        "PSD, and block-boundary equivalence hold over 100 random "
        "instances each",
        q_invariance_ok and isometry_ok and gramian_ok and boundary_ok,
    )
