"""Plant construction and forward simulation."""

import dataclasses

import numpy as np
import pytest

from cbcontrol import (
    AnalysisError, DimensionError, LtiSystem, Trajectory, build_scheme,
    check_nonrepetitive_sufficient, lift, simulate,
)
from cbcontrol.analysis import _modal_screen

from helpers import rotation_system


def test_zero_input_rollout_matches_matrix_powers():
    rng = np.random.default_rng(10)
    system = LtiSystem(A=rng.standard_normal((3, 3)) * 0.4, B=rng.standard_normal((3, 2)))
    x0 = rng.standard_normal(3)
    traj = simulate(system, x0, np.zeros((6, 2)))
    for k in range(7):
        expected = np.linalg.matrix_power(system.A, k) @ x0
        assert np.allclose(traj.states[k], expected, rtol=1e-12, atol=1e-14)


def test_simulate_matches_scalar_loop_oracle():
    # independent re-evaluation with pure Python floats, no array products
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    system = LtiSystem(A=A, B=B)
    x0 = rng.standard_normal(3)
    inputs = rng.standard_normal((6, 2))

    traj = simulate(system, x0, inputs)

    state = [float(v) for v in x0]
    for k in range(6):
        nxt = []
        for i in range(3):
            acc = 0.0
            for j in range(3):
                acc += float(A[i, j]) * state[j]
            for j in range(2):
                acc += float(B[i, j]) * float(inputs[k, j])
            nxt.append(acc)
        state = nxt
        scale = max(1.0, max(abs(v) for v in state))
        assert np.abs(traj.states[k + 1] - np.array(state)).max() <= 1e-12 * scale


def test_simulate_composition_property():
    rng = np.random.default_rng(12)
    system = LtiSystem(A=rng.standard_normal((3, 3)) * 0.5, B=rng.standard_normal((3, 1)))
    x0 = rng.standard_normal(3)
    inputs = rng.standard_normal((8, 1))

    whole = simulate(system, x0, inputs)
    first = simulate(system, x0, inputs[:5])
    second = simulate(system, first.terminal, inputs[5:])

    stitched = np.vstack([first.states, second.states[1:]])
    assert np.array_equal(whole.states, stitched)


def test_simulate_step_identity():
    rng = np.random.default_rng(13)
    system = LtiSystem(A=rng.standard_normal((4, 4)), B=rng.standard_normal((4, 2)))
    x0 = rng.standard_normal(4)
    inputs = rng.standard_normal((5, 2))
    traj = simulate(system, x0, inputs)
    for k in range(5):
        gap = traj.states[k + 1] - system.A @ traj.states[k] - system.B @ inputs[k]
        scale = max(1.0, np.abs(traj.states[k + 1]).max())
        assert np.abs(gap).max() <= 2e-15 * scale


def test_simulate_matches_step_loop():
    # every step is exactly A @ x + B @ u, whatever container or memory
    # layout holds the (N, m) inputs
    rng = np.random.default_rng(14)
    # the larger shapes block the BLAS products differently from n <= 8;
    # n = 1 with m > 1 is a dot product, whose rounding follows the stride;
    # 511 to 1025 steps: long rollouts of odd and power-of-two lengths
    shapes = (
        (1, 1, 5), (2, 1, 40), (3, 2, 17), (5, 3, 64), (8, 8, 300), (1, 7, 33),
        (20, 20, 200), (50, 5, 400), (200, 5, 100), (200, 200, 40),
        (4, 2, 511), (4, 2, 512), (3, 1, 513), (6, 3, 1024), (2, 2, 1025), (7, 4, 1),
    )
    for n, m, steps in shapes:
        # spectral radius about 0.6, so both products count in every state
        A = rng.standard_normal((n, n)) * 0.6 / np.sqrt(n)
        system = LtiSystem(A=A, B=rng.standard_normal((n, m)))
        x0 = rng.standard_normal(n)
        inputs = rng.standard_normal((steps, m))
        want = [x0]
        for u in inputs:
            want.append(system.A @ want[-1] + system.B @ u)
        forms = {
            "array": inputs,
            "list": [list(u) for u in inputs],
            "list of arrays": [u.copy() for u in inputs],
            "fortran order": np.asfortranarray(inputs),
            "strided": np.repeat(inputs, 2, axis=0)[::2],
        }
        for name, form in forms.items():
            traj = simulate(system, x0, form)
            assert traj.states.tobytes() == np.array(want).tobytes(), name
    empty = simulate(system, x0, np.zeros((0, 4)))
    assert empty.states.tolist() == [list(x0)] and empty.horizon == 0


def test_simulate_dimension_errors():
    system = rotation_system()
    with pytest.raises(DimensionError, match="x0"):
        simulate(system, [1.0, 2.0, 3.0], np.zeros((0, 1)))
    # one form, (N, m): a scalar, a 1-D sequence, a stack of column
    # vectors and the wrong m are each refused, naming their shape
    for inputs, shape in ((5.0, r"\(\)"), ([0.0, 1.0, 0.0], r"\(3,\)"), ([], r"\(0,\)"),
                          (np.zeros((4, 1, 1)), r"\(4, 1, 1\)"),
                          (np.zeros((4, 2)), r"\(4, 2\)")):
        with pytest.raises(DimensionError, match=rf"inputs must have shape \(N, 1\), got {shape}$"):
            simulate(system, [0.0, 0.0], inputs)
    with pytest.raises(DimensionError, match=r"shape \(N, 2\), got \(3, 1\)"):
        simulate(LtiSystem(np.eye(2), np.eye(2)), [0.0, 0.0], np.zeros((3, 1)))


def test_simulate_takes_rows_of_numbers_only():
    # one input form, an array-like of N rows of m numbers: numpy refuses an
    # iterator, and rows of unequal length
    system = rotation_system()
    rows = [np.zeros(1), np.zeros(1)]
    with pytest.raises(TypeError):
        simulate(system, [0.0, 0.0], (u for u in rows))
    with pytest.raises(TypeError):
        simulate(system, [0.0, 0.0], iter(rows))
    with pytest.raises(ValueError) as ragged:
        simulate(system, [0.0, 0.0], [np.zeros(1), np.zeros(1), np.zeros(2)])
    assert ragged.type is ValueError  # numpy's own error: ragged rows have no shape
    # every row has one entry, so the conversion's own error stands
    with pytest.raises(ValueError, match="could not convert") as caught:
        simulate(system, [0.0, 0.0], [["a"], ["b"]])
    assert caught.type is ValueError


def test_trajectory_is_its_states():
    # a rollout keeps a locked copy of its states and nothing else: the
    # caller's array stays writeable, and the horizon is rows - 1
    states = np.arange(6.0).reshape(3, 2)
    traj = Trajectory(states=states)
    states[0, 0] = 9.0
    assert traj.states.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert traj.horizon == 2 and traj.terminal.tolist() == [4.0, 5.0]
    assert [f.name for f in dataclasses.fields(Trajectory)] == ["states"]


def test_locked_arrays_cannot_be_made_writeable():
    # numpy lets an owning array be made writeable again; every array these
    # classes hold is a view of a read-only base, so the cached spectrum and
    # a shared trajectory cannot go stale
    A = np.array([[0.5, 1.0], [0.0, -0.3]])
    system = LtiSystem(A=A, B=[[1.0], [1.0]])
    A[1, 1] = 0.1  # the caller's array is copied
    assert system.A[1, 1] == -0.3
    traj = simulate(system, [1.0, 0.0], np.zeros((3, 1)))
    lifted = lift(system, build_scheme(3, 1))
    # the modal basis (lambda, V, W), the screen, and the singular values a
    # verdict reports: the modal values, or a PBH pencil's where PBH fails
    reported = [check_nonrepetitive_sufficient(plant, 2).singular_values
                for plant in (system, LtiSystem(A=np.eye(2), B=[[1.0], [1.0]]))]
    arrays = [system.A, system.B, system.eigenvalues, *system._modal, *_modal_screen(system),
              *reported, traj.states, lifted.Abar, lifted.Bbar]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert sorted(system.eigenvalues) == [-0.3, 0.5]


def test_system_validation():
    with pytest.raises(DimensionError):
        LtiSystem(A=np.zeros((2, 3)), B=np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        LtiSystem(A=np.eye(2), B=np.zeros((3, 1)))
    with pytest.raises(DimensionError, match="at least one column"):
        LtiSystem(A=np.eye(2), B=np.zeros((2, 0)))
    # as in problem files, B is n x m: a 1-D B is not read as a column
    with pytest.raises(DimensionError, match=r"B must have 2 rows, got shape \(2,\)"):
        LtiSystem(A=np.eye(2), B=[1.0, 0.0])
    with pytest.raises(ValueError):
        LtiSystem(A=[[np.nan, 0.0], [0.0, 1.0]], B=[[1.0], [0.0]])


def test_eigensolver_failure_raises_analysis_error(monkeypatch):
    def diverge(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", diverge)
    system = LtiSystem(A=[[2.0, 1.0], [0.0, 0.5]], B=np.eye(2))
    with pytest.raises(AnalysisError, match=r"failed to converge \(condition estimate \d"):
        system.eigenvalues


def lifted_power(system, h):
    """A^h as the lifted block matrix Abar."""
    return lift(system, build_scheme(h, system.m)).Abar


def test_power_identity():
    system = LtiSystem(A=np.eye(3), B=np.zeros((3, 1)))
    assert np.array_equal(lifted_power(system, 7), np.eye(3))


def test_power_rotation_cube_is_identity():
    # eigenvalues are the complex cube roots of unity, so the cube is I
    system = rotation_system()
    assert np.abs(lifted_power(system, 3) - np.eye(2)).max() <= 1e-12


def test_power_matches_naive_product_oracle():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((4, 4))
    system = LtiSystem(A=A, B=np.zeros((4, 1)))
    naive = ((A @ A) @ A) @ A
    got = lifted_power(system, 4)
    assert np.abs(got - naive).max() <= 1e-12 * max(1.0, np.abs(naive).max())



def _step_loop_states(system, x0, inputs):
    states = [np.asarray(x0, dtype=float)]
    for u in inputs:
        states.append(system.A @ states[-1] + system.B @ u)
    return np.array(states)


def test_periodic_inputs_reuse_one_period_of_products(monkeypatch):
    # rows that repeat bit for bit with period p take B @ u for one period,
    # and the states stay bit for bit the A @ x + B @ u step loop
    import cbcontrol.system as system_module
    from cbcontrol import SteeringTask, design_repetitive

    rng = np.random.default_rng(15)
    n = m = 40
    A = rng.standard_normal((n, n)) * 0.6 / np.sqrt(n)
    system = LtiSystem(A=A, B=rng.standard_normal((n, m)))
    x0 = rng.standard_normal(n)
    scheme = build_scheme(2, m)
    task = SteeringTask(x0=x0, xf=rng.standard_normal(n), b=50, regime="repetitive")
    plan = design_repetitive(lift(system, scheme), task).flat_inputs
    least_work = system_module._PERIOD_MIN_WORK
    assert len(plan) * n * m >= least_work  # the plan is checked as it is
    block = rng.standard_normal((3, m))
    signed = np.zeros((8, m))
    signed[1::2, 5] = -0.0  # equal values, other bits
    almost = np.tile(block, (6, 1))
    almost[-1, 0] += 1.0
    cases = {
        "identical-block plan": (plan, 2),
        "-0.0 against 0.0": (signed, 2),
        "periodic but the last row": (almost, len(almost)),
        "N not a multiple of p": (np.tile(block, (8, 1))[:23], 3),
        "all rows equal": (np.tile(block[:1], (9, 1)), 1),
        "no repeat": (rng.standard_normal((12, m)), 12),
    }
    for name, (inputs, period) in cases.items():
        assert system_module._period(np.ascontiguousarray(inputs)) == period, name
        want = _step_loop_states(system, x0, inputs)
        for work in (least_work, 1):  # as set, and for every input
            monkeypatch.setattr(system_module, "_PERIOD_MIN_WORK", work)
            traj = simulate(system, x0, inputs)
            assert traj.states.tobytes() == want.tobytes(), name
