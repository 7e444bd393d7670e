"""Shared system generators and reference values for the test suite."""

import csv
from fractions import Fraction

import numpy as np

from cbcontrol import LtiSystem, SteeringTask, simulate
from cbcontrol.tolerances import rank_cutoff

ROOT3 = np.sqrt(3.0)


def rotation_system() -> LtiSystem:
    """Single-input plane rotation by 120 degrees (complex cube-root spectrum)."""
    A = np.array([[-0.5, -ROOT3 / 2], [ROOT3 / 2, -0.5]])
    return LtiSystem(A=A, B=[[1.0], [0.0]])


def expander_system() -> LtiSystem:
    """Fully actuated triangular plant with eigenvalues 2 and 0.5."""
    return LtiSystem(A=[[2.0, 1.0], [0.0, 0.5]], B=np.eye(2))


def four_state_system() -> LtiSystem:
    """Four states, two inputs, rank(B) = 2, eigenvalues {2, 3, 4, 5}."""
    A = [
        [1.0, 2.0, -2.0, 1.0],
        [1.0, 2.0, 2.0, -1.0],
        [-1.0, 1.0, 3.0, 1.0],
        [-6.0, 6.0, -6.0, 8.0],
    ]
    B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]
    return LtiSystem(A=A, B=B)


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_system(rng, n: int, m: int, radius: float = 0.95) -> LtiSystem:
    """Random dense system scaled to the given spectral radius."""
    A = rng.standard_normal((n, n))
    rho = max(np.abs(np.linalg.eigvals(A)))
    if rho > 0:
        A = A * (radius / rho)
    B = rng.standard_normal((n, m))
    return LtiSystem(A=A, B=B)


def random_real_simple_system(rng, n: int, m: int) -> LtiSystem:
    """Distinct real eigenvalues with distinct magnitudes, none near +-1.

    Powers of such a spectrum stay simple for every exponent, so these
    systems satisfy the sufficient conditions once the PBH test passes.
    """
    while True:
        mags = np.sort(rng.uniform(0.3, 1.7, size=n))
        if np.min(np.diff(mags)) < 0.05:
            continue
        if np.any(np.abs(mags - 1.0) < 0.05):
            continue
        signs = rng.choice([-1.0, 1.0], size=n)
        eigs = signs * mags
        if np.any(np.abs(eigs - 1.0) < 0.05):
            continue
        break
    basis = random_orthogonal(rng, n)
    A = basis @ np.diag(eigs) @ basis.T
    B = rng.standard_normal((n, m))
    return LtiSystem(A=A, B=B)


def random_unit_eigenvalue_system(rng, n: int, m: int) -> LtiSystem:
    """A system whose spectrum contains 1 (orthogonal similarity of a diagonal)."""
    eigs = rng.uniform(-1.8, 1.8, size=n)
    eigs[0] = 1.0
    basis = random_orthogonal(rng, n)
    A = basis @ np.diag(eigs) @ basis.T
    B = rng.standard_normal((n, m))
    return LtiSystem(A=A, B=B)


def feasible_task(rng, system: LtiSystem, scheme, b: int, regime: str, scale: float = 0.5):
    """A steering task whose target is exactly the simulated terminal state."""
    x0 = rng.standard_normal(system.n)
    if regime == "repetitive":
        w = scale * rng.standard_normal(scheme.Q.shape[1])
        latents = [w] * b
    else:
        latents = [scale * rng.standard_normal(scheme.Q.shape[1]) for _ in range(b)]
    flat = np.vstack([(scheme.Q @ w).reshape(scheme.h, scheme.m) for w in latents])
    traj = simulate(system, x0, flat)
    return SteeringTask(x0=x0, xf=traj.terminal, b=b, regime=regime)


def read_csv(path):
    """Read a CSV the package wrote: (header, rows), numeric cells as floats.

    Non-numeric cells are returned as strings, so status columns survive.
    """
    with open(path, newline="") as fh:
        header, *raw = csv.reader(fh)
    rows = []
    for cells in raw:
        row = []
        for cell in cells:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return header, rows


def floored_rank(matrix, floor: float) -> int:
    """Numeric rank with the cutoff at rank_cutoff(shape) * max(sigma_max, floor).

    The absolute floor suits a matrix assembled from factors of norm up to
    sqrt(floor) (a Gramian) or floor (a product): its rounding noise sits at
    the factors' scale even where the product itself is small.
    """
    svals = np.linalg.svd(np.atleast_2d(matrix), compute_uv=False)
    return int(np.count_nonzero(svals > rank_cutoff(np.shape(matrix)) * max(svals[0], floor)))


def counting_svd(monkeypatch):
    """Patch np.linalg.svd to record (shape, complex, with U) of every call."""
    calls = []
    original = np.linalg.svd

    def counting(matrix, *args, **kwargs):
        calls.append((np.shape(matrix), np.iscomplexobj(matrix), kwargs.get("compute_uv", True)))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def exact_mul(X, Y):
    """Product of two matrices given as lists of rows, exact over Fractions."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def _exact_sum(X, Y, scale=1):
    return [[x + scale * y for x, y in zip(r, q)] for r, q in zip(X, Y)]


def exact_min_energy(system: LtiSystem, h: int, task: SteeringTask):
    """The minimum energy of task at block length h as a Fraction, or None when unreachable.

    Exact over the rationals, which hold every double. The zero-sum
    projector P = (I_h - 11^T / h) kron I_m gives Bbar Bbar^T = S P S^T
    = S S^T - T T^T / h, with S = [A^(h-1) B, ..., B] and T the sum of its
    blocks, so no square root is needed. With d = xf - A^(bh) x0 the energy
    is d^T y, G y = d, for G = sum_(k<b) A^(hk) S P S^T (A^(hk))^T with
    distinct blocks, and b d^T y for G = H_b S P S^T H_b^T,
    H_b = sum_(k<b) A^(hk), with identical ones. Gauss-Jordan solves
    G y = d with free variables at 0; an inconsistent G y = d gives None.
    """
    A, B = ([[Fraction(x) for x in row] for row in M.tolist()] for M in (system.A, system.B))
    n = system.n
    eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    blocks = [B]  # B, A B, ..., A^(h-1) B: S S^T and T do not depend on their order
    for _ in range(h - 1):
        blocks.append(exact_mul(A, blocks[-1]))
    S = [sum((block[i] for block in blocks), []) for i in range(n)]
    T = [[sum(col) for col in zip(*rows)] for rows in zip(*blocks)]
    core = _exact_sum(exact_mul(S, list(zip(*S))), exact_mul(T, list(zip(*T))), Fraction(-1, h))
    Ah = eye
    for _ in range(h):
        Ah = exact_mul(Ah, A)
    power, H, G = eye, eye, core
    for _ in range(task.b - 1):  # G = core + A^h G (A^h)^T, b - 1 times
        power = exact_mul(power, Ah)
        H = _exact_sum(H, power)
        G = _exact_sum(core, exact_mul(exact_mul(Ah, G), list(zip(*Ah))))
    if task.regime == "repetitive":
        G = exact_mul(exact_mul(H, core), list(zip(*H)))
    free = exact_mul(exact_mul(power, Ah), [[Fraction(x)] for x in task.x0.tolist()])
    d = [Fraction(x) - y for x, (y,) in zip(task.xf.tolist(), free)]
    rows, pivots = [g + [x] for g, x in zip(G, d)], []
    for col in range(n):
        pivot = next((i for i in range(len(pivots), n) if rows[i][col]), None)
        if pivot is None:
            continue
        top = rows[pivot]
        rows[pivot], rows[len(pivots)] = rows[len(pivots)], [x / top[col] for x in top]
        top = rows[len(pivots)]
        rows = [row if row is top else _exact_sum([row], [top], -row[col])[0] for row in rows]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    energy = sum(d[col] * row[-1] for col, row in zip(pivots, rows))
    return task.b * energy if task.regime == "repetitive" else energy
