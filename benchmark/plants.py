"""Seeded plants whose controllability facts are known by construction.

A plant is A = V D V^-1 with D real block-diagonal (1x1 blocks for real
eigenvalues, 2x2 rotation-scaling blocks for conjugate pairs) and
B = V C, so C is the modal input matrix. With a simple spectrum, (A, B)
is controllable exactly when every mode's rows of C are non-zero, and
every eigenvalue fact used below (unit eigenvalue, simple spectrum of
A^h, roots of unity) is read off the chosen eigenvalues, never computed
by the code under test. Margins keep every label far from the package's
tolerances, so a label does not depend on rounding.

Only numpy is used here; this module never imports cbcontrol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A conditioning of 10 in the eigenvector basis: non-normal enough to be
# realistic, far from anything that blurs the constructed spectrum.
EIGVEC_COND = 10.0
# Relative separation certified between eigenvalue powers, between moduli
# and of conjugate ratios from roots of unity; the package decides at 1e-8
# or finer, and the constructed spectrum is exact to about 1e-14.
SEPARATION = 1e-6
UNIT_MARGIN = 0.02
MAX_ORDER = 64


@dataclass(frozen=True)
class Mode:
    """One real eigenvalue (angle 0 or pi) or one conjugate pair.

    ``turns`` is the angle as an exact fraction (p, q) of pi for planted
    modes, so root-of-unity facts are decided in integer arithmetic.
    """

    modulus: float
    angle: float
    turns: tuple | None = None

    @property
    def is_pair(self) -> bool:
        return 0.0 < self.angle < math.pi

    @property
    def dim(self) -> int:
        return 2 if self.is_pair else 1

    def eigenvalues(self) -> list:
        lam = self.modulus * complex(math.cos(self.angle), math.sin(self.angle))
        if self.is_pair:
            return [lam, lam.conjugate()]
        return [complex(self.modulus * math.cos(self.angle), 0.0)]


@dataclass(frozen=True, eq=False)
class Plant:
    """Generated (A, B) plus the facts certified by its construction."""

    A: np.ndarray
    B: np.ndarray
    modes: tuple
    controllable: bool
    unit_eigenvalue: bool
    h: int

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def hb_singular(self, h: int, b: int) -> bool:
        """True when some eigenvalue has lambda^(hb) = 1 and lambda^h != 1."""
        return any(
            _is_unit_root(mode, h * b) and not _is_unit_root(mode, h)
            for mode in self.modes
        )


def _is_unit_root(mode: Mode, k: int) -> bool:
    """Exact test of lambda^k = 1 for planted modes; random ones never are."""
    if mode.turns is None:
        return False
    p, q = mode.turns
    return mode.modulus == 1.0 and (k * p) % (2 * q) == 0


def ratio_order(mode: Mode) -> int | None:
    """Order of the conjugate ratio e^(2i angle) of a planted pair."""
    if mode.turns is None or not mode.is_pair:
        return None
    p, q = mode.turns
    return q // math.gcd(p, q)


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _modulus(rng, radius: float) -> float:
    """Uniform on [0.3 radius, radius], outside the band around 1."""
    while True:
        r = rng.uniform(0.3 * radius, radius)
        if abs(r - 1.0) >= UNIT_MARGIN:
            return r


_ORDERS = np.arange(1, MAX_ORDER + 1)


def _angle(rng) -> float:
    """Pair angle whose conjugate ratio is far from every root of unity."""
    while True:
        angle = rng.uniform(0.15, math.pi - 0.15)
        # |e^(2ik angle) - 1| = 2 |sin(k angle)|
        if 2.0 * np.abs(np.sin(_ORDERS * angle)).min() >= SEPARATION:
            return angle


def _random_modes(rng, dim: int, radius: float, complex_share: float) -> list:
    modes = []
    while dim > 0:
        if dim >= 2 and rng.random() < complex_share:
            modes.append(Mode(_modulus(rng, radius), _angle(rng)))
            dim -= 2
        else:
            modes.append(Mode(_modulus(rng, radius), math.pi * rng.integers(0, 2)))
            dim -= 1
    # pin the spectral radius: the first random mode sits exactly on it
    modes[0] = Mode(radius, modes[0].angle)
    return modes


def _certified(modes: list, h: int) -> bool:
    """Distinct moduli and a simple spectrum of A^h, both with margin.

    Distinct moduli rule out stray unit-modulus ratios between modes, so
    only the planted pairs and each pair's own conjugate ratio remain.
    """
    mods = np.sort(np.array([mode.modulus for mode in modes]))
    if np.any(np.diff(mods) <= SEPARATION * mods[1:]):
        return False
    powers = np.array([lam for mode in modes for lam in mode.eigenvalues()]) ** h
    scale = max(1.0, float(np.abs(powers).max()))
    gaps = np.abs(powers[:, None] - powers[None, :]) + np.eye(powers.size) * scale
    return bool(gaps.min() > SEPARATION * scale)


def power_simple(modes, h: int) -> bool | None:
    """Whether A^h has a simple spectrum: True or False when certain, else None.

    A planted pair at angle p*pi/q collides with its conjugate exactly when
    h*p/q is an integer; otherwise the margins of _certified decide.
    """
    for mode in modes:
        if mode.turns is not None and mode.is_pair and (h * mode.turns[0]) % mode.turns[1] == 0:
            return False
    return True if _certified(list(modes), h) else None


def _block_diagonal(modes: list) -> np.ndarray:
    n = sum(mode.dim for mode in modes)
    D = np.zeros((n, n))
    i = 0
    for mode in modes:
        if mode.is_pair:
            a = mode.modulus * math.cos(mode.angle)
            s = mode.modulus * math.sin(mode.angle)
            D[i : i + 2, i : i + 2] = [[a, -s], [s, a]]
        else:
            D[i, i] = mode.modulus * math.cos(mode.angle)
        i += mode.dim
    return D


def _mode_rows(modes: list) -> list:
    rows, i = [], 0
    for mode in modes:
        rows.append(slice(i, i + mode.dim))
        i += mode.dim
    return rows


def _balanced_channels(modes: list, m: int) -> list:
    """Channel of each mode: pairs first, each to the least-loaded channel."""
    load = [0] * m
    channel = [0] * len(modes)
    for k in sorted(range(len(modes)), key=lambda k: -modes[k].dim):
        channel[k] = load.index(min(load))
        load[channel[k]] += modes[k].dim
    return channel


def channel_load(modes: list, m: int) -> int:
    """States in the largest channel group of an ``inputs="channels"`` plant."""
    load = [0] * m
    for mode, channel in zip(modes, _balanced_channels(modes, m)):
        load[channel] += mode.dim
    return max(load)


def make_plant(
    rng,
    n: int,
    m: int,
    radius: float,
    *,
    complex_share: float = 0.5,
    planted: tuple = (),
    h: int | None = None,
    uncontrollable: bool = False,
    inputs: str = "dense",
    group_limit: int | None = None,
) -> Plant:
    """Plant with a certified spectrum and a known controllability label.

    ``planted`` modes are placed first and kept exactly. ``h`` is the
    block length whose simple spectrum of A^h is certified; by default
    lcm(ratio orders of planted pairs) + 1, or 2 without planted pairs.
    ``uncontrollable`` zeroes the modal input rows of one random real
    mode. ``inputs`` is "dense" (Gaussian C), "orthogonal" (square C with
    orthonormal columns, so rank(B) = n) or "channels" (each mode driven
    by exactly one channel, which certifies reachability in as few
    blocks as the largest channel group has states; ``group_limit`` caps
    that group).
    """
    orders = [o for o in (ratio_order(mode) for mode in planted) if o]
    if h is None:
        h = math.lcm(*orders) + 1 if orders else 2
    fixed_dim = sum(mode.dim for mode in planted)
    for _ in range(1000):
        modes = list(planted) + _random_modes(rng, n - fixed_dim, radius, complex_share)
        if uncontrollable and not any(not md.is_pair for md in modes[len(planted) :]):
            continue
        if group_limit is not None and channel_load(modes, m) > group_limit:
            continue
        if _certified(modes, h):
            break
    else:
        raise RuntimeError(f"could not certify a spectrum for n={n}, h={h}")

    rows = _mode_rows(modes)
    if inputs == "orthogonal":
        C = random_orthogonal(rng, n)[:, :m]
    elif inputs == "channels":
        C = np.zeros((n, m))
        for sl, channel in zip(rows, _balanced_channels(modes, m)):
            C[sl, channel] = rng.uniform(0.5, 1.5, size=sl.stop - sl.start) * rng.choice([-1.0, 1.0])
    else:
        C = rng.standard_normal((n, m))
        for sl in rows:
            norm = np.linalg.norm(C[sl])
            C[sl] *= max(1.0, 0.3 * math.sqrt(m) / max(norm, 1e-300))
    if uncontrollable:
        real = [k for k in range(len(planted), len(modes)) if not modes[k].is_pair]
        C[rows[real[rng.integers(len(real))]]] = 0.0

    q = random_orthogonal(rng, n)
    s = np.geomspace(1.0, EIGVEC_COND, n)
    V = (q * s) @ q.T
    V_inv = (q / s) @ q.T
    D = _block_diagonal(modes)
    A = V @ D @ V_inv
    B = V @ C
    unit = any(mode.angle == 0.0 and mode.modulus == 1.0 for mode in modes)
    return Plant(
        A=A,
        B=B,
        modes=tuple(modes),
        controllable=not uncontrollable,
        unit_eigenvalue=unit,
        h=h,
    )


def unit_vector(rng, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


UNIT_EIGENVALUE = Mode(1.0, 0.0, turns=(0, 1))


def rotation_pair(modulus: float, p: int, q: int) -> Mode:
    """Conjugate pair at angle p*pi/q; its ratio has order q/gcd(p, q)."""
    return Mode(modulus, math.pi * p / q, turns=(p, q))
