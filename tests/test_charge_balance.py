"""Kernel basis and block coordinate maps.

A charge-balanced block U packs into its latent coordinates as
w = scheme.Q.T @ U, the inverse of unpack on the kernel. No scheme holds
the block-sum matrix R = [I_m ... I_m]; _block_sums builds it from its
definition.
"""

import tracemalloc

import numpy as np
import pytest

from cbcontrol import (
    BlockScheme,
    DimensionError,
    PreconditionError,
    build_scheme,
    unpack,
)
from cbcontrol.charge_balance import _zero_sum_basis

ROOT2 = np.sqrt(2.0)
ROOT6 = np.sqrt(6.0)


def _block_sums(h, m):
    return np.tile(np.eye(m), (1, h))


def test_scheme_h2_single_channel_closed_form():
    scheme = build_scheme(2, 1)
    assert np.allclose(scheme.Q, np.array([[1.0], [-1.0]]) / ROOT2, atol=1e-15)
    assert np.array_equal(_block_sums(2, 1), np.ones((1, 2)))


def test_scheme_h2_three_channels_exact_identities():
    scheme = build_scheme(2, 3)
    assert np.abs(_block_sums(2, 3) @ scheme.Q).max() <= 1e-15
    assert np.abs(scheme.Q.T @ scheme.Q - np.eye(3)).max() <= 1e-15
    assert np.linalg.matrix_rank(scheme.Q) == 3


def test_scheme_h3_two_channels_matches_fixed_basis():
    # the deterministic construction lands on this particular basis
    expected_v = np.array(
        [
            [1 / ROOT2, 1 / ROOT6],
            [-1 / ROOT2, 1 / ROOT6],
            [0.0, -2 / ROOT6],
        ]
    )
    assert np.allclose(build_scheme(3, 1).Q, expected_v, atol=1e-15)
    scheme = build_scheme(3, 2)
    assert np.allclose(scheme.Q, np.kron(expected_v, np.eye(2)), atol=1e-15)
    assert np.abs(scheme.Q.sum(axis=0)).max() <= 1e-13


def _full_sweep_basis(h):
    # modified Gram-Schmidt projecting each difference vector onto every
    # earlier column: the bytes the one-projection construction must keep
    basis = np.zeros((h, h - 1))
    for i in range(h - 1):
        v = np.zeros(h)
        v[i] = 1.0
        v[i + 1] = -1.0
        for j in range(i):
            v -= (basis[:, j] @ v) * basis[:, j]
        basis[:, i] = v / np.linalg.norm(v)
    return basis


def test_zero_sum_basis_bytes_equal_the_full_sweep():
    # the kernel basis feeds every lifted matrix and so every emitted CSV
    for h in range(2, 201):
        assert _zero_sum_basis(h).tobytes() == _full_sweep_basis(h).tobytes(), h


@pytest.mark.parametrize("h", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_scheme_invariants(h, m):
    scheme = build_scheme(h, m)
    R = _block_sums(h, m)
    assert np.array_equal(R, np.kron(np.ones((1, h)), np.eye(m)))
    assert np.abs(scheme.Q.T @ scheme.Q - np.eye(m * (h - 1))).max() <= 1e-12
    assert np.abs(R @ scheme.Q).max() <= 1e-12
    assert np.linalg.matrix_rank(scheme.Q) == m * (h - 1)


def test_scheme_rejects_short_blocks():
    with pytest.raises(PreconditionError, match="block length must be an integer >= 2"):
        build_scheme(1, 2)
    with pytest.raises(PreconditionError, match="input dimension must be an integer >= 1"):
        build_scheme(3, 0)


def test_build_scheme_shares_one_locked_scheme_per_shape():
    scheme = build_scheme(3, 2)
    assert scheme is build_scheme(np.int64(3), np.int64(2))
    assert build_scheme(2, 1) is build_scheme(2, 1)
    assert build_scheme(2, 1) is not build_scheme(2, 2)
    # the shared basis cannot be made writeable again
    with pytest.raises(ValueError):
        scheme.Q.setflags(write=True)
    # 3.0 == 3 and True == 1 hash alike, so a cache keyed on the raw
    # arguments would answer them; they are refused on every call instead,
    # and a scheme built directly applies the same shape rule
    build_scheme(2, 1)
    for h, m in ((3.0, 2), (True, 2), (3, 2.0), (2, True), (np.float64(2), 1),
                 (1, 2), (0, 1), (-2, 1), (3, 0), (2, -1)):
        for _ in range(2):
            with pytest.raises(PreconditionError):
                build_scheme(h, m)
        with pytest.raises(PreconditionError):
            BlockScheme(h=h, m=m, Q=scheme.Q)


def test_scheme_rejects_bases_outside_the_kernel():
    # the kernel test reads block sums: turning one column slightly towards
    # a constant-charge block keeps Q orthonormal but puts net charge on
    # channel 1; a non-orthonormal Q is refused too
    scheme = build_scheme(3, 2)
    charged = np.tile([0.0, 1.0], 3) / np.sqrt(3.0)  # orthogonal to Ker(R)
    tilted = scheme.Q.copy()
    tilted[:, 0] = np.cos(1e-6) * tilted[:, 0] + np.sin(1e-6) * charged
    with pytest.raises(ValueError, match="null space"):
        BlockScheme(h=3, m=2, Q=tilted)
    with pytest.raises(ValueError, match="orthonormal"):
        BlockScheme(h=3, m=2, Q=2 * scheme.Q)
    # a NaN maximum compares False against any tolerance, so NaN is refused
    # here rather than surfacing later as a misleading overflow
    with pytest.raises(ValueError):
        BlockScheme(h=3, m=2, Q=np.full_like(scheme.Q, np.nan))
    one_nan = scheme.Q.copy()
    one_nan[2, 1] = np.nan
    with pytest.raises(ValueError):
        BlockScheme(h=3, m=2, Q=one_nan)


def test_scheme_check_holds_one_gram_array():
    # the orthonormality check works in the Gram array itself: beside the
    # locked copy of Q it forms no identity and no difference matrix
    Q = build_scheme(400, 1).Q.copy()
    tracemalloc.start()
    try:
        BlockScheme(h=400, m=1, Q=Q)
        ratio = tracemalloc.get_traced_memory()[1] / Q.nbytes
    finally:
        tracemalloc.stop()
    assert ratio <= 2.5, ratio


def test_pack_zero_block():
    scheme = build_scheme(3, 2)
    assert np.array_equal(scheme.Q.T @ unpack(np.zeros(4), scheme), np.zeros(4))


def test_pack_h2_forced_value():
    scheme = build_scheme(2, 1)
    w = scheme.Q.T @ np.array([3.0, -3.0])
    assert np.allclose(w, [3.0 * ROOT2], atol=1e-14)
    assert np.allclose(unpack(w, scheme), [3.0, -3.0], atol=1e-14)


def test_pack_round_trip_oracle():
    rng = np.random.default_rng(20)
    for _ in range(100):
        h = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        scheme = build_scheme(h, m)
        w0 = rng.standard_normal(scheme.Q.shape[1])
        U = unpack(w0, scheme)
        recovered = scheme.Q.T @ U
        assert np.abs(recovered - w0).max() <= 1e-12
        assert abs(np.linalg.norm(recovered) - np.linalg.norm(U)) <= 1e-12 * np.linalg.norm(U)
        restored = unpack(recovered, scheme)
        assert np.abs(restored - U).max() <= 1e-10


def test_unpack_zero():
    scheme = build_scheme(4, 1)
    assert np.array_equal(unpack(np.zeros(3), scheme), np.zeros(4))


def test_unpack_h2_two_channels_closed_form():
    scheme = build_scheme(2, 2)
    a, b = 0.7, -1.3
    expected = np.array([a, b, -a, -b]) / ROOT2
    assert np.allclose(unpack([a, b], scheme), expected, atol=1e-15)


def test_unpack_blocks_sum_to_zero():
    rng = np.random.default_rng(21)
    for _ in range(100):
        h = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        scheme = build_scheme(h, m)
        U = unpack(rng.standard_normal(scheme.Q.shape[1]), scheme)
        per_channel = U.reshape(h, m).sum(axis=0)
        assert np.abs(per_channel).max() <= 1e-13


def test_energy_isometry():
    rng = np.random.default_rng(22)
    for _ in range(100):
        h = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        scheme = build_scheme(h, m)
        w = rng.standard_normal(scheme.Q.shape[1])
        U = unpack(w, scheme)
        assert abs(np.linalg.norm(U) - np.linalg.norm(w)) <= 1e-12 * max(
            1.0, np.linalg.norm(w)
        )


def test_identical_stacked_blocks_annihilate():
    # vectors made of h identical channel blocks span the orthogonal
    # complement of the kernel basis
    rng = np.random.default_rng(23)
    for _ in range(100):
        h = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        scheme = build_scheme(h, m)
        alpha = rng.standard_normal(m)
        v = np.tile(alpha, h)
        assert np.abs(v @ scheme.Q).max() <= 1e-12 * max(1.0, np.abs(alpha).max())


def test_dimension_errors():
    scheme = build_scheme(3, 2)
    with pytest.raises(DimensionError):
        unpack(np.zeros(5), scheme)
    with pytest.raises(DimensionError, match="Q must be 6 x 4"):
        BlockScheme(h=3, m=2, Q=scheme.Q[:, :3])


def test_block_input_round_trip():
    scheme = build_scheme(3, 1)
    w = np.array([1.0, -0.5])
    U = unpack(w, scheme)
    assert np.allclose(U, scheme.Q @ w)
    again = scheme.Q.T @ U
    assert np.abs(again - w).max() <= 1e-12
