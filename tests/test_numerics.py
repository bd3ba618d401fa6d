"""Rank-revealing primitives: certified rank and stacked nullspaces."""

import numpy as np
import pytest

from qcartan.numerics import (
    DEFAULT_TOL,
    AmbiguousRank,
    ToleranceProfile,
    certified_rank,
    nullspace,
    operator_norm,
)


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(nullspace_rel_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceProfile(gap_ratio_min=0.5)
    with pytest.raises(ValueError):
        ToleranceProfile(identity_tol=-1.0)
    prof = ToleranceProfile(nullspace_rel_tol=1e-8)
    assert prof.nullspace_rel_tol == 1e-8


def test_operator_norm_known_values():
    assert operator_norm(np.diag([3.0, -4.0])) == 4.0
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert operator_norm(np.zeros((0, 5))) == 0.0
    # norm of a rank-one outer product is the product of the vector norms
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    assert abs(operator_norm(np.outer(u, v)) - 15.0) <= 1e-12


def test_nullspace_exact_kernel():
    A = np.array([[1.0, 1.0, 0.0]])
    (K,) = nullspace(A[None])
    assert K.shape == (3, 2)
    assert np.max(np.abs(A @ K)) <= 1e-12
    assert np.max(np.abs(K.T @ K - np.eye(2))) <= 1e-12
    with pytest.raises(ValueError, match="stack"):
        nullspace(A)


def test_nullspace_full_rank_and_zero_matrix():
    full, zero = nullspace(np.stack([np.eye(3), np.zeros((3, 3))]))
    assert full.shape == (3, 0)
    assert np.array_equal(zero, np.eye(3))
    assert [K.shape for K in nullspace(np.zeros((2, 0, 4)))] == [(4, 4)] * 2


def test_nullspace_certified_gap():
    # kept/dropped singular values straddle the cut with a wide ratio: fine
    A = np.diag([1.0, 2e-10, 1e-13])
    assert nullspace(A[None])[0].shape == (3, 2)


def test_nullspace_ambiguous_band_raises():
    # 2e-9 (kept) vs 5e-10 (dropped) is only a factor 4 across the cut
    A = np.diag([1.0, 2e-9, 5e-10])
    with pytest.raises(AmbiguousRank):
        nullspace(A[None])


def test_nullspace_ranks_each_matrix_against_its_own_scale():
    # 1e-3 counts against its own sigma_max; against the 1e9 of the other
    # matrix in the stack it would fall below the cut
    stack = np.stack([np.diag([1e9, 10.0, 0.0]), np.diag([1e-3, 0.0, 0.0])])
    big, small = nullspace(stack)
    assert big.shape == (3, 1) and small.shape == (3, 2)
    # the failing matrix is named by its position in the stack
    stack[1] = np.diag([1.0, 2e-9, 5e-10])
    with pytest.raises(AmbiguousRank) as info:
        nullspace(stack)
    assert info.value.index == 1


def test_certified_rank_pure_noise_block_has_rank_zero():
    # rounding noise against an O(1) local scale: nothing kept, gap certified
    s = np.array([3e-16, 1e-16])
    assert certified_rank(s, 1.0) == 0
    assert certified_rank(np.zeros(2), 0.0) == 0


def test_certified_rank_narrow_gap_raises():
    # 2e-9 (kept) vs 5e-10 (dropped) is only a factor 4 across the cut
    with pytest.raises(AmbiguousRank):
        certified_rank(np.array([1.0, 2e-9, 5e-10]), 1.0)
    assert certified_rank(np.array([1.0, 2e-10, 1e-13]), 1.0) == 1
    # with nothing kept, the scale itself is the smallest kept value
    strict = ToleranceProfile(gap_ratio_min=1e300)
    with pytest.raises(AmbiguousRank):
        certified_rank(np.array([1e-16]), 1.0, strict)
    assert certified_rank(np.zeros(1), 1.0, strict) == 0


def test_certified_rank_uses_the_local_scale():
    # In the N=2, q=2, M=21 tensor module a genuine candidate of norm 0.8165
    # lies within (1e-9, 1e-6) times the global ||F_1||_F = 1.05e6; only the
    # local F-block norm separates it cleanly from rounding noise.
    s = np.array([0.8165, 1e-16])
    assert certified_rank(s, 1.4142) == 1  # against its local F-block norm
    # a global scale large enough would drop it silently
    assert certified_rank(s, 1e12) == 0


def test_default_tolerances():
    assert DEFAULT_TOL.nullspace_rel_tol == 1e-9
    assert DEFAULT_TOL.gap_ratio_min == 1e3
    assert DEFAULT_TOL.identity_tol == 1e-9
