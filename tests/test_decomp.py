"""Extreme-weight spaces, submodule generation, and fusion counting."""

import numpy as np
import pytest

from qcartan import decomp, repn
from qcartan.numerics import (DEFAULT_TOL, AmbiguousRank, InvariantViolation,
                              ToleranceProfile, certified_rank)
from qcartan.qcore import Weight, simple_root, weyl_dim


def test_highest_weight_space_of_tensor_square_rank_one():
    V = repn.standard_module(2, 1.5)
    T = repn.tensor(V, V)
    report = decomp.highest_weight_space(T)
    assert report.total == 2
    assert report.multiplicities == {Weight((2,)): 1, Weight((0,)): 1}
    B = report.basis_matrix(T.dim)
    assert np.max(np.abs(T.E[1] @ B)) <= 1e-12
    assert np.max(np.abs(B.T @ B - np.eye(2))) <= 1e-12


def test_highest_weight_space_of_tensor_square_rank_two():
    V = repn.standard_module(3, 1.5)
    T = repn.tensor(V, V)
    report = decomp.highest_weight_space(T)
    assert report.multiplicities == {Weight((2, 0)): 1, Weight((0, 1)): 1}
    with pytest.raises(KeyError):
        report.vectors_of(Weight((5, 5)))


def test_lowest_weight_space_mirrors_highest():
    V = repn.standard_module(3, 1.5)
    T = repn.tensor(V, V)
    low = decomp.lowest_weight_space(T)
    # lowest weights of V_{2w1} and V_{w2} are the negated-reversed ones
    assert low.multiplicities == {Weight((0, -2)): 1, Weight((-1, 0)): 1}
    B = low.basis_matrix(T.dim)
    for i in (1, 2):
        assert np.max(np.abs(T.F[i] @ B)) <= 1e-12


def test_projectors_are_orthogonal_projections():
    V = repn.standard_module(2, 1.3)
    T = repn.tensor(V, V)
    for report in (decomp.highest_weight_space(T), decomp.lowest_weight_space(T)):
        Q = report.basis_matrix(T.dim)
        P = Q @ Q.T
        assert np.max(np.abs(P - P.T)) <= 1e-14
        assert np.max(np.abs(P @ P - P)) <= 1e-12
        assert abs(np.trace(P) - 2.0) <= 1e-12


def test_generate_submodule_extracts_top_component(intertwining_residual):
    q = 1.5
    V = repn.standard_module(2, q)
    T = repn.tensor(V, V)
    seed = np.zeros(4)
    seed[0] = 1.0
    sub, W = decomp.generate_submodule(T, seed)
    assert sub.dim == 3 == weyl_dim(Weight((2,)))
    assert sub.highest_weight == Weight((2,))
    assert sub.hw_index == 0
    assert repn.check_module(sub, DEFAULT_TOL)["max"] <= 1e-12
    # W is an isometric intertwiner T <- sub
    assert np.max(np.abs(W.T @ W - np.eye(3))) <= 1e-12
    assert intertwining_residual(sub, T, W) <= 1e-12
    # the seed maps to itself: phase-fixed highest weight column
    assert np.max(np.abs(W[:, 0] - seed)) <= 1e-14


def test_generate_submodule_rejects_bad_seeds():
    V = repn.standard_module(2, 1.5)
    T = repn.tensor(V, V)
    with pytest.raises(ValueError):
        decomp.generate_submodule(T, np.zeros(4))
    # not annihilated by E
    bad = np.zeros(4)
    bad[1] = 1.0
    with pytest.raises(ValueError):
        decomp.generate_submodule(T, bad)
    # E-killed but weight-mixed: top vector plus the singlet e01 - q e10
    q = 1.5
    singlet = np.array([0.0, 1.0, -q, 0.0])
    mixed = np.zeros(4)
    mixed[0] = 1.0
    mixed = mixed + singlet / np.linalg.norm(singlet)
    with pytest.raises(ValueError, match="homogeneous"):
        decomp.generate_submodule(T, mixed)


def test_cartan_component_of_distinct_factors(intertwining_residual):
    q = 1.5
    A = repn.standard_module(3, q)
    sub, W = decomp.cartan_component(A, A)
    assert sub.dim == weyl_dim(Weight((2, 0)))
    assert intertwining_residual(sub, repn.tensor(A, A), W) <= 1e-12
    P = W @ W.T
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert abs(np.trace(P) - sub.dim) <= 1e-10


def test_fusion_multiplicities_standard_squares():
    std2 = repn.standard_module(2, 1.5)
    assert decomp.fusion_multiplicities(std2, std2) == {
        Weight((2,)): 1, Weight((0,)): 1}
    std3 = repn.standard_module(3, 1.5)
    assert decomp.fusion_multiplicities(std3, std3) == {
        Weight((2, 0)): 1, Weight((0, 1)): 1}


def test_fusion_multiplicities_with_a_wall_weight(builders):
    # mu = 2*omega_1 in rank 2: the shift by wt(e_3) leaves the dominant cone
    b = builders(3, 1.5)
    V = b.module(Weight((2, 0)))
    std = repn.standard_module(3, 1.5)
    mults = decomp.fusion_multiplicities(std, V)
    assert mults == {Weight((3, 0)): 1, Weight((1, 1)): 1}
    assert std.dim * V.dim == sum(weyl_dim(w) * m for w, m in mults.items())


def test_extreme_space_completeness_guard_fires_on_corrupt_module():
    V = repn.standard_module(2, 1.5)
    # zero out F so that extra fake lowest-weight vectors appear
    bad = repn.QModule(2, 1.5, V.weights, {1: V.E[1]}, {1: np.zeros((2, 2))},
                       highest_weight=V.highest_weight, hw_index=0)
    with pytest.raises(InvariantViolation):
        decomp.lowest_weight_space(bad)


def _per_block_kernels(V, raising):
    """Reference: one np.ix_ gather and one SVD per weight block."""
    mats, sgn = (V.E, 1) if raising else (V.F, -1)
    blocks = V.weight_blocks()
    out = {}
    for wt, idx in blocks.items():
        parts = []
        for i in range(1, V.N):
            target = tuple(w + sgn * a for w, a in zip(wt, simple_root(i, V.N).coords))
            if target in blocks:
                parts.append(mats[i][np.ix_(blocks[target], idx)])
        A = np.vstack(parts) if parts else np.zeros((0, len(idx)))
        if A.shape[0] == 0 or not A.any():
            K = np.eye(len(idx))
        else:
            _, s, Vt = np.linalg.svd(A)
            K = Vt[certified_rank(s, s[0]):].T.copy()
        if K.shape[1]:
            cols = np.zeros((V.dim, K.shape[1]))
            cols[idx, :] = K
            out[Weight(wt)] = decomp._fix_signs(cols)
    return out


@pytest.mark.parametrize("coords, q, n", [((1,), 2.0, 9), ((1, 0), 1.5, 6),
                                          ((1, 1), 1.0, 3), ((1, 0, 0), 1.0, 4)])
def test_stacked_kernels_match_per_block_svds_bitwise(chains, coords, q, n):
    ch = chains(coords, q, n + 1)
    T = repn.tensor(ch.base, ch.levels[n])
    for raising, space in ((True, decomp.highest_weight_space),
                           (False, decomp.lowest_weight_space)):
        ref = _per_block_kernels(T, raising)
        report = space(T)
        assert [w for w, _ in report.components] == sorted(ref, key=lambda w: w.coords,
                                                           reverse=True)
        for w, cols in report.components:
            assert np.array_equal(cols, ref[w])


def test_ambiguous_rank_names_the_weight_block(builders):
    # in rho (x) rho the kernel blocks at weight (0, 0) drop a singular value
    # of rounding size; an unreachable gap ratio makes that cut ambiguous
    rho = builders(3, 1.5).module(Weight((1, 1)))
    T = repn.tensor(rho, rho)
    strict = ToleranceProfile(gap_ratio_min=1e300)
    for space, kind in ((decomp.highest_weight_space, "highest"),
                        (decomp.lowest_weight_space, "lowest")):
        with pytest.raises(AmbiguousRank,
                           match=rf"{kind} weight space, weight block Weight\(0, 0\): rank gap"):
            space(T, strict)
