"""Chains of Cartan components, pair isometries, Fock blocks, transfer."""

import numpy as np
import pytest

from qcartan import asympt, braiding, repn, sps
from qcartan.numerics import DEFAULT_TOL, operator_norm
from qcartan.qcore import Weight, weyl_dim


def test_chain_levels_and_dimensions(chains):
    ch = chains((1,), 1.5, 10)
    assert ch.M == 10 and ch.N == 2
    assert ch.dims == [n + 1 for n in range(11)]
    assert ch.levels[0].dim == 1  # vacuum level
    assert ch.levels[1] is ch.base
    for n, lv in enumerate(ch.levels):
        assert lv.dim == weyl_dim(Weight((n,)))
        assert lv.hw_index == 0
    assert "CartanChain" in repr(ch)
    # every public level and isometry of a deep chain is float64
    deep = chains((1,), 1.5, 22)
    for lv in deep.levels:
        assert all(m.dtype == np.float64 for m in (*lv.E.values(), *lv.F.values()))
    assert all(w.dtype == np.float64 for w in deep.w)


def test_chain_isometries_intertwine_and_fix_phases(chains):
    ch = chains((1,), 1.5, 10)
    for n in range(1, ch.M):
        W = ch.w[n]
        assert np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) <= 1e-12
        # phase law: the top vector maps to the product of top vectors, exactly
        col = W[:, 0]
        assert col[0] == 1.0
        assert np.count_nonzero(col) == 1
        T = repn.tensor(ch.base, ch.levels[n])
        res = repn.ModuleMap(ch.levels[n + 1], T, W).residual()
        assert res <= 1e-9


def test_chain_lowest_vectors_transport_exactly(chains):
    ch = chains((1,), 1.5, 10)
    for n in range(1, ch.M):
        img = ch.w[n] @ ch.lowest_vector(n + 1)
        ref = np.kron(np.array([0.0, 1.0]), ch.lowest_vector(n))
        assert abs(abs(float(img @ ref)) - 1.0) <= 1e-12


def test_chain_input_validation():
    with pytest.raises(ValueError):
        sps.CartanChain(Weight((0,)), 1.5, 4)
    with pytest.raises(ValueError):
        sps.CartanChain(Weight((1, -1)), 1.5, 4)
    with pytest.raises(ValueError):
        sps.CartanChain(Weight((1,)), 1.5, 0)


def test_pair_isometries(chains):
    ch = chains((1,), 1.5, 10)
    assert np.array_equal(ch.pair_isometry(0, 4), np.eye(5))
    assert np.array_equal(ch.pair_isometry(4, 0), np.eye(5))
    assert ch.pair_isometry(1, 6) is ch.w[6]
    W = ch.pair_isometry(4, 3)
    assert W.shape == (5 * 4, 8)
    assert np.max(np.abs(W.T @ W - np.eye(8))) <= 1e-12
    assert ch.pair_isometry(4, 3) is W  # cached
    assert np.array_equal(ch.right_isometry(5), ch.pair_isometry(5, 1))
    with pytest.raises(ValueError):
        ch.pair_isometry(6, 5)


def test_coassociativity(chains):
    ch = chains((1,), 1.5, 10)
    assert ch.coassociativity_residual(2, 3, 4) <= 1e-12
    assert ch.coassociativity_residual(0, 3, 4) == 0.0
    assert ch.certify_coassociativity(8) <= 1e-12


def test_from_parts_round_trip(chains):
    ch = chains((1,), 1.5, 6)
    re = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol,
                                    list(ch.levels), list(ch.w))
    assert re.dims == ch.dims
    assert np.array_equal(re.w[3], ch.w[3])
    assert re.coassociativity_residual(2, 2, 2) <= 1e-12
    with pytest.raises(ValueError):
        sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol,
                                   list(ch.levels)[:-1], list(ch.w))


def test_general_weight_builder(builders):
    b = builders(3, 1.5)
    std = b.fundamental(1)
    assert std.dim == 3
    assert b.fundamental(2).dim == 3
    assert b.module(Weight((0, 0))).dim == 1
    vrho = b.module(Weight((1, 1)))
    assert vrho.dim == 8
    assert vrho.hw_index == 0
    assert b.module(Weight((1, 1))) is vrho  # cached
    assert repn.check_module(vrho, DEFAULT_TOL)["passed"]
    with pytest.raises(ValueError):
        b.module(Weight((1, -1)))
    with pytest.raises(ValueError):
        b.fundamental(3)


def test_fock_space_layout(chains):
    ch = chains((1,), 1.5, 6)
    fock = sps.FockSpace(ch)
    assert fock.M == 6
    assert fock.dims == [1, 2, 3, 4, 5, 6, 7]
    assert fock.dim == 28
    assert fock.level_slice(2) == slice(3, 6)
    trunc = sps.FockSpace(ch, 4)
    assert trunc.M == 4 and trunc.dim == 15
    assert sps.FockSpace(ch, 99).M == 6  # clamped to the chain depth


def test_block_op_algebra(chains):
    ch = chains((1,), 1.5, 6)
    fock = sps.FockSpace(ch)
    S = sps.creation(ch, np.array([0.6, 0.8]), fock=fock)
    assert S.shift == 1
    A = sps.annihilation(ch, np.array([0.6, 0.8]), fock=fock)
    assert A.shift == -1
    assert np.array_equal(A.block(3), S.block(2).T)
    X = S @ A
    assert X.shift == 0
    assert np.array_equal(X.block(3), S.block(2) @ S.block(2).T)
    ident = sps.BlockOp.identity(fock)
    Y = X + ident
    assert np.array_equal(Y.block(3), X.block(3) + np.eye(4))
    Z = 2.0 * X
    assert np.array_equal(Z.block(3), 2.0 * X.block(3))
    with pytest.raises(ValueError):
        S + A
    # dense embedding places blocks on the shifted diagonal
    D = S.to_dense()
    assert np.array_equal(D[fock.level_slice(3), fock.level_slice(2)], S.block(2))
    assert S.level_norm(2) == operator_norm(S.block(2))
    P = sps.level_projector(fock, 2)
    assert np.array_equal(P.block(2), np.eye(3))


def test_creation_phase_and_resolution_of_identity(chains):
    ch = chains((1,), 1.5, 8)
    fock = sps.FockSpace(ch)
    basis = np.eye(2)
    S = [sps.creation(ch, basis[i], fock=fock) for i in range(2)]
    # top-to-top matrix element is exactly xi[0]
    for n in range(fock.M):
        assert S[0].block(n)[0, 0] == 1.0
        assert S[1].block(n)[0, 0] == 0.0
    # sum_i S_i S_i^* is the identity minus the vacuum projector
    acc = S[0] @ S[0].adjoint() + S[1] @ S[1].adjoint()
    assert np.max(np.abs(acc.block(0))) == 0.0
    for n in range(1, fock.M + 1):
        assert np.max(np.abs(acc.block(n) - np.eye(fock.dims[n]))) <= 1e-12


def test_transfer_operator_preserves_identity_and_matches_psi(chains):
    ch = chains((1,), 1.5, 8)
    fock = sps.FockSpace(ch)
    X = sps.BlockOp(fock, 0, {2: np.eye(3)})
    Y = sps.theta(ch, X)
    assert set(Y.blocks) == {3}
    assert np.max(np.abs(Y.block(3) - np.eye(4))) <= 1e-12
    assert np.max(np.abs(sps.psi(ch, 2, 3, np.eye(3)) - np.eye(6))) <= 1e-12
    # theta twice equals the two-step compression on a non-trivial block
    A = np.arange(9.0).reshape(3, 3)
    X = sps.BlockOp(fock, 0, {2: A})
    Y = sps.theta(ch, sps.theta(ch, X))
    assert operator_norm(Y.block(4) - sps.psi(ch, 2, 2, A)) <= 1e-12
    with pytest.raises(ValueError):
        sps.theta(ch, sps.creation(ch, np.array([1.0, 0.0]), fock=fock))


def test_braided_shift_commutation_identity(chains):
    ch = chains((1,), 1.5, 8)
    sigma = braiding.braid_sigma(ch.base, ch.base).matrix
    for n in range(0, ch.M - 1):
        assert sps.eq_comm_residual(ch, sigma, n) <= 1e-12
    # a wrong braiding scale is detected
    assert sps.eq_comm_residual(ch, 1.01 * sigma, 2) > 1e-4


# Depths at which the former per-vector orbit loop raised a false
# AmbiguousRank: its noise guard used the global ||F_i||_F of the tensor
# module (cause a) and its Gram-Schmidt remainders on multiplicity > 1
# weights landed inside the ambiguous band (cause b).
DEEP_CHAINS = [((1,), 2.0, 30), ((1,), 3.0, 30), ((1,), 0.5, 45),
               ((1, 0), 2.0, 22), ((1, 1), 1.5, 7)]


@pytest.mark.parametrize("coords,q,M", DEEP_CHAINS,
                         ids=[f"{c}-q{q:g}-M{M}" for c, q, M in DEEP_CHAINS])
def test_deep_chains_build_and_pass_relations(chains, coords, q, M):
    ch = chains(coords, q, M)
    for n, lv in enumerate(ch.levels):
        assert lv.dim == weyl_dim(Weight(coords) * n)
        assert repn.check_module(lv)["max"] <= 1e-9
    if len(coords) == 1:  # N=2: cheap enough for coassociativity
        assert ch.certify_coassociativity(max_total=12) <= 1e-12
        k = M // 3
        assert ch.coassociativity_residual(k, k, M - 2 * k) <= 1e-12


def test_deep_q3_chain_keeps_the_rate_window(chains):
    ch = chains((1,), 3.0, 30)
    fit = asympt.rate_fit(asympt.conjecture_scan(chain=ch), "a")
    assert fit.t_hat <= 1 / 3.0 + 0.05
