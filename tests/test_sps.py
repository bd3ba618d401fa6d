"""Chains of Cartan components, pair isometries, Fock blocks, transfer."""

import numpy as np
import pytest

from qcartan import asympt, braiding, repn, sps
from qcartan.numerics import DEFAULT_TOL, InvariantViolation, operator_norm
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


def test_chain_isometries_intertwine_and_fix_phases(chains, intertwining_residual):
    ch = chains((1,), 1.5, 10)
    for n in range(1, ch.M):
        W = ch.w[n]
        assert np.max(np.abs(W.T @ W - np.eye(W.shape[1]))) <= 1e-12
        # phase law: the top vector maps to the product of top vectors, exactly
        col = W[:, 0]
        assert col[0] == 1.0
        assert np.count_nonzero(col) == 1
        T = repn.tensor(ch.base, ch.levels[n])
        assert intertwining_residual(ch.levels[n + 1], T, W) <= 1e-9


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


def _off_block(ch, k, l):
    """Mask of the entries of V_{(k+l)lam} -> V_{k lam} (x) V_{l lam} maps
    that join different weights."""
    wk, wl = ch.levels[k].weights, ch.levels[l].weights
    rows = (wk[:, None, :] + wl[None, :, :]).reshape(-1, wk.shape[1])
    cols = ch.levels[k + l].weights
    return np.any(rows[:, None, :] != cols[None, :, :], axis=2)


@pytest.mark.parametrize("coords,q,M", [((1, 0), 1.5, 8), ((1, 1), 1.0, 5)],
                         ids=["omega1-q1.5-M8", "rho-q1-M5"])
def test_pair_isometries_are_exactly_graded(chains, coords, q, M):
    ch = chains(coords, q, M)
    for k in range(1, M):
        for l in range(1, M - k + 1):
            off = ch.pair_isometry(k, l)[_off_block(ch, k, l)]
            assert off.size and np.all(off == 0.0), (k, l)


def _dense_coassociativity(ch, k, l, n):
    P, eye = ch.pair_isometry, (lambda m: np.eye(ch.levels[m].dim))
    return operator_norm(np.kron(P(k, l), eye(n)) @ P(k + l, n)
                         - np.kron(eye(k), P(l, n)) @ P(k, l + n))


def _triples(M):
    return [(k, l, n) for k in range(1, M - 1) for l in range(1, M - k)
            for n in range(1, M - k - l + 1)]


def test_coassociativity_residual_is_the_dense_norm(chains):
    # rho at M=5 has weight multiplicities up to 6 (per-block SVDs);
    # the omega_1 chain has multiplicity one throughout (column norms)
    for coords, q, M in [((1, 1), 1.0, 5), ((1, 0), 1.5, 8)]:
        ch = chains(coords, q, M)
        for k, l, n in _triples(M):
            ref = _dense_coassociativity(ch, k, l, n)
            assert abs(ch.coassociativity_residual(k, l, n) - ref) <= 1e-15
    # O(1) residuals: rotate two basis vectors of one weight of V_{4 rho}
    # inside w_3.  Every map stays graded and isometric, coassociativity
    # fails, and the block norms must still give the dense norm.
    ch = chains((1, 1), 1.0, 5)
    wts = ch.levels[4].weights
    i, j = next((i, j) for i in range(len(wts)) for j in range(i + 1, len(wts))
                if np.array_equal(wts[i], wts[j]))
    c, s = np.cos(0.3), np.sin(0.3)
    w = [m.copy() for m in ch.w]
    w[3][:, [i, j]] = w[3][:, [i, j]] @ np.array([[c, -s], [s, c]])
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, w)
    worst = 0.0
    for k, l, n in _triples(5):
        ref = _dense_coassociativity(bad, k, l, n)
        assert abs(bad.coassociativity_residual(k, l, n) - ref) <= 1e-12 * ref + 1e-15
        worst = max(worst, ref)
    assert worst > 0.1


def test_off_block_entry_raises(chains):
    ch = chains((1, 0), 1.5, 6)
    w = [m.copy() for m in ch.w]
    r, c = np.argwhere(_off_block(ch, 1, 3))[0]
    w[3][r, c] = 1e-13
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, w)
    with pytest.raises(InvariantViolation, match="off the weight blocks"):
        bad.coassociativity_residual(1, 3, 1)


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
# weights landed inside the ambiguous band (cause b).  The last entry is the
# max_total of the coassociativity sweep.
DEEP_CHAINS = [((1,), 2.0, 30, 12), ((1,), 3.0, 30, 12), ((1,), 0.5, 45, 12),
               ((1, 0), 2.0, 22, 12), ((1, 1), 1.5, 7, 6)]


@pytest.mark.parametrize("coords,q,M,max_total", DEEP_CHAINS,
                         ids=[f"{c}-q{q:g}-M{M}" for c, q, M, _ in DEEP_CHAINS])
def test_deep_chains_build_and_pass_relations(chains, coords, q, M, max_total):
    ch = chains(coords, q, M)
    for n, lv in enumerate(ch.levels):
        assert lv.dim == weyl_dim(Weight(coords) * n)
        assert repn.check_module(lv)["max"] <= 1e-9
    assert ch.certify_coassociativity(max_total=max_total) <= 1e-12
    k = M // 3
    assert ch.coassociativity_residual(k, k, M - 2 * k) <= 1e-12


def test_deep_q3_chain_keeps_the_rate_window(chains):
    ch = chains((1,), 3.0, 30)
    fit = asympt.rate_fit(asympt.conjecture_scan(chain=ch), "a")
    assert fit.t_hat <= 1 / 3.0 + 0.05
