"""Root vectors, R-matrices, and braid certificates."""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from qcartan import asympt, braiding, decomp, repn
from qcartan.numerics import InvariantViolation, operator_norm
from qcartan.qcore import Weight, fundamental_weight, pairing, pairing_array, q_int

# the acceptance gates' braiding chains (tests/test_acceptance.py)
BRAID_CHAINS = (((1,), 1.5, 22), ((2,), 1.5, 8), ((1, 0), 1.5, 22))


def _dense_exp_q(X, q):
    """exp_q(X) = sum_n q^(n(n+1)/2) X^n / [n]_q!, exact for nilpotent X."""
    d = X.shape[0]
    out = np.eye(d)
    term = np.eye(d)
    coef = 1.0
    for n in range(1, d + 1):
        term = term @ X
        if not term.any():
            break
        coef *= q ** n / q_int(n, q)
        out = out + coef * term
    else:
        raise InvariantViolation("exp_q argument did not nilpotate")
    return out


def _dense_r_matrix(V, W):
    """The former R: dense kron factors on V ox W, multiplied through exp_q."""
    q = V.q
    rvV, rvW = braiding.root_vectors(V), braiding.root_vectors(W)
    R = np.eye(V.dim * W.dim)
    if q != 1.0:
        for a in braiding.positive_roots(V.N):
            R = R @ _dense_exp_q((1.0 - q ** (-2)) * np.kron(rvV.F[a], rvW.E[a]), q)
        expo = pairing_array(V.weights.astype(np.float64),
                             W.weights.astype(np.float64), V.N).reshape(-1)
        R = (q ** expo)[:, None] * R
    return R


def _kernel_ermat2(V, W, R):
    """The former eigen-relation residual, over the extreme-weight kernels
    that decomp solves for and the kron of each kernel vector."""
    q = V.q
    worst = 0.0
    IV, IW = np.eye(V.dim), np.eye(W.dim)
    for wt, cols in decomp.highest_weight_space(W).components:
        for c in range(cols.shape[1]):
            xi = cols[:, c]
            got = R @ np.kron(IV, xi.reshape(-1, 1))
            expo = pairing_array(V.weights.astype(np.float64),
                                 np.array([wt.coords], dtype=np.float64), V.N).reshape(-1)
            want = np.kron(IV, xi.reshape(-1, 1)) * (q ** expo)[None, :]
            worst = max(worst, float(np.max(np.abs(got - want))))
    for wt, cols in decomp.lowest_weight_space(V).components:
        for c in range(cols.shape[1]):
            zeta = cols[:, c]
            got = R @ np.kron(zeta.reshape(-1, 1), IW)
            expo = pairing_array(np.array([wt.coords], dtype=np.float64),
                                 W.weights.astype(np.float64), V.N).reshape(-1)
            want = np.kron(zeta.reshape(-1, 1), IW) * (q ** expo)[None, :]
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def test_positive_roots_convex_order():
    assert braiding.positive_roots(2) == [(1, 1)]
    assert braiding.positive_roots(3) == [(1, 1), (1, 2), (2, 2)]
    assert braiding.positive_roots(4) == [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def test_root_weight_sums_simple_roots():
    assert braiding.root_weight(1, 2, 3) == Weight((1, 1))
    assert braiding.root_weight(1, 3, 4) == Weight((1, 0, 1))


def test_root_vectors_on_standard_module():
    q = 1.5
    V = repn.standard_module(3, q)
    rv = braiding.root_vectors(V)
    assert rv.grading_residual() <= 1e-14
    # E_(1,2) = E1 E2 - q^-1 E2 E1 sends e3 to q e1 and kills the rest
    E13 = rv.E[(1, 2)]
    assert abs(E13[0, 2] - q) <= 1e-14
    assert np.count_nonzero(np.abs(E13) > 1e-14) == 1
    # long-root F is graded opposite to E
    F13 = rv.F[(1, 2)]
    assert np.count_nonzero(np.abs(F13) > 1e-14) == 1
    assert abs(F13[2, 0]) > 0


def test_r_matrix_is_identity_at_q_one():
    V = repn.standard_module(3, 1.0)
    R = braiding.r_matrix(V, V)
    assert np.array_equal(R, np.eye(9))
    # hence the braiding is exactly the flip permutation
    S = braiding.braid_sigma(V, V).matrix
    P = np.zeros((9, 9))
    for a in range(3):
        for b in range(3):
            P[b * 3 + a, a * 3 + b] = 1.0
    assert np.array_equal(S, P)


@pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
def test_kronecker_terms_equal_the_dense_product(chains, q):
    """R from Kronecker terms equals the dense product of exp_q factors to
    1e-14 relative, and is exactly the identity at q = 1."""
    pairs = [(repn.standard_module(N, q),) * 2 for N in (2, 3, 4)]
    for coords, top in (((1, 0), 4), ((1, 1), 2), ((1, 0, 1), 1)):
        ch = chains(coords, q, top)
        pairs += [(ch.base, ch.levels[n]) for n in range(1, top + 1)]
    for V, W in pairs:
        R, ref = braiding.r_matrix(V, W), _dense_r_matrix(V, W)
        assert np.max(np.abs(R - ref)) <= 1e-14 * np.max(np.abs(ref)), (V, W)
        if q == 1.0:
            assert np.array_equal(R, np.eye(V.dim * W.dim))


def test_r_matrix_refuses_a_root_vector_that_does_not_nilpotate(monkeypatch):
    """The power loop of each exp_q factor is bounded by dim V + 1 steps."""
    V = repn.standard_module(2, 1.5)
    eye = {(1, 1): np.eye(2)}
    monkeypatch.setattr(braiding, "root_vectors",
                        lambda M: braiding.RootVectorSet(M, eye, eye))
    with pytest.raises(InvariantViolation, match="did not nilpotate"):
        braiding.r_matrix(V, V)


def test_eigen_relation_reads_the_columns_the_kernels_found(chains):
    """ermat2 from R's columns at the extreme basis vectors equals, bit for
    bit, the residual over decomp's extreme-weight kernels."""
    pairs = [(ch.base, ch.levels[n]) for ch in (chains(*key) for key in BRAID_CHAINS)
             for n in range(1, 9)]
    rho = chains((1, 1), 1.5, 3)
    pairs += [(rho.base, rho.levels[n]) for n in range(1, 4)] + [(rho.levels[2], rho.base)]
    for V, W in pairs:
        R = braiding.r_matrix(V, W)
        assert braiding.certify_pair(V, W, R)["ermat2"] == _kernel_ermat2(V, W, R), (V, W)


def test_certify_pair_needs_a_highest_weight():
    V = repn.standard_module(2, 1.5)
    bare = repn.QModule(2, 1.5, V.weights, V.F)
    for A, B in ((bare, V), (V, bare)):
        with pytest.raises(ValueError, match="needs modules with a highest weight"):
            braiding.certify_pair(A, B)


def test_braid_eigenvalues_on_rank_one_square():
    """sigma on V (x) V has eigenvalues q^(1/2) (triplet) and -q^(-3/2)."""
    q = 1.5
    V = repn.standard_module(2, q)
    S = braiding.braid_sigma(V, V).matrix
    ev = np.sort(np.linalg.eigvals(S).real)
    expected = np.sort([-q ** -1.5, q ** 0.5, q ** 0.5, q ** 0.5])
    assert np.max(np.abs(ev - expected)) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvals(S).imag)) <= 1e-12


def test_braid_inverse_is_residual_checked():
    V = repn.standard_module(2, 1.5)
    W = repn.standard_module(2, 1.5)
    S = braiding.braid_sigma(V, W)
    Sinv = braiding.braid_sigma_inverse(V, W)
    assert np.max(np.abs(Sinv @ S.matrix - np.eye(4))) <= 1e-12


def test_braiding_entry_points_take_no_unused_tolerance():
    assert list(inspect.signature(braiding.braid_sigma_inverse).parameters) == ["V", "W"]
    assert list(inspect.signature(asympt.sigma_pair).parameters) == ["base"]
    assert [f.name for f in dataclasses.fields(braiding.BraidingOperator)] == ["matrix"]
    assert "tol" not in [f.name for f in dataclasses.fields(asympt.ConvergenceTable)]


def test_braid_relation_on_triple_product():
    """(sigma x 1)(1 x sigma)(sigma x 1) = (1 x sigma)(sigma x 1)(1 x sigma)."""
    for N, q in ((2, 1.5), (3, 1.3)):
        V = repn.standard_module(N, q)
        S = braiding.braid_sigma(V, V).matrix
        eye = np.eye(N)
        S1 = np.kron(S, eye)
        S2 = np.kron(eye, S)
        lhs = S1 @ S2 @ S1
        rhs = S2 @ S1 @ S2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_certify_pair_reference_modules(builders):
    q = 1.5
    V2 = repn.standard_module(2, q)
    cert = braiding.certify_pair(V2, V2)
    assert cert["intertwiner"] <= 1e-12
    assert cert["ermat2"] <= 1e-12
    b3 = builders(3, q)
    W = b3.module(Weight((1, 1)))
    cert = braiding.certify_pair(repn.standard_module(3, q), W)
    assert cert["intertwiner"] <= 1e-10
    assert cert["ermat2"] <= 1e-10


def test_certify_pair_detects_wrong_braiding():
    V = repn.standard_module(2, 1.5)
    R = braiding.r_matrix(V, V)
    # a rescaled R still intertwines but breaks the eigen-certificate
    cert = braiding.certify_pair(V, V, R=1.001 * R)
    assert cert["intertwiner"] <= 1e-12
    assert cert["ermat2"] > 1e-4


def test_cartan_coisometry_eigenrelation(chains):
    """w_1^T sigma = q^((lam,lam)) w_1^T on the square of the chain base."""
    ch = chains((1,), 1.5, 10)
    S = braiding.braid_sigma(ch.base, ch.base).matrix
    f2 = ch.w[1].T
    scale = 1.5 ** pairing(Weight((1,)), Weight((1,)))
    assert operator_norm(f2 @ S - scale * f2) <= 1e-12


def _passing_conventions(monkeypatch, N=3, q=1.7, tol=1e-9):
    """Every (BRACKET_EXP, MIRROR_F, REVERSE_ORDER) passing certify_pair.

    Standard (x) standard alone cannot see the bracket sign, hence the
    V_{2 omega_1} (x) V_{omega_1} and V_rho (x) V_{omega_1} pairs.
    """
    std = repn.standard_module(N, q)
    two = decomp.cartan_component(std, std)[0]
    sq = repn.tensor(std, std)
    seed = decomp.highest_weight_space(sq).vectors_of(fundamental_weight(2, N))[:, 0]
    vrho = decomp.cartan_component(std, decomp.generate_submodule(sq, seed)[0])[0]
    pairs = [(two, std), (vrho, std), (std, vrho)]
    passing = []
    for conv in itertools.product((-1, 1), (True, False), (False, True)):
        for name, value in zip(("BRACKET_EXP", "MIRROR_F", "REVERSE_ORDER"), conv):
            monkeypatch.setattr(braiding, name, value)
        try:
            ok = all(max(braiding.certify_pair(A, B).values()) <= tol
                     for A, B in pairs)
        except InvariantViolation:
            ok = False
        if ok:
            passing.append(conv)
    monkeypatch.undo()
    return passing


def test_convention_re_derivation_pins_frozen_constants(monkeypatch):
    """The exhaustive convention search re-derives the frozen triple."""
    frozen = (braiding.BRACKET_EXP, braiding.MIRROR_F, braiding.REVERSE_ORDER)
    assert frozen == (-1, True, False)
    assert frozen in _passing_conventions(monkeypatch)


def test_r_matrix_rejects_mismatched_pairs():
    with pytest.raises(ValueError):
        braiding.r_matrix(repn.standard_module(2, 1.5), repn.standard_module(3, 1.5))
    with pytest.raises(ValueError):
        braiding.r_matrix(repn.standard_module(2, 1.5), repn.standard_module(2, 2.0))


def test_root_vector_grading_guard_fires():
    V = repn.standard_module(3, 1.5)
    with pytest.raises(InvariantViolation):
        # the wrong bracket exponent breaks the grading gate indirectly:
        # build root vectors with a bracket that does not close
        bad = repn.QModule(3, 1.5, V.weights,
                           {1: V.F[1], 2: V.F[2].to_dense() + 0.5 * V.E[1].to_dense()},
                           highest_weight=V.highest_weight)
        braiding.root_vectors(bad)
