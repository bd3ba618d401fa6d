"""Module containers, tensor products, duals, and the relation checker."""

import inspect

import numpy as np
import pytest

from qcartan import repn
from qcartan.numerics import DEFAULT_TOL, InvariantViolation
from qcartan.qcore import Weight, fundamental_weight, q_int, simple_root


def test_standard_module_matrices_and_weights():
    q = 1.5
    V = repn.standard_module(3, q)
    assert V.dim == 3
    assert V.highest_weight == fundamental_weight(1, 3)
    assert V.weight_of(0) == V.highest_weight   # the h.w. vector sits at index 0
    sq = q ** 0.5
    assert V.F[1][1, 0] == 1.0 / sq and np.count_nonzero(V.F[1].to_dense()) == 1
    # E_1 = K_1 F_1^T: q^{wt_1(e_1)} q^(-1/2) = q^(1/2), up to the rounding of 1/sq
    assert V.E[1][0, 1] == q * (1.0 / sq) and np.count_nonzero(V.E[1].to_dense()) == 1
    assert abs(V.E[1][0, 1] - sq) <= 1e-15 * sq
    # weights of the basis: (1,0), (-1,1), (0,-1)
    assert V.weight_of(0) == Weight((1, 0))
    assert V.weight_of(1) == Weight((-1, 1))
    assert V.weight_of(2) == Weight((0, -1))
    assert np.array_equal(V.hw_vector, np.array([1.0, 0.0, 0.0]))
    # the lowest weight -reversed(hw) = (0,-1) sits at index 2
    assert np.array_equal(V.lowest_vector, np.array([0.0, 0.0, 1.0]))


def test_k_diag_exponentiates_weights():
    q = 2.0
    V = repn.standard_module(2, q)
    assert np.array_equal(V.k_diag(1), np.array([2.0, 0.5]))
    assert np.array_equal(V.k_diag(1, power=-2), np.array([0.25, 4.0]))


def test_relations_pass_on_reference_modules():
    for N in (2, 3, 4):
        for q in (1.0, 1.5):
            V = repn.standard_module(N, q)
            report = repn.check_module(V, DEFAULT_TOL)
            assert set(report) == {"grading", "commutator", "serre", "max", "passed"}
            assert report["passed"] and report["max"] <= 1e-12
            T = repn.tensor(V, V)
            assert repn.check_module(T, DEFAULT_TOL)["max"] <= 1e-12
    triv = repn.trivial_module(3, 1.5)
    assert repn.check_module(triv, DEFAULT_TOL)["passed"]


def test_unitarity_relation_e_transpose_equals_fk():
    V = repn.standard_module(3, 1.7)
    for i in (1, 2):
        lhs = V.E[i].T.to_dense()
        rhs = V.F[i].to_dense() * V.k_diag(i)[None, :]
        assert np.max(np.abs(lhs - rhs)) <= 1e-15


def test_e_is_k_f_transpose_on_every_construction(chains, builders, e_is_k_f_transpose):
    std, rho = repn.standard_module(3, 1.5), builders(3, 1.5).module(Weight((1, 1)))
    mods = [std, repn.trivial_module(3, 1.5), repn.tensor(std, rho),
            repn.contragredient(std), repn.contragredient(rho), rho,
            builders(4, 1.5).module(Weight((0, 1, 0)))]
    for coords, q, M in (((1, 0), 1.5, 6), ((1, 1), 1.0, 4)):
        mods.extend(chains(coords, q, M).levels)
    for V in mods:
        e_is_k_f_transpose(V)
        assert V.E is V.E   # formed once


def test_e_leaves_no_transpose_cached_on_f():
    """Reading E forms an uncached transpose of each F_i: F_i.T stays unset,
    and E keeps the triplets of K_i times the cached transpose."""
    std = repn.standard_module(3, 1.5)
    for V in (std, repn.tensor(std, std), repn.contragredient(std)):
        E = V.E
        for i, X in V.F.items():
            assert X._T is None, (V, i)
            T = X.T
            assert np.array_equal(E[i].rows, T.rows) and np.array_equal(E[i].cols, T.cols)
            assert np.array_equal(E[i].vals, T.vals * V.k_diag(i)[T.rows])


def test_qmodule_stores_only_f():
    params = list(inspect.signature(repn.QModule).parameters)
    assert params == ["N", "q", "weights", "F", "highest_weight"]
    V = repn.standard_module(2, 1.5)
    with pytest.raises(ValueError, match="no phase-fixed highest weight vector"):
        repn.tensor(V, V).hw_vector
    with pytest.raises(ValueError, match="no highest weight, hence no lowest weight vector"):
        repn.tensor(V, V).lowest_vector
    with pytest.raises(AttributeError):
        V.E = {1: V.F[1].T}


def test_tensor_weights_add_and_coproduct_structure():
    q = 1.5
    V = repn.standard_module(2, q)
    T = repn.tensor(V, V)
    assert T.dim == 4
    # weights add coordinate-wise in the product basis
    assert T.weight_of(0) == Weight((2,))
    assert T.weight_of(1) == Weight((0,))
    assert T.weight_of(3) == Weight((-2,))


def _kron_tensor(V, W):
    """Reference: the coproduct E (x) 1 + K (x) E, F (x) K^-1 + 1 (x) F as dense krons."""
    E, F = {}, {}
    for i in range(1, V.N):
        E[i] = (np.kron(V.E[i].to_dense(), np.eye(W.dim))
                + np.kron(np.diag(V.k_diag(i)), W.E[i].to_dense()))
        F[i] = (np.kron(V.F[i].to_dense(), np.diag(W.k_diag(i, -1)))
                + np.kron(np.eye(V.dim), W.F[i].to_dense()))
    return E, F


def test_tensor_equals_the_kron_formula_bitwise(builders):
    std2, std4 = repn.standard_module(2, 1.5), repn.standard_module(4, 1.5)
    rho = builders(3, 1.5).module(Weight((1, 1)))
    pairs = [(std2, std2), (std2, builders(2, 2.0).module(Weight((5,)))),
             (std4, std4), (std4, builders(4, 1.5).module(Weight((0, 1, 0)))),
             (rho, rho), (repn.standard_module(3, 1.5), rho)]
    for V, W in pairs:
        if V.q != W.q:
            V = repn.standard_module(V.N, W.q)
        T = repn.tensor(V, W)
        E, F = _kron_tensor(V, W)
        for i in range(1, V.N):
            assert np.array_equal(T.F[i].to_dense(), F[i])
            # E is K F^T bitwise, which is the E side of the coproduct up
            # to the rounding of the K factors
            assert np.array_equal(T.E[i].to_dense(), T.k_diag(i)[:, None] * F[i].T)
            assert np.max(np.abs(T.E[i].to_dense() - E[i])) <= 4e-16 * np.max(np.abs(E[i]))


def test_sparse_matrix_products_and_canonical_form():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 4)) * (rng.random((5, 4)) < 0.4)
    B = rng.standard_normal((4, 6)) * (rng.random((4, 6)) < 0.4)
    X = rng.standard_normal((4, 3))
    SA, SB = repn.SparseMatrix.from_dense(A), repn.SparseMatrix.from_dense(B)
    assert np.allclose((SA @ SB).to_dense(), A @ B, rtol=0, atol=1e-15)
    assert np.allclose(SA @ X, A @ X, rtol=0, atol=1e-15)
    assert np.allclose(SA @ X[:, 0], A @ X[:, 0], rtol=0, atol=1e-15)
    assert np.allclose(X.T @ SA.T, X.T @ A.T, rtol=0, atol=1e-15)
    assert np.array_equal(SA.T.to_dense(), A.T)
    assert SA.T is SA.T and SA.T.T is SA  # the transpose is computed once
    assert np.array_equal((-2.0 * SA).to_dense(), -2.0 * A)
    assert np.array_equal(SA[:, [1, 3]], A[:, [1, 3]])
    assert np.array_equal(repn.SparseMatrix.identity(3).to_dense(), np.eye(3))
    assert np.array_equal(np.ones((5, 4)) - SA, np.ones((5, 4)) - A)
    # duplicates are summed in the order given, exact zeros dropped
    S = repn.SparseMatrix((2, 2), [1, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 3.0, 0.0])
    assert S.rows.tolist() == [0, 1] and S.cols.tolist() == [1, 0]
    assert S.vals.tolist() == [2.0, 4.0]


def _former_join(keys, sorted_keys):
    """The former join: two binary searches of keys in the sorted rows."""
    lo = np.searchsorted(sorted_keys, keys, "left")
    cnt = np.searchsorted(sorted_keys, keys, "right") - lo
    a = np.repeat(np.arange(keys.size), cnt)
    b = np.arange(a.size) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    return a, b


def test_join_through_row_pointers_matches_the_searchsorted_join():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.5)
    A[[0, 3, 6]] = 0.0     # empty first, middle and last rows
    S = repn.SparseMatrix.from_dense(A)
    assert S.indptr is S.indptr     # computed once
    assert np.array_equal(S.indptr, np.searchsorted(S.rows, np.arange(8)))
    assert [S.indptr[i + 1] - S.indptr[i] for i in (0, 3, 6)] == [0, 0, 0]
    empty = np.zeros(0, dtype=np.int64)
    zero = repn.SparseMatrix((4, 3), [], [], [])
    assert np.array_equal(zero.indptr, np.zeros(5))
    for M, keys in ((S, rng.integers(0, 7, 40)), (S, np.repeat(np.arange(7), 3)),
                    (S, empty), (zero, np.array([0, 3, 1, 3])), (zero, empty)):
        got, want = repn._join(keys, M), _former_join(keys, M.rows)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _dense_check_module(V):
    """Reference: the relation residuals formed from dense generators."""
    q = V.q
    E = {i: V.E[i].to_dense() for i in range(1, V.N)}
    F = {i: V.F[i].to_dense() for i in range(1, V.N)}

    def amax(M):
        return float(np.max(np.abs(M))) if M.size else 0.0

    grad = comm = serre = 0.0
    two_q = q_int(2, q)
    for i in range(1, V.N):
        alpha = simple_root(i, V.N).as_array()
        for M, shift in ((E[i], alpha), (F[i], -alpha)):
            rr, cc = np.nonzero(M)
            ok = np.all(V.weights[rr] == V.weights[cc] + shift, axis=1)
            grad = max(grad, amax(M[rr, cc][~ok]))
        for j in range(1, V.N):
            P1, P2 = E[i] @ F[j], F[j] @ E[i]
            d = P1 - P2
            scale = max(1.0, amax(P1), amax(P2))
            if i == j:
                tgt = np.diag([q_int(int(m), q) for m in V.weights[:, i - 1]])
                d = d - tgt
                scale = max(scale, amax(tgt))
            comm = max(comm, amax(d) / scale)
            if i < j:
                for A in (E, F):
                    Ai, Aj = A[i], A[j]
                    if j - i == 1:
                        for X, Y in ((Ai, Aj), (Aj, Ai)):
                            T1, T2, T3 = X @ X @ Y, X @ Y @ X, Y @ X @ X
                            scale = max(1.0, amax(T1), two_q * amax(T2), amax(T3))
                            serre = max(serre, amax(T1 - two_q * T2 + T3) / scale)
                    else:
                        P1, P2 = Ai @ Aj, Aj @ Ai
                        scale = max(1.0, amax(P1), amax(P2))
                        serre = max(serre, amax(P1 - P2) / scale)
    return {"grading": grad, "commutator": comm, "serre": serre}


def _acceptance_modules(chains, builders):
    """The module set of the acceptance relation gate."""
    mods = []
    for coords, q, M in (((1,), 1.0, 22), ((1,), 1.5, 22), ((1, 0), 1.0, 22),
                         ((1, 0), 1.5, 22), ((1,), 1.2, 18), ((1,), 2.0, 18),
                         ((2,), 1.5, 8), ((1, 1), 1.5, 5)):
        ch = chains(coords, q, M)
        mods.extend(ch.levels)
        mods.append(repn.tensor(ch.base, ch.levels[ch.M - 1]))
    for N in (2, 3, 4):
        for q in (1.0, 1.5):
            std = repn.standard_module(N, q)
            mods.extend([std, repn.tensor(std, std), repn.contragredient(std)])
    b4 = builders(4, 1.5)
    mods.extend(b4.module(Weight(mu)) for mu in ((0, 1, 0), (0, 0, 1), (1, 1, 1)))
    return mods


def _agree(got, want):
    # the residuals are already relative to the size of the cancelled terms
    return all(abs(got[k] - want[k]) <= 1e-15 for k in want)


def test_check_module_matches_the_dense_reference(chains, builders):
    for V in _acceptance_modules(chains, builders):
        assert _agree(repn.check_module(V), _dense_check_module(V)), V


def _with_F1(V, F1):
    return repn.QModule(V.N, V.q, V.weights, {**V.F, 1: F1})


def test_check_module_flags_mutations_like_the_dense_reference(chains):
    # in-block mutations, also on rho and omega_2 levels (blocks of
    # multiplicity > 1), match the dense reference in every field
    for coords, n in (((1, 0), 10), ((1, 1), 4), ((0, 1, 0), 3)):
        V = chains(coords, 1.5, n + 1).levels[n]
        F1 = V.F[1].to_dense()
        nz = np.argwhere(F1)
        for r, c in (nz[len(nz) // 2], nz[0], nz[-1]):
            bumped = F1.copy()
            bumped[r, c] *= 1.0 + 1e-6
            bad = _with_F1(V, bumped)
            got, want = repn.check_module(bad), _dense_check_module(bad)
            assert not got["passed"] and max(want.values()) > DEFAULT_TOL.identity_tol
            assert _agree(got, want)
    # an entry off the blocks enters no relation: it is the grading residual,
    # which fails the gate by itself
    V = chains((1, 0), 1.5, 22).levels[10]
    F1 = V.F[1].to_dense()
    off = F1.copy()
    off[0, 0] = 1e-6 * np.max(np.abs(F1))   # a diagonal entry: F_1 must lower the weight
    got = repn.check_module(_with_F1(V, off))
    assert got["grading"] == _dense_check_module(_with_F1(V, off))["grading"] > 0
    assert not got["passed"]
    off[0, 0] = 0.0
    graded = _dense_check_module(_with_F1(V, off))
    assert all(abs(got[k] - graded[k]) <= 1e-15 for k in ("commutator", "serre"))


def test_check_module_flags_broken_relations():
    V = repn.standard_module(2, 1.5)
    F = {1: V.F[1] * (1.0 + 1e-6)}
    bad = repn.QModule(2, 1.5, V.weights, F, highest_weight=V.highest_weight)
    report = repn.check_module(bad, DEFAULT_TOL)
    assert not report["passed"]
    with pytest.raises(InvariantViolation):
        repn.check_module(bad, DEFAULT_TOL, raise_on_fail=True)


def test_check_module_flags_grading_violation():
    V = repn.standard_module(2, 1.5)
    F = {1: V.F[1].to_dense()}
    F[1][0, 1] = 1e-3  # entry outside the weight-lowering block
    bad = repn.QModule(2, 1.5, V.weights, F, highest_weight=V.highest_weight)
    report = repn.check_module(bad, DEFAULT_TOL)
    assert report["grading"] >= 1e-3


def test_commutator_targets_use_q_integers():
    q = 1.5
    V = repn.standard_module(2, q)
    comm = (V.E[1] @ V.F[1]).to_dense() - (V.F[1] @ V.E[1]).to_dense()
    target = np.diag([q_int(1, q), q_int(-1, q)])
    assert np.max(np.abs(comm - target)) <= 1e-15


def test_contragredient_is_a_module_with_negated_weights():
    V = repn.standard_module(3, 1.5)
    Vc = repn.contragredient(V)
    assert repn.check_module(Vc, DEFAULT_TOL)["max"] <= 1e-12
    assert np.array_equal(Vc.weights, -V.weights)
    # applying it twice recovers the original up to roundoff in q * (1/q)
    Vcc = repn.contragredient(Vc)
    for i in (1, 2):
        assert np.max(np.abs(Vcc.E[i].to_dense() - V.E[i].to_dense())) <= 1e-15
        assert np.max(np.abs(Vcc.F[i].to_dense() - V.F[i].to_dense())) <= 1e-15
    assert np.array_equal(Vcc.weights, V.weights)


def test_weight_blocks_match_the_per_vector_loop(builders):
    """The cached column side holds the weight blocks, ascending basis
    indices in each, highest weight first."""
    std = repn.standard_module(3, 1.5)
    rho = builders(3, 1.5).module(Weight((1, 1)))
    for V in (repn.trivial_module(3, 1.5), std, rho, repn.tensor(std, rho)):
        want = {}
        for idx, row in enumerate(V.weights):
            want.setdefault(tuple(int(c) for c in row), []).append(idx)
        cs = V.column_side()
        assert V.column_side() is cs
        got = {tuple(V.weights[cs.members(b)[0]].tolist()): cs.members(b).tolist()
               for b in range(cs.keys.size)}
        assert got == want
        assert list(got) == sorted(want, reverse=True)
        assert np.array_equal(cs.keys, np.unique(cs.keys))
        for b, idx in enumerate(got.values()):
            assert (cs.block_of()[idx] == b).all()


def test_intertwining_residual_detects_non_intertwiners(intertwining_residual):
    V = repn.standard_module(2, 1.5)
    assert intertwining_residual(V, V, np.eye(2)) <= 1e-15
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert intertwining_residual(V, V, swap) > 0.1


def test_qmodule_validation():
    V = repn.standard_module(2, 1.5)
    with pytest.raises(ValueError):
        repn.QModule(2, 1.5, V.weights[:1], {1: V.F[1]},
                     highest_weight=V.highest_weight)
    with pytest.raises(ValueError):
        repn.QModule(2, 1.5, V.weights, {1: V.F[1][:1]},
                     highest_weight=V.highest_weight)
    with pytest.raises(ValueError):
        repn.tensor(V, repn.standard_module(3, 1.5))
