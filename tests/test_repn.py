"""Module containers, tensor products, duals, and the relation checker."""

import numpy as np
import pytest

from qcartan import repn
from qcartan.numerics import DEFAULT_TOL, InvariantViolation
from qcartan.qcore import Weight, fundamental_weight, q_int


def test_standard_module_matrices_and_weights():
    q = 1.5
    V = repn.standard_module(3, q)
    assert V.dim == 3
    assert V.highest_weight == fundamental_weight(1, 3)
    assert V.hw_index == 0
    sq = q ** 0.5
    assert V.E[1][0, 1] == sq and np.count_nonzero(V.E[1]) == 1
    assert V.F[1][1, 0] == 1.0 / sq and np.count_nonzero(V.F[1]) == 1
    # weights of the basis: (1,0), (-1,1), (0,-1)
    assert V.weight_of(0) == Weight((1, 0))
    assert V.weight_of(1) == Weight((-1, 1))
    assert V.weight_of(2) == Weight((0, -1))
    assert np.array_equal(V.hw_vector, np.array([1.0, 0.0, 0.0]))


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
            assert report["passed"] and report["max"] <= 1e-12
            T = repn.tensor(V, V)
            assert repn.check_module(T, DEFAULT_TOL)["max"] <= 1e-12
    triv = repn.trivial_module(3, 1.5)
    assert repn.check_module(triv, DEFAULT_TOL)["passed"]


def test_unitarity_relation_e_transpose_equals_fk():
    V = repn.standard_module(3, 1.7)
    for i in (1, 2):
        lhs = V.E[i].T
        rhs = V.F[i] * V.k_diag(i)[None, :]
        assert np.max(np.abs(lhs - rhs)) <= 1e-15


def test_tensor_weights_add_and_coproduct_structure():
    q = 1.5
    V = repn.standard_module(2, q)
    T = repn.tensor(V, V)
    assert T.dim == 4
    # weights add coordinate-wise in the product basis
    assert T.weight_of(0) == Weight((2,))
    assert T.weight_of(1) == Weight((0,))
    assert T.weight_of(3) == Weight((-2,))
    # E acts as E (x) 1 + K (x) E
    expected = np.kron(V.E[1], np.eye(2)) + np.kron(np.diag(V.k_diag(1)), V.E[1])
    assert np.max(np.abs(T.E[1] - expected)) <= 1e-15


def test_check_module_flags_broken_relations():
    V = repn.standard_module(2, 1.5)
    E = {1: V.E[1] * (1.0 + 1e-6)}
    bad = repn.QModule(2, 1.5, V.weights, E, {1: V.F[1].copy()},
                       highest_weight=V.highest_weight, hw_index=0)
    report = repn.check_module(bad, DEFAULT_TOL)
    assert not report["passed"]
    with pytest.raises(InvariantViolation):
        repn.check_module(bad, DEFAULT_TOL, raise_on_fail=True)


def test_check_module_flags_grading_violation():
    V = repn.standard_module(2, 1.5)
    E = {1: V.E[1].copy()}
    E[1][1, 0] = 1e-3  # entry outside the weight-raising block
    bad = repn.QModule(2, 1.5, V.weights, E, {1: V.F[1].copy()},
                       highest_weight=V.highest_weight, hw_index=0)
    report = repn.check_module(bad, DEFAULT_TOL)
    assert report["grading"] >= 1e-3


def test_commutator_targets_use_q_integers():
    q = 1.5
    V = repn.standard_module(2, q)
    comm = V.E[1] @ V.F[1] - V.F[1] @ V.E[1]
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
        assert np.max(np.abs(Vcc.E[i] - V.E[i])) <= 1e-15
        assert np.max(np.abs(Vcc.F[i] - V.F[i])) <= 1e-15
    assert np.array_equal(Vcc.weights, V.weights)


def test_module_map_residual_detects_non_intertwiners():
    V = repn.standard_module(2, 1.5)
    ident = repn.ModuleMap(V, V, np.eye(2))
    assert ident.residual() <= 1e-15
    swap = repn.ModuleMap(V, V, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert swap.residual() > 0.1


def test_qmodule_validation():
    V = repn.standard_module(2, 1.5)
    with pytest.raises(ValueError):
        repn.QModule(2, 1.5, V.weights[:1], {1: V.E[1]}, {1: V.F[1]},
                     highest_weight=V.highest_weight, hw_index=0)
    with pytest.raises(ValueError):
        repn.QModule(2, 1.5, V.weights, {1: V.E[1][:1]}, {1: V.F[1]},
                     highest_weight=V.highest_weight, hw_index=0)
    with pytest.raises(ValueError):
        repn.tensor(V, repn.standard_module(3, 1.5))
