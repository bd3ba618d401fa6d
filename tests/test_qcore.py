"""Quantum integers, Cartan data, weights, and the dimension formula."""

import numpy as np
import pytest

from qcartan.qcore import (
    Weight,
    cartan_matrix,
    check_q,
    fundamental_weight,
    inv_cartan_matrix,
    pairing,
    pairing_array,
    q_factorial,
    q_int,
    rho,
    simple_root,
    tensor_components,
    weyl_dim,
)


# -- scalars -------------------------------------------------------------


def test_q_int_classical_limit_is_exact():
    for n in range(-6, 7):
        assert q_int(n, 1.0) == float(n)


def test_q_int_accepts_integer_arrays():
    n = np.arange(-4, 9)
    assert np.array_equal(q_int(n, 1.0), n.astype(float))
    got = q_int(n, 1.5)
    want = np.array([q_int(int(k), 1.5) for k in n])
    assert got.shape == n.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_q_int_small_values():
    q = 1.5
    assert q_int(0, q) == 0.0
    assert q_int(1, q) == 1.0
    assert abs(q_int(2, q) - (q + 1.0 / q)) <= 1e-15
    assert abs(q_int(3, q) - (q * q + 1.0 + q ** -2)) <= 1e-15


def test_q_int_symmetries():
    q = 1.7
    for n in range(1, 9):
        assert abs(q_int(-n, q) + q_int(n, q)) <= 1e-12
        assert abs(q_int(n, 1.0 / q) - q_int(n, q)) <= 1e-12


def test_q_factorial_recursion():
    q = 1.3
    for n in range(1, 7):
        assert abs(q_factorial(n, q) - q_int(n, q) * q_factorial(n - 1, q)) <= 1e-10
    with pytest.raises(ValueError):
        q_factorial(-1, q)


def test_check_q_rejects_nonpositive_and_nonfinite():
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            check_q(bad)
    assert check_q(2.0) == 2.0


# -- Cartan data ----------------------------------------------------------


def test_cartan_matrix_values():
    C = cartan_matrix(4)
    expected = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    assert np.array_equal(C, expected)


def test_inverse_cartan_matrix_inverts():
    for N in (2, 3, 4, 5):
        prod = inv_cartan_matrix(N) @ cartan_matrix(N)
        assert np.max(np.abs(prod - np.eye(N - 1))) <= 1e-12


def test_pairing_reproduces_cartan_entries():
    for N in (2, 3, 4):
        C = cartan_matrix(N)
        for i in range(1, N):
            for j in range(1, N):
                got = pairing(simple_root(i, N), simple_root(j, N))
                assert abs(got - C[i - 1, j - 1]) <= 1e-12
            assert abs(pairing(fundamental_weight(i, N), simple_root(i, N)) - 1.0) <= 1e-12
            assert abs(pairing(rho(N), simple_root(i, N)) - 1.0) <= 1e-12


def test_pairing_array_matches_scalar_pairing():
    N = 3
    A = np.array([[1, 0], [0, 1], [2, 1]])
    B = np.array([[1, 1], [0, 2]])
    G = pairing_array(A, B, N)
    for r in range(A.shape[0]):
        for c in range(B.shape[0]):
            want = pairing(Weight(tuple(A[r])), Weight(tuple(B[c])))
            assert abs(G[r, c] - want) <= 1e-12


# -- weights ---------------------------------------------------------------


def test_weight_partition_round_trip():
    for coords in ((3,), (1, 0), (2, 1), (0, 2, 1)):
        w = Weight(coords)
        assert Weight.from_partition(w.partition) == w
    assert Weight((2, 1)).partition == (3, 1, 0)
    assert fundamental_weight(2, 4).partition == (1, 1, 0, 0)


def test_weight_arithmetic():
    a, b = Weight((1, 0)), Weight((0, 2))
    assert a + b == Weight((1, 2))
    assert a - b == Weight((1, -2))
    assert a * 3 == Weight((3, 0))
    assert -b == Weight((0, -2))
    assert a(1) == 1 and a(2) == 0
    assert a.N == 3


def test_weight_dominance_and_regularity():
    assert Weight((2, 0)).is_dominant
    assert not Weight((1, -1)).is_dominant


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight(())


# -- dimension formula -------------------------------------------------------


def test_weyl_dim_rank_one_and_two():
    for m in range(9):
        assert weyl_dim(Weight((m,))) == m + 1
    for a in range(5):
        for b in range(5):
            want = (a + 1) * (b + 1) * (a + b + 2) // 2
            assert weyl_dim(Weight((a, b))) == want


def test_weyl_dim_known_values():
    assert weyl_dim(fundamental_weight(1, 4)) == 4
    assert weyl_dim(fundamental_weight(2, 4)) == 6
    assert weyl_dim(rho(3)) == 8
    assert weyl_dim(rho(4)) == 64  # 2^(number of positive roots)
    assert weyl_dim(Weight((0, 0, 0))) == 1


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(Weight((1, -1)))


# -- tensor product components ------------------------------------------------


def test_tensor_components_hand_derived_decompositions():
    # weights of the adjoint module of sl_3: the six roots and 0 twice
    adjoint = [(2, -1), (-1, 2), (1, 1), (-2, 1), (1, -2), (-1, -1), (0, 0), (0, 0)]
    assert tensor_components(adjoint, rho(3)) == {
        Weight((2, 2)): 1, Weight((3, 0)): 1, Weight((0, 3)): 1,
        Weight((1, 1)): 2, Weight((0, 0)): 1}
    assert tensor_components([(2,), (0,), (-2,)], Weight((2,))) == {
        Weight((4,)): 1, Weight((2,)): 1, Weight((0,)): 1}
    # std (x) V_(2,0): mu + wt(e_3) + rho = (3, 0) lies on a wall
    std = [(1, 0), (-1, 1), (0, -1)]
    assert tensor_components(std, Weight((2, 0))) == {Weight((3, 0)): 1, Weight((1, 1)): 1}
