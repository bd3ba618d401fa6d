"""Closed-form monomial model: norms, shift matrices, relation residuals."""

import math

import numpy as np
import pytest

from qcartan import decomp, qda, repn, sps
from qcartan.numerics import operator_norm
from qcartan.qcore import Weight, q_factorial, q_int


def test_monomial_enumeration():
    for N in (2, 3, 4):
        for n in range(6):
            mons = qda.monomials(N, n)
            assert len(mons) == math.comb(n + N - 1, N - 1)
            assert all(sum(d) == n and len(d) == N for d in mons)
            assert mons[0] == (n,) + (0,) * (N - 1)
            assert list(mons) == sorted(mons, reverse=True)
            idx = qda.monomial_index(N, n)
            assert all(mons[idx[d]] == d for d in mons)


def test_monomial_norms_against_hand_values():
    for n in range(6):
        assert qda.monomial_norm_sq((n, 0), 1.5) == 1.0
    # q = 1 reduces to the inverse multinomial coefficient
    assert np.isclose(qda.monomial_norm_sq((2, 1), 1.0), 1.0 / 3.0, atol=1e-15)
    assert np.isclose(qda.monomial_norm_sq((1, 1, 1), 1.0), 1.0 / 6.0, atol=1e-15)
    # [1]![1]! q^{1*1} / [2]! = q / [2]
    q = 1.5
    assert np.isclose(qda.monomial_norm_sq((1, 1), q), q / q_int(2, q), atol=1e-15)
    assert abs(qda.monomial_norm_sq((1, 1), 1.5) - 0.6923076923076924) <= 1e-15
    d = (2, 3, 1)
    n = sum(d)
    want = (1.5 ** 11) * (q_factorial(2, 1.5) * q_factorial(3, 1.5)
                          / q_factorial(n, 1.5))
    assert np.isclose(qda.monomial_norm_sq(d, 1.5), want, atol=1e-12)


def test_annihilation_is_adjoint_of_creation():
    # the two matrices come from different formulas; agreement is a theorem
    for N, q in ((2, 1.5), (3, 1.5), (3, 1.0), (4, 0.8)):
        for n in range(1, 6):
            for i in range(1, N + 1):
                A = qda.annihilation_closed(i, n, q, N)
                B = qda.creation_closed(i, n - 1, q, N)
                assert operator_norm(A - B.T) <= 1e-12


def test_shift_relation_residuals_small():
    for N in (2, 3):
        for q in (1.0, 1.5, 0.7):
            for n in range(0, 10):
                res = qda.q_arveson_residuals(n, q, N)
                assert res["off_diag"] <= 1e-12
                assert res["diag"] <= 1e-12


def test_limit_relations_exact_and_asymptotic():
    q, N = 1.5, 3
    assert qda.cuntz_pimsner_residual(0, q, N)["resolution"] == 1.0
    star, diag = [], []
    for n in range(1, 16):
        res = qda.cuntz_pimsner_residual(n, q, N)
        assert res["exchange"] <= 1e-12
        assert res["resolution"] <= 1e-12
        star.append(res["star_exchange"])
        diag.append(res["diag"])
    # the starred relations only hold in the deep-level limit
    assert star[0] > 1e-2 and diag[0] > 1e-2
    assert star[-1] <= 1e-5 and diag[-1] <= 1e-5
    assert star[-1] < star[4] < star[0]
    assert diag[-1] < diag[4] < diag[0]


# Values of the former per-monomial scalar loops, frozen so that the array
# residuals must reproduce them, not just bound them.
# (N, n, q): (star_exchange, diag) of cuntz_pimsner_residual.
CP_FROZEN = {
    (2, 1, 0.7): (0.23020134228187916, 0.32885906040268453),
    (2, 6, 1.5): (0.0021432617371438534, 0.004296577109188235),
    (2, 10, 1.0): (0.04979295977319703, 0.09090909090909091),
    (2, 15, 2.0): (3.024557271302797e-10, 6.984919311242392e-10),
    (3, 1, 0.7): (0.23020134228187916, 0.32885906040268453),
    (3, 6, 1.5): (0.0021432617371438534, 0.004296577109188235),
    (3, 10, 1.0): (0.04979295977319703, 0.09090909090909091),
    (3, 15, 2.0): (3.0245583815258215e-10, 6.984919311242392e-10),
    (4, 1, 0.7): (0.23020134228187916, 0.32885906040268453),
    (4, 6, 1.5): (0.0021432617371438534, 0.004296577109188235),
    (4, 10, 1.0): (0.04979295977319703, 0.09090909090909091),
    (4, 15, 2.0): (3.0245583815258215e-10, 6.984919311242392e-10),
}

# Nonzero entries (row, col, value) of creation_closed(i, 2, 1.5, 3), 10 x 6.
CREATION_FROZEN = {
    1: [(0, 0, 1.0), (1, 1, 0.9379228369755694), (2, 2, 0.9379228369755694),
        (3, 3, 0.780398972571708), (4, 4, 0.780398972571708),
        (5, 5, 0.780398972571708)],
    2: [(1, 0, 0.346843987809648), (3, 1, 0.6252818913170463),
        (4, 2, 0.520265981714472), (6, 3, 1.0), (7, 4, 0.9379228369755694),
        (8, 5, 0.780398972571708)],
    3: [(2, 0, 0.346843987809648), (4, 1, 0.346843987809648),
        (5, 2, 0.6252818913170463), (7, 3, 0.346843987809648),
        (8, 4, 0.6252818913170463), (9, 5, 1.0)],
}


def test_closed_forms_match_frozen_values():
    for (N, n, q), ref in CP_FROZEN.items():
        res = qda.cuntz_pimsner_residual(n, q, N)
        for got, want in zip((res["star_exchange"], res["diag"]), ref):
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-15, (N, n, q)
    for i, entries in CREATION_FROZEN.items():
        want = np.zeros((10, 6))
        for r, c, v in entries:
            want[r, c] = v
        got = qda.creation_closed(i, 2, 1.5, 3)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15), i


def test_chain_intertwiner_is_unitary(chains):
    for key in (((1,), 1.5, 8), ((1, 0), 1.5, 6)):
        ch = chains(*key)
        for n in (*range(0, 6), ch.M):
            U = qda.chain_intertwiner(ch, n)
            assert U.shape[0] == U.shape[1] == len(qda.monomials(ch.N, n))
            assert np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) <= 1e-10


def test_chain_intertwiner_carries_shifts(chains):
    ch = chains((1, 0), 1.5, 6)
    fock = sps.FockSpace(ch)
    eye = np.eye(ch.N)
    for n in range(0, 4):
        U0 = qda.chain_intertwiner(ch, n)
        U1 = qda.chain_intertwiner(ch, n + 1)
        for i in range(1, ch.N + 1):
            S = sps.creation(ch, eye[i - 1], fock=fock)
            lhs = S.block(n) @ U0
            rhs = U1 @ qda.creation_closed(i, n, ch.q, ch.N)
            assert operator_norm(lhs - rhs) <= 1e-10


def test_chain_intertwiner_rejects_other_chains(chains):
    ch2 = chains((2,), 1.5, 8)
    with pytest.raises(ValueError):
        qda.chain_intertwiner(ch2, 2)
    ch = chains((1,), 1.5, 8)
    with pytest.raises(ValueError):
        qda.chain_intertwiner(ch, 9)


def _component_overlap(chain, m, k, n):
    """|<zeta^k (x) xi_{n w1}, xi^{(n,k)}>| for the rank-one chain (N = 2).

    zeta^k is the unit vector q^{-k(m-k)/2} ([m]!/([k]![m-k]!))^{1/2}
    e_1^k e_2^{m-k} of H_m = V_{m w1}, and xi^{(n,k)} is the extracted highest
    weight vector of the component of V_{m w1} (x) V_{n w1} whose highest
    weight (n+2k-m) matches the weight of zeta^k (x) e_1^n (needs n >= m).
    """
    if chain.N != 2:
        raise ValueError("defined for rank one only")
    q = chain.q
    if not 0 <= k <= m <= n <= chain.M:
        raise ValueError("indices out of range")
    d = (k, m - k)
    gamma = (q ** (-k * (m - k) / 2.0)
             * np.sqrt(q_factorial(m, q) / (q_factorial(k, q) * q_factorial(m - k, q)))
             * np.sqrt(qda.monomial_norm_sq(d, q)))
    U = qda.chain_intertwiner(chain, m)
    zeta = gamma * U[:, qda.monomial_index(2, m)[d]]
    T = repn.tensor(chain.levels[m], chain.levels[n])
    cols = decomp.highest_weight_space(T, chain.tol).vectors_of(Weight((n + 2 * k - m,)))
    assert cols.shape[1] == 1, "component not multiplicity one"
    dn = chain.levels[n].dim
    # xi_{n lam} is one-hot at 0, so the pairing only reads rows (a, 0)
    return float(abs(zeta @ cols[::dn, 0]))


def test_component_overlap_values(chains):
    ch = chains((1,), 1.5, 8)
    # k = m pairs two copies of the same extreme vector
    assert abs(_component_overlap(ch, 3, 3, 4) - 1.0) <= 1e-12
    vals = [_component_overlap(ch, 3, 1, n) for n in range(3, 7)]
    assert abs(vals[1] - 0.948163856) <= 1e-6
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)
    with pytest.raises(ValueError):
        _component_overlap(ch, 3, 4, 4)
    with pytest.raises(ValueError):
        _component_overlap(ch, 3, 1, 9)
    with pytest.raises(ValueError):
        _component_overlap(ch, 4, 1, 2)
    with pytest.raises(ValueError):
        _component_overlap(chains((1, 0), 1.5, 6), 2, 1, 3)
