"""Convergence tables, rate fits, star-commutation defects, vacuum limits."""

import numpy as np
import pytest

from qcartan import asympt, decomp, repn, sps
from qcartan.numerics import InvariantViolation, operator_norm
from qcartan.qcore import Weight, pairing, q_int


@pytest.fixture(scope="module")
def table(chains):
    return asympt.conjecture_scan(chain=chains((1,), 1.5, 10))


@pytest.fixture(scope="module")
def table_q1(chains):
    return asympt.conjecture_scan(chain=chains((1,), 1.0, 10))


def test_scan_layout(table):
    assert list(table.ns) == list(range(1, 9))  # guard band trims the top
    assert len(table) == 8
    assert table.lam == Weight((1,)) and table.q == 1.5 and table.M == 10
    assert np.array_equal(table.column("a"), table.a)
    with pytest.raises(KeyError):
        table.column("z")


def test_one_hot_defect_closed_form(table):
    closed = np.array([1.5 ** (-n / 2.0) / np.sqrt(q_int(n + 1, 1.5))
                       for n in table.ns])
    assert np.max(np.abs(table.b - closed)) <= 1e-12
    # for this chain the two h-defects coincide
    assert np.max(np.abs(table.a - table.b)) <= 1e-12
    assert np.all(table.a <= table.c + 1e-12)


def test_classical_limit_values(table_q1):
    t = table_q1
    assert np.max(np.abs(t.a - 1.0 / np.sqrt(t.ns + 1.0))) <= 1e-12
    # at q = 1 the lowest-weight duals match the highest-weight quantities
    assert np.max(np.abs(t.a_l - t.a)) <= 1e-12
    assert np.max(np.abs(t.b_l - t.b)) <= 1e-12


def test_scan_rejects_tampered_isometries(chains):
    ch = chains((1,), 1.5, 10)
    w = [m.copy() for m in ch.w]
    w[3] = w[3] * 1.02
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol,
                                     list(ch.levels), w)
    with pytest.raises(InvariantViolation, match=r"b\(3\)"):
        asympt.conjecture_scan(chain=bad)


def test_geometric_fit_recovers_exact_data():
    ns = np.arange(1, 9, dtype=float)
    fit = asympt.fit_geometric(ns, 3.0 * 0.5 ** ns)
    assert abs(fit.t_hat - 0.5) <= 1e-12
    assert abs(fit.c_hat - 3.0) <= 1e-10
    assert fit.geometric and not fit.converged_to_zero
    assert fit.residual <= 1e-12
    assert fit.window == (1, 8)


def test_geometric_fit_edge_cases(table):
    with pytest.raises(ValueError):
        asympt.fit_geometric(np.arange(3.0), np.ones(3))
    fit = asympt.fit_geometric(np.arange(1.0, 6.0), np.zeros(5))
    assert fit.converged_to_zero and fit.t_hat == 0.0
    with pytest.raises(ValueError):
        asympt.rate_fit(table, "a", n_min=6, n_max=8)


def test_rate_fit_windows(table):
    fit = asympt.rate_fit(table, "a")
    assert fit.window[0] == int(table.ns[asympt.BURN_IN_ROWS])
    assert 0.0 < fit.t_hat < 1.0
    assert fit.column == "a"


def test_f_estimate(chains, table):
    ch = chains((1,), 1.5, 10)
    for n in range(2, ch.M):
        lhs, rhs, holds = asympt.f_estimate_check(ch, n)
        assert holds and lhs <= rhs + 1e-7
    # the table path looks up the same bound terms
    assert asympt.f_estimate_check(ch, 4, table=table) == \
        asympt.f_estimate_check(ch, 4)
    with pytest.raises(ValueError):
        asympt.f_estimate_check(ch, 1)
    with pytest.raises(ValueError):
        asympt.f_estimate_check(ch, ch.M)


def test_star_defect_classical_closed_forms(chains):
    ch = chains((1,), 1.0, 10)
    for n in range(1, ch.M):
        rep = asympt.star_commute_defect_chain(ch, n)
        assert abs(rep.defect_h.basis_max - 1.0 / (n + 1)) <= 1e-12
        assert abs(rep.defect_h.matricized - 1.0 / np.sqrt(2 * (n + 1))) <= 1e-12
        assert abs(rep.defect_l.basis_max - rep.defect_h.basis_max) <= 1e-12
        assert rep.hw_fixed_point_residual <= 1e-13
        assert rep.defect_h.basis_max <= rep.bound_combo_h + 1e-12
        assert rep.defect_l.basis_max <= rep.bound_combo_l + 1e-12


def test_star_defect_chain_values(chains):
    ch = chains((1,), 1.5, 10)
    r2 = asympt.star_commute_defect_chain(ch, 2)
    assert abs(r2.defect_h.basis_max - 0.120300751880) <= 1e-9
    r4 = asympt.star_commute_defect_chain(ch, 4)
    assert abs(r4.defect_h.basis_max - 0.022059457131) <= 1e-9
    assert abs(r4.defect_h.matricized - 0.037863132979) <= 1e-9
    # deep-level ratio approaches q^{-2}
    d = np.array([asympt.star_commute_defect_chain(ch, n).defect_h.basis_max
                  for n in range(1, ch.M)])
    assert abs(d[-1] / d[-2] - 1.5 ** -2) <= 5e-3
    fit = asympt.fit_geometric(np.arange(3.0, 10.0), d[2:])
    assert fit.geometric and 0.40 <= fit.t_hat <= 0.47
    with pytest.raises(ValueError):
        asympt.star_commute_defect_chain(ch, 0)
    with pytest.raises(ValueError):
        asympt.star_commute_defect_chain(ch, ch.M)


def test_star_defect_rank_two_chain_values(chains):
    ch = chains((1, 0), 1.5, 6)
    frozen = {2: (0.120300751880, 0.291673238271),
              3: (0.050753370341, 0.166223556648)}
    for n, (basis, matric) in frozen.items():
        rep = asympt.star_commute_defect_chain(ch, n)
        assert rep.mu == Weight((n, 0))
        assert abs(rep.defect_h.basis_max - basis) <= 1e-9
        assert abs(rep.defect_h.matricized - matric) <= 1e-9
        assert rep.hw_fixed_point_residual <= 1e-13
        assert rep.defect_h.basis_max <= rep.bound_combo_h
        assert rep.defect_l.basis_max <= rep.bound_combo_l


def test_star_defect_mirror_law():
    ch_q = sps.CartanChain(Weight((1,)), 1.5, 8)
    ch_inv = sps.CartanChain(Weight((1,)), 2.0 / 3.0, 8)
    for n in range(1, 8):
        a = asympt.star_commute_defect_chain(ch_q, n).defect_h.basis_max
        b = asympt.star_commute_defect_chain(ch_inv, n).defect_l.basis_max
        assert abs(a - b) <= 1e-12


def test_commutator_decay(chains):
    ch = chains((1,), 1.5, 10)
    ns, worst = asympt.commutator_decay(ch)
    assert list(ns) == list(range(0, 9))
    assert worst[0] == 1.0  # no lower level to cancel the vacuum term
    assert all(x > y for x, y in zip(worst[1:], worst[2:]))
    fit = asympt.fit_geometric(ns[2:].astype(float), worst[2:])
    assert 0.60 <= fit.t_hat <= 0.75


def test_vacuum_limits(chains):
    ch = chains((1,), 1.5, 10)
    xi = np.array([0.6, 0.8])
    zeta = np.array([1.0, 2.0]) / np.sqrt(5.0)
    vac = asympt.vacuum_limits(ch, xi, zeta)
    assert list(vac["n"]) == list(range(1, 9))
    assert vac["target"] == xi[0] * zeta[0]
    # creation-first expectations hit the target at every level
    assert vac["residual_creation"].max() == 0.0
    res = vac["residual_annihilation"]
    assert all(x > y for x, y in zip(res, res[1:]))
    assert res[-1] <= 1e-3


def test_compactification(chains):
    ch = chains((1,), 1.5, 10)
    fock = sps.FockSpace(ch)
    ident = sps.BlockOp.identity(fock)
    ns, vals = asympt.compactification_table(ch, ident, kmax=2)
    assert list(ns) == list(range(1, 7))
    assert vals.max() <= 1e-13
    e = np.eye(2)
    S = [sps.creation(ch, e[i], fock=fock) for i in range(2)]
    for a in range(2):
        for b in range(2):
            _, cov = asympt.compactification_table(ch, S[a] @ S[b].adjoint(),
                                                   kmax=2)
            assert cov.max() <= 1e-13  # exactly level-covariant words
            ns2, v2 = asympt.compactification_table(ch, S[a].adjoint() @ S[b],
                                                    kmax=2)
            fit = asympt.fit_geometric(ns2[2:].astype(float), v2[2:])
            assert 0.0 < fit.t_hat <= 0.5
    with pytest.raises(ValueError):
        asympt.compactification_table(ch, ident, kmax=8)
    with pytest.raises(ValueError):
        asympt.compactification_defect(ch, S[0], 2, 2)


def _dense_defect(W, G, dl, dmu, sigma, qfac):
    """Reference: every D_(b,a) formed by einsum and a dense SVD norm."""
    dnu = W.shape[0] // dl
    Wb = W.reshape(dl, dnu, W.shape[1])
    Gb = G.reshape(dl, dmu, G.shape[1])
    A = np.einsum("aim,bin->abmn", Wb, Wb)
    worst = 0.0
    cols = np.empty((dmu * dmu, dl * dl))
    for b in range(dl):
        for a in range(dl):
            s = sigma[:, b * dl + a].reshape(dl, dl)
            D = Gb[b] @ Gb[a].T - qfac * np.tensordot(s, A, axes=([0, 1], [0, 1]))
            worst = max(worst, operator_norm(D))
            cols[:, b * dl + a] = D.reshape(-1)
    return worst, operator_norm(cols)


def _near(got, ref):
    # 1e-15 absolute; the matricized defects reach 8.9, where that is below
    # 2 ulp, so above 1 the bound is 1e-15 relative
    return abs(got - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("coords, q, M", [((1, 1), 1.0, 5), ((1, 0), 1.5, 8)])
def test_graded_norms_match_dense_norms(chains, coords, q, M):
    # rho's tensor blocks have multiplicity > 1, so the block SVD path runs
    ch = chains(coords, q, M)
    dl = ch.base.dim
    sig_h_inv, sig_l = asympt.sigma_pair(ch.base, ch.tol)
    qq = pairing(ch.lam, ch.lam)
    for n in range(1, M):
        rep = asympt.star_commute_defect_chain(ch, n)
        dmu = ch.levels[n].dim
        for got, sigma, qfac in ((rep.defect_h, sig_h_inv, q ** -qq),
                                 (rep.defect_l, sig_l, q ** qq)):
            basis, matric = _dense_defect(ch.w[n - 1], ch.w[n], dl, dmu, sigma, qfac)
            assert _near(got.basis_max, basis)
            assert _near(got.matricized, matric)

    table = asympt.conjecture_scan(chain=ch)
    for i, n in enumerate(table.ns):
        dn = ch.levels[n].dim
        Qh = decomp.highest_weight_space(repn.tensor(ch.base, ch.levels[n])).basis_matrix(dl * dn)
        D = Qh @ Qh.T
        D[::dn, ::dn] -= np.eye(dl)
        assert _near(table.c[i], np.max(np.abs(np.linalg.eigvalsh(D))))
        wn = ch.w[n]
        M4 = (wn.T @ Qh) @ Qh.T
        M4[:, 0] -= wn[0, :]
        r4 = sps._graded_norm(M4, ch._weight_keys(n + 1), ch._weight_keys(1, n), "r4")
        assert _near(r4, operator_norm(M4))

    for n in range(2, M):
        lhs, _, _ = asympt.f_estimate_check(ch, n)
        term1 = ch.right_isometry(n) @ ch.w[n].T
        term2 = np.kron(ch.w[n - 1].T, np.eye(dl)) @ np.kron(np.eye(dl), ch.right_isometry(n - 1))
        assert _near(lhs, operator_norm(term1 - term2))


def test_star_defect_rejects_an_off_block_entry(chains):
    ch = chains((1, 0), 1.5, 6)
    w = [m.copy() for m in ch.w]
    off = ch._weight_keys(1, 3)[:, None] != ch._weight_keys(4)[None, :]
    r, c = np.argwhere(off)[0]
    w[3][r, c] = 1e-13    # G = w[3] at n = 3
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, list(ch.levels), w)
    with pytest.raises(InvariantViolation, match="off the weight blocks"):
        asympt.star_commute_defect_chain(bad, 3)
