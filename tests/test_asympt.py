"""Convergence tables, rate fits, star-commutation defects, vacuum limits."""

import numpy as np
import pytest

from qcartan import asympt, decomp, repn, sps
from qcartan.numerics import InvariantViolation, operator_norm
from qcartan.qcore import Weight, pairing, q_int, tensor_components


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
    w = [m.to_dense() for m in ch.w]
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


def test_commutator_decay_matches_the_per_pair_shift_operators_on_rho(chains):
    """dim V_lam = 8 and multiplicities > 1: the batched commutators equal
    [S_a^*, R_b] formed from the public shifts, pair by pair."""
    ch = chains((1, 1), 1.5, 6)
    ns, worst = asympt.commutator_decay(ch)
    fock = sps.FockSpace(ch)
    e = np.eye(ch.base.dim)
    S = [sps.creation(ch, x, fock=fock).adjoint() for x in e]
    R = [sps.right_creation(ch, x, fock=fock) for x in e]
    ref = [max(operator_norm((Sa @ Rb - Rb @ Sa).block(n)) for Sa in S for Rb in R)
           for n in ns]
    assert list(ns) == list(range(0, ch.M - 1))
    assert np.max(np.abs(worst - ref)) <= 1e-14


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


@pytest.mark.parametrize("coords, q, M", [((1, 1), 1.0, 5), ((1, 0), 1.5, 8),
                                          ((1, 0, 0), 1.5, 6)])
def test_graded_norms_match_dense_norms(chains, coords, q, M):
    # rho's tensor blocks have multiplicity > 1, so the block SVD path runs;
    # N=4 has 16 defect maps per braiding
    ch = chains(coords, q, M)
    dl = ch.base.dim
    sig_h_inv, sig_l = (s.to_dense() for s in asympt.sigma_pair(ch.base))
    qq = pairing(ch.lam, ch.lam)
    for n in range(1, M):
        rep = asympt.star_commute_defect_chain(ch, n)
        dmu = ch.levels[n].dim
        for got, sigma, qfac in ((rep.defect_h, sig_h_inv, q ** -qq),
                                 (rep.defect_l, sig_l, q ** qq)):
            basis, matric = _dense_defect(ch.w[n - 1].to_dense(), ch.w[n].to_dense(),
                                          dl, dmu, sigma, qfac)
            assert _near(got.basis_max, basis)
            assert _near(got.matricized, matric)

    table = asympt.conjecture_scan(chain=ch)
    for i, n in enumerate(table.ns):
        dn = ch.levels[n].dim
        Qh = decomp.highest_weight_space(repn.tensor(ch.base, ch.levels[n])).basis_matrix(dl * dn)
        D = Qh @ Qh.T
        D[::dn, ::dn] -= np.eye(dl)
        assert _near(table.c[i], np.max(np.abs(np.linalg.eigvalsh(D))))
        wn = ch.w[n].to_dense()
        M4 = (wn.T @ Qh) @ Qh.T
        M4[:, 0] -= wn[0, :]
        r4 = sps._graded_norm(ch._weight_keys(n + 1), ch._column_side(1, n), "r4",
                              sps._triplets(repn.SparseMatrix.from_dense(M4)))
        assert _near(r4, operator_norm(M4))

    for n in range(2, M):
        lhs, _, _ = asympt.f_estimate_check(ch, n)
        wr, w, wr1, w1 = (m.to_dense() for m in (ch.right_isometry(n), ch.w[n],
                                                 ch.right_isometry(n - 1), ch.w[n - 1]))
        term1 = wr @ w.T
        term2 = np.kron(w1.T, np.eye(dl)) @ np.kron(np.eye(dl), wr1)
        assert _near(lhs, operator_norm(term1 - term2))


def test_f_estimate_sorts_no_triplets(chains, monkeypatch):
    """Both sides of the f-estimate are summed straight into the weight-block
    layout: no triplet set is sorted to sum it."""
    ch = chains((1, 1), 1.5, 7)
    want = [asympt.f_estimate_check(ch, n) for n in range(2, ch.M)]

    def refuse(key, vals):
        raise AssertionError("sorted a triplet set")

    monkeypatch.setattr(repn, "_sum_duplicates", refuse)
    assert [asympt.f_estimate_check(ch, n) for n in range(2, ch.M)] == want


def test_scan_star_and_f_estimate_reuse_the_build_tensors(chains, monkeypatch):
    """A built chain keeps V_lam (x) V_(n lam) from its build; a chain
    reassembled from parts forms each one once, on first use."""
    ch = chains((1, 0), 1.5, 8)
    calls, tensor = [], repn.tensor

    def counted(V, W):
        calls.append(W.dim)
        return tensor(V, W)

    monkeypatch.setattr(repn, "tensor", counted)
    asympt.conjecture_scan(ch)
    asympt.star_commute_defect_chain(ch, ch.M - 1)
    asympt.f_estimate_check(ch, 3)
    assert calls == []
    re = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, ch.w)
    asympt.conjecture_scan(re)
    asympt.conjecture_scan(re)
    assert calls == [ch.levels[n].dim for n in range(1, ch.M - 1)]
    assert re.tensor(2) is re.tensor(2)


def test_star_defect_rejects_an_off_block_entry(chains):
    ch = chains((1, 0), 1.5, 6)
    w = [m.to_dense() for m in ch.w]
    off = ch._weight_keys(1, 3)[:, None] != ch._weight_keys(4)[None, :]
    r, c = np.argwhere(off)[0]
    w[3][r, c] = 1e-13    # G = w[3] at n = 3
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, list(ch.levels), w)
    with pytest.raises(InvariantViolation, match="off the weight blocks"):
        asympt.star_commute_defect_chain(bad, 3)


def test_scan_and_star_never_densify_a_level_sized_matrix(monkeypatch):
    """No matrix above dim(V_lam)^2 dim(V_{M lam}) entries is densified or
    converted from dense by the scan, the f-estimate or the star defects."""
    ch = sps.CartanChain(Weight((1, 0)), 1.5, 10)
    limit = ch.base.dim ** 2 * ch.levels[ch.M].dim
    to_dense, from_dense = repn.SparseMatrix.to_dense, repn.SparseMatrix.from_dense

    def guarded_to_dense(self):
        if self.shape[0] * self.shape[1] > limit:
            raise AssertionError(f"densified a {self.shape} matrix")
        return to_dense(self)

    def guarded_from_dense(cls, A):
        if np.size(A) > limit:
            raise AssertionError(f"converted a dense {np.shape(A)} matrix")
        return from_dense(A)

    monkeypatch.setattr(repn.SparseMatrix, "to_dense", guarded_to_dense)
    monkeypatch.setattr(repn.SparseMatrix, "from_dense", classmethod(guarded_from_dense))
    top = ch.M - asympt.GUARD_LEVELS
    table = asympt.conjecture_scan(ch)
    for n in range(2, top + 1):
        assert asympt.f_estimate_check(ch, n, table)[2]
    for n in range(1, top + 1):
        assert asympt.star_commute_defect_chain(ch, n).defect_h.basis_max < 1.0
    with pytest.raises(AssertionError, match="densified"):
        ch.w[ch.M - 1].to_dense()
    with pytest.raises(AssertionError, match="converted"):
        repn.SparseMatrix.from_dense(np.ones((limit + 1, 1)))


@pytest.mark.parametrize("coords, count", [((1,), 2), ((1, 0), 2), ((0, 1), 2),
                                           ((1, 0, 0), 2), ((0, 0, 1), 2),
                                           ((0, 1, 0), 3)])
def test_minuscule_rank_counts_the_components(chains, coords, count):
    # V_lam (x) V_{n lam} has one component per weight nu of V_lam with
    # n lam + nu dominant; the scan gates both extreme-weight ranks on it
    ch = chains(coords, 1.5, 5)
    top = ch.M - asympt.GUARD_LEVELS
    for n in range(1, top + 1):
        T = repn.tensor(ch.base, ch.levels[n])
        assert decomp.highest_weight_space(T).total == count
        assert decomp.lowest_weight_space(T).total == count
    assert list(asympt.conjecture_scan(ch).ns) == list(range(1, top + 1))


def _scan(ch):
    asympt.conjecture_scan(ch)


def _star(ch):
    asympt.star_commute_defect_chain(ch, 2)


def _f_estimate(ch):
    asympt.f_estimate_check(ch, 2)


@pytest.mark.parametrize("space, side, run", [
    pytest.param("highest_weight_space", "h", _scan, id="highest_weight_space-h"),
    pytest.param("lowest_weight_space", "l", _scan, id="lowest_weight_space-l"),
    pytest.param("highest_weight_space", "h", _star, id="star-highest_weight_space-h"),
    pytest.param("lowest_weight_space", "l", _star, id="star-lowest_weight_space-l"),
    pytest.param("highest_weight_space", "h", _f_estimate,
                 id="f_estimate-highest_weight_space-h")])
def test_minuscule_rank_gate_catches_a_dropped_column(chains, monkeypatch, space, side,
                                                      run):
    # the fault sits below the count gate of highest/lowest_weight_space
    ch = chains((0, 1), 1.5, 5)
    full = decomp._extreme_weight_space

    def dropped(V, raising, tol, weights=None):
        rep = full(V, raising, tol, weights)
        if raising != (space == "highest_weight_space") or len(rep.components) < 2:
            return rep
        return decomp.HighestWeightReport(rep.components[:-1],
                                          rep.total - rep.components[-1][1].shape[1])

    monkeypatch.setattr(decomp, "_extreme_weight_space", dropped)
    with pytest.raises(InvariantViolation, match=rf"rank P\^{side} = 1 != 2 components"):
        run(ch)


@pytest.mark.parametrize("coords, q, M", [((1, 1), 1.5, 6), ((2, 0), 1.5, 6),
                                          ((0, 1, 0), 1.5, 5), ((1, 0, 1), 1.5, 4),
                                          ((0, 2, 0), 1.5, 4)])
def test_component_count_matches_both_kernels(chains, coords, q, M):
    # non-minuscule weights, regular or not: the Brauer-Klimyk count is the
    # only rank gate these chains have
    ch = chains(coords, q, M)
    for n in range(1, M):
        want = tensor_components(ch.base.weights, ch.lam * n)
        T = ch.tensor(n)
        assert decomp.highest_weight_space(T).multiplicities == want
        lowest = decomp.lowest_weight_space(T).multiplicities
        assert {Weight(tuple(-c for c in reversed(w.coords))): m
                for w, m in lowest.items()} == want
    assert list(asympt.conjecture_scan(ch).ns) == list(range(1, M - asympt.GUARD_LEVELS + 1))


@pytest.mark.parametrize("space", ["highest_weight_space", "lowest_weight_space"])
def test_rank_gate_catches_a_relabelled_component(chains, monkeypatch, space):
    # same rank, one component moved to a weight that is no component
    ch = chains((1, 1), 1.5, 5)
    full = decomp._extreme_weight_space

    def relabelled(V, raising, tol, weights=None):
        rep = full(V, raising, tol, weights)
        if raising != (space == "highest_weight_space"):
            return rep
        (_, cols), rest = rep.components[-1], rep.components[:-1]
        return decomp.HighestWeightReport(rest + [(Weight((7, 7)), cols)], rep.total)

    monkeypatch.setattr(decomp, "_extreme_weight_space", relabelled)
    with pytest.raises(InvariantViolation, match="weight by weight"):
        asympt.conjecture_scan(ch)
