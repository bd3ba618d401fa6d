"""Extreme-weight spaces, submodule generation, and fusion counting."""

import numpy as np
import pytest

from qcartan import decomp, repn, sps
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
    sub, Q = decomp.generate_submodule(T, seed)
    W = Q.to_dense()
    assert sub.dim == 3 == weyl_dim(Weight((2,)))
    assert sub.highest_weight == Weight((2,))
    assert sub.weight_of(0) == sub.highest_weight
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
    # a seed of the wrong length: too short, or with a spare entry zero or not
    for seed in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.5]):
        with pytest.raises(ValueError, match="want dim V = 4"):
            decomp.generate_submodule(T, seed)


def test_cartan_component_of_distinct_factors(intertwining_residual):
    q = 1.5
    A = repn.standard_module(3, q)
    sub, Q = decomp.cartan_component(A, A)
    W = Q.to_dense()
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


def test_fusion_multiplicities_reject_kernels_off_the_component_count(monkeypatch):
    std = repn.standard_module(3, 1.5)
    full = decomp._extreme_weight_space

    def relabelled(V, raising, tol, weights=None):
        rep = full(V, raising, tol, weights)
        (_, cols), rest = rep.components[0], rep.components[1:]
        return decomp.HighestWeightReport([(Weight((1, 1)), cols)] + rest, rep.total)

    monkeypatch.setattr(decomp, "_extreme_weight_space", relabelled)
    with pytest.raises(InvariantViolation, match="component count"):
        decomp.fusion_multiplicities(std, std)


def test_extreme_space_completeness_guard_fires_on_corrupt_module():
    V = repn.standard_module(2, 1.5)
    # zero out F so that extra fake lowest-weight vectors appear
    bad = repn.QModule(2, 1.5, V.weights, {1: np.zeros((2, 2))},
                       highest_weight=V.highest_weight)
    with pytest.raises(InvariantViolation):
        decomp.lowest_weight_space(bad)


def test_a_chain_build_never_forms_the_e_of_a_tensor():
    # the orbit and its seed test read the F_i of V_lam (x) V_{n lam} only
    ch = sps.CartanChain(Weight((1, 0)), 1.5, 6)
    assert all(ch.tensor(n)._E is None for n in range(1, ch.M))


def test_a_generator_entry_off_the_weight_grading_raises():
    # F_1 e2 = e3, and so E_1 e3 = q^{wt_1(e2)} e2, would be moves of F_2 and
    # E_2: the stacked generators refuse them instead of dropping them
    V = repn.standard_module(3, 1.5)
    F1 = V.F[1].to_dense()
    F1[2, 1] = 0.25
    bad = repn.QModule(3, 1.5, V.weights, {1: F1, 2: V.F[2]},
                       highest_weight=V.highest_weight)
    assert bad.E[1][1, 2] == 0.25 / 1.5
    for call, what, entry in ((decomp.highest_weight_space, "highest weight space", "1.667e-01"),
                              (decomp.lowest_weight_space, "lowest weight space", "2.500e-01"),
                              (lambda M: decomp.generate_submodule(M, M.hw_vector),
                               r"orbit of highest weight Weight\(1, 0\)", "2.500e-01")):
        with pytest.raises(InvariantViolation,
                           match=f"{what}: entry {entry} off the weight blocks"):
            call(bad)


def _weight_blocks(V):
    """Weight tuple -> ascending basis indices, one basis vector at a time."""
    blocks = {}
    for idx, row in enumerate(V.weights):
        blocks.setdefault(tuple(int(c) for c in row), []).append(idx)
    return {wt: np.array(idx) for wt, idx in blocks.items()}


def _per_block_kernels(V, raising):
    """Reference: one np.ix_ gather and one SVD per weight block."""
    mats, sgn = (V.E, 1) if raising else (V.F, -1)
    blocks = _weight_blocks(V)
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


@pytest.mark.parametrize("coords, q, M", [((1, 1), 1.5, 6), ((0, 1, 0), 1.5, 5),
                                          ((1, 0, 1), 1.5, 4), ((1, 0), 1.5, 22)])
def test_candidate_kernels_equal_the_kernels_of_every_block(chains, coords, q, M):
    # Brauer-Klimyk: the components of V_lam (x) V_{n lam} have highest
    # weights n lam + wt(V_lam), lowest weights their mirrors -reversed(w);
    # those are the blocks of e_a (x) xi_{n lam} and of e_a (x) l_{n lam}
    ch = chains(coords, q, M)
    for n in range(1, M):
        T = ch.tensor(n)
        assert T.factors == (ch.base, ch.levels[n])
        block = T.column_side().block_of()
        cand = ch.base.weights + (ch.lam * n).as_array()
        low = int(ch.levels[n].lowest_vector.argmax())
        for b, wts in ((0, cand), (low, -cand[:, ::-1])):
            ours = np.unique(block[np.arange(ch.base.dim) * ch.levels[n].dim + b])
            at = (T.weights[:, None, :] == wts[None, :, :]).all(axis=2).any(axis=1)
            assert ours.tolist() == np.unique(block[at]).tolist()
            if n > 1:
                assert ours.size < T.column_side().keys.size
        bare = repn.QModule(T.N, T.q, T.weights, T.F)   # no factors: every block
        for space in (decomp.highest_weight_space, decomp.lowest_weight_space):
            full, got = space(bare), space(T)
            assert [w for w, _ in got.components] == [w for w, _ in full.components]
            assert got.total == full.total
            for (_, a), (_, b) in zip(got.components, full.components):
                assert np.array_equal(a, b)


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


@pytest.mark.parametrize("coords, q, M", [((1,), 2.0, 12), ((1, 0), 1.5, 10),
                                          ((1, 1), 1.5, 4), ((1, 0, 0), 1.0, 5)])
def test_projected_generators_match_the_dense_projection(chains, coords, q, M):
    """Level n+1 holds Q^T E_i Q of the tensor it was cut from, Q = w_n."""
    ch = chains(coords, q, M)
    for n in range(1, M):
        T = repn.tensor(ch.base, ch.levels[n])
        Q, lev = ch.w[n], ch.levels[n + 1]
        for i in range(1, ch.N):
            for got, X in ((lev.E[i], T.E[i]), (lev.F[i], T.F[i])):
                want = Q.T @ X.to_dense() @ Q
                assert np.max(np.abs(got.to_dense() - want)) <= 1e-14 * np.max(np.abs(want))


def _per_block_orbit(T, seed, tol=DEFAULT_TOL):
    """Reference: the former orbit, one SVD and one sign fix per weight block.

    Returns the dense isometry, columns in orbit order, column 0 the seed.
    """
    blocks = _weight_blocks(T)
    seed = seed / np.linalg.norm(seed)
    hw = tuple(int(c) for c in T.weights[np.argmax(np.abs(seed))])
    layer = {hw: seed[blocks[hw], None]}
    found = list(layer.items())
    while layer:
        sources = {}  # target weight -> [(F_i[nu, mu] @ B_mu, ||F_i[nu, mu]||_F), ...]
        for mu, B in layer.items():
            for i in range(1, T.N):
                nu = tuple(w - a for w, a in zip(mu, simple_root(i, T.N).coords))
                if nu in blocks:
                    F = T.F[i][np.ix_(blocks[nu], blocks[mu])]
                    sources.setdefault(nu, []).append((F @ B, np.linalg.norm(F)))
        next_layer = {}
        for nu, parts in sources.items():
            U, s, _ = np.linalg.svd(np.hstack([c for c, _ in parts]), full_matrices=False)
            r = certified_rank(s, max(f for _, f in parts), tol)
            if r:
                next_layer[nu] = decomp._fix_signs(U[:, :r])
        found.extend(next_layer.items())
        layer = next_layer
    Q = np.zeros((T.dim, sum(B.shape[1] for _, B in found)))
    Q[:, 0] = seed
    j = 1
    for nu, B in found[1:]:
        Q[blocks[nu], j:j + B.shape[1]] = B
        j += B.shape[1]
    return Q


def _top_seed(T):
    seed = np.zeros(T.dim)
    seed[0] = 1.0
    return seed


@pytest.mark.parametrize("coords, q, M", [((1,), 2.0, 12), ((1, 0), 1.5, 10),
                                          ((1, 0, 0), 1.0, 6)])
def test_orbit_matches_the_per_block_reference(chains, coords, q, M):
    ch = chains(coords, q, M)
    for n in range(1, M):
        ref = _per_block_orbit(ch.tensor(n), _top_seed(ch.tensor(n)))
        W = ch.w[n].to_dense()
        assert W.shape == ref.shape
        assert np.max(np.abs(W - ref)) <= 1e-14


@pytest.mark.parametrize("coords, q, M", [((1, 1), 1.0, 5), ((1, 1), 1.5, 7)])
def test_orbit_spans_the_per_block_reference_with_multiplicities(chains, coords, q, M):
    # blocks of multiplicity > 1 may rotate, so compare the projectors Q Q^T;
    # both isometries are weight-graded, so only the diagonal blocks are nonzero
    ch = chains(coords, q, M)
    for n in range(1, M):
        T = ch.tensor(n)
        ref = _per_block_orbit(T, _top_seed(T))
        W = ch.w[n].to_dense()
        assert W.shape == ref.shape == (T.dim, weyl_dim(ch.lam * (n + 1)))
        for idx in _weight_blocks(T).values():
            assert np.max(np.abs(W[idx] @ W[idx].T - ref[idx] @ ref[idx].T)) <= 1e-12
        assert repn.check_module(ch.levels[n + 1], DEFAULT_TOL)["max"] <= 1e-9


def _leading_entries(W):
    """Per column, the first entry above 1e-12 times the column's largest."""
    mag = np.abs(W)
    return W[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(W.shape[1])]


@pytest.mark.parametrize("coords, q, M", [((1,), 2.0, 12), ((1, 0), 1.5, 10),
                                          ((1, 0, 0), 1.0, 6), ((1, 1), 1.0, 5),
                                          ((1, 1), 1.5, 7)])
def test_every_isometry_column_leads_with_a_positive_entry(chains, coords, q, M):
    ch = chains(coords, q, M)
    for n in range(1, M):
        assert (_leading_entries(ch.w[n].to_dense()) > 0).all()


@pytest.mark.parametrize("coords, q, n", [((1,), 2.0, 5), ((1, 1), 1.5, 3)])
def test_negated_seed_stays_column_zero_exactly(chains, coords, q, n):
    # a seed that is not a basis vector: the highest weight vector of the
    # second component of V_lam (x) V_{n lam}
    T = chains(coords, q, n + 1).tensor(n)
    seed = 3.0 * decomp.highest_weight_space(T).components[1][1][:, 0]
    _, Q = decomp.generate_submodule(T, -seed)
    W = Q.to_dense()
    assert np.array_equal(W[:, 0], -seed / np.linalg.norm(seed))
    assert _leading_entries(W)[0] < 0 and (_leading_entries(W)[1:] > 0).all()
    Wp = decomp.generate_submodule(T, seed)[1].to_dense()
    assert np.max(np.abs(W @ W.T - Wp @ Wp.T)) <= 1e-12


def test_orbit_takes_no_block_sign_fix_and_no_one_column_svd(chains, monkeypatch):
    T = chains((1, 1), 1.5, 4).tensor(3)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def no_sign_fix(cols):
        raise AssertionError("per-block sign fix")

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(decomp, "_fix_signs", no_sign_fix)
    sub, _ = decomp.generate_submodule(T, _top_seed(T))
    assert sub.dim == weyl_dim(Weight((4, 4)))
    assert shapes and all(s[1] > 1 for s in shapes)
