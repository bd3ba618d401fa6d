"""Chains of Cartan components, pair isometries, Fock blocks, transfer."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qcartan import asympt, braiding, cli, decomp, qda, repn, sps
from qcartan.numerics import DEFAULT_TOL, InvariantViolation, operator_norm
from qcartan.qcore import Weight, fundamental_weight, pairing_array, q_int, rho, weyl_dim


def test_chain_levels_and_dimensions(chains):
    ch = chains((1,), 1.5, 10)
    assert ch.M == 10 and ch.N == 2
    assert ch.dims == [n + 1 for n in range(11)]
    assert ch.levels[0].dim == 1  # vacuum level
    assert ch.levels[1] is ch.base
    for n, lv in enumerate(ch.levels):
        assert lv.dim == weyl_dim(Weight((n,)))
        assert lv.weight_of(0) == lv.highest_weight
    assert "CartanChain" in repr(ch)
    # every public level and isometry of a deep chain is float64
    deep = chains((1,), 1.5, 22)
    for lv in deep.levels:
        assert all(m.vals.dtype == np.float64 for m in (*lv.E.values(), *lv.F.values()))
    assert all(w.vals.dtype == np.float64 for w in deep.w)


def test_chain_isometries_intertwine_and_fix_phases(chains, intertwining_residual):
    ch = chains((1,), 1.5, 10)
    for n in range(1, ch.M):
        W = ch.w[n].to_dense()
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
    assert np.array_equal(ch.pair_isometry(0, 4).to_dense(), np.eye(5))
    assert np.array_equal(ch.pair_isometry(4, 0).to_dense(), np.eye(5))
    assert ch.pair_isometry(1, 6) is ch.w[6]
    W = ch.pair_isometry(4, 3)
    assert W.shape == (5 * 4, 8)
    Wd = W.to_dense()
    assert np.max(np.abs(Wd.T @ Wd - np.eye(8))) <= 1e-12
    assert ch.pair_isometry(4, 3) is W  # cached
    assert np.array_equal(ch.right_isometry(5).to_dense(), ch.pair_isometry(5, 1).to_dense())
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
            off = ch.pair_isometry(k, l).to_dense()[_off_block(ch, k, l)]
            assert off.size and np.all(off == 0.0), (k, l)


def _dense_coassociativity(ch, k, l, n):
    P, eye = (lambda a, b: ch.pair_isometry(a, b).to_dense()), (lambda m: np.eye(ch.levels[m].dim))
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
    w = [m.to_dense() for m in ch.w]
    w[3][:, [i, j]] = w[3][:, [i, j]] @ np.array([[c, -s], [s, c]])
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, w)
    worst = 0.0
    for k, l, n in _triples(5):
        ref = _dense_coassociativity(bad, k, l, n)
        assert abs(bad.coassociativity_residual(k, l, n) - ref) <= 1e-12 * ref + 1e-15
        worst = max(worst, ref)
    assert worst > 0.1


# The former dense composition of the pair isometries: (W (x) 1) X and
# (1 (x) W) X by reshapes, and the polar factor per weight block of a dense
# matrix whose off-block entries are exactly zero.

def _dense_apply_left(W, X, dright):
    p, m = W.shape
    return np.tensordot(W, X.reshape(m, dright, -1), axes=([1], [0])).reshape(p * dright, -1)


def _dense_apply_right(W, X, dleft):
    p, m = W.shape
    return np.matmul(W, X.reshape(dleft, m, -1)).reshape(dleft * p, -1)


def _dense_graded_polar(X, rows, cols):
    keys, inv, m = np.unique(cols, return_inverse=True, return_counts=True)
    rorder = np.argsort(rows, kind="stable")
    start = np.searchsorted(rows[rorder], keys, "left")
    h = np.searchsorted(rows[rorder], keys, "right") - start
    lengths = h[inv]
    c = np.repeat(np.arange(cols.size), lengths)
    r = rorder[np.arange(c.size) - np.repeat(np.cumsum(lengths) - lengths - start[inv], lengths)]
    v = X[r, c]
    assert np.count_nonzero(v) == np.count_nonzero(X)
    corder = np.argsort(inv, kind="stable")
    cstart = np.cumsum(m) - m
    W = np.zeros_like(X)
    W[r, c] = v / np.sqrt(np.bincount(c, weights=v * v, minlength=X.shape[1]))[c]
    for key in np.flatnonzero((h > 0) & (m > 1)):
        ri = rorder[start[key] + np.arange(h[key])]
        ci = corder[cstart[key] + np.arange(m[key])]
        U, _, Vt = np.linalg.svd(X[np.ix_(ri, ci)], full_matrices=False)
        W[np.ix_(ri, ci)] = U @ Vt
    return W


def _dense_pair_isometries(ch):
    """Every w_{k,l}, k + l <= M, k, l >= 1, by the former dense composition."""
    w = [m.to_dense() for m in ch.w]
    pairs = {(1, l): w[l] for l in range(1, ch.M)}
    for k in range(2, ch.M):
        for l in range(1, ch.M - k + 1):
            X = _dense_apply_right(pairs[k - 1, l], w[k + l - 1], ch.base.dim)
            X = _dense_apply_left(w[k - 1].T, X, ch.levels[l].dim)
            pairs[k, l] = _dense_graded_polar(X, ch._weight_keys(k, l), ch._weight_keys(k + l))
    return pairs


@pytest.mark.parametrize("coords,q,M", [((1, 0), 1.5, 8), ((1, 1), 1.0, 5)],
                         ids=["omega1-q1.5-M8", "rho-q1-M5"])
def test_pair_isometries_match_the_dense_composition(chains, coords, q, M):
    ch = chains(coords, q, M)
    for (k, l), ref in _dense_pair_isometries(ch).items():
        assert np.max(np.abs(ch.pair_isometry(k, l).to_dense() - ref)) <= 1e-14, (k, l)


def test_certify_coassociativity_never_densifies_a_tall_matrix(monkeypatch):
    """Nothing taller than w_{M-1} is densified or built by np.kron."""
    ch = sps.CartanChain(Weight((1, 0)), 1.5, 10)
    tall = ch.base.dim * ch.levels[ch.M - 1].dim
    dense, kron = repn.SparseMatrix.to_dense, np.kron

    def guarded_dense(self):
        if self.shape[0] > tall:
            raise AssertionError(f"densified a {self.shape} matrix")
        return dense(self)

    def guarded_kron(a, b):
        if np.shape(a)[0] * np.shape(b)[0] > tall:
            raise AssertionError("formed a tall Kronecker product")
        return kron(a, b)

    monkeypatch.setattr(repn.SparseMatrix, "to_dense", guarded_dense)
    monkeypatch.setattr(np, "kron", guarded_kron)
    assert ch.certify_coassociativity() <= 1e-12
    with pytest.raises(AssertionError, match="densified"):
        ch.pair_isometry(5, 5).to_dense()
    with pytest.raises(AssertionError, match="Kronecker"):
        np.kron(np.eye(2), np.eye(tall))


def test_off_block_entry_raises(chains):
    ch = chains((1, 0), 1.5, 6)
    w = [m.to_dense() for m in ch.w]
    r, c = np.argwhere(_off_block(ch, 1, 3))[0]
    w[3][r, c] = 1e-13
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, w)
    with pytest.raises(InvariantViolation, match="off the weight blocks"):
        bad.coassociativity_residual(1, 3, 1)


# The former summation of the compositions, kept as the reference of the
# weight-block layout: each side is built as a SparseMatrix (one stable
# sort of the joined triplets, duplicates summed in their given order), the
# two coassociativity sides are concatenated, and the blocks are read from
# the sorted triplets.

def _former_graded_blocks(X, rows, cols):
    off = rows[X.rows] != cols[X.cols]
    if off.any():
        raise InvariantViolation("off the weight blocks")
    norms = np.sqrt(np.bincount(X.cols, weights=X.vals * X.vals, minlength=X.shape[1]))
    keys, inv, m = np.unique(cols, return_inverse=True, return_counts=True)
    multi = m[inv] > 1
    blocks = []
    if not multi.any():
        return norms, multi, blocks
    rorder = np.argsort(rows, kind="stable")
    rsorted = rows[rorder]
    start = np.searchsorted(rsorted, keys, "left")
    h = np.searchsorted(rsorted, keys, "right") - start
    rplace = np.empty(rows.size, dtype=np.intp)
    rplace[rorder] = np.arange(rows.size) - np.searchsorted(rsorted, rsorted, "left")
    corder = np.argsort(inv, kind="stable")
    cstart = np.cumsum(m) - m
    cplace = np.empty(cols.size, dtype=np.intp)
    cplace[corder] = np.arange(cols.size) - cstart[inv[corder]]
    kt = inv[X.cols]
    stacked = (h > 0) & (m > 1)
    for shape in sorted(set(zip(h[stacked].tolist(), m[stacked].tolist()))):
        sel = np.flatnonzero((h == shape[0]) & (m == shape[1]))
        slot = np.full(keys.size, -1)
        slot[sel] = np.arange(sel.size)
        t = slot[kt] >= 0
        S = np.zeros((sel.size,) + shape)
        S[slot[kt[t]], rplace[X.rows[t]], cplace[X.cols[t]]] = X.vals[t]
        blocks.append((rorder[start[sel][:, None] + np.arange(shape[0])],
                       corder[cstart[sel][:, None] + np.arange(shape[1])], S))
    return norms, multi, blocks


def _former_graded_polar(X, rows, cols):
    norms, multi, blocks = _former_graded_blocks(X, rows, cols)
    one = ~multi[X.cols]
    parts = [(X.rows[one], X.cols[one], X.vals[one] / norms[X.cols[one]])]
    for ri, ci, S in blocks:
        U, _, Vt = np.linalg.svd(S, full_matrices=False)
        P = U @ Vt
        parts.append((np.broadcast_to(ri[:, :, None], P.shape).ravel(),
                      np.broadcast_to(ci[:, None, :], P.shape).ravel(), P.ravel()))
    return repn.SparseMatrix(X.shape, *map(np.concatenate, zip(*parts)))


def _former_graded_norm(X, rows, cols):
    norms, _, blocks = _former_graded_blocks(X, rows, cols)
    worst = float(norms.max(initial=0.0))
    for _, _, S in blocks:
        worst = max(worst, float(np.linalg.svd(S, compute_uv=False)[:, 0].max()))
    return worst


def _former_pair_isometries(ch):
    pairs = {(1, l): ch.w[l] for l in range(1, ch.M)}
    for k in range(2, ch.M):
        for l in range(1, ch.M - k + 1):
            W, dk, dl = ch.w[k + l - 1], ch.levels[k].dim, ch.levels[l].dim
            X = repn.SparseMatrix((ch.base.dim * ch.levels[k - 1].dim * dl, W.shape[1]),
                                  *sps._apply(pairs[k - 1, l].T, sps._triplets(W),
                                              ch.base.dim, 1))
            X = repn.SparseMatrix((dk * dl, W.shape[1]),
                                  *sps._apply(ch.w[k - 1], sps._triplets(X), 1, dl))
            pairs[k, l] = _former_graded_polar(X, ch._weight_keys(k, l),
                                               ch._weight_keys(k + l))
    return pairs


def _former_coassociativity(ch, k, l, n):
    P = ch.pair_isometry
    r1, c1, v1 = sps._apply(P(k, l).T, sps._triplets(P(k + l, n)), 1, ch.levels[n].dim)
    r2, c2, v2 = sps._apply(P(l, n).T, sps._triplets(P(k, l + n)), ch.levels[k].dim, 1)
    shape = (ch.levels[k].dim * ch.levels[l].dim * ch.levels[n].dim, P(k, l + n).shape[1])
    D = repn.SparseMatrix(shape, np.concatenate([r1, r2]), np.concatenate([c1, c2]),
                          np.concatenate([v1, -v2]))
    return _former_graded_norm(D, ch._weight_keys(k, l, n), ch._weight_keys(k + l + n))


@pytest.mark.parametrize("coords,q,M", [((1, 0), 1.5, 10), ((1, 1), 1.0, 5),
                                        ((1, 1), 1.5, 6), ((1, 0, 1), 1.5, 3)],
                         ids=["omega1-q1.5-M10", "rho-q1-M5", "rho-q1.5-M6", "N4-101-q1.5-M3"])
def test_layout_sums_are_bit_identical_to_the_sorted_sums(chains, coords, q, M):
    ch = chains(coords, q, M)
    for (k, l), ref in _former_pair_isometries(ch).items():
        W = ch.pair_isometry(k, l)
        for got, want in ((W.rows, ref.rows), (W.cols, ref.cols), (W.vals, ref.vals)):
            assert np.array_equal(got, want), (k, l)
    for k, l, n in _triples(M):
        assert ch.coassociativity_residual(k, l, n) == _former_coassociativity(ch, k, l, n)


# The former per-call layout, kept as the reference of the cached column
# sides: one np.unique and one stable argsort of the columns per matrix.

def _former_graded_layout(rows, cols):
    keys, inv, m = np.unique(cols, return_inverse=True, return_counts=True)
    corder = np.argsort(inv, kind="stable")
    cstart = np.cumsum(m) - m
    ccode = np.empty(cols.size, dtype=np.int64)
    ccode[corder] = np.arange(cols.size) - cstart[inv[corder]]
    ccode -= inv.astype(np.int64) << 32
    block = np.searchsorted(keys, rows)
    hit = block < keys.size
    hit[hit] = keys[block[hit]] == rows[hit]
    block[~hit] = -1
    width = np.where(hit, m[block], 0)
    start = np.cumsum(width) - width
    return sps._Layout(block, start, width, corder, cstart,
                       (block.astype(np.int64) << 32) + start, ccode, int(width.sum()))


@pytest.mark.parametrize("coords,q,M", [((1, 0), 1.5, 10), ((1, 1), 1.0, 5),
                                        ((1, 0, 0), 1.5, 6)],
                         ids=["omega1-q1.5-M10", "rho-q1-M5", "N4-q1.5-M6"])
def test_cached_column_sides_give_the_per_call_layouts(chains, coords, q, M):
    ch = chains(coords, q, M)
    ch.certify_coassociativity()
    factors = [((1, k - 1, l), (k + l,)) for k in range(2, M) for l in range(1, M - k + 1)]
    factors += [((k, l), (k + l,)) for k in range(2, M) for l in range(1, M - k + 1)]
    factors += [((k, l, n), (k + l + n,)) for k, l, n in _triples(M)]
    for rows, cols in factors:
        got = sps._graded_layout(ch._weight_keys(*rows), ch._column_side(*cols))
        want = _former_graded_layout(ch._weight_keys(*rows), ch._weight_keys(*cols))
        for f in dataclasses.fields(sps._Layout):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (rows, f.name)


def test_certify_coassociativity_builds_each_column_side_once(chains, monkeypatch):
    ch = chains((1, 0), 1.5, 10)
    fresh = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, ch.w)
    built, columns = [], sps._columns

    def counted(cols):
        built.append(cols.size)
        return columns(cols)

    monkeypatch.setattr(sps, "_columns", counted)
    assert fresh.certify_coassociativity() <= 1e-12
    # every pair isometry and triple maps out of one of the levels 3..M, and
    # w_1, laid out as the pair isometry w_{1,1}, out of level 2
    assert sorted(built) == [ch.levels[t].dim for t in range(2, ch.M + 1)]
    assert sorted(fresh._column_cache) == [(t,) for t in range(2, ch.M + 1)]


def test_off_block_triplet_in_either_side_alone_raises(chains):
    # Padded rows hold no entry off the weight blocks, so the check sits
    # where each w_n is laid out, once.  w_2 enters the triple (1,2,1) as
    # w_{1,2} and the triple (2,1,1) only through w_{2,1} and w_{2,2}.
    ch = chains((1, 0), 1.5, 6)
    w = [m.to_dense() for m in ch.w]
    r = np.flatnonzero(_off_block(ch, 1, 2)[:, 0])[0]
    w[2][r, 0] = 1e-13     # column 0 meets the highest weight rows of both sides
    for triple in ((2, 1, 1), (1, 2, 1)):
        bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels, w)
        with pytest.raises(InvariantViolation, match="off the weight blocks"):
            bad.coassociativity_residual(*triple)


def test_off_block_triplets_raise_even_when_they_cancel():
    lay = sps._graded_layout(np.array([0, 1]), sps._columns(np.array([0])))
    with pytest.raises(InvariantViolation, match="off the weight blocks"):
        sps._graded_sum(lay, np.array([0, 1, 1]), np.array([0, 0, 0]),
                        np.array([1.0, 0.5, -0.5]), "cancelling pair")


def test_certify_coassociativity_memory_peak():
    """tracemalloc peak of a rho chain's build and certificate (12.8 MB when
    the two sides were concatenated and sorted)."""
    tracemalloc.start()
    try:
        assert sps.CartanChain(Weight((1, 1)), 1.0, 5).certify_coassociativity() <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("coords,q,M", [((1, 0), 1.5, 10), ((1, 0, 0), 1.5, 6),
                                        ((1, 1), 1.0, 5)],
                         ids=["omega1-q1.5-M10", "N4-q1.5-M6", "rho-q1-M5"])
def test_lowest_vector_is_the_lowest_weight_kernel(chains, coords, q, M):
    ch = chains(coords, q, M)
    for n, lv in enumerate(ch.levels):
        ref = decomp.lowest_weight_space(lv).basis_matrix(lv.dim)
        assert ref.shape[1] == 1
        assert np.array_equal(ch.lowest_vector(n), ref[:, 0]), n


def test_lowest_vector_rejects_a_tampered_level(chains):
    ch = chains((1, 0), 1.5, 4)
    lv = ch.levels[3]
    low = int(np.flatnonzero((lv.weights == [0, -3]).all(axis=1))[0])
    F = dict(lv.F)    # an F_1 triplet in the lowest column
    F[1] = repn.SparseMatrix(F[1].shape, np.append(F[1].rows, 0), np.append(F[1].cols, low),
                             np.append(F[1].vals, 1.0))
    weights = lv.weights.copy()   # a second basis vector of the lowest weight
    weights[low - 1] = weights[low]
    hw = lv.highest_weight
    for bad_level in (repn.QModule(lv.N, lv.q, lv.weights, F, highest_weight=hw),
                      repn.QModule(lv.N, lv.q, weights, lv.F, highest_weight=hw)):
        levels = ch.levels[:3] + [bad_level] + ch.levels[4:]
        bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, levels, ch.w)
        with pytest.raises(InvariantViolation, match="no simple lowest weight"):
            bad.lowest_vector(3)
        assert np.array_equal(bad.lowest_vector(2), ch.lowest_vector(2))


def test_from_parts_round_trip(chains):
    ch = chains((1,), 1.5, 6)
    re = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol,
                                    list(ch.levels), list(ch.w))
    assert re.dims == ch.dims
    assert np.array_equal(re.w[3].to_dense(), ch.w[3].to_dense())
    assert re.coassociativity_residual(2, 2, 2) <= 1e-12
    with pytest.raises(ValueError):
        sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol,
                                   list(ch.levels)[:-1], list(ch.w))
    # a chain needs a level above the vacuum, as in the constructor
    with pytest.raises(ValueError, match="got M=0"):
        sps.CartanChain.from_parts(ch.lam, ch.q, 0, ch.tol, ch.levels[:1], [])


def test_general_weight_builder(builders):
    b = builders(3, 1.5)
    std = b.fundamental(1)
    assert std.dim == 3
    assert b.fundamental(2).dim == 3
    assert b.module(Weight((0, 0))).dim == 1
    vrho = b.module(Weight((1, 1)))
    assert vrho.dim == 8
    assert vrho.weight_of(0) == vrho.highest_weight
    assert b.module(Weight((1, 1))) is vrho  # cached
    assert repn.check_module(vrho, DEFAULT_TOL)["passed"]
    with pytest.raises(ValueError):
        b.module(Weight((1, -1)))
    with pytest.raises(ValueError):
        b.fundamental(3)


def test_builder_returns_the_fundamental_module_for_a_fundamental_weight(monkeypatch):
    """module(omega_k) is fundamental(k) whichever is called first: no
    Cartan component of V_{omega_k} (x) trivial is formed."""
    def refuse(*args, **kwargs):
        raise AssertionError("module(omega_k) took the Cartan component path")

    monkeypatch.setattr(decomp, "cartan_component", refuse)
    b = sps.GeneralWeightBuilder(4, 1.5)
    for k in (1, 2, 3):
        m = b.module(fundamental_weight(k, 4))
        assert m is b.fundamental(k) and m.highest_weight == fundamental_weight(k, 4)


# -- extend: the one level step ---------------------------------------------


def _assert_same_chain(a, b):
    """a and b agree bit for bit: levels, isometries, radix, every pair
    isometry and the coassociativity certificate."""
    assert cli._chain_mismatch(a, b) == ""
    assert a.dims == b.dims and np.array_equal(a._radix, b._radix)
    for k in range(1, a.M):
        for l in range(1, a.M - k + 1):
            assert cli._same_triplets(a.pair_isometry(k, l), b.pair_isometry(k, l)), (k, l)
    assert a.certify_coassociativity() == b.certify_coassociativity()


@pytest.mark.parametrize("coords, mid, M", [((1, 1), 4, 6), ((1, 0, 1), 3, 4)],
                         ids=["rho", "adjoint"])
def test_extend_steps_equal_one_build(chains, coords, mid, M):
    ch = sps.CartanChain(Weight(coords), 1.5, 2)
    assert ch.extend(mid) is ch and ch.M == mid
    # pair isometries and a lowest vector formed below the top stay valid above it
    low = ch.lowest_vector(mid)
    assert ch.certify_coassociativity() <= 1e-12
    ch.extend(M)
    assert ch.M == M and ch._column_cache == {}
    fresh = chains(coords, 1.5, M)
    _assert_same_chain(ch, fresh)
    assert np.array_equal(low, fresh.lowest_vector(mid))
    for n in range(1, M):
        assert cli._same_triplets(ch.tensor(n).F[1], fresh.tensor(n).F[1]), n


def test_a_loaded_chain_extends_like_a_fresh_build(chains, tmp_path):
    path = str(tmp_path / "c.qcc")
    cli.store_chain(sps.CartanChain(Weight((1, 1)), 1.5, 4), path)
    loaded = cli.load_chain(path)
    assert loaded.extend(6) is loaded
    _assert_same_chain(loaded, chains((1, 1), 1.5, 6))


def test_failed_extend_keeps_the_certified_levels(chains, monkeypatch):
    calls, generate = [], decomp.generate_submodule

    def fail_second(*args):
        calls.append(len(calls))
        if len(calls) == 2:
            raise InvariantViolation("refused level")
        return generate(*args)

    ch = sps.CartanChain(Weight((1, 0)), 1.5, 3)
    ch.certify_coassociativity()
    monkeypatch.setattr(decomp, "generate_submodule", fail_second)
    with pytest.raises(InvariantViolation, match="refused level"):
        ch.extend(6)
    monkeypatch.undo()
    # level 4 was certified before the failure at level 5 and is kept
    assert ch.M == 4 and len(ch.levels) == 5 and ch._column_cache == {}
    assert ch.dims == [weyl_dim(Weight((n, 0))) for n in range(5)]
    assert ch.tensor(3).dim == 3 * ch.levels[3].dim
    _assert_same_chain(ch, chains((1, 0), 1.5, 4))
    with pytest.raises(ValueError, match="no tensor at level 4"):
        ch.tensor(4)


def test_extend_refuses_a_level_below_the_top(chains):
    ch = sps.CartanChain(Weight((1,)), 1.5, 4)
    with pytest.raises(ValueError, match=r"cannot extend the chain to M=3: it has levels 0\.\.4"):
        ch.extend(3)
    assert ch.M == 4
    ch.extend(4)     # the top level itself: nothing to build
    assert ch.dims == [1, 2, 3, 4, 5]


def test_fock_space_layout(chains):
    ch = chains((1,), 1.5, 6)
    fock = sps.FockSpace(ch)
    assert fock.M == 6
    assert fock.dims == [1, 2, 3, 4, 5, 6, 7]
    trunc = sps.FockSpace(ch, 4)
    assert trunc.M == 4 and trunc.dims == [1, 2, 3, 4, 5]
    assert sps.FockSpace(ch, 99).M == 6  # clamped to the chain depth


def test_block_outside_the_fock_space_raises(chains):
    ch = chains((1,), 1.5, 4)
    fock = sps.FockSpace(ch)
    S = sps.creation(ch, np.array([0.6, 0.8]), fock=fock)
    A = S.adjoint()
    for op, n in ((A, 0), (S, 4), (S, -1), (A, 5), (sps.BlockOp.identity(fock), 5)):
        with pytest.raises(ValueError, match=f"no block from level {n} to level "
                                             f"{n + op.shift}: .* levels 0..4"):
            op.block(n)
    assert S.block(3).shape == (5, 4) and A.block(1).shape == (1, 2)
    assert (S @ A).block(0).shape == (1, 1)   # absent, and in range: a zero block


def test_block_op_algebra(chains):
    ch = chains((1,), 1.5, 6)
    fock = sps.FockSpace(ch)
    S = sps.creation(ch, np.array([0.6, 0.8]), fock=fock)
    assert S.shift == 1
    A = S.adjoint()
    assert A.shift == -1
    assert np.array_equal(A.block(3), S.block(2).T)
    X = S @ A
    assert X.shift == 0
    assert np.array_equal(X.block(3), S.block(2) @ S.block(2).T)
    # an absent block is the zero block of its levels
    assert 0 not in X.blocks and np.array_equal(X.block(0), np.zeros((1, 1)))
    ident = sps.BlockOp.identity(fock)
    Y = X + ident
    assert np.array_equal(Y.block(3), X.block(3) + np.eye(4))
    assert np.array_equal((Y - ident).block(3), Y.block(3) - np.eye(4))
    Z = 2.0 * X
    assert np.array_equal(Z.block(3), 2.0 * X.block(3))
    with pytest.raises(ValueError):
        S + A


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


def test_shift_operators_never_densify_a_sparse_matrix(chains, monkeypatch):
    """Every shift operator is scattered from triplets: no to_dense call."""
    ch = chains((1, 0), 1.5, 6)
    sigma = braiding.braid_sigma(ch.base, ch.base).matrix
    fock = sps.FockSpace(ch)

    def refuse(self):
        raise AssertionError(f"densified a {self.shape} matrix")

    monkeypatch.setattr(repn.SparseMatrix, "to_dense", refuse)
    assert sps.eq_comm_residual(ch, sigma, 2) <= 1e-12
    Y = sps.theta(ch, sps.BlockOp(fock, 0, {2: np.eye(ch.levels[2].dim)}))
    assert np.max(np.abs(Y.block(3) - np.eye(ch.levels[3].dim))) <= 1e-12
    ns, worst = asympt.commutator_decay(ch)
    assert len(ns) == ch.M - 1 and worst[0] == 1.0
    xi = np.array([0.6, 0.8, 0.0])
    assert np.max(asympt.vacuum_limits(ch, xi, xi)["residual_creation"]) <= 1e-14
    U = qda.chain_intertwiners(ch, ch.M)
    assert np.max(np.abs(U[4].T @ U[4] - np.eye(U[4].shape[1]))) <= 1e-10


def test_creation_blocks_stack_the_single_vector_shifts(chains):
    """Row r of a stack is the shift of the r-th vector, left and right."""
    ch = chains((1, 1), 1.5, 4)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, ch.base.dim))
    for n in range(ch.M):
        for right in (False, True):
            stack = sps._creation_blocks(ch, X, n, right)
            assert stack.shape == (3, ch.levels[n + 1].dim, ch.levels[n].dim)
            for x, block in zip(X, stack):
                assert np.array_equal(sps._creation_blocks(ch, [x], n, right)[0], block)
    # S_xi = w_n^T (xi (x) .) and R_xi = w'_n^T (. (x) xi)
    n, xi = 2, X[0]
    dn = ch.levels[n].dim
    ident = np.eye(dn)
    W, Wr = ch.w[n].to_dense(), ch.right_isometry(n).to_dense()
    assert np.max(np.abs(sps._creation_blocks(ch, [xi], n)[0]
                         - W.T @ np.kron(xi[:, None], ident))) <= 1e-14
    assert np.max(np.abs(sps._creation_blocks(ch, [xi], n, right=True)[0]
                         - Wr.T @ np.kron(ident, xi[:, None]))) <= 1e-14


def _q_dim(mu: Weight, q: float) -> float:
    """qdim V_mu by Weyl: prod over alpha_i + ... + alpha_j of
    [(mu + rho, alpha)]_q / [(rho, alpha)]_q."""
    c, out = mu.coords, 1.0
    for i in range(len(c)):
        for j in range(i, len(c)):
            out *= q_int(sum(c[i:j + 1]) + j - i + 1, q) / q_int(j - i + 1, q)
    return out


def _partial_trace_residual(ch, n: int) -> float:
    """max |sum_a q^(2 rho, wt e_a) S_a^T S_a - r 1| / r on V_{n lam}, with
    r = qdim V_{(n+1) lam} / qdim V_{n lam} and S_a the left shifts of the
    basis vectors e_a of V_lam (the left partial q-trace of w_n w_n^T, a
    scalar by Schur exactly when w_n intertwines)."""
    S = sps._creation_blocks(ch, np.eye(ch.base.dim), n)
    c = ch.q ** pairing_array(2 * rho(ch.N).as_array()[None, :], ch.base.weights, ch.N)[0]
    gram = np.einsum("a,aji,ajk->ik", c, S, S)
    r = _q_dim(ch.lam * (n + 1), ch.q) / _q_dim(ch.lam * n, ch.q)
    return float(np.max(np.abs(gram - r * np.eye(gram.shape[0]))) / r)


@pytest.mark.parametrize("coords, q, M", [((1, 0, 0), 1.5, 8), ((0, 1, 0), 2.0, 5),
                                          ((1, 1), 0.7, 5), ((1, 1), 1.0, 5),
                                          ((1, 1), 1.5, 5), ((1, 0, 1), 1.5, 3)])
def test_isometries_satisfy_the_partial_trace_identity(chains, coords, q, M):
    ch = chains(coords, q, M)
    for n in range(ch.M):
        assert _partial_trace_residual(ch, n) <= 1e-13


def test_partial_trace_identity_sees_an_isometry_leave_its_component(chains):
    # mix into column j of w_2 a unit vector v of the same weight block of
    # V_lam (x) V_{2 lam}, orthogonal to every column of w_2: the map stays
    # graded and isometric, and the levels pass check_module, but it no
    # longer intertwines
    ch = chains((1, 1), 1.5, 4)
    T, top, W = ch.tensor(2), ch.levels[3], ch.w[2].to_dense()
    for j in range(top.dim):
        block = np.flatnonzero((T.weights == top.weights[j]).all(axis=1))
        cols = np.flatnonzero((top.weights == top.weights[j]).all(axis=1))
        if block.size > cols.size:
            break
    U = np.linalg.svd(W[block][:, cols])[0]
    v = np.zeros(T.dim)
    v[block] = U[:, cols.size]
    theta = 0.3
    Wm = W.copy()
    Wm[:, j] = np.cos(theta) * W[:, j] + np.sin(theta) * v
    assert np.max(np.abs(Wm.T @ Wm - np.eye(top.dim))) <= 1e-14
    graded = (T.weights[:, None, :] == top.weights[None, :, :]).all(axis=2)
    assert not Wm[~graded].any()
    bad = sps.CartanChain.from_parts(ch.lam, ch.q, ch.M, ch.tol, ch.levels,
                                     ch.w[:2] + [Wm] + ch.w[3:])
    assert all(repn.check_module(lv)["max"] <= 1e-14 for lv in bad.levels)
    assert _partial_trace_residual(ch, 2) <= 1e-13
    assert _partial_trace_residual(bad, 2) > 0.1


def test_shift_operators_refuse_a_vector_of_the_wrong_length(chains):
    """Every shift reads _creation_blocks, which wants rows of length dim V_lam
    (3 here): a longer vector must not be truncated, nor a shorter one index
    out of range."""
    ch = chains((1, 0), 1.5, 5)
    fock = sps.FockSpace(ch, 4)
    for xi in (np.ones(5), np.ones(2)):
        for shift in (sps.creation, sps.right_creation):
            with pytest.raises(ValueError, match=r"want \(k, dim V_lam = 3\)"):
                shift(ch, xi, fock)
        with pytest.raises(ValueError, match="dim V_lam = 3"):
            asympt.vacuum_limits(ch, xi, xi)
    with pytest.raises(ValueError, match="dim V_lam = 3"):
        sps._creation_blocks(ch, np.ones(3), 1)   # a vector, not a stack
    # at the right length S_xi = w_n^T (xi (x) .) as before
    xi = np.array([0.6, 0.0, 0.8])
    S = sps.creation(ch, xi, fock)
    for n in range(fock.M):
        ident = np.eye(ch.levels[n].dim)
        assert np.max(np.abs(S.block(n) - ch.w[n].to_dense().T @ np.kron(xi[:, None], ident))) <= 1e-15


def test_shift_operators_refuse_a_level_outside_the_chain(chains):
    ch = chains((1,), 1.5, 4)
    eye = np.eye(ch.base.dim)
    for n in (-1, 4):
        for right in (False, True):
            with pytest.raises(ValueError, match=rf"level {n}: .* levels 0\.\.3$"):
                sps._creation_blocks(ch, eye, n, right)
    sigma = np.eye(ch.base.dim ** 2)
    for n in (-1, 3):
        with pytest.raises(ValueError, match=rf"level {n}: .* levels 0\.\.2$"):
            sps.eq_comm_residual(ch, sigma, n)
    assert sps._creation_blocks(ch, eye, 3).shape == (2, 5, 4)
    assert np.isfinite(sps.eq_comm_residual(ch, sigma, 2))


def test_pair_isometries_refuse_negative_levels(chains):
    ch = chains((1,), 1.5, 4)
    for k, l in ((0, -1), (2, -1), (-1, 2), (-1, 0)):
        with pytest.raises(ValueError, match=rf"pair \({k},{l}\) has a negative level"):
            ch.pair_isometry(k, l)
    for k, l, n in ((-1, 2, 2), (1, 1, -1), (0, -1, 1)):
        with pytest.raises(ValueError, match=rf"triple \({k},{l},{n}\) has a negative level"):
            ch.coassociativity_residual(k, l, n)
    assert ch.pair_isometry(0, 2).shape == (3, 3)


def test_coassociativity_refuses_a_triple_beyond_the_truncation(chains):
    ch = chains((1, 0), 1.5, 6)
    for k, l, n in ((2, 2, 3), (2, 2, 10), (0, 3, 4)):
        with pytest.raises(ValueError, match=rf"triple \({k},{l},{n}\) exceeds truncation 6"):
            ch.coassociativity_residual(k, l, n)
    assert ch.coassociativity_residual(2, 2, 2) <= 1e-12
    assert ch.coassociativity_residual(0, 3, 3) == 0.0


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


def test_chain_build_and_scan_never_densify_a_large_generator(monkeypatch):
    """Generators above dim V_lam stay sparse through the build and the scan."""
    dense = repn.SparseMatrix.to_dense
    dl = 3

    def guarded(self):
        if self.shape[0] == self.shape[1] > dl:
            raise AssertionError(f"densified a {self.shape} generator")
        return dense(self)

    monkeypatch.setattr(repn.SparseMatrix, "to_dense", guarded)
    ch = sps.CartanChain(Weight((1, 0)), 1.5, 8)
    assert ch.base.dim == dl
    assert len(asympt.conjecture_scan(ch).ns) > 0
    with pytest.raises(AssertionError, match="densified"):
        ch.levels[4].E[1].to_dense()


def test_chain_accessors_refuse_a_level_outside_the_chain(chains):
    ch = chains((1,), 1.5, 4)
    for n in (-1, 5):
        for get in (ch.hw_vector, ch.lowest_vector):
            with pytest.raises(ValueError, match=rf"vector at level {n}: .* levels 0\.\.4$"):
                get(n)
    for n in (-1, 0, 4):
        with pytest.raises(ValueError, match=rf"no tensor at level {n}: .* levels 1\.\.3$"):
            ch.tensor(n)
    assert ch.hw_vector(4)[0] == 1.0 and ch.lowest_vector(0).tolist() == [1.0]
    assert ch.tensor(3).factors == (ch.base, ch.levels[3])
