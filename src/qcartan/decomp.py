"""Highest/lowest-weight extraction, generated submodules, Cartan components,
fusion multiplicities (checked against the Brauer-Klimyk count).

All kernels are computed weight-block by weight-block (never on the whole
space): the stacked generator matrix restricted to a block is small, and the
rank certificates are much sharper there.  Blocks of the same shape share
one batched SVD, but each keeps its own rank certificate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import repn
from .numerics import (AmbiguousRank, DEFAULT_TOL, InvariantViolation,
                       ToleranceProfile, certified_rank, nullspace)
from .qcore import Weight, simple_root, tensor_components, weyl_dim

__all__ = [
    "HighestWeightReport",
    "highest_weight_space",
    "lowest_weight_space",
    "generate_submodule",
    "cartan_component",
    "fusion_multiplicities",
]


@dataclass
class HighestWeightReport:
    """Extreme-weight vectors grouped by weight; columns are full-dimension."""

    components: list  # [(Weight, ndarray of shape (dim, mult)), ...]
    total: int

    @property
    def multiplicities(self) -> dict:
        return {w: cols.shape[1] for w, cols in self.components}

    def basis_matrix(self, dim: int) -> np.ndarray:
        if not self.components:
            return np.zeros((dim, 0))
        return np.hstack([cols for _, cols in self.components])

    def vectors_of(self, w: Weight) -> np.ndarray:
        for wt, cols in self.components:
            if wt == w:
                return cols
        raise KeyError(f"no extreme vectors of weight {w}")


def _fix_signs(cols: np.ndarray) -> np.ndarray:
    """First coordinate of magnitude > 1e-12 * max is made positive."""
    mag = np.abs(cols)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    return np.where(cols[first, np.arange(cols.shape[1])] < 0, -cols, cols)


def _target_blocks(V, sgn: int) -> tuple:
    """Per generator i, the block number of wt + sgn * alpha_i for every
    weight block (numbered as in V.weight_blocks()), or -1 if V has none.

    The weights are coded as integers whose digits, in a radix above twice
    the largest shifted coordinate, are the coordinates with the last one
    leading; weight_blocks() lists the blocks in that lexicographic order,
    so the codes ascend and each generator takes one searchsorted.
    """
    wts = np.array(list(V.weight_blocks()), dtype=np.int64).reshape(-1, V.N - 1)
    radix = (2 * int(np.abs(wts).max(initial=0)) + 5) ** np.arange(V.N - 1, dtype=np.int64)
    keys = wts @ radix
    out = []
    for i in range(1, V.N):
        want = keys + sgn * int(simple_root(i, V.N).as_array() @ radix)
        k = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        out.append(np.where(keys[k] == want, k, -1).astype(np.intp))
    return tuple(out)


def _extreme_weight_space(V, raising: bool, tol: ToleranceProfile) -> HighestWeightReport:
    """Joint kernel of the E_i (raising) or F_i, one weight block at a time.

    The generator block of weight nu stacks E_i[nu + alpha_i, nu] (or
    F_i[nu - alpha_i, nu]) over i.  Blocks whose stacks have the same shape
    are ranked by one nullspace call; the generator triplets are scattered
    straight into the stacks.
    """
    mats = V.E if raising else V.F
    blocks = V.weight_blocks()
    block, place = V.block_index()
    size = np.array([ix.size for ix in blocks.values()], dtype=np.intp)
    targets = _target_blocks(V, 1 if raising else -1)
    # stacked rows of block k: the target blocks of E_1, E_2, ... in turn
    heights = np.stack([np.where(t >= 0, size[t], 0) for t in targets])
    row_off = np.cumsum(heights, axis=0) - heights
    height = heights.sum(axis=0)
    wts = list(blocks)
    order = sorted(range(len(wts)), key=wts.__getitem__, reverse=True)

    groups = {}   # shape of the stacked block -> block numbers, highest first
    for k in order:
        groups.setdefault((int(height[k]), int(size[k])), []).append(k)
    start = np.empty(len(blocks), dtype=np.intp)   # flat offset of each stack
    flat = 0
    for (m, n), ks in groups.items():
        start[ks] = flat + m * n * np.arange(len(ks))
        flat += m * n * len(ks)
    buf = np.zeros(flat)
    for t, off, X in zip(targets, row_off, (mats[i] for i in range(1, V.N))):
        k = block[X.cols]
        ok = block[X.rows] == t[k]    # entries off the weight grading are not part of it
        k = k[ok]
        buf[start[k] + (off[k] + place[X.rows[ok]]) * size[k] + place[X.cols[ok]]] = X.vals[ok]

    kernels = {}
    for (m, n), ks in groups.items():
        stack = buf[start[ks[0]]:start[ks[0]] + m * n * len(ks)].reshape(len(ks), m, n)
        try:
            K = nullspace(stack, tol)
        except AmbiguousRank as exc:
            exc.args = (f"{'highest' if raising else 'lowest'} weight space, "
                        f"weight block {Weight(wts[ks[exc.index]])}: {exc}",)
            raise
        kernels.update(zip(ks, K))

    components = []
    total = 0
    for k in order:
        K = kernels[k]
        if K.shape[1] == 0:
            continue
        cols = np.zeros((V.dim, K.shape[1]))
        cols[blocks[wts[k]], :] = _fix_signs(K)   # block rows ascend: same first entry
        components.append((Weight(wts[k]), cols))
        total += K.shape[1]
    report = HighestWeightReport(components, total)
    _check_completeness(V, report, raising)
    return report


def _check_completeness(V, report: HighestWeightReport, raising: bool):
    # Highest-weight vectors sit at dominant weights; lowest-weight vectors at
    # anti-dominant ones (the longest Weyl element negates and reverses the
    # fundamental coordinates).  Either way the isotypic dimensions must tile
    # the module exactly.
    s = 0
    for w, cols in report.components:
        if raising:
            if not w.is_dominant:
                raise InvariantViolation(f"extreme vector at non-dominant weight {w}")
            dom = w
        else:
            dom = Weight(tuple(-c for c in reversed(w.coords)))
            if not dom.is_dominant:
                raise InvariantViolation(f"extreme vector at non-anti-dominant weight {w}")
        s += cols.shape[1] * weyl_dim(dom)
    if s != V.dim:
        raise InvariantViolation(
            f"isotypic dimensions sum to {s}, module has dim {V.dim}"
        )


def highest_weight_space(V, tol: ToleranceProfile = DEFAULT_TOL) -> HighestWeightReport:
    """Joint kernel of all E_i, grouped by weight."""
    return _extreme_weight_space(V, raising=True, tol=tol)


def lowest_weight_space(V, tol: ToleranceProfile = DEFAULT_TOL) -> HighestWeightReport:
    """Joint kernel of all F_i, grouped by weight."""
    return _extreme_weight_space(V, raising=False, tol=tol)


def generate_submodule(V, seed, tol: ToleranceProfile = DEFAULT_TOL):
    """Close a highest-weight seed under the F_i; returns (QModule, Q).

    The seed becomes basis vector 0 of the result exactly (phase fix).  The
    orbit is closed one weight block at a time, down the weight filtration:
    the block at weight nu is the column space of the stacked products
    F_i[nu, mu] @ B_mu of the blocks B_mu found one step up.  Its rank is
    certified_rank of their singular values against the largest local norm
    ||F_i[nu, mu]||_F; a global scale would not do, because the tensor module
    also holds weights outside the submodule whose candidates are pure
    rounding noise, and ||F_i||_F over the whole module grows like q^n.  A
    one-column candidate c takes no SVD: its singular value is ||c||, its
    basis c / ||c||.  The projected module must pass check_module before it
    is returned.  Q is the isometric intertwiner from the submodule into V,
    a repn.SparseMatrix.

    The blocks F_i[nu, mu] come from one scatter of the triplets of each
    F_i; Q is assembled from the orbit blocks B_nu with one sign fix, and
    the generators of the submodule are Q^T (E_i Q).
    """
    seed = np.asarray(seed, dtype=np.float64).reshape(-1)
    nrm = np.linalg.norm(seed)
    if nrm == 0:
        raise ValueError("zero seed")
    seed = seed / nrm
    for i in range(1, V.N):
        if np.linalg.norm(V.E[i] @ seed) > 1e3 * tol.identity_tol:
            raise ValueError("seed is not a highest weight vector")
    support = np.nonzero(np.abs(seed) > 1e-13)[0]
    wts = V.weights[support]
    if not (wts == wts[0]).all():
        raise ValueError("seed is not weight-homogeneous")
    hw = Weight(tuple(int(c) for c in wts[0]))
    if not hw.is_dominant:
        raise ValueError(f"seed weight {hw} is not dominant")
    expected = weyl_dim(hw)

    blocks = V.weight_blocks()
    keys = list(blocks)
    block, place = V.block_index()
    size = np.array([ix.size for ix in blocks.values()], dtype=np.intp)
    # Each F_i is scattered once into its dense blocks F_i[mu - alpha_i, mu],
    # row-major in one flat buffer per generator; F_i maps block mu into that
    # one block, so ||F_i[mu - alpha_i, mu]||_F^2 sums over the columns of mu.
    moves = [[] for _ in keys]  # per block mu: (target block, F_i block, its norm)
    for t, X in zip(_target_blocks(V, -1), (V.F[i] for i in range(1, V.N))):
        src = block[X.cols]
        ok = block[X.rows] == t[src]
        k = src[ok]
        area = np.where(t >= 0, size[t] * size, 0)
        start = np.cumsum(area) - area
        buf = np.zeros(int(area.sum()))
        buf[start[k] + place[X.rows[ok]] * size[k] + place[X.cols[ok]]] = X.vals[ok]
        norm = np.sqrt(np.bincount(k, weights=X.vals[ok] ** 2, minlength=len(keys)))
        for mu, (nu, a, m, n, f) in enumerate(zip(t.tolist(), start.tolist(), size[t].tolist(),
                                                 size.tolist(), norm.tolist())):
            if nu >= 0:
                moves[mu].append((nu, buf[a:a + m * n].reshape(m, n), f))

    layer = {int(block[support[0]]): seed[blocks[hw.coords], None]}
    found = list(layer.items())  # (block number, orthonormal block columns)
    while layer:
        cands, scale = {}, {}  # target block -> candidate blocks, local scale
        for mu, B in layer.items():
            for nu, F, f in moves[mu]:
                cands.setdefault(nu, []).append(F @ B)
                scale[nu] = max(scale.get(nu, 0.0), f)
        next_layer = {}
        for nu, parts in cands.items():
            cand = np.hstack(parts) if len(parts) > 1 else parts[0]
            one = cand.shape[1] == 1
            if one:
                s = np.hypot.reduce(cand)  # ||c||, as an array of one value
            else:
                U, s, _ = np.linalg.svd(cand, full_matrices=False)
            try:
                r = certified_rank(s, scale[nu], tol)
            except AmbiguousRank as exc:
                exc.args = (f"orbit of highest weight {hw}, weight block "
                            f"{Weight(keys[nu])}: {exc}",)
                raise
            if r:
                next_layer[nu] = cand / s if one else U[:, :r]
        found.extend(next_layer.items())
        layer = next_layer
    k = sum(B.shape[1] for _, B in found)
    if k != expected:
        raise InvariantViolation(
            f"submodule of weight {hw} has dim {k}, Weyl formula says {expected}"
        )

    # Q from the orbit blocks: column 0 is the seed exactly, entries below
    # the support cut included, and each later block B_nu fills the rows of
    # weight block nu in the next B_nu.shape[1] columns.  Read column by column,
    # the blocks list Q^T in canonical order, so only Q = (Q^T)^T sorts.
    nz = np.flatnonzero(seed)
    Bs = [seed[nz, None]] + [B for _, B in found[1:]]
    rows_of = [r for r, B in zip([nz] + [blocks[keys[nu]] for nu, _ in found[1:]], Bs)
               for _ in range(B.shape[1])]
    rows = np.concatenate(rows_of)
    cols = np.repeat(np.arange(expected), [r.size for r in rows_of])
    vals = np.concatenate([B.T.ravel() for B in Bs])
    keep = vals != 0.0
    if not keep.all():
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    # One sign fix for all of Q: each column is one run of these triplets,
    # rows ascending; its first entry above 1e-12 * its largest is made > 0.
    run = np.flatnonzero(np.diff(cols, prepend=-1))
    mag = np.abs(vals)
    big = mag > 1e-12 * np.maximum.reduceat(mag, run)[cols]
    flip = vals[np.minimum.reduceat(np.where(big, np.arange(vals.size), vals.size), run)] < 0
    flip[0] = False  # column 0 stays the seed exactly
    vals = np.where(flip[cols], -vals, vals)
    Q = repn.SparseMatrix._canonical((expected, V.dim), cols, rows, vals).T
    wmat = np.repeat(np.array([keys[nu] for nu, _ in found], dtype=np.int64),
                     [B.shape[1] for B in Bs], axis=0)
    E = {i: Q.T @ (V.E[i] @ Q) for i in range(1, V.N)}
    F = {i: Q.T @ (V.F[i] @ Q) for i in range(1, V.N)}
    sub = repn.QModule(V.N, V.q, wmat, E, F, highest_weight=hw, hw_index=0)
    repn.check_module(sub, tol, raise_on_fail=True)
    return sub, Q


def cartan_component(A, B, tol: ToleranceProfile = DEFAULT_TOL):
    """The copy of V_{lam+mu} inside A ox B generated by xi_lam ox xi_mu.

    Returns (QModule, isometry into the tensor product).
    """
    if A.highest_weight is None or B.highest_weight is None:
        raise ValueError("cartan_component needs simple inputs with fixed h.w. vectors")
    seed = np.kron(A.hw_vector, B.hw_vector)
    return generate_submodule(repn.tensor(A, B), seed, tol)


def fusion_multiplicities(Vl, Vm, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """nu -> multiplicity of V_nu in Vl ox Vm, read off the highest-weight
    kernels of the tensor product; InvariantViolation unless they equal the
    Brauer-Klimyk count qcore.tensor_components."""
    if Vl.highest_weight is None or Vm.highest_weight is None:
        raise ValueError("fusion_multiplicities needs simple inputs")
    mults = highest_weight_space(repn.tensor(Vl, Vm), tol).multiplicities
    want = tensor_components(Vl.weights, Vm.highest_weight)
    if mults != want:
        raise InvariantViolation(
            f"highest-weight multiplicities {mults} != component count {want}")
    return mults
