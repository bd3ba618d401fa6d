"""Highest/lowest-weight extraction, generated submodules, Cartan components,
fusion multiplicities.

All kernels are computed weight-block by weight-block (never on the whole
space): the stacked generator matrix restricted to a block is small, and the
rank certificates are much sharper there.  Blocks of the same shape share
one batched SVD, but each keeps its own rank certificate.  A tensor product
V = A (x) B carries its factors (repn.tensor); when B is simple, the
highest weights of its components are hw(B) + wt(A) (Brauer-Klimyk), the
weights of the basis vectors e_a (x) xi_B, and their lowest weights those
of e_a (x) l_B, so only the blocks of those basis vectors are ranked, the
completeness check certifies the others, and the multiplicities must equal
the component count qcore.tensor_components weight by weight.  Any other
module has every block ranked.  The blocks come from the one weight-block
layout of the package (repn._generator_stacks over QModule.column_side);
no weight is mapped to a block here or in QModule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import repn
from .numerics import (AmbiguousRank, DEFAULT_TOL, InvariantViolation,
                       ToleranceProfile, certified_rank, nullspace)
from .qcore import Weight, tensor_components, weyl_dim

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


def _extreme_weight_space(V, raising: bool, tol: ToleranceProfile,
                          blocks=None) -> HighestWeightReport:
    """Joint kernel of the E_i (raising) or F_i, one weight block at a time.

    The generator block of weight nu stacks E_i[nu + alpha_i, nu] (or
    F_i[nu - alpha_i, nu]) over i (repn._generator_stacks).  Blocks whose
    stacks have the same shape are ranked by one nullspace call, highest
    weight first; a block that no E_i (F_i) leaves is its own kernel.  Only
    the given blocks (V.column_side() numbers, ascending; every block for
    None) are ranked; the others hold no extreme vector by assumption,
    which _check_completeness certifies.
    """
    kind = "highest" if raising else "lowest"
    cs = V.column_side()   # weight blocks, highest first
    _, stacks = repn._generator_stacks(V, 1 if raising else -1, f"{kind} weight space",
                                       blocks)
    kernels = {}
    for ks, stack in stacks:
        try:
            K = nullspace(stack, tol)
        except AmbiguousRank as exc:
            exc.args = (f"{kind} weight space, weight block "
                        f"{V.weight_of(cs.corder[cs.cstart[ks[exc.index]]])}: {exc}",)
            raise
        kernels.update(zip(ks.tolist(), K))

    components = []
    for k in range(cs.keys.size) if blocks is None else blocks.tolist():
        K = kernels[k] if k in kernels else np.eye(cs.counts[k])
        if K.shape[1]:
            cols = np.zeros((V.dim, K.shape[1]))
            cols[cs.members(k), :] = _fix_signs(K)   # block rows ascend: same first entry
            components.append((V.weight_of(cs.corder[cs.cstart[k]]), cols))
    report = HighestWeightReport(components, sum(cols.shape[1] for _, cols in components))
    _check_completeness(V, report, raising)
    return report


def _check_completeness(V, report: HighestWeightReport, raising: bool):
    # Highest-weight vectors sit at dominant weights; lowest-weight vectors at
    # anti-dominant ones (the longest Weyl element negates and reverses the
    # fundamental coordinates).  Either way the isotypic dimensions must tile
    # the module exactly: each kernel vector generates a copy of V_kappa, so
    # a tiling leaves no room for an extreme vector in an unranked block.
    s = 0
    for w, cols in report.components:
        dom = w if raising else Weight(tuple(-c for c in reversed(w.coords)))
        if not dom.is_dominant:
            raise InvariantViolation(
                f"extreme vector at non-{'' if raising else 'anti-'}dominant weight {w}")
        s += cols.shape[1] * weyl_dim(dom)
    if s != V.dim:
        raise InvariantViolation(f"isotypic dimensions sum to {s}, module has dim {V.dim}")


def _counted_space(V, raising: bool, tol: ToleranceProfile) -> HighestWeightReport:
    """_extreme_weight_space of V, held to the Brauer-Klimyk count when V
    is a tensor product A (x) B of a simple B: only the blocks of the basis
    vectors e_a (x) xi_B (e_a (x) l_B for lowest weights; the weights of A
    are invariant under w0) are ranked, and InvariantViolation is raised
    unless the multiplicities of the components (a lowest weight w is that
    of the component -reversed(w)) equal tensor_components(A.weights,
    hw(B)) weight by weight."""
    A, B = V.factors or (None, None)
    if B is None or B.highest_weight is None:
        return _extreme_weight_space(V, raising, tol)
    # xi_B is basis vector 0 (QModule.hw_vector); e_a (x) e_b is a * dim B + b
    b = 0 if raising else int(B.lowest_vector.argmax())
    blocks = np.unique(V.column_side().block_of()[np.arange(A.dim) * B.dim + b])
    report = _extreme_weight_space(V, raising, tol, blocks)
    got = {w if raising else -Weight(w.coords[::-1]): m
           for w, m in report.multiplicities.items()}
    want = tensor_components(A.weights, B.highest_weight)
    if got != want:
        raise InvariantViolation(
            f"rank P^{'h' if raising else 'l'} = {report.total} != {sum(want.values())} "
            f"components of {A} (x) {B}, weight by weight {got} != {want} "
            "(Brauer-Klimyk component count)")
    return report


def highest_weight_space(V, tol: ToleranceProfile = DEFAULT_TOL) -> HighestWeightReport:
    """Joint kernel of all E_i, grouped by weight; on a tensor product with
    a simple right factor, held to its component count (_counted_space)."""
    return _counted_space(V, True, tol)


def lowest_weight_space(V, tol: ToleranceProfile = DEFAULT_TOL) -> HighestWeightReport:
    """Joint kernel of all F_i, grouped by weight; on a tensor product with
    a simple right factor, held to its component count (_counted_space)."""
    return _counted_space(V, False, tol)


def generate_submodule(V, seed, tol: ToleranceProfile = DEFAULT_TOL):
    """Close a highest-weight seed under the F_i; returns (QModule, Q).
    Raises ValueError unless the seed has dim V entries.

    The seed becomes basis vector 0 of the result exactly (phase fix).  The
    orbit is closed one weight block at a time, down the weight filtration:
    the block at weight nu is the column space of the stacked products
    F_i[nu, mu] @ B_mu of the blocks B_mu found one step up.  Its rank is
    certified_rank of their singular values against the largest local norm
    ||F_i[nu, mu]||_F; a global scale would not do, because the tensor module
    also holds weights outside the submodule whose candidates are pure
    rounding noise, and ||F_i||_F over the whole module grows like q^n.  A
    one-column candidate c takes no SVD: its singular value is ||c||, its
    basis c / ||c||.  The blocks F_i[nu, mu] are row segments of the stacks
    of [F_1; F_2; ...] in the weight-block layout of V.  Q, the isometric
    intertwiner from the submodule into V (a repn.SparseMatrix), is
    assembled from the orbit blocks B_nu with one sign fix.  The submodule
    stores the generators Q^T (F_i Q), and must pass check_module.  Its E_i
    are derived (repn.QModule.E): Q is weight-graded, so Q^T E_i Q =
    K_i (Q^T F_i Q)^T holds exactly in exact arithmetic.  The E_i of V are
    never formed here: the seed test reads E_i seed = K_i F_i^T seed off the
    triplets of each F_i with one bincount.
    """
    seed = np.asarray(seed, dtype=np.float64).reshape(-1)
    if seed.size != V.dim:
        raise ValueError(f"seed has {seed.size} entries, want dim V = {V.dim}")
    nrm = np.linalg.norm(seed)
    if nrm == 0:
        raise ValueError("zero seed")
    seed = seed / nrm
    for i, X in V.F.items():
        up = np.bincount(X.cols, weights=X.vals * seed[X.rows], minlength=V.dim)
        if np.linalg.norm(V.k_diag(i) * up) > 1e3 * tol.identity_tol:
            raise ValueError("seed is not a highest weight vector")
    support = np.nonzero(np.abs(seed) > 1e-13)[0]
    wts = V.weights[support]
    if not (wts == wts[0]).all():
        raise ValueError("seed is not weight-homogeneous")
    hw = Weight(tuple(int(c) for c in wts[0]))
    if not hw.is_dominant:
        raise ValueError(f"seed weight {hw} is not dominant")
    expected = weyl_dim(hw)

    cs = V.column_side()
    nb, block = cs.keys.size, cs.block_of()
    # The moves out of block mu are the row segments F_i[mu - alpha_i, mu]
    # of its stack, read when mu is reached; F_i maps mu into one block, so
    # ||F_i[mu - alpha_i, mu]||_F^2 sums over the columns of mu.
    lay, stacks = repn._generator_stacks(V, -1, f"orbit of highest weight {hw}")
    group, slot = np.zeros((2, nb), dtype=np.intp)
    for g, (ks, _) in enumerate(stacks):
        group[ks], slot[ks] = g, np.arange(ks.size)
    group, slot = group.tolist(), slot.tolist()
    segs = []  # per F_i, per source block: target block (-1: none), stack rows, norm
    first = np.zeros(nb, dtype=np.intp)
    for x in range(V.N - 1):
        X, src = V.F[x + 1], lay.block[x * V.dim:(x + 1) * V.dim]
        hit = src >= 0
        target = np.full(nb, -1, dtype=np.intp)
        target[src[hit]] = block[hit]
        last = first + np.bincount(src[hit], minlength=nb)
        norm = np.sqrt(np.bincount(block[X.cols], weights=X.vals ** 2, minlength=nb))
        segs.append((target.tolist(), first.tolist(), last.tolist(), norm.tolist()))
        first = last

    def moves(mu):  # (target block, F_i block, its norm) per F_i that leaves mu
        return [(t[mu], stacks[group[mu]][1][slot[mu], a[mu]:b[mu]], f[mu])
                for t, a, b, f in segs if t[mu] >= 0]

    layer = {int(block[support[0]]): seed[cs.members(block[support[0]]), None]}
    found = list(layer.items())  # (block number, orthonormal block columns)
    while layer:
        cands, scale = {}, {}  # target block -> candidate blocks, local scale
        for mu, B in layer.items():
            for nu, F, f in moves(mu):
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
                            f"{V.weight_of(cs.corder[cs.cstart[nu]])}: {exc}",)
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
    rows_of = [r for r, B in zip([nz] + [cs.members(nu) for nu, _ in found[1:]], Bs)
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
    wmat = np.repeat(V.weights[cs.corder[cs.cstart[[nu for nu, _ in found]]]],
                     [B.shape[1] for B in Bs], axis=0)
    F = {i: Q.T @ (V.F[i] @ Q) for i in range(1, V.N)}
    sub = repn.QModule(V.N, V.q, wmat, F, highest_weight=hw)
    repn.check_module(sub, tol, raise_on_fail=True)
    return sub, Q


def cartan_component(A, B, tol: ToleranceProfile = DEFAULT_TOL):
    """The copy of V_{lam+mu} inside A ox B generated by xi_lam ox xi_mu.

    Returns (QModule, isometry into the tensor product).
    """
    seed = np.kron(A.hw_vector, B.hw_vector)
    return generate_submodule(repn.tensor(A, B), seed, tol)


def fusion_multiplicities(Vl, Vm, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """nu -> multiplicity of V_nu in Vl ox Vm, read off the highest-weight
    kernels of the tensor product, which equal the Brauer-Klimyk count."""
    if Vl.highest_weight is None or Vm.highest_weight is None:
        raise ValueError("fusion_multiplicities needs simple inputs")
    return highest_weight_space(repn.tensor(Vl, Vm), tol).multiplicities
