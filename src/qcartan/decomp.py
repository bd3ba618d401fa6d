"""Highest/lowest-weight extraction, generated submodules, Cartan components,
fusion multiplicities.

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
from .qcore import Weight, simple_root, weyl_dim

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
    out = cols.copy()
    for j in range(out.shape[1]):
        c = out[:, j]
        nz = np.nonzero(np.abs(c) > 1e-12 * np.max(np.abs(c)))[0]
        if nz.size and c[nz[0]] < 0:
            out[:, j] = -c
    return out


def _extreme_weight_space(V, raising: bool, tol: ToleranceProfile) -> HighestWeightReport:
    """Joint kernel of the E_i (raising) or F_i, one weight block at a time.

    The generator block of weight nu stacks E_i[nu + alpha_i, nu] (or
    F_i[nu - alpha_i, nu]) over i.  Blocks whose stacks have the same shape
    are gathered by one fancy index into the generators stacked row-wise and
    ranked by one nullspace call.
    """
    mats = V.E if raising else V.F
    sgn = 1 if raising else -1
    G = np.vstack([mats[i] for i in range(1, V.N)])
    blocks = V.weight_blocks()
    wts = sorted(blocks, reverse=True)
    roots = [simple_root(i, V.N).coords for i in range(1, V.N)]

    groups = {}   # shape of the stacked block -> [(weight, rows of G), ...]
    for wt in wts:
        rows = [i * V.dim + blocks[t] for i, alpha in enumerate(roots)
                if (t := tuple(w + sgn * a for w, a in zip(wt, alpha))) in blocks]
        rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp)
        groups.setdefault((rows.size, blocks[wt].size), []).append((wt, rows))

    kernels = {}
    for (m, n), entries in groups.items():
        R = np.array([rows for _, rows in entries], dtype=np.intp).reshape(len(entries), m)
        C = np.array([blocks[wt] for wt, _ in entries])
        try:
            K = nullspace(G[R[:, :, None], C[:, None, :]], tol)
        except AmbiguousRank as exc:
            exc.args = (f"{'highest' if raising else 'lowest'} weight space, "
                        f"weight block {Weight(entries[exc.index][0])}: {exc}",)
            raise
        kernels.update(zip((wt for wt, _ in entries), K))

    components = []
    total = 0
    for wt in wts:
        K = kernels[wt]
        if K.shape[1] == 0:
            continue
        cols = np.zeros((V.dim, K.shape[1]))
        cols[blocks[wt], :] = K
        components.append((Weight(wt), _fix_signs(cols)))
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
    """Close a highest-weight seed under the F_i; returns (QModule, ModuleMap).

    The seed becomes basis vector 0 of the result exactly (phase fix).  The
    orbit is closed one weight block at a time, down the weight filtration:
    the block at weight nu is the column space of the stacked products
    F_i[nu, mu] @ B_mu of the blocks B_mu found one step up.  Its rank is
    certified_rank of their singular values against the largest local norm
    ||F_i[nu, mu]||_F; a global scale would not do, because the tensor module
    also holds weights outside the submodule whose candidates are pure
    rounding noise, and ||F_i||_F over the whole module grows like q^n.  The
    projected module must pass check_module before it is returned.
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
    roots = [(i, simple_root(i, V.N).coords) for i in range(1, V.N)]
    layer = {hw.coords: seed[blocks[hw.coords], None]}
    found = list(layer.items())  # (weight, orthonormal block columns)
    while layer:
        sources = {}  # target weight nu -> [(i, mu), ...] one step up
        for mu in layer:
            for i, alpha in roots:
                nu = tuple(m - a for m, a in zip(mu, alpha))
                if nu in blocks:
                    sources.setdefault(nu, []).append((i, mu))
        next_layer = {}
        for nu, pairs in sources.items():
            parts = [V.F[i][np.ix_(blocks[nu], blocks[mu])] for i, mu in pairs]
            cand = np.hstack([f @ layer[mu] for f, (_, mu) in zip(parts, pairs)])
            U, s, _ = np.linalg.svd(cand, full_matrices=False)
            try:
                r = certified_rank(s, max(np.linalg.norm(f) for f in parts), tol)
            except AmbiguousRank as exc:
                exc.args = (f"orbit of highest weight {hw}, weight block "
                            f"{Weight(nu)}: {exc}",)
                raise
            if r:
                next_layer[nu] = _fix_signs(U[:, :r])
        found.extend(next_layer.items())
        layer = next_layer
    k = sum(B.shape[1] for _, B in found)
    if k != expected:
        raise InvariantViolation(
            f"submodule of weight {hw} has dim {k}, Weyl formula says {expected}"
        )

    Q = np.zeros((V.dim, expected))
    wmat = np.empty((expected, V.N - 1), dtype=np.int64)
    c = 0
    for nu, B in found:
        Q[blocks[nu], c:c + B.shape[1]] = B
        wmat[c:c + B.shape[1]] = nu
        c += B.shape[1]
    Q[:, 0] = seed  # exactly, entries below the support cut included

    E = {i: Q.T @ V.E[i] @ Q for i in range(1, V.N)}
    F = {i: Q.T @ V.F[i] @ Q for i in range(1, V.N)}
    sub = repn.QModule(V.N, V.q, wmat, E, F, highest_weight=hw, hw_index=0)
    repn.check_module(sub, tol, raise_on_fail=True)
    return sub, repn.ModuleMap(source=sub, target=V, matrix=Q)


def cartan_component(A, B, tensor_module=None, tol: ToleranceProfile = DEFAULT_TOL):
    """The copy of V_{lam+mu} inside A ox B generated by xi_lam ox xi_mu.

    Returns (QModule, ModuleMap isometry into the tensor product).
    """
    if A.highest_weight is None or B.highest_weight is None:
        raise ValueError("cartan_component needs simple inputs with fixed h.w. vectors")
    T = tensor_module if tensor_module is not None else repn.tensor(A, B)
    seed = np.kron(A.hw_vector, B.hw_vector)
    return generate_submodule(T, seed, tol)


def fusion_multiplicities(Vl, Vm, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """nu -> multiplicity of V_nu in Vl ox Vm, with the classical upper bound
    (and its equality criterion) enforced as invariants."""
    if Vl.highest_weight is None or Vm.highest_weight is None:
        raise ValueError("fusion_multiplicities needs simple inputs")
    mu = Vm.highest_weight
    T = repn.tensor(Vl, Vm)
    report = highest_weight_space(T, tol)
    mults = report.multiplicities

    lam_weights = [Weight(w) for w in Vl.weight_blocks().keys()]
    criterion = all(
        lp(i) + mu(i) >= -1 for lp in lam_weights for i in range(1, Vl.N)
    )
    for nu, m in mults.items():
        bound = len(Vl.weight_blocks().get((nu - mu).coords, ()))
        if m > bound:
            raise InvariantViolation(
                f"multiplicity {m} of {nu} exceeds weight-multiplicity bound {bound}"
            )
    if criterion:
        for lp in lam_weights:
            nu = mu + lp
            if not nu.is_dominant:
                continue
            bound = len(Vl.weight_blocks()[lp.coords])
            if mults.get(nu, 0) != bound:
                raise InvariantViolation(
                    f"equality criterion met but mult({nu}) = "
                    f"{mults.get(nu, 0)} != {bound}"
                )
    return mults
