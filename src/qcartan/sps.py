"""Cartan subproduct chains, truncated Fock spaces, shift operators, psi/Theta.

A chain holds the modules V_{n*lam} for n = 0..M together with two families of
isometric structure maps: the left maps w_n : V_{(n+1)lam} -> V_lam (x) V_{n lam}
(each level is literally constructed as the submodule generated by the product
of highest weight vectors, so the left phase law w_n xi_{(n+1)lam} =
xi_lam (x) xi_{n lam} holds *bit-exactly*: in chain coordinates every highest
weight vector is the 0-th basis vector and the seed column of w_n is one-hot),
and the right maps w'_n : V_{(n+1)lam} -> V_{n lam} (x) V_lam obtained as the
(n,1) pair isometries.

Every chain isometry w_n is a repn.SparseMatrix of canonical triplets: the
w_n are 0.2-0.7 % nonzero.  Pair isometries w_{k,l} : V_{(k+l)lam} ->
V_{k lam} (x) V_{l lam} are held as padded weight-block rows (_Rows): row r
keeps its entries in the columns of its weight block of V_{(k+l)lam}, padded
with zeros to the widest block, so no w_{k,l} has an entry off its weight
blocks.  w_{1,l} is w_l itself, laid out once by _graded_sum, which refuses
an off-block triplet; the others are built by composing the w maps
left-greedily and re-orthonormalizing once with a polar factor per weight
block (columns grouped by the weights of V_{(k+l)lam}, rows by the summed
weights of the two factors).  A factor 1 (x) W (x) 1 or W^T (x) 1 acts on
padded rows as one gather, multiply and add per place of W (_gather_add),
never as a Kronecker product or a join, and in the order in which a
bincount of the joined triplets would add, so every entry is bit-identical
to the triplet sums.  pair_isometry reads canonical triplets off the rows
once (_Rows.matrix).  Coassociativity is certified numerically rather than
assumed: one side is added into a padded buffer and the other subtracted in
place, and the norm is the largest column norm, or the largest block norm
(_layout_norm) when the columns have multiplicities, each row of a product
keeping the block of the rows it gathers.  The scan, the f-estimate and the
star defects of asympt take their norms through _graded_norm, which sums two
sets of triplets into the weight-block layout of repn (_graded_layout).  A chain builds the column
side of a layout once per domain factor tuple (CartanChain._column_side):
(t,) for every pair isometry and coassociativity triple of total t, (1, n)
for the scan and the f-estimate.

Truncated Fock space operators are kept block-per-level (BlockOp) as dense
blocks, and a block outside levels 0..M raises ValueError.  Every creation
block is scattered from the triplets of w_n or w'_n by one function
(_creation_blocks), as a stack with one block per vector: the left and
right shifts S_xi and R_xi, the transfer operator Theta and the braided
commutation residual all read it.  The compression maps psi_{n,n+k}
densify their one pair isometry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import decomp, repn
from .numerics import DEFAULT_TOL, InvariantViolation, ToleranceProfile
from .qcore import Weight, fundamental_weight, pairing
from .repn import (_Columns, _Layout, _block_layout, _columns, _graded_blocks,
                   _graded_layout, _graded_positions, _graded_sum)

__all__ = [
    "CartanChain",
    "GeneralWeightBuilder",
    "FockSpace",
    "BlockOp",
    "creation",
    "right_creation",
    "psi",
    "theta",
    "eq_comm_residual",
]

_triplets = attrgetter("rows", "cols", "vals")   # a SparseMatrix as (rows, cols, vals)


def _apply(WT: repn.SparseMatrix, X: tuple, dleft: int, dright: int) -> tuple:
    """Triplets of (1_dleft (x) W (x) 1_dright) @ X, unsummed, for W = WT.T
    and X = (rows, cols, vals).  Row (a * m + j) * dright + b of X meets
    column j of W (m columns), which is row j of the canonical WT, so the
    product is one join through the row pointers of WT; no Kronecker product
    is formed.  The caller sums the repeated positions into a layout.  Only
    the f-estimate of asympt composes triplets this way; the pair isometries
    and coassociativity compose padded rows (_gather_add)."""
    rows, cols, vals = X
    m, p = WT.shape
    j, b = np.divmod(rows, dright)
    if dleft > 1:
        a, j = np.divmod(j, m)
        b += a * (p * dright)
    x, y = repn._join(j, WT)
    return WT.cols[y] * dright + b[x], cols[x], WT.vals[y] * vals[x]


@dataclass(frozen=True)
class _Rows:
    """A weight-graded map held as padded weight-block rows.

    Row r holds its entries in the columns of its weight block block[r],
    ascending, then zeros up to the widest block: buf[r, t] is the entry in
    column corder[cstart[block[r]] + t].  corder and cstart are those of the
    column side (_Columns) for a pair isometry, and the rows of W grouped by
    block for W^T (_transposed_rows).  A map of multiplicity-free columns has
    one place per row and no padding.
    """

    buf: np.ndarray      # (rows, width) float64
    block: np.ndarray    # block of each row
    corder: np.ndarray   # columns grouped by block, ascending in each
    cstart: np.ndarray   # offset of each block in corder

    def columns(self) -> np.ndarray:
        """(rows, width): the column of every place, and on the padding some
        column, whose entry is zero."""
        return self.corder.take(self.cstart[self.block][:, None] + np.arange(self.buf.shape[1]),
                                mode="clip")

    def matrix(self, ncols: int) -> repn.SparseMatrix:
        """The nonzero entries as canonical triplets, without a sort."""
        pos = np.flatnonzero(self.buf)
        r, t = np.divmod(pos, self.buf.shape[1])
        return repn.SparseMatrix._canonical((self.buf.shape[0], ncols), r,
                                            self.corder[self.cstart[self.block[r]] + t],
                                            self.buf.ravel()[pos])


def _padding(lay: _Layout, width: int) -> np.ndarray:
    """Mask (rows, width) of the places of a layout's rows that hold entries:
    the compact buffer is the padded buffer at the mask, row-major."""
    return np.arange(width) < lay.width[:, None]


def _rows(buf: np.ndarray, lay: _Layout, cs: _Columns) -> _Rows:
    """The padded rows of the layout buffer buf, whose column side is cs."""
    keep = _padding(lay, int(cs.counts.max(initial=0)))
    out = np.zeros(keep.shape)
    out[keep] = buf
    return _Rows(out, lay.block, cs.corder, cs.cstart)


def _transposed_rows(W: _Rows, cs: _Columns) -> _Rows:
    """W^T as padded rows, for W whose column side is cs.  Row c of W^T holds
    W[j, c] over the rows j of the weight block of c, ascending, padded to
    the tallest block; every row of W has a block (the weights of
    V_{k lam} (x) V_{l lam} are weights of V_{(k+l)lam})."""
    order = W.block.argsort(kind="stable")      # the rows of each block, ascending
    height = np.bincount(W.block, minlength=cs.counts.size)
    first = height.cumsum() - height
    cb = cs.block_of()
    span = np.arange(int(height.max(initial=0)))
    rows = order.take(first[cb][:, None] + span, mode="clip")
    buf = np.where(span < height[cb][:, None], W.buf[rows, cs.place_of()[:, None]], 0.0)
    return _Rows(buf, cb, order, first)


def _gather_add(out: np.ndarray, W: _Rows, X: np.ndarray, dleft: int, dright: int,
                subtract: bool = False) -> None:
    """out +-= (1_dleft (x) W (x) 1_dright) X, in place, for the padded rows
    W and the padded buffer X of one column side (X's rows (a, j, b) meet
    row j of W^T).

    Row (a, i, b) of the product has the weight of the rows (a, j, b) of X
    that W[i, j] joins, so all of them hold the same columns in the same
    places, and the product is one gather of X's rows, one multiply and one
    add per place of W, the places in ascending order.  Each entry is thus
    summed over ascending j, the order in which a bincount or subtract.at
    of the joined triplets adds; out starts at +0.0, so a padded zero adds
    nothing and the sums are bit-identical to those of the triplets.
    """
    S = X.shape[-1]
    X4 = X.reshape(dleft, -1, dright, S)
    out4 = out.reshape(dleft, W.buf.shape[0], dright, S)
    term = np.empty_like(out4)
    cols = W.columns()
    for t in range(cols.shape[1]):
        # every index is in range; "clip" spares the copy that take makes
        # of out under the default mode="raise"
        np.take(X4, cols[:, t], axis=1, out=term, mode="clip")
        term *= W.buf[:, t, None, None]
        if subtract:
            out4 -= term
        else:
            out4 += term


def _compose(W: _Rows, X: _Rows, dleft: int, dright: int) -> _Rows:
    """(1_dleft (x) W (x) 1_dright) X as padded rows (_gather_add).  Each row
    of the product has the block of the rows of X it gathers, the first of
    which is at place 0 of W."""
    out = np.zeros((dleft * W.buf.shape[0] * dright, X.buf.shape[1]))
    _gather_add(out, W, X.buf, dleft, dright)
    block = X.block.reshape(dleft, -1, dright)[:, W.corder[W.cstart[W.block]]]
    return _Rows(out, block.ravel(), X.corder, X.cstart)


def _graded_polar(buf: np.ndarray, lay: _Layout, what: str) -> np.ndarray:
    """Nearest isometry to the weight-graded buffer, one block at a time.

    Every block must have near-unit singular values.  The polar factor of
    a direct sum is the direct sum of the block polar factors, so it fills
    the same layout; a one-column block is just normalized.  buf is
    overwritten and returned.
    """
    norms, (r1, c1), blocks = _graded_blocks(buf, lay)
    if any(pos.shape[1] < pos.shape[2] for pos, _ in blocks):
        raise InvariantViolation(f"{what}: a weight block has more columns than rows")
    svds = [np.linalg.svd(S, full_matrices=False) for _, S in blocks]
    smin = min([norms.min(initial=np.inf)] + [s[:, -1].min() for _, s, _ in svds])
    if smin < 0.5:
        raise InvariantViolation(
            f"{what} composition nearly rank-deficient (sigma_min={smin:.3e})")
    buf[lay.start[r1]] /= norms[c1]
    for (pos, _), (U, _, Vt) in zip(blocks, svds):
        buf[pos] = U @ Vt
    return buf


def _graded_gram_defect(buf: np.ndarray, lay: _Layout) -> float:
    """Largest entry of |W^T W - 1| for the weight-graded buffer W: W^T W
    is the direct sum of the block Grams."""
    norms, _, blocks = _graded_blocks(buf, lay)
    res = float(np.abs(norms * norms - 1.0).max(initial=0.0))
    for _, S in blocks:
        res = max(res, float(np.abs(np.swapaxes(S, 1, 2) @ S - np.eye(S.shape[2])).max()))
    return res


def _layout_norm(buf: np.ndarray, lay: _Layout) -> float:
    """Operator norm of the weight-graded buffer: its largest block norm.

    A one-column block contributes its vector norm; no SVD of a tall
    matrix is taken.
    """
    norms, _, blocks = _graded_blocks(buf, lay)
    worst = float(norms.max(initial=0.0))
    for _, S in blocks:
        worst = max(worst, float(np.linalg.svd(S, compute_uv=False)[:, 0].max()))
    return worst


def _graded_norm(rows: np.ndarray, cols: _Columns, what: str, plus: tuple,
                 minus: tuple = None) -> float:
    """Operator norm of plus - minus, two sets of triplets of a weight-graded
    map whose rows have the weight keys rows and whose columns have the
    column side cols.  plus is summed into the layout by one bincount and
    minus subtracted in place, each position in triplet order, so nothing is
    sorted.  Every weight-graded norm of triplets goes through here (the
    scan, the f-estimate, the star defects) and rejects an entry off the
    weight blocks, even one that the other side would cancel."""
    lay = _graded_layout(rows, cols)
    buf = _graded_sum(lay, *plus, what)
    if minus is not None:
        r, c, v = minus
        np.subtract.at(buf, _graded_positions(lay, r, c, v, what), v)
    return _layout_norm(buf, lay)


class CartanChain:
    """Levels V_{n*lam}, n = 0..M, with left/right structure isometries.

    levels[n]   -- QModule for V_{n lam} (level 0 is the trivial module)
    w[n]        -- left isometry V_{(n+1)lam} -> V_lam (x) V_{n lam}, n <= M-1
    tensor(n)   -- V_lam (x) V_{n lam}, 1 <= n <= M-1, kept from the build
    M           -- the top level, len(w)
    All highest weight vectors are basis vector 0 of their level.  Levels
    are built only by extend(M): the constructor sets up levels 0 and 1 and
    extends, and a chain from from_parts (a loaded cache) extends the same way.
    """

    # Read-only; perfbench/tracer.py reads it to count wide builds.
    work_dtype = np.dtype(np.float64)

    def __init__(self, lam: Weight, q: float, M: int,
                 tol: ToleranceProfile = DEFAULT_TOL):
        if not lam.is_dominant or all(c == 0 for c in lam.coords):
            raise ValueError(f"chain weight must be dominant nonzero, got {lam}")
        if M < 1:
            raise ValueError("chain needs at least one level above the vacuum")
        base = GeneralWeightBuilder(lam.N, q, tol).module(lam)
        self._setup(lam, q, tol, [repn.trivial_module(lam.N, float(q)), base],
                    [repn.SparseMatrix.identity(base.dim)])   # V_lam -> V_lam (x) V_0
        self.extend(M)

    def _setup(self, lam: Weight, q: float, tol: ToleranceProfile, levels, w) -> None:
        self.lam, self.q, self.tol, self.N = lam, float(q), tol, lam.N
        self.levels, self.w, self.base = list(levels), list(w), levels[1]
        self._tensors, self._pair_cache, self._transposed = {}, {}, {}
        self._pair_matrix = {}   # pair_isometry's triplets, read once off _pair_cache

    @property
    def M(self) -> int:
        return len(self.w)

    def extend(self, M: int) -> "CartanChain":
        """Build levels self.M + 1 .. M in place and return the chain.

        Each level is built in float64 from the one below and must pass the
        backward-relative check_module inside generate_submodule, so deep
        roundoff stays a few ulp of the products it checks.  A level is
        kept once certified: an exception leaves the chain at its deepest
        certified level.  Either way the weight radix is recomputed and the
        column sides keyed by it are dropped.  Raises ValueError for M < self.M.
        """
        if M < self.M:
            raise ValueError(f"cannot extend the chain to M={M}: it has levels 0..{self.M}")
        try:
            for n in range(self.M, M):
                T = repn.tensor(self.base, self.levels[n])
                seed = np.kron(self.base.hw_vector, self.levels[n].hw_vector)
                sub, Q = decomp.generate_submodule(T, seed, self.tol)
                self._tensors[n] = T
                self.levels.append(sub)
                self.w.append(Q)
        finally:   # a radix keying sums of up to three level weights
            bound = 3 * max(int(np.abs(lv.weights).max(initial=0)) for lv in self.levels)
            self._radix, self._column_cache = repn._radix(bound, self.N - 1), {}
        return self

    @classmethod
    def from_parts(cls, lam: Weight, q: float, M: int, tol: ToleranceProfile,
                   levels: list, w: list) -> "CartanChain":
        """Reassemble a chain from stored levels and isometries (no rebuild);
        it extends like a built chain.

        Only shape bookkeeping is checked here; callers that read the parts
        from disk must re-verify substance (check_module per level and
        coassociativity) before trusting the instance.  Dense isometries
        are converted to SparseMatrix triplets.
        """
        if M < 1 or len(levels) != M + 1 or len(w) != M:
            raise ValueError(f"need M >= 1, M+1 levels and M isometries, got M={M}")
        self = cls.__new__(cls)
        self._setup(lam, q, tol, levels, [repn._as_sparse(m) for m in w])
        for n, mat in enumerate(self.w):
            want = (self.base.dim * levels[n].dim, levels[n + 1].dim)
            if mat.shape != want:
                raise ValueError(f"isometry {n} has shape {mat.shape}, want {want}")
        return self.extend(M)

    # -- basic accessors ---------------------------------------------------

    @property
    def dims(self) -> list:
        return [lv.dim for lv in self.levels]

    def _check_level(self, n: int, what: str, lo: int, hi: int) -> None:
        """ValueError naming the level n and the range unless lo <= n <= hi."""
        if not lo <= n <= hi:
            raise ValueError(f"no {what} at level {n}: the chain has {what}s at levels {lo}..{hi}")

    def tensor(self, n: int) -> repn.QModule:
        """V_lam (x) V_{n lam}, 1 <= n <= M - 1: the module level n + 1 was
        generated in, kept from the build (formed on first use after
        from_parts).  Raises ValueError for any other n."""
        self._check_level(n, "tensor", 1, self.M - 1)
        if n not in self._tensors:
            self._tensors[n] = repn.tensor(self.base, self.levels[n])
        return self._tensors[n]

    def hw_vector(self, n: int) -> np.ndarray:
        self._check_level(n, "highest weight vector", 0, self.M)
        return self.levels[n].hw_vector

    def lowest_vector(self, n: int) -> np.ndarray:
        """Unit lowest weight vector of level n, QModule.lowest_vector.
        Raises ValueError unless 0 <= n <= M."""
        self._check_level(n, "lowest weight vector", 0, self.M)
        return self.levels[n].lowest_vector

    # -- pair isometries ----------------------------------------------------

    def _weight_keys(self, *ns: int) -> np.ndarray:
        """One integer per basis vector of V_{n1 lam} (x) ... (x) V_{nr lam},
        equal exactly when the weights are equal."""
        keys = np.zeros(1, dtype=np.int64)
        for n in ns:
            keys = (keys[:, None] + self.levels[n].weights @ self._radix).reshape(-1)
        return keys

    def _column_side(self, *ns: int) -> _Columns:
        """Column side of the weight-block layouts of maps out of
        V_{n1 lam} (x) ... (x) V_{nr lam}, built once per factor tuple."""
        if ns not in self._column_cache:
            self._column_cache[ns] = _columns(self._weight_keys(*ns))
        return self._column_cache[ns]

    def _pair(self, k: int, l: int) -> _Rows:
        """w_{k,l} as padded rows, k, l >= 1, built once.  For k = 1 it is
        w_l itself, laid out by _graded_sum, which refuses an entry off the
        weight blocks; for k >= 2 the composition
        (w_{k-1}^T (x) 1)(1 (x) w_{k-1,l}) w_{k+l-1}, polar-corrected per
        weight block.  Its rows keep the blocks of the rows the composition
        gathers, so no weight key is searched."""
        key = (k, l)
        if key not in self._pair_cache:
            cs = self._column_side(k + l)
            if k == 1:
                lay = _graded_layout(self._weight_keys(1, l), cs)
                P = _rows(_graded_sum(lay, *_triplets(self.w[l]), f"isometry w_{l}"), lay, cs)
            else:
                what = f"pair isometry ({k},{l})"
                # (1 (x) w_{k-1,l}) w_{k+l-1}, into V_lam (x) V_{(k-1)lam} (x) V_{l lam}
                Y = _compose(self._pair(k - 1, l), self._pair(1, k + l - 1), self.base.dim, 1)
                # then w_{k-1}^T (x) 1
                if k - 1 not in self._transposed:
                    self._transposed[k - 1] = _transposed_rows(self._pair(1, k - 1),
                                                               self._column_side(k))
                P = _compose(self._transposed[k - 1], Y, 1, self.levels[l].dim)
                lay = _block_layout(P.block, cs)
                keep = _padding(lay, P.buf.shape[1])
                buf = _graded_polar(P.buf[keep], lay, what)
                res = _graded_gram_defect(buf, lay)
                if res > self.tol.identity_tol:
                    raise InvariantViolation(f"{what} not isometric: {res:.3e}")
                P.buf[keep] = buf
            self._pair_cache[key] = P
        return self._pair_cache[key]

    def pair_isometry(self, k: int, l: int) -> repn.SparseMatrix:
        """w_{k,l}: V_{(k+l)lam} -> V_{k lam} (x) V_{l lam}, polar-corrected,
        as triplets read off its padded rows on the first call and kept
        (w_l itself for k = 1)."""
        if min(k, l) < 0:
            raise ValueError(f"pair ({k},{l}) has a negative level")
        if k + l > self.M:
            raise ValueError(f"pair ({k},{l}) exceeds truncation {self.M}")
        if k == 0 or l == 0:
            return repn.SparseMatrix.identity(self.levels[k + l].dim)
        if k == 1:
            return self.w[l]
        if (k, l) not in self._pair_matrix:
            self._pair_matrix[k, l] = self._pair(k, l).matrix(self.levels[k + l].dim)
        return self._pair_matrix[k, l]

    def right_isometry(self, n: int) -> repn.SparseMatrix:
        """w'_n: V_{(n+1)lam} -> V_{n lam} (x) V_lam."""
        return self.pair_isometry(n, 1)

    def coassociativity_residual(self, k: int, l: int, n: int) -> float:
        """|| (w_{k,l} (x) 1) w_{k+l,n} - (1 (x) w_{l,n}) w_{k,l+n} ||.

        Both sides are composed on the padded rows of the pair isometries
        (_gather_add): the left side is added into one buffer and the right
        side subtracted in place.  The rows of the difference keep the
        blocks of the rows of w_{k+l,n} that they gather, so the norm needs
        no layout search: the largest column norm when V_{(k+l+n)lam} is
        multiplicity-free (one bincount, the sum _layout_norm takes for
        one-column blocks, without building the layout), the largest block
        norm (_layout_norm) otherwise.
        Raises ValueError for a negative level or k + l + n > M.
        """
        if min(k, l, n) < 0:
            raise ValueError(f"triple ({k},{l},{n}) has a negative level")
        if k + l + n > self.M:
            raise ValueError(f"triple ({k},{l},{n}) exceeds truncation {self.M}")
        if min(k, l, n) == 0:
            return 0.0
        D = _compose(self._pair(k, l), self._pair(k + l, n), 1, self.levels[n].dim)
        _gather_add(D.buf, self._pair(l, n), self._pair(k, l + n).buf, self.levels[k].dim, 1,
                    subtract=True)
        if D.buf.shape[1] == 1:   # multiplicity-free: the largest column norm
            sq = np.bincount(D.corder[D.cstart[D.block]], weights=D.buf[:, 0] * D.buf[:, 0],
                             minlength=self.levels[k + l + n].dim)
            return float(np.sqrt(sq).max(initial=0.0))
        lay = _block_layout(D.block, self._column_side(k + l + n))
        return _layout_norm(D.buf[_padding(lay, D.buf.shape[1])], lay)

    def certify_coassociativity(self, max_total: int | None = None) -> float:
        """Max residual over all k,l,n >= 1 with k+l+n <= max_total."""
        t = self.M if max_total is None else min(max_total, self.M)
        worst = 0.0
        for k in range(1, t - 1):
            for l in range(1, t - k):
                for n in range(1, t - k - l + 1):
                    worst = max(worst, self.coassociativity_residual(k, l, n))
        return worst

    def __repr__(self):
        return (f"CartanChain(lam={self.lam}, q={self.q}, M={self.M}, "
                f"dims={self.dims})")


class GeneralWeightBuilder:
    """Simple modules V_mu for dominant mu, built by peeling fundamental weights.

    V_{omega_1} is the defining module; V_{omega_k} is extracted from
    V_{omega_1} (x) V_{omega_{k-1}} as the (multiplicity one) highest weight
    component at omega_k; a general V_mu is the top component of
    V_{omega_i} (x) V_{mu - omega_i} for the smallest i with mu(i) > 0.
    module(omega_k) is fundamental(k): one cached object per weight,
    whichever is called first.  Every module from the builder has its h.w.
    vector at index 0.
    """

    def __init__(self, N: int, q: float, tol: ToleranceProfile = DEFAULT_TOL):
        self.N = int(N)
        self.q = float(q)
        self.tol = tol
        self._cache: dict = {}

    def fundamental(self, k: int):
        if not 1 <= k <= self.N - 1:
            raise ValueError(f"fundamental index {k} out of range for rank {self.N - 1}")
        key = fundamental_weight(k, self.N).coords
        if key not in self._cache:
            if k == 1:
                self._cache[key] = repn.standard_module(self.N, self.q)
            else:
                std = repn.standard_module(self.N, self.q)
                T = repn.tensor(std, self.fundamental(k - 1))
                # omega_k has multiplicity one (Pieri), held to the count by decomp
                seed = decomp.highest_weight_space(T, self.tol).vectors_of(
                    fundamental_weight(k, self.N))
                sub, _ = decomp.generate_submodule(T, seed[:, 0], self.tol)
                self._cache[key] = sub
        return self._cache[key]

    def module(self, mu: Weight):
        if mu.N != self.N:
            raise ValueError("weight rank mismatch")
        if not mu.is_dominant:
            raise ValueError(f"{mu} is not dominant")
        if all(c == 0 for c in mu.coords):
            return repn.trivial_module(self.N, self.q)
        if mu.coords not in self._cache:
            i = next(k for k in range(1, self.N) if mu(k) > 0)
            rest = mu - fundamental_weight(i, self.N)
            if all(c == 0 for c in rest.coords):
                return self.fundamental(i)     # cached under the same key
            sub, _ = decomp.cartan_component(self.fundamental(i), self.module(rest), tol=self.tol)
            self._cache[mu.coords] = sub
        return self._cache[mu.coords]


# -- truncated Fock space -------------------------------------------------


class FockSpace:
    """Direct sum of the chain levels 0..M, kept as their dimensions."""

    def __init__(self, chain: CartanChain, M: int | None = None):
        self.chain = chain
        self.M = chain.M if M is None else min(M, chain.M)
        self.dims = [lv.dim for lv in chain.levels[: self.M + 1]]


@dataclass
class BlockOp:
    """Level-homogeneous operator on a truncated Fock space.

    blocks[n] maps level n to level n + shift; absent blocks are zero.
    """

    fock: FockSpace
    shift: int
    blocks: dict = field(default_factory=dict)

    def block(self, n: int) -> np.ndarray:
        """The block from level n to level n + shift; both must lie in 0..M."""
        if not (0 <= n <= self.fock.M and 0 <= n + self.shift <= self.fock.M):
            raise ValueError(f"no block from level {n} to level {n + self.shift}: "
                             f"the Fock space has levels 0..{self.fock.M}")
        if n in self.blocks:
            return self.blocks[n]
        return np.zeros((self.fock.dims[n + self.shift], self.fock.dims[n]))

    def __matmul__(self, other: "BlockOp") -> "BlockOp":
        out = BlockOp(self.fock, self.shift + other.shift)
        for n, b in other.blocks.items():
            m = n + other.shift
            if m in self.blocks:
                out.blocks[n] = self.blocks[m] @ b
        return out

    def _combine(self, other: "BlockOp", sign: float) -> "BlockOp":
        if self.shift != other.shift:
            raise ValueError("cannot add block operators of different shifts")
        out = BlockOp(self.fock, self.shift)
        for n in set(self.blocks) | set(other.blocks):
            out.blocks[n] = self.block(n) + sign * other.block(n)
        return out

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rmul__(self, scalar: float) -> "BlockOp":
        out = BlockOp(self.fock, self.shift)
        for n, b in self.blocks.items():
            out.blocks[n] = scalar * b
        return out

    def adjoint(self) -> "BlockOp":
        out = BlockOp(self.fock, -self.shift)
        for n, b in self.blocks.items():
            out.blocks[n + self.shift] = b.T
        return out

    @staticmethod
    def identity(fock: FockSpace) -> "BlockOp":
        return BlockOp(fock, 0, {n: np.eye(d) for n, d in enumerate(fock.dims)})


def _creation_blocks(chain: CartanChain, X, n: int, right: bool = False) -> np.ndarray:
    """Stack of the shifts V_{n lam} -> V_{(n+1)lam}, one per row x of X:
    left w_n^T (x (x) .), or right w'_n^T (. (x) x).

    Entry (r, c, j) sums X[r, a] w_n[a * dn + j, c] over a (on the right
    w'_n[j * dl + a, c]).  It is one bincount over the triplets of w_n
    (w'_n), so each position is summed in triplet order.  This is the only
    scatter of creation blocks: every shift operator reads it, with X = xi
    or X = eye(dim V_lam).  Raises ValueError unless 0 <= n <= M - 1 and X
    is (k, dim V_lam).
    """
    chain._check_level(n, "shift", 0, chain.M - 1)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != chain.base.dim:
        raise ValueError(f"shift vectors have shape {X.shape}, want (k, dim V_lam = {chain.base.dim})")
    dn = chain.levels[n].dim
    if right:
        W = chain.right_isometry(n)
        j, a = np.divmod(W.rows, chain.base.dim)
    else:
        W = chain.w[n]
        a, j = np.divmod(W.rows, dn)
    size = W.shape[1] * dn
    pos = np.arange(0, len(X) * size, size)[:, None] + (W.cols * dn + j)
    return np.bincount(pos.ravel(), weights=(X[:, a] * W.vals).ravel(),
                       minlength=len(X) * size).reshape(len(X), W.shape[1], dn)


def creation(chain: CartanChain, xi: np.ndarray, fock: FockSpace) -> BlockOp:
    """Left shift S_xi; the top truncation level maps to zero."""
    return BlockOp(fock, 1, {n: _creation_blocks(chain, [xi], n)[0] for n in range(fock.M)})


def right_creation(chain: CartanChain, xi: np.ndarray, fock: FockSpace) -> BlockOp:
    """Right shift R_xi; the top truncation level maps to zero."""
    return BlockOp(fock, 1, {n: _creation_blocks(chain, [xi], n, right=True)[0]
                             for n in range(fock.M)})


def psi(chain: CartanChain, n: int, k: int, T: np.ndarray) -> np.ndarray:
    """Compression w_{n,k}^T (T (x) 1) w_{n,k} : B(V_{n lam}) -> B(V_{(n+k)lam})."""
    W = chain.pair_isometry(n, k).to_dense()
    Wr = W.reshape(chain.levels[n].dim, chain.levels[k].dim, W.shape[1])
    return W.T @ np.tensordot(T, Wr, axes=([1], [0])).reshape(W.shape)


def theta(chain: CartanChain, X: BlockOp) -> BlockOp:
    """Transfer operator: Theta(X)_{n+1} = sum_i R_i|_n X_n R_i|_n^T (level 0 -> 0)."""
    if X.shift != 0:
        raise ValueError("theta acts on block-diagonal operators")
    eye = np.eye(chain.base.dim)
    out = BlockOp(X.fock, 0)
    for n, b in X.blocks.items():
        if n < X.fock.M:
            R = _creation_blocks(chain, eye, n, right=True)
            out.blocks[n + 1] = (R @ b @ R.transpose(0, 2, 1)).sum(0)
    return out


def eq_comm_residual(chain: CartanChain, sigma: np.ndarray, n: int) -> float:
    """Per-level residual of S_zeta S_xi = q^{-(lam,lam)} S^(2) sigma(zeta (x) xi).

    sigma is the braiding matrix on V_lam (x) V_lam; the identity is checked on
    the full basis grid (zeta, xi) at level n; raises ValueError unless
    0 <= n <= M - 2.
    """
    chain._check_level(n, "residual", 0, chain.M - 2)
    dl = chain.base.dim
    qfac = chain.q ** (-pairing(chain.lam, chain.lam))
    S0, S1 = (_creation_blocks(chain, np.eye(dl), k) for k in (n, n + 1))
    P = np.matmul(S1[:, None], S0[None, :]).reshape(dl * dl, -1)   # P[a, b] = S_a S_b
    return float(np.max(np.abs(P - qfac * (sigma.T @ P))))
