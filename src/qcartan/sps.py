"""Cartan subproduct chains, truncated Fock spaces, shift operators, psi/Theta.

A chain holds the modules V_{n*lam} for n = 0..M together with two families of
isometric structure maps: the left maps w_n : V_{(n+1)lam} -> V_lam (x) V_{n lam}
(each level is literally constructed as the submodule generated by the product
of highest weight vectors, so the left phase law w_n xi_{(n+1)lam} =
xi_lam (x) xi_{n lam} holds *bit-exactly*: in chain coordinates every highest
weight vector is the 0-th basis vector and the seed column of w_n is one-hot),
and the right maps w'_n : V_{(n+1)lam} -> V_{n lam} (x) V_lam obtained as the
(n,1) pair isometries.

Every isometry is a repn.SparseMatrix of canonical triplets: the w_n are
0.2-0.7 % nonzero.  Pair isometries w_{k,l} : V_{(k+l)lam} -> V_{k lam} (x)
V_{l lam} are built by composing the w maps left-greedily and
re-orthonormalizing once with a polar factor per weight block (columns
grouped by the weights of V_{(k+l)lam}, rows by the summed weights of the two
factors), so no w_{k,l} has a triplet off its weight blocks.  A factor
1 (x) W (x) 1, in any position, is applied by one function (_apply) as one
join of the triplets through the row pointers of W^T (repn._join), never as
a Kronecker product, and the joined triplets are summed unsorted into the
weight-block layout of repn (_graded_layout).  A chain builds the column
side of a layout once per domain factor tuple (CartanChain._column_side):
(t,) for every pair isometry and coassociativity triple of total t, (1, n)
for the scan and the f-estimate.  Coassociativity is certified numerically
rather than assumed, by the one graded norm (_graded_norm) that the scan,
the f-estimate and the star defects of asympt use as well: one side is
summed into the buffer, the other subtracted in place, and the norm is the
largest block norm.

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
from .repn import (_Columns, _Layout, _columns, _graded_blocks, _graded_layout,
                   _graded_matrix, _graded_positions, _graded_sum)

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
    is formed.  The caller sums the repeated positions into a layout."""
    rows, cols, vals = X
    m, p = WT.shape
    j, b = np.divmod(rows, dright)
    if dleft > 1:
        a, j = np.divmod(j, m)
        b += a * (p * dright)
    x, y = repn._join(j, WT)
    return WT.cols[y] * dright + b[x], cols[x], WT.vals[y] * vals[x]


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
    sorted.  Every weight-graded norm goes through here and rejects an entry
    off the weight blocks, even one that the other side would cancel."""
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
    All highest weight vectors are basis vector 0 of their level.
    """

    # Read-only; perfbench/tracer.py reads it to count wide builds.
    work_dtype = np.dtype(np.float64)

    def __init__(self, lam: Weight, q: float, M: int,
                 tol: ToleranceProfile = DEFAULT_TOL):
        if not lam.is_dominant or all(c == 0 for c in lam.coords):
            raise ValueError(f"chain weight must be dominant nonzero, got {lam}")
        if M < 1:
            raise ValueError("chain needs at least one level above the vacuum")
        self.lam = lam
        self.q = float(q)
        self.M = int(M)
        self.tol = tol
        self.N = lam.N
        base = GeneralWeightBuilder(self.N, q, tol).module(lam)
        if base.hw_index != 0:
            raise ValueError("chain base module must carry its h.w. vector at index 0")
        self.base = base
        dl = base.dim

        # Each level is built in float64 from the one below and must pass
        # check_module inside generate_submodule.  That gate is
        # backward-relative, so the roundoff of deep levels, which grows
        # with their q-integer-sized entries, stays a few ulp of the
        # products it checks.
        self.levels = [repn.trivial_module(self.N, self.q), base]
        self.w = [repn.SparseMatrix.identity(dl)]  # V_lam -> V_lam (x) V_0
        self._tensors = {}
        for n in range(1, M):
            T = self._tensors[n] = repn.tensor(base, self.levels[-1])
            seed = np.zeros(T.dim)
            seed[0] = 1.0  # xi_lam (x) xi_{n lam} in chain coordinates
            sub, Q = decomp.generate_submodule(T, seed, tol)
            self.levels.append(sub)
            self.w.append(Q)
        self._start_caches()

    def _start_caches(self) -> None:
        """Empty caches, and a radix keying sums of up to three level weights."""
        self._radix = repn._radix(
            3 * max(int(np.abs(lv.weights).max(initial=0)) for lv in self.levels), self.N - 1)
        self._pair_cache, self._lowest_cache, self._column_cache = {}, {}, {}

    @classmethod
    def from_parts(cls, lam: Weight, q: float, M: int, tol: ToleranceProfile,
                   levels: list, w: list) -> "CartanChain":
        """Reassemble a chain from stored levels and isometries (no rebuild).

        Only shape bookkeeping is checked here; callers that read the parts
        from disk must re-verify substance (check_module per level and
        coassociativity) before trusting the instance.  Dense isometries
        are converted to SparseMatrix triplets.
        """
        if len(levels) != M + 1 or len(w) != M:
            raise ValueError("need M+1 levels and M isometries")
        self = cls.__new__(cls)
        self.lam = lam
        self.q = float(q)
        self.M = int(M)
        self.tol = tol
        self.N = lam.N
        self.base = levels[1]
        self.levels = list(levels)
        self.w = [repn._as_sparse(m) for m in w]
        dl = self.base.dim
        for n, mat in enumerate(self.w):
            want = (dl * levels[n].dim, levels[n + 1].dim)
            if mat.shape != want:
                raise ValueError(f"isometry {n} has shape {mat.shape}, want {want}")
        self._tensors = {}
        self._start_caches()
        return self

    # -- basic accessors ---------------------------------------------------

    @property
    def dims(self) -> list:
        return [lv.dim for lv in self.levels]

    def tensor(self, n: int) -> repn.QModule:
        """V_lam (x) V_{n lam}, 1 <= n <= M - 1: the module level n + 1 was
        generated in, kept from the build (formed on first use after
        from_parts)."""
        if n not in self._tensors:
            self._tensors[n] = repn.tensor(self.base, self.levels[n])
        return self._tensors[n]

    def hw_vector(self, n: int) -> np.ndarray:
        v = np.zeros(self.levels[n].dim)
        v[0] = 1.0
        return v

    def lowest_vector(self, n: int) -> np.ndarray:
        """Unit lowest weight vector of level n (cached).

        The lowest weight w0(n lam) = -reversed(n lam) of V_{n lam} is
        simple, so the vector is the unit vector at the one basis index of
        that weight, which no F_i may move: no F_i triplet sits in its
        column.
        """
        if n not in self._lowest_cache:
            lv = self.levels[n]
            low = -n * np.array(self.lam.coords[::-1], dtype=np.int64)
            idx = np.flatnonzero((lv.weights == low).all(axis=1))
            if idx.size != 1 or any((F.cols == idx[0]).any() for F in lv.F.values()):
                raise InvariantViolation(
                    f"level {n} has no simple lowest weight vector of weight "
                    f"{Weight(tuple(low.tolist()))}")
            v = np.zeros(lv.dim)
            v[idx[0]] = 1.0
            self._lowest_cache[n] = v
        return self._lowest_cache[n]

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

    def pair_isometry(self, k: int, l: int) -> repn.SparseMatrix:
        """w_{k,l}: V_{(k+l)lam} -> V_{k lam} (x) V_{l lam}, polar-corrected."""
        if k + l > self.M:
            raise ValueError(f"pair ({k},{l}) exceeds truncation {self.M}")
        if k == 0 or l == 0:
            return repn.SparseMatrix.identity(self.levels[k + l].dim)
        if k == 1:
            return self.w[l]
        key = (k, l)
        if key not in self._pair_cache:
            what, cols = f"pair isometry ({k},{l})", self._column_side(k + l)
            # (1 (x) w_{k-1,l}^T) w_{k+l-1}, into V_lam (x) V_{(k-1)lam} (x) V_{l lam}
            t = _apply(self.pair_isometry(k - 1, l).T, _triplets(self.w[k + l - 1]),
                       self.base.dim, 1)
            lay = _graded_layout(self._weight_keys(1, k - 1, l), cols)
            X = _graded_matrix(_graded_sum(lay, *t, what), lay)
            # then w_{k-1}^T (x) 1, whose transpose w_{k-1} is already canonical
            t = _apply(self.w[k - 1], _triplets(X), 1, self.levels[l].dim)
            lay = _graded_layout(self._weight_keys(k, l), cols)
            W = _graded_polar(_graded_sum(lay, *t, what), lay, what)
            res = _graded_gram_defect(W, lay)
            if res > self.tol.identity_tol:
                raise InvariantViolation(f"pair isometry ({k},{l}) not isometric: {res:.3e}")
            self._pair_cache[key] = _graded_matrix(W, lay)
        return self._pair_cache[key]

    def right_isometry(self, n: int) -> repn.SparseMatrix:
        """w'_n: V_{(n+1)lam} -> V_{n lam} (x) V_lam."""
        return self.pair_isometry(n, 1)

    def coassociativity_residual(self, k: int, l: int, n: int) -> float:
        """|| (w_{k,l} (x) 1) w_{k+l,n} - (1 (x) w_{l,n}) w_{k,l+n} ||.

        Each side comes as triplets from one join (_apply), and the norm of
        their difference is taken by _graded_norm: the left side is summed
        into the weight-block layout and the right side subtracted in place.
        """
        if min(k, l, n) == 0:
            return 0.0
        P = self.pair_isometry
        return _graded_norm(
            self._weight_keys(k, l, n), self._column_side(k + l + n),
            f"coassociativity ({k},{l},{n})",
            _apply(P(k, l).T, _triplets(P(k + l, n)), 1, self.levels[n].dim),
            _apply(P(l, n).T, _triplets(P(k, l + n)), self.levels[k].dim, 1))

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
    Every module from the builder has its h.w. vector at index 0.
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
            A = self.fundamental(i)
            B = self.module(mu - fundamental_weight(i, self.N))
            sub, _ = decomp.cartan_component(A, B, tol=self.tol)
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
    or X = eye(dim V_lam).
    """
    X = np.asarray(X, dtype=np.float64)
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
    the full basis grid (zeta, xi) at level n (needs n + 2 <= M).
    """
    dl = chain.base.dim
    qfac = chain.q ** (-pairing(chain.lam, chain.lam))
    S0, S1 = (_creation_blocks(chain, np.eye(dl), k) for k in (n, n + 1))
    P = np.matmul(S1[:, None], S0[None, :]).reshape(dl * dl, -1)   # P[a, b] = S_a S_b
    return float(np.max(np.abs(P - qfac * (sigma.T @ P))))
