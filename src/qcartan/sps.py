"""Cartan subproduct chains, truncated Fock spaces, shift operators, psi/Theta.

A chain holds the modules V_{n*lam} for n = 0..M together with two families of
isometric structure maps: the left maps w_n : V_{(n+1)lam} -> V_lam (x) V_{n lam}
(each level is literally constructed as the submodule generated by the product
of highest weight vectors, so the left phase law w_n xi_{(n+1)lam} =
xi_lam (x) xi_{n lam} holds *bit-exactly*: in chain coordinates every highest
weight vector is the 0-th basis vector and the seed column of w_n is one-hot),
and the right maps w'_n : V_{(n+1)lam} -> V_{n lam} (x) V_lam obtained as the
(n,1) pair isometries.

Pair isometries w_{k,l} : V_{(k+l)lam} -> V_{k lam} (x) V_{l lam} are built by
composing the w maps left-greedily and re-orthonormalizing once with a polar
factor per weight block (columns grouped by the weights of V_{(k+l)lam}, rows
by the summed weights of the two factors), so every w_{k,l} has exact zeros
off its weight blocks; coassociativity is then certified numerically rather
than assumed, as the largest block norm of a difference whose off-block
entries are checked to be exactly 0.

Truncated Fock space operators are kept block-per-level (BlockOp): creation
S_xi, its adjoint, right creation R_xi, level projectors, the compression maps
psi_{n,n+k} and the transfer operator Theta.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import decomp, repn
from .numerics import (DEFAULT_TOL, InvariantViolation, ToleranceProfile,
                       operator_norm)
from .qcore import Weight, fundamental_weight, pairing

__all__ = [
    "CartanChain",
    "GeneralWeightBuilder",
    "FockSpace",
    "BlockOp",
    "creation",
    "annihilation",
    "right_creation",
    "level_projector",
    "psi",
    "theta",
    "eq_comm_residual",
]


def _apply_left(W: np.ndarray, X: np.ndarray, dright: int) -> np.ndarray:
    """(W (x) 1_dright) @ X without forming the Kronecker product."""
    p, m = W.shape
    c = X.shape[1]
    Xr = X.reshape(m, dright, c)
    return np.tensordot(W, Xr, axes=([1], [0])).reshape(p * dright, c)


def _apply_right(W: np.ndarray, X: np.ndarray, dleft: int) -> np.ndarray:
    """(1_dleft (x) W) @ X without forming the Kronecker product."""
    p, m = W.shape
    c = X.shape[1]
    return np.matmul(W, X.reshape(dleft, m, c)).reshape(dleft * p, c)


def _weight_radix(levels) -> np.ndarray:
    """c with wt -> wt @ c injective on sums of up to three level weights."""
    span = 6 * max(int(np.abs(lv.weights).max(initial=0)) for lv in levels) + 1
    return span ** np.arange(levels[0].weights.shape[1], dtype=np.int64)


def _graded_blocks(X: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   what: str) -> tuple:
    """Weight blocks of X, whose row/column weights have keys rows/cols.

    Returns (r, c, v, blocks): X[r, c] = v are the entries inside the blocks,
    and blocks holds (row index (B, h), column index (B, m)) for every block
    shape h x m with h > 0 and m > 1, the same-shape blocks stacked.  A block
    may be wide, or have no rows at all: its columns are then zero.  Raises
    InvariantViolation unless every entry off the blocks is exactly 0.0;
    only then is X the direct sum of its blocks.
    """
    keys, inv, m = np.unique(cols, return_inverse=True, return_counts=True)
    rorder = np.argsort(rows, kind="stable")
    start = np.searchsorted(rows[rorder], keys, "left")
    h = np.searchsorted(rows[rorder], keys, "right") - start
    lengths = h[inv]
    c = np.repeat(np.arange(cols.size), lengths)
    r = rorder[np.arange(c.size)
               - np.repeat(np.cumsum(lengths) - lengths - start[inv], lengths)]
    v = X[r, c]
    if np.count_nonzero(v) != np.count_nonzero(X):
        off = X.copy()
        off[r, c] = 0.0
        raise InvariantViolation(
            f"{what}: entry {np.max(np.abs(off)):.3e} off the weight blocks")
    corder = np.argsort(inv, kind="stable")
    cstart = np.cumsum(m) - m
    blocks = []
    stacked = (h > 0) & (m > 1)
    for shape in sorted(set(zip(h[stacked].tolist(), m[stacked].tolist()))):
        sel = (h == shape[0]) & (m == shape[1])
        blocks.append((rorder[start[sel][:, None] + np.arange(shape[0])],
                       corder[cstart[sel][:, None] + np.arange(shape[1])]))
    return r, c, v, blocks


def _graded_polar(X: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  what: str) -> np.ndarray:
    """Nearest isometry to the weight-graded X, one weight block at a time.

    Every block of X must have near-unit singular values.  The polar factor
    of a direct sum is the direct sum of the block polar factors, so the
    result keeps exact zeros off the blocks; a one-column block is just
    normalized.
    """
    r, c, v, blocks = _graded_blocks(X, rows, cols, what)
    if any(ri.shape[1] < ci.shape[1] for ri, ci in blocks):
        raise InvariantViolation(f"{what}: a weight block has more columns than rows")
    norms = np.sqrt(np.bincount(c, weights=v * v, minlength=X.shape[1]))
    svds = [np.linalg.svd(X[ri[:, :, None], ci[:, None, :]], full_matrices=False)
            for ri, ci in blocks]
    smin = min([norms.min(initial=np.inf)] + [s[:, -1].min() for _, s, _ in svds])
    if smin < 0.5:
        raise InvariantViolation(
            f"{what} composition nearly rank-deficient (sigma_min={smin:.3e})")
    W = np.zeros_like(X)
    W[r, c] = v / norms[c]
    for (ri, ci), (U, _, Vt) in zip(blocks, svds):
        W[ri[:, :, None], ci[:, None, :]] = U @ Vt
    return W


def _graded_norm(X: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 what: str) -> float:
    """Operator norm of the weight-graded X: its largest block norm.

    A one-column block contributes its vector norm; no SVD of a tall
    matrix is taken.  Every weight-graded norm of the package goes through
    here, so every one rejects an entry off the weight blocks.
    """
    r, c, v, blocks = _graded_blocks(X, rows, cols, what)
    worst = float(np.sqrt(np.bincount(c, weights=v * v).max(initial=0.0)))
    for ri, ci in blocks:
        s = np.linalg.svd(X[ri[:, :, None], ci[:, None, :]], compute_uv=False)
        worst = max(worst, float(s[:, 0].max()))
    return worst


class CartanChain:
    """Levels V_{n*lam}, n = 0..M, with left/right structure isometries.

    levels[n]   -- QModule for V_{n lam} (level 0 is the trivial module)
    w[n]        -- left isometry V_{(n+1)lam} -> V_lam (x) V_{n lam}, n <= M-1
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
        self.w = [np.eye(dl)]  # V_lam -> V_lam (x) V_0
        for n in range(1, M):
            T = repn.tensor(base, self.levels[-1])
            seed = np.zeros(T.dim)
            seed[0] = 1.0  # xi_lam (x) xi_{n lam} in chain coordinates
            sub, Q = decomp.generate_submodule(T, seed, tol)
            self.levels.append(sub)
            self.w.append(Q)

        self._radix = _weight_radix(self.levels)
        self._pair_cache: dict = {}
        self._lowest_cache: dict = {}

    @classmethod
    def from_parts(cls, lam: Weight, q: float, M: int, tol: ToleranceProfile,
                   levels: list, w: list) -> "CartanChain":
        """Reassemble a chain from stored levels and isometries (no rebuild).

        Only shape bookkeeping is checked here; callers that read the parts
        from disk must re-verify substance (check_module per level and
        coassociativity) before trusting the instance.
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
        self.w = [np.asarray(m, dtype=np.float64) for m in w]
        dl = self.base.dim
        for n, mat in enumerate(self.w):
            want = (dl * levels[n].dim, levels[n + 1].dim)
            if mat.shape != want:
                raise ValueError(f"isometry {n} has shape {mat.shape}, want {want}")
        self._radix = _weight_radix(self.levels)
        self._pair_cache = {}
        self._lowest_cache = {}
        return self

    # -- basic accessors ---------------------------------------------------

    @property
    def dims(self) -> list:
        return [lv.dim for lv in self.levels]

    def hw_vector(self, n: int) -> np.ndarray:
        v = np.zeros(self.levels[n].dim)
        v[0] = 1.0
        return v

    def lowest_vector(self, n: int) -> np.ndarray:
        """Unit lowest weight vector of level n (cached; sign-fixed)."""
        if n not in self._lowest_cache:
            cols = decomp.lowest_weight_space(self.levels[n], self.tol).basis_matrix(
                self.levels[n].dim)
            if cols.shape[1] != 1:
                raise InvariantViolation(
                    f"level {n} has {cols.shape[1]} lowest weight vectors")
            self._lowest_cache[n] = cols[:, 0]
        return self._lowest_cache[n]

    # -- pair isometries ----------------------------------------------------

    def _weight_keys(self, *ns: int) -> np.ndarray:
        """One integer per basis vector of V_{n1 lam} (x) ... (x) V_{nr lam},
        equal exactly when the weights are equal."""
        keys = np.zeros(1, dtype=np.int64)
        for n in ns:
            keys = (keys[:, None] + self.levels[n].weights @ self._radix).reshape(-1)
        return keys

    def pair_isometry(self, k: int, l: int) -> np.ndarray:
        """w_{k,l}: V_{(k+l)lam} -> V_{k lam} (x) V_{l lam}, polar-corrected."""
        if k + l > self.M:
            raise ValueError(f"pair ({k},{l}) exceeds truncation {self.M}")
        if k == 0 or l == 0:
            return np.eye(self.levels[k + l].dim)
        if k == 1:
            return self.w[l]
        key = (k, l)
        if key not in self._pair_cache:
            dl = self.base.dim
            dlev = [lv.dim for lv in self.levels]
            X = self.w[k + l - 1]                       # -> V_lam (x) V_{(k+l-1)lam}
            X = _apply_right(self.pair_isometry(k - 1, l), X, dl)
            X = _apply_left(self.w[k - 1].T, X, dlev[l])
            W = _graded_polar(X, self._weight_keys(k, l), self._weight_keys(k + l),
                              f"pair isometry ({k},{l})")
            res = np.max(np.abs(W.T @ W - np.eye(W.shape[1])))
            if res > self.tol.identity_tol:
                raise InvariantViolation(f"pair isometry ({k},{l}) not isometric: {res:.3e}")
            self._pair_cache[key] = W
        return self._pair_cache[key]

    def right_isometry(self, n: int) -> np.ndarray:
        """w'_n: V_{(n+1)lam} -> V_{n lam} (x) V_lam."""
        return self.pair_isometry(n, 1)

    def coassociativity_residual(self, k: int, l: int, n: int) -> float:
        """|| (w_{k,l} (x) 1) w_{k+l,n} - (1 (x) w_{l,n}) w_{k,l+n} ||.

        The difference is weight-graded with exact zeros off its blocks
        (checked), so its operator norm is its largest block norm.
        """
        if min(k, l, n) == 0:
            return 0.0
        dlev = [lv.dim for lv in self.levels]
        D = _apply_left(self.pair_isometry(k, l), self.pair_isometry(k + l, n), dlev[n])
        D -= _apply_right(self.pair_isometry(l, n), self.pair_isometry(k, l + n), dlev[k])
        return _graded_norm(D, self._weight_keys(k, l, n), self._weight_keys(k + l + n),
                            f"coassociativity ({k},{l},{n})")

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
                T = repn.tensor(repn.standard_module(self.N, self.q),
                                self.fundamental(k - 1))
                seed = decomp.highest_weight_space(T, self.tol).vectors_of(
                    fundamental_weight(k, self.N))
                if seed.shape[1] != 1:
                    raise InvariantViolation(
                        f"fundamental weight {k} not multiplicity one in the tensor step")
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
    """Direct sum of the chain levels 0..M with block index arithmetic."""

    def __init__(self, chain: CartanChain, M: int | None = None):
        self.chain = chain
        self.M = chain.M if M is None else min(M, chain.M)
        self.dims = [lv.dim for lv in chain.levels[: self.M + 1]]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    def level_slice(self, n: int) -> slice:
        return slice(int(self.offsets[n]), int(self.offsets[n + 1]))


@dataclass
class BlockOp:
    """Level-homogeneous operator on a truncated Fock space.

    blocks[n] maps level n to level n + shift; absent blocks are zero.
    """

    fock: FockSpace
    shift: int
    blocks: dict = field(default_factory=dict)

    def _zero(self, n: int) -> np.ndarray:
        return np.zeros((self.fock.dims[n + self.shift], self.fock.dims[n]))

    def block(self, n: int) -> np.ndarray:
        b = self.blocks.get(n)
        return self._zero(n) if b is None else b

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

    def level_norm(self, n: int) -> float:
        b = self.blocks.get(n)
        return 0.0 if b is None else operator_norm(b)

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.fock.dim, self.fock.dim))
        for n, b in self.blocks.items():
            A[self.fock.level_slice(n + self.shift), self.fock.level_slice(n)] = b
        return A

    @staticmethod
    def identity(fock: FockSpace) -> "BlockOp":
        return BlockOp(fock, 0, {n: np.eye(d) for n, d in enumerate(fock.dims)})


def _creation_block(chain: CartanChain, xi: np.ndarray, n: int) -> np.ndarray:
    """w_n^T (xi (x) .) : V_{n lam} -> V_{(n+1)lam}."""
    dl = chain.base.dim
    dn = chain.levels[n].dim
    dn1 = chain.levels[n + 1].dim
    Wr = chain.w[n].reshape(dl, dn, dn1)
    return np.tensordot(xi, Wr, axes=([0], [0])).T


def _right_creation_block(chain: CartanChain, xi: np.ndarray, n: int) -> np.ndarray:
    """w'_n^T (. (x) xi) : V_{n lam} -> V_{(n+1)lam}."""
    dl = chain.base.dim
    dn = chain.levels[n].dim
    dn1 = chain.levels[n + 1].dim
    Wr = chain.right_isometry(n).reshape(dn, dl, dn1)
    return np.tensordot(xi, Wr, axes=([0], [1])).T


def creation(chain: CartanChain, xi: np.ndarray, fock: FockSpace) -> BlockOp:
    """Left shift S_xi; the top truncation level maps to zero."""
    xi = np.asarray(xi, dtype=np.float64)
    op = BlockOp(fock, 1)
    for n in range(fock.M):
        op.blocks[n] = _creation_block(chain, xi, n)
    return op


def annihilation(chain: CartanChain, zeta: np.ndarray, fock: FockSpace) -> BlockOp:
    return creation(chain, zeta, fock).adjoint()


def right_creation(chain: CartanChain, xi: np.ndarray, fock: FockSpace) -> BlockOp:
    xi = np.asarray(xi, dtype=np.float64)
    op = BlockOp(fock, 1)
    for n in range(fock.M):
        op.blocks[n] = _right_creation_block(chain, xi, n)
    return op


def level_projector(fock: FockSpace, n: int) -> BlockOp:
    return BlockOp(fock, 0, {n: np.eye(fock.dims[n])})


def psi(chain: CartanChain, n: int, k: int, T: np.ndarray) -> np.ndarray:
    """Compression w_{n,k}^T (T (x) 1) w_{n,k} : B(V_{n lam}) -> B(V_{(n+k)lam})."""
    W = chain.pair_isometry(n, k)
    dk = chain.levels[k].dim
    return W.T @ _apply_left(T, W, dk)


def theta(chain: CartanChain, X: BlockOp) -> BlockOp:
    """Transfer operator: Theta(X)_{n+1} = sum_i R_i|_n X_n R_i|_n^T (level 0 -> 0)."""
    if X.shift != 0:
        raise ValueError("theta acts on block-diagonal operators")
    fock = X.fock
    out = BlockOp(fock, 0)
    dl = chain.base.dim
    for n, b in X.blocks.items():
        if n >= fock.M:
            continue
        acc = None
        for i in range(dl):
            R = _right_creation_block(chain, np.eye(dl)[i], n)
            term = R @ b @ R.T
            acc = term if acc is None else acc + term
        m = n + 1
        out.blocks[m] = acc if m not in out.blocks else out.blocks[m] + acc
    return out


def eq_comm_residual(chain: CartanChain, sigma: np.ndarray, n: int) -> float:
    """Per-level residual of S_zeta S_xi = q^{-(lam,lam)} S^(2) sigma(zeta (x) xi).

    sigma is the braiding matrix on V_lam (x) V_lam; the identity is checked on
    the full basis grid (zeta, xi) at level n (needs n + 2 <= M).
    """
    dl = chain.base.dim
    qfac = chain.q ** (-pairing(chain.lam, chain.lam))
    P = [[_creation_block(chain, np.eye(dl)[a], n + 1)
          @ _creation_block(chain, np.eye(dl)[b], n) for b in range(dl)]
         for a in range(dl)]
    worst = 0.0
    for i in range(dl):
        for j in range(dl):
            rhs = None
            col = sigma[:, i * dl + j]
            for a in range(dl):
                for b in range(dl):
                    cab = col[a * dl + b]
                    if cab == 0.0:
                        continue
                    term = cab * P[a][b]
                    rhs = term if rhs is None else rhs + term
            D = P[i][j] - qfac * rhs
            worst = max(worst, float(np.max(np.abs(D))))
    return worst
