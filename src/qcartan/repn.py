"""Finite-dimensional unitary modules of quantum SL(N).

A QModule stores the E_i / F_i generator matrices (real float64, sparse) and
one integral weight per basis vector; the K_i are never stored, always
recomputed from the weights, which hardwires the weight-module structure.

Defining relations (all checked by check_module):
    K_i E_j K_i^-1 = q^{a_ij} E_j          (weight grading)
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^-1)/(q - q^-1)
    q-Serre relations between adjacent / distant E's and F's
    E_i^T = F_i K_i                        (unitarity of the inner product)

The tensor product uses the coproduct
    E -> E ox 1 + K ox E,   F -> F ox K^-1 + 1 ox F,   K -> K ox K.

Generators are SparseMatrix triplets: a tensor generator has one nonzero
per basis vector and factor generator entry, so more than 99.9 % of its
dense entries would be exact zeros.  Every weight-graded matrix of the
package is read through one weight-block layout (_graded_layout): the
triplets are summed into a flat row-major buffer of the weight blocks, an
entry off the blocks refused, and the blocks of one shape are gathered into
one stack.  A module caches its blocks as the column side of the layouts
(QModule.column_side); decomp ranks and closes its stacked generators there
(_generator_stacks), and sps sums its isometry compositions there.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .numerics import InvariantViolation, ToleranceProfile, DEFAULT_TOL
from .qcore import Weight, cartan_matrix, check_q, q_int, simple_root

__all__ = [
    "SparseMatrix",
    "QModule",
    "standard_module",
    "trivial_module",
    "tensor",
    "contragredient",
    "check_module",
]


class SparseMatrix:
    """Real float64 matrix as canonical COO triplets rows, cols, vals.

    Canonical: sorted row-major, one triplet per position (duplicates are
    summed, in the order given), no exact zeros, so row i holds the
    triplets indptr[i]:indptr[i + 1].  A product is a fixed number of NumPy
    calls: one join of the inner indices through the row pointers of the
    right factor (no search), one sort of the output positions and one
    bincount of the duplicates.  Indexing returns dense entries; to_dense()
    gives the whole matrix.  The type is immutable, so T and indptr are
    computed once per matrix.
    """

    __array_ufunc__ = None  # ndarray @ SparseMatrix defers to __rmatmul__

    def __init__(self, shape, rows, cols, vals):
        """Canonical form of the 1-D triplet arrays rows, cols, vals."""
        m, n = (int(d) for d in shape)
        key, vals = _sum_duplicates(
            np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64))
        keep = vals != 0.0
        if not keep.all():
            key, vals = key[keep], vals[keep]
        self.shape = (m, n)
        self.rows, self.cols = np.divmod(key, max(n, 1))
        self.vals = vals
        self._T = None
        self._indptr = None

    @classmethod
    def _canonical(cls, shape, rows, cols, vals) -> "SparseMatrix":
        """Wrap triplets that are already canonical, without a sort."""
        out = cls.__new__(cls)
        out.shape = shape
        out.rows, out.cols, out.vals = rows, cols, vals
        out._T = None
        out._indptr = None
        return out

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        diag = np.arange(n, dtype=np.int64)
        return cls._canonical((n, n), diag, diag, np.ones(n))

    @classmethod
    def from_dense(cls, A) -> "SparseMatrix":
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("a sparse matrix needs a 2-D array")
        r, c = np.nonzero(A)
        return cls._canonical(A.shape, r.astype(np.int64), c.astype(np.int64), A[r, c])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def __getitem__(self, key):
        return self.to_dense()[key]

    @property
    def T(self) -> "SparseMatrix":
        if self._T is None:
            order = np.argsort(self.cols * self.shape[0] + self.rows, kind="stable")
            self._T = SparseMatrix._canonical(self.shape[::-1], self.cols[order],
                                              self.rows[order], self.vals[order])
            self._T._T = self
        return self._T

    @property
    def indptr(self) -> np.ndarray:
        """Row pointers: row i holds the triplets indptr[i]:indptr[i + 1]."""
        if self._indptr is None:
            self._indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows, minlength=self.shape[0]), out=self._indptr[1:])
        return self._indptr

    def __mul__(self, scalar) -> "SparseMatrix":
        return SparseMatrix(self.shape, self.rows, self.cols, self.vals * float(scalar))

    __rmul__ = __mul__

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        """self - other, each entry one subtraction: one sort of both triplet sets."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        return SparseMatrix(self.shape, np.concatenate([self.rows, other.rows]),
                            np.concatenate([self.cols, other.cols]),
                            np.concatenate([self.vals, -other.vals]))

    def __rsub__(self, other) -> np.ndarray:
        """Dense other - self, dense: dense code may subtract a sparse matrix."""
        out = np.array(other, dtype=np.float64)
        if out.shape != self.shape:
            raise ValueError("shapes differ")
        out[self.rows, self.cols] -= self.vals
        return out

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            if self.shape[1] != other.shape[0]:
                raise ValueError("inner dimensions differ")
            a, b = _join(self.cols, other)
            return SparseMatrix((self.shape[0], other.shape[1]), self.rows[a],
                                other.cols[b], self.vals[a] * other.vals[b])
        X = np.asarray(other, dtype=np.float64)
        if X.shape[0] != self.shape[1]:
            raise ValueError("inner dimensions differ")
        X2 = X.reshape(X.shape[0], -1)
        out = np.zeros((self.shape[0], X2.shape[1]))
        if self.vals.size:
            start = np.flatnonzero(np.r_[True, self.rows[1:] != self.rows[:-1]])
            out[self.rows[start]] = np.add.reduceat(
                self.vals[:, None] * X2[self.cols], start, axis=0)
        return out.reshape((self.shape[0],) + X.shape[1:])

    def __rmatmul__(self, other) -> np.ndarray:
        X = np.asarray(other, dtype=np.float64)
        if X.ndim == 1:
            return self.T @ X
        return (self.T @ X.T).T

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.vals.size})"


def _join(keys: np.ndarray, S: SparseMatrix) -> tuple:
    """Index arrays (a, b) of every pair keys[a] == S.rows[b], grouped by a
    in ascending order, read from the row pointers of S; every key must be
    a row index of S."""
    lo = S.indptr[keys]
    cnt = S.indptr[keys + 1] - lo
    a = np.repeat(np.arange(keys.size), cnt)
    b = np.arange(a.size) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    return a, b


def _first_of_runs(key: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of key starts."""
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _sum_duplicates(key: np.ndarray, vals: np.ndarray) -> tuple:
    """Sorted distinct keys and the sums of their values, each sum taken in
    the order the values are given."""
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = _first_of_runs(key)
    if first.all():
        return key, vals
    return key[first], np.bincount(np.cumsum(first) - 1, weights=vals)


def _as_sparse(A) -> SparseMatrix:
    return A if isinstance(A, SparseMatrix) else SparseMatrix.from_dense(A)


# -- the weight-block layout ------------------------------------------------


def _radix(bound: int, r: int) -> np.ndarray:
    """c with wt -> wt @ c injective on weights of r coordinates of size at most
    bound, and ascending as the weights descend: blocks go highest first."""
    return -(2 * int(bound) + 1) ** np.arange(r - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class _Columns:
    """Column side of the weight-block layouts of one set of column keys;
    see _columns."""

    keys: np.ndarray     # distinct column keys, ascending: block b has keys[b]
    counts: np.ndarray   # columns of each block
    corder: np.ndarray   # columns grouped by block, ascending in each
    cstart: np.ndarray   # offset of each block in corder
    ccode: np.ndarray    # place in its block - block * 2^32, per column

    def members(self, b: int) -> np.ndarray:
        """The columns of block b, ascending."""
        return self.corder[self.cstart[b]:self.cstart[b] + self.counts[b]]

    def block_of(self) -> np.ndarray:
        """The block of every column."""
        return -(self.ccode >> 32)


def _columns(cols: np.ndarray) -> _Columns:
    """Column side of a weight-block layout whose column weights have the
    integer keys cols: blocks numbered by ascending key, each holding its
    columns in ascending order.  It depends on the columns alone, so it is
    built once per domain (QModule.column_side, sps.CartanChain._column_side).
    """
    corder = cols.argsort(kind="stable")
    new = _first_of_runs(cols[corder])
    cstart = new.nonzero()[0]
    block = new.cumsum() - 1   # block of each column, in the order corder
    ccode = np.empty(cols.size, dtype=np.int64)
    ccode[corder] = np.arange(cols.size) - cstart[block] - (block << 32)
    return _Columns(cols[corder[cstart]], np.bincount(block), corder, cstart, ccode)


@dataclass(frozen=True)
class _Layout:
    """Flat buffer of the weight blocks of a matrix; see _graded_layout."""

    block: np.ndarray    # block of each row, -1 if no column has its key
    start: np.ndarray    # offset of each row's segment
    width: np.ndarray    # length of each row's segment: its block's width
    corder: np.ndarray   # columns grouped by block, ascending in each
    cstart: np.ndarray   # offset of each block in corder
    rcode: np.ndarray    # block * 2^32 + start, per row
    ccode: np.ndarray    # place in its block - block * 2^32, per column
    size: int


def _graded_layout(rows: np.ndarray, cs: _Columns) -> _Layout:
    """Layout of the weight blocks of a matrix whose row weights have the
    integer keys rows and whose columns have the column side cs.

    The rows are mapped to the blocks by one searchsorted against cs.keys.
    Row r owns the segment start[r]:start[r] + width[r] of a flat buffer,
    one place per column of its block, so the buffer read in order is
    row-major and its nonzero entries are canonical triplets.
    rcode[r] + ccode[c] lies in [0, 2^32) exactly when (r, c) joins equal
    keys, and is then the place of the entry in the buffer (buffers stay far
    below 2^32 entries).
    """
    block = cs.keys.searchsorted(rows)
    np.minimum(block, cs.keys.size - 1, out=block)
    hit = cs.keys[block] == rows
    block[~hit] = -1
    width = np.where(hit, cs.counts[block], 0)
    start = width.cumsum() - width
    return _Layout(block, start, width, cs.corder, cs.cstart,
                   (block.astype(np.int64) << 32) + start, cs.ccode, int(width.sum()))


def _graded_positions(lay: _Layout, rows, cols, vals, what: str) -> np.ndarray:
    """Buffer positions of the triplets; raises InvariantViolation unless
    every triplet joins a row and a column of the same key."""
    pos = lay.rcode[rows] + lay.ccode[cols]
    off = (pos >> 32) != 0
    if off.any():
        raise InvariantViolation(
            f"{what}: entry {np.max(np.abs(vals[off])):.3e} off the weight blocks")
    return pos


def _graded_sum(lay: _Layout, rows, cols, vals, what: str) -> np.ndarray:
    """The triplets summed into the buffer of lay, each position in the
    order the triplets are given (a stable sort and a bincount would sum
    them in the same order)."""
    return np.bincount(_graded_positions(lay, rows, cols, vals, what), weights=vals,
                       minlength=lay.size)


def _graded_matrix(buf: np.ndarray, lay: _Layout, shape) -> SparseMatrix:
    """The nonzero entries of the buffer as canonical triplets, without a sort."""
    pos = np.flatnonzero(buf)
    r = np.searchsorted(lay.start, pos, "right") - 1
    c = lay.corder[lay.cstart[lay.block[r]] + pos - lay.start[r]]
    return SparseMatrix._canonical(tuple(shape), r, c, buf[pos])


def _graded_stacks(lay: _Layout, rows: np.ndarray) -> list:
    """Buffer positions of the weight blocks holding the given layout rows
    (all rows of each), stacked by shape: [(ks, pos)] per shape h x m, in
    the order the shapes first occur by block number, with the blocks ks of
    that shape ascending and the positions pos (len(ks), h, m) of their
    entries, rows and columns ascending."""
    if not rows.size:
        return []
    rows = rows[lay.block[rows].argsort(kind="stable")]
    blk = lay.block[rows]
    first = _first_of_runs(blk).nonzero()[0]   # the first row of each block
    h = np.bincount(blk)[blk[first]]
    groups = {}
    for j, shape in enumerate(zip(h.tolist(), lay.width[rows[first]].tolist())):
        groups.setdefault(shape, []).append(j)
    js = np.fromiter(chain.from_iterable(groups.values()), dtype=np.intp, count=first.size)
    # the rows of the blocks js in turn, then the buffer segment of each row
    hj = h[js]
    end = hj.cumsum()
    r = rows[(first[js] - end + hj).repeat(hj) + np.arange(rows.size)]
    w = lay.width[r]
    end = w.cumsum()
    pos = (lay.start[r] - end + w).repeat(w) + np.arange(end[-1])
    ks = blk[first[js]]
    out, a, b = [], 0, 0
    for (hg, mg), g in groups.items():
        n = len(g) * hg * mg
        out.append((ks[b:b + len(g)], pos[a:a + n].reshape(len(g), hg, mg)))
        a, b = a + n, b + len(g)
    return out


def _graded_blocks(buf: np.ndarray, lay: _Layout) -> tuple:
    """Column norms and block stacks of the weight-graded buffer buf.

    Returns (norms, one, blocks): the column norms, each summed in row
    order; (rows, cols) of the one-column blocks, one pair per row; and
    (positions, stacks), both (B, h, m), per shape of the other blocks with
    rows (_graded_stacks).  A block may be wide, or have no rows at all: its
    columns are then zero.
    """
    r1 = np.flatnonzero(lay.width == 1)
    c1 = lay.corder[lay.cstart[lay.block[r1]]]
    v1 = buf[lay.start[r1]]
    sq = np.bincount(c1, weights=v1 * v1, minlength=lay.ccode.size)
    blocks = []
    for ks, pos in _graded_stacks(lay, np.flatnonzero(lay.width > 1)):
        ci = lay.corder[lay.cstart[ks][:, None] + np.arange(pos.shape[2])]
        S = buf[pos]
        sq += np.bincount(np.broadcast_to(ci[:, None, :], S.shape).ravel(),
                          weights=(S * S).ravel(), minlength=lay.ccode.size)
        blocks.append((pos, S))
    return np.sqrt(sq), (r1, c1), blocks


class QModule:
    """Weight module with sparse float64 generators; immutable by convention.

    E and F map i to a SparseMatrix; dense input is converted.

    All arithmetic is float64: check_module gates backward-relative
    residuals, so deep modules with q-integer-sized entries need no wider
    working precision.
    """

    # Read-only; perfbench/tracer.py reads it to size tensor outputs.
    dtype = np.dtype(np.float64)

    def __init__(self, N, q, weights, E, F, highest_weight=None, hw_index=None):
        self.N = int(N)
        self.q = check_q(q)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.weights.ndim != 2 or self.weights.shape[1] != self.N - 1:
            raise ValueError("weights must be (dim, N-1)")
        self.dim = self.weights.shape[0]
        self.E = {i: _as_sparse(E[i]) for i in range(1, self.N)}
        self.F = {i: _as_sparse(F[i]) for i in range(1, self.N)}
        for i in range(1, self.N):
            if self.E[i].shape != (self.dim, self.dim) or self.F[i].shape != (self.dim, self.dim):
                raise ValueError("generator matrix shape mismatch")
        self.highest_weight = highest_weight
        self.hw_index = hw_index
        self._blocks = None
        self._key_radix = None

    # -- K action -------------------------------------------------------
    def k_diag(self, i: int, power: int = 1) -> np.ndarray:
        """Diagonal of K_i^power: q^(power * wt(v)(i))."""
        return self.q ** (power * self.weights[:, i - 1].astype(np.float64))

    # -- structure ------------------------------------------------------
    @property
    def hw_vector(self) -> np.ndarray:
        if self.hw_index is None:
            raise ValueError("module has no phase-fixed highest weight vector")
        v = np.zeros(self.dim)
        v[self.hw_index] = 1.0
        return v

    def weight_of(self, index: int) -> Weight:
        return Weight(tuple(int(c) for c in self.weights[index]))

    def column_side(self) -> _Columns:
        """The weight blocks, highest first, as the column side of maps out of
        the module (cached); wt @ _key_radix also keys weights a root away."""
        if self._blocks is None:
            self._key_radix = _radix(int(np.abs(self.weights).max(initial=0)) + 2, self.N - 1)
            self._blocks = _columns(self.weights @ self._key_radix)
        return self._blocks

    def __repr__(self):
        hw = f", hw={self.highest_weight}" if self.highest_weight is not None else ""
        return f"QModule(N={self.N}, q={self.q}, dim={self.dim}{hw})"


def _generator_stacks(V: QModule, sign: int, what: str) -> tuple:
    """The stacked generators [X_1; X_2; ...] (X = E for sign 1, F for -1)
    summed into the weight-block layout of V.column_side().

    Row v of X_i is keyed by wt(v) - sign * alpha_i, the weight X_i maps
    into it, so block mu stacks X_i[mu + sign * alpha_i, mu] over i in
    turn; a triplet off the weight grading raises InvariantViolation.
    Returns (lay, [(ks, stacked blocks (len(ks), h, m))]) for the blocks
    with rows, grouped by shape as in _graded_stacks.
    """
    cs = V.column_side()
    mats = [(V.E if sign > 0 else V.F)[i] for i in range(1, V.N)]
    lay = _graded_layout((V.weights @ V._key_radix - sign * (cartan_matrix(V.N) @ V._key_radix)
                          [:, None]).ravel(), cs)
    buf = _graded_sum(lay, np.concatenate([X.rows + x * V.dim for x, X in enumerate(mats)]),
                      np.concatenate([X.cols for X in mats]),
                      np.concatenate([X.vals for X in mats]), what)
    stacks = _graded_stacks(lay, np.flatnonzero(lay.block >= 0))
    return lay, [(ks, buf[pos]) for ks, pos in stacks]


def trivial_module(N: int, q: float) -> QModule:
    z = np.zeros((1, 1))
    zero_wt = Weight((0,) * (N - 1))
    return QModule(
        N, q,
        np.zeros((1, N - 1), dtype=np.int64),
        {i: z.copy() for i in range(1, N)},
        {i: z.copy() for i in range(1, N)},
        highest_weight=zero_wt, hw_index=0,
    )


def standard_module(N: int, q: float) -> QModule:
    """The defining N-dim module: E_i e_{i+1} = q^(1/2) e_i, F_i e_i = q^(-1/2) e_{i+1}."""
    if N < 2:
        raise ValueError("need N >= 2")
    q = check_q(q)
    sq = q ** 0.5
    wts = np.zeros((N, N - 1), dtype=np.int64)
    for j in range(1, N + 1):  # wt(e_j) = omega_j - omega_{j-1}
        if j <= N - 1:
            wts[j - 1, j - 1] += 1
        if j >= 2:
            wts[j - 1, j - 2] -= 1
    E = {}
    F = {}
    for i in range(1, N):
        Ei = np.zeros((N, N))
        Fi = np.zeros((N, N))
        Ei[i - 1, i] = sq
        Fi[i, i - 1] = 1.0 / sq
        E[i] = Ei
        F[i] = Fi
    from .qcore import fundamental_weight

    return QModule(N, q, wts, E, F,
                   highest_weight=fundamental_weight(1, N), hw_index=0)


def tensor(V: QModule, W: QModule) -> QModule:
    """V ox W in the product basis (a, b) -> a * dim(W) + b, from triplets.

    The two coproduct terms never share a position (E_i moves the weight,
    so X ox 1 has off-diagonal factor blocks and K ox X diagonal ones), so
    every entry is the single product the dense kron formula would give.
    """
    if V.N != W.N or V.q != W.q:
        raise ValueError("tensor factors must share N and q")
    dV, dW = V.dim, W.dim
    jW, aV = np.arange(dW), np.arange(dV)

    def across(X, right):   # X ox diag(right)
        return ((X.rows[:, None] * dW + jW).ravel(), (X.cols[:, None] * dW + jW).ravel(),
                (X.vals[:, None] * right).ravel())

    def along(left, Y):     # diag(left) ox Y
        return ((aV[:, None] * dW + Y.rows).ravel(), (aV[:, None] * dW + Y.cols).ravel(),
                (left[:, None] * Y.vals).ravel())

    def coproduct(t1, t2):
        return SparseMatrix((dV * dW, dV * dW), *map(np.concatenate, zip(t1, t2)))

    E = {}
    F = {}
    for i in range(1, V.N):
        E[i] = coproduct(across(V.E[i], np.ones(dW)), along(V.k_diag(i), W.E[i]))
        F[i] = coproduct(across(V.F[i], W.k_diag(i, -1)), along(np.ones(dV), W.F[i]))
    wts = (V.weights[:, None, :] + W.weights[None, :, :]).reshape(dV * dW, V.N - 1)
    return QModule(V.N, V.q, wts, E, F)


def contragredient(V: QModule) -> QModule:
    """Conjugate module in its unitarity-normalized orthonormal basis.

    E_i -> -q F_i, F_i -> -q^-1 E_i, weights negated (so K -> K^-1). The q
    factors are the diag(q^(rho, wt)) change of basis that makes the conjugate
    inner product unitary; applying the construction twice returns the
    original matrices exactly.
    """
    q = V.q
    E = {i: -q * V.F[i] for i in range(1, V.N)}
    F = {i: -(1.0 / q) * V.E[i] for i in range(1, V.N)}
    return QModule(V.N, q, -V.weights, E, F)


def _grading_residual(V: QModule, M: SparseMatrix, shift: np.ndarray) -> float:
    """Max |entry| of M outside the blocks wt(row) = wt(col) + shift."""
    ok = np.all(V.weights[M.rows] == V.weights[M.cols] + shift[None, :], axis=1)
    return _max_abs(M.vals[~ok])


def _max_abs(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals), initial=0.0))


def _max_abs_sum(terms) -> float:
    """Max |entry| of sum(c * S for c, S in terms), summed in term order."""
    n = terms[0][1].shape[1]
    return _max_abs(_sum_duplicates(np.concatenate([S.rows * n + S.cols for _, S in terms]),
                                    np.concatenate([c * S.vals for c, S in terms]))[1])


def _stack(mats: list, vertical: bool) -> SparseMatrix:
    """[A_1; A_2; ...] (vertical) or [A_1, A_2, ...] of d x d matrices."""
    if len(mats) == 1:
        return mats[0]
    d, r = mats[0].shape[0], len(mats)
    shifted = [(M.rows + x * d, M.cols) if vertical else (M.rows, M.cols + x * d)
               for x, M in enumerate(mats)]
    return SparseMatrix((r * d, d) if vertical else (d, r * d),
                        np.concatenate([rows for rows, _ in shifted]),
                        np.concatenate([cols for _, cols in shifted]),
                        np.concatenate([M.vals for M in mats]))


def _relation_residual(parts, nrel: int, r: int, d: int) -> float:
    """Largest backward-relative residual of nrel relations sum_k c_k T_k = 0.

    Each part (S, rel, coef) holds terms as d x d blocks of S: block
    b = (row // d) * r + col // d is a term of relation rel[b] (-1: of none)
    with coefficient coef[b].  Per relation the terms add up entry by entry
    in the order of the parts, and the residual is max |sum| over
    max(1, max_k max |c_k T_k|).
    """
    keys, vals = [], []
    scale = np.ones(nrel)
    for S, rel, coef in parts:
        b = (S.rows // d) * r + S.cols // d
        k = rel[b]
        use = k >= 0
        k, b = k[use], b[use]
        v = coef[b] * S.vals[use]
        np.maximum.at(scale, k, np.abs(v))
        keys.append((k * d + S.rows[use] % d) * d + S.cols[use] % d)
        vals.append(v)
    key, total = _sum_duplicates(np.concatenate(keys), np.concatenate(vals))
    worst = np.zeros(nrel)
    np.maximum.at(worst, key // (d * d), np.abs(total))
    return float(np.max(worst / scale))


def check_module(V: QModule, tol: ToleranceProfile = DEFAULT_TOL, raise_on_fail: bool = False) -> dict:
    """Residuals of the defining relations; see module docstring.

    Each defect is reported relative to the largest term entering its
    relation, floored at 1 (backward-error normalization): for modules whose
    generator entries are O(1) this is just the absolute max-abs defect,
    while for deep modules with q-integer-sized entries it measures the
    defect against the only meaningful yardstick, the size of the products
    being cancelled.  An absolute reading would fail for *any* float64
    representation of such a module: rounding the entries alone perturbs a
    triple product of size P by several ulp(P).

    Every product and sum is formed from the sparse generators; a sum adds
    its terms entry by entry in the order written, as the dense formula does.
    The generators stacked into [A_1; A_2; ...] and [A_1, A_2, ...] give all
    commutators from two products and all q-Serre terms from two more per
    family A = E, F; each relation then reads its terms as blocks.

    Returns {'unitarity', 'grading', 'commutator', 'serre', 'max', 'passed'}.
    """
    q = V.q
    r, d = V.N - 1, V.dim
    gens = range(1, V.N)
    res_unit = 0.0
    res_grad = 0.0
    for i in gens:
        Ei, Fi = V.E[i], V.F[i]
        FK = SparseMatrix._canonical(Fi.shape, Fi.rows, Fi.cols, Fi.vals * V.k_diag(i)[Fi.cols])
        res_unit = max(res_unit, _max_abs_sum([(1.0, Ei.T), (-1.0, FK)])
                       / max(1.0, _max_abs(Ei.vals)))
        alpha = simple_root(i, V.N).as_array()
        res_grad = max(res_grad, _grading_residual(V, Ei, alpha))
        res_grad = max(res_grad, _grading_residual(V, Fi, -alpha))

    # E_i F_j - F_j E_i - delta_ij [K_i] for all (i, j) at once: relation
    # i * r + j takes block (i, j) of [E; ...] [F, ...] and of the targets
    # and block (j, i) of [F; ...] [E, ...]
    Ev, Eh = (_stack([V.E[i] for i in gens], vertical) for vertical in (True, False))
    Fv, Fh = (_stack([V.F[i] for i in gens], vertical) for vertical in (True, False))
    own = np.arange(r * r)
    diag = np.arange(r * d)
    targets = SparseMatrix((r * d, r * d), diag, diag,
                           q_int(V.weights.T.reshape(-1), q))
    ones = np.ones(r * r)
    res_comm = _relation_residual(
        [(Ev @ Fh, own, ones),
         (Fv @ Eh, own.reshape(r, r).T.reshape(-1), -ones),
         (targets, own, -ones)], r * r, r, d)

    # q-Serre: block (x, y) of P = [A; ...] [A, ...] is A_x A_y, block
    # (x * r + y, z) of P3 = P (rows by (x, y)) [A, ...] is (A_x A_y) A_z.
    # A distant pair x < y - 1 takes +P(x, y) - P(y, x); an adjacent ordered
    # pair (X, Y) takes (X X) Y - [2]_q (X Y) X + (Y X) X.
    res_serre = 0.0
    distant = [(x, y) for x in range(r) for y in range(x + 2, r)]
    adjacent = [p for x in range(r - 1) for p in ((x, x + 1), (x + 1, x))]
    if distant or adjacent:
        rel_p, coef_p = np.full(r * r, -1), np.zeros(r * r)
        for n, (x, y) in enumerate(distant):
            rel_p[[x * r + y, y * r + x]] = n
            coef_p[[x * r + y, y * r + x]] = (1.0, -1.0)
        rel3 = np.full((3, r ** 3), -1)
        coef3 = np.array([[1.0], [-q_int(2, q)], [1.0]]) * np.ones(r ** 3)
        for n, (x, y) in enumerate(adjacent, start=len(distant)):
            rel3[[0, 1, 2], [(x * r + x) * r + y, (x * r + y) * r + x, (y * r + x) * r + x]] = n
        for Av, Ah in ((Ev, Eh), (Fv, Fh)):
            P = Av @ Ah
            Prow = SparseMatrix((r * r * d, d), ((P.rows // d) * r + P.cols // d) * d + P.rows % d,
                                P.cols % d, P.vals)
            P3 = Prow @ Ah
            res_serre = max(res_serre, _relation_residual(
                [(P, rel_p, coef_p)] + [(P3, rel3[t], coef3[t]) for t in range(3)],
                len(distant) + len(adjacent), r, d))
    report = {
        "unitarity": res_unit,
        "grading": res_grad,
        "commutator": res_comm,
        "serre": res_serre,
    }
    report["max"] = max(report.values())
    report["passed"] = report["max"] <= tol.identity_tol
    if raise_on_fail and not report["passed"]:
        raise InvariantViolation(f"module relation residuals too large: {report}")
    return report
