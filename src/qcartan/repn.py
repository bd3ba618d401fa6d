"""Finite-dimensional unitary modules of quantum SL(N).

A QModule stores the F_i generator matrices (real float64, sparse) and one
integral weight per basis vector.  The K_i are never stored, always
recomputed from the weights, which hardwires the weight-module structure;
the E_i are derived from the F_i by the unitarity of the real orthonormal
basis, E_i^T = F_i K_i, so E_i = K_i F_i^T holds by construction.

Defining relations (all checked by check_module):
    K_i E_j K_i^-1 = q^{a_ij} E_j          (weight grading)
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^-1)/(q - q^-1)
    q-Serre relations between adjacent / distant E's and F's

The tensor product uses the coproduct
    E -> E ox 1 + K ox E,   F -> F ox K^-1 + 1 ox F,   K -> K ox K,
of which it builds the F side (the E side is then K F^T), and carries its
factors (QModule.factors), from which decomp derives the Brauer-Klimyk
candidate weights and component count of its extreme vectors.

Generators are SparseMatrix triplets: a tensor generator has one nonzero
per basis vector and factor generator entry, so more than 99.9 % of its
dense entries would be exact zeros.  Every weight-graded matrix of the
package is read through one weight-block layout (_graded_layout): the
triplets are summed into a flat row-major buffer of the weight blocks, an
entry off the blocks refused, and the blocks of one shape are gathered into
one stack.  A module caches its blocks as the column side of the layouts
(QModule.column_side); decomp ranks and closes its stacked generators there
(_generator_stacks), and sps lays its chain isometries out there, then
holds its pair isometries as the rows of these blocks padded to one width.
check_module reads the relations from the generators' dense blocks per
source weight block of the same column side, in batched products.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .numerics import InvariantViolation, ToleranceProfile, DEFAULT_TOL
from .qcore import Weight, cartan_matrix, check_q, q_int

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
    right factor (no search; _product gives its unsummed triplets), one
    sort of the output positions and one bincount of the duplicates.
    Indexing returns dense entries; to_dense() gives the whole matrix.  The
    type is immutable, so T and indptr are computed once per matrix.
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

    def _transposed(self) -> "SparseMatrix":
        """The canonical transpose, formed afresh and cached nowhere."""
        order = (self.cols * self.shape[0] + self.rows).argsort(kind="stable")
        return SparseMatrix._canonical(self.shape[::-1], self.cols[order],
                                       self.rows[order], self.vals[order])

    @property
    def T(self) -> "SparseMatrix":
        if self._T is None:
            self._T = self._transposed()
            self._T._T = self
        return self._T

    @property
    def indptr(self) -> np.ndarray:
        """Row pointers: row i holds the triplets indptr[i]:indptr[i + 1]."""
        if self._indptr is None:
            self._indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.bincount(self.rows, minlength=self.shape[0]).cumsum(out=self._indptr[1:])
        return self._indptr

    def __mul__(self, scalar) -> "SparseMatrix":
        return SparseMatrix(self.shape, self.rows, self.cols, self.vals * float(scalar))

    __rmul__ = __mul__

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
            return SparseMatrix((self.shape[0], other.shape[1]), *_product(self, other))
        X = np.asarray(other, dtype=np.float64)
        if X.shape[0] != self.shape[1]:
            raise ValueError("inner dimensions differ")
        X2 = X.reshape(X.shape[0], -1)
        out = np.zeros((self.shape[0], X2.shape[1]))
        if self.vals.size:
            start = _first_of_runs(self.rows).nonzero()[0]
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
    a = np.arange(keys.size).repeat(cnt)
    b = np.arange(a.size) + (lo - cnt.cumsum() + cnt).repeat(cnt)
    return a, b


def _product(A: SparseMatrix, B: SparseMatrix) -> tuple:
    """Triplets (rows, cols, vals) of A @ B, one per pair of joined inner
    indices, unsummed: a position repeats once per inner index it joins."""
    a, b = _join(A.cols, B)
    return A.rows[a], B.cols[b], A.vals[a] * B.vals[b]


def _first_of_runs(key: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of key starts."""
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return first


def _sum_duplicates(key: np.ndarray, vals: np.ndarray) -> tuple:
    """Sorted distinct keys and the sums of their values, each sum taken in
    the order the values are given."""
    order = key.argsort(kind="stable")
    key, vals = key[order], vals[order]
    first = _first_of_runs(key)
    if first.all():
        return key, vals
    return key[first], np.bincount(first.cumsum() - 1, weights=vals)


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

    def place_of(self) -> np.ndarray:
        """The place of every column in its block."""
        return self.ccode & 0xFFFFFFFF

    def blocks_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """The block holding each key, by one searchsorted; -1 where none does."""
        block = self.keys.searchsorted(keys)
        np.minimum(block, self.keys.size - 1, out=block)
        block[self.keys[block] != keys] = -1
        return block


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

    The rows are mapped to the blocks by cs.blocks_of_keys.
    Row r owns the segment start[r]:start[r] + width[r] of a flat buffer,
    one place per column of its block, so the buffer read in order is
    row-major and its nonzero entries are canonical triplets.
    rcode[r] + ccode[c] lies in [0, 2^32) exactly when (r, c) joins equal
    keys, and is then the place of the entry in the buffer (buffers stay far
    below 2^32 entries).
    """
    return _block_layout(cs.blocks_of_keys(rows), cs)


def _block_layout(block: np.ndarray, cs: _Columns) -> _Layout:
    """The layout of _graded_layout for rows whose blocks of cs are already
    known (-1 for a row of no block), with no search."""
    hit = block >= 0
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

    F maps i to a SparseMatrix; dense input is converted.  E is derived
    from it (QModule.E).  factors is (V, W) on the module tensor(V, W)
    returns (references, not copies), and None on every other module.

    All arithmetic is float64: check_module gates backward-relative
    residuals, so deep modules with q-integer-sized entries need no wider
    working precision.
    """

    # Read-only; perfbench/tracer.py reads it to size tensor outputs.
    dtype = np.dtype(np.float64)

    def __init__(self, N, q, weights, F, highest_weight=None):
        self.N = int(N)
        self.q = check_q(q)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.weights.ndim != 2 or self.weights.shape[1] != self.N - 1:
            raise ValueError("weights must be (dim, N-1)")
        self.dim = self.weights.shape[0]
        self.F = {i: _as_sparse(F[i]) for i in range(1, self.N)}
        if any(X.shape != (self.dim, self.dim) for X in self.F.values()):
            raise ValueError("generator matrix shape mismatch")
        self.highest_weight = highest_weight
        self.factors = None
        self._E = None
        self._blocks = None
        self._key_radix = None

    @property
    def E(self) -> dict:
        """E_i = K_i F_i^T, the unitarity E_i^T = F_i K_i of the real
        orthonormal basis (cached): the canonical transpose of F_i, each
        value times q^{wt_i} of its row, which leaves F_i.T unformed.  No
        other code forms an E."""
        if self._E is None:
            self._E = {}
            for i, X in self.F.items():
                T = X._transposed()
                self._E[i] = SparseMatrix._canonical(T.shape, T.rows, T.cols,
                                                     T.vals * self.k_diag(i)[T.rows])
        return self._E

    # -- K action -------------------------------------------------------
    def k_diag(self, i: int, power: int = 1) -> np.ndarray:
        """Diagonal of K_i^power: q^(power * wt(v)(i))."""
        return self.q ** (power * self.weights[:, i - 1].astype(np.float64))

    # -- structure ------------------------------------------------------
    @property
    def hw_vector(self) -> np.ndarray:
        """Unit vector 0: a module with a highest weight keeps its vector there."""
        if self.highest_weight is None:
            raise ValueError("module has no phase-fixed highest weight vector")
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    @property
    def lowest_vector(self) -> np.ndarray:
        """Unit vector at the one basis index of the lowest weight
        w0(hw) = -reversed(hw), which no F_i may move: no F_i triplet sits in
        its column.  Raises ValueError without a highest weight and
        InvariantViolation unless that weight is simple and F-free."""
        if self.highest_weight is None:
            raise ValueError("module has no highest weight, hence no lowest weight vector")
        low = -np.array(self.highest_weight.coords[::-1], dtype=np.int64)
        idx = np.flatnonzero((self.weights == low).all(axis=1))
        if idx.size != 1 or any((F.cols == idx[0]).any() for F in self.F.values()):
            raise InvariantViolation(f"no simple lowest weight vector of weight "
                                     f"{Weight(tuple(low.tolist()))}")
        v = np.zeros(self.dim)
        v[idx[0]] = 1.0
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


def _generator_stacks(V: QModule, sign: int, what: str, blocks=None) -> tuple:
    """The stacked generators [X_1; X_2; ...] (X = E for sign 1, F for -1)
    summed into the weight-block layout of V.column_side().

    Row v of X_i is keyed by wt(v) - sign * alpha_i, the weight X_i maps
    into it, so block mu stacks X_i[mu + sign * alpha_i, mu] over i in
    turn; a triplet off the weight grading raises InvariantViolation.
    Returns (lay, [(ks, stacked blocks (len(ks), h, m))]) for the blocks
    with rows, or for those of them among blocks (ascending block numbers),
    grouped by shape as in _graded_stacks.
    """
    cs = V.column_side()
    mats = [(V.E if sign > 0 else V.F)[i] for i in range(1, V.N)]
    lay = _graded_layout((V.weights @ V._key_radix - sign * (cartan_matrix(V.N) @ V._key_radix)
                          [:, None]).ravel(), cs)
    buf = _graded_sum(lay, np.concatenate([X.rows + x * V.dim for x, X in enumerate(mats)]),
                      np.concatenate([X.cols for X in mats]),
                      np.concatenate([X.vals for X in mats]), what)
    if blocks is None:
        rows = (lay.block >= 0).nonzero()[0]
    else:
        want = np.zeros(cs.keys.size + 1, dtype=bool)
        want[blocks] = True   # want[-1], the place of rows without a block, stays False
        rows = want[lay.block].nonzero()[0]
    stacks = _graded_stacks(lay, rows)
    return lay, [(ks, buf[pos]) for ks, pos in stacks]


def trivial_module(N: int, q: float) -> QModule:
    return QModule(N, q, np.zeros((1, N - 1), dtype=np.int64),
                   {i: np.zeros((1, 1)) for i in range(1, N)},
                   highest_weight=Weight((0,) * (N - 1)))


def standard_module(N: int, q: float) -> QModule:
    """The defining N-dim module: F_i e_i = q^(-1/2) e_{i+1}, so that
    E_i e_{i+1} = q^(1/2) e_i."""
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
    F = {}
    for i in range(1, N):
        F[i] = np.zeros((N, N))
        F[i][i, i - 1] = 1.0 / sq
    from .qcore import fundamental_weight

    return QModule(N, q, wts, F, highest_weight=fundamental_weight(1, N))


def tensor(V: QModule, W: QModule) -> QModule:
    """V ox W in the product basis (a, b) -> a * dim(W) + b, from triplets;
    its factors are (V, W).

    F_i = F_i ox K_i^-1 + 1 ox F_i.  The two terms never share a position
    (F_i moves the weight, so F ox K^-1 has off-diagonal factor blocks and
    1 ox F diagonal ones), so every entry is the single product the dense
    kron formula would give.
    """
    if V.N != W.N or V.q != W.q:
        raise ValueError("tensor factors must share N and q")
    dV, dW = V.dim, W.dim
    jW, aV = np.arange(dW), np.arange(dV)

    def coproduct(X, kinv, Y):   # X ox diag(kinv) + 1 ox Y
        across = ((X.rows[:, None] * dW + jW).ravel(), (X.cols[:, None] * dW + jW).ravel(),
                  (X.vals[:, None] * kinv).ravel())
        along = ((aV[:, None] * dW + Y.rows).ravel(), (aV[:, None] * dW + Y.cols).ravel(),
                 np.tile(Y.vals, dV))
        return SparseMatrix((dV * dW, dV * dW), *map(np.concatenate, zip(across, along)))

    F = {i: coproduct(V.F[i], W.k_diag(i, -1), W.F[i]) for i in range(1, V.N)}
    wts = (V.weights[:, None, :] + W.weights[None, :, :]).reshape(dV * dW, V.N - 1)
    out = QModule(V.N, V.q, wts, F)
    out.factors = (V, W)
    return out


def contragredient(V: QModule) -> QModule:
    """Conjugate module in its unitarity-normalized orthonormal basis.

    F_i -> -q^-1 E_i, weights negated (so K -> K^-1), and then E_i -> -q F_i
    by construction.  The q factors are the diag(q^(rho, wt)) change of
    basis that makes the conjugate inner product unitary; applying the
    construction twice returns the original matrices up to the rounding of
    q^-1 and the K factors.
    """
    F = {i: -(1.0 / V.q) * V.E[i] for i in range(1, V.N)}
    return QModule(V.N, V.q, -V.weights, F)


def _max_abs(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals), initial=0.0))


# check_module works in chunks of source blocks.  The products of one chunk
# hold an eighth of the entries of the padded generator blocks, or this many
# (512 KB) if that is more: the transients of a chunk stay below the blocks.
_CHUNK_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def _relation_products(r: int) -> tuple:
    """The products check_module forms in rank r, as generator numbers:
    x < r is E_{x+1}, x >= r is F_{x-r+1}.

    Returns (a, b, z, ns): product p is X_a[p] X_b[p], taken at the block
    that X_z[p] maps the source block into; z[p] = 2r stands for the source
    block itself.  The first ns products are taken at the source block:
    E_i F_j, then F_j E_i, for all (i, j) row-major, then per family A = E, F
    the distant q-Serre pairs A_x A_y, A_y A_x.  The others are the left
    factors of the adjacent q-Serre triples (X X) Y, (X Y) X, (Y X) X, per
    family and ordered adjacent pair (X, Y), and z is their third factor.
    """
    pairs = ([(i, r + j) for i in range(r) for j in range(r)]
             + [(r + j, i) for i in range(r) for j in range(r)])
    triples = []
    for f in (0, r):
        pairs += [p for x in range(r) for y in range(x + 2, r)
                  for p in ((f + x, f + y), (f + y, f + x))]
        for x in range(r - 1):
            for X, Y in ((f + x, f + x + 1), (f + x + 1, f + x)):
                triples += [(X, X, Y), (X, Y, X), (Y, X, X)]
    ab = np.array(pairs + [t[:2] for t in triples], dtype=np.intp).reshape(-1, 2).T
    z = np.array([2 * r] * len(pairs) + [t[2] for t in triples], dtype=np.intp)
    ab.flags.writeable = z.flags.writeable = False   # shared by every call
    return ab[0], ab[1], z, len(pairs)


def _amax(A: np.ndarray) -> np.ndarray:
    """max |entry| of each A[k] of a stack."""
    return np.abs(A).max(axis=(1, 2, 3))


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

    The relations are read from the weight blocks, where the grading allows
    a nonzero.  Each generator X_x is scattered into dense blocks G[x, c] =
    X_x[t_x(c), c], one per source block c of V.column_side(), padded to the
    widest block, with a zero block where X_x maps c out of the module.
    Every relation is then formed per source block by batched products of
    gathered blocks: all commutators E_i F_j - F_j E_i - delta_ij [K_i] at
    once, and the q-Serre pairs and triples ((X X) Y and so on, associated
    as written) of both families.  The unitarity E_i^T = F_i K_i holds by
    construction (QModule.E), so it is no relation here.  A large module
    goes in chunks of source blocks (_CHUNK_ENTRIES), each padded to the
    widest block its products touch.
    The terms of a relation add up in the order written, as the dense
    formula does.  An entry off the blocks enters no relation: it is
    reported by 'grading', the largest |entry| off the blocks, which fails
    the gate by itself.

    Returns {'grading', 'commutator', 'serre', 'max', 'passed'}.
    """
    q, r = V.q, V.N - 1
    cs = V.column_side()
    nb, D = cs.keys.size, int(cs.counts.max())
    # tgt[x, c]: the block X_x maps block c into; nb, a zero block, for none;
    # tgt[2r] is the identity
    roots = cartan_matrix(V.N) @ V._key_radix
    tgt = np.empty((2 * r + 1, nb + 1), dtype=np.int64)
    tgt[:-1, :nb] = cs.blocks_of_keys(cs.keys + np.concatenate([roots, -roots])[:, None])
    tgt[:-1, nb] = -1
    tgt[-1] = np.arange(nb + 1)
    tgt[tgt < 0] = nb
    mats = [V.E[i] for i in range(1, V.N)] + [V.F[i] for i in range(1, V.N)]
    x = np.arange(2 * r).repeat([X.vals.size for X in mats])
    rows, cols, vals = (np.concatenate([getattr(X, f) for X in mats])
                        for f in ("rows", "cols", "vals"))
    block = cs.block_of()
    src = block[cols]
    ok = block[rows] == tgt[x, src]
    grading = 0.0
    if not ok.all():
        grading = _max_abs(vals[~ok])
        x, rows, cols, vals, src = x[ok], rows[ok], cols[ok], vals[ok], src[ok]
    place = cs.place_of()
    G = np.zeros((2 * r, nb + 1, D, D))
    G[x, src, place[rows], place[cols]] = vals
    Gf = G.reshape(-1, D, D)

    # per source block c: the flat G index of every factor of every product
    a, b, z, ns = _relation_products(r)
    c = np.arange(nb)
    s = tgt[z, :nb]
    right = b[:, None] * (nb + 1) + s   # flat indices of G and of tgt alike
    mid = tgt.take(right)
    left = a[:, None] * (nb + 1) + mid
    third = z[ns:, None] * (nb + 1) + c
    # [K_i] on the diagonal of block c, in its first counts[c] places
    qi = q_int(V.weights[cs.corder[cs.cstart]].T, q)
    kq = np.where(np.arange(D) < cs.counts[:, None], qi[:, :, None], 0.0)
    # Chunks of source blocks.  Beyond one chunk, the blocks go in the order
    # of the widest block their products touch, and each chunk is padded to
    # its own widest only.
    budget = max(G.size // 8, _CHUNK_ENTRIES) // a.size
    chunks = [(slice(0, nb), D)]
    if nb * D * D > budget:
        width = np.append(cs.counts, 0)
        need = np.maximum.reduce([width[s].max(axis=0), width[mid].max(axis=0),
                                  width[tgt.take(left)].max(axis=0), cs.counts])
        order = need.argsort(kind="stable")
        need, chunks, lo = need[order], [], 0
        while lo < nb:
            cost = np.arange(1, nb - lo + 1) * need[lo:] ** 2
            hi = lo + max(1, int(cost.searchsorted(budget, "right")))
            chunks.append((order[lo:hi], int(need[hi - 1])))
            lo = hi

    q2, rr, nd = q_int(2, q), r * r, ns - 2 * r * r
    nt = a.size - ns
    worst = [np.zeros(rr), np.zeros(nd // 2), np.zeros(nt // 3)]
    pmax, tmax = np.zeros(ns), np.zeros(nt)
    for sl, d in chunks:
        Gd = Gf[:, :d, :d]
        # take() is the faster gather, but it would copy a strided Gd whole
        take = (lambda i: Gf.take(i, axis=0)) if d == D else Gd.__getitem__
        mul = np.multiply if d == 1 else np.matmul   # 1 x 1 blocks: the same products
        P = mul(take(left[:, sl]), take(right[:, sl]))
        T = mul(P[ns:], take(third[:, sl]))
        C = P[:rr] - P[rr:2 * rr]
        C.reshape(rr, -1, d * d)[::r + 1, :, ::d + 1] -= kq[:, sl, :d]
        for k, R in enumerate((C, P[2 * rr:ns:2] - P[2 * rr + 1:ns:2],
                               T[0::3] - q2 * T[1::3] + T[2::3])):
            np.maximum(worst[k], _amax(R), out=worst[k])
        np.maximum(pmax, _amax(P[:ns]), out=pmax)
        np.maximum(tmax, _amax(T), out=tmax)

    diag = np.zeros(rr)
    diag[::r + 1] = np.abs(qi).max(axis=1)
    scale = [np.maximum.reduce([pmax[:rr], pmax[rr:2 * rr], diag]),
             np.maximum(pmax[2 * rr::2], pmax[2 * rr + 1::2]),
             np.maximum.reduce([tmax[0::3], q2 * tmax[1::3], tmax[2::3]])]
    res = [float((wk / np.maximum(sk, 1.0)).max(initial=0.0)) for wk, sk in zip(worst, scale)]
    report = {"grading": grading, "commutator": res[0], "serre": max(res[1], res[2])}
    report["max"] = max(report.values())
    report["passed"] = report["max"] <= tol.identity_tol
    if raise_on_fail and not report["passed"]:
        raise InvariantViolation(f"module relation residuals too large: {report}")
    return report
