"""Convergence and defect measurements along Cartan subproduct chains.

Everything here is a norm of a concrete finite-dimensional matrix:

  a(n) = ||(1 - 1 (x) P^h_{n lam}) P^h_{lam, n lam}||
  b(n) = ||f_{lam, n lam} ((1 - P^h_lam) (x) P^h_{n lam})||
  c(n) = ||P^h_{lam, n lam} - 1 (x) P^h_{n lam}||

together with the lowest-weight duals a_l, b_l, geometric rate fits, the
projector-factorization estimate for the chain isometries, the defect of
star-commutation against the braiding, right/left creation commutators,
vacuum-state limits, and the level-compression (compactification) defect.

The h- and l-quantities go through the same two helpers, _a and _b, which
contract against the chain's extreme vectors: chain.hw_vector(k), one-hot
at index 0 in chain coordinates, and chain.lowest_vector(k).  Every
measurement reads its modules, the tensor products V_lam (x) V_{n lam} that
the build formed, its isometries, weight keys and column sides from one
chain.  The extreme-weight columns Q^h and Q^l of V_lam (x) V_{n lam} come
from _extreme_columns; decomp raises InvariantViolation unless their
multiplicities equal the Brauer-Klimyk count of the tensor product's
components, weight by weight, for every lam.

The square matrices measured here are weight-graded with exact zeros off
their weight blocks: c(n) and the Cartan-projector absorption residual of the
scan, the left side of the f-estimate, and every star-commutation defect map
D_(b,a), which shifts weights by wt(e_a) - wt(e_b).  Each is given as two
sets of triplets to sps._graded_norm, which also certifies coassociativity:
it sums one into the weight-block layout, subtracts the other in place and
returns the largest block norm, raising InvariantViolation on an off-block
entry.  No matrix of level size squared is dense.  The scan joins the
extreme-weight columns Q^h as triplets (repn._product); the f-estimate's
terms are joins too (sps._apply), and nothing in it is sorted; the star
defects of one level take the Gram triplets G_b G_a^T and W_a^T W_b once
for both braidings, mix the braiding in with one join, summed by one sort,
and lay all dim(V_lam)^2 maps D_(b,a) out block-diagonally, so one graded
norm gives their largest norm.  Only matrices of size dim V_lam times a
level dimension (the contractions of _b, the columns Q^h) are dense.

The commutator decay and the vacuum limits are dense per level: each reads
its creation blocks as one stack per level and side from
sps._creation_blocks, the one scatter of the chain's shift operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import Weight, pairing
from .numerics import InvariantViolation, operator_norm
from . import decomp, repn
from .braiding import braid_sigma, braid_sigma_inverse
from .sps import (CartanChain, BlockOp, psi, _apply, _columns, _creation_blocks,
                  _graded_norm)

GUARD_LEVELS = 2      # rows this close to the truncation are never reported
BURN_IN_ROWS = 2      # rate fits drop this many initial rows
ZERO_FLOOR = 1e-14    # below this a column counts as converged to zero
GEOMETRIC_RESID = 2e-2  # max log-residual for the geometric-decay flag


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceTable:
    """Per-level conjecture quantities for one chain (rows below guard band)."""

    lam: Weight
    q: float
    M: int
    ns: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a_l: np.ndarray
    b_l: np.ndarray

    COLUMNS = ("a", "b", "c", "a_l", "b_l")

    def column(self, name: str) -> np.ndarray:
        if name not in self.COLUMNS:
            raise KeyError(f"no column {name!r}; have {self.COLUMNS}")
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.ns)


def _a(Q: np.ndarray, x: np.ndarray, dleft: int) -> float:
    """||(1 - 1 (x) x x^T) Q|| for Q with orthonormal columns and unit x."""
    dsub = x.shape[0]
    r = Q.shape[1]
    Qr = Q.reshape(dleft, dsub, r)
    coef = np.einsum("abr,b->ar", Qr, x)
    Qz = Qr - coef[:, None, :] * x[None, :, None]
    return operator_norm(Qz.reshape(dleft * dsub, r))


def _b(W: repn.SparseMatrix, x_left: np.ndarray, x: np.ndarray) -> float:
    """||f ((1 - x_left x_left^T) (x) x x^T)|| for a component isometry W.

    The contraction G[a, c] = sum_b W[a * dsub + b, c] x[b] is one bincount
    of the triplets of W.
    """
    dleft, dsub, m = x_left.size, x.size, W.shape[1]
    a, b = np.divmod(W.rows, dsub)
    G = np.bincount(a * m + W.cols, weights=W.vals * x[b],
                    minlength=dleft * m).reshape(dleft, m)
    return operator_norm(G - np.outer(x_left, x_left @ G))


def _extreme_columns(chain: CartanChain, n: int, raising: bool) -> np.ndarray:
    """Highest (raising) or lowest weight columns of V_lam (x) V_(n lam),
    held to its Brauer-Klimyk component count by decomp."""
    T = chain.tensor(n)
    space = decomp.highest_weight_space if raising else decomp.lowest_weight_space
    return space(T, chain.tol).basis_matrix(T.dim)


def conjecture_scan(chain: CartanChain) -> ConvergenceTable:
    """Scan a(n), b(n), c(n) and the lowest-weight duals for n below M-2.

    Raises InvariantViolation when any structural property fails: entries
    must be norms of contractions (<= 1), c(n) must dominate a(n) and (up
    to slack) b(n), the Cartan projector must kill P^h_{lam,n lam} minus
    the product projector, and the ranks of P^h_{lam,n lam} and
    P^l_{lam,n lam} must count the components of V_lam (x) V_{n lam},
    weight by weight (_extreme_columns).
    """
    lam, q, M = chain.lam, chain.q, chain.M
    dl = chain.base.dim
    h_lam, l_lam = chain.hw_vector(1), chain.lowest_vector(1)

    ns, A, B, C, AL, BL = [], [], [], [], [], []
    for n in range(1, M - GUARD_LEVELS + 1):
        dn = chain.levels[n].dim
        Qh = _extreme_columns(chain, n, True)
        Ql = _extreme_columns(chain, n, False)
        wn = chain.w[n]
        Qs = repn.SparseMatrix.from_dense(Qh)
        h_n, l_n = chain.hw_vector(n), chain.lowest_vector(n)
        keys_t, cols_t = chain._weight_keys(1, n), chain._column_side(1, n)

        a = _a(Qh, h_n, dl)
        b = _b(wn, h_lam, h_n)
        units = np.arange(dl) * dn   # 1 (x) P^h_{n lam}: a unit at (a dn, a dn)
        c = _graded_norm(keys_t, cols_t, f"c({n})", repn._product(Qs, Qs.T),
                         (units, units, np.ones(dl)))
        a_l = _a(Ql, l_n, dl)
        b_l = _b(wn, l_lam, l_n)

        for name, val in (("a", a), ("b", b), ("c", c), ("a_l", a_l), ("b_l", b_l)):
            if not -1e-12 <= val <= 1.0 + 1e-9:
                raise InvariantViolation(f"{name}({n}) = {val} outside [0, 1]")
        if c + 1e-9 < a:
            raise InvariantViolation(f"c({n}) = {c} < a({n}) = {a}")
        if b > c + 1e-7:
            raise InvariantViolation(f"b({n}) = {b} > c({n}) = {c} + slack")

        # f_{lam,n lam} (P^h_{lam,n lam} - P^h_lam (x) P^h_{n lam}) = 0: the
        # product projector leaves column 0 of f = w_n^T, which is row 0 of w_n
        head = _leading_rows(wn, 1)
        r4 = _graded_norm(chain._weight_keys(n + 1), cols_t,
                          f"Cartan projector absorption at n={n}",
                          repn._product(wn.T @ Qs, Qs.T),
                          (head.cols, np.zeros_like(head.cols), head.vals))
        if r4 > 1e-8:
            raise InvariantViolation(
                f"Cartan projector does not absorb the product projector "
                f"at n={n}: residual {r4:.3e}")

        ns.append(n)
        A.append(a); B.append(b); C.append(c); AL.append(a_l); BL.append(b_l)

    return ConvergenceTable(lam, q, M, np.array(ns),
                            np.array(A), np.array(B), np.array(C),
                            np.array(AL), np.array(BL))


def _leading_rows(X: repn.SparseMatrix, m: int) -> repn.SparseMatrix:
    """Rows 0..m-1 of X: a prefix of its row-major triplets."""
    k = int(np.searchsorted(X.rows, m))
    return repn.SparseMatrix._canonical((m, X.shape[1]), X.rows[:k], X.cols[:k],
                                        X.vals[:k])


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    column: str
    t_hat: float
    c_hat: float
    window: tuple
    residual: float
    geometric: bool
    converged_to_zero: bool = False


def fit_geometric(ns, values, column: str = "") -> RateFit:
    """Least squares of log(values) against n; t_hat = exp(slope)."""
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if len(ns) < 4:
        raise ValueError("need at least 4 rows for a rate fit")
    if np.min(values) <= 0.0 or np.max(values) < ZERO_FLOOR:
        return RateFit(column, 0.0, 0.0, (int(ns[0]), int(ns[-1])),
                       0.0, True, converged_to_zero=True)
    logs = np.log(values)
    slope, intercept = np.polyfit(ns, logs, 1)
    resid = float(np.max(np.abs(logs - (slope * ns + intercept))))
    return RateFit(column, float(np.exp(slope)), float(np.exp(intercept)),
                   (int(ns[0]), int(ns[-1])), resid,
                   resid <= GEOMETRIC_RESID)


def rate_fit(table, column: str, n_min: int = None, n_max: int = None) -> RateFit:
    """Geometric fit of a table column; defaults drop BURN_IN_ROWS rows."""
    ns = np.asarray(table.ns)
    ys = table.column(column)
    if n_min is None:
        n_min = int(ns[BURN_IN_ROWS]) if len(ns) > BURN_IN_ROWS else int(ns[0])
    if n_max is None:
        n_max = int(ns[-1])
    mask = (ns >= n_min) & (ns <= n_max)
    if int(mask.sum()) < 4:
        raise ValueError(f"window [{n_min}, {n_max}] keeps {int(mask.sum())} "
                         "rows; need >= 4")
    return fit_geometric(ns[mask], ys[mask], column)


# ---------------------------------------------------------------------------
# f-estimate
# ---------------------------------------------------------------------------

def f_estimate_check(chain: CartanChain, n: int,
                     table: ConvergenceTable = None) -> tuple:
    """(lhs, rhs, holds) for ||f_{n+1} - (f_n (x) 1)(1 (x) f_n)|| <= a(n) + b(n-1).

    Both projectors are transported to V_lam (x) V_{n lam} coordinates: the
    left side becomes ||w'_n w_n^T - (w_{n-1}^T (x) 1)(1 (x) w'_{n-1})||.
    Both terms are unsummed triplets: the first one join (repn._product),
    the second the identity joined against w'_{n-1}^T and then against
    w_{n-1} (sps._apply).  The graded norm sums the first into the weight
    blocks and subtracts the second in place, so nothing is sorted.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if n > chain.M - 1:
        raise ValueError(f"n={n} exceeds last isometry {chain.M - 1}")
    dl = chain.base.dim
    eye = np.arange(dl * chain.levels[n].dim)
    lhs = _graded_norm(chain._weight_keys(n, 1), chain._column_side(1, n),
                       f"f-estimate at n={n}",
                       repn._product(chain.right_isometry(n), chain.w[n].T),
                       _apply(chain.w[n - 1], _apply(chain.right_isometry(n - 1).T,
                                                     (eye, eye, np.ones(eye.size)), dl, 1),
                              1, dl))

    if table is not None and n in table.ns and (n - 1) in table.ns:
        a_n = float(table.a[list(table.ns).index(n)])
        b_prev = float(table.b[list(table.ns).index(n - 1)])
    else:
        a_n = _a(_extreme_columns(chain, n, True), chain.hw_vector(n), dl)
        b_prev = _b(chain.w[n - 1], chain.hw_vector(1), chain.hw_vector(n - 1))
    rhs = a_n + b_prev
    return lhs, rhs, bool(lhs <= rhs + 1e-7)


# ---------------------------------------------------------------------------
# star-commutation defect
# ---------------------------------------------------------------------------

@dataclass
class DefectNorms:
    """Two norms of a map (V_lam-bar (x) V_lam) -> B(V_mu); see module doc.

    basis_max is the max operator norm over an orthonormal domain basis
    (a lower bound for the map norm); matricized is the 2->2 norm with
    Hilbert-Schmidt codomain (an upper bound up to a sqrt(dim) factor).
    """

    basis_max: float
    matricized: float


@dataclass
class StarCommuteReport:
    lam: Weight
    mu: Weight
    q: float
    defect_h: DefectNorms
    bound_combo_h: float
    defect_l: DefectNorms
    bound_combo_l: float
    hw_fixed_point_residual: float


def sigma_pair(base) -> tuple:
    """(sigma_h_inv, sigma_l) as SparseMatrix triplets, built once per chain:
    both map V_lam-bar (x) V_lam -> V_lam (x) V_lam-bar.

    The creation pairing zeta-bar |-> L_zeta^* identifies the conjugate basis
    with the module basis index-by-index.  That identification is equivariant
    for the conjugate action E -> -F, F -> -E, which differs from the
    unitarity-normalized contragredient (repn.contragredient) by the diagonal
    change of basis diag(q^{-(rho, wt)}).  Transport both braiding matrices
    through that diagonal so they act on the pairing's coordinates: the
    element at row (a', b'), column (b, a) picks up d_b / d_{b'} with
    d_x = q^{-(rho, wt(e_x))}.  Without the transport the defect norms stall
    at O(q - q^{-1}) instead of decaying.
    """
    from .qcore import rho

    bar = repn.contragredient(base)
    dl = base.dim
    rh = rho(base.N)
    d = np.array([base.q ** (-pairing(rh, Weight(tuple(w)))) for w in base.weights])
    idx = np.arange(dl * dl)
    scale = (1.0 / d[idx % dl])[:, None] * d[idx // dl][None, :]
    sig_h_inv = braid_sigma_inverse(base, bar) * scale
    sig_l = braid_sigma(bar, base).matrix * scale
    return repn.SparseMatrix.from_dense(sig_h_inv), repn.SparseMatrix.from_dense(sig_l)


def _grams(W: repn.SparseMatrix, G: repn.SparseMatrix, dmu: int) -> tuple:
    """(B, A): the Gram maps of one level, shared by both braidings.

    B(b, a) = G_b G_a^T and A(a, b) = W_a^T W_b, where G_b and W_a are the
    row blocks of G and W with left tensor index b and a.  Each is the
    triplets (p, i, j, v) of a stack of maps, entry [i, j] of map p: B at
    p = b * dl + a, A at p = a * dl + b, one triplet per entry.  B comes
    from the product G G^T and A from Wc^T Wc, where Wc[k, a * dmu + i] =
    W_a[k, i] moves the left index of W to its columns.
    """
    dl = G.shape[0] // dmu
    dnu = W.shape[0] // dl
    a, k = np.divmod(W.rows, dnu)
    Wc = repn.SparseMatrix((dnu, dl * dmu), k, a * dmu + W.cols, W.vals)

    def split(P):   # (x * dmu + i, y * dmu + j) -> (x * dl + y, i, j)
        x, i = np.divmod(P.rows, dmu)
        y, j = np.divmod(P.cols, dmu)
        return x * dl + y, i, j, P.vals

    return split(G @ G.T), split(Wc.T @ Wc)


def _defect_maps(B: tuple, A: tuple, sigma: repn.SparseMatrix, qfac: float,
                 keys_lam: np.ndarray, keys_mu: np.ndarray) -> DefectNorms:
    """Norms of x -> B(x) - qfac * A(sigma x) on the (dl x dl)-dim domain.

    D_(b,a) = B(e_b (x) e_a) - qfac * S_(b,a) with S_(b,a) = sum_r
    sigma[r, (b,a)] A(r), the sum one join of A's stack index r against the
    rows of sigma, summed by one sort so that qfac scales each entry once.
    The maps D_p are laid out block-diagonally, D_p[i, j] at
    (p * dmu + i, p * dmu + j); D_p shifts weights by wt(e_a) - wt(e_b), so
    the row key key_mu[i] * dl^2 + p and the column key
    (key_mu[j] + shift_p) * dl^2 + p grade them all at once, and one graded
    norm of B - qfac * S is the largest map norm.  The matricized norm reads
    the same triplets as the (dmu^2, dl^2) matrix with rows (i, j),
    numbering only the rows that hold an entry of B or S.
    """
    dl2, dmu = keys_lam.size ** 2, keys_mu.size
    r, i, j, v = A
    x, y = repn._join(r, sigma)
    S = repn.SparseMatrix((dl2 * dmu, dmu), sigma.cols[y] * dmu + i[x], j[x],
                          sigma.vals[y] * v[x])
    S = (*np.divmod(S.rows, dmu), S.cols, qfac * S.vals)   # (p, i, j, qfac * v), as B
    shift = (keys_lam[None, :] - keys_lam[:, None]).reshape(-1)   # (b, a) -> a - b
    maps = np.arange(dl2)[:, None]
    worst = _graded_norm((keys_mu[None, :] * dl2 + maps).reshape(-1),
                         _columns(((keys_mu[None, :] + shift[:, None]) * dl2
                                   + maps).reshape(-1)),
                         "star-commutation defect",
                         *((p * dmu + i, p * dmu + j, v) for p, i, j, v in (B, S)))
    ij, row = np.unique(np.concatenate([B[1] * dmu + B[2], S[1] * dmu + S[2]]),
                        return_inverse=True)
    cols = _graded_norm(keys_mu[ij // dmu] - keys_mu[ij % dmu], _columns(shift),
                        "matricized star-commutation defect",
                        (row[:B[0].size], B[0], B[3]), (row[B[0].size:], S[0], S[3]))
    return DefectNorms(worst, cols)


def _bounds(Q: np.ndarray, W: repn.SparseMatrix, G: repn.SparseMatrix,
            x_lam: np.ndarray, x_mu: np.ndarray, x_nu: np.ndarray) -> float:
    """b(lam, mu) + b(lam, mu-lam) + a(lam, mu) at the extreme vectors x_*.

    Q spans the extreme vectors of V_lam (x) V_mu of the same kind as x_*.
    """
    return _b(G, x_lam, x_mu) + _b(W, x_lam, x_nu) + _a(Q, x_mu, x_lam.size)


def star_commute_defect_chain(chain: CartanChain, n: int,
                              sigmas: tuple = None) -> StarCommuteReport:
    """Defect of L_zeta* L_xi against q^{-(lam,lam)} L_xi L_zeta* braided.

    mu = n lam; the creation maps come from the chain isometries
    W = w[n-1]: V_mu -> V_lam (x) V_{mu-lam} and G = w[n]: V_{mu+lam} ->
    V_lam (x) V_mu.  sigmas is the pair from sigma_pair(chain.base),
    built here when not given.
    """
    if not 1 <= n <= chain.M - 1:
        raise ValueError(f"need 1 <= n <= {chain.M - 1}")
    if sigmas is None:
        sigmas = sigma_pair(chain.base)
    sig_h_inv, sig_l = sigmas
    W, G = chain.w[n - 1], chain.w[n]
    q, qq = chain.q, pairing(chain.lam, chain.lam)
    keys_lam, keys_mu = chain._weight_keys(1), chain._weight_keys(n)
    dmu, dnu = keys_mu.size, chain.levels[n - 1].dim
    B, A = _grams(W, G, dmu)
    defect_h = _defect_maps(B, A, sig_h_inv, q ** (-qq), keys_lam, keys_mu)
    defect_l = _defect_maps(B, A, sig_l, q ** (+qq), keys_lam, keys_mu)

    bound_h = _bounds(_extreme_columns(chain, n, True),
                      W, G, *(chain.hw_vector(k) for k in (1, n, n - 1)))
    bound_l = _bounds(_extreme_columns(chain, n, False),
                      W, G, *(chain.lowest_vector(k) for k in (1, n, n - 1)))

    # highest-weight fixed point: B(xi-bar (x) xi) xi_mu = xi_mu = A(...) xi_mu,
    # from the rows of G and W with left tensor index 0
    e0 = chain.hw_vector(n)
    G0, W0 = _leading_rows(G, dmu), _leading_rows(W, dnu)
    rB = np.linalg.norm(G0 @ (G0.T @ e0) - e0)
    rA = np.linalg.norm(W0.T @ (W0 @ e0) - e0)
    return StarCommuteReport(chain.lam, chain.lam * n, q, defect_h, bound_h,
                             defect_l, bound_l, max(float(rB), float(rA)))


# ---------------------------------------------------------------------------
# commutator decay, vacuum limits, compactification
# ---------------------------------------------------------------------------

def commutator_decay(chain: CartanChain, M: int = None) -> tuple:
    """(ns, worst): worst = max over basis pairs of ||[S_a^*, R_b]|_n||.

    One left and one right stack of basis shifts per level
    (sps._creation_blocks).  The commutators of one S_a^* with every R_b
    are one batched product and one batched SVD, so at most dim(V_lam)
    level-sized squares are held at once.
    """
    top = chain.M if M is None else min(M, chain.M)
    eye = np.eye(chain.base.dim)
    ns = np.arange(0, top - GUARD_LEVELS + 1)
    S = [_creation_blocks(chain, eye, n).transpose(0, 2, 1) for n in ns]   # S_a^*
    R = [_creation_blocks(chain, eye, n, right=True) for n in ns]
    worst = np.zeros(len(ns))
    for n in ns:
        for a in range(len(eye)):
            term = S[n][a] @ R[n]   # term[b] = S_a^* R_b
            if n >= 1:
                term = term - R[n - 1] @ S[n - 1][a]
            worst[n] = max(worst[n], np.linalg.svd(term, compute_uv=False)[:, 0].max())
    return ns, worst


def vacuum_limits(chain: CartanChain, xi: np.ndarray, zeta: np.ndarray,
                  M: int = None) -> dict:
    """Vacuum expectations omega_n against the target <xi, xi_lam><xi_lam, zeta>.

    creation_first[n]      = omega_n(S_xi S_zeta^*)   (exact at every level)
    annihilation_first[n]  = omega_n(S_zeta^* S_xi)   (converges geometrically)

    Level k reads one two-block stack [S_xi; S_zeta] (sps._creation_blocks).
    """
    top = chain.M if M is None else min(M, chain.M)
    ns = np.arange(1, top - GUARD_LEVELS + 1)
    S = [_creation_blocks(chain, [xi, zeta], k) for k in range(top - GUARD_LEVELS + 1)]
    cf = np.array([float(S[n - 1][0, 0, :] @ S[n - 1][1, 0, :]) for n in ns])
    af = np.array([float(S[n][0, :, 0] @ S[n][1, :, 0]) for n in ns])
    target = float(xi[0]) * float(zeta[0])
    return {
        "n": ns,
        "creation_first": cf,
        "annihilation_first": af,
        "target": target,
        "residual_creation": np.abs(cf - target),
        "residual_annihilation": np.abs(af - target),
    }


def compactification_defect(chain: CartanChain, x: BlockOp, n: int,
                            kmax: int) -> float:
    """sup_{0 <= k <= kmax} ||psi_{n,n+k}(x_n) - x_{n+k}|| (guard-banded)."""
    if x.shift != 0:
        raise ValueError("defined for block-diagonal operators")
    top = min(x.fock.M, chain.M) - GUARD_LEVELS
    worst = 0.0
    for k in range(0, kmax + 1):
        if n + k > top:
            break
        worst = max(worst, operator_norm(psi(chain, n, k, x.block(n))
                                         - x.block(n + k)))
    return worst


def compactification_table(chain: CartanChain, x: BlockOp, kmax: int) -> tuple:
    """(ns, defects) with a full k-range 0..kmax at every reported n."""
    top = min(x.fock.M, chain.M) - GUARD_LEVELS
    ns = np.arange(1, top - kmax + 1)
    if len(ns) == 0:
        raise ValueError("no levels left after the guard band; lower kmax")
    vals = np.array([compactification_defect(chain, x, int(n), kmax)
                     for n in ns])
    return ns, vals
