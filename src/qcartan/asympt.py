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
measurement reads its modules, isometries and weight keys from one chain.

The square matrices measured here are weight-graded with exact zeros off
their weight blocks: c(n) and the Cartan-projector absorption residual of the
scan, the left side of the f-estimate, and every star-commutation defect map
D_(b,a), which shifts weights by wt(e_a) - wt(e_b).  Their operator norms are
taken as largest block norms by the one helper that also certifies
coassociativity, and each raises InvariantViolation on an off-block entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import Weight, is_regular, pairing
from .numerics import (DEFAULT_TOL, InvariantViolation, ToleranceProfile,
                       operator_norm)
from . import decomp, repn
from .braiding import braid_sigma, braid_sigma_inverse
from .sps import (CartanChain, FockSpace, BlockOp, creation,
                  right_creation, psi, _apply_left, _graded_norm)

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
    tol: ToleranceProfile = field(default=DEFAULT_TOL, repr=False)

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


def _b(W: np.ndarray, x_left: np.ndarray, x: np.ndarray) -> float:
    """||f ((1 - x_left x_left^T) (x) x x^T)|| for a component isometry W."""
    dleft = x_left.shape[0]
    dsub = x.shape[0]
    W3 = W.reshape(dleft, dsub, -1)
    G = np.einsum("abc,b->ac", W3, x)
    return operator_norm(G - np.outer(x_left, x_left @ G))


def _rank_should_stabilize(lam: Weight, weights: np.ndarray, n: int) -> bool:
    """True once n*lam + nu is dominant for every weight nu of the base."""
    shifted = n * lam.as_array()[None, :] + weights
    return bool(np.all(shifted >= 0))


def conjecture_scan(chain: CartanChain) -> ConvergenceTable:
    """Scan a(n), b(n), c(n) and the lowest-weight duals for n below M-2.

    Raises InvariantViolation when any structural property fails: entries
    must be norms of contractions (<= 1), c(n) must dominate a(n) and (up
    to slack) b(n), the Cartan projector must kill P^h_{lam,n lam} minus
    the product projector, and for regular lam the rank of P^h_{lam,n lam}
    must equal dim V_lam once all shifted weights are dominant.
    """
    lam, q, M, tol = chain.lam, chain.q, chain.M, chain.tol
    base = chain.base
    dl = base.dim
    h_lam, l_lam = chain.hw_vector(1), chain.lowest_vector(1)
    regular = is_regular(lam)

    ns, A, B, C, AL, BL = [], [], [], [], [], []
    for n in range(1, M - GUARD_LEVELS + 1):
        lev = chain.levels[n]
        dn = lev.dim
        T = repn.tensor(base, lev)
        Qh = decomp.highest_weight_space(T, tol).basis_matrix(T.dim)
        Ql = decomp.lowest_weight_space(T, tol).basis_matrix(T.dim)
        wn = chain.w[n]
        h_n, l_n = chain.hw_vector(n), chain.lowest_vector(n)
        keys_t = chain._weight_keys(1, n)

        a = _a(Qh, h_n, dl)
        b = _b(wn, h_lam, h_n)
        D = Qh @ Qh.T
        D[::dn, ::dn] -= np.eye(dl)
        c = _graded_norm(D, keys_t, keys_t, f"c({n})")
        a_l = _a(Ql, l_n, dl)
        b_l = _b(wn, l_lam, l_n)

        for name, val in (("a", a), ("b", b), ("c", c), ("a_l", a_l), ("b_l", b_l)):
            if not -1e-12 <= val <= 1.0 + 1e-9:
                raise InvariantViolation(f"{name}({n}) = {val} outside [0, 1]")
        if c + 1e-9 < a:
            raise InvariantViolation(f"c({n}) = {c} < a({n}) = {a}")
        if b > c + 1e-7:
            raise InvariantViolation(f"b({n}) = {b} > c({n}) = {c} + slack")

        # f_{lam,n lam} (P^h_{lam,n lam} - P^h_lam (x) P^h_{n lam}) = 0
        M4 = (wn.T @ Qh) @ Qh.T
        M4[:, 0] -= wn[0, :]
        r4 = _graded_norm(M4, chain._weight_keys(n + 1), keys_t,
                          f"Cartan projector absorption at n={n}")
        if r4 > 1e-8:
            raise InvariantViolation(
                f"Cartan projector does not absorb the product projector "
                f"at n={n}: residual {r4:.3e}")

        if regular and _rank_should_stabilize(lam, base.weights, n) \
                and Qh.shape[1] != dl:
            raise InvariantViolation(
                f"rank P^h = {Qh.shape[1]} != dim V_lam = {dl} at n={n}")

        ns.append(n)
        A.append(a); B.append(b); C.append(c); AL.append(a_l); BL.append(b_l)

    return ConvergenceTable(lam, q, M, np.array(ns),
                            np.array(A), np.array(B), np.array(C),
                            np.array(AL), np.array(BL), tol)


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
    ys = table.column(column) if hasattr(table, "column") else table[column]
    if n_min is None:
        n_min = int(ns[BURN_IN_ROWS]) if len(ns) > BURN_IN_ROWS else int(ns[0])
    if n_max is None:
        n_max = int(ns[-1])
    mask = (ns >= n_min) & (ns <= n_max)
    if int(mask.sum()) < 4:
        raise ValueError(f"window [{n_min}, {n_max}] keeps {int(mask.sum())} "
                         "rows; need >= 4")
    return fit_geometric(ns[mask], np.asarray(ys)[mask], column)


# ---------------------------------------------------------------------------
# f-estimate
# ---------------------------------------------------------------------------

def f_estimate_check(chain: CartanChain, n: int,
                     table: ConvergenceTable = None) -> tuple:
    """(lhs, rhs, holds) for ||f_{n+1} - (f_n (x) 1)(1 (x) f_n)|| <= a(n) + b(n-1).

    Both projectors are transported to V_lam (x) V_{n lam} coordinates: the
    left side becomes ||w'_n w_n^T - (w_{n-1}^T (x) 1)(1 (x) w'_{n-1})||.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if n > chain.M - 1:
        raise ValueError(f"n={n} exceeds last isometry {chain.M - 1}")
    dl = chain.base.dim
    term1 = chain.right_isometry(n) @ chain.w[n].T
    X = np.kron(np.eye(dl), chain.right_isometry(n - 1))
    term2 = _apply_left(chain.w[n - 1].T, X, dl)
    lhs = _graded_norm(term1 - term2, chain._weight_keys(n, 1),
                       chain._weight_keys(1, n), f"f-estimate at n={n}")

    if table is not None and n in table.ns and (n - 1) in table.ns:
        a_n = float(table.a[list(table.ns).index(n)])
        b_prev = float(table.b[list(table.ns).index(n - 1)])
    else:
        T = repn.tensor(chain.base, chain.levels[n])
        Qh = decomp.highest_weight_space(T, chain.tol).basis_matrix(T.dim)
        a_n = _a(Qh, chain.hw_vector(n), dl)
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


def sigma_pair(base, tol: ToleranceProfile) -> tuple:
    """(sigma_h_inv, sigma_l): both map V_lam-bar (x) V_lam -> V_lam (x) V_lam-bar.

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
    sig_h_inv = braid_sigma_inverse(base, bar, tol) * scale
    sig_l = braid_sigma(bar, base).matrix * scale
    return sig_h_inv, sig_l


def _defect_maps(W: np.ndarray, G: np.ndarray, keys_lam: np.ndarray,
                 keys_mu: np.ndarray, sigma: np.ndarray, qfac: float) -> DefectNorms:
    """Norms of x -> B(x) - qfac * A(sigma x) on the (dl x dl)-dim domain.

    A(e_a (x) e_b) = W_a^T W_b and B(e_b (x) e_a) = G_b G_a^T, where W_a and
    G_b are the row blocks of W and G with left tensor index a and b; both
    Gram stacks come from one GEMM each, the sigma mixing from one more.
    D_(b,a) = B(e_b (x) e_a) - qfac * A(sigma(e_b (x) e_a)) is graded with
    weight shift wt(e_a) - wt(e_b), so both norms are graded block norms.
    """
    dl, dmu = keys_lam.size, keys_mu.size
    dnu = W.shape[0] // dl

    def blocks(X):   # (dl dmu) x (dl dmu) with blocks [x, y] -> row x*dl + y
        return X.reshape(dl, dmu, dl, dmu).transpose(0, 2, 1, 3).reshape(dl * dl, -1)

    Wc = W.reshape(dl, dnu, dmu).transpose(1, 0, 2).reshape(dnu, dl * dmu)
    D = blocks(G @ G.T) - qfac * (sigma.T @ blocks(Wc.T @ Wc))
    shift = (keys_lam[None, :] - keys_lam[:, None]).reshape(-1)   # (b, a) -> a - b
    worst = max(_graded_norm(D[p].reshape(dmu, dmu), keys_mu, keys_mu + shift[p],
                             "star-commutation defect") for p in range(dl * dl))
    cols = _graded_norm(D.T, (keys_mu[:, None] - keys_mu[None, :]).reshape(-1), shift,
                        "matricized star-commutation defect")
    return DefectNorms(worst, cols)


def _bounds(Q: np.ndarray, W: np.ndarray, G: np.ndarray, x_lam: np.ndarray,
            x_mu: np.ndarray, x_nu: np.ndarray) -> float:
    """b(lam, mu) + b(lam, mu-lam) + a(lam, mu) at the extreme vectors x_*.

    Q spans the extreme vectors of V_lam (x) V_mu of the same kind as x_*.
    """
    return _b(G, x_lam, x_mu) + _b(W, x_lam, x_nu) + _a(Q, x_mu, x_lam.size)


def star_commute_defect_chain(chain: CartanChain, n: int,
                              sigmas: tuple = None) -> StarCommuteReport:
    """Defect of L_zeta* L_xi against q^{-(lam,lam)} L_xi L_zeta* braided.

    mu = n lam; the creation maps come from the chain isometries
    W = w[n-1]: V_mu -> V_lam (x) V_{mu-lam} and G = w[n]: V_{mu+lam} ->
    V_lam (x) V_mu.  sigmas is the pair from sigma_pair(chain.base, chain.tol),
    built here when not given.
    """
    if not 1 <= n <= chain.M - 1:
        raise ValueError(f"need 1 <= n <= {chain.M - 1}")
    if sigmas is None:
        sigmas = sigma_pair(chain.base, chain.tol)
    sig_h_inv, sig_l = sigmas
    W, G = chain.w[n - 1], chain.w[n]
    q, qq = chain.q, pairing(chain.lam, chain.lam)
    keys_lam, keys_mu = chain._weight_keys(1), chain._weight_keys(n)
    defect_h = _defect_maps(W, G, keys_lam, keys_mu, sig_h_inv, q ** (-qq))
    defect_l = _defect_maps(W, G, keys_lam, keys_mu, sig_l, q ** (+qq))

    T = repn.tensor(chain.base, chain.levels[n])
    bound_h = _bounds(decomp.highest_weight_space(T, chain.tol).basis_matrix(T.dim),
                      W, G, *(chain.hw_vector(k) for k in (1, n, n - 1)))
    bound_l = _bounds(decomp.lowest_weight_space(T, chain.tol).basis_matrix(T.dim),
                      W, G, *(chain.lowest_vector(k) for k in (1, n, n - 1)))

    # highest-weight fixed point: B(xi-bar (x) xi) xi_mu = xi_mu = A(...) xi_mu
    dmu, dnu = chain.levels[n].dim, chain.levels[n - 1].dim
    e0 = chain.hw_vector(n)
    rB = np.linalg.norm(G[:dmu, :] @ (G[:dmu, :].T @ e0) - e0)
    rA = np.linalg.norm(W[:dnu, :].T @ (W[:dnu, :] @ e0) - e0)
    return StarCommuteReport(chain.lam, chain.lam * n, q, defect_h, bound_h,
                             defect_l, bound_l, max(float(rB), float(rA)))


# ---------------------------------------------------------------------------
# commutator decay, vacuum limits, compactification
# ---------------------------------------------------------------------------

def commutator_decay(chain: CartanChain, M: int = None) -> tuple:
    """(ns, worst): worst = max over basis pairs of ||[S_a^*, R_b]|_n||."""
    top = chain.M if M is None else min(M, chain.M)
    fock = FockSpace(chain, top)
    dl = chain.base.dim
    eye = np.eye(dl)
    S = [creation(chain, eye[a], fock=fock) for a in range(dl)]
    R = [right_creation(chain, eye[b], fock=fock) for b in range(dl)]
    ns = np.arange(0, top - GUARD_LEVELS + 1)
    worst = np.zeros(len(ns))
    for idx, n in enumerate(ns):
        w = 0.0
        for a in range(dl):
            for b in range(dl):
                term = S[a].block(n).T @ R[b].block(n)
                if n >= 1:
                    term = term - R[b].block(n - 1) @ S[a].block(n - 1).T
                w = max(w, operator_norm(term))
        worst[idx] = w
    return ns, worst


def vacuum_limits(chain: CartanChain, xi: np.ndarray, zeta: np.ndarray,
                  M: int = None) -> dict:
    """Vacuum expectations omega_n against the target <xi, xi_lam><xi_lam, zeta>.

    creation_first[n]      = omega_n(S_xi S_zeta^*)   (exact at every level)
    annihilation_first[n]  = omega_n(S_zeta^* S_xi)   (converges geometrically)
    """
    top = chain.M if M is None else min(M, chain.M)
    fock = FockSpace(chain, top)
    Sx = creation(chain, np.asarray(xi, dtype=np.float64), fock=fock)
    Sz = creation(chain, np.asarray(zeta, dtype=np.float64), fock=fock)
    ns = np.arange(1, top - GUARD_LEVELS + 1)
    cf = np.zeros(len(ns))
    af = np.zeros(len(ns))
    for idx, n in enumerate(ns):
        cf[idx] = float(Sx.block(n - 1)[0, :] @ Sz.block(n - 1)[0, :])
        af[idx] = float(Sx.block(n)[:, 0] @ Sz.block(n)[:, 0])
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


def compactification_table(chain: CartanChain, x: BlockOp, kmax: int,
                           n_min: int = 1) -> tuple:
    """(ns, defects) with a full k-range 0..kmax at every reported n."""
    top = min(x.fock.M, chain.M) - GUARD_LEVELS
    ns = np.arange(n_min, top - kmax + 1)
    if len(ns) == 0:
        raise ValueError("no levels left after the guard band; lower kmax")
    vals = np.array([compactification_defect(chain, x, int(n), kmax)
                     for n in ns])
    return ns, vals
