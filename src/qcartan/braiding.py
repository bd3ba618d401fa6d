"""Quantum root vectors, R-matrices on module pairs, braiding sigma = flip o R.

The R-matrix on V ox W is the diagonal Cartan factor q^((wt v, wt w)) times
the product over positive roots, in a fixed convex order, of the truncated
q-exponentials exp_q((1 - q^-2) F_alpha ox E_alpha). The series is an exact
finite sum (the argument is nilpotent).

Convention freeze: the q-bracket sign in the root-vector recursion, the shape
of the F recursion, and the direction of the factor product are gauge choices
that the source conventions leave open. They were resolved once by an
exhaustive search (intertwiner + eigen-relation tests on N=3 pairs, where the
choices are not degenerate) and the winners are frozen below;
tests/test_braiding.py re-derives them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import repn
from .numerics import DEFAULT_TOL, InvariantViolation, ToleranceProfile
from .qcore import Weight, pairing_array, q_int, simple_root

__all__ = [
    "BRACKET_EXP",
    "MIRROR_F",
    "REVERSE_ORDER",
    "positive_roots",
    "root_weight",
    "RootVectorSet",
    "root_vectors",
    "r_matrix",
    "BraidingOperator",
    "braid_sigma",
    "braid_sigma_inverse",
    "certify_pair",
]

# Frozen by the convention search re-run in tests/test_braiding.py.
BRACKET_EXP = -1     # E_{i,j} = E_{i,j-1} E_j - q^BRACKET_EXP E_j E_{i,j-1}
MIRROR_F = True      # F recursion mirrored (F_j first) with exponent -BRACKET_EXP
REVERSE_ORDER = False  # exp_q factors taken along the convex order as listed


def positive_roots(N: int) -> list:
    """(i, j) pairs for alpha_i + ... + alpha_j, in the convex order induced
    by the reduced word s1 (s2 s1) (s3 s2 s1) ... of the longest Weyl element."""
    return [(i, j) for j in range(1, N) for i in range(1, j + 1)]


def root_weight(i: int, j: int, N: int) -> Weight:
    w = simple_root(i, N)
    for k in range(i + 1, j + 1):
        w = w + simple_root(k, N)
    return w


@dataclass
class RootVectorSet:
    module: object
    E: dict  # (i, j) -> matrix
    F: dict

    def grading_residual(self) -> float:
        V = self.module
        worst = 0.0
        for (i, j), M in self.E.items():
            worst = max(worst, repn._grading_residual(V, M, root_weight(i, j, V.N).as_array()))
        for (i, j), M in self.F.items():
            worst = max(worst, repn._grading_residual(V, M, -root_weight(i, j, V.N).as_array()))
        return worst


def root_vectors(V) -> RootVectorSet:
    """Iterated q-bracket root vectors on a concrete module."""
    q = V.q
    E = {}
    F = {}
    for i in range(1, V.N):
        E[(i, i)] = V.E[i]
        F[(i, i)] = V.F[i]
    for span in range(1, V.N - 1):
        for i in range(1, V.N - span):
            j = i + span
            Ein, Ej = E[(i, j - 1)], V.E[j]
            E[(i, j)] = Ein @ Ej - (q ** BRACKET_EXP) * (Ej @ Ein)
            Fin, Fj = F[(i, j - 1)], V.F[j]
            if MIRROR_F:
                F[(i, j)] = Fj @ Fin - (q ** -BRACKET_EXP) * (Fin @ Fj)
            else:
                F[(i, j)] = Fin @ Fj - (q ** -BRACKET_EXP) * (Fj @ Fin)
    rv = RootVectorSet(V, E, F)
    res = rv.grading_residual()
    if res > 1e-9:
        raise InvariantViolation(f"root vectors break the weight grading by {res:.3e}")
    return rv


def _exp_q(X: np.ndarray, q: float) -> np.ndarray:
    """exp_q(X) = sum_n q^(n(n+1)/2) X^n / [n]_q!, exact for nilpotent X."""
    d = X.shape[0]
    out = np.eye(d)
    term = np.eye(d)
    coef = 1.0
    for n in range(1, d + 1):
        term = term @ X
        if not term.any():
            break
        coef *= q ** n / q_int(n, q)
        out = out + coef * term
    else:
        raise InvariantViolation("exp_q argument did not nilpotate")
    return out


def r_matrix(V, W) -> np.ndarray:
    """R-matrix of the pair (V, W) as a dense matrix on V ox W."""
    if V.N != W.N or V.q != W.q:
        raise ValueError("R-matrix needs matching N and q")
    q = V.q
    N = V.N
    rvV = root_vectors(V)
    rvW = root_vectors(W)
    d = V.dim * W.dim
    R = np.eye(d)
    roots = positive_roots(N)
    if REVERSE_ORDER:
        roots = roots[::-1]
    if q != 1.0:
        scal = 1.0 - q ** (-2)
        for a in roots:
            X = scal * np.kron(rvV.F[a], rvW.E[a])
            R = R @ _exp_q(X, q)
    # Cartan factor q^((wt v, wt w)) on the left (diagonal row scaling)
    if q != 1.0:
        expo = pairing_array(V.weights.astype(np.float64),
                             W.weights.astype(np.float64), N).reshape(-1)
        R = (q ** expo)[:, None] * R
    return R


@dataclass
class BraidingOperator:
    source: tuple  # (V, W)
    matrix: np.ndarray  # V ox W -> W ox V

    def inverse_matrix(self, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        inv = np.linalg.inv(self.matrix)
        res = np.max(np.abs(inv @ self.matrix - np.eye(self.matrix.shape[0])))
        if res > 1e-8:
            raise InvariantViolation(f"braiding inverse residual {res:.3e}")
        return inv


def _flip(M: np.ndarray, dV: int, dW: int) -> np.ndarray:
    """Row reindexing (a, b) -> (b, a): returns Sigma @ M."""
    return M.reshape(dV, dW, -1).transpose(1, 0, 2).reshape(dW * dV, -1)


def braid_sigma(V, W) -> BraidingOperator:
    R = r_matrix(V, W)
    return BraidingOperator((V, W), _flip(R, V.dim, W.dim))


def braid_sigma_inverse(V, W, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Inverse braiding W ox V -> V ox W (numerical inverse, residual-checked)."""
    return braid_sigma(V, W).inverse_matrix(tol)


def _ermat2_residual(V, W, R: np.ndarray) -> float:
    """Eigen-relation R(zeta ox xi) = q^((wt zeta, wt xi)) zeta ox xi for
    xi a h.w. vector of W (zeta any weight vector) and for zeta a l.w. vector
    of V (xi any weight vector)."""
    from . import decomp

    q = V.q
    worst = 0.0
    IV, IW = np.eye(V.dim), np.eye(W.dim)
    hw = decomp.highest_weight_space(W)
    for wt, cols in hw.components:
        for c in range(cols.shape[1]):
            xi = cols[:, c]
            got = R @ np.kron(IV, xi.reshape(-1, 1))
            expo = pairing_array(V.weights.astype(np.float64),
                                 np.array([wt.coords], dtype=np.float64), V.N).reshape(-1)
            want = np.kron(IV, xi.reshape(-1, 1)) * (q ** expo)[None, :]
            worst = max(worst, float(np.max(np.abs(got - want))))
    lw = decomp.lowest_weight_space(V)
    for wt, cols in lw.components:
        for c in range(cols.shape[1]):
            zeta = cols[:, c]
            got = R @ np.kron(zeta.reshape(-1, 1), IW)
            expo = pairing_array(np.array([wt.coords], dtype=np.float64),
                                 W.weights.astype(np.float64), V.N).reshape(-1)
            want = np.kron(zeta.reshape(-1, 1), IW) * (q ** expo)[None, :]
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def certify_pair(V, W, sigma: BraidingOperator = None, R: np.ndarray = None) -> dict:
    """Residuals of the braiding invariants on the pair (V, W):
    generator intertwining of sigma and the R-matrix eigen-relations."""
    if R is None:
        R = r_matrix(V, W)
    if sigma is None:
        sigma = BraidingOperator((V, W), _flip(R, V.dim, W.dim))
    TVW = repn.tensor(V, W)
    TWV = repn.tensor(W, V)
    S = sigma.matrix
    worst = 0.0
    for i in range(1, V.N):
        for attr in ("E", "F"):
            a = getattr(TVW, attr)[i]
            b = getattr(TWV, attr)[i]
            worst = max(worst, float(np.max(np.abs(S @ a - b @ S))))
        kk = TWV.k_diag(i)[:, None] * S - S * TVW.k_diag(i)[None, :]
        worst = max(worst, float(np.max(np.abs(kk))))
    return {"intertwiner": worst, "ermat2": _ermat2_residual(V, W, R)}

