"""Quantum root vectors, R-matrices on module pairs, braiding sigma = flip o R.

The R-matrix on V ox W is the diagonal Cartan factor q^((wt v, wt w)) times
the product over positive roots, in a fixed convex order, of the truncated
q-exponentials exp_q((1 - q^-2) F_alpha ox E_alpha).  Each is the exact finite
sum of the c_n F_alpha^n ox E_alpha^n (the argument is nilpotent), so R is a
short sum of Kronecker terms: root vectors are dense on their own module only,
and no product on V ox W is formed.

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
from .numerics import InvariantViolation
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
        for mats, sgn in ((self.E, 1), (self.F, -1)):
            for (i, j), M in mats.items():
                worst = max(worst, repn._grading_residual(
                    V, repn.SparseMatrix.from_dense(M), sgn * root_weight(i, j, V.N).as_array()))
        return worst


def root_vectors(V) -> RootVectorSet:
    """Iterated q-bracket root vectors on a concrete module, as dense matrices."""
    q = V.q
    E = {(i, i): V.E[i].to_dense() for i in range(1, V.N)}
    F = {(i, i): V.F[i].to_dense() for i in range(1, V.N)}
    for span in range(1, V.N - 1):
        for i in range(1, V.N - span):
            j = i + span
            Ein, Ej = E[(i, j - 1)], E[(j, j)]
            E[(i, j)] = Ein @ Ej - (q ** BRACKET_EXP) * (Ej @ Ein)
            Fin, Fj = F[(i, j - 1)], F[(j, j)]
            if MIRROR_F:
                F[(i, j)] = Fj @ Fin - (q ** -BRACKET_EXP) * (Fin @ Fj)
            else:
                F[(i, j)] = Fin @ Fj - (q ** -BRACKET_EXP) * (Fj @ Fin)
    rv = RootVectorSet(V, E, F)
    res = rv.grading_residual()
    if res > 1e-9:
        raise InvariantViolation(f"root vectors break the weight grading by {res:.3e}")
    return rv


def r_matrix(V, W) -> np.ndarray:
    """R-matrix of the pair (V, W) as a dense matrix on V ox W.

    By (F ox E)^n = F^n ox E^n the ordered product of the exp_q factors is a
    list of terms (coef, A, B), A on V and B on W, each multiplied on the
    right by F_a^n and E_a^n root by root, and R = diag(q^((wt, wt))) sum
    coef kron(A, B).  A term is dropped once coef, A or B is zero, so at
    q = 1 R is exactly the identity."""
    if V.N != W.N or V.q != W.q:
        raise ValueError("R-matrix needs matching N and q")
    q, rvV, rvW = V.q, root_vectors(V), root_vectors(W)
    scal = 1.0 - q ** (-2)
    roots = positive_roots(V.N)
    if REVERSE_ORDER:
        roots = roots[::-1]
    terms = [(1.0, np.eye(V.dim), np.eye(W.dim))]
    for a in roots:
        powers = []   # (c_n, F_a^n, E_a^n), c_n = scal^n q^(n(n+1)/2) / [n]_q!
        coef, X, Y = 1.0, rvV.F[a], rvW.E[a]
        for n in range(1, V.dim + 2):
            coef *= scal * q ** n / q_int(n, q)
            if coef == 0.0 or not X.any() or not Y.any():
                break
            powers.append((coef, X, Y))
            X, Y = X @ rvV.F[a], Y @ rvW.E[a]
        else:
            raise InvariantViolation("exp_q argument did not nilpotate")
        terms += [(c * cn, A @ P, B @ Q) for c, A, B in terms for cn, P, Q in powers]
        terms = [t for t in terms if t[0] != 0.0 and t[1].any() and t[2].any()]
    R = sum(c * np.kron(A, B) for c, A, B in terms)
    # Cartan factor q^((wt v, wt w)) on the left (diagonal row scaling)
    expo = pairing_array(V.weights.astype(np.float64),
                         W.weights.astype(np.float64), V.N).reshape(-1)
    return (q ** expo)[:, None] * R


@dataclass
class BraidingOperator:
    matrix: np.ndarray  # V ox W -> W ox V


def _flip(M: np.ndarray, dV: int, dW: int) -> np.ndarray:
    """Row reindexing (a, b) -> (b, a): returns Sigma @ M."""
    return M.reshape(dV, dW, -1).transpose(1, 0, 2).reshape(dW * dV, -1)


def braid_sigma(V, W) -> BraidingOperator:
    return BraidingOperator(_flip(r_matrix(V, W), V.dim, W.dim))


def braid_sigma_inverse(V, W) -> np.ndarray:
    """Inverse braiding W ox V -> V ox W (numerical inverse, residual-checked)."""
    S = braid_sigma(V, W).matrix
    inv = np.linalg.inv(S)
    res = np.max(np.abs(inv @ S - np.eye(S.shape[0])))
    if res > 1e-8:
        raise InvariantViolation(f"braiding inverse residual {res:.3e}")
    return inv


def _ermat2_residual(V, W, R: np.ndarray) -> float:
    """Eigen-relation R(zeta ox xi) = q^((wt zeta, wt xi)) zeta ox xi for xi
    the h.w. vector of W (basis vector 0) and for zeta the l.w. vector of V
    (basis vector l): R's columns a dim W and l dim W + b are unit columns
    times those powers of q."""
    l, dW = int(np.flatnonzero(V.lowest_vector)[0]), W.dim
    expo = np.concatenate([
        pairing_array(V.weights.astype(np.float64),
                      W.weights[:1].astype(np.float64), V.N).reshape(-1),
        pairing_array(V.weights[l:l + 1].astype(np.float64),
                      W.weights.astype(np.float64), V.N).reshape(-1)])
    cols = np.concatenate([np.arange(V.dim) * dW, l * dW + np.arange(dW)])
    want = np.zeros((R.shape[0], cols.size))
    want[cols, np.arange(cols.size)] = V.q ** expo
    return float(np.max(np.abs(R[:, cols] - want)))


def certify_pair(V, W, R: np.ndarray = None) -> dict:
    """Residuals of the braiding invariants on the pair (V, W): generator
    intertwining of sigma = flip R and the R-matrix eigen-relations.  V and
    W must have a highest weight (ValueError otherwise)."""
    if V.highest_weight is None or W.highest_weight is None:
        raise ValueError("certify_pair needs modules with a highest weight")
    if R is None:
        R = r_matrix(V, W)
    TVW, TWV = repn.tensor(V, W), repn.tensor(W, V)
    S = _flip(R, V.dim, W.dim)
    worst = 0.0
    for i in range(1, V.N):
        for attr in ("E", "F"):
            a, b = getattr(TVW, attr)[i], getattr(TWV, attr)[i]
            worst = max(worst, float(np.max(np.abs(S @ a - b @ S))))
        kk = TWV.k_diag(i)[:, None] * S - S * TVW.k_diag(i)[None, :]
        worst = max(worst, float(np.max(np.abs(kk))))
    return {"intertwiner": worst, "ermat2": _ermat2_residual(V, W, R)}

