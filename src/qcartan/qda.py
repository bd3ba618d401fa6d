"""Closed-form q-symmetric monomial model for the defining-weight chain.

The degree-n space H_n has the orthogonal basis of sorted monomials
e_1^{d_1} ... e_N^{d_N} (d_i >= 0, sum d_i = n) with squared norm
q^D * prod_i [d_i]_q! / [n]_q!,  D = sum_{i<j} d_i d_j.

Creation by a basis letter is a generalized permutation in this basis, so all
operator relations restrict to per-monomial scalar identities.  Every scalar
of level n comes from one creation table (row = monomial, column = letter),
and each relation residual is an array expression over the tables of
neighbouring levels; no matrix is built.  Matrices are only assembled where a
basis change is the point (creation_closed / annihilation_closed /
chain_intertwiners).  annihilation_closed evaluates the paper's adjoint formula
monomial by monomial and stays the independent reference for creation_closed.

Basis order: monomials of a fixed degree are listed lexicographically
descending in d, so e_1^n comes first and lines up with the chain's 0-th
basis vector.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .qcore import Weight, q_factorial, q_int

__all__ = [
    "monomials",
    "monomial_index",
    "monomial_norm_sq",
    "creation_closed",
    "annihilation_closed",
    "q_arveson_residuals",
    "cuntz_pimsner_residual",
    "chain_intertwiners",
    "chain_intertwiner",
]


@lru_cache(maxsize=None)
def monomials(N: int, n: int) -> tuple:
    """All exponent vectors of degree n, lexicographically descending."""
    if N == 1:
        return ((n,),)
    out = []
    for d1 in range(n, -1, -1):
        for rest in monomials(N - 1, n - d1):
            out.append((d1,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(N: int, n: int) -> dict:
    return {d: i for i, d in enumerate(monomials(N, n))}


def monomial_norm_sq(d, q: float) -> float:
    d = tuple(int(x) for x in d)
    n = sum(d)
    D = (n * n - sum(x * x for x in d)) // 2
    num = 1.0
    for x in d:
        num *= q_factorial(x, q)
    return q ** D * num / q_factorial(n, q)


@lru_cache(maxsize=None)
def _raise_index(N: int, n: int) -> np.ndarray:
    """R[c, i] = level-(n+1) index of d + delta_{i+1}, d = monomials(N, n)[c]."""
    tgt = monomial_index(N, n + 1)
    R = np.array([[tgt[d[:i] + (d[i] + 1,) + d[i + 1:]] for i in range(N)]
                  for d in monomials(N, n)])
    R.setflags(write=False)
    return R


def _creation_table(N: int, n: int, q: float) -> np.ndarray:
    """S[c, i]: S_{i+1} u_d = S[c, i] u_{d+delta_{i+1}} on unit monomials of H_n."""
    D = np.array(monomials(N, n))
    prev = np.cumsum(D, axis=1) - D  # exponent mass strictly left of each letter
    return (q ** (-prev) * q ** ((n - D) / 2.0)
            * np.sqrt(q_int(D + 1, q) / q_int(n + 1, q)))


def creation_closed(i: int, n: int, q: float, N: int) -> np.ndarray:
    """Matrix of S_i : H_n -> H_{n+1} in the unit monomial bases."""
    S = _creation_table(N, n, q)
    A = np.zeros((len(monomials(N, n + 1)), len(S)))
    A[_raise_index(N, n)[:, i - 1], np.arange(len(S))] = S[:, i - 1]
    return A


def annihilation_closed(i: int, n: int, q: float, N: int) -> np.ndarray:
    """Matrix of S_i* : H_n -> H_{n-1}, from the displayed adjoint formula.

    Entry q^{D_N - D_i} [d_i]_q / [D_N]_q on raw monomials, rescaled by the
    norm ratio; kept as an independent evaluation path so that agreement with
    creation_closed(...).T is a real check, not a tautology.
    """
    src = monomials(N, n)
    tgt = monomial_index(N, n - 1)
    A = np.zeros((len(tgt), len(src)))
    for c, d in enumerate(src):
        if d[i - 1] == 0:
            continue
        e = list(d)
        e[i - 1] -= 1
        Di = sum(d[:i])
        raw = q ** (n - Di) * q_int(d[i - 1], q) / q_int(n, q)
        scale = np.sqrt(monomial_norm_sq(e, q) / monomial_norm_sq(d, q))
        A[tgt[tuple(e)], c] = raw * scale
    return A


def _scalar_tables(N: int, n: int, q: float):
    """Diagonal scalars on H_n.

    Returns (ss[i] = scalar of S_i* S_i, tt[i] = scalar of S_i S_i*), both
    (count, N) arrays over the monomial list.
    """
    ss = _creation_table(N, n, q) ** 2
    tt = np.zeros_like(ss)
    if n >= 1:
        tt[_raise_index(N, n - 1), np.arange(N)] = _creation_table(N, n - 1, q) ** 2
    return ss, tt


def _star_exchange(N: int, n: int, q: float, c: float) -> float:
    """Max over i != j of the scalar mismatch of S_i* S_j = c S_j S_i* on H_n.

    Row f of level n-1 carries the source monomial f + delta_i: S_i* S_j sends
    it through f + delta_i + delta_j, S_j S_i* through f.  Both sides are
    symmetric in (i, j), so the pairs i < j cover every mismatch.
    """
    if n == 0:
        return 0.0
    S = _creation_table(N, n, q)
    S_prev = _creation_table(N, n - 1, q)
    R = _raise_index(N, n - 1)
    worst = 0.0
    for i, j in itertools.combinations(range(N), 2):
        resid = S[R[:, i], j] * S[R[:, j], i] - c * S_prev[:, i] * S_prev[:, j]
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def q_arveson_residuals(n: int, q: float, N: int) -> dict:
    """Max per-monomial residuals of the two level-n commutation identities.

    (a) S_i* S_j = ([n]/[n+1]) S_j S_i*          (i != j)
    (b) S_i* S_i = q([n]/[n+1]) S_i S_i*
                   + (q - 1/q)([n]/[n+1]) sum_{j>i} S_j S_j* + q^{-n}/[n+1].
    Both sides are generalized permutations, so the operator norm of the
    difference is the max over monomials of the scalar mismatch.
    """
    ratio = q_int(n, q) / q_int(n + 1, q) if n >= 1 else 0.0
    off = _star_exchange(N, n, q, ratio)
    ss, tt = _scalar_tables(N, n, q)
    const = q ** (-float(n)) / q_int(n + 1, q)
    diag = 0.0
    for i in range(N):
        tail = tt[:, i + 1:].sum(axis=1)
        resid = ss[:, i] - q * ratio * tt[:, i] - (q - 1.0 / q) * ratio * tail - const
        diag = max(diag, float(np.max(np.abs(resid))))
    return {"off_diag": off, "diag": diag}


def cuntz_pimsner_residual(n: int, q: float, N: int) -> dict:
    """Residuals on H_n of the limit relations (branch chosen by q vs 1).

    q >= 1: s_i s_j = q s_j s_i (i<j); s_i* s_j = q^{-1} s_j s_i* (i != j);
            s_i* s_i = s_i s_i* + (1 - q^{-2}) sum_{j>i} s_j s_j*.
    q <= 1: same exchange; s_i* s_j = q s_j s_i*;
            s_i* s_i = s_i s_i* + (1 - q^2) sum_{j<i} s_j s_j*.
    Also reports the resolution-of-identity residual of sum_i s_i s_i* = 1.
    """
    ge1 = q >= 1.0
    S = _creation_table(N, n, q)
    S_next = _creation_table(N, n + 1, q)
    R = _raise_index(N, n)
    exch = 0.0
    # s_i s_j u_d and q s_j s_i u_d both land on d + delta_i + delta_j
    for i, j in itertools.combinations(range(N), 2):
        resid = S[:, j] * S_next[R[:, j], i] - q * S[:, i] * S_next[R[:, i], j]
        exch = max(exch, float(np.max(np.abs(resid))))
    star = _star_exchange(N, n, q, (1.0 / q) if ge1 else q)
    ss, tt = _scalar_tables(N, n, q)
    diag = 0.0
    for i in range(N):
        if ge1:
            tail = (1.0 - q ** -2.0) * tt[:, i + 1:].sum(axis=1)
        else:
            tail = (1.0 - q ** 2.0) * tt[:, :i].sum(axis=1)
        resid = ss[:, i] - tt[:, i] - tail
        diag = max(diag, float(np.max(np.abs(resid))))
    resolution = float(np.max(np.abs(tt.sum(axis=1) - 1.0))) if n >= 1 else 1.0
    return {"exchange": exch, "star_exchange": star, "diag": diag,
            "resolution": resolution}


def chain_intertwiners(chain, n: int) -> list:
    """[U_0, ..., U_n]: U_k maps H_k -> V_{k w1}, unit monomials to normalized
    shift words.

    Column d of U_k is (S_1^{d_1} ... S_N^{d_N} vacuum) / ||e^d||; the claim
    under test is that these columns are orthonormal (so U_k is a unitary
    intertwiner of the two models).  Words are built in one pass up the
    levels, each by peeling the leftmost letter off a word one level down.
    """
    from . import sps

    N = chain.N
    if chain.base.dim != N or chain.lam != Weight.from_partition([1] + [0] * (N - 1)):
        raise ValueError("the closed-form model matches the defining-weight chain only")
    if n > chain.M:
        raise ValueError("chain truncation too small")
    eye = np.eye(N)
    vecs = {(0,) * N: np.ones(1)}
    out = [np.ones((1, 1))]
    for k in range(1, n + 1):
        nxt = {}
        for d in monomials(N, k):
            i = next(a for a in range(N) if d[a] > 0)
            e = list(d)
            e[i] -= 1
            blk = sps._creation_block(chain, eye[i], k - 1)
            nxt[d] = blk @ vecs[tuple(e)]
        vecs = nxt
        out.append(np.column_stack([vecs[d] / np.sqrt(monomial_norm_sq(d, chain.q))
                                    for d in monomials(N, k)]))
    return out


def chain_intertwiner(chain, n: int) -> np.ndarray:
    """U_n of chain_intertwiners: H_n -> V_{n w1}, unitary if the claim holds."""
    return chain_intertwiners(chain, n)[n]

