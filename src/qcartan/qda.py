"""Closed-form q-symmetric monomial model for the defining-weight chain.

The degree-n space H_n has the orthogonal basis of sorted monomials
e_1^{d_1} ... e_N^{d_N} (d_i >= 0, sum d_i = n) with squared norm
q^D * prod_i [d_i]_q! / [n]_q!,  D = sum_{i<j} d_i d_j.

Creation by a basis letter is a generalized permutation in this basis, so all
operator relations restrict to per-monomial scalar identities.  Level n has
one cached creation table (row = monomial, column = letter) and one raise
table of the neighbours d + delta_i (_raise_index); each relation residual is
an array expression over the tables of neighbouring levels, and
chain_intertwiners writes its words to raised columns.  annihilation_closed
evaluates the paper's adjoint formula monomial by monomial and stays the
independent reference for creation_closed.

Basis order: monomials of a fixed degree are listed lexicographically
descending in d, so e_1^n comes first and lines up with the chain's 0-th
basis vector.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import Weight, check_q, q_factorial, q_int

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
    return tuple((d1,) + rest for d1 in range(n, -1, -1) for rest in monomials(N - 1, n - d1))


@lru_cache(maxsize=None)
def monomial_index(N: int, n: int) -> dict:
    return {d: i for i, d in enumerate(monomials(N, n))}


def monomial_norm_sq(d, q: float) -> float:
    d = tuple(int(x) for x in d)
    q = check_q(q)
    n = sum(d)
    D = (n * n - sum(x * x for x in d)) // 2
    num = 1.0
    for x in d:
        num *= q_factorial(x, q)
    return q ** D * num / q_factorial(n, q)


def _check(N: int, n: int, q: float, i: int = 1) -> float:
    """q as a float (qcore.check_q); refuse a letter outside 1..N or a
    degree below 0."""
    if not (1 <= i <= N and n >= 0):
        raise ValueError(f"need a letter in 1..{N} and a degree >= 0, got {i} and {n}")
    return check_q(q)


@lru_cache(maxsize=None)
def _exponents(N: int, n: int) -> np.ndarray:
    """monomials(N, n) as a read-only (count, N) integer array."""
    D = np.array(monomials(N, n))
    D.setflags(write=False)
    return D


@lru_cache(maxsize=None)
def _raise_index(N: int, n: int) -> np.ndarray:
    """R[c, i] = level-(n+1) index of d + delta_{i+1}, d = monomials(N, n)[c].

    Read as base-(n+2) digits, the exponent rows of both levels give keys
    that descend with the monomials, so one searchsorted finds them all.
    """
    radix = (n + 2) ** np.arange(N - 1, -1, -1)
    R = np.searchsorted(-(_exponents(N, n + 1) @ radix),
                        -((_exponents(N, n) @ radix)[:, None] + radix))
    R.setflags(write=False)
    return R


@lru_cache(maxsize=None)
def _creation_table(N: int, n: int, q: float) -> np.ndarray:
    """S[c, i]: S_{i+1} u_d = S[c, i] u_{d+delta_{i+1}} on unit monomials of
    H_n, read-only (cached)."""
    D = _exponents(N, n)
    prev = np.cumsum(D, axis=1) - D  # exponent mass strictly left of each letter
    S = (q ** (-prev) * q ** ((n - D) / 2.0)
         * np.sqrt(q_int(D + 1, q) / q_int(n + 1, q)))
    S.setflags(write=False)
    return S


def creation_closed(i: int, n: int, q: float, N: int) -> np.ndarray:
    """Matrix of S_i : H_n -> H_{n+1} in the unit monomial bases."""
    q = _check(N, n, q, i)
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
    q = _check(N, n, q, i)
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
    """Diagonal scalars on H_n: (ss[:, i] of S_i* S_i, tt[:, i] of S_i S_i*),
    both (count, N) arrays over the monomial list."""
    ss = _creation_table(N, n, q) ** 2
    tt = np.zeros_like(ss)
    if n >= 1:
        tt[_raise_index(N, n - 1), np.arange(N)] = _creation_table(N, n - 1, q) ** 2
    return ss, tt


def _tails(tt: np.ndarray, above: bool) -> np.ndarray:
    """Column i sums the columns j > i (above) or j < i of tt, left to right."""
    return np.stack([(tt[:, i + 1:] if above else tt[:, :i]).sum(axis=1)
                     for i in range(tt.shape[1])], axis=1)


def _star_exchange(N: int, n: int, q: float, c: float) -> float:
    """Max over i != j of the scalar mismatch of S_i* S_j = c S_j S_i* on H_n.

    Row f of level n-1 carries the source monomial f + delta_i: S_i* S_j sends
    it through f + delta_i + delta_j, S_j S_i* through f.  Both sides are
    symmetric in (i, j), so the pairs i < j (columns I, J) cover every mismatch.
    """
    if n == 0:
        return 0.0
    S = _creation_table(N, n, q)
    S_prev = _creation_table(N, n - 1, q)
    R = _raise_index(N, n - 1)
    I, J = np.triu_indices(N, 1)
    resid = S[R[:, I], J] * S[R[:, J], I] - c * S_prev[:, I] * S_prev[:, J]
    return float(np.max(np.abs(resid), initial=0.0))


def q_arveson_residuals(n: int, q: float, N: int) -> dict:
    """Max per-monomial residuals of the two level-n commutation identities.

    (a) S_i* S_j = ([n]/[n+1]) S_j S_i*          (i != j)
    (b) S_i* S_i = q([n]/[n+1]) S_i S_i*
                   + (q - 1/q)([n]/[n+1]) sum_{j>i} S_j S_j* + q^{-n}/[n+1].
    Both sides are generalized permutations, so the operator norm of the
    difference is the max over monomials of the scalar mismatch.
    """
    q = _check(N, n, q)
    ratio = q_int(n, q) / q_int(n + 1, q) if n >= 1 else 0.0
    off = _star_exchange(N, n, q, ratio)
    ss, tt = _scalar_tables(N, n, q)
    const = q ** (-float(n)) / q_int(n + 1, q)
    resid = ss - q * ratio * tt - (q - 1.0 / q) * ratio * _tails(tt, True) - const
    return {"off_diag": off, "diag": float(np.max(np.abs(resid)))}


def cuntz_pimsner_residual(n: int, q: float, N: int) -> dict:
    """Residuals on H_n of the limit relations (branch chosen by q vs 1).

    q >= 1: s_i s_j = q s_j s_i (i<j); s_i* s_j = q^{-1} s_j s_i* (i != j);
            s_i* s_i = s_i s_i* + (1 - q^{-2}) sum_{j>i} s_j s_j*.
    q <= 1: same exchange; s_i* s_j = q s_j s_i*;
            s_i* s_i = s_i s_i* + (1 - q^2) sum_{j<i} s_j s_j*.
    Also reports the resolution-of-identity residual of sum_i s_i s_i* = 1.
    """
    q = _check(N, n, q)
    ge1 = q >= 1.0
    S = _creation_table(N, n, q)
    S_next = _creation_table(N, n + 1, q)
    R = _raise_index(N, n)
    I, J = np.triu_indices(N, 1)
    # s_i s_j u_d and q s_j s_i u_d both land on d + delta_i + delta_j (i < j)
    exch = float(np.max(np.abs(S[:, J] * S_next[R[:, J], I] - q * S[:, I] * S_next[R[:, I], J]),
                        initial=0.0))
    star = _star_exchange(N, n, q, (1.0 / q) if ge1 else q)
    ss, tt = _scalar_tables(N, n, q)
    diag = float(np.max(np.abs(ss - tt - (1.0 - q ** (-2.0 if ge1 else 2.0)) * _tails(tt, ge1))))
    resolution = float(np.max(np.abs(tt.sum(axis=1) - 1.0))) if n >= 1 else 1.0
    return {"exchange": exch, "star_exchange": star, "diag": diag,
            "resolution": resolution}


def chain_intertwiners(chain, n: int) -> list:
    """[U_0, ..., U_n]: U_k maps H_k -> V_{k w1}, unit monomials to normalized
    shift words.

    Column d of U_k is (S_1^{d_1} ... S_N^{d_N} vacuum) / ||e^d||; the claim
    under test is that these columns are orthonormal (so U_k is a unitary
    intertwiner of the two models).  Words are built in one pass up the
    levels: level k reads one creation stack, a block per letter i, and
    applies block i to the level-(k-1) words with no letter before i, in
    one product written to their raised columns (_raise_index).
    """
    from . import sps

    N = chain.N
    if chain.base.dim != N or chain.lam != Weight.from_partition([1] + [0] * (N - 1)):
        raise ValueError("the closed-form model matches the defining-weight chain only")
    if not 0 <= n <= chain.M:
        raise ValueError(f"degree {n} is outside the chain's levels 0..{chain.M}")
    words = np.ones((1, 1))   # unnormalized words of level k, a column per monomial
    out = [words]
    for k in range(1, n + 1):
        blocks = sps._creation_blocks(chain, np.eye(N), k - 1)   # one per letter
        D, R = _exponents(N, k - 1), _raise_index(N, k - 1)
        nxt = np.empty((blocks.shape[1], len(monomials(N, k))))
        for i in range(N):
            src = ~D[:, :i].any(axis=1)
            nxt[:, R[src, i]] = blocks[i] @ words[:, src]
        words = nxt
        out.append(words / np.sqrt([monomial_norm_sq(d, chain.q) for d in monomials(N, k)]))
    return out


def chain_intertwiner(chain, n: int) -> np.ndarray:
    """U_n of chain_intertwiners: H_n -> V_{n w1}, unitary if the claim holds."""
    return chain_intertwiners(chain, n)[n]

