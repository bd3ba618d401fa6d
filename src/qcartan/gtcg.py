"""Gelfand-Tsetlin pattern combinatorics and Clebsch-Gordan overlaps.

GT patterns enter only as combinatorial labels: `gt_enumerate` checks the
betweenness parameterization against Weyl dimensions, and `cg_closed_form`
evaluates the closed-form coefficient for the highest-weight overlap
|<e_i (x) xi_mu, xi_{mu^i})>| in V_{omega_1} (x) V_mu.  The numeric twin
`cg_numeric` extracts the same number from an explicit tensor-product
decomposition, without ever constructing GT generator actions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qcore import Weight, q_int, weyl_dim
from .numerics import DEFAULT_TOL, InvariantViolation, ToleranceProfile
from . import decomp, repn


class MissingComponent(Exception):
    """V_{mu^i} does not occur in V_{omega_1} (x) V_mu (mu^i not dominant)."""


def _as_partition(mu, N: int | None = None) -> tuple:
    """Normalize mu to partition form (mu_1 >= ... >= mu_N = 0)."""
    if isinstance(mu, Weight):
        mu = mu.partition
    mu = tuple(int(x) for x in mu)
    if N is not None:
        if len(mu) > N:
            raise ValueError(f"partition {mu} longer than N={N}")
        mu = mu + (0,) * (N - len(mu))
    elif not mu or mu[-1] != 0:
        mu = mu + (0,)
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)) or mu[-1] != 0:
        raise ValueError(f"not a partition with last entry 0: {mu}")
    return mu


@dataclass(frozen=True)
class GTPattern:
    """Triangular integer array; row k (0-based) has length N - k.

    Betweenness: rows[k][j] >= rows[k+1][j] >= rows[k][j+1] >= 0.
    """

    rows: tuple

    @property
    def N(self) -> int:
        return len(self.rows[0])

    @property
    def top(self) -> tuple:
        return self.rows[0]

    def is_valid(self) -> bool:
        rows = self.rows
        if [len(r) for r in rows] != list(range(self.N, 0, -1)):
            return False
        if any(x < 0 for r in rows for x in r):
            return False
        for k in range(len(rows) - 1):
            up, lo = rows[k], rows[k + 1]
            if any(not (up[j] >= lo[j] >= up[j + 1]) for j in range(len(lo))):
                return False
        return True

    @classmethod
    def highest(cls, mu, N: int | None = None) -> "GTPattern":
        """The pattern labeling xi_mu: every row repeats the top row."""
        top = _as_partition(mu, N)
        n = len(top)
        return cls(tuple(top[: n - k] for k in range(n)))


def gt_enumerate(mu, N: int | None = None) -> list:
    """All GT patterns with top row mu; len(...) == weyl_dim(mu)."""
    top = _as_partition(mu, N)

    def extend(partial):
        row = partial[-1]
        if len(row) == 1:
            yield partial
            return
        choices = [range(row[j + 1], row[j] + 1) for j in range(len(row) - 1)]
        for nxt in itertools.product(*choices):
            yield from extend(partial + (nxt,))

    return [GTPattern(rows) for rows in extend((top,))]


def cg_closed_form(i: int, mu, q: float) -> float:
    """q^{(i-1)/2} sqrt(prod_{j<i} [mu_j-mu_i-j+i-1] / [mu_j-mu_i-j+i]).

    mu in partition form (trailing zero implied).  The value is the modulus
    of the coefficient of e_i (x) xi_mu in the highest weight vector of the
    V_{mu^i} component; it vanishes exactly when that component is missing.
    """
    mu = _as_partition(mu)
    N = len(mu)
    if not 1 <= i <= N:
        raise ValueError(f"i={i} out of range 1..{N}")
    num = 1.0
    den = 1.0
    for j in range(1, i):
        num *= q_int(mu[j - 1] - mu[i - 1] - j + i - 1, q)
        den *= q_int(mu[j - 1] - mu[i - 1] - j + i, q)
    return float(q ** ((i - 1) / 2.0) * np.sqrt(num / den))


def component_shift(i: int, N: int) -> Weight:
    """wt(e_i): the shift mu -> mu^i in fundamental coordinates."""
    std = repn.standard_module(N, 1.0)
    return std.weight_of(i - 1)


def cg_numeric(i: int, mu, q: float, builder=None,
               tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """|<e_i (x) xi_mu, xi^{(i)}>| from the extracted h.w. vector.

    xi^{(i)} is the (sign-fixed) highest weight vector of the V_{mu^i}
    component of V_{omega_1} (x) V_mu.  Raises MissingComponent when mu^i
    is not dominant (the component is absent, e.g. i=N with mu_{N-1}=0).
    """
    from .sps import GeneralWeightBuilder

    if isinstance(mu, Weight):
        lam = mu
    else:
        lam = Weight.from_partition(_as_partition(mu))
    N = lam.N
    if not 1 <= i <= N:
        raise ValueError(f"i={i} out of range 1..{N}")
    if builder is None:
        builder = GeneralWeightBuilder(N, q, tol)
    V = builder.module(lam)
    if V.hw_index != 0:
        raise InvariantViolation("module must carry its h.w. vector at index 0")
    std = repn.standard_module(N, q)
    target = lam + std.weight_of(i - 1)
    if not target.is_dominant:
        raise MissingComponent(f"mu^{i} = {target} is not dominant")
    T = repn.tensor(std, V)
    cols = decomp.highest_weight_space(T, tol).vectors_of(target)
    if cols.shape[1] != 1:
        raise InvariantViolation(
            f"component {target} has multiplicity {cols.shape[1]}, expected 1")
    # T index (a, b) -> a * dim(V) + b; xi_mu is one-hot at b = 0
    return float(abs(cols[(i - 1) * V.dim, 0]))


def cg_grid(N: int, q: float, max_entry: int,
            tol: ToleranceProfile = DEFAULT_TOL) -> list:
    """(mu, i, closed, numeric) for all partitions with entries <= max_entry.

    Skips missing components.  Shares one module builder across the grid.
    """
    from .sps import GeneralWeightBuilder

    builder = GeneralWeightBuilder(N, q, tol)
    rows = []
    # each partition once, as the reverse of a non-decreasing tuple
    shapes = itertools.combinations_with_replacement(range(max_entry + 1), N - 1)
    for shape in shapes:
        mu = shape[::-1] + (0,)
        if sum(mu) == 0:
            continue
        lam = Weight.from_partition(mu)
        for i in range(1, N + 1):
            try:
                num = cg_numeric(i, lam, q, builder=builder, tol=tol)
            except MissingComponent:
                continue
            rows.append((mu, i, cg_closed_form(i, mu, q), num))
    return rows
