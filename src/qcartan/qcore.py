"""q-arithmetic, the weight lattice of sl_N and the Brauer-Klimyk count of
the components of a tensor product.

Conventions: q is a positive float (q = 1 is an exact limit branch, not an
epsilon). Weights are stored in fundamental coordinates lam(1..N-1); the
partition view (mu_1 >= ... >= mu_{N-1} >= mu_N = 0) is derived. All roots are
short, (alpha, alpha) = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = [
    "Weight",
    "check_q",
    "q_int",
    "q_factorial",
    "cartan_matrix",
    "inv_cartan_matrix",
    "pairing",
    "simple_root",
    "fundamental_weight",
    "rho",
    "weyl_dim",
    "tensor_components",
]


def check_q(q: float) -> float:
    q = float(q)
    if not (q > 0.0) or not math.isfinite(q):
        raise ValueError(f"deformation parameter must be a positive real, got {q!r}")
    return q


def q_int(n: int, q: float) -> float:
    """[n]_q = (q^n - q^-n)/(q - q^-1); equals n at q = 1 (exact branch).

    Defined for negative n as well ([-n] = -[n]); n may be an integer array."""
    if q == 1.0:
        return n * 1.0
    return (q ** n - q ** (-n)) / (q - 1.0 / q)


def q_factorial(n: int, q: float) -> float:
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    out = 1.0
    for k in range(2, n + 1):
        out *= q_int(k, q)
    return out


@lru_cache(maxsize=None)
def cartan_matrix(N: int) -> np.ndarray:
    """Cartan matrix of A_{N-1} (read-only)."""
    r = N - 1
    C = 2 * np.eye(r, dtype=np.int64)
    for i in range(r - 1):
        C[i, i + 1] = C[i + 1, i] = -1
    C.setflags(write=False)
    return C


@lru_cache(maxsize=None)
def inv_cartan_matrix(N: int) -> np.ndarray:
    """(C^-1)_{ij} = min(i,j) - ij/N, 1-based indices."""
    r = N - 1
    idx = np.arange(1, r + 1, dtype=np.float64)
    M = np.minimum.outer(idx, idx) - np.outer(idx, idx) / N
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class Weight:
    """Integral weight of sl_N in fundamental coordinates.

    coords[i-1] = lam(i) = (lam, alpha_i^vee). Length N-1.
    """

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if len(self.coords) < 1:
            raise ValueError("need N >= 2 (at least one fundamental coordinate)")

    @property
    def N(self) -> int:
        return len(self.coords) + 1

    def __call__(self, i: int) -> int:
        """lam(i), 1-based."""
        return self.coords[i - 1]

    @property
    def partition(self) -> tuple:
        """(mu_1, ..., mu_{N-1}, 0) with mu_i = sum_{j>=i} lam(j)."""
        mu = []
        total = 0
        for c in reversed(self.coords):
            total += c
            mu.append(total)
        mu.reverse()
        return tuple(mu) + (0,)

    @classmethod
    def from_partition(cls, mu) -> "Weight":
        mu = list(mu)
        if mu and mu[-1] == 0:
            mu = mu[:-1]
        mu = mu + [0]
        return cls(tuple(mu[i] - mu[i + 1] for i in range(len(mu) - 1)))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k: int) -> "Weight":
        return Weight(tuple(k * c for c in self.coords))

    __rmul__ = __mul__

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coords))

    def _check_rank(self, other: "Weight"):
        if len(self.coords) != len(other.coords):
            raise ValueError("weights of different rank")

    def __repr__(self):
        return f"Weight{self.coords}"


def simple_root(i: int, N: int) -> Weight:
    """alpha_i in fundamental coordinates (= i-th row of the Cartan matrix)."""
    if not 1 <= i <= N - 1:
        raise ValueError(f"simple root index {i} out of range for N={N}")
    return Weight(tuple(int(c) for c in cartan_matrix(N)[i - 1]))


def fundamental_weight(i: int, N: int) -> Weight:
    if not 1 <= i <= N - 1:
        raise ValueError(f"fundamental weight index {i} out of range for N={N}")
    return Weight(tuple(1 if j == i - 1 else 0 for j in range(N - 1)))


def rho(N: int) -> Weight:
    return Weight((1,) * (N - 1))


def pairing(lam: Weight, mu: Weight) -> float:
    """(lam, mu) = lam^T C^-1 mu in fundamental coordinates."""
    lam._check_rank(mu)
    M = inv_cartan_matrix(lam.N)
    return float(lam.as_array() @ M @ mu.as_array())


def pairing_array(A: np.ndarray, B: np.ndarray, N: int) -> np.ndarray:
    """Pairings of rows of A against rows of B; A, B are (., N-1) integer arrays."""
    M = inv_cartan_matrix(N)
    return (A @ M) @ B.T


def weyl_dim(mu: Weight) -> int:
    """dim V_mu by the Weyl formula, exact integer arithmetic.

    For A_{N-1}: prod over roots alpha_{ij} of (sum_{k=i..j} (mu(k)+1))/(j-i+1).
    """
    if not mu.is_dominant:
        raise ValueError(f"weyl_dim needs a dominant weight, got {mu}")
    r = len(mu.coords)
    num = 1
    den = 1
    for i in range(r):
        s = 0
        for j in range(i, r):
            s += mu.coords[j] + 1
            num *= s
            den *= j - i + 1
    if num % den != 0:
        raise ArithmeticError("Weyl dimension did not come out integral")
    return num // den


def tensor_components(weights, mu: Weight) -> dict:
    """{kappa: multiplicity of V_kappa in V (x) V_mu}, from the weight rows of V.

    The Brauer-Klimyk (Racah-Speiser) formula: each row nu moves mu + nu + rho
    into the dominant chamber by sorting its partition coordinates in
    descending order.  A repeated entry lies on a wall and contributes
    nothing; otherwise the sign of the sorting permutation is added at
    kappa = sorted - rho.
    """
    top = (mu + rho(mu.N)).partition
    out = {}
    for nu in np.asarray(weights).tolist():
        # partition coordinates of nu: the tail sums of its coordinates, then 0
        x = [a + b for a, b in zip(top, [*accumulate(reversed(nu))][::-1] + [0])]
        order = sorted(range(mu.N), key=lambda i: -x[i])
        s = [x[i] for i in order]
        if any(a == b for a, b in zip(s, s[1:])):
            continue
        inversions = sum(i > j for k, i in enumerate(order) for j in order[k + 1:])
        kappa = tuple(a - b - 1 for a, b in zip(s, s[1:]))
        out[kappa] = out.get(kappa, 0) + (-1) ** inversions
    return {Weight(kappa): m for kappa, m in out.items() if m}
