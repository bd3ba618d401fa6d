"""Dense real linear algebra with explicit tolerance contracts.

Every rank decision (nullspace dimension, orbit block rank) goes through
certified_rank and carries a spectral-gap certificate; if the singular values
do not separate cleanly the operation raises AmbiguousRank instead of
silently thresholding. This matters because the convergence quantities
measured downstream genuinely approach 0 and must never be confused with
numerical noise.

Real scalars throughout: with the sign conventions used by the representation
layer every generator matrix, coproduct and R-matrix factor is real for q > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AmbiguousRank",
    "InvariantViolation",
    "ToleranceProfile",
    "DEFAULT_TOL",
    "operator_norm",
    "certified_rank",
    "nullspace",
]


class AmbiguousRank(Exception):
    """Spectral-gap certificate failed: the kernel dimension cannot be trusted.

    index is the position of the failing matrix when nullspace ranks a stack.
    """

    index = None


class InvariantViolation(Exception):
    """A mathematical invariant that should hold by construction was violated."""


@dataclass(frozen=True)
class ToleranceProfile:
    nullspace_rel_tol: float = 1e-9
    gap_ratio_min: float = 1e3
    identity_tol: float = 1e-9

    def __post_init__(self):
        if not (self.nullspace_rel_tol > 0 and self.identity_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.gap_ratio_min > 1:
            raise ValueError("gap_ratio_min must exceed 1")


DEFAULT_TOL = ToleranceProfile()


def operator_norm(M) -> float:
    """Largest singular value (0 for empty matrices)."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def certified_rank(s, scale: float, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of singular values s (descending) above nullspace_rel_tol * scale.

    The cut is certified by a gap: the smallest kept value (or scale, if none
    is kept) over the largest dropped one must reach gap_ratio_min, else
    AmbiguousRank.  This is the one rank rule of the package.
    """
    r = int(np.count_nonzero(s > tol.nullspace_rel_tol * scale))
    if r < len(s) and s[r] > 0:
        kept = s[r - 1] if r else scale
        if kept / s[r] < tol.gap_ratio_min:
            raise AmbiguousRank(
                f"rank gap {kept:.3e}/{s[r]:.3e} below "
                f"gap_ratio_min={tol.gap_ratio_min:g}"
            )
    return r


def nullspace(A, tol: ToleranceProfile = DEFAULT_TOL) -> list:
    """Orthonormal kernel bases (columns) of a stack A of shape (B, m, n).

    One SVD for the whole stack; the rank of each matrix is certified_rank
    of its own singular values against its own sigma_max.  A zero matrix
    has kernel eye(n).  An AmbiguousRank carries the stack position in index.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 3:
        raise ValueError("nullspace expects a (B, m, n) stack")
    B, m, n = A.shape
    if m == 0 or n == 0:
        return [np.eye(n) for _ in range(B)]
    _, s, Vt = np.linalg.svd(A)
    kernels = []
    for b in range(B):
        if s[b, 0] == 0.0:
            kernels.append(np.eye(n))
            continue
        try:
            r = certified_rank(s[b], s[b, 0], tol)
        except AmbiguousRank as exc:
            exc.index = b
            raise
        kernels.append(Vt[b, r:].T.copy())
    return kernels
