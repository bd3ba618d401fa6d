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
    "projector",
]


class AmbiguousRank(Exception):
    """Spectral-gap certificate failed: the kernel dimension cannot be trusted."""


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


def nullspace(M, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of {v : Mv = 0}, gap-certified.

    The rank is certified_rank of the singular values against sigma_max.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("nullspace expects a matrix")
    m, n = M.shape
    if n == 0:
        return np.zeros((0, 0))
    if m == 0 or not M.any():
        return np.eye(n)
    _, s, Vt = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(n)
    return Vt[certified_rank(s, s[0], tol):].T.copy()


def _as_columns(vectors) -> np.ndarray:
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return np.array(vectors, dtype=np.float64)
    cols = [np.asarray(v, dtype=np.float64).reshape(-1) for v in vectors]
    if not cols:
        return np.zeros((0, 0))
    return np.stack(cols, axis=1)


def projector(onb, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Q Q^T for an orthonormal set Q (columns). Input is checked, not fixed."""
    Q = _as_columns(onb)
    if Q.shape[1] == 0:
        return np.zeros((Q.shape[0], Q.shape[0]))
    G = Q.T @ Q
    err = np.max(np.abs(G - np.eye(Q.shape[1])))
    if err > tol.identity_tol:
        raise ValueError(f"projector: input not orthonormal (Gram residual {err:.3e})")
    return Q @ Q.T
