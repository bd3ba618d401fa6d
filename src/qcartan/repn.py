"""Finite-dimensional unitary modules of quantum SL(N).

A QModule stores the E_i / F_i generator matrices (real float64) and one
integral weight per basis vector; the K_i are never stored, always recomputed
from the weights, which hardwires the weight-module structure.

Defining relations (all checked by check_module):
    K_i E_j K_i^-1 = q^{a_ij} E_j          (weight grading)
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^-1)/(q - q^-1)
    q-Serre relations between adjacent / distant E's and F's
    E_i^T = F_i K_i                        (unitarity of the inner product)

The tensor product uses the coproduct
    E -> E ox 1 + K ox E,   F -> F ox K^-1 + 1 ox F,   K -> K ox K.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import InvariantViolation, ToleranceProfile, DEFAULT_TOL
from .qcore import Weight, check_q, q_int, simple_root

__all__ = [
    "QModule",
    "ModuleMap",
    "standard_module",
    "trivial_module",
    "tensor",
    "contragredient",
    "check_module",
]


class QModule:
    """Weight module with float64 generator matrices; immutable by convention.

    All arithmetic is float64: check_module gates backward-relative
    residuals, so deep modules with q-integer-sized entries need no wider
    working precision.
    """

    # Read-only; perfbench/tracer.py reads it to size tensor outputs.
    dtype = np.dtype(np.float64)

    def __init__(self, N, q, weights, E, F, highest_weight=None, hw_index=None):
        self.N = int(N)
        self.q = check_q(q)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.weights.ndim != 2 or self.weights.shape[1] != self.N - 1:
            raise ValueError("weights must be (dim, N-1)")
        self.dim = self.weights.shape[0]
        self.E = {i: np.asarray(E[i], dtype=np.float64) for i in range(1, self.N)}
        self.F = {i: np.asarray(F[i], dtype=np.float64) for i in range(1, self.N)}
        for i in range(1, self.N):
            if self.E[i].shape != (self.dim, self.dim) or self.F[i].shape != (self.dim, self.dim):
                raise ValueError("generator matrix shape mismatch")
        self.highest_weight = highest_weight
        self.hw_index = hw_index
        self._blocks = None

    # -- K action -------------------------------------------------------
    def k_diag(self, i: int, power: int = 1) -> np.ndarray:
        """Diagonal of K_i^power: q^(power * wt(v)(i))."""
        return self.q ** (power * self.weights[:, i - 1].astype(np.float64))

    def k_matrix(self, i: int, power: int = 1) -> np.ndarray:
        return np.diag(self.k_diag(i, power))

    # -- structure ------------------------------------------------------
    @property
    def hw_vector(self) -> np.ndarray:
        if self.hw_index is None:
            raise ValueError("module has no phase-fixed highest weight vector")
        v = np.zeros(self.dim)
        v[self.hw_index] = 1.0
        return v

    def weight_of(self, index: int) -> Weight:
        return Weight(tuple(int(c) for c in self.weights[index]))

    def weight_blocks(self) -> dict:
        """weight tuple -> sorted array of basis indices."""
        if self._blocks is None:
            blocks = {}
            for idx, row in enumerate(self.weights):
                blocks.setdefault(tuple(int(c) for c in row), []).append(idx)
            self._blocks = {w: np.array(ix, dtype=np.intp) for w, ix in blocks.items()}
        return self._blocks

    def __repr__(self):
        hw = f", hw={self.highest_weight}" if self.highest_weight is not None else ""
        return f"QModule(N={self.N}, q={self.q}, dim={self.dim}{hw})"


@dataclass
class ModuleMap:
    """Linear map between modules; intertwining is a checkable property."""

    source: QModule
    target: QModule
    matrix: np.ndarray

    def residual(self) -> float:
        """Max generator-intertwining residual ||M pi_src(x) - pi_tgt(x) M||_max."""
        M = self.matrix
        worst = 0.0
        for i in range(1, self.source.N):
            worst = max(worst, np.max(np.abs(M @ self.source.E[i] - self.target.E[i] @ M)))
            worst = max(worst, np.max(np.abs(M @ self.source.F[i] - self.target.F[i] @ M)))
            kk = self.target.k_diag(i)[:, None] * M - M * self.source.k_diag(i)[None, :]
            worst = max(worst, np.max(np.abs(kk)) if kk.size else 0.0)
        return float(worst)


def trivial_module(N: int, q: float) -> QModule:
    z = np.zeros((1, 1))
    zero_wt = Weight((0,) * (N - 1))
    return QModule(
        N, q,
        np.zeros((1, N - 1), dtype=np.int64),
        {i: z.copy() for i in range(1, N)},
        {i: z.copy() for i in range(1, N)},
        highest_weight=zero_wt, hw_index=0,
    )


def standard_module(N: int, q: float) -> QModule:
    """The defining N-dim module: E_i e_{i+1} = q^(1/2) e_i, F_i e_i = q^(-1/2) e_{i+1}."""
    if N < 2:
        raise ValueError("need N >= 2")
    q = check_q(q)
    sq = q ** 0.5
    wts = np.zeros((N, N - 1), dtype=np.int64)
    for j in range(1, N + 1):  # wt(e_j) = omega_j - omega_{j-1}
        if j <= N - 1:
            wts[j - 1, j - 1] += 1
        if j >= 2:
            wts[j - 1, j - 2] -= 1
    E = {}
    F = {}
    for i in range(1, N):
        Ei = np.zeros((N, N))
        Fi = np.zeros((N, N))
        Ei[i - 1, i] = sq
        Fi[i, i - 1] = 1.0 / sq
        E[i] = Ei
        F[i] = Fi
    from .qcore import fundamental_weight

    return QModule(N, q, wts, E, F,
                   highest_weight=fundamental_weight(1, N), hw_index=0)


def tensor(V: QModule, W: QModule) -> QModule:
    if V.N != W.N or V.q != W.q:
        raise ValueError("tensor factors must share N and q")
    dV, dW = V.dim, W.dim
    IV, IW = np.eye(dV), np.eye(dW)
    E = {}
    F = {}
    for i in range(1, V.N):
        E[i] = np.kron(V.E[i], IW) + np.kron(V.k_matrix(i), W.E[i])
        F[i] = np.kron(V.F[i], W.k_matrix(i, -1)) + np.kron(IV, W.F[i])
    wts = (V.weights[:, None, :] + W.weights[None, :, :]).reshape(dV * dW, V.N - 1)
    return QModule(V.N, V.q, wts, E, F)


def contragredient(V: QModule) -> QModule:
    """Conjugate module in its unitarity-normalized orthonormal basis.

    E_i -> -q F_i, F_i -> -q^-1 E_i, weights negated (so K -> K^-1). The q
    factors are the diag(q^(rho, wt)) change of basis that makes the conjugate
    inner product unitary; applying the construction twice returns the
    original matrices exactly.
    """
    q = V.q
    E = {i: -q * V.F[i] for i in range(1, V.N)}
    F = {i: -(1.0 / q) * V.E[i] for i in range(1, V.N)}
    return QModule(V.N, q, -V.weights, E, F)


def _grading_residual(V: QModule, M: np.ndarray, shift: np.ndarray) -> float:
    """Max |entry| of M outside the blocks wt(row) = wt(col) + shift."""
    rr, cc = np.nonzero(M)
    if rr.size == 0:
        return 0.0
    ok = np.all(V.weights[rr] == V.weights[cc] + shift[None, :], axis=1)
    if ok.all():
        return 0.0
    return float(np.max(np.abs(M[rr, cc][~ok])))


def check_module(V: QModule, tol: ToleranceProfile = DEFAULT_TOL, raise_on_fail: bool = False) -> dict:
    """Residuals of the defining relations; see module docstring.

    Each defect is reported relative to the largest term entering its
    relation, floored at 1 (backward-error normalization): for modules whose
    generator entries are O(1) this is just the absolute max-abs defect,
    while for deep modules with q-integer-sized entries it measures the
    defect against the only meaningful yardstick, the size of the products
    being cancelled.  An absolute reading would fail for *any* float64
    representation of such a module: rounding the entries alone perturbs a
    triple product of size P by several ulp(P).

    Returns {'unitarity', 'grading', 'commutator', 'serre', 'max', 'passed'}.
    """
    q = V.q
    res_unit = 0.0
    res_grad = 0.0
    res_comm = 0.0
    res_serre = 0.0
    two_q = q_int(2, q)
    for i in range(1, V.N):
        Ei, Fi = V.E[i], V.F[i]
        ki = V.k_diag(i)
        unit_scale = max(1.0, float(np.max(np.abs(Ei))) if Ei.size else 0.0)
        res_unit = max(res_unit,
                       float(np.max(np.abs(Ei.T - Fi * ki[None, :]))) / unit_scale)
        alpha = simple_root(i, V.N).as_array()
        res_grad = max(res_grad, _grading_residual(V, Ei, alpha))
        res_grad = max(res_grad, _grading_residual(V, Fi, -alpha))
        for j in range(1, V.N):
            P1 = V.E[i] @ V.F[j]
            P2 = V.F[j] @ V.E[i]
            comm = P1 - P2
            scale = max(1.0, float(np.max(np.abs(P1))), float(np.max(np.abs(P2))))
            if i == j:
                tgt = np.diag([q_int(int(m), q) for m in V.weights[:, i - 1]])
                comm = comm - tgt
                scale = max(scale, float(np.max(np.abs(tgt))))
            res_comm = max(res_comm,
                           (float(np.max(np.abs(comm))) if comm.size else 0.0) / scale)
            if i < j:
                for A in (V.E, V.F):
                    Ai, Aj = A[i], A[j]
                    if j - i == 1:
                        for X, Y in ((Ai, Aj), (Aj, Ai)):
                            T1 = X @ X @ Y
                            T2 = X @ Y @ X
                            T3 = Y @ X @ X
                            s = T1 - two_q * T2 + T3
                            scale = max(1.0, float(np.max(np.abs(T1))),
                                        float(two_q) * float(np.max(np.abs(T2))),
                                        float(np.max(np.abs(T3))))
                            res_serre = max(res_serre,
                                            float(np.max(np.abs(s))) / scale)
                    else:
                        P1 = Ai @ Aj
                        P2 = Aj @ Ai
                        s = P1 - P2
                        scale = max(1.0, float(np.max(np.abs(P1))),
                                    float(np.max(np.abs(P2))))
                        res_serre = max(res_serre,
                                        float(np.max(np.abs(s))) / scale)
    report = {
        "unitarity": res_unit,
        "grading": res_grad,
        "commutator": res_comm,
        "serre": res_serre,
    }
    report["max"] = max(report.values())
    report["passed"] = report["max"] <= tol.identity_tol
    if raise_on_fail and not report["passed"]:
        raise InvariantViolation(f"module relation residuals too large: {report}")
    return report
