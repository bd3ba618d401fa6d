"""Shared fixtures: session-cached factories for chains and module builders,
and the intertwining residual of a linear map between modules.

Deep chains (M = 22) are the expensive objects in this suite, so all test
files draw them from one session-wide cache keyed by (weight coords, q, M).
Requesting the same key twice returns the identical object.
"""

import numpy as np
import pytest

from qcartan import sps
from qcartan.qcore import Weight


@pytest.fixture(scope="session")
def chains():
    """Factory: chains(coords, q, M) -> CartanChain, cached per session."""
    cache = {}

    def build(coords, q, M):
        key = (tuple(coords), float(q), int(M))
        if key not in cache:
            cache[key] = sps.CartanChain(Weight(key[0]), key[1], key[2])
        return cache[key]

    return build


@pytest.fixture(scope="session")
def builders():
    """Factory: builders(N, q) -> GeneralWeightBuilder, cached per session."""
    cache = {}

    def get(N, q):
        key = (int(N), float(q))
        if key not in cache:
            cache[key] = sps.GeneralWeightBuilder(key[0], key[1])
        return cache[key]

    return get


@pytest.fixture(scope="session")
def intertwining_residual():
    """residual(source, target, M): max |M x_src - x_tgt M| over E_i, F_i, K_i."""

    def residual(source, target, M):
        worst = 0.0
        for i in range(1, source.N):
            worst = max(worst, np.max(np.abs(M @ source.E[i] - target.E[i] @ M)))
            worst = max(worst, np.max(np.abs(M @ source.F[i] - target.F[i] @ M)))
            kk = target.k_diag(i)[:, None] * M - M * source.k_diag(i)[None, :]
            worst = max(worst, np.max(np.abs(kk)) if kk.size else 0.0)
        return float(worst)

    return residual


@pytest.fixture(scope="session")
def e_is_k_f_transpose():
    """check(V): every E_i of V is K_i F_i^T bitwise, in canonical triplets."""

    def check(V):
        for i in range(1, V.N):
            E, F = V.E[i], V.F[i]
            n = E.shape[1]
            assert E.shape == F.shape[::-1]
            assert np.all(np.diff(E.rows * n + E.cols) > 0) and np.all(E.vals != 0.0)
            assert np.array_equal(E.to_dense(), V.k_diag(i)[:, None] * F.to_dense().T)

    return check
