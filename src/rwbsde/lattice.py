"""Integer Rademacher walks and the exhaustive sign enumeration.

The lattice itself (step h = T/n, node (k, i) at (2i - k)*sqrt(h)) is fixed
by the problem and lives on solver.BsdeProblem.
"""
from __future__ import annotations

import numpy as np

# 2**20 ~ 1e6 paths; enumeration is oracle support, never a hot path
ENUMERATION_CAP = 20


def walk_sums(signs: np.ndarray) -> np.ndarray:
    """Integer walk S_k = e_1 + ... + e_k, k = 0..n, of each sign row.

    signs is (R, n) of +-1; the result is (R, n+1) int64 with S_0 = 0. The
    node reached after k steps is i = (k + S_k)/2, and sqrt(h)*S is one
    int*sqrt(h) product per value, bit-identical with
    BsdeProblem.level_coordinates.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.shape[1] == 0:
        raise ValueError("signs must be a non-empty (rows, n) sign array")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("every step must be exactly +1 or -1")
    out = np.empty((signs.shape[0], signs.shape[1] + 1), dtype=np.int64)
    out[:, 0] = 0
    np.cumsum(signs, axis=1, dtype=np.int64, out=out[:, 1:])
    return out


def sign_matrix(m: int) -> np.ndarray:
    """All 2**m sign rows as an int8 array (exhaustive-oracle support)."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m > ENUMERATION_CAP:
        raise ValueError(f"enumeration of 2**{m} paths exceeds the cap 2**{ENUMERATION_CAP}")
    codes = np.arange(1 << m, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(m, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)
