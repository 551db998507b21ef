"""Scaled Rademacher walk and its recombining binomial tree geometry."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# 2**20 ~ 1e6 paths; enumeration is oracle support, never a hot path
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class LatticeGeometry:
    """Time/space geometry of an n-step walk with time step h.

    Node (k, i), 0 <= i <= k, carries i up-moves and sits at space
    coordinate (2i - k)*sqrt(h) at time k*h; level k has k + 1 nodes.
    sqrt(h) is computed once here so that every module indexing the tree
    produces bit-identical coordinates.
    """

    n: int
    h: float
    sqrt_h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if not self.h > 0.0:
            raise ValueError(f"need h > 0, got h={self.h}")
        object.__setattr__(self, "sqrt_h", math.sqrt(self.h))

    @property
    def horizon(self) -> float:
        """T = n*h in the arithmetic actually used downstream."""
        return self.n * self.h


def walk_sums(signs: np.ndarray) -> np.ndarray:
    """Integer walk S_k = e_1 + ... + e_k, k = 0..n, of each sign row.

    signs is (R, n) of +-1; the result is (R, n+1) int64 with S_0 = 0. The
    node reached after k steps is i = (k + S_k)/2, and sqrt(h)*S is one
    int*sqrt(h) product per value, bit-identical with node_coordinate.
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


def node_coordinate(geom: LatticeGeometry, k: int, i: int) -> float:
    """Space coordinate (2i - k)*sqrt(h) of node (k, i)."""
    if not 0 <= k <= geom.n:
        raise IndexError(f"level k={k} outside 0..{geom.n}")
    if not 0 <= i <= k:
        raise IndexError(f"node i={i} outside 0..{k} at level {k}")
    return (2 * i - k) * geom.sqrt_h


def level_coordinates(geom: LatticeGeometry, k: int) -> np.ndarray:
    """All k+1 node coordinates of level k, bottom-up."""
    if not 0 <= k <= geom.n:
        raise IndexError(f"level k={k} outside 0..{geom.n}")
    return (2 * np.arange(k + 1, dtype=np.int64) - k) * geom.sqrt_h


def sign_matrix(m: int, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """All 2**m sign rows as an int8 array (exhaustive-oracle support)."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m > cap:
        raise ValueError(f"enumeration of 2**{m} paths exceeds the cap 2**{cap}")
    codes = np.arange(1 << m, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(m, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)
