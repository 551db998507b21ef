"""Skorohod embedding of the sign walk on a Brownian path.

Rows of signs paired with ladders of exit times give Brownian skeletons
(tau_k, B_{tau_k}) with B_{tau_k} = sqrt(h) * (e_1 + ... + e_k) exactly
(lattice.walk_sums times sqrt(h)); values of B at deterministic times are
recovered by Brownian-bridge draws between neighbouring skeleton points. The
bridge is NOT conditioned on the +-sqrt(h) corridor the true excursion
respects; past tau_n a free Brownian increment is used since the embedding
carries no information there. experiment.couple_block draws the signs, exit
times and normals and runs the embedding; every caller goes through it.
"""
from __future__ import annotations

import numpy as np


def bridge_sample_batch(
    taus: np.ndarray,
    skeletons: np.ndarray,
    t: float,
    z: np.ndarray,
) -> np.ndarray:
    """Vectorised bridge draw at one fixed time across replication rows.

    taus is (R, n) of exit times, skeletons is (R, n+1) of values at
    (0, tau_1, ..., tau_n), z is (R,) standard normal draws. Rows where t
    falls exactly on an embedding time get variance zero and return the
    skeleton value; strictly between tau_j and tau_{j+1} the draw has the
    bridge mean and variance (t - tau_j)(tau_{j+1} - t)/(tau_{j+1} - tau_j);
    rows with t >= tau_n get the free sqrt(t - tau_n) increment.
    """
    if not 0.0 <= t < np.inf:  # also refuses NaN
        raise ValueError(f"need finite t >= 0, got t={t}")
    n_rows, n = taus.shape
    if skeletons.shape != (n_rows, n + 1) or np.shape(z) != (n_rows,):
        raise ValueError(
            f"length mismatch: taus {taus.shape}, skeletons {skeletons.shape}, "
            f"normals {np.shape(z)}"
        )
    rows = np.arange(n_rows)
    j = np.count_nonzero(taus <= t, axis=1)           # index into (0, tau_1, ..)
    t0 = np.where(j > 0, taus[rows, np.maximum(j - 1, 0)], 0.0)
    b0 = skeletons[rows, j]
    interior = j < n
    j_up = np.minimum(j + 1, n)
    t1 = taus[rows, np.minimum(j, n - 1)]             # tau_{j+1} for interior rows
    b1 = skeletons[rows, j_up]
    span = np.where(interior, t1 - t0, 1.0)
    lam = np.where(interior, (t - t0) / span, 0.0)
    mean = np.where(interior, b0 + lam * (b1 - b0), b0)
    var = np.where(interior, (t - t0) * np.maximum(t1 - t, 0.0) / span, t - t0)
    return mean + np.sqrt(np.maximum(var, 0.0)) * z
