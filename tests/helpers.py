"""What several test modules build the same way: walks of hand-made sign
rows, a zero-driver problem, open-interval uniforms, a tracemalloc peak and
a coupled block with its Brownian value."""
import math
import tracemalloc

import numpy as np

from rwbsde import experiment
from rwbsde.solver import BsdeProblem


def walk_sums(signs) -> np.ndarray:
    """S_k = e_1 + ... + e_k, k = 0..n, of each row of a (R, n) sign array,
    laid out as experiment.couple_block lays out the walks it draws: (R, n+1)
    int32 with the S_0 = 0 column."""
    signs = np.asarray(signs)
    walks = np.zeros((signs.shape[0], signs.shape[1] + 1), np.int32)
    np.cumsum(signs, axis=1, dtype=np.int32, out=walks[:, 1:])
    return walks


def skeleton(signs, h) -> np.ndarray:
    """The (1, n+1) walk positions sqrt(h)*S_k of one sign row."""
    return math.sqrt(h) * walk_sums(np.array([signs]))


def zero_driver_problem(T, n, g=np.abs, **options) -> BsdeProblem:
    """The problem with terminal g and f = 0 on n steps of size T/n."""
    return BsdeProblem(T=T, n=n, g=g, f=lambda t, x, y, z: 0.0 * y, **options)


def open_uniforms(rng, size) -> np.ndarray:
    """rng.random(size) in the open interval (0, 1), as couple_block draws it."""
    return np.maximum(rng.random(size), 2.0**-53)


def traced_peak(call) -> int:
    """The tracemalloc peak in bytes of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bridged_block(rng, rows, problem, t, columns) -> tuple:
    """(walks, taus, b_t) of one experiment.couple_block call, with b_t drawn
    as run_mc draws it: bridged across the returned bracket, with normals
    that rng draws after the block."""
    walks, taus, tau_ends, walk_ends = experiment.couple_block(rng, rows, problem, t, columns)
    b_t = experiment.bridge_sample_batch(tau_ends, problem.sqrt_h * walk_ends, t,
                                         rng.standard_normal(rows))
    return walks, taus, b_t
