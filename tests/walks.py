"""Integer walks of hand-made sign rows, laid out as experiment.couple_block
lays out the walks it draws: (R, n+1) int32 with the S_0 = 0 column."""
import numpy as np


def walk_sums(signs) -> np.ndarray:
    """S_k = e_1 + ... + e_k, k = 0..n, of each row of a (R, n) sign array."""
    signs = np.asarray(signs)
    walks = np.zeros((signs.shape[0], signs.shape[1] + 1), np.int32)
    np.cumsum(signs, axis=1, dtype=np.int32, out=walks[:, 1:])
    return walks
