import math

import numpy as np
import pytest
from walks import walk_sums

from rwbsde.experiment import bridge_sample_batch, couple_block
from rwbsde.solver import BsdeProblem


def _skeleton(signs, h):
    """(1, n+1) Brownian skeleton sqrt(h)*S of one sign row."""
    return math.sqrt(h) * walk_sums(np.array([signs]))


def _problem(T, n):
    return BsdeProblem(T=T, n=n, g=np.abs, f=lambda t, x, y, z: 0.0 * y)


def _coupled(rng, problem, rows):
    """Walks, ladders and skeletons of rows paths from run_mc's coupling draw."""
    walks, taus, _ = couple_block(rng, rows, problem, 0.5 * problem.T)
    return walks, taus, problem.sqrt_h * walks


def _bridge(taus, skeleton, t, z):
    """Bridge draws of one coupled path, ladder tau_0 = 0, ..., tau_n, one per
    normal in z."""
    z = np.atleast_1d(z)
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (z.size, len(taus)))
    skeleton = np.broadcast_to(skeleton, (z.size, skeleton.shape[-1]))
    return bridge_sample_batch(taus, skeleton, t, z)


def test_couple_two_steps():
    h = 0.49
    skeleton = _skeleton([1, -1], h)[0]
    assert skeleton[0] == 0.0
    assert skeleton[1] == math.sqrt(h)
    assert skeleton[2] == 0.0


def test_skeleton_is_bitwise_walk_values():
    # the skeleton sits bit for bit on the lattice node each walk reaches
    rng = np.random.default_rng(1)
    problem = _problem(1.0, 64)
    walks, _, skels = _coupled(rng, problem, 25)
    for k in range(65):
        node = (k + walks[:, k]) // 2
        assert np.array_equal(skels[:, k], problem.level_coordinates(k)[node])


def test_increments_are_exactly_sqrt_h():
    # B_tau_k - B_tau_{k-1} = sqrt(h)*(S_k - S_{k-1}) with |S_k - S_{k-1}| = 1
    # exactly, and each skeleton value is a single sqrt(h)*S_k product
    rng = np.random.default_rng(2)
    problem = _problem(0.37 * 30, 30)
    walks, taus, skels = _coupled(rng, problem, 100)
    assert np.all(walks[:, 0] == 0)
    assert np.all(np.abs(np.diff(walks, axis=1)) == 1)
    assert np.array_equal(skels, problem.sqrt_h * walks.astype(float))
    assert np.all(taus[:, 0] == 0.0) and np.all(np.diff(taus, axis=1) > 0.0)


def test_couple_rejects_mismatch():
    taus = np.array([[0.0, 0.1, 0.5]])
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus, _skeleton([1, 1, -1], 0.5), 0.3, np.zeros(1))
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus, _skeleton([1, 1], 0.5), 0.3, np.zeros(2))


def test_skeleton_increment_variance():
    # E (B_tau_m - B_tau_k)^2 = t_m - t_k over sampled sign paths
    rng = np.random.default_rng(3)
    problem = _problem(1.0, 100)
    paths, k, m = 10_000, 25, 75
    _, _, skels = _coupled(rng, problem, paths)
    seg = skels[:, m] - skels[:, k]
    sq = seg * seg
    se = sq.std(ddof=1) / math.sqrt(paths)
    assert abs(sq.mean() - (m - k) * problem.h) <= 3 * se


def test_bridge_exact_at_embedding_times():
    h = 0.3
    taus = [0.0, 0.2, 0.5, 0.8, 1.3]
    skeleton = _skeleton([1, 1, -1, 1], h)
    for j, t in enumerate(taus):
        a = _bridge(taus, skeleton, t, np.random.default_rng(0).standard_normal())
        b = _bridge(taus, skeleton, t, np.random.default_rng(99).standard_normal())
        assert a[0] == b[0] == skeleton[0, j]


def test_bridge_midpoint_moments():
    h = 1.0
    skeleton = _skeleton([1, -1], h)
    t = 2.0  # midpoint of (tau_1, tau_2)
    rng = np.random.default_rng(8)
    draws = _bridge([0.0, 1.0, 3.0], skeleton, t, rng.standard_normal(100_000))
    mean_expected = 0.5 * (skeleton[0, 1] + skeleton[0, 2])
    var_expected = (3.0 - 1.0) / 4.0
    se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_expected) <= 4 * se_mean
    centred = (draws - mean_expected) ** 2
    se_var = centred.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - var_expected) <= 4 * se_var


def test_bridge_beyond_last_exit_uses_free_increment():
    h = 0.5
    skeleton = _skeleton([1, 1], h)
    t = 1.5
    z = np.random.default_rng(314).standard_normal()
    draw = _bridge([0.0, 0.4, 0.9], skeleton, t, z)[0]
    assert draw == skeleton[0, -1] + math.sqrt(t - 0.9) * z


def test_bridge_ignores_far_skeleton():
    # draws in (tau_j, tau_j+1) must not consult values outside {j, j+1}
    h = 0.25
    taus = [0.0, 0.3, 0.7, 1.1, 1.6]
    s1 = _skeleton([1, -1, 1, 1], h)
    s2 = _skeleton([1, -1, -1, -1], h)  # same first two steps
    t = 0.5  # inside (tau_1, tau_2)
    for seed in range(10):
        z = np.random.default_rng(seed).standard_normal()
        assert _bridge(taus, s1, t, z)[0] == _bridge(taus, s2, t, z)[0]


def test_bridge_rejects_negative_time():
    with pytest.raises(ValueError):
        bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), -0.1, np.zeros(1))
    with pytest.raises(ValueError):
        bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), -1.0, np.zeros(1))


def test_batch_bridge_matches_scalar_bridge():
    # per-row closed form: the searchsorted interval, the bridge mean and variance
    rng = np.random.default_rng(21)
    n, rows = 25, 64
    _, taus, skels = _coupled(rng, _problem(1.0, n), rows)
    t = 0.5
    z = rng.standard_normal(rows)
    batch = bridge_sample_batch(taus, skels, t, z)
    for r in range(rows):
        times = taus[r]
        j = int(np.searchsorted(times, t, side="right")) - 1
        if times[j] == t:
            expected = skels[r, j]
        elif j >= n:
            expected = skels[r, -1] + math.sqrt(t - times[-1]) * z[r]
        else:
            t0, t1 = times[j], times[j + 1]
            b0, b1 = skels[r, j], skels[r, j + 1]
            mean = b0 + (t - t0) / (t1 - t0) * (b1 - b0)
            var = (t - t0) * (t1 - t) / (t1 - t0)
            expected = mean + math.sqrt(var) * z[r]
        assert batch[r] == pytest.approx(expected, abs=1e-14)


def test_coupling_discrepancy_trend():
    # E |B_tau_k - B_t_k|^2 / sqrt(t_k h) stays bounded across k
    rng = np.random.default_rng(17)
    problem = _problem(1.0, 100)
    n, h, paths = problem.n, problem.h, 10_000
    for k in (n // 4, n // 2, n):
        t_k = k * h
        walks, _, b_tk = couple_block(rng, paths, problem, t_k)
        ratio = np.mean((problem.sqrt_h * walks[:, k] - b_tk) ** 2) / math.sqrt(t_k * h)
        assert ratio <= 5.0
