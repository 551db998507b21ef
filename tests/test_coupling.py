import math

import numpy as np
import pytest
from helpers import bridged_block, skeleton, traced_peak, walk_sums, zero_driver_problem
from scipy.stats import ks_2samp, kstest

from rwbsde import experiment
from rwbsde.benchmarks import make_case
from rwbsde.experiment import bridge_sample_batch, couple_block, ladder_ends


def _coupled(rng, problem, rows):
    """Whole walks, ladders and skeletons of rows paths from run_mc's coupling draw."""
    walks, taus, *_ = couple_block(rng, rows, problem, 0.5 * problem.T, range(problem.n + 1))
    return walks, taus, problem.sqrt_h * walks


def _bridge(taus, walks, h, t, z):
    """Bridge draws at t of coupled paths, ladders tau_0 = 0, ..., tau_n and
    integer walks (one row each, or one row for every normal in z), through
    couple_block's own bracket, gather and bridge."""
    z = np.atleast_1d(z)
    taus = np.broadcast_to(np.asarray(taus, dtype=float), (z.size, np.shape(taus)[-1]))
    walks = np.broadcast_to(walks, (z.size, walks.shape[-1]))
    tau_ends, walk_ends = ladder_ends(taus, walks, t)
    return bridge_sample_batch(tau_ends, math.sqrt(h) * walk_ends, t, z)


def test_couple_two_steps():
    h = 0.49
    path = skeleton([1, -1], h)[0]
    assert path[0] == 0.0
    assert path[1] == math.sqrt(h)
    assert path[2] == 0.0


def test_skeleton_is_bitwise_walk_values():
    # the skeleton sits bit for bit on the lattice node each walk reaches
    rng = np.random.default_rng(1)
    problem = zero_driver_problem(1.0, 64)
    walks, _, skels = _coupled(rng, problem, 25)
    for k in range(65):
        node = (k + walks[:, k]) // 2
        assert np.array_equal(skels[:, k], problem.level_coordinates(k)[node])


def test_increments_are_exactly_sqrt_h():
    # B_tau_k - B_tau_{k-1} = sqrt(h)*(S_k - S_{k-1}) with |S_k - S_{k-1}| = 1
    # exactly, and each skeleton value is a single sqrt(h)*S_k product
    rng = np.random.default_rng(2)
    problem = zero_driver_problem(0.37 * 30, 30)
    walks, taus, skels = _coupled(rng, problem, 100)
    assert np.all(walks[:, 0] == 0)
    assert np.all(np.abs(np.diff(walks, axis=1)) == 1)
    assert np.array_equal(skels, problem.sqrt_h * walks.astype(float))
    assert np.all(taus[:, 0] == 0.0) and np.all(np.diff(taus, axis=1) > 0.0)


def test_couple_rejects_mismatch():
    taus = np.array([[0.0, 0.1, 0.5]])
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus, skeleton([1, 1, -1], 0.5), 0.3, np.zeros(1))
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus, skeleton([1, 1], 0.5), 0.3, np.zeros(2))
    # whole ladders of matching shapes are not the (R, 2) ends the bridge takes
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus, skeleton([1, 1], 0.5), 0.3, np.zeros(1))
    with pytest.raises(ValueError, match="length"):
        bridge_sample_batch(taus[:, :2], skeleton([1], 0.5), 0.3, np.zeros(2))
    # a left end after t brackets nothing
    with pytest.raises(ValueError, match="left end"):
        bridge_sample_batch(taus[:, 1:], skeleton([1], 0.5), 0.05, np.zeros(1))


def test_skeleton_increment_variance():
    # E (B_tau_m - B_tau_k)^2 = t_m - t_k over sampled sign paths
    rng = np.random.default_rng(3)
    problem = zero_driver_problem(1.0, 100)
    paths, k, m = 10_000, 25, 75
    _, _, skels = _coupled(rng, problem, paths)
    seg = skels[:, m] - skels[:, k]
    sq = seg * seg
    se = sq.std(ddof=1) / math.sqrt(paths)
    assert abs(sq.mean() - (m - k) * problem.h) <= 3 * se


def test_bridge_exact_at_embedding_times():
    h = 0.3
    taus = [0.0, 0.2, 0.5, 0.8, 1.3]
    walks = walk_sums([[1, 1, -1, 1]])
    path = skeleton([1, 1, -1, 1], h)
    for j, t in enumerate(taus):
        a = _bridge(taus, walks, h, t, np.random.default_rng(0).standard_normal())
        b = _bridge(taus, walks, h, t, np.random.default_rng(99).standard_normal())
        assert a[0] == b[0] == path[0, j]


def test_bridge_midpoint_moments():
    h = 1.0
    path = skeleton([1, -1], h)
    t = 2.0  # midpoint of (tau_1, tau_2)
    rng = np.random.default_rng(8)
    draws = _bridge([0.0, 1.0, 3.0], walk_sums([[1, -1]]), h, t, rng.standard_normal(100_000))
    mean_expected = 0.5 * (path[0, 1] + path[0, 2])
    var_expected = (3.0 - 1.0) / 4.0
    se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_expected) <= 4 * se_mean
    centred = (draws - mean_expected) ** 2
    se_var = centred.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - var_expected) <= 4 * se_var


def test_bridge_beyond_last_exit_uses_free_increment():
    h = 0.5
    path = skeleton([1, 1], h)
    t = 1.5
    z = np.random.default_rng(314).standard_normal()
    draw = _bridge([0.0, 0.4, 0.9], walk_sums([[1, 1]]), h, t, z)[0]
    assert draw == path[0, -1] + math.sqrt(t - 0.9) * z


def test_bridge_ignores_far_skeleton():
    # draws in (tau_j, tau_j+1) must not consult values outside {j, j+1}
    h = 0.25
    taus = [0.0, 0.3, 0.7, 1.1, 1.6]
    w1 = walk_sums([[1, -1, 1, 1]])
    w2 = walk_sums([[1, -1, -1, -1]])  # same first two steps
    t = 0.5  # inside (tau_1, tau_2)
    for seed in range(10):
        z = np.random.default_rng(seed).standard_normal()
        assert _bridge(taus, w1, h, t, z)[0] == _bridge(taus, w2, h, t, z)[0]


@pytest.mark.parametrize("n", [1, 32, 37])
def test_ladder_ends_bracket_matches_searchsorted(n):
    # walks that hold their own column index show the bracket j itself
    rng = np.random.default_rng(11)
    rows = 200
    _, taus, _ = _coupled(rng, zero_driver_problem(1.0, n), rows)
    columns = np.broadcast_to(np.arange(n + 1), taus.shape)
    on_tau = (taus[0, min(5, n)], taus[3, n])             # t on a tau, and on tau_n
    before_first = 0.5 * taus[:, 1].min()                 # t < tau_1 in every row
    past_last = (taus[:, -1].max(), 2.0 * taus[:, -1].max())   # t >= tau_n in every row
    for t in (0.0, *on_tau, before_first, *past_last, 0.5):
        tau_ends, ends = ladder_ends(taus, columns, t)
        for r in range(rows):
            j = int(np.searchsorted(taus[r], t, side="right")) - 1
            assert tuple(ends[r]) == (j, min(j + 1, n))
            assert tuple(tau_ends[r]) == (taus[r, j], taus[r, min(j + 1, n)])
    assert ladder_ends(taus, columns, on_tau[0])[1][0, 0] == min(5, n)
    assert np.all(ladder_ends(taus, columns, before_first)[1][:, 0] == 0)
    assert np.all(ladder_ends(taus, columns, past_last[0])[1] == n)


def test_row_passes_draw_the_block_stream():
    # couple_block draws its uniforms one row pass at a time into one
    # buffer; the generator gives the doubles of one (rows, n) draw
    block = np.random.default_rng(5).random((10, 7))
    rng = np.random.default_rng(5)
    buf = np.empty((4, 7))
    passes = []
    for rows in (4, 4, 2):
        rng.random(out=buf[:rows])
        passes.append(buf[:rows].copy())
    assert np.array_equal(np.concatenate(passes), block)


@pytest.mark.parametrize("reach", [6.0, -3.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 0.97])
def test_narrow_calls_bracket_t_as_whole_paths_do(t, reach):
    # a narrow call whose window is the whole path draws its bits; any other
    # draws the law of its walks and ladders: at t = 0.97 the call at column
    # k skips to column 9, and some rows end their whole ladder before t.
    # A window ends at its caller's last column, here reach spreads of
    # tau_m / h past t (capped at n): at reach 6 nearly every row's ladder
    # passes t inside the window and is bridged, at reach -3 nearly every
    # row runs free past its window
    n, rows = 64, 4000
    problem = make_case("square", 1.0).problem(n)
    steps = t / problem.h
    k = int(steps)
    last = min(n, max(0, math.floor(steps + reach * math.sqrt(2.0 * steps / 3.0 + 1.0))))
    walks, taus, *bracket = couple_block(np.random.default_rng(11), rows, problem, t, range(n + 1))
    for columns in ((k,), (last,), (0, last), (0, n)):
        if experiment._window(problem, t, np.array(columns)) == (0, n):
            s, tau, *ends = couple_block(np.random.default_rng(11), rows, problem, t, columns)
            assert all(np.array_equal(a, b) for a, b in zip(ends, bracket))
            assert np.array_equal(s, walks[:, columns]) and np.array_equal(tau, taus[:, columns])
        else:
            s, tau, *_ = couple_block(np.random.default_rng(12), rows, problem, t, columns)
            for j, c in enumerate(columns):
                assert ks_2samp(s[:, j], walks[:, c]).pvalue > 1e-3
                assert ks_2samp(tau[:, j], taus[:, c]).pvalue > 1e-3
    free = couple_block(np.random.default_rng(12), rows, problem, t, (last,))[1][:, 0] <= t
    if reach < 0:
        assert free.mean() > 0.99
    elif last < n:
        assert free.mean() < 0.01


@pytest.mark.parametrize("n,t,k", [(64, 0.5, 32), (64, 0.97, 40), (800, 0.5, 400)])
def test_b_t_is_brownian_given_the_drawn_ladder(n, t, k):
    # a row whose ladder passes t inside the window is bridged across the step
    # that brackets t, and a late row (its skip lands past t) across the step
    # before its window that couple_block draws for it; a row with tau_w <= t
    # at w = max(columns), the last column drawn, runs free from there:
    # B_t - B_tau_w ~ N(0, t - tau_w)
    problem = make_case("square", 1.0).problem(n)
    m0, w = experiment._window(problem, t, np.array([k]))
    columns = range(m0, w + 1)   # the same window, every column of it returned
    assert experiment._window(problem, t, np.array(columns)) == (m0, w)
    rng = np.random.default_rng(13)
    walks, taus, tau_ends, walk_ends = couple_block(rng, 4000, problem, t, columns)
    b_t = bridge_sample_batch(tau_ends, problem.sqrt_h * walk_ends, t, rng.standard_normal(4000))
    skels = problem.sqrt_h * walks
    free = taus[:, -1] <= t
    z_free = (b_t[free] - skels[free, -1]) / np.sqrt(t - taus[free, -1])
    assert kstest(z_free, "norm").pvalue > 1e-3
    late = taus[:, 0] > t
    inside = np.flatnonzero(~free & ~late)
    j = (taus[inside] <= t).sum(axis=1) - 1
    t0 = np.concatenate((taus[inside, j], tau_ends[late, 0]))
    t1 = np.concatenate((taus[inside, j + 1], tau_ends[late, 1]))
    b0 = np.concatenate((skels[inside, j], problem.sqrt_h * walk_ends[late, 0]))
    b1 = np.concatenate((skels[inside, j + 1], problem.sqrt_h * walk_ends[late, 1]))
    bridged = np.concatenate((b_t[inside], b_t[late]))
    if bridged.size:
        mean = b0 + (t - t0) / (t1 - t0) * (b1 - b0)
        z_bridged = (bridged - mean) / np.sqrt((t - t0) * (t1 - t) / (t1 - t0))
        assert kstest(z_bridged, "norm").pvalue > 1e-3
    # at t = t_k about half the rows run free and some are late; at t = 0.97,
    # far past t_40, nearly all run free
    if t == k * problem.h:
        assert late.any() and 0.4 <= free.mean() <= 0.6
    else:
        assert free.mean() > 0.99


@pytest.mark.parametrize("n,t,k,first", [
    (1, 0.5, 1, 0), (64, 0.5, 32, 0), (64, 0.5, 64, 0), (64, 0.97, 62, 1),
    (800, 0.5, 400, 0), (800, 0.5, 400, 1), (800, 0.5, 450, 1),
])
def test_bracket_holds_t(monkeypatch, n, t, k, first):
    # every row's bracket is the step around t: a row whose ladder passes t in
    # its window takes one walk step of its window across t, a free row ends
    # both at its window's last column, and a late row, whose skip to m0
    # lands past t, takes the step j -> j + 1 <= m0 that bracket_exit_sum
    # finds; first = 0 starts the window at column 0, first = 1 lets the call
    # at column k skip ahead
    found = []
    bracket_exit_sum = experiment.bracket_exit_sum

    def recorded(*args):
        found.append(bracket_exit_sum(*args))
        return found[-1]

    monkeypatch.setattr(experiment, "bracket_exit_sum", recorded)
    problem = make_case("square", 1.0).problem(n)
    m0, w = experiment._window(problem, t, np.array(sorted({k * first, k})))
    assert (m0 > 0) == bool(first)
    columns = range(m0, w + 1)   # the same window, every column of it returned
    walks, taus, tau_ends, walk_ends = couple_block(np.random.default_rng(n), 2000, problem, t,
                                                    columns)
    assert np.all(tau_ends[:, 0] <= t)
    late = taus[:, 0] > t
    assert late.any() == bool(first)
    bridged = (t < tau_ends[:, 1]) & ~late
    assert np.all(tau_ends[bridged, 1] > tau_ends[bridged, 0])
    assert np.all(np.abs(np.diff(walk_ends[bridged], axis=1)) == 1)
    free = ~bridged & ~late
    assert np.array_equal(tau_ends[free], np.repeat(taus[free, -1:], 2, axis=1))
    assert np.array_equal(walk_ends[free], np.repeat(walks[free, -1:], 2, axis=1))
    # and it sits on the returned columns j and min(j + 1, w)
    j = (taus[~late] <= t).sum(axis=1) - 1
    ends = np.stack((j, np.minimum(j + 1, w - m0)), axis=1)
    rows = np.flatnonzero(~late)[:, None]
    assert np.array_equal(tau_ends[~late], taus[rows, ends])
    assert np.array_equal(walk_ends[~late], walks[rows, ends])
    # a late row: tau_j <= t < tau_{j+1} <= tau_m0, equal at j + 1 = m0, one
    # walk step of the parity of j, and S_m0 within reach of S_{j+1}; a call
    # that does not skip (m0 = 0) brackets zero rows
    (j, late_ends), = found
    assert np.array_equal(late_ends, tau_ends[late]) and np.all(j + 1 <= m0)
    assert np.all(t < tau_ends[late, 1]) and np.all(tau_ends[late, 1] <= taus[late, 0])
    assert np.array_equal(tau_ends[late, 1] == taus[late, 0], j + 1 == m0)
    s_j, s_next = walk_ends[late].T
    assert np.all(np.abs(s_next - s_j) == 1)
    assert np.all((s_j - j) % 2 == 0) and np.all(np.abs(s_j) <= j)
    assert np.all(np.abs(walks[late, 0] - s_next) <= m0 - j - 1)


@pytest.mark.parametrize("n", [64, 800])
def test_late_rows_have_the_law_of_whole_paths(n):
    # a row whose skip to m0 lands past t_k is bracketed by gamma bridges and
    # a hypergeometric walk; whole paths stepped from column 0 whose tau_m0
    # passes t_k are the same event. Two-sample KS on all they return, 40,000
    # rows a side, and the shares of such rows (1% and 2%) within 4 SE
    problem = make_case("square", 1.0).problem(n)
    k = n // 2
    t = k * problem.h
    m0, _ = experiment._window(problem, t, np.array([k]))
    rows = 40_000
    laws = []
    for seed, columns in ((41, (m0, k)), (42, (0, m0, k))):
        walks, taus, tau_ends, walk_ends = couple_block(np.random.default_rng(seed), rows,
                                                        problem, t, columns)
        s_m0, s_k, tau_m0 = walks[:, -2], walks[:, -1], taus[:, -2]
        late = tau_m0 > t
        laws.append((late.mean(), {
            "tau_j": tau_ends[late, 0], "tau_j+1": tau_ends[late, 1], "tau_m0": tau_m0[late],
            "S_j": walk_ends[late, 0], "S_j+1 - S_j": np.diff(walk_ends[late], axis=1)[:, 0],
            "S_m0 - S_j+1": s_m0[late] - walk_ends[late, 1], "S_k": s_k[late],
        }))
    (share, skipped), (whole_share, whole) = laws
    assert abs(share - whole_share) <= 4.0 * math.sqrt(2.0 * whole_share / rows)
    for name in skipped:
        assert ks_2samp(skipped[name], whole[name]).pvalue > 1e-3, name


def _block_peak(n, rows):
    """tracemalloc peak in MiB of one run_mc-style block: square case, level n // 2 kept."""
    problem = make_case("square", 1.0).problem(n)
    couple_block(np.random.default_rng(0), 8, problem, 0.5, (n // 2,))  # builds the quantile table
    return traced_peak(lambda: couple_block(np.random.default_rng(1), rows, problem, 0.5,
                                            (n // 2,))) / 2**20


def test_couple_block_memory_is_bounded():
    # a block holds the int8 signs of its window (0.26 MiB at 8192 rows and
    # n = 800, columns 367..400), the gammas of tau_367 (0.8 MiB), one row
    # pass of uniforms, exit times, walks and ladders, and per-row answers:
    # ~3.4 MiB, where all n signs alone would be 6.3 MiB and whole-block
    # walks and ladders 75 MiB
    peak = _block_peak(800, 8192)
    assert peak <= 5, f"peak {peak:.1f} MiB"


def test_couple_block_memory_at_large_n():
    # the window is columns 4884..5000 at n = 10^4: ~2.4 MiB at 1024 rows,
    # where all n signs alone were 9.8 MiB and whole-block walks and ladders
    # would add ~117 MiB
    peak = _block_peak(10_000, 1024)
    assert peak <= 5, f"peak {peak:.1f} MiB"


def test_couple_block_refuses_columns_off_the_path():
    problem = zero_driver_problem(1.0, 8)
    for columns in ((9,), (-1,), 4, ((1, 2),)):
        with pytest.raises(IndexError, match="columns"):
            couple_block(np.random.default_rng(0), 4, problem, 0.5, columns)
    # not truncated to column 2
    with pytest.raises(TypeError, match="columns"):
        couple_block(np.random.default_rng(0), 4, problem, 0.5, (2.5,))


def test_bridge_rejects_negative_time():
    with pytest.raises(ValueError):
        bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), -0.1, np.zeros(1))
    with pytest.raises(ValueError):
        bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), -1.0, np.zeros(1))


def test_batch_bridge_matches_scalar_bridge():
    # per-row closed form: the searchsorted interval, the bridge mean and variance
    rng = np.random.default_rng(21)
    n, rows = 25, 64
    problem = zero_driver_problem(1.0, n)
    walks, taus, skels = _coupled(rng, problem, rows)
    t = 0.5
    z = rng.standard_normal(rows)
    batch = _bridge(taus, walks, problem.h, t, z)
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
    problem = zero_driver_problem(1.0, 100)
    n, h, paths = problem.n, problem.h, 10_000
    for k in (n // 4, n // 2, n):
        t_k = k * h
        s_k, _, b_tk = bridged_block(rng, paths, problem, t_k, (k,))
        ratio = np.mean((problem.sqrt_h * s_k[:, 0] - b_tk) ** 2) / math.sqrt(t_k * h)
        assert ratio <= 5.0
