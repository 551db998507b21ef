import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import open_uniforms, zero_driver_problem
from scipy.optimize import brentq
from scipy.special import zeta
from scipy.stats import ks_2samp

import rwbsde
from rwbsde import exit_time
from rwbsde.exit_time import (
    LaplaceInversionError,
    _logit_grid,
    _quantile_table,
    _scaled_law,
    cdf_laplace_inversion,
    cdf_series,
    bracket_exit_sum,
    bridge_exit_gammas,
    exit_sum,
    laplace_transform,
    sample_exit_gammas,
    sample_sigma,
    tabulate,
    tabulated_moment,
)
from rwbsde.experiment import bridge_sample_batch, couple_block


def test_laplace_transform_values():
    assert laplace_transform(0.0, 0.3) == 1.0
    assert laplace_transform(0.5, 1.0) == pytest.approx(1.0 / math.cosh(1.0), abs=1e-15)
    # depends on lam*h only
    assert laplace_transform(2.0, 0.25) == laplace_transform(0.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda: cdf_series(math.nan, 1.0),
    lambda: cdf_series(np.array([0.5, math.nan]), 1.0),
    lambda: cdf_series(0.5, math.inf),
    lambda: laplace_transform(math.nan, 1.0),
    lambda: cdf_laplace_inversion(math.nan, 1.0),
    lambda: bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), math.nan, np.zeros(1)),
    lambda: bridge_sample_batch(np.array([[0.0, 0.4]]), np.array([[0.0, 0.7]]), math.inf, np.zeros(1)),
    lambda: couple_block(np.random.default_rng(0), 4, zero_driver_problem(1.0, 8), math.nan, (1,)),
    lambda: couple_block(np.random.default_rng(0), 4, zero_driver_problem(1.0, 8), math.inf, (1,)),
], ids=["cdf_series", "cdf_series_array", "cdf_series_h", "laplace_transform", "cdf_laplace_inversion",
        "bridge_nan", "bridge_inf", "couple_block_nan", "couple_block_inf"])
def test_non_finite_input_is_refused(call):
    with pytest.raises(ValueError):
        call()


def test_laplace_transform_rejects_bad_input():
    with pytest.raises(ValueError):
        laplace_transform(-0.1, 1.0)
    with pytest.raises(ValueError):
        laplace_transform(1.0, 0.0)


def test_series_exit_is_almost_surely_finite():
    h = 0.8
    assert cdf_series(50 * h, h) >= 1.0 - 1e-12


def test_series_brownian_scaling_is_exact():
    h = 0.02
    t = np.array([0.3 * h, h, 6.0 * h])
    assert np.array_equal(cdf_series(t, h), cdf_series(t / h, 1.0))


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        cdf_series(0.0, 1.0)


def test_series_cost_does_not_depend_on_the_smallest_time():
    # each point uses the series suited to its own t/h, so one tiny t does
    # not lengthen the series for the other 10^5 points
    at_h = np.ones(100_000)
    mixed = at_h.copy()
    mixed[0] = 1e-4
    best = {"at_h": math.inf, "mixed": math.inf}
    for _ in range(7):
        for name, t in (("at_h", at_h), ("mixed", mixed)):
            start = time.perf_counter()
            cdf_series(t, 1.0)
            best[name] = min(best[name], time.perf_counter() - start)
    assert best["mixed"] <= 1.5 * best["at_h"]


@pytest.mark.parametrize("h", [1.0, 0.01])
def test_inversion_agrees_with_series(h):
    grid = np.geomspace(h / 100, 20 * h, 200)
    gap = np.max(np.abs(cdf_laplace_inversion(grid, h) - cdf_series(grid, h)))
    assert gap <= 1e-6


def test_inversion_limits():
    h = 0.4
    assert cdf_laplace_inversion(20 * h, h) == pytest.approx(1.0, abs=1e-6)
    assert cdf_laplace_inversion(h / 100, h) == pytest.approx(0.0, abs=1e-6)


def test_inversion_instability_is_reported(monkeypatch):
    # contour weights up to e^(2 * 128 / 5) = 1.7e22 cancel down to noise
    monkeypatch.setattr(exit_time, "TALBOT_DEGREE", 128)
    with pytest.raises(LaplaceInversionError, match="degree 128"):
        cdf_laplace_inversion(0.5, 1.0)


def test_tabulate_default_invariants():
    cdf = tabulate(1.0)
    assert cdf.values[0] <= 1e-16
    assert cdf.values[-1] == 1.0
    assert np.all(np.diff(cdf.grid) > 0)
    assert np.all(np.diff(cdf.values) >= 0)
    assert cdf.values[0] >= 0.0 and cdf.values[-1] <= 1.0


def test_tabulate_rescales_exactly():
    ref = tabulate(1.0)
    for h in (0.01, 0.4, 1.0 / 800):
        scaled = tabulate(h)
        assert np.array_equal(scaled.values, ref.values)
        assert np.array_equal(scaled.grid, h * ref.grid)
        assert np.max(np.abs(cdf_series(scaled.grid, h) - scaled.values)) <= 1e-15


def test_tabulate_rejects_bad_windows():
    for h in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            tabulate(h)
        with pytest.raises(ValueError):
            tabulated_moment(h)
    # the times h * [0.0142, 30.19] would overflow, or leave the normal doubles
    # and stop increasing
    for h in (1e308, 1e-320):
        with pytest.raises(ValueError, match="normal doubles"):
            tabulate(h)
    for h in (1.6e-306, 5.9e306):
        assert np.all(np.diff(tabulate(h).grid) > 0)
    for p in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="p > 0"):
            tabulated_moment(1.0, p)


_MOMENT_HS = (1.0, 0.7, 0.4, 0.25, 0.01, 0.002, 1.0 / 800)


def test_table_mean_matches_h():
    for h in _MOMENT_HS:
        assert abs(tabulated_moment(h, 1.0) - h) <= 1e-14 * h


def test_table_second_moment_scale_free():
    # E sigma^2 / h^2 = 5/3, identical across h by construction
    ratios = [tabulated_moment(h, 2.0) / h**2 for h in _MOMENT_HS]
    assert max(ratios) - min(ratios) <= 1e-6
    assert ratios[0] == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_table_reproduces_laplace_transform():
    h = 0.7
    cdf = tabulate(h)
    surv = 1.0 - cdf.values
    from scipy.integrate import simpson

    for lam in (0.1 / h, 1.0 / h, 10.0 / h):
        head = (1.0 - math.exp(-lam * cdf.grid[0])) / lam
        integral = head + simpson(np.exp(-lam * cdf.grid) * surv, x=cdf.grid)
        assert 1.0 - lam * integral == pytest.approx(laplace_transform(lam, h), abs=1e-11)


def test_sample_sigma_round_trips_grid_points():
    # at u = sigmoid(x_j) on the logit grid the draw is the node q_j; past
    # x = 5 the rounding of u near 1 moves logit u, so those nodes are not
    # resolved by any double u
    nodes, _, _ = _quantile_table()
    x = np.linspace(-37.0, 37.0, nodes.size)
    j = np.flatnonzero(x <= 5.0)
    u = 1.0 / (1.0 + np.exp(-x[j]))
    np.testing.assert_allclose(sample_sigma(tabulate(1.0), u), nodes[j], rtol=1e-13, atol=0.0)
    # every node solves F(q_j) = sigmoid(x_j), and the forward table is the
    # same table
    u_all = 1.0 / (1.0 + np.exp(-x))
    assert np.max(np.abs(cdf_series(nodes, 1.0) - u_all)) <= 1e-15
    cdf = tabulate(1.0)
    assert np.array_equal(cdf.grid, nodes) and np.array_equal(cdf.values, u_all)


def test_quantile_table_refuses_a_newton_run_that_does_not_converge(monkeypatch):
    # a density ten times too large cuts every Newton step to a tenth;
    # __wrapped__ builds a table apart from the cached one
    def too_dense(s):
        cdf, surv, dens = _scaled_law(s)
        return cdf, surv, 10.0 * dens

    monkeypatch.setattr("rwbsde.exit_time._scaled_law", too_dense)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _quantile_table.__wrapped__()


def _run_fresh(code):
    """Run code in a fresh interpreter that imports this checkout's rwbsde."""
    src = os.path.dirname(os.path.dirname(rwbsde.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_quantile_table_is_built_on_first_use():
    _run_fresh("import rwbsde, rwbsde.cli; from rwbsde.exit_time import _quantile_table; "
               "assert _quantile_table.cache_info().currsize == 0")


def test_import_leaves_the_quadrature_module_unloaded():
    # only the criterion-5 oracle integrates adaptively, and it imports quad
    # itself; the special functions are imported by the functions that call them
    _run_fresh("import sys, rwbsde, rwbsde.cli; from rwbsde.benchmarks import make_case; "
               "make_case('square', 1.0); assert 'scipy.integrate' not in sys.modules; "
               "assert 'scipy.special' not in sys.modules")


def test_monte_carlo_path_leaves_the_special_functions_unloaded():
    # the quantile table takes erfc from the C library and its Newton start
    # from the stdlib's normal quantile: a square run and the forward table
    # never load scipy.special
    _run_fresh("import sys; from rwbsde.exit_time import tabulate; from rwbsde.experiment import "
               "ExperimentConfig, run_mc; run_mc(ExperimentConfig(case='square', n_list=(8, 16), "
               "M=100)); tabulate(0.01); assert 'scipy.special' not in sys.modules")


def test_image_series_matches_scipy_erfc():
    # the image series on math.erfc against the same six terms on
    # scipy.special.erfc, over the head's range of the table, s in [0.0142, 1);
    # measured within 4.0e-15 relative
    from scipy.special import erfc
    s = np.geomspace(0.0142, 1.0, 100_001)[:-1]
    z = np.sqrt(0.5 / s)
    oracle = 2.0 * sum(sign * erfc(c * z) for sign, c in exit_time._TERMS)
    np.testing.assert_allclose(cdf_series(s, 1.0), oracle, rtol=1e-14, atol=0.0)


def test_sample_sigma_median_against_series_root():
    cdf = tabulate(1.0)
    med = sample_sigma(cdf, 0.5)
    root = brentq(lambda t: cdf_series(t, 1.0) - 0.5, 0.05, 5.0, xtol=1e-12)
    assert med == pytest.approx(root, abs=1e-6)


@pytest.mark.parametrize("h", [1.0, 0.01])
def test_sample_sigma_inverts_the_series_cdf(h):
    # sup |F(Q(u)) - u| over 10^6 uniform points plus logit-spaced tails
    # out to |logit u| = 30, with F the series CDF and Q the table inverse
    bulk = np.linspace(0.0, 1.0, 1_000_002)[1:-1]
    x = np.linspace(5.0, 30.0, 2001)
    tails = 1.0 / (1.0 + np.exp(np.concatenate([x, -x])))
    u = np.concatenate([bulk, tails])
    q = sample_sigma(tabulate(h), u)
    assert np.max(np.abs(cdf_series(q, h) - u)) <= 1e-7


def test_one_table_serves_every_h():
    u = open_uniforms(np.random.default_rng(8), 10_000)
    ref = sample_sigma(tabulate(1.0), u)
    for h in (0.5, 0.01, 1.0 / 800):
        assert np.array_equal(sample_sigma(tabulate(h), u), h * ref)


def test_sample_sigma_extreme_uniforms():
    u = np.array([1e-300, 2.0**-53, 1.0 - 2.0**-53])
    q = sample_sigma(tabulate(1.0), u)
    assert np.all(np.isfinite(q)) and np.all(q > 0.0)
    assert np.all(np.diff(q) > 0.0)


# sample_sigma(tabulate(h), u) as float.hex: both clamp ends (1e-300 and
# 2^-53 below the grid, 1 - 2^-53 above it), head, middle and tail points,
# and sigmoid(x_20000), a node of the logit grid
_U_PINNED = [1e-300, 2.0**-53, 1e-12, 1e-6, 0.03, 0.5, float.fromhex("0x1.ffdac44957dbbp-1"),
             0.97, 1.0 - 1e-9, 1.0 - 2.0**-53]
_Q_PINNED = {
    1.0: ["0x1.cfcf60e73d163p-7", "0x1.d33e73332864bp-7", "0x1.39d709528fd0fp-6",
          "0x1.444216da8a8e4p-5", "0x1.5a270a3a2f0fdp-3", "0x1.83d6792b39b1cp-1",
          "0x1.b42b8c9352fd6p+2", "0x1.84e0e7d33dd35p+1", "0x1.0fe52d4b7cbb6p+4",
          "0x1.df9398192905ep+4"],
    1.0 / 800: ["0x1.28d6a46b08602p-16", "0x1.2b093f7ce6a6ep-16", "0x1.91b7162c3d347p-16",
                "0x1.9f0cea0d7e26cp-15", "0x1.bb13404a79adep-13", "0x1.f06eaf937d0c8p-11",
                "0x1.17261c873f5a8p-7", "0x1.f1c3b818a10e8p-9", "0x1.5c06a0609fa83p-6",
                "0x1.32edd1fb9f5ffp-5"],
}


@pytest.mark.parametrize("h", sorted(_Q_PINNED))
def test_sample_sigma_bits_are_pinned(h):
    # the inversion's arithmetic, operation for operation: a change to it
    # moves these bits before it moves run_mc's summed errors
    u = np.array(_U_PINNED)
    assert u[6] == 1.0 / (1.0 + np.exp(-_logit_grid()[20_000]))
    assert [q.hex() for q in sample_sigma(tabulate(h), u)] == _Q_PINNED[h]


def test_sample_sigma_keeps_the_shape_of_its_input():
    u = open_uniforms(np.random.default_rng(9), (3, 20_000))
    cdf = tabulate(0.01)
    flat = sample_sigma(cdf, u.ravel()).reshape(u.shape)
    assert np.array_equal(sample_sigma(cdf, u), flat)
    assert np.array_equal(sample_sigma(cdf, np.asfortranarray(u)), flat)
    # a column slice of a wider array, such as the first columns of a row pass
    assert np.array_equal(sample_sigma(cdf, u[:, :7_000]),
                          sample_sigma(cdf, np.ascontiguousarray(u[:, :7_000])))
    # a 0-d array is a scalar, as are its transform and CDF
    for result in (sample_sigma(cdf, np.array(0.5)), cdf_series(np.array(0.5), 0.01),
                   laplace_transform(np.array(2.0), 0.01)):
        assert isinstance(result, float)
    assert sample_sigma(cdf, np.array(0.5)) == sample_sigma(cdf, 0.5)


def test_sample_sigma_rejects_boundary():
    cdf = tabulate(1.0)
    for u in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            sample_sigma(cdf, u)


def test_sample_sigma_is_monotone():
    # every adjacent pair of one sorted grid: 10^6 interior uniforms, tails
    # spaced in logit u out to and past the table's clamp at |logit u| = 37,
    # and the extreme uniforms 1e-300, 2^-53 and 1 - 2^-53
    interior = np.linspace(0.0, 1.0, 10**6 + 2)[1:-1]
    tails = 1.0 / (1.0 + np.exp(-np.linspace(-690.0, 40.0, 10**5)))
    extremes = np.array([1e-300, 2.0**-53, 1.0 - 2.0**-53])
    u = np.unique(np.concatenate((interior, tails, extremes)))
    u = u[(u > 0.0) & (u < 1.0)]
    assert u[0] == 1e-300 and u[-1] == 1.0 - 2.0**-53
    assert np.all(np.diff(sample_sigma(tabulate(1.0), u)) >= 0.0)


def test_sample_mean_near_h():
    h = 0.25
    cdf = tabulate(h)
    u = open_uniforms(np.random.default_rng(42), 100_000)
    draws = sample_sigma(cdf, u)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - h) <= 3 * se


def _ladders(cdf, n, rows, rng):
    return np.cumsum(sample_sigma(cdf, open_uniforms(rng, (rows, n))), axis=1)


def test_tau_sequence_shape_and_growth():
    cdf = tabulate(0.1)
    rng = np.random.default_rng(0)
    taus = _ladders(cdf, 50, 3, rng)
    assert taus.shape == (3, 50)
    assert np.all(taus[:, 0] > 0)
    assert np.all(np.diff(taus, axis=1) > 0)


def test_tau_terminal_mean():
    # E tau_n = n*h, checked over many replications
    h, n, reps = 0.01, 100, 10_000
    cdf = tabulate(h)
    u = open_uniforms(np.random.default_rng(123), (reps, n))
    sig = np.asarray(sample_sigma(cdf, u.ravel())).reshape(reps, n)
    tau_n = sig.sum(axis=1)
    se = tau_n.std(ddof=1) / math.sqrt(reps)
    assert abs(tau_n.mean() - n * h) <= 3 * se


def test_tau_increment_variance_matches_table_moment():
    h, reps = 0.5, 40_000
    cdf = tabulate(h)
    u = open_uniforms(np.random.default_rng(5), reps)
    sig = np.asarray(sample_sigma(cdf, u))
    table_var = tabulated_moment(h, 2.0) - tabulated_moment(h, 1.0) ** 2
    sq = (sig - sig.mean()) ** 2
    se = sq.std(ddof=1) / math.sqrt(reps)
    assert abs(sig.var(ddof=1) - table_var) <= 3 * se


def test_sample_determinism():
    cdf = tabulate(0.3)
    a = _ladders(cdf, 20, 4, np.random.default_rng(77))
    b = _ladders(cdf, 20, 4, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_exit_sum_series_constants():
    # the weights sum to 1 and their squares to 2/3, so the tail gamma carries
    # the rest of the mean and variance; Hurwitz zeta sums the tail directly
    a, c = exit_time._SERIES_WEIGHTS, 2.0 / math.pi**2
    assert abs(math.fsum(a) + exit_time._TAIL_MEAN - 1.0) <= 1e-15
    assert abs(math.fsum(a * a) + exit_time._TAIL_VAR - 2.0 / 3.0) <= 1e-15
    tail = [c**p * zeta(2 * p, a.size + 0.5) for p in (1, 2, 3)]
    assert exit_time._TAIL_MEAN == pytest.approx(tail[0], rel=1e-13)
    assert exit_time._TAIL_VAR == pytest.approx(tail[1], rel=1e-10)
    # third cumulants per unit m: 2 sum a_i^3 exactly, the tail gamma's
    # 2 * var^2 / mean in place of the tail's own 2 * sum_{i>12} a_i^3
    exact = 16.0 / 15.0
    series = exact - 2.0 * tail[2] + 2.0 * exit_time._TAIL_VAR**2 / exit_time._TAIL_MEAN
    assert abs(series - exact) <= 1e-8 * exact


@pytest.mark.parametrize("m", [1, 50])
def test_exit_sum_matches_summed_ladders(m):
    # two-sample KS against m summed sample_sigma draws, 200k rows a side, at
    # level 1e-3 (p = 0.013 at m = 1 and 0.45 at m = 50 with these seeds)
    h, rows = 0.01, 200_000
    series = exit_sum(sample_exit_gammas(np.random.default_rng(31), m, rows), h)
    ladders = sample_sigma(tabulate(h), open_uniforms(np.random.default_rng(32), (rows, m)))
    assert ks_2samp(series, ladders.sum(axis=1)).pvalue > 1e-3


def test_exit_sum_of_one_follows_the_series_cdf():
    # sup |F_N - F| against the series CDF, within the DKW bound at level 1e-3
    h, rows = 0.3, 200_000
    draws = np.sort(exit_sum(sample_exit_gammas(np.random.default_rng(33), 1, rows), h))
    cdf = cdf_series(draws, h)
    ranks = np.arange(1, rows + 1) / rows
    gap = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / rows)))
    assert gap <= math.sqrt(math.log(2.0 / 1e-3) / (2.0 * rows))


def test_exit_sum_refuses_bad_input():
    rng = np.random.default_rng(0)
    for m in (-1, 2.5):
        with pytest.raises((ValueError, TypeError)):
            sample_exit_gammas(rng, m, 4)
    assert np.array_equal(sample_exit_gammas(rng, 0, 4), np.zeros((4, 13)))
    for h in (0.0, math.nan):
        with pytest.raises(ValueError):
            exit_sum(sample_exit_gammas(rng, 3, 4), h)


def test_an_empty_skip_takes_nothing_from_the_stream():
    # couple_block's skip to m0 = 0 runs the draws of any other skip: they
    # must be zeros and leave the stream where it was, or every whole path
    # would move
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    assert np.array_equal(sample_exit_gammas(rng, 0, 8), np.zeros((8, 13)))
    assert np.array_equal(rng.binomial(0, 0.5, 8), np.zeros(8))
    empty = np.zeros(0, np.int64)
    assert rng.hypergeometric(empty, empty, empty).size == 0
    j, tau_ends = bracket_exit_sum(rng, np.zeros((0, 13)), 0, 0.01, 0.5)
    assert j.size == 0 and tau_ends.shape == (0, 2)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("lo,mid,hi", [(0, 1, 2), (0, 15, 37), (10, 25, 37)])
def test_bridged_exit_sum_has_the_law_of_an_exit_sum(lo, mid, hi):
    # the series at lo and hi of one gamma process, then at mid by its
    # bridge: tau_mid has the law of the series at mid and tau_mid - tau_lo
    # that of mid - lo exit times (KS, 100k rows a side), and its mean given
    # both ends is tau_lo + (tau_hi - tau_lo)(mid - lo)/(hi - lo) within 4 SE
    h, rows = 0.01, 100_000
    rng = np.random.default_rng(51)
    lo_gammas = sample_exit_gammas(rng, lo, rows) if lo else np.zeros((rows, 13))
    hi_gammas = lo_gammas + sample_exit_gammas(rng, hi - lo, rows)
    mid_gammas = bridge_exit_gammas(rng, lo_gammas, hi_gammas,
                                    *(np.full(rows, c) for c in (lo, mid, hi)))
    assert np.all((lo_gammas <= mid_gammas) & (mid_gammas <= hi_gammas))
    tau_lo, tau_mid, tau_hi = (exit_sum(g, h) for g in (lo_gammas, mid_gammas, hi_gammas))
    assert np.all((tau_lo <= tau_mid) & (tau_mid <= tau_hi))
    fresh = [exit_sum(sample_exit_gammas(np.random.default_rng(seed), m, rows), h)
             for seed, m in ((52, mid), (53, mid - lo))]
    assert ks_2samp(tau_mid, fresh[0]).pvalue > 1e-3
    assert ks_2samp(tau_mid - tau_lo, fresh[1]).pvalue > 1e-3
    gap = tau_mid - tau_lo - (tau_hi - tau_lo) * (mid - lo) / (hi - lo)
    assert abs(gap.mean()) <= 4.0 * gap.std(ddof=1) / math.sqrt(rows)


@pytest.mark.parametrize("m", [1, 2, 37, 400])
def test_bracket_exit_sum_finds_the_step_past_t(m):
    # t below the mean of tau_m puts it past t in most rows: each of those
    # gets the step j -> j + 1 <= m with tau_j <= t < tau_{j+1}, whose right
    # end is tau_m itself, bit for bit, at j + 1 = m
    h, t = 0.01, 0.01 * (m - 0.5)
    gammas = sample_exit_gammas(np.random.default_rng(54), m, 2000)
    tau_m = exit_sum(gammas, h)
    late = tau_m > t
    j, tau_ends = bracket_exit_sum(np.random.default_rng(55), gammas[late], m, h, t)
    assert tau_ends.shape == (late.sum(), 2) and np.all((0 <= j) & (j < m))
    assert np.all(tau_ends[:, 0] <= t) and np.all(t < tau_ends[:, 1])
    assert np.all(tau_ends[:, 1] <= tau_m[late])
    assert np.array_equal(tau_ends[:, 1] == tau_m[late], j + 1 == m)
    assert np.all((tau_ends[:, 0] == 0.0) == (j == 0))


@pytest.mark.parametrize("m", [2, 367])
def test_bracket_exit_sum_clamps_its_first_bridge_inside_the_ends(m, monkeypatch):
    # t next to either end puts the interpolated column at 0 or m, which the
    # clamp moves one step inside: t just above 0 is bracketed by step 1 and
    # t just below tau_m by step m, each after one round of bridges
    h, rows = 0.01, 20
    rounds = []
    bridge = exit_time.bridge_exit_gammas

    def counted(rng, lo_gammas, *args):
        rounds.append(lo_gammas.shape[0])
        return bridge(rng, lo_gammas, *args)

    monkeypatch.setattr(exit_time, "bridge_exit_gammas", counted)
    gammas = sample_exit_gammas(np.random.default_rng(56), m, rows)
    tau_m = exit_sum(gammas, h)
    j, tau_ends = bracket_exit_sum(np.random.default_rng(57), gammas, m, h, 5e-324)
    assert rounds == [rows] and np.all(j == 0) and np.all(tau_ends[:, 0] == 0.0)
    for row in range(rows):
        rounds.clear()
        t = np.nextafter(tau_m[row], 0.0)
        j, tau_ends = bracket_exit_sum(np.random.default_rng(58), gammas[row:row + 1], m, h, t)
        assert rounds == [1] and j.tolist() == [m - 1] and tau_ends[0, 1] == tau_m[row]
