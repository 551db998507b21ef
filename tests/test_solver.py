import dataclasses
import math

import numpy as np
import pytest
from helpers import traced_peak, walk_sums, zero_driver_problem

from rwbsde.benchmarks import make_case
from rwbsde.solver import (
    BsdeProblem,
    PicardConvergenceError,
    evaluate_walks,
    sign_matrix,
    solve_explicit,
    solve_implicit,
    z_by_representation,
)


def linear_driver(t, x, y, z):
    return y + z


def test_single_step_identity_terminal():
    problem = zero_driver_problem(1.0, 1, lambda x: x)
    sol = solve_explicit(problem)
    assert sol.y[0][0] == 0.0
    assert sol.z[0][0] == 1.0


@pytest.mark.parametrize("n,T", [(1, 1.0), (13, 0.8), (60, 2.0)])
def test_quadratic_terminal_root_value(n, T):
    # E (B^n_T)^2 = n*h = T for f == 0
    problem = zero_driver_problem(T, n, lambda x: x * x)
    sol = solve_explicit(problem)
    assert sol.y[0][0] == pytest.approx(T, abs=1e-12)


def test_square_case_converges_to_closed_form():
    # exact Y_0 = e^T (T^2 + T) = 2e at T = 1; discretisation error shrinks with n
    target = 2.0 * math.e
    errs = {}
    for n in (200, 400):
        problem = BsdeProblem(T=1.0, n=n, g=lambda x: x * x, f=linear_driver)
        errs[n] = abs(solve_explicit(problem).y[0][0] - target)
    assert errs[400] < errs[200]
    assert errs[400] < 0.03  # measured 2.71e-2 at n=400


def test_terminal_level_is_exact():
    problem = BsdeProblem(T=1.5, n=24, g=lambda x: np.sin(x) + x**3, f=linear_driver)
    sol = solve_explicit(problem, levels=range(25))
    x = problem.level_coordinates(24)
    assert np.array_equal(sol.y[24], np.sin(x) + x**3)


def test_z_levels_match_difference_quotient():
    problem = BsdeProblem(T=1.0, n=16, g=lambda x: np.exp(x), f=linear_driver)
    sol = solve_explicit(problem, levels=range(17))
    sh = problem.sqrt_h
    for k in range(16):
        expected = (sol.y[k + 1][1:] - sol.y[k + 1][:-1]) / (2 * sh)
        assert np.array_equal(sol.z[k], expected)


def test_martingale_average_for_zero_driver():
    rng = np.random.default_rng(7)
    for n in (5, 9, 12):
        coeff = rng.normal(size=4)
        g = lambda x, c=coeff: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
        problem = zero_driver_problem(1.2, n, g)
        sol = solve_explicit(problem, levels=range(n + 1))
        # every interior node is the plain two-point average
        for k in range(n):
            assert np.array_equal(sol.y[k], 0.5 * (sol.y[k + 1][1:] + sol.y[k + 1][:-1]))
        ends = problem.sqrt_h * sign_matrix(n).sum(axis=1, dtype=np.int64)
        assert sol.y[0][0] == pytest.approx(float(np.mean(g(ends))), abs=1e-12)


def test_zero_driver_solution_is_linear_in_g():
    rng = np.random.default_rng(11)
    n = 10
    xs = zero_driver_problem(1.0, n).level_coordinates(n)
    v1, v2 = rng.normal(size=xs.size), rng.normal(size=xs.size)
    a, b = -1.7, 0.4

    def tabulated(vals):
        return lambda x: np.interp(x, xs, vals)

    every = range(n + 1)
    s1 = solve_explicit(zero_driver_problem(1.0, n, tabulated(v1)), every)
    s2 = solve_explicit(zero_driver_problem(1.0, n, tabulated(v2)), every)
    s12 = solve_explicit(zero_driver_problem(1.0, n, tabulated(a * v1 + b * v2)), every)
    for k in range(n + 1):
        assert np.allclose(s12.y[k], a * s1.y[k] + b * s2.y[k], rtol=0, atol=1e-12)
    for k in range(n):
        assert np.allclose(s12.z[k], a * s1.z[k] + b * s2.z[k], rtol=0, atol=1e-12)


def test_changing_g_outside_cone_changes_nothing():
    n, T = 12, 1.0
    problem = BsdeProblem(T=T, n=n, g=np.cos, f=linear_driver)
    cone_edge = n * problem.sqrt_h

    def g_bumped(x):
        return np.cos(x) + 100.0 * (np.abs(x) > cone_edge + 1e-9)

    base = solve_explicit(problem, levels=range(n + 1))
    bumped = solve_explicit(BsdeProblem(T=T, n=n, g=g_bumped, f=linear_driver),
                            levels=range(n + 1))
    for k in range(n + 1):
        assert np.array_equal(base.y[k], bumped.y[k])


def _hex(pair):
    return [v.hex() for v in pair]


@pytest.mark.parametrize("case_name", ["square", "sqrt"])
@pytest.mark.parametrize("n", [2000, 4000])
def test_window_roots_equal_the_whole_lattice(case_name, n):
    # lip_f=None sweeps every node; the window holds 32% (n = 2000) and 23%
    # (n = 4000) of them, and the Picard stop rule's sup-norm no longer sees
    # the far tail, which moves the implicit root by 3.6e-14 at most
    problem = make_case(case_name, 1.0).problem(n)
    whole = dataclasses.replace(problem, lip_f=None)
    windowed = solve_explicit(problem, levels=(0, n))
    assert windowed.y[n].size < n + 1
    assert _hex(windowed.root()) == _hex(solve_explicit(whole).root())
    assert solve_implicit(problem).root() == pytest.approx(solve_implicit(whole).root(),
                                                           rel=0, abs=1e-13)


@pytest.mark.parametrize("T,n", [(1.0, 300), (8.0, 2)])
def test_a_drift_past_the_level_sweeps_the_whole_lattice(T, n):
    # lip_f * sqrt_h * k overflows at lip_f = 1e308 (at T/n = 4 the drift
    # lip_f * sqrt_h is itself inf, and inf * 0 at the root is NaN): every
    # level is whole, bit for bit the lattice that lip_f=None sweeps
    problem = make_case("square", T).problem(n)
    huge = solve_explicit(dataclasses.replace(problem, lip_f=1e308), levels=(0, n // 2, n))
    whole = solve_explicit(dataclasses.replace(problem, lip_f=None), levels=(0, n // 2, n))
    assert huge.first == whole.first
    for k in (0, n // 2, n):
        assert _hex(huge.y[k]) == _hex(whole.y[k])


def test_changing_g_outside_the_window_changes_nothing():
    n = 2000
    problem = make_case("square", 1.0).problem(n)
    base = solve_explicit(problem, levels=(0, n))
    window = n - 2 * base.first[n]
    assert window < n

    def g_bumped(x):
        return x * x + 100.0 * (np.abs(x) > (window + 1) * problem.sqrt_h)

    bumped = solve_explicit(dataclasses.replace(problem, g=g_bumped), levels=(0, n))
    assert bumped.first[n] == base.first[n]
    assert _hex(bumped.root()) == _hex(base.root())


@pytest.mark.parametrize("T", [20.0, 100.0])
def test_guard_keeps_the_whole_lattice_for_a_heavy_tail(T):
    # g = e^{T+x} carries weight beyond W_n: 1.9e-7 of the largest inside at
    # T = 20, about 1 at T = 100, where the guard allows 2**-60
    n = 2000
    problem = make_case("exp", T).problem(n)
    sol = solve_explicit(problem, levels=(0, n))
    assert sol.y[n].size == n + 1
    assert _hex(sol.root()) == _hex(solve_explicit(dataclasses.replace(problem, lip_f=None)).root())
    assert _hex(solve_implicit(problem).root()) == _hex(
        solve_implicit(dataclasses.replace(problem, lip_f=None)).root())


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_guard_keeps_the_whole_lattice_for_a_non_finite_g(bad):
    # one bad node at the top of level n, far outside W_n: the whole lattice
    # is swept, so the root reads it and the sweep counts 1 of 2001
    n = 2000
    problem = make_case("square", 1.0).problem(n)
    top = n * problem.sqrt_h

    def g(x):
        return np.where(x == top, bad, x * x)

    with pytest.raises(FloatingPointError, match=r"n=2000: level 2000 .*\(1 of 2001\)"):
        solve_explicit(dataclasses.replace(problem, g=g))


def test_implicit_equals_explicit_for_zero_driver():
    problem = zero_driver_problem(1.0, 20, lambda x: x**2 - x)
    exp_sol = solve_explicit(problem, levels=range(21))
    imp_sol = solve_implicit(problem, levels=range(21))
    for k in range(21):
        assert np.array_equal(exp_sol.y[k], imp_sol.y[k])


def test_implicit_single_step_fixed_point():
    # y = 0 + 0.5*y has the unique solution y = 0
    problem = BsdeProblem(T=0.5, n=1, g=lambda x: x, f=lambda t, x, y, z: y, lip_f=1.0)
    sol = solve_implicit(problem)
    assert sol.y[0][0] == 0.0
    assert sol.z[0][0] == 1.0


def test_implicit_explicit_gap_halves_when_n_doubles():
    gaps = {}
    for n in (50, 100):
        problem = BsdeProblem(T=1.0, n=n, g=lambda x: x * x, f=linear_driver, lip_f=1.0)
        gaps[n] = abs(solve_implicit(problem).y[0][0] - solve_explicit(problem).y[0][0])
    assert 0.35 <= gaps[100] / gaps[50] <= 0.65


def test_implicit_rejects_broken_contraction():
    problem = BsdeProblem(T=2.0, n=1, g=lambda x: x, f=lambda t, x, y, z: y, lip_f=1.0)
    with pytest.raises(ValueError, match="contraction"):
        solve_implicit(problem)


def test_implicit_reports_divergence():
    problem = BsdeProblem(T=1.0, n=10, g=lambda x: x, f=lambda t, x, y, z: 100.0 * y)
    with pytest.raises(PicardConvergenceError):
        solve_implicit(problem)


def test_implicit_picard_iterations_are_pinned():
    # 512 f calls over the 64 levels under the sup-norm stop rule
    # max |ynew - yk| < PICARD_TOL; a rule that measured the update
    # differently would change the count
    case = make_case("square", 1.0)
    problem = case.problem(64)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return case.f(*args)

    solve_implicit(dataclasses.replace(problem, f=counted))
    assert calls == 512


def test_implicit_nan_update_never_converges():
    # one NaN node at level 2 (x = 0); a reduction that skipped NaN would
    # stop at once and hand the NaN on to the root
    problem = BsdeProblem(T=1.0, n=4, g=lambda x: x * x,
                          f=lambda t, x, y, z: y + np.where(x == 0.0, np.nan, 0.0))
    with pytest.raises(PicardConvergenceError, match=r"level 2: last update nan"):
        solve_implicit(problem)


def test_non_finite_root_is_refused():
    # exact Y(0,0) = e^{3.5 T} ~ 1.007e152 is finite, but g = e^{T+x}
    # overflows at the far ends of the terminal level and the NaNs spread
    # inward to the root
    case = make_case("exp", 100.0)
    assert case.exact.y_fn(0.0, 0.0) == pytest.approx(1.007e152, rel=1e-3)
    problem = case.problem(3800)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"n=3800: level 3800 .*\(21 of 3801\)"):
            solve_explicit(problem)


def test_implicit_overflow_is_reported_as_the_explicit_one():
    # from level 3799 down every base already holds a non-finite node: the
    # Picard rule hands its update on at once, and _sweep names level 3800
    problem = make_case("exp", 100.0).problem(3800)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as explicit:
            solve_explicit(problem)
        with pytest.raises(FloatingPointError) as implicit:
            solve_implicit(problem)
    assert str(implicit.value) == str(explicit.value)


def test_failing_sweep_memory_is_linear_in_n():
    # the failure path builds the levels again one at a time to name the
    # bad one; keeping all 3801 levels would peak near 117 MB
    case = make_case("exp", 100.0)
    problem = case.problem(3800)

    def failing_solve():
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="level 3800"):
                solve_explicit(problem)

    assert traced_peak(failing_solve) <= 2 << 20


def test_interior_failure_names_its_level():
    # g is finite everywhere; f = y*y overflows the whole of level n-1
    problem = BsdeProblem(T=1.0, n=50, g=lambda x: 1e200 + 0.0 * x, f=lambda t, x, y, z: y * y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^non-finite root at n=50: level 49 is "
                           r"the highest with non-finite nodes \(50 of 50\)$"):
            solve_explicit(problem)


def test_problem_owns_the_step_grid():
    problem = zero_driver_problem(0.7, 9)
    assert problem.h == 0.7 / 9
    assert problem.sqrt_h == math.sqrt(0.7 / 9)
    assert np.array_equal(problem.level_coordinates(3), np.array([-3, -1, 1, 3]) * problem.sqrt_h)
    assert solve_explicit(problem).problem is problem
    for n in (1, 2, 7, 8, 64):
        problem = zero_driver_problem(0.7, n)
        for k in range(n + 1):
            x = problem.level_coordinates(k)
            expected = (2 * np.arange(k + 1) - k) * problem.sqrt_h
            assert np.array_equal(x.view(np.int64), expected.view(np.int64))
            assert x.flags.c_contiguous and not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
            assert np.shares_memory(x, problem.level_coordinates(k))
    # a g that returns its input keeps level n read-only, never a writable alias
    sol = solve_explicit(zero_driver_problem(0.7, 9, lambda x: x), levels=(9,))
    assert not sol.y[9].flags.writeable


def test_terminal_level_shape_is_checked():
    problem = zero_driver_problem(1.0, 4, lambda x: x[:-1])
    with pytest.raises(ValueError, match="level array"):
        solve_explicit(problem)


def test_scalar_terminal_value_is_broadcast():
    # a constant g may return a scalar; the terminal level repeats it
    sol = solve_explicit(zero_driver_problem(1.0, 5, lambda x: 2.0))
    assert sol.root() == (2.0, 0.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        zero_driver_problem(0.0, 4)
    with pytest.raises(ValueError):
        zero_driver_problem(math.inf, 4)
    with pytest.raises(ValueError):
        zero_driver_problem(1.0, 0)
    with pytest.raises(TypeError):
        zero_driver_problem(1.0, 2.5)
    assert zero_driver_problem(1.0, np.int64(4)).h == 0.25
    with pytest.raises(ValueError):
        zero_driver_problem(1.0, 4, alpha=0.0)
    with pytest.raises(ValueError):
        zero_driver_problem(1.0, 4, alpha=1.2)
    for lip_f in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lip_f"):
            zero_driver_problem(1.0, 4, lip_f=lip_f)


@pytest.mark.parametrize("case_name", ["square", "exp"])
@pytest.mark.parametrize("solve", [solve_explicit, solve_implicit])
@pytest.mark.parametrize("n", [64, 1000])
def test_kept_levels_are_bit_identical_to_the_full_sweep(case_name, solve, n):
    case = make_case(case_name, 1.0)
    problem = case.problem(n)
    full = solve(problem, levels=range(n + 1))
    assert [v.hex() for v in solve(problem).root()] == [v.hex() for v in full.root()]
    k = n // 2
    sol = solve(problem, levels=(k,))
    assert np.array_equal(sol.y[k], full.y[k]) and np.array_equal(sol.z[k], full.z[k])
    dropped = sol.y[0]
    assert dropped.size == 0 and not dropped.flags.writeable
    assert all(level is dropped for j, level in enumerate(sol.y + sol.z) if j not in (k, n + 1 + k))
    with pytest.raises(IndexError, match="outside"):
        solve(problem, levels=(n + 1,))


def test_default_sweep_memory_is_linear_in_n():
    case = make_case("square", 1.0)
    problem = case.problem(2000)
    # every level kept would be ~32 MB; two live levels are ~32 kB
    assert traced_peak(lambda: solve_explicit(problem)) <= 1 << 20


def test_evaluate_along_path():
    n = 9
    problem = BsdeProblem(T=1.0, n=n, g=np.exp, f=linear_driver)
    sol = solve_explicit(problem, levels=range(n + 1))
    rng = np.random.default_rng(3)
    walks = walk_sums(rng.integers(0, 2, (20, n)) * 2 - 1)
    y0, z0 = evaluate_walks(sol, walks[:, 0], 0)
    assert np.all(y0 == sol.y[0][0]) and np.all(z0 == sol.z[0][0])
    y_up, z_up = evaluate_walks(sol, walk_sums(np.ones((1, n), dtype=np.int8))[:, n - 1], n - 1)
    assert (y_up[0], z_up[0]) == (sol.y[n - 1][n - 1], sol.z[n - 1][n - 1])
    signs = rng.integers(0, 2, (20, n)) * 2 - 1
    walks = walk_sums(signs)
    for k in range(n):
        i = np.sum(signs[:, :k] == 1, axis=1)
        y, z = evaluate_walks(sol, walks[:, k], k)
        assert np.array_equal(y, sol.y[k][i]) and np.array_equal(z, sol.z[k][i])
    with pytest.raises(IndexError):
        evaluate_walks(sol, walks[:, n], n)
    # whole walks are not the (R,) level-k sums it reads
    with pytest.raises(ValueError, match="level-k walk sums"):
        evaluate_walks(sol, walks, 0)


def test_evaluate_refuses_a_dropped_level():
    n = 9
    sol = solve_explicit(BsdeProblem(T=1.0, n=n, g=np.exp, f=linear_driver), levels=(4,))
    walks = walk_sums(np.ones((3, n), dtype=np.int8))
    assert np.array_equal(evaluate_walks(sol, walks[:, 4], 4)[0], np.full(3, sol.y[4][4]))
    with pytest.raises(ValueError, match="level 3 was not kept"):
        evaluate_walks(sol, walks[:, 3], 3)


def test_evaluate_refuses_a_sum_that_names_no_node():
    # n = 4, every level kept: S_3 = -5 would wrap to the top node of level 3
    # and S_2 = 1, of the wrong parity, would read the middle node of level 2
    n = 4
    sol = solve_explicit(BsdeProblem(T=1.0, n=n, g=np.exp, f=linear_driver),
                         levels=range(n + 1))
    with pytest.raises(ValueError, match="level-3 walk sums"):
        evaluate_walks(sol, np.array([3, -5], np.int32), 3)
    with pytest.raises(ValueError, match="level-2 walk sums"):
        evaluate_walks(sol, np.array([1, 2], np.int32), 2)
    # float sums of the right range and parity still name no node
    with pytest.raises(TypeError, match="whole numbers"):
        evaluate_walks(sol, np.array([2.0, 0.0]), 2)


def test_evaluate_refuses_a_sum_outside_the_window():
    n, k = 2000, 1000
    sol = solve_explicit(make_case("square", 1.0).problem(n), levels=(k,))
    window = k - 2 * sol.first[k]
    assert window < k and sol.y[k].size == window + 1
    y, z = evaluate_walks(sol, np.array([-window, 0, window], np.int32), k)
    assert np.array_equal(y, sol.y[k][[0, window // 2, window]])
    assert np.array_equal(z, sol.z[k][[0, window // 2, window]])
    for outside in (-window - 2, window + 2):
        with pytest.raises(ValueError, match=f"level {k} was swept only over its nodes"):
            evaluate_walks(sol, np.array([0, outside], np.int32), k)


def test_representation_single_step_identity():
    problem = zero_driver_problem(1.0, 1, lambda x: x)
    sol = solve_explicit(problem)
    assert z_by_representation(sol, 0, 0) == pytest.approx(1.0, abs=1e-14)


def test_representation_odd_weight_kills_even_terminal():
    for n in (2, 5, 8):
        problem = zero_driver_problem(1.0, n, lambda x: x * x)
        sol = solve_explicit(problem, levels=range(n + 1))
        assert z_by_representation(sol, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_representation_matches_explicit_sweep():
    n = 8
    problem = BsdeProblem(T=1.0, n=n, g=lambda x: x * x, f=linear_driver)
    sol = solve_explicit(problem, levels=range(n + 1))
    k = 3
    for i in range(k + 1):
        rep = z_by_representation(sol, k, i)
        assert rep == pytest.approx(sol.z[k][i], abs=1e-10)


def test_representation_matches_implicit_sweep():
    n = 8
    problem = BsdeProblem(T=1.0, n=n, g=np.abs, f=linear_driver, lip_f=1.0)
    sol = solve_implicit(problem, levels=range(n + 1))
    for k in (0, 4):
        for i in range(k + 1):
            rep = z_by_representation(sol, k, i)
            assert rep == pytest.approx(sol.z[k][i], abs=1e-9)


def test_representation_refuses_a_dropped_level():
    n = 6
    problem = BsdeProblem(T=1.0, n=n, g=lambda x: x * x, f=linear_driver)
    sol = solve_explicit(problem, levels=(0, 2, 3, 4, 6))
    with pytest.raises(ValueError, match="level 5 was not kept"):
        z_by_representation(sol, 1, 0)


def test_representation_refuses_a_node_outside_the_window():
    # at n = 300 level 285 is swept over its nodes 48..237 only
    n, k = 300, 285
    sol = solve_explicit(make_case("square", 1.0).problem(n), levels=range(k, n + 1))
    assert sol.first[k] == 48
    middle = k // 2
    assert z_by_representation(sol, k, middle) == pytest.approx(
        sol.z[k][middle - sol.first[k]], abs=1e-10)
    with pytest.raises(ValueError, match="level 286 was swept only over its nodes"):
        z_by_representation(sol, k, 0)


def test_representation_refuses_a_node_off_the_lattice():
    n = 6
    sol = solve_explicit(zero_driver_problem(1.0, n), levels=range(n + 1))
    with pytest.raises(IndexError, match="level k=6"):
        z_by_representation(sol, n, 0)
    with pytest.raises(IndexError, match="node i=3"):
        z_by_representation(sol, 2, 3)


def test_representation_cap():
    problem = zero_driver_problem(1.0, 25)
    sol = solve_explicit(problem)
    with pytest.raises(ValueError, match="cap"):
        z_by_representation(sol, 0, 0)
