import math

import numpy as np
import pytest

from rwbsde.benchmarks import CASE_NAMES, make_case, sqrt_abs_moment, verify_terminal
from rwbsde.checks import sqrt_abs_moment_by_quadrature

T = 1.0
B_GRID = np.linspace(-3 * math.sqrt(T), 3 * math.sqrt(T), 33)


def _fd_slope(fn, t, b, eps=1e-5):
    return (fn(t, b + eps) - fn(t, b - eps)) / (2 * eps)


def test_terminal_consistency_closed_form_cases():
    assert verify_terminal(make_case("exp", T), B_GRID) <= 1e-10
    assert verify_terminal(make_case("square", T), B_GRID) <= 1e-10


def test_terminal_consistency_sqrt_case():
    assert verify_terminal(make_case("sqrt", T), B_GRID) <= 1e-10


def test_exp_case_values():
    sol = make_case("exp", T).exact
    assert sol.y_fn(0.0, 0.0) == pytest.approx(math.exp(3.5), rel=1e-14)
    b = np.linspace(-2, 2, 11)
    assert np.array_equal(sol.z_fn(0.3, b), sol.y_fn(0.3, b))


def test_square_case_values():
    sol = make_case("square", T).exact
    assert sol.y_fn(0.0, 0.0) == pytest.approx(math.e * (T * T + T), rel=1e-14)
    assert sol.y_fn(T, 1.7) == pytest.approx(1.7**2, abs=1e-14)


@pytest.mark.parametrize("name", ["exp", "square"])
def test_z_is_space_derivative_of_y(name):
    sol = make_case(name, T).exact
    for t in (0.0, 0.4, 0.9):
        for b in (-1.3, 0.0, 0.8):
            z = sol.z_fn(t, b)
            fd = _fd_slope(sol.y_fn, t, b)
            assert abs(z - fd) <= 1e-8 * max(1.0, abs(z))


def test_square_case_pde_residual():
    sol = make_case("square", T).exact
    eps = 1e-4
    rng = np.random.default_rng(9)
    for _ in range(20):
        t = rng.uniform(0.05, 0.9)
        b = rng.uniform(-2.0, 2.0)
        y = sol.y_fn
        u_t = (y(t + eps, b) - y(t - eps, b)) / (2 * eps)
        u_xx = (y(t, b + eps) - 2 * y(t, b) + y(t, b - eps)) / eps**2
        u_x = (y(t, b + eps) - y(t, b - eps)) / (2 * eps)
        resid = u_t + 0.5 * u_xx + (y(t, b) + u_x)
        assert abs(resid) <= 1e-4


def test_sqrt_case_terminal_is_analytic():
    sol = make_case("sqrt", T).exact
    b = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(sol.y_fn(T, b), np.sqrt(np.abs(b)))


def test_sqrt_closed_form_against_quadrature():
    m = np.linspace(0.0, 15.0, 61)
    oracle = sqrt_abs_moment_by_quadrature(m)
    assert np.max(np.abs(sqrt_abs_moment(m) / oracle - 1.0)) <= 1e-12


def test_sqrt_case_against_monte_carlo():
    sol = make_case("sqrt", T).exact
    rng = np.random.default_rng(100)
    draws = rng.standard_normal(10_000_000)
    tau = T  # t = 0, b = 0
    sample = np.sqrt(np.abs(math.sqrt(tau) * draws + tau)) * math.exp(tau)
    se = sample.std(ddof=1) / math.sqrt(draws.size)
    assert abs(sol.y_fn(0.0, 0.0) - sample.mean()) <= 4 * se


def test_sqrt_case_even_limit_at_terminal():
    sol = make_case("sqrt", T).exact
    b = np.array([0.25, 1.0, 2.4])
    assert np.array_equal(sol.y_fn(T, b), sol.y_fn(T, -b))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_exact_surfaces_refuse_times_outside_the_horizon(name):
    # the square case's Y at t = 1.5 > T would be negative for g = x^2 >= 0
    exact = make_case(name, T).exact
    surfaces = [fn for fn in (exact.y_fn, exact.z_fn) if fn is not None]
    for fn in surfaces:
        assert np.all(np.isfinite(fn(0.0, B_GRID))) and np.all(np.isfinite(fn(T, B_GRID)))
        for bad in (-0.1, T + 0.5, math.nan):
            with pytest.raises(ValueError, match="0 <= t <= T"):
                fn(bad, 0.0)


def test_case_factories_reject_bad_horizon():
    for name in CASE_NAMES:
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="0 < T < inf"):
                make_case(name, bad)


@pytest.mark.parametrize("horizon", [0.5, 2.0])
def test_case_builds_its_lattice_problem(horizon):
    n = 8
    for name in CASE_NAMES:
        case = make_case(name, horizon)
        problem = case.problem(n)
        assert problem.T == case.T == horizon
        assert problem.n == n and problem.h == horizon / n
        assert problem.g is case.g and problem.f is case.f
        assert (problem.alpha, problem.lip_f) == (case.alpha, case.lip_f)


def test_make_case_registry():
    for name in CASE_NAMES:
        case = make_case(name, T)
        assert (case.name, case.T) == (name, T)
        x = np.array([-1.0, 0.5])
        assert case.f(0.1, x, x, x) == pytest.approx(2 * x)
    assert make_case("square", T).alpha == 1.0
    assert make_case("sqrt", T).alpha == 0.5
    with pytest.raises(ValueError):
        make_case("cubic", T)
    with pytest.raises(ValueError):
        make_case("square", math.inf)
