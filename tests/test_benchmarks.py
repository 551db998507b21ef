import math

import numpy as np
import pytest

from rwbsde.benchmarks import (
    exact_case_exp,
    exact_case_sqrt,
    exact_case_square,
    make_case,
    sqrt_abs_moment,
    verify_terminal,
)
from rwbsde.checks import sqrt_abs_moment_by_quadrature

T = 1.0
B_GRID = np.linspace(-3 * math.sqrt(T), 3 * math.sqrt(T), 33)


def _fd_slope(fn, t, b, eps=1e-5):
    return (fn(t, b + eps) - fn(t, b - eps)) / (2 * eps)


def test_terminal_consistency_closed_form_cases():
    assert verify_terminal(exact_case_exp(T), lambda x: np.exp(T + x), B_GRID) <= 1e-10
    assert verify_terminal(exact_case_square(T), lambda x: x * x, B_GRID) <= 1e-10


def test_terminal_consistency_quadrature_case():
    sol = exact_case_sqrt(T)
    assert verify_terminal(sol, lambda x: np.sqrt(np.abs(x)), B_GRID) <= 1e-7


def test_exp_case_values():
    sol = exact_case_exp(T)
    assert sol.y_fn(0.0, 0.0) == pytest.approx(math.exp(3.5), rel=1e-14)
    assert not sol.in_hypothesis
    b = np.linspace(-2, 2, 11)
    assert np.array_equal(sol.z_fn(0.3, b), sol.y_fn(0.3, b))


def test_square_case_values():
    sol = exact_case_square(T)
    assert sol.y_fn(0.0, 0.0) == pytest.approx(math.e * (T * T + T), rel=1e-14)
    assert sol.y_fn(T, 1.7) == pytest.approx(1.7**2, abs=1e-14)


@pytest.mark.parametrize("case_fn", [exact_case_exp, exact_case_square])
def test_z_is_space_derivative_of_y(case_fn):
    sol = case_fn(T)
    for t in (0.0, 0.4, 0.9):
        for b in (-1.3, 0.0, 0.8):
            z = sol.z_fn(t, b)
            fd = _fd_slope(sol.y_fn, t, b)
            assert abs(z - fd) <= 1e-8 * max(1.0, abs(z))


def test_square_case_pde_residual():
    sol = exact_case_square(T)
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
    sol = exact_case_sqrt(T)
    b = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(sol.y_fn(T, b), np.sqrt(np.abs(b)))


def test_sqrt_closed_form_against_quadrature():
    m = np.linspace(0.0, 15.0, 61)
    oracle = sqrt_abs_moment_by_quadrature(m)
    assert np.max(np.abs(sqrt_abs_moment(m) / oracle - 1.0)) <= 1e-12


def test_sqrt_case_against_monte_carlo():
    sol = exact_case_sqrt(T)
    rng = np.random.default_rng(100)
    draws = rng.standard_normal(10_000_000)
    tau = T  # t = 0, b = 0
    sample = np.sqrt(np.abs(math.sqrt(tau) * draws + tau)) * math.exp(tau)
    se = sample.std(ddof=1) / math.sqrt(draws.size)
    assert abs(sol.y_fn(0.0, 0.0) - sample.mean()) <= 4 * se


def test_sqrt_case_even_limit_at_terminal():
    sol = exact_case_sqrt(T)
    b = np.array([0.25, 1.0, 2.4])
    assert np.array_equal(sol.y_fn(T, b), sol.y_fn(T, -b))


def test_sqrt_case_rejects_late_time():
    sol = exact_case_sqrt(T)
    with pytest.raises(ValueError):
        sol.y_fn(T + 0.1, 0.0)


def test_case_factories_reject_bad_horizon():
    for factory in (exact_case_exp, exact_case_square, exact_case_sqrt):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                factory(bad)


def test_make_case_registry():
    for name in ("exp", "square", "sqrt"):
        case = make_case(name, T)
        assert case.name == name
        x = np.array([-1.0, 0.5])
        assert case.f(0.1, x, x, x) == pytest.approx(2 * x)
    assert make_case("square", T).alpha == 1.0
    assert make_case("sqrt", T).alpha == 0.5
    with pytest.raises(ValueError):
        make_case("cubic", T)
    with pytest.raises(ValueError):
        make_case("square", math.inf)
