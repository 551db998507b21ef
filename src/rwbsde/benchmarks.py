"""Closed-form and semi-analytic (Y, Z) ground truth for the three test cases.

All three share the driver f(y, z) = y + z. With the integrating factor e^t
and the drift-one change of measure, Y_t = e^{T-t} E[g(B_t + (T-t) + xi)],
xi ~ N(0, T-t), which gives:

* exp case,    g(x) = e^{T+x}:  Y_t = e^{T + B_t + 2.5(T-t)}, Z = Y (u_x = u).
* square case, g(x) = x^2:      Y_t = e^{T-t}((B_t + (T-t))^2 + (T-t)),
                                Z_t = 2 e^{T-t}(B_t + (T-t)).
* sqrt case,   g(x) = sqrt|x|:  Y_t = e^{T-t} E sqrt|N(B_t + (T-t), T-t)|
                                (no closed Z; alpha = 1/2), in closed form
                                through Kummer's function 1F1 (Winkelbauer
                                2012, absolute moments of the normal law).

The square-case signs follow from the PDE u_t + u_xx/2 + f(u, u_x) = 0 and
are confirmed by the finite-difference residual test; Y(0,0) = e^T(T^2+T)
either way since the two sign choices coincide at b = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import hyp1f1

ArrayLike = Union[float, np.ndarray]

CASE_NAMES = ("exp", "square", "sqrt")


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Exact (Y, Z) surface of one benchmark case.

    z_fn is None when the case ships no closed-form Z. in_hypothesis is
    False for terminal functions that violate the polynomial-growth Hoelder
    bound (the exp case; it is only locally Lipschitz) but are kept anyway.
    """

    y_fn: Callable[[float, ArrayLike], ArrayLike]
    z_fn: Optional[Callable[[float, ArrayLike], ArrayLike]]
    alpha: float
    T: float = 1.0
    in_hypothesis: bool = True


def exact_case_exp(T: float) -> ExactSolution:
    """g(x) = e^{T+x}, f(y, z) = y + z."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"need 0 < T < inf, got T={T}")

    def y_fn(t, b):
        return np.exp(T + b + 2.5 * (T - t))

    return ExactSolution(y_fn=y_fn, z_fn=y_fn, alpha=1.0, T=T, in_hypothesis=False)


def exact_case_square(T: float) -> ExactSolution:
    """g(x) = x^2, f(y, z) = y + z."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"need 0 < T < inf, got T={T}")

    def y_fn(t, b):
        tau = T - t
        return np.exp(tau) * ((b + tau) ** 2 + tau)

    def z_fn(t, b):
        tau = T - t
        return 2.0 * np.exp(tau) * (b + tau)

    return ExactSolution(y_fn=y_fn, z_fn=z_fn, alpha=1.0, T=T)


def sqrt_abs_moment(m: ArrayLike) -> ArrayLike:
    """E sqrt|Z| for Z ~ N(m, 1), in closed form.

    E|Z|^nu = 2^{nu/2} Gamma((1+nu)/2)/sqrt(pi) * 1F1(-nu/2; 1/2; -m^2/2).
    """
    m_arr = np.asarray(m, dtype=float)
    c = 2.0**0.25 * gamma_fn(0.75) / math.sqrt(math.pi)
    return c * hyp1f1(-0.25, 0.5, -0.5 * m_arr * m_arr)


def exact_case_sqrt(T: float) -> ExactSolution:
    """g(x) = sqrt|x|, f(y, z) = y + z, alpha = 1/2; Y only (no closed Z).

    Absorbing the e^{B~} tilt turns the expectation into
    e^{T-t} E sqrt|N(b + (T-t), T-t)| = e^{T-t} (T-t)^{1/4} sqrt_abs_moment(m),
    m = (b + T - t)/sqrt(T-t). At t = T the Gaussian degenerates and
    sqrt|b| is returned exactly.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"need 0 < T < inf, got T={T}")

    def y_fn(t, b):
        tau = T - t
        if tau < 0.0:
            raise ValueError(f"t={t} beyond the horizon T={T}")
        if tau == 0.0:
            return np.sqrt(np.abs(b))
        sig = math.sqrt(tau)
        return math.exp(tau) * math.sqrt(sig) * sqrt_abs_moment((b + tau) / sig)

    return ExactSolution(y_fn=y_fn, z_fn=None, alpha=0.5, T=T)


def verify_terminal(solution: ExactSolution, g: Callable, grid: np.ndarray) -> float:
    """sup over the grid of |y_fn(T, b) - g(b)| (terminal consistency)."""
    grid = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(solution.y_fn(solution.T, grid) - g(grid))))


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """Problem data (g, f) plus the matching exact solution."""

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    f: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    exact: ExactSolution
    lip_f: float = 1.0

    @property
    def alpha(self) -> float:
        return self.exact.alpha


def make_case(name: str, T: float) -> BenchmarkCase:
    """Assemble one of the named test cases (exp | square | sqrt)."""

    def f(t, x, y, z):
        return y + z

    if name == "exp":
        return BenchmarkCase(name, lambda x: np.exp(T + x), f, exact_case_exp(T))
    if name == "square":
        return BenchmarkCase(name, lambda x: x * x, f, exact_case_square(T))
    if name == "sqrt":
        return BenchmarkCase(name, lambda x: np.sqrt(np.abs(x)), f, exact_case_sqrt(T))
    raise ValueError(f"unknown case {name!r}; choose one of {CASE_NAMES}")
