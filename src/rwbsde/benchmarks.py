"""Closed-form (Y, Z) ground truth for the three test cases.

All three share the driver f(y, z) = y + z. With the integrating factor e^t
and the drift-one change of measure, Y_t = e^{T-t} E[g(B_t + (T-t) + xi)],
xi ~ N(0, T-t), which gives:

* exp case,    g(x) = e^{T+x}:  Y_t = e^{T + B_t + 2.5(T-t)}, Z = Y (u_x = u);
                                g is outside the paper's polynomial-growth
                                Hoelder hypothesis (only locally Lipschitz).
* square case, g(x) = x^2:      Y_t = e^{T-t}((B_t + (T-t))^2 + (T-t)),
                                Z_t = 2 e^{T-t}(B_t + (T-t)).
* sqrt case,   g(x) = sqrt|x|:  Y_t = e^{T-t} E sqrt|N(B_t + (T-t), T-t)|
                                (no closed Z; alpha = 1/2), in closed form
                                through Kummer's function 1F1 (Winkelbauer
                                2012, absolute moments of the normal law).

`make_case(name, T)` builds every case; the case carries its horizon T and
builds its lattice problem as `case.problem(n)`. The exact surfaces take a
scalar t and refuse t outside [0, T], NaN included.

The square-case signs follow from the PDE u_t + u_xx/2 + f(u, u_x) = 0 and
are confirmed by the finite-difference residual test; Y(0,0) = e^T(T^2+T)
either way since the two sign choices coincide at b = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .solver import BsdeProblem

ArrayLike = Union[float, np.ndarray]

CASE_NAMES = ("exp", "square", "sqrt")


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Exact (Y, Z) surface of one benchmark case; z_fn is None when the case
    ships no closed-form Z."""

    y_fn: Callable[[float, ArrayLike], ArrayLike]
    z_fn: Optional[Callable[[float, ArrayLike], ArrayLike]]


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """One named test case on [0, T]: problem data (g, f), the Hoelder
    exponent alpha of g, the Lipschitz constant of f and the exact solution."""

    name: str
    T: float
    g: Callable[[np.ndarray], np.ndarray]
    f: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    exact: ExactSolution
    alpha: float
    lip_f: float = 1.0

    def problem(self, n: int) -> BsdeProblem:
        """The lattice problem with n steps on this case's horizon."""
        return BsdeProblem(T=self.T, n=n, g=self.g, f=self.f, alpha=self.alpha, lip_f=self.lip_f)


def sqrt_abs_moment(m: ArrayLike) -> ArrayLike:
    """E sqrt|Z| for Z ~ N(m, 1), in closed form.

    E|Z|^nu = 2^{nu/2} Gamma((1+nu)/2)/sqrt(pi) * 1F1(-nu/2; 1/2; -m^2/2).
    """
    # here, so that importing rwbsde leaves scipy.special out
    from scipy.special import gamma, hyp1f1
    m_arr = np.asarray(m, dtype=float)
    c = 2.0**0.25 * gamma(0.75) / math.sqrt(math.pi)
    return c * hyp1f1(-0.25, 0.5, -0.5 * m_arr * m_arr)


def make_case(name: str, T: float) -> BenchmarkCase:
    """Build one of the named test cases (exp | square | sqrt) on [0, T]."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"need 0 < T < inf, got T={T}")

    def time_to_go(t):
        if not 0.0 <= t <= T:
            raise ValueError(f"need 0 <= t <= T={T}, got t={t}")
        return T - t

    def f(t, x, y, z):
        return y + z

    if name == "exp":
        def y_fn(t, b):
            return np.exp(T + b + 2.5 * time_to_go(t))

        return BenchmarkCase(name, T, lambda x: np.exp(T + x), f,
                             ExactSolution(y_fn, z_fn=y_fn), alpha=1.0)
    if name == "square":
        def y_fn(t, b):
            tau = time_to_go(t)
            return np.exp(tau) * ((b + tau) ** 2 + tau)

        def z_fn(t, b):
            tau = time_to_go(t)
            return 2.0 * np.exp(tau) * (b + tau)

        return BenchmarkCase(name, T, lambda x: x * x, f,
                             ExactSolution(y_fn, z_fn), alpha=1.0)
    if name == "sqrt":
        # Absorbing the e^{B~} tilt turns the expectation into
        # e^tau E sqrt|N(b + tau, tau)| = e^tau tau^{1/4} sqrt_abs_moment(m),
        # m = (b + tau)/sqrt(tau); at t = T the Gaussian degenerates and
        # sqrt|b| is returned exactly.
        def y_fn(t, b):
            tau = time_to_go(t)
            if tau == 0.0:
                return np.sqrt(np.abs(b))
            sig = np.sqrt(tau)
            return np.exp(tau) * np.sqrt(sig) * sqrt_abs_moment((b + tau) / sig)

        return BenchmarkCase(name, T, lambda x: np.sqrt(np.abs(x)), f,
                             ExactSolution(y_fn, z_fn=None), alpha=0.5)
    raise ValueError(f"unknown case {name!r}; choose one of {CASE_NAMES}")


def verify_terminal(case: BenchmarkCase, grid: np.ndarray) -> float:
    """sup over the grid of |Y(T, b) - g(b)| (terminal consistency)."""
    grid = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(case.exact.y_fn(case.T, grid) - case.g(grid))))
