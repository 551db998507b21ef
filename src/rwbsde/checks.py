"""Oracle and property checks shared by `rwbsde verify` and the acceptance gate.

Each check runs one acceptance criterion (1-5) at its stated tolerance and
returns a Check; nothing here asserts or prints, so the CLI reports the
results as lines and the test suite asserts on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import CASE_NAMES, make_case, sqrt_abs_moment, verify_terminal
from .exit_time import cdf_laplace_inversion, cdf_series, tabulate, tabulated_moment
from .experiment import couple_block
from .solver import BsdeProblem, sign_matrix, solve_explicit, z_by_representation

T = 1.0
SEED = 20250809


@dataclass(frozen=True)
class Check:
    """Outcome of one criterion: whether it passed, and the measured values."""

    criterion: int
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}  ({self.detail})"


def enumeration_oracle() -> Check:
    """f == 0: the root equals the average of g over all 2**n walk endpoints."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(1, 13):
        c = rng.normal(size=4)
        g = lambda x, c=c: c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3
        problem = BsdeProblem(T=T, n=n, g=g, f=lambda t, x, y, z: 0.0 * y)
        root = solve_explicit(problem).y[0][0]
        ends = problem.sqrt_h * sign_matrix(n).sum(axis=1, dtype=np.int64)
        worst = max(worst, abs(root - float(np.mean(g(ends.astype(float))))))
    return Check(1, "enumeration oracle (f=0, n=1..12)", worst <= 1e-12,
                 f"max gap {worst:.2e}")


def z_representation() -> Check:
    """The swept Z equals its Malliavin-weight representation node by node."""
    drivers = (
        lambda t, x, y, z: y + z,
        lambda t, x, y, z: np.sin(x) + y - z,
    )
    worst = 0.0
    for n in (4, 8, 10):
        for f in drivers:
            problem = BsdeProblem(T=T, n=n, g=lambda x: x * x, f=f)
            sol = solve_explicit(problem, levels=range(n + 1))
            for k in (0, n // 2):
                for i in range(k + 1):
                    worst = max(worst, abs(z_by_representation(sol, k, i) - sol.z[k][i]))
    return Check(2, "Z Malliavin-weight representation", worst <= 1e-10,
                 f"max node dev {worst:.2e}")


def exit_time_distribution() -> Check:
    """Talbot inversion agrees with the series CDF; the table mean is h."""
    sup = mean_gap = 0.0
    ok = True
    for h in (0.25, 0.4):
        grid = np.geomspace(h / 100, 20 * h, 200)
        gap = float(np.max(np.abs(cdf_laplace_inversion(grid, h) - cdf_series(grid, h))))
        rel = abs(tabulated_moment(tabulate(h), 1.0) - h) / h
        ok &= gap <= 1e-6 and rel <= 1e-6
        sup, mean_gap = max(sup, gap), max(mean_gap, rel)
    return Check(3, "exit-time distribution (inversion + mean)", ok,
                 f"sup {sup:.2e}, relative mean gap {mean_gap:.2e}")


def skorohod_coupling() -> Check:
    """Coupled skeletons step exactly one lattice node per exit time, the
    ladders rise strictly from tau_0 = 0, and E(B_tau_m - B_tau_k)^2 =
    t_m - t_k; both samples come from run_mc's coupling draw, couple_block."""
    rng = np.random.default_rng(SEED)
    problem = BsdeProblem(T=T, n=64, g=np.abs, f=lambda t, x, y, z: 0.0 * y)
    walks, taus, _ = couple_block(rng, 1000, problem, 0.5 * T)
    exact = bool(np.all(np.abs(np.diff(walks, axis=1)) == 1))
    increasing = bool(np.all(taus[:, 0] == 0.0) and np.all(np.diff(taus, axis=1) > 0.0))

    paths, k, m = 10_000, 16, 48
    walks, _, _ = couple_block(rng, paths, problem, 0.5 * T)
    seg = (walks[:, m] - walks[:, k]).astype(float) * problem.sqrt_h
    sq = seg * seg
    gap = abs(float(sq.mean()) - (m - k) * problem.h)
    bound = 3.0 * float(sq.std(ddof=1)) / math.sqrt(paths)
    return Check(4, "Skorohod coupling (exact steps, increasing ladders, variance)",
                 exact and increasing and gap <= bound,
                 f"gap {gap:.2e} vs 3SE {bound:.2e}")


def sqrt_abs_moment_by_quadrature(m: np.ndarray) -> np.ndarray:
    """E sqrt|Z|, Z ~ N(m, 1), by adaptive quadrature split at the kink z = 0:
    an oracle for the closed form benchmarks.sqrt_abs_moment."""
    from scipy.integrate import quad  # here, so that importing rwbsde leaves scipy.integrate out
    def moment(mi):
        dens = lambda z: math.sqrt(abs(z)) * math.exp(-0.5 * (z - mi) ** 2)
        halves = (quad(dens, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                  for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))
        return sum(halves) / math.sqrt(2.0 * math.pi)

    return np.array([moment(mi) for mi in np.asarray(m, dtype=float)])


def benchmark_sanity() -> Check:
    """Per case: terminal consistency, Z = dY/db (closed Z only) and the PDE
    residual u_t + u_xx/2 + f(u, u_x); then the sqrt closed form by quadrature."""
    b_grid = np.linspace(-3 * math.sqrt(T), 3 * math.sqrt(T), 33)
    ok = True
    worst_terminal = worst_residual = 0.0
    for name in CASE_NAMES:
        case = make_case(name, T)
        y_fn, z_fn = case.exact.y_fn, case.exact.z_fn
        worst_terminal = max(worst_terminal, verify_terminal(case, b_grid))

        eps = 1e-5
        for t in (0.0, 0.5, 0.9) if z_fn is not None else ():
            for b in (-1.1, 0.2, 1.7):
                fd = (y_fn(t, b + eps) - y_fn(t, b - eps)) / (2 * eps)
                z = z_fn(t, b)
                ok &= abs(z - fd) <= 1e-8 * max(1.0, abs(z))

        eps = 1e-4
        for t, b in [(0.3, 0.7), (0.5, -1.1), (0.8, 0.2), (0.2, 1.9)]:
            u = y_fn(t, b)
            u_t = (y_fn(t + eps, b) - y_fn(t - eps, b)) / (2 * eps)
            u_xx = (y_fn(t, b + eps) - 2 * u + y_fn(t, b - eps)) / eps**2
            u_x = (y_fn(t, b + eps) - y_fn(t, b - eps)) / (2 * eps)
            worst_residual = max(worst_residual, abs(u_t + 0.5 * u_xx + case.f(t, b, u, u_x)))
    ok &= worst_terminal <= 1e-10 and worst_residual <= 1e-4

    m_grid = np.linspace(0.0, 15.0, 61)
    quad_gap = float(np.max(np.abs(sqrt_abs_moment(m_grid) - sqrt_abs_moment_by_quadrature(m_grid))))
    ok &= quad_gap <= 1e-8
    return Check(5, "benchmark sanity (terminal, Z=dY/db, PDE residual, sqrt closed form)",
                 bool(ok), f"worst terminal gap {worst_terminal:.2e}, worst PDE residual "
                 f"{worst_residual:.2e}, quadrature gap {quad_gap:.2e}")


CHECKS = (
    enumeration_oracle,
    z_representation,
    exit_time_distribution,
    skorohod_coupling,
    benchmark_sanity,
)
