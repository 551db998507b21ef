"""The acceptance gate: criteria 1-9, run by `rwbsde verify` and the tests alike.

Criteria 1-5 are exact oracles (enumeration, the Z representation, the
exit-time law, the Skorohod coupling, the exact (Y, Z) surfaces), 6 is the
O(h) scheme gap and 7-9 are the L2 slopes of each case's default run.
Each check returns a Check and neither asserts nor prints. Worst gaps are
taken with np.maximum, which keeps a NaN, so a NaN gap fails its bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .benchmarks import CASE_NAMES, make_case, sqrt_abs_moment, verify_terminal
from .exit_time import cdf_laplace_inversion, cdf_series, tabulated_moment
from .experiment import ExperimentConfig, couple_block, fit_slopes, run_mc
from .solver import BsdeProblem, sign_matrix, solve_explicit, solve_implicit, z_by_representation

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
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.criterion}: {self.name}  ({self.detail})"


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
        worst = np.maximum(worst, abs(root - float(np.mean(g(ends.astype(float))))))
    return Check(1, "enumeration oracle (f=0, n=1..12)", bool(worst <= 1e-12),
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
            for k in (0, n // 2 - 1, n // 2):
                for i in range(k + 1):
                    worst = np.maximum(worst, abs(z_by_representation(sol, k, i) - sol.z[k][i]))
    return Check(2, "Z Malliavin-weight representation", bool(worst <= 1e-10),
                 f"max node dev {worst:.2e}")


def exit_time_distribution() -> Check:
    """Talbot inversion agrees with the series CDF; the table mean is h."""
    sup = mean_gap = 0.0
    for h in (1.0, 0.4, 0.25, 0.01):
        grid = np.geomspace(h / 100, 20 * h, 200)
        gap = np.max(np.abs(cdf_laplace_inversion(grid, h) - cdf_series(grid, h)))
        rel = abs(tabulated_moment(h, 1.0) - h) / h
        sup, mean_gap = np.maximum(sup, gap), np.maximum(mean_gap, rel)
    return Check(3, "exit-time distribution (inversion + mean)",
                 bool(sup <= 1e-6 and mean_gap <= 1e-6),
                 f"sup {sup:.2e}, relative mean gap {mean_gap:.2e}")


def skorohod_coupling() -> Check:
    """Coupled skeletons step exactly one lattice node per exit time, the
    ladders rise strictly from tau_0 = 0, and E(B_tau_m - B_tau_k)^2 =
    t_m - t_k within 3 SE at (n, k, m) = (64, 16, 48) and (100, 25, 75);
    every sample comes from run_mc's coupling draw, couple_block."""
    rng = np.random.default_rng(SEED)
    problem = BsdeProblem(T=T, n=64, g=np.abs, f=lambda t, x, y, z: 0.0 * y)
    walks, taus, *_ = couple_block(rng, 1000, problem, 0.5 * T, range(problem.n + 1))
    ok = bool(np.all(np.abs(np.diff(walks, axis=1)) == 1)
              and np.all(taus[:, 0] == 0.0) and np.all(np.diff(taus, axis=1) > 0.0))

    paths, details = 10_000, []
    for n, k, m in ((64, 16, 48), (100, 25, 75)):
        problem = BsdeProblem(T=T, n=n, g=np.abs, f=lambda t, x, y, z: 0.0 * y)
        walks, *_ = couple_block(rng, paths, problem, 0.5 * T, (k, m))
        seg = (walks[:, 1] - walks[:, 0]).astype(float) * problem.sqrt_h
        sq = seg * seg
        gap = abs(float(sq.mean()) - (m - k) * problem.h)
        bound = 3.0 * float(sq.std(ddof=1)) / math.sqrt(paths)
        ok &= gap <= bound
        details.append(f"n={n}: gap {gap:.2e} vs 3SE {bound:.2e}")
    return Check(4, "Skorohod coupling (exact steps, increasing ladders, variance)",
                 ok, "; ".join(details))


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
    worst_terminal = worst_z = worst_residual = 0.0
    for name in CASE_NAMES:
        case = make_case(name, T)
        y_fn, z_fn = case.exact.y_fn, case.exact.z_fn
        worst_terminal = np.maximum(worst_terminal, verify_terminal(case, b_grid))

        eps = 1e-5
        for t in (0.0, 0.4, 0.5, 0.9) if z_fn is not None else ():
            for b in (-1.3, -1.1, 0.0, 0.2, 0.8, 1.7):
                fd = (y_fn(t, b + eps) - y_fn(t, b - eps)) / (2 * eps)
                z = z_fn(t, b)
                worst_z = np.maximum(worst_z, abs(z - fd) / max(1.0, abs(z)))

        eps = 1e-4
        for t, b in [(0.3, 0.7), (0.5, -1.1), (0.8, 0.2), (0.2, 1.9)]:
            u = y_fn(t, b)
            u_t = (y_fn(t + eps, b) - y_fn(t - eps, b)) / (2 * eps)
            u_xx = (y_fn(t, b + eps) - 2 * u + y_fn(t, b - eps)) / eps**2
            u_x = (y_fn(t, b + eps) - y_fn(t, b - eps)) / (2 * eps)
            worst_residual = np.maximum(worst_residual, abs(u_t + 0.5 * u_xx + case.f(t, b, u, u_x)))

    m_grid = np.linspace(0.0, 15.0, 61)
    oracle = sqrt_abs_moment_by_quadrature(m_grid)
    quad_gap = np.max(np.abs(sqrt_abs_moment(m_grid) / oracle - 1.0))
    ok = (worst_terminal <= 1e-10 and worst_z <= 1e-8 and worst_residual <= 1e-4
          and quad_gap <= 1e-12)
    return Check(5, "benchmark sanity (terminal, Z=dY/db, PDE residual, sqrt closed form)",
                 bool(ok), f"worst terminal gap {worst_terminal:.2e}, worst relative Z-dY/db "
                 f"gap {worst_z:.2e}, worst PDE residual {worst_residual:.2e}, relative "
                 f"quadrature gap {quad_gap:.2e}")


def scheme_gap() -> Check:
    """The square case's implicit and explicit roots differ by O(h): the gap
    shrinks by a ratio in [0.35, 0.65] each time n doubles from 50 to 200."""
    case = make_case("square", T)
    gaps = []
    for n in (50, 100, 200):
        problem = case.problem(n)
        gaps.append(abs(solve_implicit(problem).root()[0] - solve_explicit(problem).root()[0]))
    ratios = [fine / coarse for coarse, fine in zip(gaps, gaps[1:])]
    return Check(6, "implicit/explicit root gap halves (n: 50 -> 100 -> 200)",
                 all(0.35 <= r <= 0.65 for r in ratios),
                 "ratios " + ", ".join(f"{r:.4f}" for r in ratios))


def _slopes(criterion: int, case: str, reference: str, y_window: tuple,
            z_window: Optional[tuple] = None) -> Check:
    """Criteria 7-9: the fitted slopes of one case's run at SEED, every other
    input an ExperimentConfig default. A case with z_window None must have
    no Z truth, hence no Z slope."""
    fits = fit_slopes(run_mc(ExperimentConfig(case=case, seed=SEED)))
    windows = {"Y": y_window} if z_window is None else {"Y": y_window, "Z": z_window}
    ok = fits.keys() == windows.keys() and all(
        lo <= fits[label].slope <= hi for label, (lo, hi) in windows.items())
    detail = ", ".join(f"{label} {fit.slope:+.4f} +/- {fit.slope_se:.4f}"
                       for label, fit in fits.items())
    return Check(criterion, f"{case} case slopes (reference {reference})", ok, detail)


def square_rates() -> Check:
    return _slopes(7, "square", "-0.498 / -0.495", (-0.65, -0.30), (-0.70, -0.30))


def exp_rates() -> Check:
    return _slopes(8, "exp", "-0.516 / -0.527", (-0.75, -0.35), (-0.85, -0.40))


def sqrt_rate() -> Check:
    return _slopes(9, "sqrt", "-0.543; theory bound -0.25", (-0.80, -0.25))


CHECKS = (
    enumeration_oracle,
    z_representation,
    exit_time_distribution,
    skorohod_coupling,
    benchmark_sanity,
    scheme_gap,
    square_rates,
    exp_rates,
    sqrt_rate,
)
