"""The benchmark workloads and their correctness gates.

Each workload runs in passes. A pass is the sequence of public calls a user
makes for one result: one `run_mc` for the Monte Carlo workloads, one
explicit and one implicit `solve_*` per n for the deep lattice. Every such
call is one operation; it fails when its check fails. Calls go through the
module attributes (`experiment.run_mc`, `solver.solve_explicit`, ...) so
that a tracer patched onto those names sees them.
"""
from __future__ import annotations

import dataclasses
import math
from typing import ClassVar

from rwbsde import benchmarks, experiment, solver

T = 1.0
T_EVAL = 0.5
# replications of the Monte Carlo warm-up: one run_mc batch per n, so the
# warm-up allocates arrays of the same shapes as a timed pass
WARM_UP_M = 4096


@dataclasses.dataclass(frozen=True)
class Check:
    """Outcome of one operation: which call, whether it passed, and why."""

    label: str
    ok: bool
    detail: str


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _bits(values) -> tuple:
    """Exact identity of a float sequence (None kept as None)."""
    return tuple(None if v is None else float(v).hex() for v in values)


@dataclasses.dataclass(frozen=True)
class McWorkload:
    """One `run_mc` per pass; its slopes must sit inside fixed windows."""

    name: str
    case: str
    n_list: tuple
    M: int
    windows: dict            # ErrorRow field -> (low, high) slope window
    # spans a pass must reach; one with no call is reported missing
    spans: ClassVar[tuple] = (
        "experiment.run_mc", "exit_time.sample_sigma", "exit_time.tabulate",
        "coupling.bridge", "solver.solve", "benchmarks.exact", "benchmarks.make_case",
    )

    def config(self, seed: int, M: int | None = None) -> experiment.ExperimentConfig:
        return experiment.ExperimentConfig(
            case=self.case, n_list=self.n_list, M=self.M if M is None else M,
            T=T, t_eval=T_EVAL, seed=seed, scheme="explicit",
        )

    def warm_up(self, seed: int) -> None:
        experiment.run_mc(self.config(seed, M=min(self.M, WARM_UP_M)))

    def run_pass(self, seed: int) -> tuple:
        """(result bits, checks) of one pass."""
        series = experiment.run_mc(self.config(seed))
        rows = series.rows
        problems = []
        if not all(_finite(r.e_y, r.se_y) and (r.e_z is None or _finite(r.e_z, r.se_z))
                   for r in rows):
            problems.append("non-finite row")
        slopes = {}
        for field, (low, high) in self.windows.items():
            if problems:
                break
            try:
                slope = experiment.regress_loglog(series, field).slope
            except ValueError as exc:          # a zero or missing error
                problems.append(f"{field}: {exc}")
                break
            slopes[field] = slope
            if not low <= slope <= high:
                problems.append(f"{field} slope {slope:+.4f} outside [{low}, {high}]")
        detail = "; ".join(problems) or ", ".join(f"{k} {v:+.4f}" for k, v in slopes.items())
        bits = _bits(v for r in rows for v in (r.n, r.e_y, r.se_y, r.e_z, r.se_z))
        return bits, [Check(f"run_mc {self.case}", not problems, detail)]


@dataclasses.dataclass(frozen=True)
class LatticeWorkload:
    """Explicit then implicit root solves at growing n, checked against
    the exact (Y, Z)(0, 0) with bounds in units of h and h^2."""

    name: str
    case: str
    n_list: tuple
    # margins over the measured 10.87*h, 19.02*h (explicit) and
    # 1.133*h^2, 8.15*h (implicit) root errors of the square case
    explicit_bound: ClassVar[tuple] = (12.0, 21.0)   # |Y err| <= c*h, |Z err| <= c*h
    implicit_bound: ClassVar[tuple] = (1.5, 9.0)     # |Y err| <= c*h^2, |Z err| <= c*h
    gap_ratio: ClassVar[tuple] = (1.8, 2.2)          # gap(n/2) / gap(n), measured 2.00
    spans: ClassVar[tuple] = ("solver.solve", "benchmarks.exact", "benchmarks.make_case")

    def warm_up(self, seed: int) -> None:
        # a full pass: the first one page-faults the level arrays in
        self.run_pass(seed)

    def run_pass(self, seed: int) -> tuple:
        case = benchmarks.make_case(self.case, T)
        y_exact = case.exact.y_fn(0.0, 0.0)
        z_exact = case.exact.z_fn(0.0, 0.0)
        checks, roots = [], []
        prev_gap = None
        for n in self.n_list:
            h = T / n
            problem = solver.BsdeProblem(T=T, n=n, g=case.g, f=case.f,
                                         alpha=case.alpha, lip_f=case.lip_f)
            # one lattice alive at a time: the implicit solve reuses the
            # memory the explicit one held
            y_e, z_e = solver.solve_explicit(problem).root()
            y_i, z_i = solver.solve_implicit(problem).root()
            roots += [y_e, z_e, y_i, z_i]

            err = (abs(y_e - y_exact) / h, abs(z_e - z_exact) / h)
            ok = _finite(y_e, z_e) and all(e <= c for e, c in zip(err, self.explicit_bound))
            checks.append(Check(f"solve_explicit n={n}", ok,
                                f"|dY|/h {err[0]:.4f}, |dZ|/h {err[1]:.4f}"))

            err = (abs(y_i - y_exact) / (h * h), abs(z_i - z_exact) / h)
            ok = _finite(y_i, z_i) and all(e <= c for e, c in zip(err, self.implicit_bound))
            gap = abs(y_i - y_e)
            detail = f"|dY|/h^2 {err[0]:.4f}, |dZ|/h {err[1]:.4f}"
            if prev_gap is not None:
                ratio = prev_gap / gap if gap > 0.0 else math.inf
                ok = ok and self.gap_ratio[0] <= ratio <= self.gap_ratio[1]
                detail += f", gap ratio {ratio:.4f}"
            prev_gap = gap
            checks.append(Check(f"solve_implicit n={n}", ok, detail))
        return _bits(roots), checks


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload("mc_square", "square", (50, 100, 200, 400, 800), 20000,
                   {"e_y": (-0.65, -0.30), "e_z": (-0.70, -0.30)}),
        LatticeWorkload("deep_lattice", "square", (1000, 2000, 4000, 8000)),
    )
}


def tiny(workload):
    """A seconds-scale version of a workload, with the same checks."""
    if isinstance(workload, McWorkload):
        return dataclasses.replace(workload, M=1000)
    return dataclasses.replace(workload, n_list=(50, 100, 200))
