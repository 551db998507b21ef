"""Monte Carlo convergence harness.

For each step count n the lattice is solved once; then M independent
replications each draw a sign path and an exit-time ladder, couple them,
read (Y^n, Z^n) along the path at the evaluation level, recover the true
Brownian value there by a bridge draw and accumulate squared differences
against the exact solution. Per-n L2 errors are regressed log-log against n.

The replications run in blocks of _BLOCK rows through four stages. The
first two are couple_block, the one coupling draw that run_mc, acceptance
criterion 4 and the coupling tests all run: draw (signs, uniforms,
normals) and embed (walks, exit-time ladders and the bridge draw at t_k);
the layout of a coupled path is written there alone. Then evaluate
(lattice values along each walk, exact values at the bridged point) and
accumulate (each row's squared errors, stored in place and summed once by
math.fsum).

Reproducibility: the master seed feeds numpy's SeedSequence; one child is
spawned per entry of n_list (in order) and child j spawns one stream per
block of _BLOCK rows. Row r at n-index j therefore comes from stream
(seed, j, r // _BLOCK), which draws, for its whole block in this order, the
(rows, n) sign bits, the (rows, n) exit-time uniforms and the (rows,)
bridge normals. The error sums are exactly rounded, so they do not depend
on the order of the rows, and a given config gives the same bits on every
run.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .benchmarks import CASE_NAMES, BenchmarkCase, make_case
from .exit_time import sample_sigma, tabulate
from .solver import BsdeProblem, evaluate_walks, solve_explicit, solve_implicit

DEFAULT_N_LIST = (50, 100, 200, 400, 800)
DEFAULT_M = 20000
# rows per random stream, which are also the rows drawn and evaluated at once
_BLOCK = 4096

# a fitted slope above -alpha/2 by more than this slack gets flagged
SLOPE_SLACK = 0.15


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence run: which case, which n's, how many replications."""

    case: str
    n_list: Sequence[int] = DEFAULT_N_LIST
    M: int = DEFAULT_M
    T: float = 1.0
    t_eval: Optional[float] = None   # defaults to T/2
    seed: int = 12345
    scheme: str = "explicit"

    def __post_init__(self) -> None:
        if self.case not in CASE_NAMES:
            raise ValueError(f"unknown case {self.case!r}; choose one of {CASE_NAMES}")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"need 0 < T < inf, got T={self.T}")
        n_list = tuple(operator.index(n) for n in self.n_list)
        if not n_list or any(n < 2 for n in n_list):
            raise ValueError(f"every n must be >= 2, got {n_list}")
        if len(set(n_list)) < len(n_list):
            raise ValueError(f"every n must appear once, got {n_list}")
        object.__setattr__(self, "n_list", n_list)
        if operator.index(self.M) < 1:
            raise ValueError(f"need M >= 1, got M={self.M}")
        if operator.index(self.seed) < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")
        t_eval = 0.5 * self.T if self.t_eval is None else float(self.t_eval)
        if not 0.0 <= t_eval < self.T:
            raise ValueError(f"need 0 <= t_eval < T, got t_eval={t_eval}")
        object.__setattr__(self, "t_eval", t_eval)
        if self.scheme not in ("explicit", "implicit"):
            raise ValueError(f"scheme must be explicit or implicit, got {self.scheme!r}")


@dataclass(frozen=True)
class ErrorRow:
    """Monte Carlo L2 errors at one n; e_z/se_z are None without a Z truth."""

    n: int
    e_y: float
    se_y: float
    e_z: Optional[float]
    se_z: Optional[float]


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """One row per n, plus the config echo used by the CSV emitter."""

    rows: tuple
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float


def _mean_and_se(d2: np.ndarray) -> tuple:
    """Mean of the squared errors and its standard error, from exact sums."""
    m = d2.size
    mean = math.fsum(d2) / m
    if m < 2:
        return mean, 0.0
    var = max(math.fsum(d2 * d2) - m * mean * mean, 0.0) / (m - 1)
    return mean, math.sqrt(var / m)


def bridge_sample_batch(taus: np.ndarray, skeletons: np.ndarray, t: float,
                        z: np.ndarray) -> np.ndarray:
    """Vectorised bridge draw at one fixed time across replication rows.

    taus is (R, n) of exit times, skeletons is (R, n+1) of values at
    (0, tau_1, ..., tau_n), z is (R,) standard normal draws. Rows where t
    falls exactly on an embedding time get variance zero and return the
    skeleton value; strictly between tau_j and tau_{j+1} the draw has the
    bridge mean and variance (t - tau_j)(tau_{j+1} - t)/(tau_{j+1} - tau_j);
    rows with t >= tau_n get the free sqrt(t - tau_n) increment.

    The bridge is NOT conditioned on the +-sqrt(h) corridor the embedded
    path keeps to between two exit times; past tau_n the free increment is
    used because the embedding carries no information there.
    """
    if not 0.0 <= t < np.inf:  # also refuses NaN
        raise ValueError(f"need finite t >= 0, got t={t}")
    n_rows, n = taus.shape
    if skeletons.shape != (n_rows, n + 1) or np.shape(z) != (n_rows,):
        raise ValueError(
            f"length mismatch: taus {taus.shape}, skeletons {skeletons.shape}, "
            f"normals {np.shape(z)}"
        )
    rows = np.arange(n_rows)
    j = np.count_nonzero(taus <= t, axis=1)           # index into (0, tau_1, ..)
    t0 = np.where(j > 0, taus[rows, np.maximum(j - 1, 0)], 0.0)
    b0 = skeletons[rows, j]
    interior = j < n
    j_up = np.minimum(j + 1, n)
    t1 = taus[rows, np.minimum(j, n - 1)]             # tau_{j+1} for interior rows
    b1 = skeletons[rows, j_up]
    span = np.where(interior, t1 - t0, 1.0)
    lam = np.where(interior, (t - t0) / span, 0.0)
    mean = np.where(interior, b0 + lam * (b1 - b0), b0)
    var = np.where(interior, (t - t0) * np.maximum(t1 - t, 0.0) / span, t - t0)
    return mean + np.sqrt(np.maximum(var, 0.0)) * z


def couple_block(rng: np.random.Generator, rows: int, problem: BsdeProblem,
                 t: float) -> tuple:
    """One block of coupled paths: (walks, taus, b_t) for rows replications.

    Draws from rng, in the stream contract's order, the (rows, n) sign bits,
    the (rows, n) exit-time uniforms and the (rows,) bridge normals; then
    embeds them: walks (rows, n+1) int64 are the walk sums S_0 = 0, ..., S_n,
    taus (rows, n) the exit-time ladders tau_1 < ... < tau_n at time scale
    problem.h, and b_t the Brownian value at time t bridged between the
    skeleton points (0, 0) and (tau_k, sqrt(h) * S_k).
    """
    n = problem.n
    signs = rng.integers(0, 2, (rows, n), dtype=np.int8) * 2 - 1
    uniforms = rng.random((rows, n))
    # rng.random is [0, 1); push an exact 0 inside the open interval
    uniforms[uniforms == 0.0] = 2.0**-53
    normals = rng.standard_normal(rows)
    taus = np.cumsum(sample_sigma(tabulate(problem.h), uniforms), axis=1)
    walks = np.zeros((rows, n + 1), np.int64)
    np.cumsum(signs, axis=1, dtype=np.int64, out=walks[:, 1:])
    b_t = bridge_sample_batch(taus, problem.sqrt_h * walks, t, normals)
    return walks, taus, b_t


def _run_single_n(config: ExperimentConfig, case: BenchmarkCase, n: int,
                  seedseq: np.random.SeedSequence) -> ErrorRow:
    problem = case.problem(n)
    # float-robust floor: t_eval/h may sit one ulp below an integer
    k = int(math.floor(config.t_eval / problem.h + 1e-9))
    k = min(k, n - 1)
    t_k = k * problem.h

    if config.scheme == "explicit":
        solution = solve_explicit(problem, levels=(k,))
    else:
        solution = solve_implicit(problem, levels=(k,))
    exact = case.exact
    has_z = exact.z_fn is not None

    M = config.M
    streams = seedseq.spawn(-(-M // _BLOCK))
    d2_y = np.empty(M)
    d2_z = np.empty(M) if has_z else None
    for start, stream in zip(range(0, M, _BLOCK), streams):
        stop = min(start + _BLOCK, M)
        walks, taus, b_tk = couple_block(np.random.default_rng(stream), stop - start, problem, t_k)
        del taus  # never read here; freed now, not when the next block is drawn
        # evaluate the lattice along each walk and store the squared errors
        y_n, z_n = evaluate_walks(solution, walks, k)
        np.square(y_n - exact.y_fn(t_k, b_tk), out=d2_y[start:stop])
        if has_z:
            np.square(z_n - exact.z_fn(t_k, b_tk), out=d2_z[start:stop])

    e_y, se_y = _mean_and_se(d2_y)
    if has_z:
        e_z, se_z = _mean_and_se(d2_z)
    else:
        e_z, se_z = None, None
    return ErrorRow(n=n, e_y=e_y, se_y=se_y, e_z=e_z, se_z=se_z)


def run_mc(config: ExperimentConfig) -> ErrorSeries:
    """Run the paired (walk, tau, bridge) protocol over config.n_list."""
    case = make_case(config.case, config.T)
    children = np.random.SeedSequence(config.seed).spawn(len(config.n_list))
    rows = tuple(
        _run_single_n(config, case, n, child)
        for n, child in zip(config.n_list, children)
    )
    meta = {
        "case": config.case,
        "T": config.T,
        "t_eval": config.t_eval,
        "M": config.M,
        "seed": config.seed,
        "scheme": config.scheme,
        "alpha": case.alpha,
    }
    return ErrorSeries(rows=rows, meta=meta)


def regress_loglog(series: ErrorSeries, field_name: str = "e_y") -> RegressionResult:
    """OLS fit of log(error) against log(n)."""
    pairs = [(row.n, getattr(row, field_name)) for row in series.rows]
    distinct = len({n for n, _ in pairs})
    if distinct < 3:
        raise ValueError(f"need at least 3 distinct n for a regression, got {distinct}")
    if any(e is None or not math.isfinite(e) or e <= 0.0 for _, e in pairs):
        raise ValueError(
            f"nonpositive, non-finite or missing {field_name} values cannot be log-fitted"
        )
    x = np.log([n for n, _ in pairs])
    y = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RegressionResult(slope=float(slope), intercept=float(intercept), r_squared=r2)


def slope_flag(slope: float, alpha: float) -> bool:
    """True when the fitted slope sits above the -alpha/2 rate by more than SLOPE_SLACK.

    A flagged slope is reported, not failed: it marks a run whose decay is
    visibly short of the theoretical rate.
    """
    return slope > -0.5 * alpha + SLOPE_SLACK


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.17g}"


def emit_csv(series: ErrorSeries, regressions: dict, path) -> None:
    """Write the error table with the config echo and regression footer.

    Header comments echo the meta dict; the data header is
    n,E_Y,SE_Y,E_Z,SE_Z with empty fields where no Z truth exists; footer
    comments carry slope/intercept/r2 per fitted field, the theoretical
    reference -alpha/2 and a flag line when a slope falls short of it.
    Raises before the file is opened when a row holds a non-finite value.
    """
    for row in series.rows:
        for name in ("e_y", "se_y", "e_z", "se_z"):
            value = getattr(row, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"row n={row.n} has non-finite {name}={value}")
    lines = []
    for key in sorted(series.meta):
        lines.append(f"# {key}={series.meta[key]}")
    lines.append("n,E_Y,SE_Y,E_Z,SE_Z")
    for row in series.rows:
        lines.append(
            f"{row.n},{_fmt(row.e_y)},{_fmt(row.se_y)},{_fmt(row.e_z)},{_fmt(row.se_z)}"
        )
    alpha = series.meta.get("alpha")
    for label, reg in regressions.items():
        if reg is None:
            continue
        lines.append(f"# slope_{label}={reg.slope:.17g}")
        lines.append(f"# intercept_{label}={reg.intercept:.17g}")
        lines.append(f"# r2_{label}={reg.r_squared:.17g}")
        if alpha is not None and slope_flag(reg.slope, alpha):
            lines.append(
                f"# flag_{label}=slope above theoretical -alpha/2 + {SLOPE_SLACK}"
            )
    if alpha is not None:
        lines.append(f"# theory_slope={-0.5 * alpha:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_csv(path) -> tuple:
    """Read back emit_csv output: (ErrorSeries, footer dict).

    Floats round-trip exactly (17 significant digits); comment keys seen
    before the data header populate meta, those after populate the footer.
    """
    meta, footer, rows = {}, {}, []
    seen_header = False
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                target = footer if seen_header else meta
                target[key.strip()] = _parse_scalar(value.strip())
                continue
            if line.startswith("n,"):
                seen_header = True
                continue
            parts = line.split(",")
            rows.append(
                ErrorRow(
                    n=int(parts[0]),
                    e_y=float(parts[1]),
                    se_y=float(parts[2]),
                    e_z=float(parts[3]) if parts[3] else None,
                    se_z=float(parts[4]) if parts[4] else None,
                )
            )
    return ErrorSeries(rows=tuple(rows), meta=meta), footer
