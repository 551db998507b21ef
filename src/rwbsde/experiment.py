"""Monte Carlo convergence harness.

For each step count n the lattice is solved once, from level n down to the
evaluation level k that it reads; then the M replications run in blocks of
_BLOCK rows through four stages:

* embed to the bracket: couple_block, the one coupling draw, which
  acceptance criterion 4 and the coupling tests run too, gives each row's
  walk sum at the evaluation level k and the ladder step that brackets t_k;
* Brownian value: bridge_sample_batch across that step;
* evaluate: (Y^n, Z^n) at each row's level-k node (evaluate_walks) and
  the exact solution at the Brownian value;
* accumulate: each row's squared errors, stored in place and summed once,
  exactly rounded, by _exact_sum.

fit_slopes regresses the per-n L2 errors log-log against n, for
`rwbsde convergence` and criteria 7-9 alike.

Reproducibility: the master seed feeds numpy's SeedSequence; one child is
spawned per entry of n_list (in order) and child j spawns one stream per
block of _BLOCK = 8192 rows (M = 20000 rows are three streams, of 8192,
8192 and 3616 rows). Row r at n-index j therefore comes from stream
(seed, j, r // _BLOCK), which draws couple_block's block, then its bridge
normals. The error sums are exactly rounded, so they do not depend on the
order of the rows, and a given config gives the same bits on every run.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .benchmarks import BenchmarkCase, make_case
from .exit_time import (bracket_exit_sum, check_scale, exit_sum, sample_exit_gammas, sample_sigma,
                        tabulate)
from .solver import (SCHEMES, BsdeProblem, check_contraction, evaluate_walks, solve_explicit,
                     solve_implicit)

# rows per random stream, which are also the rows drawn and evaluated at once;
# each block pays a fixed cost (its stream, table, skip draws and bracket
# rounds). The mc_square run_mc, 30 calls at each size alternated in one
# process, took a median 0.1675, 0.1616 and 0.1552 s of CPU (1, 0.965 and
# 0.926; fastest calls 1, 0.959 and 0.949) at 4096, 8192 and 16384 rows,
# where couple_block's peak at n = 800 is 2.6, 3.4 and 4.8 MiB (2-vCPU Xeon)
_BLOCK = 8192
# uniforms per row pass of couple_block (256 KiB of doubles), so that a
# pass's uniforms, exit times, ladders, walks and sample_sigma's temporaries
# stay in cache; a 4096-row block at n = 800 (33 columns) took a median
# 11.7 ms at 2^15, 11.8 ms at 2^14, 11.9 ms at 2^13, 12.5 ms at 2^16 and
# 14.4 ms at 2^17 and in one pass (2-vCPU Xeon, 4 MiB L2)
_PASS = 2**15
# how far before t/h couple_block skips to, in units of sqrt(2(t/h)/3 + 1),
# about the standard deviation of the step j that brackets t; a row whose
# skip lands past t (1-2% of them at t_eval = T/2) is bracketed by gamma
# bridges. The mc_square run_mc took a median 204, 200, 201, 223 and 299 ms
# at 1.5, 2, 2.5, 3 and 8 (same host)
_SKIP = 2.0

# a fitted slope above -alpha/2 by more than this slack gets flagged
SLOPE_SLACK = 0.15


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence run: which case, which n's, how many replications. Its
    field defaults and input checks are a run's only ones."""

    case: str
    n_list: Sequence[int] = (50, 100, 200, 400, 800)
    M: int = 20000
    T: float = 1.0
    t_eval: Optional[float] = None   # defaults to T/2
    seed: int = 12345
    scheme: str = "explicit"

    def __post_init__(self) -> None:
        case = make_case(self.case, self.T)   # checks the case name and T
        n_list = tuple(operator.index(n) for n in self.n_list)
        if not n_list or any(n < 2 for n in n_list):
            raise ValueError(f"every n must be >= 2, got {n_list}")
        if len(set(n_list)) < len(n_list):
            raise ValueError(f"every n must appear once, got {n_list}")
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "M", operator.index(self.M))
        if self.M < 1:
            raise ValueError(f"need M >= 1, got M={self.M}")
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.seed < 0:
            raise ValueError(f"need seed >= 0, got seed={self.seed}")
        t_eval = 0.5 * self.T if self.t_eval is None else float(self.t_eval)
        if not 0.0 <= t_eval < self.T:
            raise ValueError(f"need 0 <= t_eval < T, got t_eval={t_eval}")
        object.__setattr__(self, "t_eval", t_eval)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be explicit or implicit, got {self.scheme!r}")
        # every check a run makes on an n's problem, before the first n is solved
        for n in n_list:
            problem = case.problem(n)
            check_scale(problem.h)   # couple_block tabulates the exit times at h
            if self.scheme == "implicit":
                check_contraction(problem)


@dataclass(frozen=True)
class ErrorRow:
    """Monte Carlo L2 errors at one n; e_z/se_z are None without a Z truth.
    Its fields, in order, are the convergence CSV's columns."""

    n: int
    e_y: float
    se_y: float
    e_z: Optional[float] = None
    se_z: Optional[float] = None


# the CSV's value columns: every ErrorRow field after n
_VALUE_FIELDS = fields(ErrorRow)[1:]


@dataclass(frozen=True, eq=False)
class ErrorSeries:
    """One row per n, plus the config echo used by the CSV emitter."""

    rows: tuple
    meta: dict


@dataclass(frozen=True)
class RegressionResult:
    """A log-log fit; its field names are emit_csv's footer keys."""

    slope: float
    intercept: float
    r2: float
    slope_se: float   # the Monte Carlo standard error of the slope
    chi2: float       # lack of fit, on (#n - 2) degrees of freedom


def _exact_sum(x: np.ndarray, divisor: int = 1) -> float:
    """sum(x) / divisor, rounded once and correctly: with divisor 1,
    math.fsum's bits, without a Python float per entry.

    Each finite x is an integer mantissa (53 bits, from np.frexp) times a
    power of two. The mantissas are cut into pieces of 53 - bit_length(x.size)
    bits, so that x.size pieces add up below 2^53: np.bincount sums each
    piece by binary exponent exactly, for any length, and the partial sums
    are combined as Python ints, with one true division at the end. The
    non-finite entries are summed apart, by math.fsum, so that an inf or a
    NaN comes out as fsum gives it, with no floating-point warning.
    """
    finite = np.isfinite(x)
    if not finite.all():
        return math.fsum(x[~finite].tolist()) / divisor
    mant, exp = np.frexp(x)
    ints = (mant * 2.0**53).astype(np.int64)   # x = ints * 2^(exp - 53), exactly
    low = int(exp.min(initial=0))
    bins = (exp - low).astype(np.intp)
    width = 53 - x.size.bit_length()
    total = 0
    for shift in range(0, 53, width):
        piece = ints >> shift
        if shift + width < 53:
            piece &= (1 << width) - 1
        sums = np.bincount(bins, weights=piece)
        total += sum(int(s) << (b + shift) for b, s in enumerate(sums.tolist()) if s)
    scale = low - 53
    return (total << scale) / divisor if scale >= 0 else total / (divisor << -scale)


def _mean_and_se(d2: np.ndarray) -> tuple:
    """Mean of the squared errors and its standard error, each an exact sum
    rounded once (_exact_sum): the mean, then the variance
    sum((d2 - mean)^2) / (m - 1) about it. The variance does not cancel, and
    m equal errors have that error as their mean, so their SE is 0.

    The sums run on d2 * 2^-e, with 2^e the power of two at or below the
    largest finite d2, so that neither they nor the squares overflow on
    finite errors; the scaling is exact and commutes with rounding, so a d2
    that would not have overflowed gives the bits of the unscaled sums. A
    d2 with an inf or a NaN has a non-finite mean and a NaN SE, with no
    floating-point warning.
    """
    m = d2.size
    top = float(d2[np.isfinite(d2)].max(initial=0.0))
    # within the normal doubles, so that 2^e and 2^-e are both finite
    e = min(max(math.frexp(top)[1] - 1, -1022), 1023)
    scaled = d2 * 2.0**-e
    mean = _exact_sum(scaled, m)
    if m < 2:
        return mean * 2.0**e, 0.0
    if not math.isfinite(mean):
        return mean * 2.0**e, math.nan
    var = _exact_sum(np.square(scaled - mean), m - 1)
    return mean * 2.0**e, math.sqrt(var / m) * 2.0**e


def _check_t(t: float) -> None:
    if not 0.0 <= t < math.inf:  # also refuses NaN
        raise ValueError(f"need finite t >= 0, got t={t}")


def bridge_sample_batch(taus: np.ndarray, skeletons: np.ndarray, t: float,
                        z: np.ndarray) -> np.ndarray:
    """Vectorised two-point bridge draw at one fixed time across rows.

    taus is (R, 2) of the embedding times (tau_j, tau_{j+1}) that bracket t
    in each row, skeletons is (R, 2) of the Brownian values there, z is (R,)
    standard normal draws; couple_block returns both as its bracket.
    Rows where t falls exactly on tau_j get variance zero and return the
    skeleton value there; strictly before tau_{j+1} the draw has the bridge
    mean and variance (t - tau_j)(tau_{j+1} - t)/(tau_{j+1} - tau_j); rows
    with t >= their right end time (tau_w at the last column w drawn, where
    the bracket's two ends are equal) get the free sqrt(t - tau_w) increment
    from there.

    The bridge is NOT conditioned on the +-sqrt(h) corridor the embedded
    path keeps to between two exit times. Past the last column drawn the
    free increment is exact: tau_w is a stopping time, so B_t - B_tau_w is
    independent of the path drawn up to it.
    """
    _check_t(t)
    n_rows = taus.shape[0]
    if taus.shape != (n_rows, 2) or skeletons.shape != taus.shape or np.shape(z) != (n_rows,):
        raise ValueError(
            f"length mismatch: need (R, 2) taus and skeletons and (R,) normals, got taus "
            f"{taus.shape}, skeletons {skeletons.shape}, normals {np.shape(z)}"
        )
    t0, t1 = taus[:, 0], taus[:, 1]
    if np.any(t0 > t):
        raise ValueError(f"every left end time must be <= t={t}")
    b0, b1 = skeletons[:, 0], skeletons[:, 1]
    interior = t < t1
    span = np.where(interior, t1 - t0, 1.0)
    lam = np.where(interior, (t - t0) / span, 0.0)
    mean = np.where(interior, b0 + lam * (b1 - b0), b1)
    var = np.where(interior, (t - t0) * (t1 - t) / span, t - t1)
    return mean + np.sqrt(var) * z


def ladder_ends(taus: np.ndarray, walks: np.ndarray, t: float) -> tuple:
    """The ends of the ladder step around t in each row: (tau_ends, walk_ends).

    taus (R, n+1) are non-decreasing ladders, walks (R, n+1) the walk sums
    beside them. In a row whose first column is at or before t, with
    j = #{m >= 1 : tau_m <= t}, the column before the first one past t (n
    when none is), both results are (R, 2) and hold columns j and
    min(j + 1, n). A row whose first column is already past t has no step
    around t: it gets columns 0 and min(1, n), whose left end past t
    bridge_sample_batch refuses; couple_block puts the bracket it draws for
    such a row in their place.
    """
    n_rows, n = taus.shape[0], taus.shape[1] - 1
    rows = np.arange(n_rows)
    # argmax gives 0 in rows with no column past t and in rows whose column 0
    # is past t, which the last column tells apart; on a row pass's ladders
    # one scan beats bisection's Python loop over the bits of n (68 against
    # 306 us at 992 x 34, a pass at n = 800; 2-vCPU Xeon)
    j = (taus > t).argmax(axis=1) - 1
    j[taus[:, -1] <= t] = n
    np.maximum(j, 0, out=j)
    ends = np.stack((j, np.minimum(j + 1, n)), axis=1)
    return taus[rows[:, None], ends], walks[rows[:, None], ends]


def _window(problem: BsdeProblem, t: float, columns: np.ndarray) -> tuple:
    """The columns (m0, w) that couple_block skips to and steps to."""
    steps = t / problem.h
    spread = math.sqrt(2.0 * steps / 3.0 + 1.0)
    w = int(columns.max(initial=0))
    return max(0, min(int(columns.min(initial=w)), math.floor(steps - _SKIP * spread))), w


def couple_block(rng: np.random.Generator, rows: int, problem: BsdeProblem,
                 t: float, columns: Sequence[int]) -> tuple:
    """Coupled paths of rows replications up to t's bracket: (walks, taus, tau_ends, walk_ends).

    Each row is embedded only over the columns m0..w, where w = max(columns)
    and it skips ahead to
    m0 = max(0, min(min(columns), floor(t/h - _SKIP * sqrt(2(t/h)/3 + 1)))).
    It draws from rng, in this order:

    * S_m0 = 2 * Binomial(m0, 1/2) - m0 and the gammas of tau_m0
      (exit_time.sample_exit_gammas), for all rows;
    * for the late rows, whose skip lands past t (tau_m0 > t): the gamma
      bridges by which exit_time.bracket_exit_sum finds the step
      j + 1 <= m0 whose exit time first passes t, then the up-steps among
      the first j of the m0 as Hypergeometric(U, m0 - U, j), with
      U = (S_m0 + m0) / 2 the up-steps of all m0, and step j + 1 as one
      more draw from the m0 - j left;
    * the (rows, w - m0) sign bits and then the (rows, w - m0) exit-time
      uniforms of the window, in row passes of about _PASS uniforms, which give
      the doubles of one (rows, w - m0) draw.

    Each row is stepped once, over m0..w, and no pass size moves a bit; a
    late row steps on from tau_m0 like any other. Each draw is exact given
    the law it samples: the signs are independent of the exit times and,
    given S_m0, in a uniformly random order, and a gamma bridge is the law
    of the series between two of its values. So walks, taus and the bracket
    have the whole path's law, but for the series itself: its tail matches
    two cumulants (the third is off by 5.5e-9 relative), and one step of it
    lies within 1.3e-7 of the exit-time CDF, as sample_sigma lies within
    1e-7. At m0 = 0 the skip's draws are empty (S_0 = tau_0 = 0 and no row
    is late) and take nothing from the stream, so with w = n (as for
    columns=range(n + 1)) the draws are those of the whole path, stepped
    from column 0.

    It returns walks (rows, len(columns)) int32, the walk sums S_m at each
    m in columns (S_0 = 0); taus (rows, len(columns)), the exit-time
    ladders tau_m there (tau_0 = 0 < tau_1 < ... < tau_n at time scale
    problem.h); and the bracket of t, the (rows, 2) ladder times tau_ends
    and int32 walk sums walk_ends at the columns j and min(j + 1, w) that
    ladder_ends finds in the window (j = w where t >= tau_w), or at the
    steps j and j + 1 <= m0 of a late row, which bridge_sample_batch takes
    with sqrt(h) * walk_ends. With
    columns=range(n + 1) walks and taus are the whole paths. A block holds
    the int8 signs of its window, the gammas of tau_m0, one row pass of its
    work and per-row answers: a 3.4 MiB peak at n = 800 and 8192 rows,
    0.26 MiB of it signs and 0.8 MiB gammas.
    A column outside 0..n raises IndexError, a column that is not a whole
    number TypeError, and a t that is negative, infinite or NaN ValueError,
    before anything is drawn.
    """
    n = problem.n
    columns = np.asarray(columns)
    if columns.size and columns.dtype.kind not in "iu":
        raise TypeError(f"columns {columns} are not whole numbers")
    columns = columns.astype(np.intp)
    if columns.ndim != 1 or np.any((columns < 0) | (columns > n)):
        raise IndexError(f"columns {columns} are not a sequence of levels in 0..{n}")
    _check_t(t)
    m0, w = _window(problem, t, columns)
    cdf = tabulate(problem.h)
    walk0 = (2 * rng.binomial(m0, 0.5, rows) - m0).astype(np.int32)
    gammas = sample_exit_gammas(rng, m0, rows)
    tau0 = exit_sum(gammas, problem.h)
    late = np.flatnonzero(tau0 > t)
    j, late_taus = bracket_exit_sum(rng, gammas[late], m0, problem.h, t)
    # given S_m0, the m0 signs are ups = (S_m0 + m0)/2 up-steps in a uniformly
    # random order: the ups among the first j are hypergeometric, and step
    # j + 1 is one more draw without replacement from the m0 - j left
    ups = (walk0[late] + m0) // 2
    ups_j = rng.hypergeometric(ups, m0 - ups, j)
    up = rng.hypergeometric(ups - ups_j, m0 - ups - j + ups_j, 1)
    late_walks = np.stack((2 * ups_j - j, 2 * (ups_j + up) - j - 1), axis=1)
    width, columns = w - m0, columns - m0
    signs = rng.integers(0, 2, (rows, width), dtype=np.int8)
    signs *= 2
    signs -= 1
    walks = np.empty((rows, columns.size), np.int32)
    taus = np.empty((rows, columns.size))
    tau_ends = np.empty((rows, 2))
    walk_ends = np.empty((rows, 2), np.int32)
    step = max(1, min(_PASS // max(width, 1), rows))
    uniform_buf = np.empty((step, width))
    ladder_buf = np.empty((step, width + 1))
    walk_buf = np.zeros((step, width + 1), np.int32)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        m = stop - start
        uniforms, ladder, walk = uniform_buf[:m], ladder_buf[:m], walk_buf[:m]
        rng.random(out=uniforms)
        # rng.random gives multiples of 2^-53 in [0, 1): this lifts an exact 0
        # alone into the open interval
        np.maximum(uniforms, 2.0**-53, out=uniforms)
        sigma = sample_sigma(cdf, uniforms)
        # at m0 = 0, tau0 = walk0 = 0 and neither offset moves a bit
        sigma[:, :1] += tau0[start:stop, None]
        ladder[:, 0] = tau0[start:stop]
        np.cumsum(sigma, axis=1, out=ladder[:, 1:])
        np.cumsum(signs[start:stop], axis=1, dtype=np.int32, out=walk[:, 1:])
        tau_ends[start:stop], walk_ends[start:stop] = ladder_ends(ladder, walk, t)
        taus[start:stop] = ladder[:, columns]
        walks[start:stop] = walk[:, columns]
    walks += walk0[:, None]
    walk_ends += walk0[:, None]
    tau_ends[late], walk_ends[late] = late_taus, late_walks
    return walks, taus, tau_ends, walk_ends


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
        rng = np.random.default_rng(stream)
        s_k, _, tau_ends, walk_ends = couple_block(rng, stop - start, problem, t_k, (k,))
        b_tk = bridge_sample_batch(tau_ends, problem.sqrt_h * walk_ends, t_k,
                                   rng.standard_normal(stop - start))
        # evaluate the lattice at each row's level-k node and store the squared
        # errors; one that overflows is inf, and the finite check below reports it
        y_n, z_n = evaluate_walks(solution, s_k[:, 0], k)
        with np.errstate(over="ignore"):
            np.square(y_n - exact.y_fn(t_k, b_tk), out=d2_y[start:stop])
            if has_z:
                np.square(z_n - exact.z_fn(t_k, b_tk), out=d2_z[start:stop])

    e_y, se_y = _mean_and_se(d2_y)
    e_z, se_z = _mean_and_se(d2_z) if has_z else (None, None)
    row = ErrorRow(n=n, e_y=e_y, se_y=se_y, e_z=e_z, se_z=se_z)
    # squared errors can overflow where the lattice and the truth do not
    if not all(math.isfinite(v) for v in (e_y, se_y, e_z, se_z) if v is not None):
        raise FloatingPointError(f"non-finite Monte Carlo error: {row}")
    return row


def run_mc(config: ExperimentConfig) -> ErrorSeries:
    """Run the paired (walk, tau, bridge) protocol over config.n_list.

    Raises FloatingPointError at the first n whose error or standard error
    is not finite, before the next n is solved: the squared errors can
    overflow where the lattice and the truth do not.
    """
    case = make_case(config.case, config.T)
    children = np.random.SeedSequence(config.seed).spawn(len(config.n_list))
    rows = tuple(
        _run_single_n(config, case, n, child)
        for n, child in zip(config.n_list, children)
    )
    # the config echo: every field but n_list, which the rows carry
    meta = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "n_list"}
    return ErrorSeries(rows=rows, meta={**meta, "alpha": case.alpha})


def regress_loglog(series: ErrorSeries, field_name: str = "e_y") -> RegressionResult:
    """OLS fit of log(error) against log(n), with how sure it is.

    The rows at different n come from independent streams, so the standard
    error se_n / e_n of each log e_n (from the row's se field) propagates
    through the OLS weights w_n of log n: slope_se^2 = sum w_n^2 (se_n/e_n)^2.
    chi2 = sum (resid_n / (se_n/e_n))^2 says whether a line fits at all; a
    row that states no Monte Carlo error (se_n = 0) makes it inf.
    """
    se_name = "se_" + field_name.removeprefix("e_")
    pairs = [(row.n, getattr(row, field_name), getattr(row, se_name)) for row in series.rows]
    distinct = len({n for n, _, _ in pairs})
    if distinct < 3:
        raise ValueError(f"need at least 3 distinct n for a regression, got {distinct}")
    if any(e is None or not math.isfinite(e) or e <= 0.0 for _, e, _ in pairs):
        raise ValueError(
            f"nonpositive, non-finite or missing {field_name} values cannot be log-fitted"
        )
    if any(se is None or not 0.0 <= se < math.inf for _, _, se in pairs):
        raise ValueError(f"negative, non-finite or missing {se_name} values cannot weigh a fit")
    x = np.log([n for n, _, _ in pairs])
    y = np.log([e for _, e, _ in pairs])
    rel_se = np.array([se / e for _, e, se in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    slope_se = math.sqrt(float(np.sum((weights * rel_se) ** 2)))
    chi2 = math.inf if np.any(rel_se == 0.0) else float(np.sum((resid / rel_se) ** 2))
    return RegressionResult(slope=float(slope), intercept=float(intercept), r2=r2,
                            slope_se=slope_se, chi2=chi2)


def fit_slopes(series: ErrorSeries) -> dict:
    """The log-log fit of Y, and of Z when the rows carry Z errors."""
    fits = {"Y": regress_loglog(series, "e_y")}
    if series.rows[0].e_z is not None:
        fits["Z"] = regress_loglog(series, "e_z")
    return fits


def slope_flag(slope: float, alpha: float) -> bool:
    """True when the fitted slope sits above the -alpha/2 rate by more than SLOPE_SLACK.

    A flagged slope is reported, not failed: it marks a run whose decay is
    visibly short of the theoretical rate.
    """
    return slope > -0.5 * alpha + SLOPE_SLACK


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.17g}"


def _refuse_non_finite(row: ErrorRow) -> None:
    """Raise ValueError when a value of row is not finite: no CSV holds one."""
    for f in _VALUE_FIELDS:
        value = getattr(row, f.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"row n={row.n} has non-finite {f.name}={value}")


def emit_csv(series: ErrorSeries, regressions: dict, path) -> None:
    """Write the error table with the config echo and regression footer.

    Header comments echo the meta dict; the data header is ErrorRow's field
    names upper-cased but n, with empty fields where no Z truth exists;
    footer comments carry each RegressionResult field name per fitted label
    (slope_Y, r2_Y, ...), the theoretical reference -alpha/2 from
    meta["alpha"] and a flag line when a slope falls short of it.
    Raises before the file is opened when a row holds a non-finite value.
    """
    for row in series.rows:
        _refuse_non_finite(row)
    lines = []
    for key in sorted(series.meta):
        lines.append(f"# {key}={series.meta[key]}")
    lines.append(",".join(["n"] + [f.name.upper() for f in _VALUE_FIELDS]))
    for row in series.rows:
        lines.append(",".join([str(row.n)] + [_fmt(getattr(row, f.name)) for f in _VALUE_FIELDS]))
    alpha = series.meta["alpha"]
    for label, reg in regressions.items():
        for f in fields(reg):
            lines.append(f"# {f.name}_{label}={getattr(reg, f.name):.17g}")
        if slope_flag(reg.slope, alpha):
            lines.append(
                f"# flag_{label}=slope above theoretical -alpha/2 + {SLOPE_SLACK}"
            )
    lines.append(f"# theory_slope={-0.5 * alpha:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the footer's fit keys, <field>_<label>
_FIT_FIELDS = {f.name for f in fields(RegressionResult)}


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
    before the data header populate meta, those after populate the footer,
    where each fit value and theory_slope reads as a float.
    An empty data field reads as None where ErrorRow's default is None; a
    non-finite value raises ValueError, as emit_csv refuses to write one.
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
                key, value = key.strip(), value.strip()
                if seen_header and (key == "theory_slope" or key.rpartition("_")[0] in _FIT_FIELDS):
                    footer[key] = float(value)   # written as "0" or "1" when exact
                else:
                    (footer if seen_header else meta)[key] = _parse_scalar(value)
                continue
            if line.startswith("n,"):
                seen_header = True
                continue
            n, *texts = line.split(",")
            values = [None if not text and f.default is None else float(text)
                      for f, text in zip(_VALUE_FIELDS, texts, strict=True)]
            rows.append(ErrorRow(int(n), *values))
            _refuse_non_finite(rows[-1])
    return ErrorSeries(rows=tuple(rows), meta=meta), footer
