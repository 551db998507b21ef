"""Distribution of the first exit time of Brownian motion from [-sqrt(h), sqrt(h)].

The law of sigma = inf{t : |B_t| = sqrt(h)} is a function of s = t/h alone
(Brownian scaling). It is handled four ways that must agree:

* a closed Laplace transform, E exp(-lam*sigma) = sech(sqrt(2*lam*h)), by
  the one overflow-free sech, _sech;
* two series for the CDF, each used where it converges fastest
  (_scaled_law): the image series
  F = 2 * sum_{k>=0} (-1)^k erfc((2k+1)/sqrt(2s)) for s < 1, and the
  spectral series
  1 - F = (4/pi) * sum_{k>=0} (-1)^k/(2k+1) * exp(-(2k+1)^2 pi^2 s/8)
  for s >= 1. Both alternate with decreasing terms, so six terms leave an
  error below 1e-18; cdf_series is this evaluation;
* numerical inversion of F_hat(lam) = sech(sqrt(2*lam*h))/lam by the
  fixed Talbot contour, whose weights do not depend on t, kept as a
  cross-validation path (within 2e-13 of the series);
* the gamma series of Pitman & Yor (2003, "Infinitely divisible laws
  associated with hyperbolic functions", Canad. J. Math. 55): sigma/h is
  their C_1, so a sum of m independent exit times is
  h * (2/pi^2) * sum_{i>=1} G_i / (i - 1/2)^2 with the G_i i.i.d. Gamma(m).
  Each G_i is a gamma process in m, so the series is one too.
  couple_block's skip past the first steps draws its gammas
  (sample_exit_gammas) and adds them (exit_sum), and bracket_exit_sum
  narrows it by gamma bridges (bridge_exit_gammas), each at the column
  where t falls on the line between its ends, to the step whose exit time
  passes t.

sample_sigma inverts F through one quantile table in scaled time, built on
first use and shared by every h. It is built from the C library's erfc
(math.erfc) and the stdlib's normal quantile alone, so it loads no scipy.
It sits on a uniform grid in x = logit(u) = log(u/(1-u)) over [-37, 37],
where the quantile is smooth (about 1/(2|x|) in the head, 8x/pi^2 in the
tail), so a draw is a direct index and one linear interpolation. Accuracy contract:
sup_u |F(Q(u)) - u| <= 1e-7 (8.93e-8 measured over 10^6 uniform u and
logit-spaced tails out to |logit u| = 30). tabulated_moment integrates
the same nodes: E sigma^p = h^p * integral Q(u)^p du, taken over the logit
grid. tabulate(h) hands out the table as a forward table, times h * q_i
against F = sigmoid(x_i), for the tabulate-exit command.

laplace_transform, cdf_series, cdf_laplace_inversion and sample_sigma take
any array-like input and give a numpy float64 for a 0-d one.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

TALBOT_DEGREE = 24

# (sign, 2k+1) of the six terms of either CDF series
_TERMS = tuple(zip((1.0, -1.0) * 3, 2.0 * np.arange(6) + 1.0))

# Pitman-Yor series weights a_i = (2/pi^2) / (i - 1/2)^2 of its first terms;
# they sum to 1 and their squares to 2/3 over all i >= 1, so the tail
# sum_{i>12} a_i G_i has mean m * _TAIL_MEAN and variance m * _TAIL_VAR
_SERIES_WEIGHTS = (2.0 / math.pi**2) / (np.arange(1, 13) - 0.5) ** 2
_TAIL_MEAN = 1.0 - math.fsum(_SERIES_WEIGHTS)
_TAIL_VAR = 2.0 / 3.0 - math.fsum(_SERIES_WEIGHTS**2)
# the tail is drawn as one gamma of shape m * _TAIL_SHAPE, scaled by
# _TAIL_VAR / _TAIL_MEAN; each of the 13 gammas is a gamma process in m with
# shape _SHAPES per unit m
_TAIL_SHAPE = _TAIL_MEAN**2 / _TAIL_VAR
_SHAPES = np.append(np.ones(_SERIES_WEIGHTS.size), _TAIL_SHAPE)

_Q_INTERVALS = 2**15  # quantile table cells on the logit grid
_Q_LOGIT_MAX = 37.0   # grid is [-37, 37]; |logit u| < 36.8 on [2^-53, 1 - 2^-53]


class LaplaceInversionError(ArithmeticError):
    """Talbot sum produced a non-finite or wildly out-of-range CDF value."""


def _check_h(h: float) -> None:
    if not 0.0 < h < math.inf:  # also refuses NaN
        raise ValueError(f"need finite h > 0, got h={h}")


def _sech(x: ArrayLike) -> ArrayLike:
    """sech x = 2 e^{-x} / (1 + e^{-2x}), which never overflows for Re x >= 0."""
    ex = np.exp(-x)
    return 2.0 * ex / (1.0 + ex * ex)


def laplace_transform(lam: ArrayLike, h: float) -> ArrayLike:
    """E exp(-lam*sigma) = sech(sqrt(2*lam*h)); depends on lam*h only."""
    lam_arr = np.asarray(lam, dtype=float)
    if not np.all(lam_arr >= 0.0):  # also refuses NaN
        raise ValueError("lam must be >= 0")
    _check_h(h)
    return _sech(np.sqrt(2.0 * lam_arr * h))


_erfc = np.frompyfunc(math.erfc, 1, 1)  # math.erfc element by element, as an object array


def _scaled_law(s: np.ndarray) -> tuple:
    """(F, 1 - F, density) of sigma/h at scaled times s > 0.

    Each point uses the series that converges fastest at its own s: the
    image series below 1, where F is small, and the spectral series from 1
    on, where 1 - F is small; so the small one of F and 1 - F keeps its
    relative accuracy. Six terms of either leave an alternating error below
    its first omitted term, under 1e-18 on its range. erfc is the C
    library's (math.erfc, element by element), within 5e-16 relative of a
    40-digit reference on the image series' arguments [0.7, 26].
    """
    cdf, surv, dens = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    head = s < 1.0
    z = np.sqrt(0.5 / s[head])
    f_head, d_head = np.zeros_like(z), np.zeros_like(z)
    for sign, c in _TERMS:
        f_head += sign * _erfc(c * z).astype(float)
        d_head += sign * c * np.exp(-(c * z) ** 2)
    cdf[head] = 2.0 * f_head
    surv[head] = 1.0 - cdf[head]
    dens[head] = (4.0 / math.sqrt(math.pi)) * z**3 * d_head

    s_tail = s[~head]
    f_tail, d_tail = np.zeros_like(s_tail), np.zeros_like(s_tail)
    for sign, c in _TERMS:
        e = np.exp((-c * c * math.pi**2 / 8.0) * s_tail)
        f_tail += (sign / c) * e
        d_tail += sign * c * e
    surv[~head] = (4.0 / math.pi) * f_tail
    cdf[~head] = 1.0 - surv[~head]
    dens[~head] = (math.pi / 2.0) * d_tail
    return cdf, surv, dens


def cdf_series(t: ArrayLike, h: float) -> ArrayLike:
    """Series CDF F(t) in [0, 1], each point from the series suited to its t/h."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):  # also refuses NaN
        raise ValueError("t must be > 0")
    _check_h(h)
    return _scaled_law(t_arr / h)[0][()]   # [()] makes a 0-d result a float64


def cdf_laplace_inversion(t: ArrayLike, h: float) -> ArrayLike:
    """F(t) by fixed-Talbot inversion of F_hat(lam) = sech(sqrt(2*lam*h))/lam.

    The contour points are w_j / t, so the weights, built from w_j alone,
    serve every t. Its degree, TALBOT_DEGREE = 24, lands within 2e-13 of the
    series on [h/100, 20h] in double precision. Values are returned raw (no
    clamping): non-finite output or anything outside [-1e-3, 1 + 1e-3] raises
    LaplaceInversionError so that contour instability is reported instead of
    hidden.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr > 0.0):  # also refuses NaN
        raise ValueError("t must be > 0")
    _check_h(h)
    degree = TALBOT_DEGREE

    theta = np.pi * np.arange(1, degree) / degree
    cot = 1.0 / np.tan(theta)
    r = 2.0 * degree / 5.0
    w = np.empty(degree, dtype=complex)   # t times the contour points
    w[0] = r
    w[1:] = r * theta * (cot + 1j)
    gamma = np.exp(w)
    gamma[0] *= 0.5
    gamma[1:] *= 1.0 + 1j * theta * (1.0 + cot**2) - 1j * cot

    p = w / t_arr[..., None]   # one row of contour points per requested time
    out = (2.0 / (5.0 * t_arr)) * np.real(_sech(np.sqrt(2.0 * p * h)) / p @ gamma)
    if not np.all(np.isfinite(out)) or np.any(out < -1e-3) or np.any(out > 1.0 + 1e-3):
        raise LaplaceInversionError(
            f"Talbot inversion unstable at degree {degree}: "
            f"range [{np.min(out):.3g}, {np.max(out):.3g}]"
        )
    return out


@dataclass(frozen=True, eq=False)
class ExitTimeCdf:
    """The quantile table of sigma at time scale h, F(grid) = values. sample_sigma
    reads h; tabulate-exit reads grid and values, perfbench's tracer values[-1]."""

    h: float
    grid: np.ndarray      # strictly increasing times, h times the table nodes
    values: np.ndarray    # F(grid), shared read-only; from 8.5e-17 to exactly 1


def check_scale(h: float) -> None:
    """Refuse, with ValueError, an h that is not finite and positive or that
    would scale a node of the quantile table out of the normal doubles (h
    outside about [1.57e-306, 5.96e306]): tabulate(h) takes exactly these."""
    _check_h(h)
    nodes = _quantile_table()[0]
    # on Python floats, so that an overflow is inf and not a numpy warning;
    # tiny is the smallest normal double
    first, last = float(h) * float(nodes[0]), float(h) * float(nodes[-1])
    if not (first >= np.finfo(float).tiny and last < math.inf):
        raise ValueError(f"h={h} scales the table's times [{nodes[0]:.5g}h, {nodes[-1]:.5g}h] "
                         f"out of the normal doubles")


def tabulate(h: float) -> ExitTimeCdf:
    """The quantile table that sample_sigma inverts, as tabulate-exit's table.

    Its 2^15 + 1 nodes span t in [0.0142h, 30.19h] and sit within 7e-16 of
    F; the mass outside them is below 1e-16 at either end. tabulate(h).grid
    is h * tabulate(1.0).grid bit for bit. An h that check_scale refuses
    raises its ValueError, so the grid stays strictly increasing and finite.
    """
    check_scale(h)
    nodes, _, values = _quantile_table()
    return ExitTimeCdf(h=h, grid=h * nodes, values=values)


def tabulated_moment(h: float, p: float = 1.0) -> float:
    """E sigma^p = h^p * integral Q(u)^p du by the trapezoid rule on the
    quantile table's logit grid, du = dx / (4 cosh^2(x/2)) (from x, as 1 - u
    loses digits near u = 1). Measured for h in [1/800, 1]:
    |E sigma / h - 1| <= 2.8e-15 and |E sigma^2 / h^2 - 5/3| <= 8.2e-14."""
    _check_h(h)
    if not p > 0.0:
        raise ValueError(f"need p > 0, got {p}")
    x = _logit_grid()
    f = _quantile_table()[0] ** p / (4.0 * np.cosh(0.5 * x) ** 2)
    return float(h**p * (x[1] - x[0]) * (math.fsum(f) - 0.5 * (f[0] + f[-1])))


def _logit_grid() -> np.ndarray:  # the nodes x_i = logit(u_i) of the quantile table
    return np.linspace(-_Q_LOGIT_MAX, _Q_LOGIT_MAX, _Q_INTERVALS + 1)


@functools.cache
def _quantile_table() -> tuple:
    """Nodes q_i = Q(u_i) in units of h at u_i = sigmoid(x_i) on the logit
    grid x_i, their differences (0 past the last node), and u_i = F(q_i),
    all read-only.

    Newton's method on logit F(s) = x starts from the head asymptote
    1/(2 erfcinv(u/2)^2) = 1/Phi^-1(u/4)^2 for x < 0, with Phi^-1 the
    stdlib's standard normal quantile (statistics.NormalDist), and the tail
    asymptote (8/pi^2) log(4/(pi(1-u))) for x >= 0; measured, they start
    within 0.24% and 0.02% of the root. It stops at relative steps of 1e-14,
    after 4 iterations; the nodes then sit within 7e-16 of F (3.3e-16
    measured).
    """
    import statistics  # here, as a module-level import slows every start-up
    x = _logit_grid()
    u = 1.0 / (1.0 + np.exp(-x))                 # exactly 1.0 at x = 37
    head = x < 0.0
    surv_tail = 1.0 / (1.0 + np.exp(x[~head]))   # 1 - u, where it is small
    s = np.empty_like(x)
    inv_cdf = statistics.NormalDist().inv_cdf
    s[head] = [1.0 / inv_cdf(0.25 * v) ** 2 for v in u[head].tolist()]
    s[~head] = (8.0 / math.pi**2) * np.log(4.0 / (math.pi * surv_tail))
    for _ in range(10):
        cdf, surv, dens = _scaled_law(s)
        step = (np.log(cdf) - np.log(surv) - x) * cdf * surv / dens
        s -= step
        if np.max(np.abs(step) / s) <= 1e-14:
            break
    else:
        raise ArithmeticError("Newton's method did not converge on the quantile table")
    diff = np.append(np.diff(s), 0.0)
    s.flags.writeable = diff.flags.writeable = u.flags.writeable = False
    return s, diff, u


def sample_sigma(cdf: ExitTimeCdf, u: ArrayLike) -> ArrayLike:
    """Exit times Q(u), of the shape of u, for uniforms u in the open
    interval (0, 1).

    Reads the scale-free quantile table (built on first use) by a direct
    index into its logit grid and one linear interpolation, then multiplies
    by cdf.h, so sample_sigma(tabulate(h), u) equals h times the h = 1
    result bit for bit; logit u beyond [-37, 37] is clamped to the grid
    ends. sup_u |F(Q(u)) - u| <= 1e-7. Its temporaries are the size of u,
    so a caller that wants them in cache passes a cache-sized u, as
    couple_block's row passes do.
    """
    uu = np.asarray(u, dtype=float)
    if uu.size and not (uu.min() > 0.0 and uu.max() < 1.0):  # also refuses NaN
        raise ValueError("u must lie strictly inside (0, 1)")
    nodes, diff, _ = _quantile_table()
    # pos = grid position of logit u, clamped to [0, _Q_INTERVALS]; an array
    # even for a 0-d u, so that every step below writes into it
    pos = np.log(uu / (1.0 - uu), out=np.empty_like(uu))
    pos += _Q_LOGIT_MAX
    pos *= _Q_INTERVALS / (2.0 * _Q_LOGIT_MAX)
    np.clip(pos, 0.0, _Q_INTERVALS, out=pos)
    idx = pos.astype(np.intp)   # truncates: the cell of pos >= 0
    pos -= idx
    pos *= diff.take(idx)
    pos += nodes.take(idx)
    pos *= cdf.h
    return pos[()]


def sample_exit_gammas(rng: np.random.Generator, m: int, rows: int) -> np.ndarray:
    """(rows, 13) values at m of the gamma processes of the Pitman-Yor series
    tau_m / h = sum_i a_i G_i(m), G_i(m) ~ Gamma(m) with independent
    increments in m: the 12 head terms, then the tail gamma Gamma(m * kappa),
    kappa = _TAIL_MEAN^2 / _TAIL_VAR, whose mean m * _TAIL_MEAN and variance
    m * _TAIL_VAR (in the scale exit_sum gives it) are the tail's own, so
    the third cumulant of tau_m is off by 5.5e-9 of its exact (16/15)*m*h^3.

    Draws from rng, in this order, the (rows, 12) head gammas and the (rows,)
    tail gammas. At m = 0 every gamma is 0 and none takes a draw.
    """
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    gammas = np.empty((rows, _SERIES_WEIGHTS.size + 1))
    gammas[:, :-1] = rng.standard_gamma(m, (rows, _SERIES_WEIGHTS.size))
    gammas[:, -1] = rng.standard_gamma(m * _TAIL_SHAPE, rows)
    return gammas


def exit_sum(gammas: np.ndarray, h: float) -> np.ndarray:
    """The (rows,) sums tau_m = h * sum_i a_i G_i(m) of sample_exit_gammas'
    (rows, 13) gammas. The terms are added one by one, smallest first, so no
    BLAS kernel moves a bit, and gammas that are larger term by term never
    give a smaller sum."""
    _check_h(h)
    total = gammas[:, -1] * (_TAIL_VAR / _TAIL_MEAN)
    for i in reversed(range(_SERIES_WEIGHTS.size)):
        total += _SERIES_WEIGHTS[i] * gammas[:, i]
    total *= h
    return total


def bridge_exit_gammas(rng: np.random.Generator, lo_gammas: np.ndarray, hi_gammas: np.ndarray,
                       lo: np.ndarray, mid: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The gammas at mid of each row, given those at lo < mid < hi.

    A gamma process of shape s per unit m has the exact bridge
    G(mid) = G(lo) + (G(hi) - G(lo)) * Beta(s(mid - lo), s(hi - mid)), with
    s = 1 for the 12 head terms and kappa for the tail; this draws the
    (rows, 13) betas from rng. The result lies between lo_gammas and
    hi_gammas term by term, so exit_sum keeps tau_lo <= tau_mid <= tau_hi.
    """
    left, right = (mid - lo)[:, None] * _SHAPES, (hi - mid)[:, None] * _SHAPES
    # the rounded sum may land one ulp past the right end
    return np.minimum(lo_gammas + (hi_gammas - lo_gammas) * rng.beta(left, right), hi_gammas)


def bracket_exit_sum(rng: np.random.Generator, gammas: np.ndarray, m: int, h: float,
                     t: float) -> tuple:
    """The exit-time step that brackets t in rows whose tau_m is past it:
    (j, tau_ends) with tau_j <= t < tau_{j+1} <= tau_m, j in 0..m-1.

    gammas are the rows' (rows, 13) gammas at m (sample_exit_gammas), with
    exit_sum(gammas, h) > t >= 0 in every row. Each row keeps the columns
    lo < hi and the exit times tau_lo <= t < tau_hi at its ends, from [0, m],
    and bridges its gammas (bridge_exit_gammas) at the column where t falls
    between them on the line, lo + floor((t - tau_lo)/(tau_hi - tau_lo) *
    (hi - lo)), held in lo + 1..hi - 1; it keeps the part that holds t, until
    its ends are one step apart. A bridge at a column chosen from the ends
    has the series' law there, so each draw is exact. Each round draws the
    betas of the rows not yet done: m - 1 rounds at most, and in measure,
    over the late rows of 20 blocks of 8192 at t = T/2 on the square case
    (skips to m = 38, 176, 367, 1534 and 6269 at n = 100, 400, 800, 3200 and
    12800), a mean of 4.3, 5.0, 5.6, 6.0 and 6.2 rounds and at most 5, 7, 7,
    7 and 7, where bisecting [0, m] took 6, 8, 9, 11 and 13.
    tau_ends is (rows, 2); at j + 1 = m its right end is exit_sum(gammas, h)
    bit for bit.
    """
    rows = gammas.shape[0]
    lo, hi = np.zeros(rows, np.intp), np.full(rows, operator.index(m), np.intp)
    lo_gammas, hi_gammas = np.zeros_like(gammas), gammas.copy()
    tau_lo, tau_hi = np.zeros(rows), exit_sum(gammas, h)
    open_rows = np.flatnonzero(hi - lo > 1)
    while open_rows.size:
        a, b = lo[open_rows], hi[open_rows]
        below, above = tau_lo[open_rows], tau_hi[open_rows]
        step = np.floor((t - below) / (above - below) * (b - a)).astype(np.intp)
        mid = np.clip(a + step, a + 1, b - 1)
        mid_gammas = bridge_exit_gammas(rng, lo_gammas[open_rows], hi_gammas[open_rows],
                                        a, mid, b)
        tau_mid = exit_sum(mid_gammas, h)
        left = tau_mid <= t
        moved, kept = open_rows[left], open_rows[~left]
        lo[moved], lo_gammas[moved], tau_lo[moved] = mid[left], mid_gammas[left], tau_mid[left]
        hi[kept], hi_gammas[kept], tau_hi[kept] = mid[~left], mid_gammas[~left], tau_mid[~left]
        open_rows = open_rows[hi[open_rows] - lo[open_rows] > 1]
    return lo, np.stack((tau_lo, tau_hi), axis=1)
