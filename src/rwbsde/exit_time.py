"""Distribution of the first exit time of Brownian motion from [-sqrt(h), sqrt(h)].

The law of sigma = inf{t : |B_t| = sqrt(h)} is handled three ways that must
agree with each other:

* a closed Laplace transform, E exp(-lam*sigma) = 1/cosh(sqrt(2*lam*h));
* a spectral series for the CDF,
  F(t) = 1 - (4/pi) * sum_{k>=0} (-1)^k/(2k+1) * exp(-(2k+1)^2 pi^2 t/(8h)),
  which is the production evaluation (alternating, terms strictly
  decreasing, so truncation error is bounded by the first omitted term);
* numerical inversion of F_hat(lam) = (1/lam)/cosh(sqrt(2*lam*h)) by the
  fixed Talbot contour, kept as a cross-validation path.

Everything is a function of t/h (Brownian scaling), so tables for different
h are exact time rescales of each other. tabulate() freezes the series on a
grid shaped for inverse-CDF sampling; sample_sigma and tau_ladder implement
the inverse-transform simulation of the tau ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.integrate import simpson

ArrayLike = Union[float, np.ndarray]

DEFAULT_GRID_SIZE = 4096
TALBOT_DEGREE = 24

_MIN_TERMS = 60      # floor of the series length
_SERIES_TOL = 1e-13  # bound on the first omitted series term
_START_TOL = 1e-12   # required F(t_min)
_TAIL_TOL = 1e-10    # required 1 - F(t_max)


class LaplaceInversionError(ArithmeticError):
    """Talbot sum produced a non-finite or wildly out-of-range CDF value."""


def _as_batch(x) -> tuple:
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    return scalar, arr


def laplace_transform(lam: ArrayLike, h: float) -> ArrayLike:
    """E exp(-lam*sigma) = 1/cosh(sqrt(2*lam*h)); depends on lam*h only."""
    scalar, lam_arr = _as_batch(lam)
    if np.any(lam_arr < 0.0):
        raise ValueError("lam must be >= 0")
    if not h > 0.0:
        raise ValueError(f"need h > 0, got h={h}")
    x = np.sqrt(2.0 * lam_arr * h)
    # sech(x) = 2 e^{-x} / (1 + e^{-2x}) never overflows for x >= 0
    ex = np.exp(-x)
    out = 2.0 * ex / (1.0 + ex * ex)
    return float(out[0]) if scalar else out


def cdf_series(t: ArrayLike, h: float) -> ArrayLike:
    """Spectral-series CDF F(t), clamped to [0, 1].

    The k-th term (4/pi)(-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 t/(8h)) decreases
    strictly in magnitude, so the alternating truncation error is below the
    first omitted term for every t > 0; the series is cut where that term
    drops below _SERIES_TOL at the smallest t (_terms_for).
    """
    scalar, t_arr = _as_batch(t)
    if np.any(t_arr <= 0.0):
        raise ValueError("t must be > 0")
    if not h > 0.0:
        raise ValueError(f"need h > 0, got h={h}")
    terms = _terms_for(float(t_arr.min(initial=np.inf)) / h)
    odd = 2.0 * np.arange(terms) + 1.0
    coef = (4.0 / np.pi) * (-1.0) ** np.arange(terms) / odd
    tail = np.exp(-np.outer(t_arr / h, odd * odd) * (np.pi**2 / 8.0)) @ coef
    out = np.clip(1.0 - tail, 0.0, 1.0)
    return float(out[0]) if scalar else out


def cdf_laplace_inversion(t: ArrayLike, h: float, degree: int = TALBOT_DEGREE) -> ArrayLike:
    """F(t) by fixed-Talbot inversion of F_hat(lam) = sech(sqrt(2*lam*h))/lam.

    Degree 24 lands within ~1e-12 of the series on [h/100, 20h] in double
    precision. Values are returned raw (no clamping): non-finite output or
    anything outside [-1e-3, 1 + 1e-3] raises LaplaceInversionError so that
    contour instability is reported instead of hidden.
    """
    scalar, t_arr = _as_batch(t)
    if np.any(t_arr <= 0.0):
        raise ValueError("t must be > 0")
    if not h > 0.0:
        raise ValueError(f"need h > 0, got h={h}")
    if degree < 2:
        raise ValueError(f"need degree >= 2, got {degree}")

    theta = np.pi * np.arange(degree) / degree
    cot = np.zeros(degree)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = 2.0 * degree / 5.0

    # contour nodes p and weights gamma, one row per requested time
    base = np.empty(degree, dtype=complex)
    base[0] = r
    base[1:] = r * theta[1:] * (cot[1:] + 1j)
    p = base[None, :] / t_arr[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        fhat = 1.0 / (p * np.cosh(np.sqrt(2.0 * p * h)))
        fhat = np.where(np.isfinite(fhat), fhat, 0.0)  # cosh overflow means sech -> 0
        gamma = np.empty_like(p)
        gamma[:, 0] = 0.5 * np.exp(r)
        gamma[:, 1:] = np.exp(t_arr[:, None] * p[:, 1:]) * (
            1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]
        )
        out = (2.0 / (5.0 * t_arr)) * np.real(np.sum(gamma * fhat, axis=1))

    if not np.all(np.isfinite(out)) or np.any(out < -1e-3) or np.any(out > 1.0 + 1e-3):
        raise LaplaceInversionError(
            f"Talbot inversion unstable at degree {degree}: "
            f"range [{np.min(out):.3g}, {np.max(out):.3g}]"
        )
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class ExitTimeCdf:
    """Tabulated CDF of sigma on a grid shaped for inverse lookup."""

    h: float
    grid: np.ndarray      # strictly increasing times
    values: np.ndarray    # F(grid), nondecreasing within [0, 1]
    tail_mass: float      # 1 - F(grid[-1])

    @property
    def size(self) -> int:
        return int(self.grid.size)


def _sampling_grid(u_min: float, u_max: float, size: int) -> np.ndarray:
    """Grid in units of h: geometric over the flat start, uniform through
    the bulk, geometric again in the exponential tail."""
    bulk_lo, bulk_hi = 0.05, 8.0
    if not (u_min < bulk_lo and u_max > bulk_hi):
        return np.geomspace(u_min, u_max, size)
    n_head = size // 4
    n_tail = size // 8
    n_mid = size - n_head - n_tail
    head = np.geomspace(u_min, bulk_lo, n_head, endpoint=False)
    mid = np.linspace(bulk_lo, bulk_hi, n_mid, endpoint=False)
    tail = np.geomspace(bulk_hi, u_max, n_tail)
    return np.concatenate([head, mid, tail])


def _terms_for(u_min: float) -> int:
    """Terms needed so the first omitted alternating term is below _SERIES_TOL.

    The k-th term magnitude is (4/pi) exp(-(2k+1)^2 pi^2 u/8)/(2k+1); the
    series converges slowest at the left end of the grid.
    """
    need = math.sqrt(8.0 * math.log(4.0 / (math.pi * _SERIES_TOL)) / (math.pi**2 * u_min))
    return max(_MIN_TERMS, int(need / 2.0) + 2)


def tabulate(
    h: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    t_min: float | None = None,
    t_max: float | None = None,
) -> ExitTimeCdf:
    """Freeze the series CDF on a sampling grid.

    The grid is built in scaled time t/h, so tables for different h agree
    after an exact time rescale. Raises when the requested window violates
    the start/tail mass contracts (F(t_min) <= 1e-12, 1 - F(t_max) <= 1e-10).
    """
    if not h > 0.0:
        raise ValueError(f"need h > 0, got h={h}")
    if grid_size < 2:
        raise ValueError(f"need grid_size >= 2, got {grid_size}")
    u_min = 1e-4 if t_min is None else t_min / h
    u_max = 50.0 if t_max is None else t_max / h
    if not 0.0 < u_min < u_max:
        raise ValueError(f"need 0 < t_min < t_max, got ({u_min}, {u_max}) in units of h")

    u = _sampling_grid(u_min, u_max, grid_size)
    values = np.atleast_1d(cdf_series(u, 1.0))
    np.maximum.accumulate(values, out=values)  # guard last-ulp wiggle of the series

    if values[0] > _START_TOL:
        raise ValueError(
            f"F(t_min) = {values[0]:.3g} > {_START_TOL:g}: shrink t_min to resolve the flat start"
        )
    tail_mass = 1.0 - float(values[-1])
    if tail_mass > _TAIL_TOL:
        raise ValueError(
            f"tail mass {tail_mass:.3g} > {_TAIL_TOL:g}: widen the grid (raise t_max)"
        )
    return ExitTimeCdf(h=h, grid=h * u, values=values, tail_mass=tail_mass)


def tabulated_moment(cdf: ExitTimeCdf, p: float = 1.0) -> float:
    """E sigma^p by quadrature on the table: p * integral t^{p-1}(1 - F) dt.

    The untabulated head [0, t_min] contributes t_min^p exactly up to the
    <=1e-12 start mass; the tail beyond the grid is below
    tail_mass * t_max^p and ignored.
    """
    if not p > 0.0:
        raise ValueError(f"need p > 0, got {p}")
    surv = 1.0 - cdf.values
    integrand = p * cdf.grid ** (p - 1.0) * surv
    return float(cdf.grid[0] ** p + simpson(integrand, x=cdf.grid))


def sample_sigma(cdf: ExitTimeCdf, u: ArrayLike) -> ArrayLike:
    """Generalized inverse F^{-1}(u), piecewise linear in F.

    Binary search on the tabulated values; a u that hits a grid value
    exactly returns that grid time exactly. u outside the open interval
    (0, 1) is rejected; u above the tabulated top (probability <= tail_mass)
    returns the last grid time.
    """
    scalar, uu = _as_batch(u)
    if not np.all(np.isfinite(uu)) or np.any(uu <= 0.0) or np.any(uu >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    values, grid = cdf.values, cdf.grid
    idx = np.searchsorted(values, uu, side="left")
    idx = np.minimum(idx, values.size - 1)
    lo = np.maximum(idx - 1, 0)
    f0, f1 = values[lo], values[idx]
    t0, t1 = grid[lo], grid[idx]
    span = f1 - f0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(span > 0.0, (uu - f0) / np.where(span > 0.0, span, 1.0), 1.0)
    out = t0 + frac * (t1 - t0)
    out = np.where(values[idx] == uu, grid[idx], out)   # exact table round-trip
    out = np.where(uu > values[-1], grid[-1], out)      # beyond tabulated mass
    return float(out[0]) if scalar else out


def tau_ladder(sigmas: ArrayLike, n: int) -> np.ndarray:
    """Exit-time ladders tau_k = sigma_1 + ... + sigma_k, k = 1..n.

    sigmas holds i.i.d. exit times for consecutive rows of n steps, as
    sample_sigma returns them for a raveled (R, n) array of uniforms; the
    result is (R, n) with each row strictly increasing.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return np.cumsum(np.reshape(sigmas, (-1, n)), axis=1)
