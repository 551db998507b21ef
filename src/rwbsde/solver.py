"""Backward dynamic programming for (Y, Z) on the walk lattice.

One backward sweep serves two per-level update rules. The explicit rule
advances the generator with the already-known next-level Y values and is
the default used by the Monte Carlo harness; the implicit rule solves a
per-node fixed point by Picard iteration and exists to measure the O(h) gap
between the two. Both evaluate the generator at time t_{k+1} with the state
at t_k.

The sweep visits level k only over its mass window, the nodes with walk sum
|S| <= W_k (see _levels): a walk from the root passes it with weight below
e^-50, so the nodes beyond cannot move a double-precision root. A guard on
the terminal level (_window_drift) falls back to the whole lattice,
W_k = k, whenever g's far tail could outweigh that.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

TerminalFn = Callable[[np.ndarray], np.ndarray]
DriverFn = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
LevelRule = Callable[..., np.ndarray]

PICARD_TOL = 1e-12      # sup-norm update that ends the implicit fixed point
PICARD_MAX_ITER = 100   # iterations per level, more only under a known lip_f
WINDOW_SDS = 10         # the mass window's half-width in walk sds, sqrt(k) per level
WINDOW_TAIL = 2.0**-60  # the terminal tail beyond the window that the guard allows
SCHEMES = ("explicit", "implicit")   # the sweep's two update rules

# 2**20 ~ 1e6 paths; enumeration is oracle support, never a hot path
ENUMERATION_CAP = 20

# what a level the sweep did not keep holds in SolutionLattice.y and .z
_DROPPED = np.empty(0)
_DROPPED.flags.writeable = False


class PicardConvergenceError(RuntimeError):
    """Per-node fixed point failed to reach PICARD_TOL within its budget."""


@dataclass(frozen=True)
class BsdeProblem:
    """Problem instance: terminal function, generator, regularity metadata
    and the step grid they fix.

    Parameters
    ----------
    T, n : horizon and step count. They set h = T/n and sqrt_h = sqrt(h)
        once, so every module indexing the tree uses the same bits; node
        (k, i), 0 <= i <= k, sits at (2i - k)*sqrt_h at time k*h.
    g : terminal function, must accept numpy arrays (whole levels at once).
        Its argument is the read-only coordinate array of level n.
    f : generator, called as f(t, x, y, z) with scalar t and level arrays;
        x is the read-only coordinate array of the level.
    alpha : Hoelder order of g in (0, 1]; checked and kept, but never read.
    lip_f : optional Lipschitz constant of f; when given, the implicit
        sweep checks the contraction condition h*lip_f < 1 up front, and
        lip_f*sqrt_h*k, the largest drift f can give the walk by level k,
        widens the sweep's mass window. The window's guard reads g only:
        f(t, x, 0, 0) is assumed to grow at most polynomially in x, as in
        the paper's setting. Without lip_f the sweep takes the whole lattice.
    """

    T: float
    n: int
    g: TerminalFn
    f: DriverFn
    alpha: float = 1.0
    lip_f: Optional[float] = None
    h: float = field(init=False, repr=False, compare=False)
    sqrt_h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"need 0 < T < inf, got T={self.T}")
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"need alpha in (0, 1], got {self.alpha}")
        if self.lip_f is not None and not 0.0 <= self.lip_f < math.inf:  # also refuses NaN
            raise ValueError(f"need 0 <= lip_f < inf, got {self.lip_f}")
        h = self.T / self.n
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "sqrt_h", math.sqrt(h))

    @functools.cached_property
    def _rows(self) -> tuple:
        """Node coordinates of the levels k with n - k even, then odd:
        -n..n and -n+1..n-1 in steps of 2, times sqrt_h, built on first use
        and read-only."""
        n = self.n
        rows = (np.arange(-n, n + 1, 2, dtype=np.int64) * self.sqrt_h,
                np.arange(-n + 1, n, 2, dtype=np.int64) * self.sqrt_h)
        for row in rows:
            row.flags.writeable = False
        return rows

    def level_coordinates(self, k: int) -> np.ndarray:
        """All k+1 node coordinates of level k, bottom-up.

        The array is a read-only, contiguous slice of one of two rows the
        problem builds once, so every call for level k returns the same
        memory; writing to it raises ValueError.
        """
        k = operator.index(k)
        if not 0 <= k <= self.n:
            raise IndexError(f"level k={k} outside 0..{self.n}")
        start, parity = divmod(self.n - k, 2)
        return self._rows[parity][start:start + k + 1]


@dataclass(frozen=True, eq=False)
class SolutionLattice:
    """Level arrays of Y (levels 0..n) and Z (levels 0..n-1) of the problem
    they solve, and the scheme that swept them.

    y[k] and z[k] are level k, over the window of nodes the sweep visited,
    for every level the sweep was asked to keep; every other level holds one
    shared, read-only, empty array. first[k] is the node that y[k][0] and
    z[k][0] sit at (0 for a level swept whole or not kept), so y[k][j] is
    node first[k] + j. A kept level is never empty, since every window holds
    the middle of its level.
    """

    problem: BsdeProblem
    y: tuple
    z: tuple
    scheme: str
    first: tuple

    @property
    def n(self) -> int:
        return self.problem.n

    def root(self) -> tuple:
        """(Y, Z) at the single node of level 0."""
        return float(_kept(self.y, 0)[0]), float(_kept(self.z, 0)[0])


def _terminal_level(problem: BsdeProblem) -> np.ndarray:
    """Y at level n: g of the level's coordinates, as a float array.

    A g that returns its input (or a view of it) hands back the
    read-only coordinate row itself; level n is then that read-only array,
    never a writable alias of the row. The sweep only reads it.
    """
    n = problem.n
    vals = np.asarray(problem.g(problem.level_coordinates(n)), dtype=float)
    if vals.ndim == 0:
        vals = np.full(n + 1, float(vals))
    if vals.shape != (n + 1,):
        raise ValueError("terminal function g must map a level array to a level array")
    return vals


def _kept(arrays: tuple, k: int) -> np.ndarray:
    """Level k of a solution's y or z; a level the sweep dropped is refused."""
    if arrays[k] is _DROPPED:
        raise ValueError(f"level {k} was not kept: solve with levels that include {k}")
    return arrays[k]


def _at(solution: SolutionLattice, arrays: tuple, k: int, nodes: np.ndarray) -> np.ndarray:
    """solution.y or .z (arrays) at the given nodes of level k; a level the
    sweep dropped, or a node outside the window it swept, is refused."""
    level = _kept(arrays, k)
    first = solution.first[k]
    index = nodes - first
    if np.any((index < 0) | (index >= level.size)):
        raise ValueError(f"level {k} was swept only over its nodes {first}..{first + level.size - 1}")
    return level[index]


def _window_drift(problem: BsdeProblem, y_n: np.ndarray) -> Optional[float]:
    """lip_f*sqrt_h, the walk's largest drift per level, when the sweep may
    keep to its mass window; None, for the whole lattice, when it may not.

    The guard passes when lip_f is known, g is finite on every terminal
    node, and the largest |g(x_S)| exp(-(|S| - lip_f sqrt_h n)_+^2 / (2n))
    beyond W_n, a bound on what that node carries to the root, is at most
    WINDOW_TAIL of the largest within W_n. It reads g's values y_n only,
    and compares without dividing, so a g that is 0 somewhere raises no
    floating-point warning.
    """
    if problem.lip_f is None or not np.all(np.isfinite(y_n)):
        return None
    n, drift = problem.n, problem.lip_f * problem.sqrt_h
    first = _window_first(n, drift)
    if first == 0:   # W_n = n: no terminal node lies beyond the window
        return drift
    walk = np.abs(np.arange(-n, n + 1, 2, dtype=float))
    with np.errstate(under="ignore"):
        weight = np.abs(y_n) * np.exp(-np.maximum(walk - drift * n, 0.0) ** 2 / (2.0 * n))
    inside = weight[first:n + 1 - first].max()
    outside = max(weight[:first].max(), weight[n + 1 - first:].max())
    return drift if outside <= WINDOW_TAIL * inside else None


def _window_first(k: int, drift: Optional[float]) -> int:
    """The first node of level k's mass window |S| <= W_k, where
    W_k = min(k, ceil(WINDOW_SDS sqrt(k) + drift k) + 2), taken up to the
    parity of k; the window is the nodes first..k - first. With no drift
    (None) the window is the whole level. W_k = k is decided in floats, before
    the ceiling, so a drift * k that overflows (to inf, or NaN at k = 0) takes
    the whole level too."""
    if drift is None or not (width := WINDOW_SDS * math.sqrt(k) + drift * k) <= k - 3:
        return 0
    return (k - math.ceil(width) - 2) // 2


def _levels(problem: BsdeProblem, rule: LevelRule) -> Iterator[tuple]:
    """(k, first, y_k, z_k) from k = n down to 0, with two levels alive at a
    time; y_k and z_k hold the nodes first..k - first of level k.

    Per node z_k[i] = (Y+ - Y-)/(2 sqrt(h)), and y_k = rule(k, t_{k+1}, x,
    Y+, Y-, z_k, (Y+ + Y-)/2), where Y+- are the next-level values above
    and below the node. Level n is the terminal level and has no z (None).

    Level k is swept over its mass window |S| <= W_k (_window_first) when
    _window_drift's guard passes, and whole otherwise; W_k = k is the whole
    lattice, through the same code. Since W_k <= W_{k+1} + 1, level k reads
    at most one node past either end of the window of level k + 1. When it
    does, that window is first copied between two pad slots that repeat its
    edge values, so such a node reads the edge value.
    """
    n, h, sh = problem.n, problem.h, problem.sqrt_h
    y_n = _terminal_level(problem)
    drift = _window_drift(problem, y_n)
    first = _window_first(n, drift)
    y_k = y_n[first:n + 1 - first]
    yield n, first, y_k, None
    for k in range(n - 1, -1, -1):
        first_above, first = first, _window_first(k, drift)
        # node i of level k reads nodes i and i + 1 of level k + 1, starting
        # at above[start]; the pad slots repeat the edge values
        above, start = ((y_k, first - first_above) if first >= first_above
                        else (np.concatenate((y_k[:1], y_k, y_k[-1:])), 0))
        width = k + 1 - 2 * first
        dn, up = above[start:start + width], above[start + 1:start + width + 1]
        z_k = (up - dn) / (2.0 * sh)
        x = problem.level_coordinates(k)[first:k + 1 - first]
        y_k = rule(k, (k + 1) * h, x, up, dn, z_k, 0.5 * (up + dn))
        yield k, first, y_k, z_k


def _sweep(problem: BsdeProblem, rule: LevelRule, scheme: str,
           levels: Iterable[int] = (0,)) -> SolutionLattice:
    """Backward sweep from the terminal level; rule gives Y at each level.

    Runs _levels once, down to the lowest level in levels (0 when levels is
    empty), so memory is O(n) plus the levels kept: y[k] and z[k] (z has no
    level n) are stored over the window swept, with its first node, for each
    k in levels, and every other level is left empty. Every node of that
    lowest level is checked, whether kept or not; when one is not finite the
    levels are built once more, down to the same level, and counted as they
    come, still in O(n) memory, and the error names the highest level with
    non-finite nodes and counts them out of the nodes swept there.
    """
    n = problem.n
    keep = {operator.index(k) for k in levels}
    outside = sorted(k for k in keep if not 0 <= k <= n)
    if outside:
        raise IndexError(f"levels {outside} outside 0..{n}")
    lowest = min(keep, default=0)
    y = [_DROPPED] * (n + 1)
    z = [_DROPPED] * (n + 1)   # z[n] is the terminal level's None, cut below
    firsts = [0] * (n + 1)
    for k, first, y_k, z_k in _levels(problem, rule):
        if k in keep:
            y[k], z[k], firsts[k] = y_k, z_k, first
        if k == lowest:
            break
    if not (np.isfinite(y_k).all() and (z_k is None or np.isfinite(z_k).all())):
        # failure path only, so a run that succeeds scans nothing
        for k, _, y_k, z_k in _levels(problem, rule):
            bad = np.count_nonzero(~np.isfinite(y_k) | ~np.isfinite(0.0 if z_k is None else z_k))
            if bad:
                where = "root" if lowest == 0 else f"level {lowest}"
                raise FloatingPointError(
                    f"non-finite {where} at n={n}: level {k} is the highest with "
                    f"non-finite nodes ({bad} of {y_k.size})"
                )
    return SolutionLattice(problem=problem, y=tuple(y), z=tuple(z[:n]), scheme=scheme,
                           first=tuple(firsts))


def solve_explicit(problem: BsdeProblem, levels: Iterable[int] = (0,)) -> SolutionLattice:
    """Backward sweep with Y at t_{k+1} inside the generator.

    Per node y[k][i] = (Y+ + Y-)/2 + h*(f(t_{k+1}, x, Y+, z) + f(t_{k+1}, x, Y-, z))/2,
    the two-point conditional expectation over the next sign, over each
    level's mass window (whole levels when lip_f is unknown or the guard on
    g fails; see _levels). Keeps the levels named in levels (the root by
    default; range(n + 1) keeps all) and holds two levels at a time
    besides, so memory is O(n) plus the kept levels. It sweeps down to the
    lowest kept level, no further, and a non-finite node there raises
    FloatingPointError naming the highest level with non-finite nodes.
    """
    f, h = problem.f, problem.h

    def rule(k, t, x, up, dn, z, base):
        return base + 0.5 * h * (f(t, x, up, z) + f(t, x, dn, z))

    return _sweep(problem, rule, "explicit", levels)


def check_contraction(problem: BsdeProblem) -> None:
    """Refuse a problem whose known lip_f breaks h*lip_f < 1, the condition
    under which solve_implicit's Picard iteration contracts."""
    if problem.lip_f is not None and problem.h * problem.lip_f >= 1.0:
        raise ValueError(
            f"contraction condition violated at n={problem.n}: "
            f"h*lip_f = {problem.h * problem.lip_f:.6g} >= 1"
        )


def solve_implicit(problem: BsdeProblem, levels: Iterable[int] = (0,)) -> SolutionLattice:
    """Backward sweep with the generator at the fixed point Y at t_k.

    Per node solves y = (Y+ + Y-)/2 + h*f(t_{k+1}, x, y, z) by Picard
    iteration from y = (Y+ + Y-)/2; h*lip_f < 1 guarantees contraction, and
    check_contraction refuses a problem that breaks it. The iteration at a
    level stops at a sup-norm update below PICARD_TOL, which an update with
    a NaN node never is, and gets PICARD_MAX_ITER iterations; when lip_f is
    known, so that each update is at most q = h*lip_f times the last, a
    level still above PICARD_TOL then gets as many more as that bound needs
    to reach it, plus one (n = 4, T = 3, q = 0.75 on the square case: 449
    generator calls in all). A level that runs out raises
    PicardConvergenceError, as does an update that turns non-finite from
    finite input. A level whose input already holds a non-finite node takes
    its first update as it is, so an overflow is reported as solve_explicit
    reports it. Sweeps each level's mass window down to the lowest level
    named in levels, keeps those levels and checks the lowest, as
    solve_explicit does; the sup-norm is taken over the window.
    """
    check_contraction(problem)
    f, h = problem.f, problem.h
    q = None if problem.lip_f is None else h * problem.lip_f

    def rule(k, t, x, up, dn, z, base):
        yk = base
        done, budget = 0, PICARD_MAX_ITER
        while done < budget:
            ynew = base + h * f(t, x, yk, z)
            # maximum, unlike fmax, keeps a NaN, so a NaN update never passes
            # the tolerance
            delta = np.maximum.reduce(np.abs(ynew - yk))
            yk = ynew
            done += 1
            if delta < PICARD_TOL:
                return yk
            if not math.isfinite(delta) and not np.all(np.isfinite(base)):
                # the level above is already non-finite: no iteration mends
                # that, and _sweep names the level where it began
                return yk
            if done == PICARD_MAX_ITER and q and math.isfinite(delta):
                # each update is at most q = h*lip_f < 1 times the last: grant
                # the j more with q**(j - 1) * delta <= PICARD_TOL
                budget += math.ceil(math.log(PICARD_TOL / delta) / math.log(q)) + 1
        raise PicardConvergenceError(
            f"no contraction at level {k}: last update {delta:.3e} "
            f"after {done} iterations"
        )

    return _sweep(problem, rule, "implicit", levels)


def evaluate_walks(solution: SolutionLattice, sums: np.ndarray, k: int) -> tuple:
    """(Y, Z) arrays at level k of the nodes the walk rows reach.

    sums is (R,) of the integer walk sums S_k at level k, as
    experiment.couple_block returns them for columns=(k,); row r sits at
    node (k + sums[r])/2 after k steps. A sum outside [-k, k] or of the
    wrong parity names no node and raises ValueError, and so do a level
    the sweep did not keep and a node outside the window it swept there
    (|S_k| > W_k, which a walk from the root reaches with weight below
    e^-50); sums that are not whole numbers raise TypeError.
    """
    n = solution.n
    if np.ndim(sums) != 1:
        raise ValueError(f"need (R,) level-k walk sums, got shape {np.shape(sums)}")
    if np.asarray(sums).dtype.kind not in "iu":
        raise TypeError(f"level-k walk sums {sums} are not whole numbers")
    if not 0 <= k <= n - 1:
        raise IndexError(f"level k={k} outside 0..{n - 1}")
    if np.any((np.abs(sums) > k) | ((sums + k) % 2 != 0)):
        raise ValueError(f"level-{k} walk sums must lie in [-{k}, {k}] with the parity of {k}")
    node = (k + sums) // 2
    return _at(solution, solution.y, k, node), _at(solution, solution.z, k, node)


def sign_matrix(m: int) -> np.ndarray:
    """All 2**m sign rows as an int8 array (exhaustive-oracle support)."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m > ENUMERATION_CAP:
        raise ValueError(f"enumeration of 2**{m} paths exceeds the cap 2**{ENUMERATION_CAP}")
    codes = np.arange(1 << m, dtype=np.int64)[:, None]
    bits = (codes >> np.arange(m, dtype=np.int64)[None, :]) & 1
    return (2 * bits - 1).astype(np.int8)


def z_by_representation(solution: SolutionLattice, k: int, i: int) -> float:
    """Z at node (k, i) via the discrete Malliavin-weight expectations.

    Takes g, f and the grid from solution.problem, the problem that was
    solved. Enumerates the 2**(n-k) remaining sign tails (each of weight
    2**-(n-k); sign_matrix refuses more than 2**ENUMERATION_CAP) and returns

        E_k[ g(B_T) (B_T - B_k)/(t_n - t_k) ]
      + E_k[ h * sum_{m=k+1}^{n-1} f(t_{m+1}, B_m, Y, Z_m) (B_m - B_k)/(t_m - t_k) ],

    where the y-argument of f follows the convention of the scheme that
    produced the lattice (level m+1 node for the explicit sweep, level m
    node for the implicit one); with that convention the result equals the
    swept z[k][i] up to rounding. It reads the lattice levels above k, so
    the sweep must have kept them, over every node the tails reach; a
    dropped level or a node outside a swept window raises ValueError.
    """
    problem = solution.problem
    n, h, sh = problem.n, problem.h, problem.sqrt_h
    if not 0 <= k <= n - 1:
        raise IndexError(f"level k={k} outside 0..{n - 1}")
    if not 0 <= i <= k:
        raise IndexError(f"node i={i} outside 0..{k} at level {k}")
    m_tail = n - k

    tails = sign_matrix(m_tail)                       # (R, m_tail)
    partial = np.cumsum(tails, axis=1, dtype=np.int64)
    c0 = 2 * i - k                                    # start coordinate in sqrt(h) units

    b_terminal = sh * (c0 + partial[:, -1]).astype(float)
    increment_n = sh * partial[:, -1].astype(float)
    total = float(np.mean(problem.g(b_terminal) * increment_n)) / (m_tail * h)

    explicit = solution.scheme == "explicit"
    for m in range(k + 1, n):
        j = m - k - 1                                 # tail column of step m
        s_m = partial[:, j]
        coord_m = c0 + s_m
        node_m = (coord_m + m) // 2
        x_m = sh * coord_m.astype(float)
        z_m = _at(solution, solution.z, m, node_m)
        if explicit:
            coord_next = coord_m + tails[:, j + 1]
            y_arg = _at(solution, solution.y, m + 1, (coord_next + m + 1) // 2)
        else:
            y_arg = _at(solution, solution.y, m, node_m)
        weights = sh * s_m.astype(float) / ((m - k) * h)
        f_vals = problem.f((m + 1) * h, x_m, y_arg, z_m)
        total += h * float(np.mean(f_vals * weights))
    return total
