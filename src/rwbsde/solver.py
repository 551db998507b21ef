"""Backward dynamic programming for (Y, Z) on the walk lattice.

One backward sweep serves two per-level update rules. The explicit rule
advances the generator with the already-known next-level Y values and is
the default used by the Monte Carlo harness; the implicit rule solves a
per-node fixed point by Picard iteration and exists to measure the O(h) gap
between the two. Both evaluate the generator at time t_{k+1} with the state
at t_k.
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
        sweep checks the contraction condition h*lip_f < 1 up front.
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
        if self.lip_f is not None and not self.lip_f >= 0.0:  # also refuses NaN
            raise ValueError(f"need lip_f >= 0, got {self.lip_f}")
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

    y[k] and z[k] are level k for every level the sweep was asked to keep;
    every other level holds one shared, read-only, empty array. A kept
    level is never empty, since level k has k + 1 nodes.
    """

    problem: BsdeProblem
    y: tuple
    z: tuple
    scheme: str

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


def _levels(problem: BsdeProblem, rule: LevelRule) -> Iterator[tuple]:
    """(k, y_k, z_k) from k = n down to 0, with two levels alive at a time.

    Per node z_k[i] = (Y+ - Y-)/(2 sqrt(h)), and y_k = rule(k, t_{k+1}, x,
    Y+, Y-, z_k, (Y+ + Y-)/2), where Y+- are the next-level values above
    and below the node. Level n is the terminal level and has no z (None).
    """
    h, sh = problem.h, problem.sqrt_h
    y_k = _terminal_level(problem)
    yield problem.n, y_k, None
    for k in range(problem.n - 1, -1, -1):
        up, dn = y_k[1:], y_k[:-1]
        z_k = (up - dn) / (2.0 * sh)
        y_k = rule(k, (k + 1) * h, problem.level_coordinates(k), up, dn, z_k, 0.5 * (up + dn))
        yield k, y_k, z_k


def _sweep(problem: BsdeProblem, rule: LevelRule, scheme: str,
           levels: Iterable[int] = (0,)) -> SolutionLattice:
    """Backward sweep from the terminal level; rule gives Y at each level.

    Runs _levels once, so memory is O(n) plus the levels kept: y[k] and
    z[k] (z has no level n) are stored for each k in levels, and every
    other level is left empty. The root is checked whether kept or not;
    when it is not finite the levels are built once more and counted as
    they come, still in O(n) memory, and the error names the highest level
    with non-finite nodes.
    """
    n = problem.n
    keep = {operator.index(k) for k in levels}
    outside = sorted(k for k in keep if not 0 <= k <= n)
    if outside:
        raise IndexError(f"levels {outside} outside 0..{n}")
    y = [_DROPPED] * (n + 1)
    z = [_DROPPED] * (n + 1)   # z[n] is the terminal level's None, cut below
    for k, y_k, z_k in _levels(problem, rule):
        if k in keep:
            y[k], z[k] = y_k, z_k
    if not (np.isfinite(y_k[0]) and np.isfinite(z_k[0])):
        # failure path only, so a run that succeeds scans nothing
        for k, y_k, z_k in _levels(problem, rule):
            bad = np.count_nonzero(~np.isfinite(y_k) | ~np.isfinite(0.0 if z_k is None else z_k))
            if bad:
                raise FloatingPointError(
                    f"non-finite root at n={n}: level {k} is the highest with "
                    f"non-finite nodes ({bad} of {k + 1})"
                )
    return SolutionLattice(problem=problem, y=tuple(y), z=tuple(z[:n]), scheme=scheme)


def solve_explicit(problem: BsdeProblem, levels: Iterable[int] = (0,)) -> SolutionLattice:
    """Backward sweep with Y at t_{k+1} inside the generator.

    Per node y[k][i] = (Y+ + Y-)/2 + h*(f(t_{k+1}, x, Y+, z) + f(t_{k+1}, x, Y-, z))/2,
    the two-point conditional expectation over the next sign. Keeps the
    levels named in levels (the root by default; range(n + 1) keeps all)
    and holds two levels at a time besides, so memory is O(n) plus the kept
    levels. A root that is not finite raises FloatingPointError naming the
    highest level with non-finite nodes.
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
    reports it. Keeps the levels named in levels, as solve_explicit does.
    """
    check_contraction(problem)
    f, h = problem.f, problem.h
    q = None if problem.lip_f is None else h * problem.lip_f

    def rule(k, t, x, up, dn, z, base):
        yk = base
        # the iterates take turns in two buffers of this level, so the one
        # returned is never written again
        buffers = np.empty_like(base), np.empty_like(base)
        diff = np.empty_like(base)
        done, budget = 0, PICARD_MAX_ITER
        while done < budget:
            ynew = buffers[done % 2]
            np.multiply(h, f(t, x, yk, z), out=ynew)
            np.add(base, ynew, out=ynew)
            # sup |ynew - yk| without temporaries; maximum, unlike fmax,
            # keeps a NaN, so a NaN update never passes the tolerance
            np.subtract(ynew, yk, out=diff)
            delta = np.maximum.reduce(np.abs(diff, out=diff))
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
    wrong parity names no node and raises ValueError, and so does a level
    the sweep did not keep; sums that are not whole numbers raise TypeError.
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
    return _kept(solution.y, k)[node], _kept(solution.z, k)[node]


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
    the sweep must have kept them; a dropped level raises ValueError.
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
        z_m = _kept(solution.z, m)[node_m]
        if explicit:
            coord_next = coord_m + tails[:, j + 1]
            y_arg = _kept(solution.y, m + 1)[(coord_next + m + 1) // 2]
        else:
            y_arg = _kept(solution.y, m)[node_m]
        weights = sh * s_m.astype(float) / ((m - k) * h)
        f_vals = problem.f((m + 1) * h, x_m, y_arg, z_m)
        total += h * float(np.mean(f_vals * weights))
    return total
