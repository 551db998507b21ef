"""In-memory span tracer that wraps rwbsde's public functions from outside.

The tracer patches module attributes at the names callers look them up by
(`rwbsde.experiment.sample_sigma`, ...), so no file of the package changes.
Each wrapped call records one span (name, start, end, parent, pass id); a
counting hook, where one is attached, runs after the span closes and is
itself recorded as a `trace.count` span so that it never inflates the self
time of the layer around it. Spans stay in memory until the benchmark writes
them out at exit.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span name -> the per-layer metrics it feeds, the first being `<span>_s`,
# the sum of its durations; a workload that should reach a span but records
# no call reports these as missing, not as 0
SPAN_KEYS = {
    "experiment.run_mc": (
        "experiment.run_mc_s", "experiment.self_s", "experiment.replications",
        "experiment.path_steps", "experiment.self_ns_per_replication",
    ),
    "exit_time.sample_sigma": (
        "exit_time.sample_sigma_s", "exit_time.sample_sigma_calls", "exit_time.uniforms",
        "exit_time.sample_sigma_ns_per_uniform", "exit_time.past_table",
    ),
    "exit_time.tabulate": ("exit_time.tabulate_s", "exit_time.tabulate_calls"),
    "coupling.bridge": ("coupling.bridge_s", "coupling.rows", "coupling.past_ladder"),
    "solver.solve": (
        "solver.solve_s", "solver.calls", "solver.nodes", "solver.ns_per_node",
        "solver.f_calls", "solver.nonfinite_nodes",
    ),
    "benchmarks.exact": ("benchmarks.exact_s", "benchmarks.exact_points"),
    "benchmarks.make_case": ("benchmarks.make_case_s",),
}


@dataclasses.dataclass
class Span:
    pass_id: int
    name: str
    start: float
    end: float
    parent: int | None    # index into Tracer.spans


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(spans, index: int) -> float:
    """Duration of spans[index] minus the part its child spans cover."""
    parent = spans[index]
    children = [(s.start, s.end) for s in spans if s.parent == index]
    return (parent.end - parent.start) - union_length(children, parent.start, parent.end)


class Tracer:
    """Spans and counters of one benchmark process, grouped by pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.pass_id, name, self.clock(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    @contextmanager
    def traced_pass(self, pass_id: int):
        self.pass_id = pass_id
        with self.span("pass"):
            yield

    def count(self, key: str, amount=1) -> None:
        self.counts.setdefault(self.pass_id, Counter())[key] += int(amount)

    def wrap(self, fn, name: str, on_call=None):
        """fn inside a span; on_call(result, *args, **kwargs) counts after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                with self.span("trace.count"):
                    on_call(result, *args, **kwargs)
            return result

        return wrapper

    # -- counting hooks, one per wrapped layer entry point ------------------

    def _on_run_mc(self, result, config):
        self.count("experiment.replications", config.M * len(config.n_list))
        self.count("experiment.path_steps", config.M * sum(config.n_list))

    def _on_sample_sigma(self, result, cdf, u):
        uu = np.asarray(u)
        self.count("exit_time.sample_sigma_calls")
        self.count("exit_time.uniforms", uu.size)
        self.count("exit_time.past_table", np.count_nonzero(uu > cdf.values[-1]))

    def _on_tabulate(self, result, *args, **kwargs):
        self.count("exit_time.tabulate_calls")

    def _on_bridge(self, result, taus, skeletons, t, z):
        self.count("coupling.rows", taus.shape[0])
        self.count("coupling.past_ladder", np.count_nonzero(taus[:, -1] <= t))

    def _on_solve(self, result, problem, *args, **kwargs):
        n = problem.n
        self.count("solver.calls")
        self.count("solver.nodes", (n + 1) * (n + 2) // 2)
        bad = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for level in result.y + result.z:
                # a finite sum proves the level finite; count exactly otherwise
                if not math.isfinite(level.sum()):
                    bad += level.size - np.count_nonzero(np.isfinite(level))
        self.count("solver.nonfinite_nodes", bad)

    def _on_exact(self, result, t, b):
        self.count("benchmarks.exact_points", np.size(b))

    def _count_f(self, f):
        @functools.wraps(f)
        def counted(*args, **kwargs):
            self.count("solver.f_calls")
            return f(*args, **kwargs)

        return counted

    def _wrap_case(self, case):
        exact = case.exact
        z_fn = exact.z_fn
        if z_fn is not None:
            z_fn = self.wrap(z_fn, "benchmarks.exact", self._on_exact)
        exact = dataclasses.replace(
            exact, y_fn=self.wrap(exact.y_fn, "benchmarks.exact", self._on_exact), z_fn=z_fn
        )
        return dataclasses.replace(case, f=self._count_f(case.f), exact=exact)

    def _make_case_wrapper(self, make_case):
        @functools.wraps(make_case)
        def wrapper(*args, **kwargs):
            with self.span("benchmarks.make_case"):
                case = make_case(*args, **kwargs)
            with self.span("trace.count"):
                return self._wrap_case(case)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        from rwbsde import benchmarks, experiment, solver

        def spanned(name, hook=None):
            return lambda fn: self.wrap(fn, name, hook)

        solve = spanned("solver.solve", self._on_solve)
        targets = [
            (experiment, "run_mc", spanned("experiment.run_mc", self._on_run_mc)),
            (experiment, "sample_sigma", spanned("exit_time.sample_sigma", self._on_sample_sigma)),
            (experiment, "tabulate", spanned("exit_time.tabulate", self._on_tabulate)),
            (experiment, "bridge_sample_batch", spanned("coupling.bridge", self._on_bridge)),
            (experiment, "solve_explicit", solve),
            (experiment, "solve_implicit", solve),
            (experiment, "make_case", self._make_case_wrapper),
            # the deep-lattice workload calls these the way `rwbsde solve` does
            (solver, "solve_explicit", solve),
            (solver, "solve_implicit", solve),
            (benchmarks, "make_case", self._make_case_wrapper),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for module, attr, make_wrapper in targets:
                setattr(module, attr, make_wrapper(getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- aggregation ---------------------------------------------------------

    def span_calls(self, pass_id: int) -> Counter:
        return Counter(s.name for s in self.spans if s.pass_id == pass_id)

    def pass_metrics(self, pass_id: int) -> dict:
        """Per-layer seconds, counts and ratios of one traced pass."""
        totals = Counter()
        experiment_self = pass_s = top_level = 0.0
        root = None
        for i, s in enumerate(self.spans):
            if s.pass_id != pass_id:
                continue
            if s.name == "pass":
                root, pass_s = i, s.end - s.start
            else:
                totals[s.name + "_s"] += s.end - s.start
            if s.parent is not None and s.parent == root:
                top_level += s.end - s.start
            if s.name == "experiment.run_mc":
                experiment_self += self_time(self.spans, i)
        out = {f"{name}_s": float(totals[f"{name}_s"]) for name in (*SPAN_KEYS, "trace.count")}
        counts = self.counts.get(pass_id, Counter())
        for key in COUNTERS:
            out[key] = int(counts[key])
        out["experiment.self_s"] = experiment_self
        out["exit_time.sample_sigma_ns_per_uniform"] = _ns_per(
            out["exit_time.sample_sigma_s"], out["exit_time.uniforms"])
        out["experiment.self_ns_per_replication"] = _ns_per(
            experiment_self, out["experiment.replications"])
        out["solver.ns_per_node"] = _ns_per(out["solver.solve_s"], out["solver.nodes"])
        out["trace.run_s"] = pass_s
        out["trace.accounted_share"] = top_level / pass_s if pass_s > 0.0 else 0.0
        return out


COUNTERS = (
    "exit_time.sample_sigma_calls",
    "exit_time.uniforms",
    "exit_time.past_table",
    "exit_time.tabulate_calls",
    "coupling.rows",
    "coupling.past_ladder",
    "solver.calls",
    "solver.nodes",
    "solver.f_calls",
    "solver.nonfinite_nodes",
    "experiment.replications",
    "experiment.path_steps",
    "benchmarks.exact_points",
)


def _ns_per(seconds: float, count: int) -> float:
    return 1e9 * seconds / count if count else 0.0
