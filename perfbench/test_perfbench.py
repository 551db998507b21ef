"""Tests of the benchmark's own code: tracer, metric names, smoke runs.

Run from the repository root with

    python -m pytest -q perfbench/test_perfbench.py
"""
import dataclasses
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rwbsde import benchmarks, experiment, solver  # noqa: E402
from rwbsde.exit_time import tabulate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_wrap_forwards_arguments_and_return_value():
    seen = []
    sentinel = object()

    def fn(a, b, *, c):
        seen.append((a, b, c))
        return sentinel

    tracer = tracing.Tracer()
    wrapped = tracer.wrap(fn, "layer", lambda result, *args, **kwargs: seen.append(result))
    assert wrapped(1, [2], c="x") is sentinel
    assert seen == [(1, [2], "x"), sentinel]
    assert [s.name for s in tracer.spans] == ["layer", "trace.count"]


def test_installed_wrappers_return_what_the_layers_return_and_are_removed():
    names = ("sample_sigma", "tabulate", "bridge_sample_batch", "solve_explicit",
             "solve_implicit", "make_case", "run_mc")
    originals = {name: getattr(experiment, name) for name in names}
    cdf = tabulate(0.01)
    u = np.random.default_rng(3).random(500) * 0.999 + 5e-4
    b = np.linspace(-2.0, 2.0, 7)
    case = benchmarks.make_case("square", 1.0)
    plain = solver.solve_explicit(
        solver.BsdeProblem(T=1.0, n=20, g=case.g, f=case.f, lip_f=1.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(experiment, name) is not originals[name] for name in names)
        np.testing.assert_array_equal(experiment.sample_sigma(cdf, u),
                                      originals["sample_sigma"](cdf, u))
        traced_case = experiment.make_case("square", 1.0)
        traced = experiment.solve_explicit(
            solver.BsdeProblem(T=1.0, n=20, g=traced_case.g, f=traced_case.f, lip_f=1.0))
        np.testing.assert_array_equal(traced_case.exact.y_fn(0.5, b), case.exact.y_fn(0.5, b))
        np.testing.assert_array_equal(traced_case.exact.z_fn(0.5, b), case.exact.z_fn(0.5, b))
    for got, want in zip(traced.y + traced.z, plain.y + plain.z):
        np.testing.assert_array_equal(got, want)
    assert {name: getattr(experiment, name) for name in names} == originals
    counts = tracer.counts[0]
    assert counts["exit_time.uniforms"] == 500
    assert counts["solver.nodes"] == 21 * 22 // 2
    assert counts["solver.f_calls"] == 2 * 20
    assert counts["benchmarks.exact_points"] == 14


def test_nonfinite_nodes_are_counted_exactly():
    lattice = SimpleNamespace(
        y=(np.array([1.0, np.inf, -np.inf]), np.array([1e308, 1e308])),
        z=(np.array([np.nan, 0.0]),),
    )
    tracer = tracing.Tracer()
    tracer._on_solve(lattice, SimpleNamespace(n=2))
    # the 1e308 pair overflows its sum but is finite
    assert tracer.counts[0]["solver.nonfinite_nodes"] == 3
    assert tracer.counts[0]["solver.nodes"] == 6


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([], 0.0, 1.0) == 0.0
    assert tracing.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing.union_length([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_is_parent_minus_union_of_children():
    # parent [0, 10); children [1, 4), [3, 6) overlap; grandchild inside
    # a child must not be subtracted twice
    clock = FakeClock([0.0, 1.0, 2.0, 2.5, 4.0, 3.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock)
    with tracer.span("parent"):
        with tracer.span("a"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("b"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_time(tracer.spans, 0) == pytest.approx(10.0 - 5.0)
    assert tracing.self_time(tracer.spans, 1) == pytest.approx(3.0 - 0.5)


def test_metric_names_follow_the_contract_and_match_what_is_measured():
    names = list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS)
    assert len(set(names)) == len(names)
    for name in names + list(run.WORKLOAD_NAMES):
        assert NAME.fullmatch(name) and len(name) <= 64
    keys = set(tracing.Tracer().pass_metrics(0)) | {"trace.overhead_s", "trace.missing_spans"}
    assert keys == set(run.PER_LAYER_UNITS)
    for span_keys in tracing.SPAN_KEYS.values():
        assert set(span_keys) <= keys
    assert set(run.LAYER_SECONDS) <= keys
    assert set(run.END_TO_END_UNITS) == {"run_s", "setup_s", "peak_rss_mb"}
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_traced_run_of_each_workload_passes(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    out = run.run_workload(workload, seed=1, seconds=0.1, trace=True)
    assert out["attempted"] > 0 and out["failed"] == 0
    # passes alternate untraced and traced, starting untraced
    untraced, traced = len(out["untraced_pass_s"]), len(out["traced_pass_s"])
    assert traced >= 1 and untraced - traced in (0, 1)
    assert out["missing_spans"] == []
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert values["solver.calls"] > 0 and values["solver.nonfinite_nodes"] == 0
    assert set(values) == set(run.PER_LAYER_UNITS)


def test_overhead_pairs_each_traced_pass_with_the_untraced_pass_before_it():
    # the machine slows over the run; each pair still differs by 0.1 s
    untraced = [1.0, 2.0, 3.0]
    traced = [1.1, 2.1, 3.1]
    assert run.tracing_overhead(untraced, traced) == pytest.approx(0.1)


def test_untraced_run_spreads_its_set_up_samples_over_the_passes():
    workload = workloads.tiny(workloads.WORKLOADS["deep_lattice"])
    out = run.run_workload(workload, seed=1, seconds=0.1, trace=False)
    assert len(out["setup_samples_s"]) == run.SETUP_SAMPLES
    assert out["metrics"]["setup_s"]["value"] == statistics.median(out["setup_samples_s"])


def test_a_failed_check_counts_against_attempts():
    workload = dataclasses.replace(workloads.tiny(workloads.WORKLOADS["mc_square"]),
                                   windows={"e_y": (0.0, 1.0)})
    out = run.run_workload(workload, seed=1, seconds=0.1, trace=False)
    assert out["attempted"] == out["failed"] == 2
    result = json.loads(run.result_line(out))
    assert result["correct"] is False
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}


def test_zero_calls_on_an_exercised_layer_is_reported_missing():
    tracer = tracing.Tracer()
    with tracer.traced_pass(0):
        with tracer.span("solver.solve"):
            pass
    workload = workloads.WORKLOADS["deep_lattice"]
    metrics, missing = run.layer_metrics(tracer, workload, [1.0], [1.5])
    assert missing == ["benchmarks.exact", "benchmarks.make_case"]
    assert metrics["trace.missing_spans"] == 2


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_square", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
