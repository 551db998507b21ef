"""rwbsde benchmark: time the convergence study from outside the package.

    python3 perfbench/run.py --workload mc_square --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 55

The package is imported from src/ of the checkout that holds this file. With
--trace 0 the run reports the end-to-end metrics (run_s, setup_s,
peak_rss_mb); with --trace 1 it wraps the layer entry points and reports the
per-layer metrics. The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics. Spans, pass times and the
environment are written to .perfbench/ at exit. See perfbench/README.md.
"""
from __future__ import annotations

import os

# pinned before numpy loads: one BLAS/OpenMP thread, so a pass keeps to one core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPAN_KEYS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# set-up samples per untraced run, spread over its passes
SETUP_SAMPLES = 10
# timed passes per run, whatever --seconds says: a median of two at least,
# and with tracing one untraced and one traced pass
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

# one fresh interpreter per sample: import the package (CLI included) and
# build the workload's case; timed from inside, so interpreter start-up
# is not counted
SETUP_CODE = """
import time
t0 = time.perf_counter()
import rwbsde, rwbsde.cli
from rwbsde.benchmarks import make_case
make_case({case!r}, 1.0)
print(repr(time.perf_counter() - t0))
"""

# metric names and units, in report order, come from the benchmark spec
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
# layer seconds whose largest value names the layer a workload spends most in
LAYER_SECONDS = (
    "experiment.self_s", "exit_time.sample_sigma_s", "exit_time.tabulate_s",
    "coupling.bridge_s", "solver.solve_s", "benchmarks.exact_s", "benchmarks.make_case_s",
)


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rwbsde").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(case: str) -> float:
    """Seconds one fresh interpreter takes to import the package and build `case`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(case=case)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then time passes until the next one would overrun `seconds`.

    `seconds` counts from the start of the run, so it covers the warm-up and
    the set-up samples too. At least MIN_PASSES passes run, so a run can end
    later than `seconds`. With tracing, passes alternate untraced and traced,
    starting untraced. Without it, set-up samples are taken between passes.
    """
    started = time.perf_counter()
    workload.warm_up(seed)
    warm_up_s = time.perf_counter() - started

    tracer = Tracer() if trace else None
    setup, checks, times, traced_times, cpu_times, bits = [], [], [], [], [], None
    pass_id = 0
    while True:
        traced = trace and pass_id % 2 == 1
        t0, c0 = time.perf_counter(), time.process_time()
        if traced:
            with tracer.installed(), tracer.traced_pass(pass_id):
                result, pass_checks = workload.run_pass(seed)
        else:
            result, pass_checks = workload.run_pass(seed)
        elapsed = time.perf_counter() - t0
        cpu_times.append(time.process_time() - c0)
        (traced_times if traced else times).append(elapsed)
        if bits is None:
            bits = result
        elif result != bits:
            # a pass must reproduce the first pass bit for bit, traced or not
            pass_checks = [dataclasses.replace(c, ok=False, detail=c.detail + "; rows differ")
                           for c in pass_checks]
        checks += pass_checks
        pass_id += 1
        if not trace:
            # set-up samples are spread evenly over the run, so that their
            # median sees the machine over the same stretch as the passes do
            share = min(1.0, (time.perf_counter() - started) / seconds)
            while len(setup) < SETUP_SAMPLES * share:
                setup.append(measure_setup(workload.case))
        spent = time.perf_counter() - started
        if pass_id >= MIN_PASSES and spent + statistics.median(times + traced_times) > seconds:
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(workload.case))

    out = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "setup_samples_s": setup,
        "untraced_pass_s": times,
        "traced_pass_s": traced_times,
        "pass_cpu_s": cpu_times,
        "checks": [vars(c) for c in checks],
        "warm_up_s": warm_up_s,
        "wall_s": time.perf_counter() - started,
    }
    if trace:
        metrics, missing = layer_metrics(tracer, workload, times, traced_times)
        out["missing_spans"] = missing
        out["spans"] = [vars(s) for s in tracer.spans]
        largest = max(LAYER_SECONDS, key=lambda key: metrics[key])
        out["largest_layer"] = largest
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    out["metrics"] = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    out["attempted"] = len(checks)
    out["failed"] = sum(not c.ok for c in checks)
    return out


def tracing_overhead(untraced_times, traced_times) -> float:
    """Median of traced minus untraced time over adjacent pairs of passes.

    Pairing each traced pass with the untraced pass just before it keeps
    the machine's drift over the run out of the difference.
    """
    return statistics.median(t - u for u, t in zip(untraced_times, traced_times))


def layer_metrics(tracer, workload, untraced_times, traced_times) -> tuple:
    """Median over traced passes of each per-layer metric, plus missing spans."""
    pass_ids = sorted({s.pass_id for s in tracer.spans})
    per_pass = [tracer.pass_metrics(p) for p in pass_ids]
    # median_low: every reported value is one a pass measured
    metrics = {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = tracing_overhead(untraced_times, traced_times)
    missing = sorted({name for p in pass_ids for name in workload.spans
                      if tracer.span_calls(p)[name] == 0})
    metrics["trace.missing_spans"] = len(missing)
    return metrics, missing


def report(out: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"# workload {out['workload']} seed {out['seed']} trace {out['trace']}")
    print(f"# environment {json.dumps(out['environment'], sort_keys=True)}")
    missing = {key for span in out.get("missing_spans", ()) for key in SPAN_KEYS[span]}
    for key, entry in out["metrics"].items():
        value = entry["value"]
        shown = "missing" if key in missing else (
            str(value) if isinstance(value, int) else f"{value:.6g}")
        print(f"{key:40s} {shown:>14s} {entry['unit']}")
    if "largest_layer" in out:
        print(f"# largest layer: {out['largest_layer']}")
    for check in out["checks"]:
        if not check["ok"]:
            print(f"# FAILED {check['label']}: {check['detail']}")
    print(f"# operations: {out['attempted']} attempted, {out['failed']} failed")


def write_out(out: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{out['workload']}-seed{out['seed']}-trace{out['trace']}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    return path


def result_line(out: dict) -> str:
    return json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    })


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, entry in result["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "rwbsde" / "__init__.py").is_file():
        print(f"error: no rwbsde package under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    write_out(out)
    report(out)
    print(result_line(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
