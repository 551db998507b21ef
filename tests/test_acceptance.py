"""Acceptance gate: every criterion asserts at its stated tolerance and
prints one pass/fail line (run with -s to see the lines as they pass).
Criteria 1-5 run the shared checks that `rwbsde verify` also runs; their
wall-time bounds live here."""
import math
import time

from rwbsde import checks
from rwbsde.benchmarks import make_case
from rwbsde.solver import solve_explicit, solve_implicit
from rwbsde.experiment import ExperimentConfig, regress_loglog, run_mc

T = checks.T
FULL_M = 20000
N_LIST = (50, 100, 200, 400, 800)
SEED = checks.SEED


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def _timed_check(check, bound_s):
    started = time.time()
    result = check()
    elapsed = time.time() - started
    _report(result.criterion, result.name, result.ok and elapsed < bound_s,
            f"{result.detail}, {elapsed:.2f}s")


def test_criterion_1_enumeration_oracle():
    _timed_check(checks.enumeration_oracle, 1.0)


def test_criterion_2_z_representation_identity():
    _timed_check(checks.z_representation, 10.0)


def test_criterion_3_exit_time_distribution():
    _timed_check(checks.exit_time_distribution, 5.0)


def test_criterion_4_skorohod_coupling():
    _timed_check(checks.skorohod_coupling, 10.0)


def test_criterion_5_benchmark_sanity():
    _timed_check(checks.benchmark_sanity, math.inf)


def test_criterion_6_scheme_gap_halves():
    case = make_case("square", T)
    gaps = {}
    for n in (100, 200):
        problem = case.problem(n)
        gaps[n] = abs(solve_implicit(problem).y[0][0] - solve_explicit(problem).y[0][0])
    ratio = gaps[200] / gaps[100]
    _report(6, "implicit/explicit root gap halves (n: 100 -> 200)",
            0.35 <= ratio <= 0.65, f"ratio {ratio:.3f}")


def _mc_slopes(case_name):
    cfg = ExperimentConfig(case=case_name, n_list=N_LIST, M=FULL_M, T=T,
                           t_eval=0.5, seed=SEED, scheme="explicit")
    series = run_mc(cfg)
    slope_y = regress_loglog(series, "e_y").slope
    slope_z = None
    if series.rows[0].e_z is not None:
        slope_z = regress_loglog(series, "e_z").slope
    return slope_y, slope_z


def test_criterion_7_square_case_rates():
    started = time.time()
    slope_y, slope_z = _mc_slopes("square")
    elapsed = time.time() - started
    _report(7, "square case slopes (reference -0.507 / -0.509)",
            -0.65 <= slope_y <= -0.30 and -0.70 <= slope_z <= -0.30 and elapsed < 600,
            f"Y {slope_y:+.3f}, Z {slope_z:+.3f}, {elapsed:.0f}s")


def test_criterion_8_exp_case_rates():
    started = time.time()
    slope_y, slope_z = _mc_slopes("exp")
    elapsed = time.time() - started
    _report(8, "exp case slopes (reference -0.505 / -0.515)",
            -0.75 <= slope_y <= -0.35 and -0.85 <= slope_z <= -0.40 and elapsed < 600,
            f"Y {slope_y:+.3f}, Z {slope_z:+.3f}, {elapsed:.0f}s")


def test_criterion_9_sqrt_case_rate():
    started = time.time()
    slope_y, slope_z = _mc_slopes("sqrt")
    elapsed = time.time() - started
    _report(9, "sqrt case slope (reference -0.56; theory bound -0.25)",
            -0.80 <= slope_y <= -0.25 and slope_z is None and elapsed < 600,
            f"Y {slope_y:+.3f}, {elapsed:.0f}s")
