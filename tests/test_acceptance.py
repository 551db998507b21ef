"""Acceptance gate: each criterion of `rwbsde.checks.CHECKS` passes within its
wall-time bound and prints its pass/fail line (run with -s to see the lines).
The checks and their tolerances live in `rwbsde.checks`, which `rwbsde
verify` runs too; only the wall-time bounds live here."""
import math
import time

from rwbsde import checks

# seconds per criterion; criteria 5 and 6 have no bound
WALL_S = {
    checks.enumeration_oracle: 1.0,
    checks.z_representation: 10.0,
    checks.exit_time_distribution: 5.0,
    checks.skorohod_coupling: 10.0,
    checks.benchmark_sanity: math.inf,
    checks.scheme_gap: math.inf,
    checks.square_rates: 600.0,
    checks.exp_rates: 600.0,
    checks.sqrt_rate: 600.0,
}


def _timed(check):
    started = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - started
    print(f"{result.line()}  {elapsed:.2f}s")
    assert result.ok, result.line()
    assert elapsed < WALL_S[check], f"criterion {result.criterion} took {elapsed:.2f}s"


def test_every_check_has_a_bound():
    assert tuple(WALL_S) == checks.CHECKS


def test_criterion_1_enumeration_oracle():
    _timed(checks.enumeration_oracle)


def test_criterion_2_z_representation_identity():
    _timed(checks.z_representation)


def test_criterion_3_exit_time_distribution():
    _timed(checks.exit_time_distribution)


def test_criterion_4_skorohod_coupling():
    _timed(checks.skorohod_coupling)


def test_criterion_5_benchmark_sanity():
    _timed(checks.benchmark_sanity)


def test_criterion_6_scheme_gap_halves():
    _timed(checks.scheme_gap)


def test_criterion_7_square_case_rates():
    _timed(checks.square_rates)


def test_criterion_8_exp_case_rates():
    _timed(checks.exp_rates)


def test_criterion_9_sqrt_case_rate():
    _timed(checks.sqrt_rate)
