import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from rwbsde import experiment, solver
from rwbsde.benchmarks import make_case
from rwbsde.checks import SEED
from rwbsde.experiment import (
    ErrorRow,
    ErrorSeries,
    ExperimentConfig,
    emit_csv,
    parse_csv,
    regress_loglog,
    run_mc,
    slope_flag,
)


def test_config_defaults_and_validation():
    cfg = ExperimentConfig(case="square")
    assert cfg.t_eval == 0.5
    assert cfg.n_list == (50, 100, 200, 400, 800)
    with pytest.raises(ValueError):
        ExperimentConfig(case="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", n_list=(1, 50))
    for repeated in ((8, 8, 8), (8, 16, 8)):
        with pytest.raises(ValueError, match="once"):
            ExperimentConfig(case="square", n_list=repeated)
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", M=0)
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", t_eval=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", scheme="midpoint")
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", T=math.inf, t_eval=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(case="square", seed=-1)
    # whole numbers only: floats are refused, not truncated
    for bad in ({"n_list": (2.5, 4, 8)}, {"M": 2.5}, {"seed": 1.5}):
        with pytest.raises(TypeError):
            ExperimentConfig(case="square", **bad)
    cfg = ExperimentConfig(case="square", n_list=np.array([8, 16]), M=np.int64(3))
    assert cfg.n_list == (8, 16) and all(type(n) is int for n in cfg.n_list)
    assert type(cfg.M) is int and cfg.M == 3
    cfg = ExperimentConfig(case="square", n_list=(8, 16, 32), M=True, seed=False)
    assert type(cfg.M) is int and cfg.M == 1 and type(cfg.seed) is int and cfg.seed == 0
    # h = 2e-307 at n = 50 scales the exit-time table's first time below the
    # normal doubles: refused when the config is built, not at the first block
    with pytest.raises(ValueError, match="normal doubles"):
        ExperimentConfig(case="square", T=1e-305, n_list=(50, 100, 200))


def test_run_mc_rows_come_from_couple_block(monkeypatch):
    # one n's row rebuilt by hand from run_mc's stream layout: child j of the
    # master seed spawns one stream per block, and each block runs
    # couple_block, bridge_sample_batch on its bracket, evaluate_walks and
    # the exact (Y, Z)
    monkeypatch.setattr(experiment, "_BLOCK", 128)
    cfg = ExperimentConfig(case="square", n_list=(8, 16, 32), M=300, seed=13)
    j, n = 1, 16
    case = make_case("square", 1.0)
    problem = case.problem(n)
    k = n // 2
    t_k = k * problem.h
    solution = solver.solve_explicit(problem, levels=(k,))
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.n_list))[j].spawn(3)
    d2_y, d2_z = [], []
    for rows, stream in zip((128, 128, 44), streams):
        rng = np.random.default_rng(stream)
        s_k, _, tau_ends, walk_ends = experiment.couple_block(rng, rows, problem, t_k, (k,))
        b_tk = experiment.bridge_sample_batch(tau_ends, problem.sqrt_h * walk_ends, t_k,
                                              rng.standard_normal(rows))
        y_n, z_n = solver.evaluate_walks(solution, s_k[:, 0], k)
        d2_y.append(np.square(y_n - case.exact.y_fn(t_k, b_tk)))
        d2_z.append(np.square(z_n - case.exact.z_fn(t_k, b_tk)))
    by_hand = (experiment._mean_and_se(np.concatenate(d2_y))
               + experiment._mean_and_se(np.concatenate(d2_z)))
    row = run_mc(cfg).rows[j]
    assert row.n == n
    assert [v.hex() for v in by_hand] == [v.hex() for v in (row.e_y, row.se_y, row.e_z, row.se_z)]


def test_run_is_deterministic():
    cfg = ExperimentConfig(case="square", n_list=(8, 16), M=37, seed=5)
    a = run_mc(cfg)
    b = run_mc(cfg)
    assert a.rows == b.rows


def test_error_sums_are_exact_and_order_free():
    # np.sum loses the small terms next to 1e16 in one order but not the other
    values = [1e16] + [1.0] * 1000
    forward = experiment._mean_and_se(np.array(values))
    backward = experiment._mean_and_se(np.array(values[::-1]))
    assert [v.hex() for v in forward] == [v.hex() for v in backward]
    exact = sum(Fraction(v) for v in values) / len(values)
    assert forward[0] == float(exact)


def test_exact_sum_is_fsum_bit_for_bit():
    # many binades, from the subnormals up, with zeros among them; then one
    # inf, one NaN, and both infinities, which fsum refuses
    rng = np.random.default_rng(9)
    for size in (0, 1, 2, 3, 1000, 20000):
        x = np.ldexp(rng.standard_normal(size), rng.integers(-1100, 1000, size))
        x[rng.random(size) < 0.1] = 0.0
        tiny = np.ldexp(rng.random(size), rng.integers(-1080, -1010, size))
        squares = rng.standard_normal(size) ** 2 * 2.0 ** rng.integers(-60, 3, size)
        for values in (x, tiny, squares):
            assert experiment._exact_sum(values).hex() == math.fsum(values.tolist()).hex()
            if size <= 1000:   # and a quotient, rounded once
                exact = sum(map(Fraction, values.tolist())) / 7
                assert experiment._exact_sum(values, 7).hex() == float(exact).hex()
    x = rng.random(1000)
    for special in ([math.inf], [math.nan], [math.inf, math.nan], [-math.inf, 1e300]):
        values = np.append(x, special)
        assert experiment._exact_sum(values).hex() == math.fsum(values.tolist()).hex()
    for values in (np.array([math.inf, -math.inf]), np.append(x, [math.inf, 1.0, -math.inf])):
        with pytest.raises(ValueError, match="inf"):
            math.fsum(values.tolist())
        with pytest.raises(ValueError, match="inf"):
            experiment._exact_sum(values)


def test_error_sums_do_not_overflow_on_finite_errors():
    # the sums of finite squared errors, and their squares, can pass the
    # largest double where their mean and standard error do not; the sums are
    # taken in a power-of-two scale, which moves no bit of errors that do not
    # overflow
    assert experiment._mean_and_se(np.full(4, 1e308)) == (1e308, 0.0)
    mean, se = experiment._mean_and_se(np.array([1e200, 3e200]))
    assert mean == 2e200 and se == pytest.approx(1e200, rel=1e-15)
    d2 = np.random.default_rng(4).random(1000) * 50.0
    mean = float(sum(map(Fraction, d2.tolist())) / d2.size)
    var = float(sum(map(Fraction, ((d2 - mean) ** 2).tolist())) / (d2.size - 1))
    assert experiment._mean_and_se(d2) == (mean, math.sqrt(var / d2.size))


def test_single_replication_runs():
    cfg = ExperimentConfig(case="square", n_list=(8, 16, 32), M=1, seed=3)
    series = run_mc(cfg)
    assert all(row.se_y == 0.0 for row in series.rows)


def test_degenerate_evaluation_time_collapses_the_monte_carlo():
    cfg = ExperimentConfig(case="square", n_list=(16,), M=50, t_eval=0.0, seed=1)
    series = run_mc(cfg)
    case = make_case("square", 1.0)
    problem = case.problem(16)
    y00 = solver.solve_explicit(problem).y[0][0]
    expected = (y00 - case.exact.y_fn(0.0, 0.0)) ** 2
    row = series.rows[0]
    assert row.e_y == pytest.approx(expected, rel=1e-12)
    assert row.se_y == 0.0


def test_errors_decrease_with_n():
    cfg = ExperimentConfig(case="square", n_list=(25, 100, 400), M=4000, seed=9)
    rows = run_mc(cfg).rows
    drops = [rows[i].e_y > rows[i + 1].e_y for i in range(len(rows) - 1)]
    assert sum(drops) >= len(drops) - 1  # monotone trend, one inversion allowed


def test_skip_moves_no_error_beyond_noise(monkeypatch):
    # the default run skips each row to its window; at skip margin 10^9 every
    # row is stepped from column 0, from other draws of the same streams
    cfg = ExperimentConfig(case="square", n_list=(400, 800), seed=SEED)
    skipped = run_mc(cfg).rows
    monkeypatch.setattr(experiment, "_SKIP", 1e9)
    whole = run_mc(cfg).rows
    for a, b in zip(skipped, whole):
        for e, se in (("e_y", "se_y"), ("e_z", "se_z")):
            gap = abs(getattr(a, e) - getattr(b, e))
            assert gap <= 3.0 * math.hypot(getattr(a, se), getattr(b, se))


def test_sqrt_case_has_no_z_errors():
    cfg = ExperimentConfig(case="sqrt", n_list=(8, 16), M=10, seed=2)
    for row in run_mc(cfg).rows:
        assert row.e_z is None and row.se_z is None
        assert row.e_y >= 0.0


def _count_solves(monkeypatch):
    """Counting wrappers on the solver names run_mc looks up at call time."""
    calls = {"explicit": 0, "implicit": 0}
    for scheme in calls:
        name = f"solve_{scheme}"
        original = getattr(experiment, name)

        def counted(*args, _scheme=scheme, _original=original, **kwargs):
            calls[_scheme] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    return calls


def test_lattice_solved_once_per_n(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = ExperimentConfig(case="square", n_list=(8, 16, 32), M=25, seed=7)
    run_mc(cfg)
    assert calls == {"explicit": 3, "implicit": 0}


def test_implicit_scheme_is_wired_through(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = ExperimentConfig(case="square", n_list=(8,), M=5, seed=7, scheme="implicit")
    run_mc(cfg)
    assert calls == {"explicit": 0, "implicit": 1}


def _series_from(ns, errs):
    rows = tuple(ErrorRow(n=n, e_y=e, se_y=0.0, e_z=None, se_z=None) for n, e in zip(ns, errs))
    return ErrorSeries(rows=rows, meta={"alpha": 1.0})


def test_regression_recovers_exact_power_law():
    ns = (50, 100, 200, 400, 800)
    reg = regress_loglog(_series_from(ns, [7.0 * n**-0.5 for n in ns]))
    assert reg.slope == pytest.approx(-0.5, abs=1e-12)
    assert reg.r2 == pytest.approx(1.0, abs=1e-12)


def test_regression_propagates_the_monte_carlo_error():
    # an exact power law: no residual, and the slope's SE is the OLS weights
    # of log n applied to the stated relative errors se_n / e_n
    ns, rel = (50, 100, 200, 400, 800), (0.02, 0.03, 0.01, 0.04, 0.05)
    errs = [7.0 * n**-0.5 for n in ns]
    rows = tuple(ErrorRow(n=n, e_y=e, se_y=r * e) for n, e, r in zip(ns, errs, rel))
    reg = regress_loglog(ErrorSeries(rows=rows, meta={"alpha": 1.0}))
    x = [math.log(n) for n in ns]
    mean = sum(x) / len(x)
    sxx = sum((v - mean) ** 2 for v in x)
    assert reg.slope_se == pytest.approx(
        math.sqrt(sum(((v - mean) / sxx * r) ** 2 for v, r in zip(x, rel))), rel=1e-12)
    assert reg.chi2 == pytest.approx(0.0, abs=1e-20)
    # one row off the line by 2 of its SEs, the others on it: chi2 is the
    # squared residuals in units of those SEs
    off = ErrorRow(n=200, e_y=errs[2] * math.exp(2 * rel[2]), se_y=rel[2] * errs[2])
    bent = rows[:2] + (off,) + rows[3:]
    reg = regress_loglog(ErrorSeries(rows=bent, meta={"alpha": 1.0}))
    resid = [math.log(r.e_y) - (reg.slope * v + reg.intercept) for r, v in zip(bent, x)]
    expected = sum((d / (r.se_y / r.e_y)) ** 2 for d, r in zip(resid, bent))
    assert reg.chi2 == pytest.approx(expected, rel=1e-9) and reg.chi2 > 1.0


def test_regression_flat_series_has_zero_slope():
    reg = regress_loglog(_series_from((10, 20, 40, 80), [3.2] * 4))
    assert reg.slope == pytest.approx(0.0, abs=1e-14)


def test_regression_input_validation():
    with pytest.raises(ValueError):
        regress_loglog(_series_from((10, 20), [1.0, 0.5]))
    # three rows are not enough when only two n's are distinct
    with pytest.raises(ValueError, match="distinct"):
        regress_loglog(_series_from((10, 10, 20), [1.0, 0.9, 0.5]))
    with pytest.raises(ValueError, match="distinct"):
        regress_loglog(_series_from((8, 8, 8), [1.0, 0.9, 0.5]))
    with pytest.raises(ValueError):
        regress_loglog(_series_from((10, 20, 40), [1.0, 0.0, 0.5]))
    with pytest.raises(ValueError):
        regress_loglog(_series_from((10, 20, 40), [1.0, 0.9, 0.5]), "e_z")
    with pytest.raises(ValueError):
        regress_loglog(_series_from((10, 20, 40), [1.0, math.nan, 0.5]))
    with pytest.raises(ValueError):
        regress_loglog(_series_from((10, 20, 40), [1.0, math.inf, 0.5]))
    # a Z error without its standard error cannot weigh the fit
    rows = tuple(ErrorRow(n=n, e_y=1.0, se_y=0.1, e_z=1.0 / n, se_z=None) for n in (10, 20, 40))
    with pytest.raises(ValueError, match="se_z"):
        regress_loglog(ErrorSeries(rows=rows, meta={"alpha": 1.0}), "e_z")


def test_slope_flag():
    assert slope_flag(-0.1, alpha=1.0)
    assert not slope_flag(-0.45, alpha=1.0)
    assert not slope_flag(-0.2, alpha=0.5)


def test_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(case="square", n_list=(8, 16, 32), M=40, seed=11)
    series = run_mc(cfg)
    regs = {
        "Y": regress_loglog(series, "e_y"),
        "Z": regress_loglog(series, "e_z"),
    }
    out = tmp_path / "series.csv"
    emit_csv(series, regs, out)
    parsed, footer = parse_csv(out)
    assert parsed.rows == series.rows
    assert parsed.meta == series.meta
    assert "slope_Y" in footer
    assert footer["slope_Y"] == pytest.approx(regs["Y"].slope, abs=0)
    assert "theory_slope" in footer
    # a blank line reads as nothing
    out.write_text(out.read_text().replace("\n", "\n\n"))
    reread, reread_footer = parse_csv(out)
    assert (reread.rows, reread.meta, reread_footer) == (series.rows, series.meta, footer)


def test_csv_footer_fits_read_back_as_floats(tmp_path):
    # an exact power law with se = 0 writes r2_Y as "1" and slope_se_Y as "0"
    series = _series_from((10, 20, 40), [2.0 * n**-1.0 for n in (10, 20, 40)])
    reg = regress_loglog(series)
    out = tmp_path / "exact.csv"
    emit_csv(series, {"Y": reg}, out)
    assert "# r2_Y=1\n" in out.read_text() and "# slope_se_Y=0\n" in out.read_text()
    _, footer = parse_csv(out)
    fits = {f"{f.name}_Y": getattr(reg, f.name) for f in fields(reg)}
    assert {key: footer[key] for key in fits} == fits
    assert all(type(footer[key]) is float for key in (*fits, "theory_slope"))


def test_csv_absent_z_fields_are_empty(tmp_path):
    cfg = ExperimentConfig(case="sqrt", n_list=(8, 16, 32), M=10, seed=4)
    series = run_mc(cfg)
    out = tmp_path / "sqrt.csv"
    emit_csv(series, {"Y": regress_loglog(series, "e_y")}, out)
    body = out.read_text()
    data_lines = [l for l in body.splitlines() if l and not l.startswith("#") and not l.startswith("n,")]
    assert all(line.endswith(",,") for line in data_lines)
    assert "# slope_Y=" in body
    parsed, _ = parse_csv(out)
    assert parsed.rows == series.rows


@pytest.mark.parametrize("row,field", [
    (ErrorRow(10, math.nan, 0.0, None, None), "e_y"),
    (ErrorRow(10, 1.0, 0.1, math.inf, 0.1), "e_z"),
])
def test_csv_rejects_non_finite_rows(tmp_path, row, field):
    series = ErrorSeries(rows=(ErrorRow(5, 2.0, 0.2, 2.0, 0.2), row), meta={"alpha": 1.0})
    out = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"n=10 .*{field}"):
        emit_csv(series, {}, out)
    assert not out.exists()


def test_csv_footer_flags_shallow_slopes(tmp_path):
    series = _series_from((10, 20, 40, 80), [1.0, 0.95, 0.91, 0.88])
    reg = regress_loglog(series)
    out = tmp_path / "flat.csv"
    emit_csv(series, {"Y": reg}, out)
    assert "# flag_Y=" in out.read_text()


@pytest.mark.parametrize("data", ["8,,0.1,,", "8,1.0,,,", "8,1.0,0.1,", "8,1.0,0.1,,,", "8,1.0,inf,,"],
                         ids=["no_E_Y", "no_SE_Y", "short", "long", "inf_SE_Y"])
def test_csv_parse_refuses_a_missing_y_error_or_a_ragged_row(tmp_path, data):
    out = tmp_path / "bad.csv"
    out.write_text(f"# alpha=1.0\nn,E_Y,SE_Y,E_Z,SE_Z\n{data}\n")
    with pytest.raises(ValueError):
        parse_csv(out)
