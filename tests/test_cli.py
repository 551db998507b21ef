import dataclasses

import numpy as np
import pytest

from rwbsde import checks, experiment, solver
from rwbsde.cli import main
from rwbsde.exit_time import cdf_series


def test_solve_prints_root_values(capsys):
    assert main(["solve", "--case", "square", "--n", "64"]) == 0
    out = capsys.readouterr().out
    assert "Y0 = " in out and "Z0 = " in out
    assert "exact Y(0,0) = " in out


def test_solve_implicit_scheme(capsys):
    assert main(["solve", "--case", "exp", "--n", "32", "--scheme", "implicit"]) == 0
    assert "Y0 = " in capsys.readouterr().out


@pytest.mark.parametrize("argv,printed", [
    (["solve", "--case", "square", "--n", "4", "--T", "3", "--scheme", "implicit"], "Y0 = "),
    (["convergence", "--case", "square", "--scheme", "implicit", "--T", "3", "--n", "4,8,16",
      "--M", "10", "--out", "x.csv"], "wrote x.csv"),
])
def test_implicit_commands_at_slow_contraction(argv, printed, capsys, monkeypatch, tmp_path):
    # h*lip_f = 0.75 at n = 4: the update shrinks by 0.75 per Picard
    # iteration and is still 4.1e-12 after 100, so the budget must grow
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert printed in capsys.readouterr().out


def test_convergence_defaults_are_the_config_defaults(monkeypatch, tmp_path):
    class Stop(Exception):
        pass

    def capture(config):
        seen.append(config)
        raise Stop

    seen = []
    monkeypatch.setattr(experiment, "run_mc", capture)
    with pytest.raises(Stop):
        main(["convergence", "--case", "square", "--out", str(tmp_path / "x.csv")])
    assert seen == [experiment.ExperimentConfig(case="square")]


def test_convergence_help_names_the_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["convergence", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())   # undo argparse's wrapping
    for f in dataclasses.fields(experiment.ExperimentConfig):
        if f.default is dataclasses.MISSING:
            continue
        shown = "T/2" if f.default is None else (
            ",".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default))
        assert f"(default: {shown})" in help_text, f.name


def test_tabulate_exit_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["tabulate-exit", "--h", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,F"
    assert len(lines) == 32770
    for row in (1, 300, 16385, 30000, 32769):
        t, f = map(float, lines[row].split(","))
        assert abs(f - cdf_series(t, 0.5)) <= 1e-15


@pytest.mark.parametrize("argv", [
    ["solve", "--case", "square", "--n", "0"],
    ["solve", "--case", "square", "--n", "4", "--T", "inf"],
    ["convergence", "--case", "square", "--n", "1,2", "--out", "unused.csv"],
    ["convergence", "--case", "square", "--n", "8,8,8", "--out", "unused.csv"],
    ["convergence", "--case", "square", "--seed", "-1", "--out", "unused.csv"],
    ["tabulate-exit", "--h", "0", "--out", "unused.csv"],
    ["convergence", "--case", "square", "--n", "50,100", "--M", "10", "--out", "unused.csv"],
    # h*lip_f >= 1 breaks the implicit contraction; an unsorted --n must not
    # run n = 4 (h = 0.75) before it refuses n = 3 (h = 1)
    ["solve", "--case", "square", "--n", "1", "--T", "2", "--scheme", "implicit"],
    ["convergence", "--case", "square", "--scheme", "implicit", "--T", "3", "--n", "4,3,2",
     "--out", "unused.csv"],
    # h * 30.19 overflows: the table's times would be inf
    ["tabulate-exit", "--h", "1e308", "--out", "unused.csv"],
    # h = 2e-307 at n = 50 would scale the table's first time below the normal doubles
    ["convergence", "--case", "square", "--T", "1e-305", "--n", "50,100,200", "--M", "10",
     "--out", "unused.csv"],
    # an --out that is empty, in a missing directory, or a directory itself
    ["convergence", "--case", "square", "--n", "8,16,32", "--M", "10", "--out", ""],
    ["tabulate-exit", "--h", "0.1", "--out", ""],
    ["convergence", "--case", "square", "--n", "8,16,32", "--M", "10", "--out", "missing/x.csv"],
    ["convergence", "--case", "square", "--n", "8,16,32", "--M", "10", "--out", "."],
    ["tabulate-exit", "--h", "0.1", "--out", "missing/y.csv"],
    ["tabulate-exit", "--h", "0.1", "--out", "."],
])
def test_invalid_values_are_usage_errors(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("rwbsde: error: ")
    assert list(tmp_path.iterdir()) == []


def test_bad_n_list_is_named(capsys, monkeypatch, tmp_path):
    # argparse's own message would name the parser function, not the list
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--case", "square", "--n", "5a,10", "--out", "unused.csv"])
    assert exc.value.code == 2
    assert "argument --n: bad n list '5a,10'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_stops_at_a_non_finite_exact_value(capsys):
    # the lattice root is finite at n = 2, but the truth overflows past
    # T = 202.8 (exp, e^{3.5T}) and T = 709.78 (sqrt, e^T): nothing is printed
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match=r"Y\(0,0\)=inf, Z\(0,0\)=inf"):
            main(["solve", "--case", "exp", "--T", "205", "--n", "2"])
        with pytest.raises(FloatingPointError, match=r"Y\(0,0\)=inf$"):
            main(["solve", "--case", "sqrt", "--T", "710", "--n", "2"])
    assert capsys.readouterr().out == ""


def test_solve_refuses_a_non_finite_exact_value_before_the_sweep(monkeypatch):
    # a sweep of n = 20000 levels would come first and count for nothing
    def never(*args, **kwargs):
        raise AssertionError("the lattice was swept")

    monkeypatch.setattr(solver, "solve_explicit", never)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="non-finite exact root at T=205"):
            main(["solve", "--case", "exp", "--T", "205", "--n", "20000"])


def test_convergence_writes_series(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = main([
        "convergence", "--case", "square", "--n", "8,16,32",
        "--M", "50", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# M=50") or "# M=50" in text
    assert "n,E_Y,SE_Y,E_Z,SE_Z" in text
    assert "# slope_Y=" in text
    assert "slope_Y" in capsys.readouterr().out


def test_equal_errors_have_a_zero_standard_error(tmp_path):
    # at t_eval = 0 every row sits at the root: each n's 5,000 squared errors
    # are one value, so their variance about the mean is exactly 0, and so
    # are the slopes' standard errors
    out = tmp_path / "t0.csv"
    assert main(["convergence", "--case", "square", "--t-eval", "0", "--n", "50,100,200",
                 "--M", "5000", "--out", str(out)]) == 0
    series, footer = experiment.parse_csv(out)
    assert [(row.se_y, row.se_z) for row in series.rows] == [(0.0, 0.0)] * 3
    assert footer["slope_se_Y"] == footer["slope_se_Z"] == 0.0


def test_convergence_prints_the_slope_flag(monkeypatch, tmp_path, capsys):
    # the flagged series of test_flagged_report_bytes_are_golden: its Y slope
    # sits above -alpha/2 + SLOPE_SLACK
    rows = tuple(experiment.ErrorRow(n=n, e_y=e, se_y=0.0, e_z=None, se_z=None)
                 for n, e in zip((10, 20, 40, 80), (1.0, 0.95, 0.91, 0.88)))
    series = experiment.ErrorSeries(rows=rows, meta={"alpha": 1.0})
    monkeypatch.setattr(experiment, "run_mc", lambda config: series)
    assert main(["convergence", "--case", "square", "--out", str(tmp_path / "x.csv")]) == 0
    slope_line = capsys.readouterr().out.splitlines()[0]
    assert slope_line.startswith("slope_Y = ")
    assert slope_line.endswith(f"  [flag: above -alpha/2 + {experiment.SLOPE_SLACK}]")


def test_convergence_stops_at_a_non_finite_error(tmp_path):
    # at T = 170 the squared errors overflow although the lattice and the
    # truth e^{3.5T} are finite; the run stops at n = 50, writes nothing and
    # warns of nothing
    out = tmp_path / "overflow.csv"
    with pytest.raises(FloatingPointError, match=r"ErrorRow\(n=50, e_y=inf"):
        main(["convergence", "--case", "exp", "--T", "170", "--n", "50,100,200",
              "--M", "200", "--seed", "1", "--out", str(out)])
    assert not out.exists()


def test_convergence_reports_overflowing_squares_without_a_warning(tmp_path):
    # at T = 147 some squared errors overflow and the finite ones sum past the
    # largest double; no np.errstate here, so a RuntimeWarning would fail the test
    out = tmp_path / "fsum.csv"
    with pytest.raises(FloatingPointError, match=r"ErrorRow\(n=50, e_y=inf"):
        main(["convergence", "--case", "exp", "--T", "147", "--n", "50,100,200",
              "--M", "4096", "--seed", "1", "--out", str(out)])
    assert not out.exists()


def test_verify_reports_every_check(monkeypatch, capsys):
    def passing():
        return checks.Check(1, "holds", True, "gap 0")

    def failing():
        return checks.Check(2, "breaks", False, "gap 1")

    monkeypatch.setattr(checks, "CHECKS", (passing, passing))
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["[PASS] criterion 1: holds  (gap 0)"] * 2

    monkeypatch.setattr(checks, "CHECKS", (passing, failing))
    assert main(["verify"]) == 1
    assert "[FAIL] criterion 2: breaks  (gap 1)" in capsys.readouterr().out.splitlines()
