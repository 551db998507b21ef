"""Golden bits: run_mc rows and lattice roots recorded as float.hex, and the
convergence report's bytes.

A refactor that claims to change no number must leave every value here
bit for bit; a change to the random-stream contract or to the arithmetic
of a layer re-records them on purpose.
"""
import hashlib

import numpy as np
import pytest

from rwbsde import experiment
from rwbsde.benchmarks import make_case
from rwbsde.cli import main
from rwbsde.solver import solve_explicit, solve_implicit

SQUARE_EXPLICIT = [
    (8, "0x1.668c7ec26bd02p+0", "0x1.1eeedfbea527ep-2", "0x1.2a1322c4b5089p+1", "0x1.c44f0df528a2fp-3"),
    (16, "0x1.01fb4c9d80c7fp+0", "0x1.8ca1c10d04512p-3", "0x1.5a7ecc48f87f1p+0", "0x1.f37b57f68c46fp-4"),
    (32, "0x1.4ecf6800fe163p-1", "0x1.8f7d8a9f6e1aep-4", "0x1.0bdb9ebf42245p+0", "0x1.8bd210aa7a344p-4"),
]
SQRT_EXPLICIT = [
    (8, "0x1.cd82c5aa76fe0p-4", "0x1.386f0327a3776p-7", None, None),
    (16, "0x1.b873b10d5fed2p-5", "0x1.42492a4d899b7p-8", None, None),
    (32, "0x1.08b277eb39808p-5", "0x1.c113a4811df75p-9", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.50bdf1f768296p+0", "0x1.07a092621d028p-2", "0x1.0e812a9becdb9p+1", "0x1.a520aa04602d6p-3"),
    (16, "0x1.0202145a2d094p+0", "0x1.73aa8f3810305p-3", "0x1.487a17c60e739p+0", "0x1.da388c320a2f2p-4"),
    (32, "0x1.45b0dcecb3589p-1", "0x1.78f0fef04c933p-4", "0x1.04812134b6b2fp+0", "0x1.830d20522624dp-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.3b7eb979d60ddp+0", "0x1.672681ae1d40bp-3", "0x1.1c7432bec5396p+1", "0x1.67466468ae8f2p-3"),
    (16, "0x1.e0e5761da38dcp+0", "0x1.a103cf0aa5661p-2", "0x1.a0988ca01131ap+0", "0x1.49b0fa7ff2a86p-3"),
    (32, "0x1.bb3117084d13dp-1", "0x1.b75c81803d0b2p-3", "0x1.07802fccbac6fp+0", "0x1.f4e9ec1d3241ep-4"),
]
# n = 64, 128 and 256 at t = T/2: windows of columns 0..62, 11..105 and 53..185
SQUARE_EXPLICIT_TRUNCATED = [
    (64, "0x1.ced3766b91fbap-2", "0x1.f40efa881d96bp-5", "0x1.43ee3102972b6p-1", "0x1.02e0b27b0e637p-4"),
    (128, "0x1.6f83524be811dp-2", "0x1.eec8bd4925d53p-5", "0x1.c104432718ac4p-2", "0x1.56b6a34ed4a84p-5"),
    (256, "0x1.0e0a6da0bc31ap-2", "0x1.f7cf23449f0d6p-5", "0x1.3a99c0789cf85p-2", "0x1.0d8bb853ac6f4p-5"),
]
SQUARE_ROOTS_N64 = {
    "explicit": ("0x1.515fd41c339ebp+2", "0x1.497d0ec5c1204p+2"),
    "implicit": ("0x1.5bf542e629c78p+2", "0x1.53d2fe1f65a78p+2"),
}
# both row parities at deep-lattice scale: level 0 has the parity of n
SQUARE_ROOTS_DEEP = {
    (999, "explicit"): ("0x1.5b3eaa6f60e74p+2", "0x1.5ab9366db949bp+2"),
    (999, "implicit"): ("0x1.5bf0ad751124bp+2", "0x1.5b6af506a0c44p+2"),
    (1000, "explicit"): ("0x1.5b3ed7eabd726p+2", "0x1.5ab9860024c3bp+2"),
    (1000, "implicit"): ("0x1.5bf0ad72a09bbp+2", "0x1.5b6b173e3b72bp+2"),
}

# sha256 of float.hex of couple_block's whole (walks, taus, b_t), 100 rows of
# the square case at t = 0.5 from default_rng(n)
COUPLE_BLOCK_N = {
    1: ("2740c958029024797fa517b256fb3f4ee7bf3573eba07ef477abaf14a68616f8",
        "48815fb0c0ca823d96a99a37ca27d68d4325aeb488a377e4d392903553609ebd",
        "35df72b7feb58663d03c57995dcf37b29b5d24da6aeb1303a09e11d922d39527"),
    37: ("1da12406e58b9e1601d19fa6a6909f3ec8507b0150464363e428f8b4e9c173b8",
         "2edc9aaa4fbd471ca7f2f3bc016074b6765b2f94f290261e7e12d767a4568a28",
         "5c1bc4f2b50b70b1374b9cea4bbc4e3ad02027418d82ae13f9e52bf16d6f71c4"),
    64: ("4a68a38b4e432ec2c49457a9a3dcd8f9abe8f7f5f7c384ad2a7c436f558d528c",
         "440154f2ec75a16a793a4ccc138060f58ce7ab656f3fd3d02ab6e01a83d5bd26",
         "e87f72fb40056e5b4c785ea9044268467bc4d63d15e8d37872c218763a02f819"),
}

# the same digests of a narrow call's (S_k, tau_k, b_t) at k = n // 2, where its
# window stops short of n: columns 0..62 at n = 64
COUPLE_BLOCK_NARROW = {
    64: ("8bbbde4497d1d79f7f57d8f0561fc9a1d20a3fa5e6acb69a4cb8ee30deb5e753",
         "96ebdd4ce56685b7288ce22c1bbdfe663dfeff05d4205f3c34a3922ebe7e4148",
         "edcb5ecc01932f4c9a6727e00283dfebd27e5fccbc706e1af5202ad5c48e215a"),
}
# and at skip margin 0 and reach -3, where it skips to column k and stops
# there: each row that skip lands past t is drawn again whole, and every other
# row steps on from k with fresh draws (at n = 1 there is no skip, only the
# step on)
COUPLE_BLOCK_REDONE = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "a9a78cbfb6a8df496a011182fc8ef8506e5084cae4eecc71a81f9bbb733aa6e7"),
    37: ("f53bec49f0f7d33496f4167d9261207242fe587e999089f989bb4d267604b82d",
         "6d596bd0600f54c1ec8af9598e2fc0b663d0119889a54e399096db1e58ccbf35",
         "b678db0a86f8d7d123f4816ea0e90bd4983a6e4d25efea7408723b06f59b5efb"),
    64: ("6695ee9a0869c18a1dfb3f7c224dcad84dfd52dcd9c26c33cf3caf46528c83eb",
         "8611af651659c83dbc4a2d8061e8d3f21ad7021c719ca92dd29afaefc1b8f34d",
         "738703770ed47a7f18e59655d1877c6ae08f1ab212f977485f6daa5d370bef41"),
}

# sha256 of emit_csv's file for the config of _run with fit_slopes' fits, and
# for a hand-made series whose Y slope is flagged (its se_y = 0 makes chi2_Y inf)
REPORT_SHA256 = {
    "square": "34284bc72ffbc04641aef6977db99eafb02b0f305563788745ba6f223e1a5029",
    "sqrt": "4719284762179477140b685862bdbfe0e792e4f602cf152f6280c00932222258",
    "flagged": "9d0751f3f419a93b3bccd6df79bb8bfa3e59ff5cbdd1369bbeed7ffaa61afcf4",
}
# rwbsde convergence's stdout for the square config of _run, its --out masked
CONVERGENCE_STDOUT = (
    "slope_Y = -0.5494  (r2 = 0.9939)\n"
    "slope_Z = -0.5771  (r2 = 0.9594)\n"
    "theory slope = -0.5000   wrote <out>\n"
)


def _digest(values):
    return hashlib.sha256(" ".join(float(v).hex() for v in np.ravel(values)).encode()).hexdigest()


def _rows_hex(series):
    return [
        (row.n,) + tuple(None if v is None else v.hex()
                         for v in (row.e_y, row.se_y, row.e_z, row.se_z))
        for row in series.rows
    ]


def _config(case, scheme="explicit", n_list=(8, 16, 32)):
    return experiment.ExperimentConfig(case=case, n_list=n_list, M=300,
                                       seed=2024, scheme=scheme)


def _run(case, scheme="explicit", n_list=(8, 16, 32)):
    return _rows_hex(experiment.run_mc(_config(case, scheme, n_list)))


def _report_sha256(series, regressions, path):
    experiment.emit_csv(series, regressions, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case,scheme,expected", [
    ("square", "explicit", SQUARE_EXPLICIT),
    ("sqrt", "explicit", SQRT_EXPLICIT),
    ("square", "implicit", SQUARE_IMPLICIT),
])
def test_run_mc_rows_are_golden(case, scheme, expected):
    assert _run(case, scheme) == expected


def test_run_mc_rows_are_golden_with_truncated_passes():
    # at n = 8, 16 and 32 a pass spans every column; here it stops short of n
    assert _run("square", n_list=(64, 128, 256)) == SQUARE_EXPLICIT_TRUNCATED


def test_run_mc_rows_are_golden_across_blocks(monkeypatch):
    monkeypatch.setattr("rwbsde.experiment._BLOCK", 128)
    assert _run("square") == SQUARE_EXPLICIT_BLOCK_128


def test_run_mc_rows_are_golden_across_row_passes(monkeypatch):
    # passes of 1000 uniforms are 125, 62 and 31 rows at n = 8, 16 and 32,
    # so every block runs several row passes and its last one is ragged
    monkeypatch.setattr("rwbsde.experiment._PASS", 1000)
    assert _run("square") == SQUARE_EXPLICIT
    monkeypatch.setattr("rwbsde.experiment._BLOCK", 128)
    assert _run("square") == SQUARE_EXPLICIT_BLOCK_128


@pytest.mark.parametrize("case", ["square", "sqrt"])
def test_report_bytes_are_golden(case, tmp_path):
    # the sqrt case has no Z truth: its Z fields are empty and it has no Z fit
    series = experiment.run_mc(_config(case))
    regressions = experiment.fit_slopes(series)
    assert _report_sha256(series, regressions, tmp_path / "r.csv") == REPORT_SHA256[case]


def test_flagged_report_bytes_are_golden(tmp_path):
    rows = tuple(experiment.ErrorRow(n=n, e_y=e, se_y=0.0, e_z=None, se_z=None)
                 for n, e in zip((10, 20, 40, 80), (1.0, 0.95, 0.91, 0.88)))
    series = experiment.ErrorSeries(rows=rows, meta={"alpha": 1.0})
    regressions = {"Y": experiment.regress_loglog(series)}
    assert _report_sha256(series, regressions, tmp_path / "r.csv") == REPORT_SHA256["flagged"]


def test_convergence_command_output_is_golden(capsys, tmp_path):
    out = tmp_path / "cli.csv"
    assert main(["convergence", "--case", "square", "--n", "8,16,32", "--M", "300",
                 "--seed", "2024", "--out", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "<out>") == CONVERGENCE_STDOUT
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256["square"]


def _narrow_digests(n, pass_size, monkeypatch, narrow_golden):
    """Check couple_block's whole paths and its call at column n // 2 against
    the goldens: the narrow call draws the whole path's bits where its window
    spans every column, and its own pinned ones where narrow_golden names n."""
    monkeypatch.setattr("rwbsde.experiment._PASS", pass_size)
    problem = make_case("square", 1.0).problem(n)
    walks, taus, b_t = experiment.couple_block(np.random.default_rng(n), 100, problem, 0.5,
                                               range(n + 1))
    assert (_digest(walks), _digest(taus), _digest(b_t)) == COUPLE_BLOCK_N[n]
    k = n // 2
    s_k, tau_k, b_t_narrow = experiment.couple_block(np.random.default_rng(n), 100, problem, 0.5,
                                                     (k,))
    assert s_k.shape == tau_k.shape == (100, 1)
    if n in narrow_golden:
        assert (_digest(s_k), _digest(tau_k), _digest(b_t_narrow)) == narrow_golden[n]
    else:
        assert experiment._window(problem, 0.5, np.array([k])) == (0, n)
        assert np.array_equal(s_k[:, 0], walks[:, k]) and np.array_equal(tau_k[:, 0], taus[:, k])
        assert _digest(b_t_narrow) == COUPLE_BLOCK_N[n][2]


@pytest.mark.parametrize("n", sorted(COUPLE_BLOCK_N))
@pytest.mark.parametrize("pass_size", [2**15, 1000])
def test_couple_block_is_golden(monkeypatch, n, pass_size):
    # passes of 1000 uniforms are 15 to 27 rows at n = 37 and 64, so each
    # call keeps its columns and brackets t across ragged passes
    _narrow_digests(n, pass_size, monkeypatch, COUPLE_BLOCK_NARROW)


@pytest.mark.parametrize("scheme,solve", [("explicit", solve_explicit), ("implicit", solve_implicit)])
def test_square_roots_are_golden(scheme, solve):
    case = make_case("square", 1.0)
    problem = case.problem(64)
    assert tuple(v.hex() for v in solve(problem).root()) == SQUARE_ROOTS_N64[scheme]


@pytest.mark.parametrize("n", [999, 1000])
@pytest.mark.parametrize("scheme,solve", [("explicit", solve_explicit), ("implicit", solve_implicit)])
def test_deep_square_roots_are_golden(scheme, solve, n):
    problem = make_case("square", 1.0).problem(n)
    assert tuple(v.hex() for v in solve(problem).root()) == SQUARE_ROOTS_DEEP[n, scheme]


@pytest.mark.parametrize("n", sorted(COUPLE_BLOCK_N))
@pytest.mark.parametrize("pass_size", [2**15, 1000])
def test_couple_block_is_golden_with_rows_redone(monkeypatch, n, pass_size):
    monkeypatch.setattr("rwbsde.experiment._SKIP", 0.0)
    monkeypatch.setattr("rwbsde.experiment._REACH", -3.0)
    # every stretch of steps couple_block draws, as (rows, steps)
    stretches = []
    step_on = experiment._step_on

    def recorded(rng, cdf, tau0, walk0, width, t, columns):
        stretches.append((tau0.size, width))
        return step_on(rng, cdf, tau0, walk0, width, t, columns)

    monkeypatch.setattr("rwbsde.experiment._step_on", recorded)
    _narrow_digests(n, pass_size, monkeypatch, COUPLE_BLOCK_REDONE)
    k = n // 2
    # the whole paths, then the narrow call's empty window at column k
    assert stretches[:2] == [(100, n), (100, 0)]
    if n == 1:
        assert stretches[2:] == [(100, 1)]   # every row steps on from column 0
    else:
        # rows whose tau_k <= t step on to n; the others are drawn again whole
        (on, on_steps), (again, again_steps) = stretches[2:]
        assert (on_steps, again_steps) == (n - k, n) and on + again == 100
        assert min(on, again) > 0
