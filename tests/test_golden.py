"""Golden bits: run_mc rows and lattice roots recorded as float.hex, and the
convergence report's bytes.

A refactor that claims to change no number must leave every value here
bit for bit; a change to the random-stream contract or to the arithmetic
of a layer re-records them on purpose.
"""
import hashlib
import math

import numpy as np
import pytest
from helpers import bridged_block

from rwbsde import experiment
from rwbsde.benchmarks import make_case
from rwbsde.cli import main
from rwbsde.solver import solve_explicit, solve_implicit

SQUARE_EXPLICIT = [
    (8, "0x1.8e1e9bee1a0aep-1", "0x1.96ce749a19a6dp-4", "0x1.c8d6f9b3b66c4p+0", "0x1.19c5ae9d96f2fp-3"),
    (16, "0x1.1a0e7b445734fp+0", "0x1.5ca3412f1fa6dp-3", "0x1.89cd08945cc3bp+0", "0x1.0b9b90a82f853p-3"),
    (32, "0x1.97d68b3a548dbp-1", "0x1.f231dca786c9ep-3", "0x1.e7bd9f874f4c8p-1", "0x1.04066c5bdd1e7p-3"),
]
SQRT_EXPLICIT = [
    (8, "0x1.6c4637004c74ep-4", "0x1.93a7a000a1a6cp-8", None, None),
    (16, "0x1.ad6ecb2abefb6p-5", "0x1.328503133580cp-8", None, None),
    (32, "0x1.e7f995c50e9d2p-6", "0x1.243a738f3767fp-8", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.9fafe7f56a754p-1", "0x1.c0652fb2e26bep-4", "0x1.92d0f2e1553fcp+0", "0x1.0a31ff83d280ep-3"),
    (16, "0x1.226817a2f4a2cp+0", "0x1.5b343157e97b2p-3", "0x1.772ffe1f0cf6fp+0", "0x1.03da8976ccf24p-3"),
    (32, "0x1.9320321cfb793p-1", "0x1.e76de62e73b77p-3", "0x1.dbfecb46685b0p-1", "0x1.fcf7612bfe541p-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.7e3dfa1745730p+0", "0x1.aa0fd3bd6bd3dp-3", "0x1.217d24cc17654p+1", "0x1.6f32f14a8a435p-3"),
    (16, "0x1.bf899e14db180p-1", "0x1.92eb0be92ef34p-3", "0x1.3236c8d0f10a0p+0", "0x1.068e400c1a19ap-3"),
    (32, "0x1.a350d67b7b171p-1", "0x1.37abe2883298ep-2", "0x1.bae228372c17bp-1", "0x1.ca6137f718461p-4"),
]
# n = 64, 128 and 256 at t = T/2: windows of columns 22..32, 50..64 and 109..128
SQUARE_EXPLICIT_TRUNCATED = [
    (64, "0x1.d2d42fc91bca7p-2", "0x1.426655aa6338dp-4", "0x1.53a93b1d4c18bp-1", "0x1.e3f73c1287535p-5"),
    (128, "0x1.0c47c661e0f6ap-2", "0x1.631180fe5a008p-5", "0x1.718c0a6f66d15p-2", "0x1.1d426498c37c1p-5"),
    (256, "0x1.5a9f67cf6f10fp-2", "0x1.41eff0c30d1c4p-4", "0x1.5a348f40d59b1p-2", "0x1.449d0c2ccb0c8p-5"),
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
    (1000, "implicit"): ("0x1.5bf0ad72a09b9p+2", "0x1.5b6b173e3b72bp+2"),
}

# sha256 of float.hex of couple_block's whole (walks, taus) and of b_t bridged
# across its bracket as run_mc bridges it, 100 rows of the square case at
# t = 0.5 from default_rng(n)
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

# the same digests of a narrow call's (S_k, tau_k, b_t) at k = n // 2, whose
# window is columns 0..0, 11..18 and 22..32 at n = 1, 37 and 64
COUPLE_BLOCK_NARROW = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "602aaa6a63036366462fb88bc40e52aef6d0a0b34bc207a778bb3c60bc9211b4"),
    37: ("c5a8c8f8f4099ac0cf721dc3acab4011c4fd700a63f7a4490cb9051902060db5",
         "dd6f8dd9be1936910bb94d257189e9a0f1dbf247042b5a55d02e721efc476265",
         "5184a6d1cbc64520f73638e416d2e4cc9f0d3cf99cbfcbc0f838ec1cea632a73"),
    64: ("7608d8563ddf05c42bd77d3f786a209af984282c7d4e157d59ec89091d82e560",
         "7e6036e7cb74bb1c385eaff238b2ff3bdb520f3c767c3901ce890935c71b4fa6",
         "2919b7d5d562909d579566efbaeca37b85e9b29e66d4cdfd962329531bb55569"),
}
# and at skip margin 0, where it skips to column k: about half the rows are
# late, with tau_k past t, and bracketed by gamma bridges before column k (at
# n = 1 there is no skip, and the window is column 0 alone)
COUPLE_BLOCK_REDONE = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "602aaa6a63036366462fb88bc40e52aef6d0a0b34bc207a778bb3c60bc9211b4"),
    37: ("2f78241740f62b0e0e5a7814f9f8184c5c6d0e7837cf2f17849bfd0f00e936ca",
         "de2c5d3547ee92739b3e940c7c1ca0284eadce99d9803d981b225ad23dc4ebdd",
         "b6ac76814cf3094e73bb637cdb93a35d21fde7669ca014c2b11c92437c2c3570"),
    64: ("5f6631aba2416ffbd9411b694011714e554a65473d71929b369f4bba751ba6bf",
         "7a751e56dede9dee62d9bef0e9fc21260cacbd05d440d5269f999b50cf63b07c",
         "307d043af980e49be0eed25773d02b18965537b074a9f7e50272ad2e24841c25"),
}

# sha256 of emit_csv's file for the config of _run with fit_slopes' fits, and
# for a hand-made series whose Y slope is flagged (its se_y = 0 makes chi2_Y inf)
REPORT_SHA256 = {
    "square": "aad7f9096ffab9360ab09455bb51c3db678077e218cea94bc93d10a303ddde57",
    "sqrt": "906241948419c0ac588bc5b278341eab5df570147608f3a3e2e003cfef93961e",
    "flagged": "9d0751f3f419a93b3bccd6df79bb8bfa3e59ff5cbdd1369bbeed7ffaa61afcf4",
}
# rwbsde convergence's stdout for the square config of _run, its --out masked
CONVERGENCE_STDOUT = (
    "slope_Y = +0.0174  (r2 = 0.0038)  [flag: above -alpha/2 + 0.15]\n"
    "slope_Z = -0.4528  (r2 = 0.9153)\n"
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
    # at n = 8, 16 and 32 the windows start at columns 0, 2 and 9; here at 22,
    # 50 and 109, and about 1-2% of the rows are late
    assert _run("square", n_list=(64, 128, 256)) == SQUARE_EXPLICIT_TRUNCATED


def test_run_mc_rows_are_golden_across_blocks(monkeypatch):
    monkeypatch.setattr("rwbsde.experiment._BLOCK", 128)
    assert _run("square") == SQUARE_EXPLICIT_BLOCK_128


def test_run_mc_rows_are_golden_across_row_passes(monkeypatch):
    # passes of 1000 uniforms are 250, 166 and 142 rows at n = 8, 16 and 32
    # (windows of 4, 6 and 7 columns), so every 300-row block runs several
    # row passes and its last one is ragged
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
    the goldens, COUPLE_BLOCK_N and narrow_golden[n]; return that call's tau_k."""
    monkeypatch.setattr("rwbsde.experiment._PASS", pass_size)
    problem = make_case("square", 1.0).problem(n)
    walks, taus, b_t = bridged_block(np.random.default_rng(n), 100, problem, 0.5, range(n + 1))
    assert (_digest(walks), _digest(taus), _digest(b_t)) == COUPLE_BLOCK_N[n]
    k = n // 2
    s_k, tau_k, b_t_narrow = bridged_block(np.random.default_rng(n), 100, problem, 0.5, (k,))
    assert s_k.shape == tau_k.shape == (100, 1)
    assert (_digest(s_k), _digest(tau_k), _digest(b_t_narrow)) == narrow_golden[n]
    return tau_k


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
    # the uniforms of every sample_sigma call, as (rows, steps)
    shapes = []
    sample_sigma = experiment.sample_sigma

    def recorded(cdf, u):
        shapes.append(u.shape)
        return sample_sigma(cdf, u)

    monkeypatch.setattr("rwbsde.experiment.sample_sigma", recorded)
    tau_k = _narrow_digests(n, pass_size, monkeypatch, COUPLE_BLOCK_REDONE)
    # the whole paths' row passes, then the narrow call's empty window at
    # column k in one pass: each row is stepped once, none again from column 0
    assert [steps for _, steps in shapes] == [n] * (len(shapes) - 1) + [0]
    assert [sum(r * steps for r, steps in shapes[:-1]), math.prod(shapes[-1])] == [100 * n, 0]
    # a late row's bracket lies before column k, which bridge_sample_batch
    # took: it refuses a left end past t
    assert np.any(tau_k > 0.5) == (n > 1)
