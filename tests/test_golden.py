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
    (8, "0x1.8e1e9bee1a0aep-1", "0x1.96ce749a19a6cp-4", "0x1.c8d6f9b3b66c4p+0", "0x1.19c5ae9d96f2fp-3"),
    (16, "0x1.1a0e7b445734fp+0", "0x1.5ca3412f1fa6dp-3", "0x1.89cd08945cc3ap+0", "0x1.0b9b90a82f853p-3"),
    (32, "0x1.97d68b3a548dbp-1", "0x1.f231dca786c9ep-3", "0x1.e7bd9f874f4c8p-1", "0x1.04066c5bdd1e7p-3"),
]
SQRT_EXPLICIT = [
    (8, "0x1.6c4637004c74fp-4", "0x1.93a7a000a1a6cp-8", None, None),
    (16, "0x1.ad6ecb2abefb5p-5", "0x1.328503133580ap-8", None, None),
    (32, "0x1.e7f995c50e9d4p-6", "0x1.243a738f3767fp-8", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.9fafe7f56a754p-1", "0x1.c0652fb2e26bdp-4", "0x1.92d0f2e1553fbp+0", "0x1.0a31ff83d280ep-3"),
    (16, "0x1.226817a2f4a2cp+0", "0x1.5b343157e97b1p-3", "0x1.772ffe1f0cf6fp+0", "0x1.03da8976ccf24p-3"),
    (32, "0x1.9320321cfb793p-1", "0x1.e76de62e73b77p-3", "0x1.dbfecb46685b0p-1", "0x1.fcf7612bfe541p-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.7e3dfa174572ep+0", "0x1.aa0fd3bd6bd3bp-3", "0x1.217d24cc17654p+1", "0x1.6f32f14a8a433p-3"),
    (16, "0x1.bf899e14db180p-1", "0x1.92eb0be92ef33p-3", "0x1.3236c8d0f109fp+0", "0x1.068e400c1a199p-3"),
    (32, "0x1.a350d67b7b171p-1", "0x1.37abe2883298ep-2", "0x1.bae228372c17bp-1", "0x1.ca6137f718460p-4"),
]
# n = 64, 128 and 256 at t = T/2: windows of columns 22..32, 50..64 and 109..128
SQUARE_EXPLICIT_TRUNCATED = [
    (64, "0x1.d2d42fc91bca7p-2", "0x1.426655aa6338ep-4", "0x1.53a93b1d4c18cp-1", "0x1.e3f73c1287535p-5"),
    (128, "0x1.0c47c661e0f6ap-2", "0x1.631180fe5a008p-5", "0x1.718c0a6f66d17p-2", "0x1.1d426498c37c1p-5"),
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
        "7d00ff835391927a8e537d4b687c5ab187ebeb61658f3c3c4a940ed37f11ba32",
        "ed1d5f7e36a4612479397e800cdebb11198813768721eca5926ccd0dff8c5f97"),
    37: ("1da12406e58b9e1601d19fa6a6909f3ec8507b0150464363e428f8b4e9c173b8",
         "aeb6589733686f932f7c36613fa1a1c04d2f2fa07210621e2f61ceadee12a4e7",
         "1b115bcd7e34ba3fa90a36c0161e86b5955675812c897887b28accab99aa6e50"),
    64: ("4a68a38b4e432ec2c49457a9a3dcd8f9abe8f7f5f7c384ad2a7c436f558d528c",
         "fe03a93dab1792a8be7d5579e1303252a9875a52b347d294890ed99e4ebaac24",
         "bb0e8cdc934dfd70810da4d1ee17b9f6609924d7d16f4ae25dd85ba2f6a60933"),
}

# the same digests of a narrow call's (S_k, tau_k, b_t) at k = n // 2, whose
# window is columns 0..0, 11..18 and 22..32 at n = 1, 37 and 64
COUPLE_BLOCK_NARROW = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "602aaa6a63036366462fb88bc40e52aef6d0a0b34bc207a778bb3c60bc9211b4"),
    37: ("c5a8c8f8f4099ac0cf721dc3acab4011c4fd700a63f7a4490cb9051902060db5",
         "a813ed04cc2dd1934e9eadd4d1c5030cea9043e3661cf791bc407f0926926e27",
         "7c157122e983b69c320a95378b530ea5d5d6104e319a8fde0d315f0b30db33c8"),
    64: ("7608d8563ddf05c42bd77d3f786a209af984282c7d4e157d59ec89091d82e560",
         "9e6075fc195c5646a4454ca289e43449f2722ed4a580f428d89ecdec19a00b62",
         "f2c213379746beea555dc4cd4ea4e2458115fc48ee76396c2444fbdcc76b8135"),
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
    "square": "92f1b847f251dfeb25056b2beee466f8d174220c3a8e9553282e44e76a030b14",
    "sqrt": "9982417f196d0e8ae9cb3a521bbd30844cc1cd273cdc31ff2d106f8c0c7f6621",
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
