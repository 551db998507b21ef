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
    (8, "0x1.8e1e9bee1a0aep-1", "0x1.96ce749a19a6cp-4", "0x1.c8d6f9b3b66c4p+0", "0x1.19c5ae9d96f30p-3"),
    (16, "0x1.1a0e7b445734ep+0", "0x1.5ca3412f1fa6dp-3", "0x1.89cd08945cc3ap+0", "0x1.0b9b90a82f853p-3"),
    (32, "0x1.eafca0e02be52p-2", "0x1.882b3796f7fc6p-4", "0x1.ac7d513695df6p-1", "0x1.89ac4e15b065ep-4"),
]
SQRT_EXPLICIT = [
    (8, "0x1.6c4637004c74ep-4", "0x1.93a7a000a1a6dp-8", None, None),
    (16, "0x1.ad6ecb2abefb5p-5", "0x1.328503133580bp-8", None, None),
    (32, "0x1.97895dad85471p-6", "0x1.bc6c917ff463fp-9", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.9fafe7f56a753p-1", "0x1.c0652fb2e26bdp-4", "0x1.92d0f2e1553fbp+0", "0x1.0a31ff83d280ep-3"),
    (16, "0x1.226817a2f4a2bp+0", "0x1.5b343157e97b1p-3", "0x1.772ffe1f0cf6fp+0", "0x1.03da8976ccf24p-3"),
    (32, "0x1.facf08a8efb09p-2", "0x1.9f873228d1864p-4", "0x1.a46e170883de8p-1", "0x1.8b82868acc948p-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.7e3dfa174572ep+0", "0x1.aa0fd3bd6bd3bp-3", "0x1.217d24cc17655p+1", "0x1.6f32f14a8a433p-3"),
    (16, "0x1.bf899e14db17fp-1", "0x1.92eb0be92ef33p-3", "0x1.3236c8d0f109fp+0", "0x1.068e400c1a199p-3"),
    (32, "0x1.2b8210a21cbc3p-1", "0x1.a2da091c2b9fdp-4", "0x1.9059e052f652fp-1", "0x1.3e59de8b453bbp-4"),
]
# n = 64, 128 and 256 at t = T/2: windows of columns 22..32, 50..64 and 109..128
SQUARE_EXPLICIT_TRUNCATED = [
    (64, "0x1.77d418d35d037p-2", "0x1.fb5c4386fc13ap-5", "0x1.2109b04be15a8p-1", "0x1.f4b385f50ad75p-5"),
    (128, "0x1.58d78827cd170p-2", "0x1.910f7893dade9p-5", "0x1.d04e16a8a5a61p-2", "0x1.4695fb23ddb30p-5"),
    (256, "0x1.902b8e5e16d95p-3", "0x1.ed2bd4a304369p-6", "0x1.34f260fc4103dp-2", "0x1.e951ebd9e363fp-6"),
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
    37: ("f1861439910b0caf36fe7cda70ba8ef7db9977f5e6af66b4dd632c9151cb0ce0",
         "b9ecf74364695a2298a41b3a1437d45fd48fdb4c1699097c34c2e878c733380a",
         "730c43cc025e6fd10d344513dda5fe408c13781995a179a35de6d335670c5da5"),
    64: ("7ac4631ee74a97b59085f92fc03815e140655648774193cbd1b285b9e521f34b",
         "ab1652d77178ce3ddeed07c6ef8b40183cfd6a20ba64e6a0cd1e4ba563e6483c",
         "54e77f8bf2adb9d8abf3b9840c55e594f8839daeb0f0c6becb82f527f901b68e"),
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
         "1209630309d95463cfd4f13f655ee92d9fa381998dfdb8a8e7b0e7e72019ec94"),
    64: ("5f6631aba2416ffbd9411b694011714e554a65473d71929b369f4bba751ba6bf",
         "7a751e56dede9dee62d9bef0e9fc21260cacbd05d440d5269f999b50cf63b07c",
         "e44ac1a70cb88132429895bfd2d3b10eb15a294383bd9b4b4dfd042264d768a9"),
}

# sha256 of emit_csv's file for the config of _run with fit_slopes' fits, and
# for a hand-made series whose Y slope is flagged (its se_y = 0 makes chi2_Y inf)
REPORT_SHA256 = {
    "square": "b8ad4cc0e5cd6c363ef084128623a964b66e74717c8cd37c8ba878cf7efa5706",
    "sqrt": "d0e1e0b0cd66784d83ea286faa8fdc163ba6481aa5e4cd0e9161a6c0e1748922",
    "flagged": "9d0751f3f419a93b3bccd6df79bb8bfa3e59ff5cbdd1369bbeed7ffaa61afcf4",
}
# rwbsde convergence's stdout for the square config of _run, its --out masked
CONVERGENCE_STDOUT = (
    "slope_Y = -0.3488  (r2 = 0.3348)  [flag: above -alpha/2 + 0.15]\n"
    "slope_Z = -0.5462  (r2 = 0.8904)\n"
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
