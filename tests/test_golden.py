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
    (16, "0x1.c31fbe2a97c72p-1", "0x1.1019e95597843p-3", "0x1.628aea37643ddp+0", "0x1.19cc3d58ad156p-3"),
    (32, "0x1.f7b6b553ab42cp-2", "0x1.70f6ed7c9b3e9p-4", "0x1.84d5bbf573393p-1", "0x1.1a60dd9efec6ap-4"),
]
SQRT_EXPLICIT = [
    (8, "0x1.6c4637004c74ep-4", "0x1.93a7a000a1a6cp-8", None, None),
    (16, "0x1.bd0473c8ec59ap-5", "0x1.674f3010f7d3ep-8", None, None),
    (32, "0x1.8c4467b6776bfp-6", "0x1.49cf9ff38f84dp-9", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.9fafe7f56a754p-1", "0x1.c0652fb2e26bep-4", "0x1.92d0f2e1553fcp+0", "0x1.0a31ff83d280ep-3"),
    (16, "0x1.d495d3a7d4b7dp-1", "0x1.2596429002ad7p-3", "0x1.578b4f433d1c0p+0", "0x1.14c57f09774bfp-3"),
    (32, "0x1.fc1ef832ec55ep-2", "0x1.7cb38cc29f8e6p-4", "0x1.7c13db143054ap-1", "0x1.1aa2b70077f59p-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.7e3dfa1745730p+0", "0x1.aa0fd3bd6bd3dp-3", "0x1.217d24cc17654p+1", "0x1.6f32f14a8a435p-3"),
    (16, "0x1.06127f335e181p+0", "0x1.6cdded2141b2ap-3", "0x1.6c79385cd138fp+0", "0x1.25227a850496ep-3"),
    (32, "0x1.adb6624e7a881p-1", "0x1.c9511033ce95fp-3", "0x1.95653d0bb5c1ap-1", "0x1.3a4f210440976p-4"),
]
# n = 64, 128 and 256 at t = T/2: windows of columns 0..32, 11..64 and 53..128
SQUARE_EXPLICIT_TRUNCATED = [
    (64, "0x1.2fcc8ef04cbc9p-1", "0x1.4a2a81719a83ep-3", "0x1.3482d45d18e17p-1", "0x1.f9c151407bfbcp-5"),
    (128, "0x1.a546b40876c28p-2", "0x1.a44e1d1a200efp-4", "0x1.f0deba76f03e3p-2", "0x1.adabe52813024p-5"),
    (256, "0x1.9297db2488053p-3", "0x1.fceb961dcacd6p-6", "0x1.4541fbfcd5c3bp-2", "0x1.41de04dfc7904p-5"),
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
# window is columns 0..k
COUPLE_BLOCK_NARROW = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "602aaa6a63036366462fb88bc40e52aef6d0a0b34bc207a778bb3c60bc9211b4"),
    37: ("6b16da2881149e8ea6d758e20342d4ad547b053046306070fd7f6833c2e60914",
         "781281c9bc92708f723cc4dfe07c6c823009f91178b1036ed603b853d3eba211",
         "e1efd3ae4f8d4fb801933fce332997a0efde4485d5b7d9d74df3b29308de6348"),
    64: ("0be84b60fd880d3709dbdc90e96bc61a8966ff8a7efc286ecd56aef8d1a3df4e",
         "242d406b71c97f5c21fcf23e1c4f6abe93c1b403fe3b23aaaddf1b44805be666",
         "2b1eed5d25a1837e183b63427bb385503195606986077b6b4bed83e022d188bd"),
}
# and at skip margin 0, where it skips to column k: tau_k is drawn again in
# each row whose skip lands past t, until none does (at n = 1 there is no
# skip, and the window is column 0 alone)
COUPLE_BLOCK_REDONE = {
    1: ("25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "25a9565d0048ee6e0f2cd4af565459ddb6f52d3256c1ca756d146cdae10e610b",
        "602aaa6a63036366462fb88bc40e52aef6d0a0b34bc207a778bb3c60bc9211b4"),
    37: ("2f78241740f62b0e0e5a7814f9f8184c5c6d0e7837cf2f17849bfd0f00e936ca",
         "5f39ab7d99869c25d164aea4c7f8265228c13ced4323959dcce8156e66443e33",
         "6aad97ff6397fb50e9297dd86d638a8633356ede38d06de2c9b5eeebd6de742d"),
    64: ("5f6631aba2416ffbd9411b694011714e554a65473d71929b369f4bba751ba6bf",
         "d11a944cb16e55fb6c986ee888e4608ec89b8796726ba1d689bd55cad19d81aa",
         "c8dd5f39efeb7831fbda828937990b8fe4612cfb2287c85f0fdf24d800f07783"),
}

# sha256 of emit_csv's file for the config of _run with fit_slopes' fits, and
# for a hand-made series whose Y slope is flagged (its se_y = 0 makes chi2_Y inf)
REPORT_SHA256 = {
    "square": "c168995d3585701602170a8368dd831931b9b84b01a02669d97aa96a2210bb1d",
    "sqrt": "b9d548157d25733254c04c121171eea7b063289207d40a09b4744070d37117dd",
    "flagged": "9d0751f3f419a93b3bccd6df79bb8bfa3e59ff5cbdd1369bbeed7ffaa61afcf4",
}
# rwbsde convergence's stdout for the square config of _run, its --out masked
CONVERGENCE_STDOUT = (
    "slope_Y = -0.3303  (r2 = 0.5566)  [flag: above -alpha/2 + 0.15]\n"
    "slope_Z = -0.6163  (r2 = 0.9478)\n"
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
    # at n = 8, 16 and 32 every row is stepped from column 0; here most skip ahead
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
    assert np.all(tau_k <= 0.5)
