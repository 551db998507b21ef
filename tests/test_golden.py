"""Golden bits: run_mc rows and lattice roots recorded as float.hex.

A refactor that claims to change no number must leave every value here
bit for bit; a change to the random-stream contract or to the arithmetic
of a layer re-records them on purpose.
"""
import pytest

from rwbsde import experiment
from rwbsde.benchmarks import make_case
from rwbsde.solver import BsdeProblem, solve_explicit, solve_implicit

SQUARE_EXPLICIT = [
    (8, "0x1.668cb40af0c0ep+0", "0x1.1eeed14f59836p-2", "0x1.2a1347bf9dd1ap+1", "0x1.c44f71ed9c65cp-3"),
    (16, "0x1.01fb2d4e7e707p+0", "0x1.8ca180fbc770dp-3", "0x1.5a7ecf78789b5p+0", "0x1.f37b59d4734b4p-4"),
    (32, "0x1.4ecf4229c31cfp-1", "0x1.8f7da0291a953p-4", "0x1.0bdba96179e5dp+0", "0x1.8bd23d56b0d0dp-4"),
]
SQRT_EXPLICIT = [
    (8, "0x1.cd82fba6dda9ap-4", "0x1.386f4063ceed9p-7", None, None),
    (16, "0x1.b873a9d91a4a0p-5", "0x1.42491f248a2e6p-8", None, None),
    (32, "0x1.08b2608b930a9p-5", "0x1.c11395d4ab4ebp-9", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.50be27520c760p+0", "0x1.07a08641fdf2ap-2", "0x1.0e814ff6125eep+1", "0x1.a5211481ebd24p-3"),
    (16, "0x1.0201ef776bc3ap+0", "0x1.73aa581d4ffacp-3", "0x1.487a15d4acb3ep+0", "0x1.da38972f466c7p-4"),
    (32, "0x1.45b0c572e425dp-1", "0x1.78f11309eb086p-4", "0x1.0481319356750p+0", "0x1.830d53ecb2125p-4"),
]
# blocks of 128 rows: M = 300 draws from three streams of 128, 128 and 44 rows
SQUARE_EXPLICIT_BLOCK_128 = [
    (8, "0x1.3b7f5e9eace34p+0", "0x1.6727b69e8f113p-3", "0x1.1c74621346dc4p+1", "0x1.6746a73acfaacp-3"),
    (16, "0x1.e0e6768928bd2p+0", "0x1.a104e42aa1e32p-2", "0x1.a098efaf01a28p+0", "0x1.49b1470b865c6p-3"),
    (32, "0x1.bb32decc2737dp-1", "0x1.b75e99c673c97p-3", "0x1.0780a690e82bfp+0", "0x1.f4ead5f33048fp-4"),
]
SQUARE_ROOTS_N64 = {
    "explicit": ("0x1.515fd41c339ebp+2", "0x1.497d0ec5c1204p+2"),
    "implicit": ("0x1.5bf542e629c78p+2", "0x1.53d2fe1f65a78p+2"),
}


def _rows_hex(series):
    return [
        (row.n,) + tuple(None if v is None else v.hex()
                         for v in (row.e_y, row.se_y, row.e_z, row.se_z))
        for row in series.rows
    ]


def _run(case, scheme="explicit"):
    cfg = experiment.ExperimentConfig(case=case, n_list=(8, 16, 32), M=300,
                                      seed=2024, scheme=scheme)
    return _rows_hex(experiment.run_mc(cfg))


@pytest.mark.parametrize("case,scheme,expected", [
    ("square", "explicit", SQUARE_EXPLICIT),
    ("sqrt", "explicit", SQRT_EXPLICIT),
    ("square", "implicit", SQUARE_IMPLICIT),
])
def test_run_mc_rows_are_golden(case, scheme, expected):
    assert _run(case, scheme) == expected


def test_run_mc_rows_are_golden_across_blocks(monkeypatch):
    monkeypatch.setattr("rwbsde.experiment._BLOCK", 128)
    assert _run("square") == SQUARE_EXPLICIT_BLOCK_128


@pytest.mark.parametrize("scheme,solve", [("explicit", solve_explicit), ("implicit", solve_implicit)])
def test_square_roots_are_golden(scheme, solve):
    case = make_case("square", 1.0)
    problem = BsdeProblem(T=1.0, n=64, g=case.g, f=case.f, lip_f=case.lip_f)
    assert tuple(v.hex() for v in solve(problem).root()) == SQUARE_ROOTS_N64[scheme]
