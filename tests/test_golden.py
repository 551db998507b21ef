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
    (8, "0x1.7e71fc0d57d29p+0", "0x1.f86f2c15784b2p-3", "0x1.25dd0040f586cp+1", "0x1.896c97ef3ea9ep-3"),
    (16, "0x1.d707a4d6b018cp-1", "0x1.b262bd2cac1d6p-3", "0x1.6d15030d2f82bp+0", "0x1.32672acffbf6ep-3"),
    (32, "0x1.79dda804f9c61p-1", "0x1.e4a63008fa12dp-4", "0x1.d931d4b098b5cp-1", "0x1.6a4d75af13fa8p-4"),
]
SQRT_EXPLICIT = [
    (8, "0x1.bddf8cb89773dp-4", "0x1.fe18101932865p-8", None, None),
    (16, "0x1.afbccadb96f1dp-5", "0x1.99627d425c9e7p-8", None, None),
    (32, "0x1.0b666f95d4a91p-5", "0x1.ac6294165c9b0p-9", None, None),
]
SQUARE_IMPLICIT = [
    (8, "0x1.85f83d5cccbf4p+0", "0x1.e8ec584c4edf7p-3", "0x1.0da99f19bce33p+1", "0x1.6f32cdcac2b70p-3"),
    (16, "0x1.bc99da5931bcdp-1", "0x1.a729b106e06edp-3", "0x1.517ef1b858189p+0", "0x1.26be9befdc1a5p-3"),
    (32, "0x1.8923bc654af38p-1", "0x1.ff108b361f213p-4", "0x1.d7081b485a0fdp-1", "0x1.6b4555b51df69p-4"),
]
# batches of 7 regroup the per-batch partial sums, which moves some last bits
SQUARE_EXPLICIT_BATCH_7 = [
    (8, "0x1.7e71fc0d57d29p+0", "0x1.f86f2c15784b2p-3", "0x1.25dd0040f586cp+1", "0x1.896c97ef3ea9fp-3"),
    (16, "0x1.d707a4d6b018cp-1", "0x1.b262bd2cac1d6p-3", "0x1.6d15030d2f82bp+0", "0x1.32672acffbf6ep-3"),
    (32, "0x1.79dda804f9c61p-1", "0x1.e4a63008fa12cp-4", "0x1.d931d4b098b5ap-1", "0x1.6a4d75af13fa8p-4"),
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


def test_run_mc_rows_are_golden_in_small_batches(monkeypatch):
    monkeypatch.setattr("rwbsde.experiment._BATCH", 7)
    assert _run("square") == SQUARE_EXPLICIT_BATCH_7


@pytest.mark.parametrize("scheme,solve", [("explicit", solve_explicit), ("implicit", solve_implicit)])
def test_square_roots_are_golden(scheme, solve):
    case = make_case("square", 1.0)
    problem = BsdeProblem(T=1.0, n=64, g=case.g, f=case.f, lip_f=case.lip_f)
    assert tuple(v.hex() for v in solve(problem).root()) == SQUARE_ROOTS_N64[scheme]
