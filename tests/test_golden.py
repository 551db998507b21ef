"""Golden bits: run_mc rows and lattice roots recorded as float.hex.

A refactor that claims to change no number must leave every value here
bit for bit; a change to the random-stream contract or to the arithmetic
of a layer re-records them on purpose.
"""
import pytest

from rwbsde import experiment
from rwbsde.benchmarks import make_case
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
    problem = case.problem(64)
    assert tuple(v.hex() for v in solve(problem).root()) == SQUARE_ROOTS_N64[scheme]
