import math

import numpy as np
import pytest
from helpers import skeleton, walk_sums, zero_driver_problem

from rwbsde.solver import ENUMERATION_CAP, sign_matrix


def test_walk_single_up_step():
    assert skeleton([1], 1.0)[0].tolist() == [0.0, 1.0]


def test_walk_up_down_recombines():
    vals = skeleton([1, -1], 0.5)[0]
    assert vals[0] == 0.0
    assert vals[1] == math.sqrt(0.5)
    assert vals[2] == 0.0


def test_walk_all_up_endpoint():
    assert skeleton([1, 1, 1, 1], 0.25)[0, -1] == 4 * 0.5


def test_node_coordinate_examples():
    problem = zero_driver_problem(2.0, 2)
    assert problem.level_coordinates(2)[1] == 0.0
    assert problem.level_coordinates(2)[2] == 2.0
    assert zero_driver_problem(1.0, 4).level_coordinates(3)[0] == -1.5


def test_node_coordinate_rejects_out_of_range():
    problem = zero_driver_problem(3.0, 3)
    with pytest.raises(IndexError):
        problem.level_coordinates(4)
    with pytest.raises(IndexError):
        problem.level_coordinates(-1)
    with pytest.raises(TypeError):
        problem.level_coordinates(2.5)


def test_enumeration_counts():
    assert sign_matrix(1).shape == (2, 1)
    assert sign_matrix(3).shape == (8, 3)
    assert sign_matrix(10).shape == (1024, 10)


def test_enumeration_yields_each_sequence_once():
    seen = {tuple(row.tolist()) for row in sign_matrix(6)}
    assert len(seen) == 64
    assert all(set(row) <= {-1, 1} for row in seen)


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError):
        sign_matrix(ENUMERATION_CAP + 1)
    with pytest.raises(ValueError, match="m >= 0"):
        sign_matrix(-1)


def test_recombination_level_values():
    # walk value after k steps depends only on (#up - #down): k+1 distinct values
    n, h = 8, 0.125
    problem = zero_driver_problem(n * h, n)
    walks = math.sqrt(h) * walk_sums(sign_matrix(n))
    for k in (3, 5, 8):
        endpoints = set(walks[:, k].tolist())
        assert len(endpoints) == k + 1
        assert endpoints == set(problem.level_coordinates(k).tolist())


def test_node_parity_matches_level():
    problem = zero_driver_problem(7.0, 7)
    for k in range(problem.n + 1):
        coords = problem.level_coordinates(k) / problem.sqrt_h
        assert np.all((np.rint(coords).astype(int) - k) % 2 == 0)


@pytest.mark.parametrize("n", [1, 4, 9, 12])
def test_endpoint_variance_equals_horizon_exactly(n):
    h = zero_driver_problem(1.7, n).h
    ends = sign_matrix(n).sum(axis=1, dtype=np.int64)
    # mean of S^2 over all 2^n sign rows is exactly n (integer arithmetic)
    mean_sq = float((ends * ends).sum()) / 2**n
    assert mean_sq == float(n)
    assert h * mean_sq == n * h
