import numpy as np
import pytest

from gmacsec import SolverStall
from gmacsec.lp import _cloud_basis, _phase_one, maximize


def test_maximize_reaches_the_optimal_vertex():
    # max w0 + 2 w1 with w0 + w1 + w2 = 1, from the slack w2
    w = maximize(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]),
                 np.array([1.0, 2.0, 0.0]), [2])
    assert w.tolist() == [0.0, 1.0, 0.0]


def test_a_row_that_repeats_the_leading_ones_is_dropped():
    # the third row is the sum of the two leading rows, which the start
    # columns 0 and 1 meet; its artificial ends phase one at zero and
    # cannot be pivoted out, so its row goes
    rows = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
    rhs = np.array([1.0, 1.0, 2.0])
    W, basis, distance = _phase_one(rows, rhs, [0, 1])
    assert distance == 0.0 and W.shape == (3, 6)
    kept, kept_rhs, basis = _cloud_basis(W, rhs, basis, 4)
    assert np.array_equal(kept, rows[:2]) and kept_rhs.tolist() == [1.0, 1.0]
    assert sorted(basis) == [0, 1]
    w = maximize(rows, rhs, np.array([0.0, 0.0, 1.0, 2.0]), [0, 1])
    assert w.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_an_infeasible_lp_is_a_solver_stall():
    # w0 + w1 cannot be both 1 and 2
    rows = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SolverStall, match="no feasible point: phase one ends 1.000e"):
        maximize(rows, np.array([1.0, 2.0]), np.zeros(2), [0])
