from fractions import Fraction

import pytest

import qlower.approx
from qlower import (
    ActivationKind,
    Network,
    WeightMatrix,
    build_approximator,
    builtin_targets,
)


def mat(rows):
    return WeightMatrix.from_rows(rows)


def relu_net(input_dim, *row_lists, scale=1):
    return Network(input_dim, tuple(mat(r) for r in row_lists),
                   ActivationKind.RELU, Fraction(scale))


def forbid_selector_builds(monkeypatch):
    """From here on in the test, building a selector matrix fails it."""
    def refuse(*args, **kwargs):
        raise AssertionError("selector matrix built")
    monkeypatch.setattr(qlower.approx, "build_selector_matrix", refuse)


@pytest.fixture
def example_net():
    # d=1, depth 1: relu(x - 1/2) - relu(x)/2; 5 nonzero weights.
    # Hand value at x=4/5: relu(3/10) - (1/2)(4/5) = 3/10 - 2/5 = -1/10.
    return relu_net(1, [["-1/2", 1], [0, 1]], [[1, "-1/2"]])


@pytest.fixture
def identity_net():
    # d=1, depth 0: x -> x.
    return relu_net(1, [[0, 1]])


@pytest.fixture(params=["selector_rows_swapped", "threshold_moved"])
def tampered_net(request):
    # The `mean` d=1 eps=1/4 approximator (M=4, 5 cells) with its hidden
    # layers changed but its readout kept, so only the net's own entries
    # can show that it no longer computes the approximator.
    net = build_approximator(builtin_targets(1)["mean"], Fraction(1, 4)).network
    w, v, u = net.matrices
    if request.param == "selector_rows_swapped":
        rows = [v.row(r) for r in range(v.rows)]
        rows[0], rows[4] = rows[4], rows[0]
        v = mat(rows)
    else:
        rows = [list(w.row(r)) for r in range(w.rows)]
        assert rows[1][0] == Fraction(-1, 5)
        rows[1][0] = Fraction(-1, 2)
        w = mat(rows)
    return Network(1, (w, v, u), ActivationKind.INDICATOR01)
