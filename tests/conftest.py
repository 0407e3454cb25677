import signal
import threading
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import settings

import qlower.approx
from qlower import (
    ActivationKind,
    Network,
    WeightMatrix,
    build_approximator,
    builtin_targets,
)


TEST_TIME_LIMIT = 60  # seconds of wall time per test; the slowest takes a few

# Each hypothesis test draws its examples from a seed derived from its own
# code, so every run on one Python and hypothesis version draws the same
# ones; a test's own @settings keep its max_examples and deadline.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


class TimeLimitExceeded(BaseException):
    """A test ran over its time limit. Not an Exception, so no
    ``except Exception`` in the code under test can swallow it."""


@contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the body once it has run for ``seconds``,
    by SIGALRM; on exit, an enclosing limit is re-armed with what is left
    of it. Without SIGALRM, or off the main thread, it sets no limit."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran over its time limit of {seconds} s")

    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.fixture(autouse=True)
def _time_limit():
    """Every test fails, rather than hangs, once it has run TEST_TIME_LIMIT seconds."""
    with time_limit(TEST_TIME_LIMIT):
        yield


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
