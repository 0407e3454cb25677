"""The per-test time limit that tests/conftest.py arms for every test."""

import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT, TimeLimitExceeded, time_limit

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


def remaining() -> float:
    return signal.getitimer(signal.ITIMER_REAL)[0]


def test_every_test_runs_under_the_limit():
    assert 0 < remaining() <= TEST_TIME_LIMIT


def test_limit_fires_and_restores_the_enclosing_one():
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match="time limit of 0.05 s"):
        with time_limit(0.05):
            time.sleep(10)
    assert time.monotonic() - start < 1
    assert 0 < remaining() <= TEST_TIME_LIMIT


def test_limit_is_not_an_exception():
    # so that code which catches Exception, such as a target evaluator's
    # wrapper, cannot turn a hang into a pass
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.05):
            try:
                time.sleep(10)
            except Exception:
                pass
