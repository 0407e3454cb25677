"""The benchmark's tracer wraps qlower functions by name from outside the
package; these checks fail when a rename or a signature change in qlower
would silently break it."""

import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_wrapped_function_exists(tracing):
    for module, name, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(f"qlower.{module}"), name)), \
            f"qlower.{module}.{name}"


def test_observed_parameters_exist():
    from qlower.harness import check_holder, sup_error

    assert {"obj", "n_per_axis", "include_representatives"} <= set(
        inspect.signature(sup_error).parameters)
    assert "pairs" in inspect.signature(check_holder).parameters
