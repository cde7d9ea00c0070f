"""The names the traced benchmark (``bench/tracer.py``) wraps still exist in
the package, so removing one fails here rather than in a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from opball.identities import CHECKS


@pytest.fixture
def tracer(monkeypatch):
    """``bench/tracer.py`` imported read-only: no bytecode cache is written
    under ``bench/``, and the bench modules leave ``sys.modules`` afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
        sys.modules.pop("workloads", None)


def test_traced_functions_exist(tracer):
    for mod, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"opball.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"opball.{mod}.{name}"


def test_traced_classes_have_post_init(tracer):
    for mod, names in tracer.CLASSES.items():
        module = importlib.import_module(f"opball.{mod}")
        for name in names:
            assert hasattr(getattr(module, name), "__post_init__"), f"opball.{mod}.{name}"


def test_identity_names_match_benchmark(tracer):
    workloads = sys.modules["workloads"]
    assert tuple(CHECKS) == workloads.IDENTITY_CHECKS
