"""The entry points the benchmark's tracer wraps exist in rfsq.

``rfsqbench/tracing.py`` replaces rfsq functions by name when the
benchmark runs with ``--trace 1``; a name that no longer resolves breaks
that run. The tracer is loaded from its file, without importing the rest
of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rfsq import verify
from rfsq.params import AtomFieldParams

TRACING = Path(__file__).resolve().parents[1] / "rfsqbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("rfsqbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"rfsq.{module_name}")
        assert callable(getattr(module, attr, None)), f"rfsq.{module_name}.{attr}"


def test_parameter_validation_is_a_method():
    assert callable(AtomFieldParams.__dict__.get("__post_init__"))


def test_verify_checks_are_the_traced_ones(tracing):
    assert tuple(name for name, _ in verify.CHECKS) == tracing.VERIFY_CHECKS
