"""The traced benchmark run wraps package functions and methods by name
(`benchmark/tracer.py`); a name that no longer resolves fails that run, so
the default suite checks the tracer's two tables here."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _tables():
    """The tracer's FUNCTIONS and METHODS literals, read without importing it."""
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                out[name] = ast.literal_eval(node.value)
    return out["FUNCTIONS"], out["METHODS"]


FUNCTIONS, METHODS = _tables()


@pytest.mark.parametrize("span", sorted(FUNCTIONS))
def test_traced_function_exists(span):
    modname, attr = FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(modname), attr, None))


@pytest.mark.parametrize("span", sorted(METHODS))
def test_traced_method_exists(span):
    # as the tracer wraps it: on the base class or a subclass in its module
    # that defines the method itself
    modname, clsname, attr = METHODS[span]
    module = importlib.import_module(modname)
    base = getattr(module, clsname, None)
    assert isinstance(base, type)
    assert any(isinstance(c, type) and issubclass(c, base) and callable(vars(c).get(attr))
               for c in vars(module).values())
