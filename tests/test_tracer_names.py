"""The benchmark tracer patches evencob by name; every name must resolve.

`bench/tracing.py` lists in TRACED the module functions and class methods it
wraps.  A refactor that moves one of them would break `bench/run.py --trace 1`
with a KeyError or AttributeError, so this test reads TRACED (without
installing the tracer) and resolves each entry the way the tracer does.
"""

import importlib

import pytest

from oracles import BENCH, load_file

TRACED = load_file("bench_tracing", BENCH / "tracing.py").TRACED


def test_traced_table_is_not_empty():
    assert len(TRACED) >= 28


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_name_resolves(name):
    module_name, class_name, attr = TRACED[name]
    module = importlib.import_module(f"evencob.{module_name}")
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        # the tracer reads the class __dict__, so an inherited method would not do
        assert callable(vars(getattr(module, class_name))[attr])
