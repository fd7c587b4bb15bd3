"""The functions and methods the benchmark's per-layer tracer reads by name.

``perfbench/run.py`` looks its per-layer metrics up by function name, and a
renamed function silently reads 0 there.  This module loads
``perfbench/tracing.py`` for its tables only; it never calls ``install``,
which patches the sqflows package for the whole process.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    # loaded without leaving bytecode among the benchmark's files
    spec = importlib.util.spec_from_file_location("perfbench_tracing_tables", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = _tracing()

# Function names perfbench/run.py reads from the traced call counts and times.
READ_BY_RUN = (
    "flows.flow_weight",
    "flows.evaluate_fgf",
    "flows.enumerate_flag_flows",
    "flows.enumerate_flows",
    "matchings.is_balanced",
    "counterexample.verify_P1_P2",
    "relations.evaluate_sides",
    "relations.symbolic_check",
)


@pytest.mark.parametrize("name", sorted({*READ_BY_RUN, *tracing.RESULT_COUNTERS}))
def test_traced_function_exists(name):
    # install() wraps exactly the public, non-generator functions of a layer
    layer, _, function = name.partition(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"sqflows.{layer}")
    obj = vars(module).get(function)
    assert not function.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
    assert not inspect.isgeneratorfunction(obj)


@pytest.mark.parametrize("module, cls, methods", [entry[:3] for entry in tracing.METHODS])
def test_traced_method_exists(module, cls, methods):
    klass = getattr(importlib.import_module(f"sqflows.{module}"), cls)
    for method in methods:
        assert inspect.isfunction(vars(klass).get(method)), (cls, method)


def test_fgf_call_exists():
    from sqflows.flows import FlowFunction

    assert inspect.isfunction(vars(FlowFunction).get("__call__"))


def test_fgf_memo_and_systems_generator_exist():
    # the tracer's fgf memo-hit and flows-enumerated counters read these
    # internals, and silently read 0 without them
    from sqflows import flows
    from sqflows.network import build_half_grid
    from sqflows.semiring import EXACT_INT

    assert inspect.isgeneratorfunction(flows._systems)
    f = flows.FlowFunction(build_half_grid(2), {}, EXACT_INT)
    assert type(f._memo) is dict
