"""The traced benchmark run (perfbench/tracing.py) wraps gasnetsim's layer
functions by name; these tests fail when a refactor moves one of them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve():
    tracing = _tracing()
    assert tracing.LAYER_FUNCTIONS
    for mod, qual in tracing.LAYER_FUNCTIONS:
        module = importlib.import_module(f"gasnetsim.{mod}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{mod}.{qual}"
        else:
            assert callable(getattr(module, qual, None)), f"{mod}.{qual}"
    for mod in tracing.MODULES:
        importlib.import_module(f"gasnetsim.{mod}")


@pytest.mark.parametrize(
    "mod, attr",
    [("run", "assemble"), ("cli", "parse_network_file"), ("cli", "parse_scenario_file"),
     ("fileio", "make_boundary_control"), ("cli", "run_cli")],
)
def test_setup_timing_hooks_are_module_attributes(mod, attr):
    assert callable(getattr(importlib.import_module(f"gasnetsim.{mod}"), attr))
