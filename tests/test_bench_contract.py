"""The benchmark in bench/ times cigarflow functions it wraps by name from
outside the package; a rename or removal must fail here, not in a later
traced benchmark run."""

import importlib
import inspect
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_wrapped_name_is_a_cigarflow_function():
    wrapped = runpy.run_path(str(TRACER))["WRAPPED"]  # compiles in memory, writes no bytecode
    missing = [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"cigarflow.{module}"), name, None))
    ]
    assert wrapped and not missing
