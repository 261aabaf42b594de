"""The benchmark tracer wraps library names that must exist.

``bench/tracer.py`` wraps functions and classes by name, and its ``install``
fails on a missing function only in a traced benchmark run, so a rename in
the library is caught here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("lucascalc_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read the benchmark's source, leave its directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_traced_functions_exist(tracer):
    missing = [
        f"{short}.{name}"
        for short, table in tracer.FUNCTIONS.items()
        for name in table
        if not callable(getattr(importlib.import_module(f"lucascalc.{short}"), name, None))
    ]
    assert missing == []


def test_traced_classes_exist(tracer):
    missing = [
        f"{short}.{cls_name}"
        for short, cls_name in tracer.METHODS
        if not isinstance(getattr(importlib.import_module(f"lucascalc.{short}"), cls_name, None), type)
    ]
    assert missing == []
