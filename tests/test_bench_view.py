"""The benchmark tracer's view of the library: every name it wraps exists.

perfbench/tracer.py instruments transfarm by rebinding public functions
by name, so renaming or deleting one of them breaks the benchmark
without failing any library test.  These checks load the tracer's
target list and the package exports, and run nothing else.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import transfarm

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for name in tracer.MODULES:
        importlib.import_module(name)
    missing = [
        f"{home}.{attr}"
        for _, home, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []


def test_package_exports_resolve():
    assert [name for name in transfarm.__all__ if not hasattr(transfarm, name)] == []
