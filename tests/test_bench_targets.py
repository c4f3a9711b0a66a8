"""Every function the benchmark tracer wraps must still exist.

`bench/tracing.py` patches the names in its TARGETS list by attribute
lookup; a renamed or removed function would only show up as a crash of
`bench/run.py --trace 1`.  This test makes it a test failure instead.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("mod_name,attr", [(t[0], t[1]) for t in _targets()])
def test_target_resolves(mod_name, attr):
    module = importlib.import_module(f"evowaves.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{attr} is not defined"
    else:
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr} is not defined"
