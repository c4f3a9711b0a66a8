"""Every function the benchmark tracer wraps must still exist, and still take its arguments.

`bench/tracing.py` patches the names in its TARGETS list by attribute
lookup; a renamed or removed function would only show up as a crash of
`bench/run.py --trace 1`.  Its counters also read the wrapped calls'
positional arguments and results (a transform's `.values`, the path of
`write_signal_csv`, the problem of `solve_timestep`), so a changed call
signature or result kind would crash only there.  These tests make both
test failures instead.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_DIR / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name,attr", [(t[0], t[1]) for t in tracing.TARGETS])
def test_target_resolves(mod_name, attr):
    module = importlib.import_module(f"evowaves.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{mod_name}.{attr} is not defined"
    else:
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr} is not defined"


def test_traced_solve_and_march(tmp_path):
    # what a traced benchmark round runs: the CLI's frequency solve, which writes
    # U.csv, and the causal march, both through the tracer's wrappers and counters
    from evowaves import cli, config, solver

    sc = config.load_scenario(str(ROOT / "bench/scenarios/memory.cfg"))
    prob = dataclasses.replace(sc, n=512, dt=sc.dt * sc.n / 512).build()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["solve", "--config", str(ROOT / "scenarios/default.cfg"), "--out", str(tmp_path)])
        solver.solve_timestep(prob)
    finally:
        tracer.uninstall()
    assert code == 0
    per_op = tracer.per_op(1)
    assert per_op["solver.solve_frequency_calls"] == 1
    assert per_op["transform.calls"] >= 2 and per_op["transform.mb_computed"] > 0
    assert per_op["signals.csv_mb"] == (tmp_path / "U.csv").stat().st_size / 1e6 > 0
    assert per_op["solver.timestep_steps"] == 511 and per_op["solver.solve_timestep_s"] > 0
