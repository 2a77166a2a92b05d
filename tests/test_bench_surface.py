"""The library surface the benchmark calls stays in place.

The benchmark's workloads (`bench/workloads.py`) call trcalc through its
module attributes; a rename there fails only when the benchmark runs.
This imports the workloads without writing bytecode under `bench/`, runs
every oracle-verify item against its recorded report digest, and runs the
first transition-sweep and tower-probe items of the seed-1 order.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    # registered first: its dataclasses look their module up in sys.modules
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name, count", [("oracle-verify", None), ("transition-sweep", 60), ("tower-probe", 300)])
def test_workload_items_pass(workloads, name, count):
    workload = workloads.WORKLOADS[name]
    runner = workload()
    items = workloads.make_items(workload, SEED)[:count]
    tally = workloads.Tally()
    failed = [item for item in items if not runner.run(item, tally)]
    assert items and not failed
    if name == "oracle-verify":
        assert len(tally.digests) == len(items) == len(workload.space())
