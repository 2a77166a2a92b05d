"""Tests of the benchmark's own machinery: the tail rule, span self time,
failure counting, absent traced names and BENCHMARK.json consistency.

    python3 -m pytest bench/tests
"""

import gc
import json
import sys
import types
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize(
    "n, pct, rank, beyond",
    [(1000, 99.0, 990, 10), (999, 90.0, 900, 99), (10000, 99.9, 9990, 10), (20, 50.0, 10, 10), (21, 50.0, 11, 10)],
)
def test_tail_is_highest_rung_with_ten_beyond(n, pct, rank, beyond):
    samples = list(range(1, n + 1))[::-1]  # order must not matter
    got_pct, value, got_beyond = run.tail_latency(samples)
    assert (got_pct, value, got_beyond) == (pct, rank, beyond)
    assert sum(1 for x in samples if x > value) == beyond >= run.MIN_BEYOND


def test_tail_below_twenty_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


# -- span self time ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fakepkg(monkeypatch):
    """Package ``fakepkg`` with modules a (leaf, mid, Thing) and b, which
    imports ``mid`` from a by name."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    a = types.ModuleType("fakepkg.a")
    a.clock = clock
    exec(
        "def leaf():\n"
        "    clock.now += 2\n"
        "def mid():\n"
        "    clock.now += 1\n"
        "    leaf()\n"
        "    clock.now += 3\n"
        "    leaf()\n"
        "    return 'mid'\n"
        "class Thing:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        clock.now += 7\n"
        "        return cls()\n"
        "    def work(self):\n"
        "        clock.now += 11\n"
        "def boom():\n"
        "    clock.now += 1\n"
        "    raise ValueError('boom')\n",
        a.__dict__,
    )
    b = types.ModuleType("fakepkg.b")
    b.clock = clock
    b.mid = a.mid
    exec("def top():\n    clock.now += 5\n    return mid()\n", b.__dict__)
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return clock, a, b


def test_self_time_on_nested_span_tree(fakepkg):
    clock, a, b = fakepkg
    targets = ("a.leaf", "a.mid", "b.top", "a.Thing.make", "a.Thing.work")
    with tracing.Tracer("fakepkg", targets, clock=clock) as tracer:
        assert b.top() == "mid"  # top -> mid (bound by name in b) -> leaf x2
        thing = a.Thing.make()
        thing.work()
    assert tracer.calls == {"a.leaf": 2, "a.mid": 1, "b.top": 1, "a.Thing.make": 1, "a.Thing.work": 1}
    assert tracer.self_s == {"a.leaf": 4.0, "a.mid": 4.0, "b.top": 5.0, "a.Thing.make": 7.0, "a.Thing.work": 11.0}
    assert tracer.module_self_s("a") == 26.0
    assert tracer.module_self_s("b") == 5.0
    assert tracer.absent == []


def test_span_closes_on_exception_and_parent_excludes_it(fakepkg):
    clock, a, b = fakepkg
    exec("def guarded():\n    try:\n        boom()\n    except ValueError:\n        clock.now += 4\n", a.__dict__)
    with tracing.Tracer("fakepkg", ("a.boom", "a.guarded"), clock=clock) as tracer:
        a.guarded()
    assert tracer.calls == {"a.boom": 1, "a.guarded": 1}
    assert tracer.self_s == {"a.boom": 1.0, "a.guarded": 4.0}


def test_observer_time_is_charged_to_no_span(fakepkg):
    clock, a, b = fakepkg

    def slow_observer(args, kwargs, result, totals):
        clock.now += 100
        totals["seen"] = totals.get("seen", 0) + 1

    tracer = tracing.Tracer("fakepkg", ("a.leaf", "a.mid"), observers={"a.leaf": slow_observer}, clock=clock)
    with tracer:
        a.mid()
    assert tracer.self_s == {"a.leaf": 4.0, "a.mid": 4.0}
    assert tracer.totals == {"seen": 2}


def test_uninstall_restores_every_binding(fakepkg):
    clock, a, b = fakepkg
    originals = (a.mid, b.mid, a.Thing.__dict__["make"])
    with tracing.Tracer("fakepkg", ("a.mid", "a.Thing.make"), clock=clock):
        assert a.mid is b.mid is not originals[0]
    assert (a.mid, b.mid, a.Thing.__dict__["make"]) == originals


# -- absent names ------------------------------------------------------------

def test_absent_names_are_reported_not_raised(fakepkg):
    clock, a, b = fakepkg
    targets = ("a.leaf", "a.gone", "a.Thing.gone", "a.Nope.work", "nomodule.f")
    with tracing.Tracer("fakepkg", targets, clock=clock) as tracer:
        a.leaf()
    assert tracer.absent == ["a.gone", "a.Thing.gone", "a.Nope.work", "nomodule.f"]
    assert tracer.calls == {"a.leaf": 1}


def test_per_layer_metrics_read_zero_for_absent_functions(fakepkg):
    with tracing.Tracer("fakepkg") as tracer:  # none of trcalc's names exist here
        pass
    assert tracer.absent == list(tracing.TARGETS)
    metrics = run._per_layer(tracer, workloads.Tally(), items=10)
    assert set(metrics) | {"tracing.overhead_frac"} == {name for name, _, _ in run.per_layer_spec()}
    assert all(v == 0 for v in metrics.values())


def test_tracer_rebinds_names_imported_from_the_defining_module():
    from trcalc import padic, prosystem, syntomic

    original = syntomic.s_function
    with tracing.Tracer("trcalc", ("syntomic.s_function", "padic.MultiIndex.from_dict")) as tracer:
        assert prosystem.s_function is syntomic.s_function is not original
        prosystem.ml_bound(prosystem.TruncationParams(3, 2, 1), 1)
        padic.MultiIndex.from_dict({})
    # from_dict: once per loop step of s_function (s = 0, 1) plus the direct call
    assert tracer.calls == {"syntomic.s_function": 1, "padic.MultiIndex.from_dict": 3}
    assert prosystem.s_function is syntomic.s_function is original


# -- failure counting --------------------------------------------------------

def test_failed_items_count_checks_and_exceptions():
    def run_item(item):
        if item == 3:
            raise ArithmeticError("injected")
        return item not in (5, 7)

    loop = run.run_loop(list(range(10)), run_item, seconds=0)
    assert (loop.attempted, loop.failed, loop.passes) == (10, 3, 1)


def test_a_failed_item_makes_the_result_incorrect_and_the_exit_nonzero(capsys):
    status = run._report(False, 10, 3, {}, {})
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert last == {"correct": False, "attempted": 10, "failed": 3, "metrics": {}}


def test_loop_runs_whole_passes_until_the_time_is_up():
    clock = FakeClock()

    def run_item(item):
        clock.now += 1.0
        return True

    loop = run.run_loop([1, 2, 3], run_item, seconds=7, clock=clock, pace=lambda: 1.0)
    assert (loop.passes, loop.attempted, loop.busy) == (3, 9, 9.0)
    loop = run.run_loop([1, 2, 3], run_item, seconds=0, clock=clock, pace=lambda: 1.0, min_passes=2)
    assert loop.passes == 2


def test_kernel_runs_around_items_at_the_interval():
    clock = FakeClock()
    kernel_at = []

    def pace():
        kernel_at.append(clock.now)
        return 1.0

    def run_item(cost):
        clock.now += cost
        return True

    step = reference.INTERVAL_S
    run.run_loop([step / 2] * 5, run_item, seconds=0, clock=clock, pace=pace)
    # at the start, after every second item, and once more after the last
    assert kernel_at == pytest.approx([0, step, 2 * step, 2.5 * step])


def test_paced_latency_is_the_median_scaled_by_the_kernel_beside_it():
    clock = FakeClock()
    costs = iter([4, 1, 4, 6, 2, 3, 3, 4])  # (item 1, item 2) latencies of four passes
    # three kernel runs a pass; in the second pass the host runs at half speed
    speeds = iter([1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1])

    def run_item(item):
        clock.now += next(costs)
        return True

    loop = run.run_loop([1, 2], run_item, seconds=0, clock=clock, min_passes=4,
                        pace=lambda: next(speeds) * reference.NOMINAL_S)
    assert loop.passes == 4
    # pass 2 ran at half speed, so its latencies count half; pass 1 is the warm-up
    assert run.paced_latencies(loop, warmup=1) == pytest.approx([2, 3])
    assert run.paced_latencies(loop) == pytest.approx([2.5, 3])


def test_reference_kernel_is_exact_and_holds_the_collector_off():
    assert reference.determinant([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18
    assert reference.determinant([[0, 1], [1, 0]]) == -1
    assert reference.determinant([[1, 2], [2, 4]]) == 0
    assert gc.isenabled()
    assert reference.timed_kernel() > 0
    assert gc.isenabled()
    assert reference.local_scale([1.0, 5.0, 2.0, 3.0], 0) == 3.0
    assert reference.local_scale([1.0, 5.0, 2.0, 3.0], 2) == 3.0


# -- consistency -------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_digest_table_covers_every_oracle_verify_job():
    keys = {workloads.verify_key(item) for item in workloads.OracleVerify.space()}
    assert keys == set(workloads.load_digests())


def test_same_seed_same_inputs_and_other_seed_same_space():
    for cls in workloads.WORKLOADS.values():
        a, b, c = (workloads.make_items(cls, seed) for seed in (1, 1, 2))
        assert a == b
        assert a != c
        assert sorted(map(repr, a)) == sorted(map(repr, c))
