"""trcalc benchmark: closed-loop workloads over the library's public calls,
every item checked.

    python3 bench/run.py --workload oracle-verify --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` the run reports the end-to-end metrics: set-up time from
fresh processes, then whole passes over the workload's items until
``--seconds`` have elapsed, the first pass a warm-up.  Every time is paced:
scaled by a fixed reference kernel timed beside it (reference.py), so that
the host's drifting speed cancels.  With ``--trace 1`` it alternates two untraced and
two traced passes, reports the per-layer metrics of the last and checks
that every count repeats exactly between the two traced passes.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only when every item's check passed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import reference
import tracing

BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("oracle-verify", "transition-sweep", "tower-probe")
DEFAULT_SEED = 1
MIN_SETUP_PROBES = 5
WARMUP_PASSES = 1  # passes run but left out of the statistics
MIN_PASSES = 3
MIN_BEYOND = 10
MAX_LOGGED_FAILURES = 5

END_TO_END = (
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

DERIVED = (
    ("oracle.builds_per_orbit", "count", "lower"),
    ("oracle.fiber_per_orbit", "count", "lower"),
    ("oracle.level_cache_hit_ratio", "ratio", "higher"),
    ("snf.exact_entry_bits_max", "bits", "lower"),
    ("snf.exact_cells", "count", "lower"),
    ("snf.modp_cells", "count", "lower"),
    ("syntomic.s_function.calls_per_item", "count", "lower"),
    ("padic.MultiIndex.scale_by_p.calls_per_item", "count", "lower"),
    ("prosystem.refused_frac", "ratio", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for target in tracing.TARGETS:
        out += [(f"{target}.calls", "count", "lower"), (f"{target}.self_s", "s", "lower")]
    out += [(f"{module}.self_s", "s", "lower") for module in tracing.LAYERS]
    return out + list(DERIVED)


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) at the highest percentile of
    the ladder 50, 90, 99, 99.9, ... that leaves at least MIN_BEYOND samples
    beyond it, by nearest rank.  Below 2 * MIN_BEYOND samples no rung
    qualifies and the maximum is returned with 0 beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * MIN_BEYOND:
        return 100.0, xs[-1], 0
    pct, beyond, k = 50.0, n // 2, 1
    while n // 10**k >= MIN_BEYOND:
        pct, beyond, k = 100.0 - 100.0 / 10**k, n // 10**k, k + 1
    return pct, xs[n - beyond - 1], beyond


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # per pass, each item's wall latency
    scales: list = field(default_factory=list)     # per pass, the kernel time around each item
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0  # summed latency of every item run
    passes: int = 0


def run_loop(items: list, run_item, seconds: float, clock=time.perf_counter, between_passes=None,
             pace=reference.timed_kernel, min_passes: int = 1) -> LoopResult:
    """Closed loop: run the items one at a time, in whole passes, until
    ``seconds`` have elapsed and ``min_passes`` are done, recording each
    item's latency and the reference-kernel time around it; ``pace()``
    times the kernel, which runs at the start and end of every pass and
    whenever ``reference.INTERVAL_S`` of item time has passed since it last
    ran; ``between_passes()`` runs after every pass.  An item fails when its
    check returns false or it raises; the first failures are logged to
    stderr with their traceback."""
    res = LoopResult()
    start = clock()
    while True:
        latencies, after = [], []
        refs = [pace()]
        last_ref = clock()
        for item in items:
            t0 = clock()
            try:
                ok = bool(run_item(item))
            except Exception:
                ok = False
                if res.failed < MAX_LOGGED_FAILURES:
                    print(f"item {item!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            else:
                if not ok and res.failed < MAX_LOGGED_FAILURES:
                    print(f"item {item!r} failed its check", file=sys.stderr)
            t1 = clock()
            latencies.append(t1 - t0)
            after.append(len(refs) - 1)
            res.busy += t1 - t0
            res.failed += not ok
            if t1 - last_ref >= reference.INTERVAL_S:
                refs.append(pace())
                last_ref = clock()
        if not after or after[-1] == len(refs) - 1:
            refs.append(pace())
        res.latencies.append(latencies)
        res.scales.append([reference.local_scale(refs, j) for j in after])
        res.attempted += len(items)
        res.passes += 1
        if between_passes is not None:
            between_passes()
        if clock() - start >= seconds and res.passes >= min_passes:
            return res


def paced_latencies(loop: LoopResult, warmup: int = 0) -> list[float]:
    """Each item's median latency over the passes after the first ``warmup``,
    every latency scaled by ``reference.NOMINAL_S`` over the kernel time
    around it (see reference.py)."""
    kept = range(warmup, loop.passes) if loop.passes > warmup else range(loop.passes)
    return [
        statistics.median(loop.latencies[p][i] * reference.NOMINAL_S / loop.scales[p][i] for p in kept)
        for i in range(len(loop.latencies[0]))
    ]


class SetupProbe:
    """Times fresh interpreters from launch until they have imported trcalc
    and trcalc.cli and generated the workload's inputs, each scaled like the
    item latencies by the reference-kernel times just before and after it.
    The first launch is untimed: it writes the bytecode caches that every
    later start reuses."""

    def __init__(self, workload: str, seed: int, pace=reference.timed_kernel):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
        self.pace = pace
        self.wall: list[float] = []
        self.times: list[float] = []
        self._launch()

    def __call__(self) -> None:
        before = self.pace()
        wall = self._launch()
        after = self.pace()
        self.wall.append(wall)
        self.times.append(wall * reference.NOMINAL_S / statistics.fmean((before, after)))

    def _launch(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode:
            raise SystemExit(f"bench: setup probe failed (status {proc.returncode})")
        return elapsed


def environment(load_before: tuple) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report(correct: bool, attempted: int, failed: int, metrics: dict, env: dict) -> int:
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _load_workload(name: str, seed: int):
    checkout.use_checkout_trcalc()
    import workloads

    cls = workloads.WORKLOADS[name]
    return workloads, cls(), workloads.make_items(cls, seed)


def _digest_line(tally) -> str:
    joined = "\n".join(f"{k} {v}" for k, v in sorted(tally.digests.items()))
    return f"report digest {hashlib.sha256(joined.encode()).hexdigest()[:16]} over {len(tally.digests)} jobs"


def measure(name: str, seed: int, seconds: float) -> int:
    """Untraced run: set-up time, then the timed closed loop."""
    load_before = os.getloadavg()
    # Set-up is probed between passes, so that its median spans the run
    # like the latencies do rather than one moment of a drifting machine.
    setup = SetupProbe(name, seed)
    setup()
    workloads, wl, items = _load_workload(name, seed)
    tally = workloads.Tally()
    loop = run_loop(items, lambda item: wl.run(item, tally), seconds, between_passes=setup, min_passes=MIN_PASSES)
    while len(setup.times) < MIN_SETUP_PROBES:
        setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = loop.attempted
    timed = loop.passes - WARMUP_PASSES
    paced = paced_latencies(loop, WARMUP_PASSES)
    pct, tail, beyond = tail_latency(paced)
    wall = [statistics.median(lat[i] for lat in loop.latencies[WARMUP_PASSES:]) for i in range(len(items))]
    values = {
        "items_per_s": len(items) / sum(paced),
        "item_p50_ms": statistics.median(paced) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup.times),
    }
    notes = {
        "items_per_s": f"{len(items)} items at their paced median of {timed} passes; "
                       f"wall clock {len(items) / sum(wall):.6g} the same way, {n / loop.busy:.6g} over all {n} items run",
        "item_p50_ms": f"{len(items)} items, paced median of {timed} passes; wall clock {statistics.median(wall) * 1e3:.6g}",
        "item_tail_ms": f"p{pct:g}, {beyond} items beyond, paced median of {timed} passes",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "setup_s": f"paced median of {len(setup.times)} fresh processes; wall clock {statistics.median(setup.wall):.6g}",
    }
    kernel = [x for scales in loop.scales for x in scales]
    print(f"reference kernel around items: median {statistics.median(kernel) * 1e3:.4g} ms, "
          f"range {min(kernel) * 1e3:.4g} to {max(kernel) * 1e3:.4g} ms (paced to {reference.NOMINAL_S * 1e3:g} ms)")
    print(f"workload {name} seed {seed}: per pass {len(items)} items, {tally.orbits // loop.passes} oracle orbits, "
          f"{tally.pairs // loop.passes} pairs, {tally.refused // loop.passes} refused classifications")
    if tally.digests:
        print(_digest_line(tally))
    for metric, unit in END_TO_END:
        print(f"{metric:<14} {values[metric]:.6g} {unit} ({notes[metric]})")
    print(f"{'failed_frac':<14} {loop.failed / n:.6g} ratio ({loop.failed} of {n} items failed)")
    metrics = {metric: _metric(values[metric], unit) for metric, unit in END_TO_END}
    return _report(loop.failed == 0, n, loop.failed, metrics, environment(load_before))


def _per_layer(tracer, tally, items: int) -> dict[str, float]:
    """Every per-layer metric but tracing.overhead_frac, from one traced pass."""

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls, totals = tracer.calls, tracer.totals
    out: dict[str, float] = {}
    for target in tracing.TARGETS:
        out[f"{target}.calls"] = calls.get(target, 0)
        out[f"{target}.self_s"] = tracer.self_s.get(target, 0.0)
    for module in tracing.LAYERS:
        out[f"{module}.self_s"] = tracer.module_self_s(module)
    out["oracle.builds_per_orbit"] = ratio(calls.get("oracle.build_orbit_matrices", 0), tally.orbits)
    out["oracle.fiber_per_orbit"] = ratio(calls.get("oracle.fiber_cohomology", 0), tally.orbits)
    levels = calls.get("oracle.TransitionOracle.level", 0)
    out["oracle.level_cache_hit_ratio"] = 1 - ratio(calls.get("oracle.fiber_cohomology", 0), levels) if levels else 0.0
    for key in ("snf.exact_entry_bits_max", "snf.exact_cells", "snf.modp_cells", "report.bytes"):
        out[key] = totals.get(key, 0)
    out["syntomic.s_function.calls_per_item"] = ratio(calls.get("syntomic.s_function", 0), items)
    out["padic.MultiIndex.scale_by_p.calls_per_item"] = ratio(calls.get("padic.MultiIndex.scale_by_p", 0), items)
    out["prosystem.refused_frac"] = ratio(tally.refused, items)
    return out


def measure_traced(name: str, seed: int) -> int:
    """Traced run: untraced and traced passes over the same items, two of
    each, alternating; per-layer metrics of the second traced pass, counts
    compared across both traced passes.  The overhead compares the summed
    per-item paced latencies of the two modes (each item's median over the
    two passes of a mode)."""
    load_before = os.getloadavg()
    workloads, wl, items = _load_workload(name, seed)
    tracer = tracing.Tracer("trcalc", observers=tracing.OBSERVERS)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(run_loop(items, lambda item: wl.run(item, workloads.Tally()), 0))
        with tracer:
            tally = workloads.Tally()
            loop = run_loop(items, lambda item: wl.run(item, tally), 0)
        traced.append((loop, _per_layer(tracer, tally, len(items))))

    def paced_sum(loops) -> float:
        merged = LoopResult(latencies=[lat for lp in loops for lat in lp.latencies],
                            scales=[sc for lp in loops for sc in lp.scales], passes=len(loops))
        return sum(paced_latencies(merged))

    (_, first), (last, second) = traced
    spec = per_layer_spec()
    drift = [m for m, unit, _ in spec if unit != "s" and first.get(m) != second.get(m)]
    overhead = paced_sum([loop for loop, _ in traced]) / paced_sum(untraced) - 1
    second["tracing.overhead_frac"] = overhead

    traced_self = sum(tracer.module_self_s(module) for module in tracing.LAYERS)
    print(f"workload {name} seed {seed}: {len(items)} items per pass, last traced pass {last.busy:.2f} s "
          f"of item time, tracing overhead {overhead:.1%}")
    print("absent: " + (", ".join(tracer.absent) if tracer.absent else "none"))
    print("self-time share by layer (of traced item time): " + ", ".join(
        f"{module} {tracer.module_self_s(module) / last.busy:.1%}" for module in tracing.LAYERS
    ) + f", outside the layers {1 - traced_self / last.busy:.1%}")
    print("counts repeat between traced passes: " + ("yes" if not drift else "NO: " + ", ".join(drift)))
    for metric, unit, _ in spec:
        print(f"{metric} {second[metric]:.6g} {unit}")

    loops = untraced + [loop for loop, _ in traced]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    metrics = {metric: _metric(second[metric], unit) for metric, unit, _ in spec}
    return _report(failed == 0 and not drift, attempted, failed, metrics, environment(load_before))


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one client in one process: no verify worker pool
    os.environ.pop("TRCALC_JOBS", None)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return measure_traced(args.workload, args.seed)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
