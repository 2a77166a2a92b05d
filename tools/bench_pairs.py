"""Run the benchmark in alternating pairs on two source trees and compare
their end-to-end metrics.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

W is one workload that ``BENCHMARK.json`` names; ``all`` is refused, since
a run of all of them prints one report per workload and only the last
would be read.  Each pair runs ``bench/run.py --workload W --seed K --seconds S --trace 0``
once from each tree, from inside it, in the order of ``alternate``.  Each
run's last stdout line is its JSON report.  For every end-to-end metric
that ``BENCHMARK.json`` declares, the summary prints each run, each side's
median and quartiles, and the pairs the change won (ties count for
neither).  It says whether a gain holds by the paired rule (the change
wins at least nine tenths of the pairs, and the medians differ, in the
better direction, by more than the distance between the parent's
quartiles) and whether the change's median stays within the metric's
regression bound; when the parent's own spread is wider than the bound, a
metric is unresolved unless every change run beats every parent run.
Beside ``peak_rss_mb`` it prints each run's timed pass count, read off the
run's ``items_per_s`` line ("paced median of N passes"): the workload
process keeps every pass's latencies, so its peak RSS grows with the
passes that fit in the run, and a faster tree reads a higher RSS.  The
exit status is 1 when any run is not ``correct``.

The two trees must agree on which of ``src/trcalc/`` and ``bench/`` hold a
``__pycache__``, or the tool exits 1 before any run: with
``PYTHONDONTWRITEBYTECODE`` set no run writes bytecode, so a tree with
leftover caches imports faster and reads a lower ``setup_s`` with no
change to any import.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CACHED_DIRS = ("src/trcalc", "bench")


def cache_mismatch(parent: Path, change: Path) -> list[str]:
    """The directories of ``CACHED_DIRS`` that hold a ``__pycache__`` in
    one tree and not in the other."""
    return [d for d in CACHED_DIRS if (parent / d / "__pycache__").is_dir() != (change / d / "__pycache__").is_dir()]


def last_json(stdout: str) -> dict:
    """The report on the last non-empty line of a run's stdout; a run
    that printed none reads as not correct."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}


PASSES = re.compile(r"^items_per_s .*paced median of (\d+) passes", re.MULTILINE)


def timed_passes(stdout: str) -> int | None:
    """The timed pass count on a run's ``items_per_s`` line, or None when
    it printed none."""
    match = PASSES.search(stdout)
    return int(match.group(1)) if match else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated inclusively."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _better(a: float, b: float, higher: bool) -> bool:
    """Whether a reads better than b."""
    return a > b if higher else a < b


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """The summary lines for paired runs, parent[k] beside change[k], and
    whether every run was correct."""
    out = []
    for metric in end_to_end:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        pairs = [
            (a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(parent, change)
            if name in a.get("metrics", {}) and name in b.get("metrics", {})
        ]
        if not pairs:
            out.append(f"{name}: no pair reports it")
            continue
        old, new = [a for a, _ in pairs], [b for _, b in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(old), quartiles(new)
        wins = sum(_better(b, a, higher) for a, b in pairs)
        iqr = p3 - p1
        gain = 10 * wins >= 9 * len(pairs) and _better(cm, pm, higher) and abs(cm - pm) > iqr
        limit = pm * (1 - bound) if higher else pm * (1 + bound)
        if _better(limit, cm, higher):
            regression = "worse than the bound"
        elif iqr > bound * abs(pm) and not all(_better(b, a, higher) for a in old for b in new):
            regression = "unresolved: the parent's spread is wider than the bound"
        else:
            regression = "within the bound"
        out += [
            f"{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})",
            "  parent: " + " ".join(f"{v:.6g}" for v in old),
            "  change: " + " ".join(f"{v:.6g}" for v in new),
            f"  parent median {pm:.6g} quartiles {p1:.6g}..{p3:.6g} (IQR {iqr:.6g}); "
            f"change median {cm:.6g} quartiles {c1:.6g}..{c3:.6g}",
            f"  change better in {wins}/{len(pairs)} pairs; median difference {cm - pm:+.6g} "
            f"({(cm - pm) / pm:+.2%}); paired gain rule holds: {'yes' if gain else 'no'}; {regression}",
        ]
        if name == "peak_rss_mb":  # it grows with the passes a run holds
            counts = [" ".join("?" if run.get("passes") is None else str(run["passes"]) for run in runs)
                      for runs in (parent, change)]
            out.append(f"  timed passes: parent {counts[0]}; change {counts[1]}")
    bad = [f"{side} run {k}" for side, runs in (("parent", parent), ("change", change))
           for k, run in enumerate(runs) if not run.get("correct")]
    out.append("every run correct" if not bad else "NOT correct: " + ", ".join(bad))
    return out, not bad


def alternate(pairs: int, parent: Path, change: Path, run) -> tuple[list, list]:
    """`run(tree)` once on each tree per pair, the parent first in pairs
    1, 3, ... and the change first in the rest, so that a drift of the
    host over the runs falls on both sides alike; the parent's results and
    the change's, in pair order."""
    parent_runs, change_runs = [], []
    for k in range(pairs):
        sides = [(parent, parent_runs), (change, change_runs)]
        for tree, runs in sides if k % 2 == 0 else sides[::-1]:
            runs.append(run(tree))
        print(f"pair {k + 1}/{pairs} done", file=sys.stderr, flush=True)
    return parent_runs, change_runs


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    return {**last_json(proc.stdout), "passes": timed_passes(proc.stdout)}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    mismatch = cache_mismatch(args.parent, args.change)
    if mismatch:
        print(f"bench_pairs: the trees differ in which of {', '.join(mismatch)} hold a __pycache__; "
              "remove the caches from both or from neither", file=sys.stderr)
        return 1
    end_to_end = spec["end_to_end"]
    parent, change = alternate(
        args.pairs, args.parent, args.change, lambda tree: run_once(tree, args.workload, args.seconds, args.seed)
    )
    lines, correct = summarize(parent, change, end_to_end)
    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g}-s runs")
    print("\n".join(lines))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
