"""Time one pytest node in alternating pairs on two source trees, each run
paced by the benchmark's reference kernel.

    python tools/gate_pairs.py PARENT CHANGE --test NODEID --pairs N

Each pair runs ``python -m pytest -q -p no:cacheprovider NODEID`` once
from inside each tree, with that tree's ``src`` first on the path, in the
order of ``bench_pairs.alternate``.  A run's wall time is that of the
whole pytest process.  The reference kernel of ``bench/reference.py``
(imported read-only, without writing bytecode) is timed just before and
just after each run, the median of ``KERNEL_RUNS`` runs each time, and the
run's paced time is its wall time scaled by the kernel's ``NOMINAL_S``
over the mean of those two medians: the time on a host whose kernel always
takes ``NOMINAL_S``, so the host's drift between runs cancels.  The
summary prints, for wall and paced time, each run, each side's median and
quartiles, and the pairs the change won (ties count for neither).  The
exit status is 1 when any run failed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL_RUNS = 21


def _load(path: Path):
    """The module at `path`, executed without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"gate_pairs_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


reference = _load(ROOT / "bench" / "reference.py")
bench_pairs = _load(ROOT / "tools" / "bench_pairs.py")


def kernel_time() -> float:
    """The median of `KERNEL_RUNS` timed runs of the reference kernel."""
    return statistics.median(reference.timed_kernel() for _ in range(KERNEL_RUNS))


def run_once(tree: Path, node: str) -> dict:
    """One pytest run of `node` inside `tree`: its wall time, its paced
    time and whether it passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node]
    before = kernel_time()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    wall = time.perf_counter() - t0
    after = kernel_time()
    return {"wall": wall, "paced": wall * reference.NOMINAL_S / ((before + after) / 2), "passed": proc.returncode == 0}


def summarize(parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """The summary lines for paired runs, parent[k] beside change[k], and
    whether every run passed."""
    out = []
    for key, label in (("wall", "wall"), ("paced", f"paced at a {reference.NOMINAL_S * 1e3:g}-ms kernel")):
        old, new = [run[key] for run in parent], [run[key] for run in change]
        (p1, pm, p3), (c1, cm, c3) = bench_pairs.quartiles(old), bench_pairs.quartiles(new)
        wins = sum(b < a for a, b in zip(old, new))
        out += [
            f"{label} (s, lower is better)",
            "  parent: " + " ".join(f"{v:.3f}" for v in old),
            "  change: " + " ".join(f"{v:.3f}" for v in new),
            f"  parent median {pm:.3f} quartiles {p1:.3f}..{p3:.3f} (IQR {p3 - p1:.3f}); "
            f"change median {cm:.3f} quartiles {c1:.3f}..{c3:.3f}",
            f"  change faster in {wins}/{len(old)} pairs; median difference {cm - pm:+.3f} ({(cm - pm) / pm:+.2%})",
        ]
    bad = [f"{side} run {k}" for side, runs in (("parent", parent), ("change", change))
           for k, run in enumerate(runs) if not run["passed"]]
    out.append("every run passed" if not bad else "FAILED: " + ", ".join(bad))
    return out, not bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--test", required=True, help="pytest node id, relative to each tree")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    parent, change = bench_pairs.alternate(
        args.pairs, args.parent.resolve(), args.change.resolve(), lambda tree: run_once(tree, args.test)
    )
    lines, passed = summarize(parent, change)
    print(f"{args.test}: {args.pairs} pairs")
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
