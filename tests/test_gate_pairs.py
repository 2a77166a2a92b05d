"""The summary of `tools/gate_pairs.py` on canned timings: wall and paced
medians, quartiles and win counts, read without running any test."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "gate_pairs.py"
spec = importlib.util.spec_from_file_location("gate_pairs", TOOL)
gate_pairs = importlib.util.module_from_spec(spec)
saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    spec.loader.exec_module(gate_pairs)
finally:
    sys.dont_write_bytecode = saved


def _runs(walls, paced, passed=True):
    return [{"wall": w, "paced": p, "passed": passed} for w, p in zip(walls, paced)]


def test_summary_reads_medians_quartiles_and_wins_for_wall_and_paced_time():
    # the host slows down over the change's runs: wall time loses more
    # pairs than the paced time, which the kernel's drift scales back
    parent = _runs([7.2, 7.0, 7.4, 7.1], [7.5, 7.3, 7.6, 7.4])
    change = _runs([6.9, 7.3, 7.6, 6.8], [6.9, 7.0, 7.1, 6.8])
    lines, passed = gate_pairs.summarize(parent, change)
    assert passed and lines[-1] == "every run passed"
    assert lines[0] == "wall (s, lower is better)"
    assert lines[1] == "  parent: 7.200 7.000 7.400 7.100"
    assert lines[2] == "  change: 6.900 7.300 7.600 6.800"
    assert lines[3] == "  parent median 7.150 quartiles 7.075..7.250 (IQR 0.175); change median 7.100 quartiles 6.875..7.375"
    assert lines[4] == "  change faster in 2/4 pairs; median difference -0.050 (-0.70%)"
    assert lines[5].startswith("paced at a ") and lines[5].endswith("-ms kernel (s, lower is better)")
    assert lines[8] == "  parent median 7.450 quartiles 7.375..7.525 (IQR 0.150); change median 6.950 quartiles 6.875..7.025"
    assert lines[9] == "  change faster in 4/4 pairs; median difference -0.500 (-6.71%)"


def test_ties_count_for_neither_side_and_a_failed_run_fails_the_summary():
    parent = _runs([5.0, 5.0], [5.0, 5.0])
    change = _runs([5.0], [4.0]) + _runs([5.5], [5.5], passed=False)
    lines, passed = gate_pairs.summarize(parent, change)
    assert "change faster in 0/2 pairs" in lines[4] and "change faster in 1/2 pairs" in lines[9]
    assert not passed and lines[-1] == "FAILED: change run 1"


def test_paced_time_scales_the_wall_time_by_the_kernel_beside_it(monkeypatch, tmp_path):
    # a kernel that reads twice its nominal time halves the paced time
    kernel = iter([2 * gate_pairs.reference.NOMINAL_S] * 2)
    monkeypatch.setattr(gate_pairs, "kernel_time", lambda: next(kernel))
    clock = iter([10.0, 13.0])
    monkeypatch.setattr(gate_pairs, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    commands = []

    def run(cmd, **kwargs):
        commands.append((cmd[-1], kwargs["cwd"], kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0]))
        return SimpleNamespace(returncode=0)

    monkeypatch.setattr(gate_pairs, "subprocess", SimpleNamespace(run=run, DEVNULL=subprocess.DEVNULL))
    result = gate_pairs.run_once(tmp_path, "tests/test_x.py::test_y")
    assert result == {"wall": 3.0, "paced": pytest.approx(1.5), "passed": True}
    assert commands == [("tests/test_x.py::test_y", tmp_path, str(tmp_path / "src"))]


def test_main_times_the_node_on_both_trees_in_alternation(monkeypatch, tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def run_once(tree, node):
        calls.append((tree, node))
        return {"wall": 1.0, "paced": 1.0, "passed": True}

    monkeypatch.setattr(gate_pairs, "run_once", run_once)
    assert gate_pairs.main([str(parent), str(change), "--test", "tests/t.py::t", "--pairs", "3"]) == 0
    assert calls == [(tree, "tests/t.py::t") for tree in (parent, change, change, parent, parent, change)]
    assert capsys.readouterr().out.startswith("tests/t.py::t: 3 pairs\n")
