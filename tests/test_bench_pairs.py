"""The summary of `tools/bench_pairs.py` on canned report lines: medians,
quartiles, win counts, the paired gain rule and the regression bound,
read without running the benchmark."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _line(items_per_s, p50, correct=True):
    metrics = {"items_per_s": {"value": items_per_s, "unit": "items/s"}, "item_p50_ms": {"value": p50, "unit": "ms"}}
    return "env {}\n" + json.dumps({"correct": correct, "attempted": 9, "failed": 0, "metrics": metrics}) + "\n"


def _runs(values, correct=True):
    return [bench_pairs.last_json(_line(v, 1000 / v, correct)) for v in values]


def test_a_gain_on_ten_pairs_meets_the_paired_rule():
    parent = _runs([1060, 1064, 1070, 1062, 1066, 1068, 1061, 1065, 1063, 1067])
    change = _runs([1170, 1166, 1180, 1168, 1172, 1060, 1175, 1169, 1171, 1174])
    lines, correct = bench_pairs.summarize(parent, change, END_TO_END)
    assert correct and lines[-1] == "every run correct"
    assert lines[0] == "items_per_s (items/s, higher is better, bound 25%)"
    assert lines[1].split()[1:4] == ["1060", "1064", "1070"]
    assert "parent median 1064.5 quartiles 1062.25..1066.75 (IQR 4.5)" in lines[3]
    assert "change median 1170.5" in lines[3]
    # 9 of 10 pairs won, the ninth-tenth rule's floor; lower p50 wins too
    assert "change better in 9/10 pairs" in lines[4] and "paired gain rule holds: yes" in lines[4]
    assert "within the bound" in lines[4]
    assert "item_p50_ms (ms, lower is better" in lines[5]
    assert "change better in 9/10 pairs" in lines[9] and "paired gain rule holds: yes" in lines[9]


def test_eight_wins_or_a_small_difference_claim_no_gain():
    parent = _runs([100, 102, 104, 106, 108, 110, 112, 114, 116, 118])
    eight = _runs([200, 200, 200, 200, 200, 200, 200, 200, 90, 90])
    lines, _ = bench_pairs.summarize(parent, eight, END_TO_END[:1])
    assert "change better in 8/10 pairs" in lines[4] and "paired gain rule holds: no" in lines[4]
    # every pair won, but by less than the parent's IQR of 9
    small = _runs([v + 1 for v in [100, 102, 104, 106, 108, 110, 112, 114, 116, 118]])
    lines, _ = bench_pairs.summarize(parent, small, END_TO_END[:1])
    assert "change better in 10/10 pairs" in lines[4] and "paired gain rule holds: no" in lines[4]


def test_ties_count_for_neither_side():
    parent = _runs([100, 100, 100])
    lines, _ = bench_pairs.summarize(parent, _runs([100, 100, 101]), END_TO_END[:1])
    assert "change better in 1/3 pairs" in lines[4]


def test_regressions_and_spread_wider_than_the_bound():
    parent = _runs([100, 101, 102, 103])
    lines, _ = bench_pairs.summarize(parent, _runs([70, 71, 72, 73]), END_TO_END[:1])
    assert lines[4].endswith("worse than the bound")
    wide = _runs([50, 100, 150, 200])
    lines, _ = bench_pairs.summarize(wide, _runs([90, 110, 130, 170]), END_TO_END[:1])
    assert lines[4].endswith("unresolved: the parent's spread is wider than the bound")
    lines, _ = bench_pairs.summarize(wide, _runs([201, 202, 203, 204]), END_TO_END[:1])
    assert lines[4].endswith("within the bound")


def test_a_run_that_is_not_correct_or_printed_no_report_fails_the_summary():
    parent = _runs([100, 101])
    change = _runs([110], correct=False) + [bench_pairs.last_json("bench: setup probe failed\n")]
    lines, correct = bench_pairs.summarize(parent, change, END_TO_END[:1])
    assert not correct and lines[-1] == "NOT correct: change run 0, change run 1"
    # the pair without a report is left out of the metric
    assert "change better in 1/1 pairs" in lines[4]


def test_peak_rss_prints_each_run_s_timed_pass_count(monkeypatch):
    # a run's timed passes are read off its items_per_s line and printed
    # beside peak_rss_mb, whose value grows with them; a run whose output
    # has no such line reads "?"
    stdout = (
        "items_per_s    12254 items/s (1653 items at their paced median of 157 passes; wall clock 11000)\n"
        "item_p50_ms    0.08 ms (1653 items, paced median of 157 passes; wall clock 0.09)\n"
    ) + _line(12254, 0.08)
    assert bench_pairs.timed_passes(stdout) == 157
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: SimpleNamespace(stdout=stdout))
    report = bench_pairs.run_once(Path("tree"), "tower-probe", 1.0, 1)
    assert report["passes"] == 157 and report["correct"] and report["metrics"]["items_per_s"]["value"] == 12254
    assert bench_pairs.timed_passes("item_p50_ms 0.08 ms (1653 items, paced median of 9 passes)\n") is None
    rss = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]

    def run(mb, passes):
        metrics = {"peak_rss_mb": {"value": mb, "unit": "MB"}}
        return {"correct": True, "metrics": metrics, "passes": passes}

    lines, _ = bench_pairs.summarize([run(37.5, 140), run(37.6, 141)], [run(39.0, 152), run(39.1, None)], rss)
    assert lines[5] == "  timed passes: parent 140 141; change 152 ?"
    lines, _ = bench_pairs.summarize(_runs([100, 101]), _runs([110, 111]), END_TO_END)
    assert not any("timed passes" in line for line in lines)


def test_pairs_alternate_which_tree_runs_first():
    # the parent runs first in pairs 1, 3, ... and the change first in the
    # rest; each side's results come back in pair order
    order = []

    def run(tree):
        order.append(tree)
        return f"{tree}{order.count(tree)}"

    parent, change = bench_pairs.alternate(4, "P", "C", run)
    assert order == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert parent == ["P1", "P2", "P3", "P4"] and change == ["C1", "C2", "C3", "C4"]


def test_main_runs_the_workload_on_both_trees_in_alternation(monkeypatch, capsys):
    calls = []

    def run_once(tree, workload, seconds, seed):
        calls.append((str(tree), workload, seconds, seed))
        return bench_pairs.last_json(_line(100, 10))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["P", "C", "--workload", "oracle-verify", "--pairs", "3", "--seconds", "2", "--seed", "5"]
    assert bench_pairs.main(argv) == 0
    assert [tree for tree, *_ in calls] == ["P", "C", "C", "P", "P", "C"]
    assert {tuple(rest) for _, *rest in calls} == {("oracle-verify", 2.0, 5)}
    assert capsys.readouterr().out.startswith("workload oracle-verify seed 5, 3 pairs of 2-s runs\n")


def test_main_takes_only_the_workloads_the_benchmark_names(monkeypatch, capsys):
    # a run of every workload prints one report per workload, and only the
    # last would be read, so `all` is refused before any run
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["P", "C", "--workload", "all"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --workload: invalid choice: 'all'" in err
    assert "'oracle-verify', 'transition-sweep', 'tower-probe'" in err
