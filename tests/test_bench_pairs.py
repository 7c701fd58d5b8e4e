"""tools/bench_pairs.py on canned run outputs; no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _stdout(metrics: dict, failed: int = 0) -> str:
    """What perfbench/run.py prints: a header and summary, then one JSON
    object on the last line."""
    body = {"correct": not failed, "attempted": 5, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"}
                        for k, v in metrics.items()}}
    return "machine: nproc 2\nop_s 0.1 s\n" + json.dumps(body) + "\n"


class CannedRunner:
    """Serves canned outputs: op_s from the tables below by side and
    call, peak_rss_mb constant; records the calls in order."""

    def __init__(self, op_s):
        self.op_s = {side: list(values) for side, values in op_s.items()}
        self.calls = []

    def __call__(self, tree, workload, seed, seconds):
        side = tree.name
        self.calls.append((side, workload, seed, seconds))
        value = self.op_s[side].pop(0)
        if value is None:
            return {"exit_code": 1, "stdout": "Traceback (most recent call)\n"}
        return {"exit_code": 0,
                "stdout": _stdout({"op_s": value, "peak_rss_mb": 40.0})}


def test_parse_result_reads_the_last_line_only():
    assert bench_pairs.parse_result(_stdout({"op_s": 0.5}))["metrics"] == {
        "op_s": {"value": 0.5, "unit": "s"}}
    assert bench_pairs.parse_result("") is None
    assert bench_pairs.parse_result("{\"a\": 1}\nTraceback\n") is None
    assert bench_pairs.parse_result("[1, 2]\n") is None


def test_quartiles_match_linear_percentiles():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([1.0, 2.0]) == [1.25, 1.5, 1.75]
    assert bench_pairs.quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_pairs_alternate_and_one_process_runs_at_a_time():
    runner = CannedRunner({"parent": [1.0] * 4, "change": [1.0] * 4})
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = bench_pairs.run_pairs(trees, "w", 3, 4, 2.5, runner)
    assert [c[0] for c in runner.calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent"]
    assert {c[1:] for c in runner.calls} == {("w", 3, 2.5)}
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]


def test_summary_counts_pairs_and_compares_medians_with_iqr_and_bound():
    # parent 1.0..1.4 (median 1.2, IQR 0.2); the change is 0.05 faster
    # in four pairs and 0.1 slower in one
    parent = [1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.95, 1.05, 1.15, 1.25, 1.5]
    runner = CannedRunner({"parent": parent, "change": change})
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = bench_pairs.run_pairs(trees, "w", 1, 5, 1.0, runner)
    op, rss = bench_pairs.summarize(runs, END_TO_END)
    assert op["pairs"] == 5
    assert op["parent_q1_median_q3"] == pytest.approx([1.1, 1.2, 1.3])
    assert op["change_q1_median_q3"] == pytest.approx([1.05, 1.15, 1.25])
    assert (op["change_won"], op["change_lost"]) == (4, 1)
    assert op["median_ratio"] == pytest.approx(1.15 / 1.2)
    assert not op["gap_exceeds_parent_iqr"]
    assert not op["worse_beyond_bound"]
    # IQR 0.2 is within 0.25 of the median 1.2; rss does not spread
    assert not op["unresolved"] and not rss["unresolved"]
    assert (rss["change_won"], rss["change_lost"]) == (0, 0)
    assert rss["median_ratio"] == 1.0


def test_a_worse_change_beyond_iqr_and_bound_is_flagged():
    runner = CannedRunner({"parent": [1.0, 1.02, 0.98],
                           "change": [1.4, 1.5, 1.3]})
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = bench_pairs.run_pairs(trees, "w", 1, 3, 1.0, runner)
    op = bench_pairs.summarize(runs, END_TO_END)[0]
    assert (op["change_won"], op["change_lost"]) == (0, 3)
    assert op["gap_exceeds_parent_iqr"] and op["worse_beyond_bound"]


@pytest.mark.parametrize("better, change, unresolved", [
    ("lower", [0.85, 1.2, 0.95, 1.3, 1.0], True),
    ("lower", [1.6] * 5, True),
    ("lower", [0.7, 0.75, 0.6, 0.79, 0.7], False),
    ("higher", [1.6, 1.7, 1.55, 1.8, 1.6], False),
    ("higher", [0.85, 1.2, 0.95, 1.3, 1.0], True),
])
def test_a_parent_spread_wider_than_the_bound_leaves_a_metric_unresolved(
        better, change, unresolved):
    """The parent's IQR, 0.5, exceeds the bound times its median, 0.25;
    the metric is unresolved unless every run of the change beats every
    run of the parent (0.8..1.5)."""
    parent = [0.8, 0.9, 1.0, 1.4, 1.5]
    runner = CannedRunner({"parent": parent, "change": change})
    trees = {"parent": Path("parent"), "change": Path("change")}
    runs = bench_pairs.run_pairs(trees, "w", 1, 5, 1.0, runner)
    spec = [{"name": "op_s", "unit": "s", "better": better, "bound": 0.25}]
    (op,) = bench_pairs.summarize(runs, spec)
    assert op["parent_q1_median_q3"] == pytest.approx([0.9, 1.0, 1.4])
    assert op["unresolved"] is unresolved


def test_main_prints_the_table_and_writes_raw_runs(tmp_path, capsys):
    """A run without a result leaves its pair out of the comparison and
    is counted; the raw runs, the summary and the operations are
    written as JSON."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": END_TO_END}))
    runner = CannedRunner({"parent": [1.0, None, 1.2],
                           "change": [0.9, 1.0, 1.1]})
    out = tmp_path / "runs.json"
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "w",
                             "--pairs", "3", "--seconds", "1",
                             "--out", str(out)], runner) == 0
    text = capsys.readouterr().out
    assert "w, seed 1: 3 pairs of 1 s runs" in text
    assert text.splitlines()[1].split()[-1] == "unresolved"
    assert "parent: 0 of 10 operations failed; 1 runs without a result; " \
           "exit codes [0, 1]" in text
    saved = json.loads(out.read_text())
    assert len(saved["runs"]) == 6
    op = saved["summary"][0]
    assert op["metric"] == "op_s" and op["pairs"] == 2
    assert (op["change_won"], op["change_lost"]) == (2, 0)
    assert saved["operations"]["change"] == {
        "failed": 0, "attempted": 15, "runs_without_result": 0,
        "exit_codes": [0]}
