"""Compare two source trees on one perfbench workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W \\
        [--seed S] [--pairs N] [--seconds T] [--out FILE]

PARENT and CHANGE are checkouts, each with its own ``perfbench/run.py``.
Pair i runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, one process at a time, the parent first
in odd pairs (1, 3, ...) and the change first in even ones, so a drift
of the machine's load falls on both sides alike.

For each end-to-end metric of the parent's ``BENCHMARK.json`` the script
prints the quartiles (q1, median, q3) of each side, the pairs the
change won and lost, the ratio of the change's median to the parent's,
whether the gap between the medians exceeds the parent's interquartile
range (IQR), whether the change is worse than the parent by more than
the metric's bound, and whether the metric is unresolved: the parent's
runs spread wider than the bound (their IQR exceeds the bound times
their median) and not every run of the change beats every run of the
parent, so the bound cannot tell a regression from noise. It also
prints each side's failed and attempted operations and the exit codes.
The raw runs go to FILE as JSON (default ``bench-pairs-W-S.json`` in
the current directory).
Every figure comes from a run's last output line, the JSON object that
``perfbench/run.py`` prints.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its exit code and
    standard output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    return {"exit_code": proc.returncode, "stdout": proc.stdout}


def parse_result(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line of a run's output, or
    None when there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_pairs(trees: dict, workload: str, seed: int, pairs: int,
              seconds: float, runner=run_once) -> list[dict]:
    """Run ``pairs`` alternating pairs; one record per run, in the order
    run, with the pair number, the side and the parsed result."""
    runs = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            raw = runner(trees[side], workload, seed, seconds)
            runs.append({"pair": pair, "side": side,
                         "exit_code": raw["exit_code"],
                         "result": parse_result(raw["stdout"])})
    return runs


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, interpolated linearly between order
    statistics (numpy's default percentile)."""
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def _value(run: dict, metric: str) -> float | None:
    result = run["result"]
    if result is None or metric not in result.get("metrics", {}):
        return None
    return float(result["metrics"][metric]["value"])


def summarize(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One summary per end-to-end metric over the pairs in which both
    sides printed it."""
    out = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        by_pair = {}
        for run in runs:
            value = _value(run, name)
            if value is not None:
                by_pair.setdefault(run["pair"], {})[run["side"]] = value
        both = [v for _, v in sorted(by_pair.items()) if len(v) == 2]
        if not both:
            out.append({"metric": name, "pairs": 0})
            continue
        parent = [v["parent"] for v in both]
        change = [v["change"] for v in both]
        # the change's gain per pair, positive where it did better
        gains = [(p - c) if lower else (c - p) for p, c in zip(parent, change)]
        pq, cq = quartiles(parent), quartiles(change)
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        ratio = cq[1] / pq[1] if pq[1] else float("inf")
        worse = (ratio - 1.0) if lower else (1.0 - ratio)
        beats_all = (max(change) < min(parent) if lower
                     else min(change) > max(parent))
        out.append({
            "metric": name, "unit": spec["unit"], "better": spec["better"],
            "pairs": len(both), "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_won": sum(g > 0 for g in gains),
            "change_lost": sum(g < 0 for g in gains),
            "median_ratio": ratio,
            "gap_exceeds_parent_iqr": abs(gap) > pq[2] - pq[0],
            "bound": spec["bound"],
            "worse_beyond_bound": worse > spec["bound"],
            "unresolved": (pq[2] - pq[0] > spec["bound"] * pq[1]
                           and not beats_all)})
    return out


def operations(runs: list[dict]) -> dict:
    """Failed and attempted operations and the exit codes, per side."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        results = [r["result"] for r in mine if r["result"] is not None]
        out[side] = {"failed": sum(r.get("failed", 0) for r in results),
                     "attempted": sum(r.get("attempted", 0) for r in results),
                     "runs_without_result": len(mine) - len(results),
                     "exit_codes": sorted({r["exit_code"] for r in mine})}
    return out


def report(summary: list[dict], ops: dict) -> str:
    lines = [f"{'metric':12s} {'parent q1 / median / q3':>32s} "
             f"{'change q1 / median / q3':>32s} {'won':>4s} {'lost':>4s} "
             f"{'ratio':>7s} {'gap>IQR':>8s} {'>bound':>7s} "
             f"{'unresolved':>10s}"]
    for s in summary:
        if not s["pairs"]:
            lines.append(f"{s['metric']:12s} no pair with both results")
            continue
        quart = [" / ".join(f"{v:.4g}" for v in s[f"{side}_q1_median_q3"])
                 for side in SIDES]
        lines.append(
            f"{s['metric']:12s} {quart[0]:>32s} {quart[1]:>32s} "
            f"{s['change_won']:4d} {s['change_lost']:4d} "
            f"{s['median_ratio']:7.3f} "
            f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no':>8s} "
            f"{'yes' if s['worse_beyond_bound'] else 'no':>7s} "
            f"{'yes' if s['unresolved'] else 'no':>10s}")
    for side in SIDES:
        o = ops[side]
        lines.append(f"{side}: {o['failed']} of {o['attempted']} operations "
                     f"failed; {o['runs_without_result']} runs without a "
                     f"result; exit codes {o['exit_codes']}")
    return "\n".join(lines)


def main(argv=None, runner=run_once) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs = run_pairs(trees, args.workload, args.seed, args.pairs,
                     args.seconds, runner)
    summary = summarize(runs, spec["end_to_end"])
    ops = operations(runs)
    print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs of "
          f"{args.seconds:g} s runs, parent first in odd pairs")
    print(report(summary, ops))
    out = args.out or Path(f"bench-pairs-{args.workload}-{args.seed}.json")
    out.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trees": {k: str(v) for k, v in trees.items()},
         "summary": summary, "operations": ops, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
