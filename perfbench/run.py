"""Benchmark launcher for stockpile.

Run from the root of a checkout:

    python3 perfbench/run.py --workload canonical-train --seed 1 \
        --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout; without it the
launcher exits with code 2 and prints no result. The BLAS thread count
is pinned before numpy loads, because the pivot sequence of the simplex
(and so the pivot counts and iterations to the gap) depends on it.

Standard output holds a header with the machine, a human-readable
summary, and as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``, measured
untraced; with ``--trace 1`` they are the per-layer ones, from a run
that pairs every untraced operation with a traced one. The exit code is
1 when a correctness gate failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Figures printed in the summary only: the workload-specific names of
# the end-to-end results.
SUMMARY_UNITS = {"train_to_gap_s": "s", "simulate_paths_per_s": "1/s",
                 "extensive_form_s": "s", "perfect_foresight_s": "s",
                 "highs_s": "s", "iterations_to_gap": "count",
                 "cuts_total": "count", "kkt_checked": "count"}


def pin_blas_threads() -> None:
    """Pin BLAS to BLAS_THREADS (at most the CPU count) before numpy
    is imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ.get(_BLAS_VARS[0], "unset"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(ROOT),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("canonical-train", "sector-simulate",
                            "sector-references"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metrics_of(result: dict, traced: bool) -> dict:
    """The JSON metrics block: every metric ``BENCHMARK.json`` declares
    for this kind of run, with its declared unit."""
    import numpy as np

    if traced:
        values = result["layers"]
    else:
        ops = result["op_times"] or [0.0]  # all failed: correct is false
        values = {"op_s": float(np.median(ops)),
                  "setup_s": float(np.median(result["setup_times"])),
                  "peak_rss_mb": result["peak_rss_mb"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared}


def summary_lines(result: dict, env: dict) -> list:
    """The human-readable part of the output: ``name value unit``."""
    import numpy as np
    import workloads

    lines = ["# " + " ".join(f"{k}={v}" for k, v in env.items())]
    ops = result["op_times"]
    lines.append(f"op_s.samples {len(ops)} count")
    if ops:
        lines.append(f"op_s.median {float(np.median(ops))!r} s")
        t = workloads.tail(ops)
        if t is not None:
            lines.append(f"op_s.p{t[0]:.0f} {t[1]!r} s")
    lines.append(f"failure_ratio {result['failed'] / result['attempted']!r} "
                 "ratio")
    for table in ("figures", "counts"):
        for key, value in sorted(result[table].items()):
            lines.append(f"{key} {value!r} {SUMMARY_UNITS[key]}")
    for failure in result["failures"][:20]:
        lines.append(f"# gate failed: {failure}")
    return lines


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stockpile" / "__init__.py").is_file():
        print(f"no stockpile sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), sizes or workloads.FULL)
    for line in summary_lines(result, environment()):
        print(line)
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        result["tracer"].dump(
            workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics_of(result, bool(args.trace))}))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_blas_threads()
    sys.exit(main())
