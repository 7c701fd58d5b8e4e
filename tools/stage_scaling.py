"""Time one dispatch-stage LP against its period count H.

    python3 tools/stage_scaling.py [--root ROOT] H [H ...]

ROOT (default: the checkout that holds this script) is a tree with the
package in ``src/stockpile`` and the benchmark inputs in
``perfbench/instances.py``; both are imported from ROOT and only read,
so the same script measures any checkout. BLAS is pinned to one thread
before numpy loads.

For each H the stage is the canonical catalog's dispatch stage 1 of 2
with the weather of ``instances.scaling_stage_weather`` drawn from
``numpy.random.default_rng(H)``, and the incoming state of a fixed
capacity decision. The script solves it

* cold, once timed and once under ``tracemalloc`` (``peak_mb`` is the
  peak of traced allocations over that cold solve);
* warm from the cold solve's own basis, which takes 0 pivots;
* warm from the same basis after the incoming storage level moves
  from 30 to 20 GWh (``moved_pivots`` counts its pivots);
* and, as training re-solves a stage, once more after the same move
  through the persistent ``lp.LpState`` that made the cold solve: its
  right-hand sides rewritten in place and the solve restarted from the
  factor it kept (``persistent_pivots`` and ``persistent_refactors``
  count its pivots and factorizations; on a tree without
  ``lp.LpState`` these three figures are null).

It prints one line per H and, last, a JSON list with one object per H.
Each figure is one run, so expect machine noise of tens of percent.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DECISION = dict(generation={"wind": 12.0}, storage_power_out={"cavern": 6.0},
                storage_power_in={"cavern": 6.0},
                storage_energy={"cavern": 60.0})
LEVEL, MOVED_LEVEL = 30.0, 20.0


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def measure(h: int) -> dict:
    """The figures of one stage with ``h`` periods."""
    import numpy as np
    import instances
    from stockpile import lp, model

    catalog, scenario, _ = instances.canonical_instance()
    weather = instances.scaling_stage_weather(np.random.default_rng(h), h)
    problem = model.build_dispatch_stage(1, catalog, scenario, weather,
                                         total_stages=2)

    def stage(level):
        decision = model.CapacityDecision(initial_level={"cavern": level},
                                          **DECISION)
        return model.apply_incoming_state(
            problem, decision.to_state(problem.layout)).instance

    inst, moved = stage(LEVEL), stage(MOVED_LEVEL)
    # a state built from one instance solves it as lp.solve does
    state = lp.LpState(inst) if hasattr(lp, "LpState") else inst
    cold, cold_s = _timed(lambda: lp.solve(state))
    if cold.status != lp.OPTIMAL or cold.basis is None:
        raise RuntimeError(f"H={h}: cold solve ended {cold.status}")
    tracemalloc.start()
    lp.solve(inst)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    warm, warm_s = _timed(lambda: lp.solve(inst, basis=cold.basis))
    shifted, moved_s = _timed(lambda: lp.solve(moved, basis=cold.basis))
    if shifted.status != lp.OPTIMAL:
        raise RuntimeError(f"H={h}: moved solve ended {shifted.status}")
    row = {"H": h, "rows": inst.n_rows, "cols": inst.n_vars,
           "pivots": cold.iterations, "cold_s": cold_s,
           "warm_s": warm_s, "warm_pivots": warm.iterations,
           "moved_s": moved_s, "moved_pivots": shifted.iterations,
           "persistent_s": None, "persistent_pivots": None,
           "persistent_refactors": None, "peak_mb": peak / 2**20}
    if state is not inst:
        rows = list(problem.fishing_rows)
        state.set_rhs(rows, moved.rhs[rows])
        again, again_s = _timed(lambda: lp.solve(state))
        if again.status != lp.OPTIMAL or again.start != "warm":
            raise RuntimeError(f"H={h}: persistent solve ended "
                               f"{again.status} ({again.start})")
        row.update(persistent_s=again_s, persistent_pivots=again.iterations,
                   persistent_refactors=again.refactors)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("periods", type=int, nargs="+", metavar="H")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from stockpile import lp
    if not Path(lp.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported {lp.__file__}, not the package under "
                         f"{root}")
    rows = []
    for h in args.periods:
        row = measure(h)
        rows.append(row)
        print(f"H={h}: {row['rows']} rows, {row['cols']} cols, "
              f"{row['pivots']} pivots, cold {row['cold_s']:.3f} s, "
              f"warm {row['warm_s'] * 1e3:.1f} ms ({row['warm_pivots']} "
              f"pivots), moved {row['moved_s'] * 1e3:.1f} ms "
              f"({row['moved_pivots']} pivots), "
              + ("" if row["persistent_s"] is None else
                 f"persistent {row['persistent_s'] * 1e3:.1f} ms "
                 f"({row['persistent_pivots']} pivots, "
                 f"{row['persistent_refactors']} refactors), ")
              + f"peak {row['peak_mb']:.1f} MB", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
