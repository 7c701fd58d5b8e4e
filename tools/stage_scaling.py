"""Time one dispatch-stage LP against its period count H.

    python3 tools/stage_scaling.py [--root ROOT] H [H ...]

ROOT (default: the checkout that holds this script) is a tree with the
package in ``src/stockpile`` and the benchmark inputs in
``perfbench/instances.py``; both are imported from ROOT and only read,
so the same script measures any checkout. Run as a script, it pins BLAS
to one thread before numpy loads; imported, it leaves the environment
alone, and ``main`` restores ``sys.path`` when it returns.

For each H the stage is the canonical catalog's dispatch stage 1 of 2
with the weather of ``instances.scaling_stage_weather`` drawn from
``numpy.random.default_rng(H)``, and the incoming state of a fixed
capacity decision. The script solves it

* cold, once timed and once under ``tracemalloc`` (``peak_mb`` is the
  peak of traced allocations over that cold solve); ``held_factor_mb``
  is the size of the factor the timed solve's ``lp.LpState`` keeps for
  its next solve, counting the whole buffer it lives in;
* warm from the cold solve's own basis, which takes 0 pivots;
* warm from the same basis after the incoming storage level moves
  from 30 to 20 GWh (``moved_pivots`` counts its pivots);
* and, as training re-solves a stage, once more after the same move
  through the persistent ``lp.LpState`` that made the cold solve: its
  right-hand sides rewritten in place and the solve restarted from the
  factor it kept (``persistent_pivots`` and ``persistent_refactors``
  count its pivots and factorizations);
* and last, as a backward pass grows a stage, once more after one
  fixed cut on the closing level, theta + 2 level >= 200, is appended
  to that state (``cut_s``, ``cut_dual_pivots`` and
  ``cut_primal_pivots``).

On a tree without ``lp.LpState`` the held factor and the figures of the
last two solves are null.

It prints one line per H and, last, a JSON list with one object per H;
it stops quietly when its reader closes the pipe (``... | head -2``).
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

DECISION = dict(generation={"wind": 12.0}, storage_power_out={"cavern": 6.0},
                storage_power_in={"cavern": 6.0},
                storage_energy={"cavern": 60.0})
LEVEL, MOVED_LEVEL = 30.0, 20.0
CUT = (1.0, 2.0, 200.0)     # theta + 2 level >= 200


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def held_factor_mb(state):
    """MiB of the buffer under the factor ``state`` keeps, or None when
    it keeps none."""
    sx = getattr(state, "sx", None)
    if sx is None:
        return None
    inv = sx.inv
    while inv.base is not None:
        inv = inv.base
    return inv.nbytes / 2**20


def stage_lps(h: int) -> tuple:
    """The stage with ``h`` periods: the stage problem, and its
    instance at the incoming level ``LEVEL`` and at ``MOVED_LEVEL``."""
    import numpy as np
    import instances
    from stockpile import model

    catalog, scenario, _ = instances.canonical_instance()
    weather = instances.scaling_stage_weather(np.random.default_rng(h), h)
    problem = model.build_dispatch_stage(1, catalog, scenario, weather,
                                         total_stages=2)

    def stage(level):
        decision = model.CapacityDecision(initial_level={"cavern": level},
                                          **DECISION)
        return model.apply_incoming_state(
            problem, decision.to_state(problem.layout)).instance

    return problem, stage(LEVEL), stage(MOVED_LEVEL)


def append_cut(state, problem) -> None:
    """Append ``CUT`` on the closing level to ``state``, an
    ``lp.LpState`` of the stage ``problem``."""
    from stockpile import lp

    level = problem.state_columns[problem.layout.position("level:cavern")]
    state.append_rows([0, 2], [problem.theta_column, level], CUT[:2],
                      [lp.GREATER_EQUAL], [CUT[2]], ["cut:0"])


def measure(h: int) -> dict:
    """The figures of one stage with ``h`` periods."""
    from stockpile import lp

    problem, inst, moved = stage_lps(h)
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
           "persistent_refactors": None, "cut_s": None,
           "cut_dual_pivots": None, "cut_primal_pivots": None,
           "peak_mb": peak / 2**20, "held_factor_mb": None}
    if state is not inst:
        row.update(held_factor_mb=held_factor_mb(state))
        rows = list(problem.fishing_rows)
        state.set_rhs(rows, moved.rhs[rows])
        again, again_s = _timed(lambda: lp.solve(state))
        if again.status != lp.OPTIMAL or again.start != "warm":
            raise RuntimeError(f"H={h}: persistent solve ended "
                               f"{again.status} ({again.start})")
        row.update(persistent_s=again_s, persistent_pivots=again.iterations,
                   persistent_refactors=again.refactors)
        append_cut(state, problem)
        cut, cut_s = _timed(lambda: lp.solve(state))
        if cut.status != lp.OPTIMAL or cut.start != "warm":
            raise RuntimeError(f"H={h}: solve after the cut ended "
                               f"{cut.status} ({cut.start})")
        row.update(cut_s=cut_s, cut_dual_pivots=cut.dual_pivots,
                   cut_primal_pivots=cut.primal_pivots)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("periods", type=int, nargs="+", metavar="H")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    saved_path = list(sys.path)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        from stockpile import lp
        if not Path(lp.__file__).resolve().is_relative_to(root / "src"):
            raise SystemExit(f"imported {lp.__file__}, not the package "
                             f"under {root}")
        rows = []
        for h in args.periods:
            rows.append(measure(h))
            print(line(rows[-1]), flush=True)
        print(json.dumps(rows))
    except BrokenPipeError:
        # the reader is gone; point stdout at the null device so that
        # the interpreter's last flush at exit finds no pipe to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        sys.path[:] = saved_path
    return 0


def line(row: dict) -> str:
    """The printed line of one H."""
    return (f"H={row['H']}: {row['rows']} rows, {row['cols']} cols, "
            f"{row['pivots']} pivots, cold {row['cold_s']:.3f} s, "
            f"warm {row['warm_s'] * 1e3:.1f} ms ({row['warm_pivots']} "
            f"pivots), moved {row['moved_s'] * 1e3:.1f} ms "
            f"({row['moved_pivots']} pivots), "
            + ("" if row["persistent_s"] is None else
               f"persistent {row['persistent_s'] * 1e3:.1f} ms "
               f"({row['persistent_pivots']} pivots, "
               f"{row['persistent_refactors']} refactors), "
               f"cut {row['cut_s'] * 1e3:.1f} ms "
               f"({row['cut_dual_pivots']} dual + "
               f"{row['cut_primal_pivots']} primal pivots), ")
            + f"peak {row['peak_mb']:.1f} MB"
            + ("" if row["held_factor_mb"] is None else
               f", held factor {row['held_factor_mb']:.2f} MB"))


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
