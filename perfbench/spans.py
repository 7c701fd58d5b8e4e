"""Outside-in span tracing of the stockpile layers.

The tracer replaces module attributes of the package (``lp.solve``,
``sddp.forward_pass``, ...) with wrappers that record one span per
call: name, start, end and the index of the enclosing span. Nothing in
the package changes; callers inside it pick the wrappers up because
they look the functions up through their module at call time. Spans
are only recorded inside a root span opened with :meth:`Tracer.root`,
so set-up work outside the timed operations leaves no trace.

A span's self time is its duration minus the durations of its direct
children. Calls nest strictly (everything runs on one thread), so the
self times of a root's tree add up to the root's duration.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

from stockpile import analysis, benchmarks, lp, model, sddp, weather


def _solve_attrs(args, sol):
    inst = args[0]
    start = inst.row_index.get("cut:0")
    cuts = 0 if start is None else inst.n_rows - start
    binding = 0
    if cuts and sol.status == lp.OPTIMAL:
        binding = int(np.count_nonzero(np.abs(sol.duals[start:]) > 1e-9))
    return (inst.n_rows, sol.iterations, cuts, binding)


def _kkt_attrs(args, report):
    return report.checked


# (span name, owner object, attribute, result hook). ``sddp`` imports
# ``sample_path`` by name, so that binding is wrapped as well.
_TARGETS = (
    ("lp.solve", lp, "solve", _solve_attrs),
    ("lp.extend_rows", lp, "extend_rows", None),
    ("lp.LpBuilder.build", lp.LpBuilder, "build", None),
    ("model.build_capacity_stage", model, "build_capacity_stage", None),
    ("model.build_dispatch_stage", model, "build_dispatch_stage", None),
    ("model.apply_incoming_state", model, "apply_incoming_state", None),
    ("model.extract_dispatch", model, "extract_dispatch", None),
    ("sddp.train", sddp, "train", None),
    ("sddp.forward_pass", sddp, "forward_pass", None),
    ("sddp.backward_pass", sddp, "backward_pass", None),
    ("sddp.lower_bound", sddp, "lower_bound", None),
    ("sddp.simulate", sddp, "simulate", None),
    ("benchmarks.extensive_form", benchmarks, "extensive_form", None),
    ("benchmarks.perfect_foresight", benchmarks, "perfect_foresight", None),
    ("analysis.msv_curve", analysis, "msv_curve", None),
    ("analysis.price_duration_curve", analysis, "price_duration_curve",
     None),
    ("analysis.kkt_audit", analysis, "kkt_audit", _kkt_attrs),
    ("weather.sample_path", weather, "sample_path", None),
    ("weather.sample_path", sddp, "sample_path", None),
    ("weather.from_vectors", weather.SamplingLattice, "from_vectors", None),
)


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        # Each span is [name, start, end, parent, attrs].
        self.spans: list[list] = []
        self.roots: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for name, owner, attr, hook in _TARGETS:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a top-level span; layer calls inside it are recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, -1, None]
        self.spans.append(span)
        self.roots.append(idx)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> np.ndarray:
        """Self time of every span, in span order."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3]}) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans, as ``{name: value}``.

    Times and counts are per top-level operation (a root span); the
    ``per_solve`` figures are means over the LP solves.
    """
    spans = tracer.spans
    own = tracer.self_times()
    n_ops = max(len(tracer.roots), 1)
    wall = sum(spans[r][2] - spans[r][1] for r in tracer.roots)
    total = {}
    selft = {}
    for s, o in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        selft[s[0]] = selft.get(s[0], 0.0) + o

    solves = [s for s in spans if s[0] == "lp.solve"]
    n_solves = len(solves)
    rows = np.array([s[4][0] for s in solves], dtype=float)
    pivots = np.array([s[4][1] for s in solves], dtype=float)
    cuts = np.array([s[4][2] for s in solves], dtype=float)
    binding = np.array([s[4][3] for s in solves], dtype=float)
    train_idx = {i for i, s in enumerate(spans) if s[0] == "sddp.train"}
    direct = sum(1 for s in solves if s[3] in train_idx)

    def mean(arr):
        return float(arr.mean()) if arr.size else 0.0

    def per_op(key, table=total):
        return table.get(key, 0.0) / n_ops

    solve_s = total.get("lp.solve", 0.0)
    materialize = (total.get("lp.extend_rows", 0.0)
                   + total.get("model.apply_incoming_state", 0.0))
    ref_names = ("benchmarks.extensive_form", "benchmarks.perfect_foresight")
    ref_ids = {i for i, s in enumerate(spans) if s[0] in ref_names}
    ref_solve = sum(s[2] - s[1] for s in solves if s[3] in ref_ids)
    ref_rows = {}
    for s in solves:
        if s[3] in ref_ids:
            key = spans[s[3]][0]
            ref_rows[key] = max(ref_rows.get(key, 0), s[4][0])
    curves = (total.get("analysis.msv_curve", 0.0)
              + total.get("analysis.price_duration_curve", 0.0))
    kkt_checked = sum(s[4] for s in spans if s[0] == "analysis.kkt_audit")
    weather_s = sum(v for k, v in total.items() if k.startswith("weather."))
    return {
        "lp.solves": n_solves / n_ops,
        "lp.solve_s": solve_s / n_ops,
        "lp.ms_per_solve": 1000.0 * solve_s / n_solves if n_solves else 0.0,
        "lp.pivots_per_solve": mean(pivots),
        "lp.rows_per_solve": mean(rows),
        "lp.max_rows": float(rows.max()) if rows.size else 0.0,
        "lp.extend_rows_s": per_op("lp.extend_rows"),
        "lp.builder_s": per_op("lp.LpBuilder.build"),
        "model.apply_incoming_state_s": per_op("model.apply_incoming_state"),
        "model.build_dispatch_stage_s": per_op("model.build_dispatch_stage"),
        "model.extract_dispatch_s": per_op("model.extract_dispatch"),
        "sddp.forward_s": per_op("sddp.forward_pass"),
        "sddp.backward_s": per_op("sddp.backward_pass"),
        "sddp.lower_bound_s": per_op("sddp.lower_bound"),
        "sddp.simulate_s": per_op("sddp.simulate"),
        "sddp.train_self_s": per_op("sddp.train", selft),
        "sddp.train_direct_solves": direct / n_ops,
        "sddp.cut_rows_per_solve": mean(cuts),
        "sddp.binding_cut_ratio": (float(binding.sum() / cuts.sum())
                                   if cuts.sum() else 0.0),
        "benchmarks.assembly_s": (sum(total.get(k, 0.0) for k in ref_names)
                                  - ref_solve) / n_ops,
        "benchmarks.ef_rows": float(ref_rows.get(ref_names[0], 0)),
        "benchmarks.pf_rows": float(ref_rows.get(ref_names[1], 0)),
        "analysis.curves_s": curves / n_ops,
        "analysis.kkt_s": per_op("analysis.kkt_audit"),
        "analysis.kkt_checked": kkt_checked / n_ops,
        "weather.s": weather_s / n_ops,
        "trace.wall_s": wall / n_ops,
        "trace.lp_solve_share": solve_s / wall if wall else 0.0,
        "trace.materialize_share": materialize / wall if wall else 0.0,
    }
