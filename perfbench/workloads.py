"""The benchmark workloads, their correctness gates and the run loop.

Each workload has a set-up, an input drawn per operation from the run
seed, one timed top-level operation, and a gate that checks the
operation's output against a reference. :func:`run` repeats the
operation for the requested number of seconds and reduces the samples
to the figures the launcher prints.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import time
from pathlib import Path

import numpy as np

import instances
from spans import Tracer, layer_metrics
from stockpile import analysis, benchmarks, lp, model, sddp
from stockpile.weather import sample_path

OUT_DIR = Path(__file__).resolve().parent / "out"
# train's CSV log carries the elapsed seconds at every iteration.
TRAIN_LOG = OUT_DIR / "train-log.csv"

# Relative tolerance on the training bound against the tree optimum,
# as in acceptance check 01.
GAP_TOL = 1e-4
# Relative agreement of the reference objectives with HiGHS.
HIGHS_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Problem sizes and repetition counts of one benchmark run."""

    setups: int = 3
    min_setup_s: float = 2.0
    train_iterations: int = 40
    sim_shape: tuple = (4, 3, 12)
    sim_train_iterations: int = 8
    sim_batch: int = 24
    ref_shape: tuple = (3, 2, 2)
    min_scaling_s: float = 0.2


FULL = Sizes()
# Small enough for the smoke test; same code paths.
TOY = Sizes(setups=1, min_setup_s=0.0, sim_shape=(2, 2, 4),
            sim_train_iterations=2, sim_batch=3, ref_shape=(2, 2, 2),
            min_scaling_s=0.0)

# Period counts of the dispatch-stage scaling row (lp.stage_*.h<H>).
SCALING_PERIODS = (4, 24, 96)

# The sector-simulate system is fixed and the run seed draws the paths;
# README.md gives the measurement behind that choice.
SIM_LATTICE_SEED = 2025
SIM_TRAIN_SEED = 7


def sub_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and a key path."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclasses.dataclass
class Outcome:
    """What one operation produced, after its gate ran."""

    failures: list
    counts: dict
    figures: dict


# -- canonical-train -------------------------------------------------------

class CanonicalTrain:
    """Acceptance check 01's instance trained from a fresh policy."""

    name = "canonical-train"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int) -> dict:
        catalog, scenario, lattice = instances.canonical_instance()
        ef = benchmarks.extensive_form(catalog, scenario, lattice)
        return {"catalog": catalog, "scenario": scenario,
                "lattice": lattice, "reference": ef.objective}

    def draw(self, state, seed: int, i: int) -> int:
        return sub_seed(seed, i)

    def op(self, state, train_seed: int):
        OUT_DIR.mkdir(exist_ok=True)
        options = sddp.TrainOptions(
            max_iterations=self.sizes.train_iterations, seed=train_seed,
            threads=1, log_path=str(TRAIN_LOG))
        return sddp.train(state["catalog"], state["scenario"],
                          state["lattice"], options)

    def check(self, state, inp, policy) -> Outcome:
        return check_training(policy.training_log, TRAIN_LOG.read_text(),
                              state["reference"],
                              sum(len(p) for p in policy.pools.values()))


def check_training(log, csv: str, reference: float, cuts: int) -> Outcome:
    """Gate: the bound never decreases and ends within GAP_TOL of the
    tree optimum. Also reads the iteration and the elapsed seconds at
    which the bound first came within GAP_TOL."""
    failures = []
    bounds = [lb for _, lb, _ in log]
    for k in range(1, len(bounds)):
        if bounds[k] < bounds[k - 1] - 1e-9 * (1.0 + abs(bounds[k - 1])):
            failures.append(f"lower bound fell at iteration {k + 1}: "
                            f"{bounds[k - 1]!r} -> {bounds[k]!r}")
    scale = max(1.0, abs(reference))
    final_gap = abs(bounds[-1] - reference) / scale
    if final_gap > GAP_TOL:
        failures.append(f"final bound {bounds[-1]!r} is {final_gap:.2e} "
                        f"from the tree optimum {reference!r}")
    hit = next((k for k, lb, _ in log
                if abs(lb - reference) / scale <= GAP_TOL), None)
    figures = {}
    if hit is not None:
        row = csv.splitlines()[hit].split(",")
        figures["train_to_gap_s"] = float(row[1])
    return Outcome(failures=failures,
                   counts={"iterations_to_gap": float(hit or 0),
                           "cuts_total": float(cuts)},
                   figures=figures)


# -- sector-simulate -------------------------------------------------------

class SectorSimulate:
    """A trained sector policy simulated over sampled paths, then the
    bid curves, the price duration curve and the dual audit."""

    name = "sector-simulate"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int) -> dict:
        catalog = instances.sector_catalog()
        scenario = instances.sector_scenario()
        lattice = instances.sector_lattice(
            np.random.default_rng(SIM_LATTICE_SEED), *self.sizes.sim_shape)
        policy = sddp.train(catalog, scenario, lattice, sddp.TrainOptions(
            max_iterations=self.sizes.sim_train_iterations,
            seed=SIM_TRAIN_SEED, threads=1))
        return {"catalog": catalog, "policy": policy,
                "lower_bound": policy.training_log[-1][1]}

    def draw(self, state, seed: int, i: int) -> list:
        rng = np.random.default_rng(sub_seed(seed, i))
        lattice = state["policy"].lattice
        return [sample_path(lattice, rng)
                for _ in range(self.sizes.sim_batch)]

    def op(self, state, paths):
        policy = state["policy"]
        start = time.perf_counter()
        runs = sddp.simulate(policy, paths)
        sim_s = time.perf_counter() - start
        curves = [analysis.msv_curve(policy, t)
                  for t in range(policy.n_stages + 1)]
        duration = analysis.price_duration_curve(runs)
        audits = [analysis.kkt_audit(tr, state["catalog"]) for tr in runs]
        return runs, curves, duration, audits, sim_s

    def check(self, state, paths, out) -> Outcome:
        runs, curves, duration, audits, sim_s = out
        outcome = check_simulation([tr.total_cost for tr in runs], audits,
                                   state["lower_bound"])
        outcome.figures["simulate_paths_per_s"] = len(runs) / sim_s
        outcome.counts["cuts_total"] = float(
            sum(len(p) for p in state["policy"].pools.values()))
        if not np.all(np.diff(duration.prices) <= 0.0):
            outcome.failures.append("price duration curve not sorted")
        return outcome


def check_simulation(costs, audits, lower_bound: float) -> Outcome:
    """Gate: every trajectory passes the dual audit, and the simulated
    mean cost is at least the lower bound minus three standard
    errors."""
    failures = []
    violations = sum(len(a.violations) for a in audits)
    if violations:
        failures.append(f"{violations} dual audit violations")
    costs = np.asarray(costs, dtype=float)
    se = costs.std(ddof=1) / math.sqrt(costs.size) if costs.size > 1 else 0.0
    if costs.mean() < lower_bound - 3.0 * se:
        failures.append(f"simulated mean {costs.mean()!r} below the lower "
                        f"bound {lower_bound!r} by more than 3 SE ({se!r})")
    return Outcome(failures=failures,
                   counts={"kkt_checked": float(sum(a.checked
                                                    for a in audits))},
                   figures={})


# -- sector-references -----------------------------------------------------

@contextlib.contextmanager
def captured_solves():
    """Record every (instance, solution) that passes through lp.solve."""
    raw = lp.solve
    seen = []

    def solve(instance, **kwargs):
        sol = raw(instance, **kwargs)
        seen.append((instance, sol))
        return sol

    lp.solve = solve
    try:
        yield seen
    finally:
        lp.solve = raw


def highs_objective(instance: lp.LpInstance) -> float:
    """Optimum of the instance by scipy's HiGHS, the outside reference."""
    from scipy.optimize import linprog

    a = instance.dense_matrix()
    senses = np.array(instance.senses)
    le, ge, eq = (senses == lp.LESS_EQUAL, senses == lp.GREATER_EQUAL,
                  senses == lp.EQUAL)
    res = linprog(instance.objective,
                  A_ub=np.vstack([a[le], -a[ge]]),
                  b_ub=np.concatenate([instance.rhs[le], -instance.rhs[ge]]),
                  A_eq=a[eq], b_eq=instance.rhs[eq],
                  bounds=np.column_stack([instance.lower, instance.upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: "
                           f"{res.message}")
    return float(res.fun)


class SectorReferences:
    """Extensive form and perfect foresight of a small sector lattice,
    each one cold monolithic LP."""

    name = "sector-references"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def _lattice(self, seed: int):
        lattice = instances.sector_lattice(np.random.default_rng(seed),
                                           *self.sizes.ref_shape)
        return lattice, benchmarks.enumerate_paths(lattice)

    def setup(self, seed: int) -> dict:
        # Each operation gets a fresh lattice from draw(); building one
        # here makes setup_s cover what an operation needs before it
        # is timed.
        self._lattice(sub_seed(seed, 0))
        return {"catalog": instances.sector_catalog(),
                "scenario": instances.sector_scenario()}

    def draw(self, state, seed: int, i: int):
        return self._lattice(sub_seed(seed, i))

    def op(self, state, inp):
        lattice, paths = inp
        cat, scen = state["catalog"], state["scenario"]
        with captured_solves() as seen:
            t0 = time.perf_counter()
            ef = benchmarks.extensive_form(cat, scen, lattice)
            t1 = time.perf_counter()
            pf = benchmarks.perfect_foresight(cat, scen, paths)
            t2 = time.perf_counter()
        return ef, pf, list(seen), t1 - t0, t2 - t1

    def check(self, state, inp, out) -> Outcome:
        ef, pf, seen, ef_s, pf_s = out
        start = time.perf_counter()
        highs = [highs_objective(inst) for inst, _ in seen]
        highs_s = time.perf_counter() - start
        outcome = check_references(ef.objective, pf.objective, highs)
        outcome.figures.update(extensive_form_s=ef_s, perfect_foresight_s=pf_s,
                               highs_s=highs_s)
        return outcome


def check_references(ef: float, pf: float, highs) -> Outcome:
    """Gate: perfect foresight costs no more than the scenario tree, and
    both objectives agree with HiGHS within HIGHS_TOL relative."""
    failures = []
    if pf > ef + 1e-9 * max(1.0, abs(ef)):
        failures.append(f"perfect foresight {pf!r} above the extensive "
                        f"form {ef!r}")
    if len(highs) != 2:
        failures.append(f"expected 2 reference solves, saw {len(highs)}")
    for what, ours, ref in zip(("extensive form", "perfect foresight"),
                               (ef, pf), highs):
        if abs(ours - ref) > HIGHS_TOL * max(1.0, abs(ref)):
            failures.append(f"{what} objective {ours!r} differs from "
                            f"HiGHS {ref!r}")
    return Outcome(failures=failures, counts={}, figures={})


WORKLOADS = {w.name: w for w in (CanonicalTrain, SectorSimulate,
                                 SectorReferences)}


# -- measurement -----------------------------------------------------------

def stage_scaling(seed: int, sizes: Sizes) -> dict:
    """Time one canonical-catalog dispatch-stage solve per period count."""
    catalog, scenario, _ = instances.canonical_instance()
    decision = model.CapacityDecision(
        generation={"wind": 12.0}, storage_power_out={"cavern": 6.0},
        storage_power_in={"cavern": 6.0}, storage_energy={"cavern": 60.0},
        initial_level={"cavern": 30.0})
    rng = np.random.default_rng(sub_seed(seed, 1 << 20))
    out = {}
    for h in SCALING_PERIODS:
        weather = instances.scaling_stage_weather(rng, h)
        problem = model.build_dispatch_stage(1, catalog, scenario, weather,
                                             total_stages=2)
        inst = model.apply_incoming_state(
            problem, decision.to_state(problem.layout)).instance
        times = []
        while len(times) < 3 or sum(times) < sizes.min_scaling_s:
            t0 = time.perf_counter()
            sol = lp.solve(inst)
            times.append(time.perf_counter() - t0)
            if sol.status != lp.OPTIMAL:
                raise RuntimeError(f"H={h} stage solve ended {sol.status}")
        out[f"lp.stage_solve_ms.h{h}"] = 1000.0 * float(np.median(times))
        out[f"lp.stage_rows.h{h}"] = float(inst.n_rows)
    return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, float(sorted(samples)[n - 11])


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def run(name: str, seed: int, seconds: float, traced: bool,
        sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns every figure it measured."""
    workload = WORKLOADS[name](sizes)
    setup_times = []
    state = None
    while (len(setup_times) < sizes.setups
           or sum(setup_times) < sizes.min_setup_s):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer()
    op_times, overheads = [], []
    attempted = failed = 0
    failures, counts, figures = [], {}, {}

    def one(inp, trace_it: bool):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            if trace_it:
                with tracer.installed(), tracer.root(name):
                    out = workload.op(state, inp)
            else:
                out = workload.op(state, inp)
            elapsed = time.perf_counter() - t0
            outcome = workload.check(state, inp, out)
        except Exception as exc:  # a failed operation is reported, not fatal
            failed += 1
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        if outcome.failures:
            failed += 1
            failures.extend(outcome.failures)
        for table, new in ((counts, outcome.counts),
                           (figures, outcome.figures)):
            for key, value in new.items():
                table.setdefault(key, []).append(value)
        return elapsed

    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        inp = workload.draw(state, seed, i)
        dt = one(inp, False)
        if dt is not None:
            op_times.append(dt)
        if traced:
            dt_traced = one(inp, True)
            if dt is not None and dt_traced is not None:
                overheads.append(dt_traced / dt - 1.0)
        i += 1

    result = {
        "name": name,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "op_times": op_times,
        "setup_times": setup_times,
        "counts": {k: _median(v) for k, v in counts.items()},
        "figures": {k: _median(v) for k, v in figures.items()},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        layers = layer_metrics(tracer)
        layers["trace.overhead_ratio"] = _median(overheads)
        layers["sddp.cuts_total"] = result["counts"].get("cuts_total", 0.0)
        layers["sddp.iterations_to_gap"] = result["counts"].get(
            "iterations_to_gap", 0.0)
        layers.update(stage_scaling(seed, sizes))
        result["layers"] = layers
        result["tracer"] = tracer
    return result
