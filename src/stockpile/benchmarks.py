"""Reference optima for judging trained policies.

Three foresight regimes, all solved as single monolithic LPs with
their own constraint assembly (independent of the stagewise builder,
so the two formulations cross-check each other):

* :func:`extensive_form` unrolls the whole sampling lattice into a
  scenario tree, one dispatch block per node. Every block reads the
  shared capacity columns and opens its long-duration stores at its
  parent's closing levels, so each decision is one column. Its optimum
  is the exact value the training lower bound approaches from below.
  Desk scale only; guarded at 10,000 paths.
* :func:`perfect_foresight` shares one capacity decision across a set
  of weather years, each dispatched with full knowledge of its own
  year, averaged with equal weights.
* :func:`single_year_deterministic` co-optimizes capacity and dispatch
  against one year alone.

Costs and prices use the same unit conventions as the stage builder:
MEUR objective, per-period energy in GWh, reported prices in EUR/MWh.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp, model
from .errors import DimensionMismatch, TreeTooLarge, UnknownStage
from .tables import csv_text
from .weather import SamplingLattice, WeatherPath

_TREE_LIMIT = 10_000


@dataclass(frozen=True)
class BenchmarkResult:
    """Optimum of one reference model.

    Args:
        capacities: Optimal capacity decision.
        objective: Total expected cost in MEUR (capital plus weighted
            dispatch).
        capital_cost: Capital part of the objective in MEUR.
        dispatch_costs: Raw (unweighted) dispatch cost per scenario.
        weights: Probability weight per scenario; sums to one.
        prices: Electricity price series per scenario in EUR/MWh,
            concatenated over the horizon.
        labels: Scenario identifiers, parallel to the other tuples.
        storage_levels: Per-scenario storage level series in GWh, one
            dict (storage name -> per-period array) per scenario,
            parallel to ``labels``; filled by the whole-year foresight
            models, None for the scenario tree.
    """

    capacities: model.CapacityDecision
    objective: float
    capital_cost: float
    dispatch_costs: tuple
    weights: tuple
    prices: tuple
    labels: tuple
    storage_levels: tuple | None = None

    def to_tables(self) -> dict:
        """Delimited-text exports: capacity table, cost table, and the
        per-scenario price series."""
        c = self.capacities
        cap = [(name, field, v) for field, data in (
            ("generation_gw", c.generation),
            ("power_out_gw", c.storage_power_out),
            ("power_in_gw", c.storage_power_in),
            ("energy_gwh", c.storage_energy),
            ("initial_level_gwh", c.initial_level))
            for name, v in data.items()]
        cap.append(("contract", "volume_gwh_per_period", c.ltc_volume))
        return {
            "capacities": csv_text(("technology", "field", "value"), cap),
            "costs": csv_text(("scenario", "weight", "dispatch_cost_meur"),
                              zip(self.labels, self.weights,
                                  self.dispatch_costs)),
            "prices": csv_text(
                ("scenario", "period", "price_eur_per_mwh"),
                ((lab, h, p) for lab, series in zip(self.labels, self.prices)
                 for h, p in enumerate(map(float, series))))}


def _add_capacity_variables(b: lp.LpBuilder, catalog):
    """Shared first-stage variables; returns label -> column map."""
    cols = {}
    for r in catalog.generators:
        cols[f"gen:{r.name}"] = b.add_variable(
            f"cap:gen:{r.name}", cost=r.capital_cost * model._POWER_COST_SCALE,
            lower=r.min_capacity, upper=r.max_capacity)
    for s in catalog.storages:
        cols[f"pout:{s.name}"] = b.add_variable(
            f"cap:pout:{s.name}", cost=s.capital_cost_out * model._POWER_COST_SCALE,
            upper=s.max_power_out)
        cols[f"pin:{s.name}"] = b.add_variable(
            f"cap:pin:{s.name}", cost=s.capital_cost_in * model._POWER_COST_SCALE,
            upper=s.max_power_in)
        cols[f"energy:{s.name}"] = b.add_variable(
            f"cap:energy:{s.name}", cost=s.capital_cost_energy * model._POWER_COST_SCALE,
            upper=s.max_energy)
    for s in catalog.long_duration_storages:
        cols[f"ini:{s.name}"] = b.add_variable(f"cap:ini:{s.name}")
        b.add_row(f"inicap:{s.name}",
                  [(cols[f"ini:{s.name}"], 1.0),
                   (cols[f"energy:{s.name}"], -1.0)],
                  lp.LESS_EQUAL, 0.0)
    cols["ltc"] = b.add_variable(
        "cap:ltc", cost=catalog.ltc_price * model._ENERGY_COST_SCALE,
        upper=catalog.ltc_max if catalog.ltc_max > 0 else 0.0)
    return cols


def _capacity_state(cap_cols):
    """State lookup on the capacity variables: a long-duration store
    opens at its ``ini`` level, every other label maps to itself."""
    def state_col(label):
        kind, _, name = label.partition(":")
        return cap_cols["ini:" + name] if kind == "level" else cap_cols[label]
    return state_col


def _read_capacities(catalog, value) -> model.CapacityDecision:
    return model.CapacityDecision(
        generation={r.name: value(f"cap:gen:{r.name}")
                    for r in catalog.generators},
        storage_power_out={s.name: value(f"cap:pout:{s.name}")
                           for s in catalog.storages},
        storage_power_in={s.name: value(f"cap:pin:{s.name}")
                          for s in catalog.storages},
        storage_energy={s.name: value(f"cap:energy:{s.name}")
                        for s in catalog.storages},
        initial_level={s.name: value(f"cap:ini:{s.name}")
                       for s in catalog.long_duration_storages},
        ltc_volume=value("cap:ltc"))


def _capital_cost(catalog, cap: model.CapacityDecision) -> float:
    total = sum(r.capital_cost * model._POWER_COST_SCALE * cap.generation[r.name]
                for r in catalog.generators)
    total += sum(s.capital_cost_out * model._POWER_COST_SCALE * cap.storage_power_out[s.name]
                 + s.capital_cost_in * model._POWER_COST_SCALE * cap.storage_power_in[s.name]
                 + s.capital_cost_energy * model._POWER_COST_SCALE * cap.storage_energy[s.name]
                 for s in catalog.storages)
    total += catalog.ltc_price * model._ENERGY_COST_SCALE * cap.ltc_volume
    return total


class _Block:
    """One weather block of dispatch variables inside a monolithic LP.

    ``prefix`` namespaces the labels, ``weight`` scales the cost
    coefficients (scenario probability), and ``state_col`` maps the
    label of each incoming-state entry to its column: the capacities,
    the ``ini:<s>`` targets, and ``level:<s>``, where long-duration
    store ``s`` opens the block. ``terminal`` adds, for each
    long-duration store, a row that makes its closing level reach its
    ``ini:<s>`` target or pay for the slip at the value of lost load.
    """

    def __init__(self, b, catalog, scenario, weather, prefix, weight,
                 state_col, terminal):
        self.prefix = prefix
        self.weight = weight
        self.weather = weather
        self.balance_rows = []
        self.cost_terms = []
        sink = catalog.import_sink
        H = weather.n_periods
        hours = weather.period_hours
        req = weather.electricity_requirement()
        g = {}
        f = {}
        ch = {}
        e = {}
        for r in catalog.generators:
            for h in range(H):
                c = r.marginal_cost * model._ENERGY_COST_SCALE
                g[r.name, h] = b.add_variable(f"{prefix}:g:{r.name}:{h}",
                                              cost=weight * c)
                if c:
                    self.cost_terms.append((g[r.name, h], c))
        for s in catalog.storages:
            for h in range(H):
                f[s.name, h] = b.add_variable(f"{prefix}:f:{s.name}:{h}")
                ch[s.name, h] = b.add_variable(f"{prefix}:ch:{s.name}:{h}")
                e[s.name, h] = b.add_variable(f"{prefix}:e:{s.name}:{h}")
        shed = []
        voll = scenario.voll * model._ENERGY_COST_SCALE
        for h in range(H):
            col = b.add_variable(f"{prefix}:shed:{h}", cost=weight * voll)
            shed.append(col)
            self.cost_terms.append((col, voll))
        spot = None
        if scenario.spot_price is not None and sink is not None:
            spot = []
            sc = scenario.spot_price * model._ENERGY_COST_SCALE
            cap = (scenario.spot_cap * hours
                   if scenario.spot_cap is not None else np.inf)
            for h in range(H):
                col = b.add_variable(f"{prefix}:spot:{h}", cost=weight * sc,
                                     upper=cap)
                spot.append(col)
                self.cost_terms.append((col, sc))
        lift = None
        if catalog.ltc_max > 0 and sink is not None:
            lift = [b.add_variable(f"{prefix}:lift:{h}") for h in range(H)]
            for h in range(H):
                b.add_row(f"{prefix}:ltclo:{h}",
                          [(lift[h], 1.0), (state_col("ltc"), -0.9)],
                          lp.GREATER_EQUAL, 0.0)
                b.add_row(f"{prefix}:ltchi:{h}",
                          [(lift[h], 1.0), (state_col("ltc"), -1.1)],
                          lp.LESS_EQUAL, 0.0)
        for r in catalog.generators:
            if r.availability is not None:
                phi = np.full(H, r.availability)
            else:
                phi = weather.capacity_factors[r.name]
            col = state_col(f"gen:{r.name}")
            for h in range(H):
                b.add_row(f"{prefix}:avail:{r.name}:{h}",
                          [(g[r.name, h], 1.0), (col, -phi[h] * hours)],
                          lp.LESS_EQUAL, 0.0)
        for s in catalog.storages:
            for h in range(H):
                b.add_row(f"{prefix}:fcap:{s.name}:{h}",
                          [(f[s.name, h], 1.0),
                           (state_col(f"pout:{s.name}"), -hours)],
                          lp.LESS_EQUAL, 0.0)
                b.add_row(f"{prefix}:hcap:{s.name}:{h}",
                          [(ch[s.name, h], 1.0),
                           (state_col(f"pin:{s.name}"), -hours)],
                          lp.LESS_EQUAL, 0.0)
                b.add_row(f"{prefix}:ecap:{s.name}:{h}",
                          [(e[s.name, h], 1.0),
                           (state_col(f"energy:{s.name}"), -1.0)],
                          lp.LESS_EQUAL, 0.0)
        for h in range(H):
            terms = [(g[r.name, h], 1.0) for r in catalog.generators]
            terms += [(f[s.name, h], 1.0) for s in catalog.storages]
            terms.append((shed[h], 1.0))
            terms += [(ch[s.name, h], -1.0) for s in catalog.storages]
            row = b.add_row(f"{prefix}:balance:{h}", terms, lp.EQUAL,
                            float(req[h]))
            self.balance_rows.append(row)
        for s in catalog.storages:
            for h in range(H):
                terms = [(e[s.name, h], -1.0),
                         (ch[s.name, h], s.efficiency_in),
                         (f[s.name, h], -1.0 / s.efficiency_out)]
                if h > 0:
                    terms.append((e[s.name, h - 1], 1.0))
                elif s.long_duration:
                    terms.append((state_col(f"level:{s.name}"), 1.0))
                else:
                    terms.append((e[s.name, H - 1], 1.0))
                if sink is not None and s.name == sink.name:
                    if spot is not None:
                        terms.append((spot[h], 1.0))
                    if lift is not None:
                        terms.append((lift[h], 1.0))
                b.add_row(f"{prefix}:sbal:{s.name}:{h}", terms,
                          lp.EQUAL, 0.0)
        if terminal:
            for s in catalog.long_duration_storages:
                slip = b.add_variable(f"{prefix}:slip:{s.name}",
                                      cost=weight * voll)
                self.cost_terms.append((slip, voll))
                b.add_row(f"{prefix}:terminal:{s.name}",
                          [(state_col(f"ini:{s.name}"), 1.0),
                           (e[s.name, H - 1], -1.0), (slip, -1.0)],
                          lp.LESS_EQUAL, 0.0)
        self.closing_energy = {s.name: e[s.name, H - 1]
                               for s in catalog.storages}
        self.energy_columns = {s.name: [e[s.name, h] for h in range(H)]
                               for s in catalog.storages}

    def raw_cost(self, primal) -> float:
        return float(sum(c * primal[j] for j, c in self.cost_terms))

    def level_series(self, primal, name: str) -> np.ndarray:
        return np.asarray([primal[j] for j in self.energy_columns[name]])

    def price_series(self, sol) -> np.ndarray:
        duals = sol.duals[self.balance_rows]
        return duals / self.weight / model._ENERGY_COST_SCALE


def _tree_nodes(lattice, start_stage):
    """Breadth-first scenario-tree enumeration from ``start_stage``.

    Yields (node id tuple, stage, realization index, parent id,
    probability)."""
    frontier = [((), None)]
    for t in range(start_stage, lattice.n_stages + 1):
        nxt = []
        for nid, _ in frontier:
            for i in range(lattice.branch_count(t)):
                nxt.append(((*nid, i), nid))
        frontier = nxt
        for nid, parent in frontier:
            prob = math.prod(
                1.0 / lattice.branch_count(tau)
                for tau in range(start_stage, t + 1))
            yield nid, t, nid[-1], parent, prob


def _unroll_tree(b, catalog, scenario, lattice, start_stage, root_state):
    """Add a dispatch block for every tree node from ``start_stage`` on.

    Every block reads its incoming state from the columns that hold the
    decision: ``root_state(label)`` names the column of each state
    entry, except that below ``start_stage`` a long-duration store
    opens at its parent block's closing energy. Returns node id ->
    block.
    """
    blocks = {}
    T = lattice.n_stages
    for nid, t, i, parent, prob in _tree_nodes(lattice, start_stage):
        state_col = root_state
        if parent != ():
            def state_col(label, _closing=blocks[parent].closing_energy):
                kind, _, name = label.partition(":")
                return _closing[name] if kind == "level" else root_state(label)
        blocks[nid] = _Block(b, catalog, scenario, lattice.realizations(t)[i],
                             "n" + "-".join(map(str, nid)), prob, state_col,
                             terminal=(t == T))
    return blocks


def enumerate_paths(lattice: SamplingLattice) -> list:
    """Every distinct path through the lattice, in index order.

    Guarded by the same enumeration limit as the scenario-tree solve.
    """
    if lattice.path_count > _TREE_LIMIT:
        raise TreeTooLarge(
            f"{lattice.path_count} paths exceed the {_TREE_LIMIT} limit")
    ranges = [range(lattice.branch_count(t))
              for t in range(1, lattice.n_stages + 1)]
    return [lattice.path(combo) for combo in itertools.product(*ranges)]


def extensive_form(catalog: model.TechnologyCatalog,
                   scenario: model.MarketScenario,
                   lattice: SamplingLattice) -> BenchmarkResult:
    """Solve the deterministic equivalent of the whole lattice.

    Every scenario-tree node gets its own dispatch block, which reads
    the capacity columns directly and opens each long-duration store at
    the capacity stage's opening level (first stage) or at its parent
    block's closing level; the optimum is the exact expected-cost
    benchmark for training.

    Raises:
        TreeTooLarge: more than 10,000 leaf paths.
        SolverFailure: the monolithic LP did not solve to optimality.
    """
    if lattice.path_count > _TREE_LIMIT:
        raise TreeTooLarge(
            f"{lattice.path_count} paths exceed the {_TREE_LIMIT} limit")
    b = lp.LpBuilder()
    cap_cols = _add_capacity_variables(b, catalog)
    blocks = _unroll_tree(b, catalog, scenario, lattice, 1,
                          _capacity_state(cap_cols))
    sol = lp.solve_optimal(b.build(), "extensive form")
    T = lattice.n_stages
    cap = _read_capacities(catalog, sol.value)
    leaves = sorted(nid for nid in blocks if len(nid) == T)
    costs, weights, prices, labels = [], [], [], []
    for leaf in leaves:
        chain = [leaf[:k] for k in range(1, T + 1)]
        costs.append(sum(blocks[n].raw_cost(sol.primal) for n in chain))
        weights.append(blocks[leaf].weight)
        prices.append(np.concatenate(
            [blocks[n].price_series(sol) for n in chain]))
        labels.append("path-" + "-".join(map(str, leaf)))
    return BenchmarkResult(
        capacities=cap, objective=float(sol.objective),
        capital_cost=_capital_cost(catalog, cap),
        dispatch_costs=tuple(costs), weights=tuple(weights),
        prices=tuple(prices), labels=tuple(labels))


def expected_cost_to_go(catalog: model.TechnologyCatalog,
                        scenario: model.MarketScenario,
                        lattice: SamplingLattice, stage: int,
                        state) -> float:
    """Brute-force expected cost of stages ``stage`` onward.

    Pins ``state`` once, as one fixed column per state-layout entry,
    unrolls the subtree rooted at every stage-``stage`` realization on
    those columns, and averages. This is the exact function the trained
    cut pool for ``stage`` under-approximates, so any valid cut
    evaluates at or below it. Raises :class:`UnknownStage` for a stage
    outside 1..``lattice.n_stages``, :class:`DimensionMismatch` for a
    state that is not one value per entry of the catalog's state layout,
    and ``ValueError`` for a state entry that is not finite, before any
    solve.
    """
    if not 1 <= stage <= lattice.n_stages:
        raise UnknownStage(f"stage {stage} outside 1..{lattice.n_stages}")
    layout = model.StateLayout(catalog)
    x = np.asarray(state, dtype=float)
    if x.shape != (layout.size,):
        raise DimensionMismatch(
            f"state has shape {x.shape}, expected ({layout.size},)")
    subtree = math.prod(lattice.branch_count(t)
                        for t in range(stage, lattice.n_stages + 1))
    if subtree > _TREE_LIMIT:
        raise TreeTooLarge(
            f"{subtree} subtree paths exceed the {_TREE_LIMIT} limit")
    b = lp.LpBuilder()
    pinned = {label: b.add_variable(f"in:{label}", lower=v, upper=v)
              for label, v in zip(layout.labels, x.tolist())}
    _unroll_tree(b, catalog, scenario, lattice, stage, pinned.__getitem__)
    sol = lp.solve_optimal(b.build(), f"cost-to-go subtree at stage {stage}")
    return float(sol.objective)


def perfect_foresight(catalog: model.TechnologyCatalog,
                      scenario: model.MarketScenario,
                      paths) -> BenchmarkResult:
    """Two-stage benchmark: one capacity decision, clairvoyant years.

    Each path is dispatched as one continuous block with full
    knowledge of its weather; years share the capacity decision and
    their dispatch costs are averaged with equal weights. Each year
    starts its long-duration stores at the shared opening level and
    faces the usual terminal shortfall penalty; short-duration stores
    are circular over the whole year. A path is named after the year
    label all its stages carry, else ``path-<i>-<j>...`` after its node
    indices, as :func:`extensive_form` names its leaves.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one year")
    weight = 1.0 / len(paths)
    b = lp.LpBuilder()
    cap_of = _capacity_state(_add_capacity_variables(b, catalog))
    blocks = []
    labels = []
    for k, path in enumerate(paths):
        years = set(path.year_labels or ())
        labels.append(str(years.pop()) if len(years) == 1 else
                      "path-" + "-".join(map(str, path.node_indices)))
        blocks.append(_Block(b, catalog, scenario, _stitch(path), f"y{k}",
                             weight, cap_of, terminal=True))
    sol = lp.solve_optimal(b.build(), "perfect foresight")
    cap = _read_capacities(catalog, sol.value)
    levels = tuple({s.name: bl.level_series(sol.primal, s.name)
                    for s in catalog.storages} for bl in blocks)
    return BenchmarkResult(
        capacities=cap, objective=float(sol.objective),
        capital_cost=_capital_cost(catalog, cap),
        dispatch_costs=tuple(bl.raw_cost(sol.primal) for bl in blocks),
        weights=(weight,) * len(paths),
        prices=tuple(bl.price_series(sol) for bl in blocks),
        labels=tuple(labels), storage_levels=levels)


def single_year_deterministic(catalog: model.TechnologyCatalog,
                              scenario: model.MarketScenario,
                              path: WeatherPath) -> BenchmarkResult:
    """Capacity and dispatch co-optimized against one year alone."""
    return perfect_foresight(catalog, scenario, [path])


def _stitch(path: WeatherPath) -> model.WeatherVector:
    """Concatenate a path's stage vectors into one year-long vector."""
    vecs = path.vectors
    hours = {v.period_hours for v in vecs}
    if len(hours) != 1:
        raise ValueError("stages disagree on period length")
    factors = {}
    for name in vecs[0].capacity_factors:
        factors[name] = np.concatenate(
            [v.capacity_factors[name] for v in vecs])
    return model.WeatherVector(
        capacity_factors=factors,
        demand=np.concatenate([v.demand for v in vecs]),
        heat_demand=np.concatenate([v.heat_demand for v in vecs]),
        heat_pump_cop=np.concatenate([v.heat_pump_cop for v in vecs]),
        period_hours=hours.pop())
