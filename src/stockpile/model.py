"""Sector-coupled capacity and dispatch stage assembly.

Builds the year-zero capacity program and the per-stage dispatch
programs as :class:`~stockpile.lp.LpInstance` values. Incoming state
(capacities, contract volume, opening storage level) enters each
dispatch stage through free copy variables pinned by equality rows; the
duals of those rows are the sensitivities that drive the cutting-plane
training loop.

Units are GW for power, GWh for energy, and MEUR for money. Capital
costs are accepted in EUR per kW-yr, which is numerically MEUR per
GW-yr (and EUR per kWh-yr is MEUR per GWh-yr), so they enter the
builders unscaled. Marginal costs, the lost-load price, and import
prices are accepted in EUR per MWh and scaled by 1e-3 to MEUR per GWh.
The MEUR money unit keeps desk-scale objectives near order 1e3, where
absolute float64 tolerances on residuals and cut slack stay meaningful.
Dispatch variables are energy per period, so power capacities bind
through ``flow <= capacity * period_hours`` rows.

Row orientation is chosen so that raw duals are the domain quantities:
the electricity balance is written supply = demand (dual = marginal
price of demand, MEUR/GWh), and storage balances are written so the
dual is the marginal value of stored energy (MEUR/GWh), both
nonnegative at an optimum.

Hydrogen imports (spot purchases and the long-term contract) feed the
first long-duration storage in catalog order, which acts as the import
terminal. Instances without a long-duration storage have no import
variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import lp
from .errors import (
    DataError,
    DimensionMismatch,
    InconsistentBounds,
    LengthMismatch,
    NotOptimal,
    OutOfRange,
    UnknownStage,
)

_POWER_COST_SCALE = 1.0   # EUR/kW-yr == MEUR/GW-yr (and EUR/kWh-yr == MEUR/GWh-yr)
_ENERGY_COST_SCALE = 1e-3  # EUR/MWh -> MEUR/GWh


def _cost_ok(*costs) -> bool:
    """Whether every cost is finite and >= 0 (NaN is neither)."""
    return all(0 <= c < np.inf for c in costs)


def _check_name(name: str, what: str) -> None:
    if not name or ":" in name or not name.isprintable():
        raise ValueError(f"{what} name {name!r} must be non-empty and "
                         "printable and contain no ':'")


@dataclass(frozen=True)
class Generator:
    """One generation technology.

    Args:
        name: Unique identifier, used in variable labels.
        capital_cost: Annualized capacity cost in EUR per kW-yr.
        marginal_cost: Variable cost in EUR per MWh generated.
        max_capacity: Upper capacity bound in GW.
        min_capacity: Lower capacity bound in GW; finite and >= 0.
        availability: Constant availability factor in [0, 1], or None
            for a weather-driven generator whose factors come from the
            weather vector under this generator's name.
    """

    name: str
    capital_cost: float
    marginal_cost: float
    max_capacity: float
    min_capacity: float = 0.0
    availability: float | None = None

    def __post_init__(self):
        _check_name(self.name, "generator")
        if not _cost_ok(self.capital_cost, self.marginal_cost):
            raise OutOfRange(
                f"generator {self.name!r} has a negative or infinite cost")
        if not 0 <= self.min_capacity < np.inf:
            raise OutOfRange(
                f"generator {self.name!r} has a negative or infinite lower bound")
        if self.min_capacity > self.max_capacity:
            raise InconsistentBounds(
                f"generator {self.name!r} capacity bounds are inverted")
        if self.availability is not None and not 0.0 <= self.availability <= 1.0:
            raise OutOfRange(
                f"generator {self.name!r} availability not in [0, 1]")


@dataclass(frozen=True)
class Storage:
    """One storage technology.

    Charging converts electricity to stored energy at
    ``efficiency_in``; discharging converts stored energy back at
    ``efficiency_out``. Long-duration storages carry their level across
    stages as a state variable; short-duration storages are forced to
    end each stage where they started (within-stage circularity).

    Args:
        name: Unique identifier, used in variable labels.
        capital_cost_out: Discharge power cost in EUR per kW-yr.
        capital_cost_in: Charging power cost in EUR per kW-yr.
        capital_cost_energy: Energy capacity cost in EUR per kWh-yr.
        efficiency_out: Discharge efficiency in (0, 1].
        efficiency_in: Charging efficiency in (0, 1].
        max_power_out: Discharge power bound in GW.
        max_power_in: Charging power bound in GW.
        max_energy: Energy capacity bound in GWh.
        long_duration: Whether the level is inter-stage state.
    """

    name: str
    capital_cost_out: float
    capital_cost_in: float
    capital_cost_energy: float
    efficiency_out: float
    efficiency_in: float
    max_power_out: float
    max_power_in: float
    max_energy: float
    long_duration: bool = False

    def __post_init__(self):
        _check_name(self.name, "storage")
        if not _cost_ok(self.capital_cost_out, self.capital_cost_in,
                        self.capital_cost_energy):
            raise OutOfRange(
                f"storage {self.name!r} has a negative or infinite cost")
        for eff in (self.efficiency_out, self.efficiency_in):
            if not 0.0 < eff <= 1.0:
                raise OutOfRange(
                    f"storage {self.name!r} efficiency not in (0, 1]")
        if min(self.max_power_out, self.max_power_in, self.max_energy) < 0:
            raise InconsistentBounds(
                f"storage {self.name!r} has a negative capacity bound")


@dataclass(frozen=True)
class TechnologyCatalog:
    """The investable technology set plus hydrogen contract terms.

    Args:
        generators: Generation technologies.
        storages: Storage technologies; the first long-duration entry
            is the import terminal for spot and contracted hydrogen.
        ltc_price: Long-term contract price in EUR per MWh of
            per-period delivery (paid once, in the capacity stage, on
            the contracted per-period volume).
        ltc_max: Upper bound on the contracted delivery in GWh per
            period. Zero disables the contract.
    """

    generators: tuple[Generator, ...]
    storages: tuple[Storage, ...]
    ltc_price: float = 0.0
    ltc_max: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "storages", tuple(self.storages))
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        names = [s.name for s in self.storages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate storage names")
        if not _cost_ok(self.ltc_price):
            raise OutOfRange("contract price must be finite and >= 0")
        if self.ltc_max < 0:
            raise OutOfRange("contract volume bound must be >= 0")

    @property
    def long_duration_storages(self) -> tuple[Storage, ...]:
        return tuple(s for s in self.storages if s.long_duration)

    @property
    def import_sink(self) -> Storage | None:
        """The storage that receives spot and contracted hydrogen."""
        ldes = self.long_duration_storages
        return ldes[0] if ldes else None

    def storage(self, name: str) -> Storage:
        for s in self.storages:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class MarketScenario:
    """Backstop supply terms for one market environment.

    Args:
        name: Scenario identifier.
        voll: Lost-load price in EUR per MWh of electricity; also the
            terminal shortfall penalty rate.
        spot_price: Spot import price in EUR per MWh of hydrogen, or
            None when no spot market exists.
        spot_cap: Spot purchase cap in GWh of hydrogen per hour, or
            None for unlimited purchases.
    """

    name: str
    voll: float
    spot_price: float | None = None
    spot_cap: float | None = None

    def __post_init__(self):
        if not _cost_ok(self.voll):
            raise OutOfRange("lost-load price must be finite and >= 0")
        if self.spot_price is not None and not _cost_ok(self.spot_price):
            raise OutOfRange("spot price must be finite and >= 0")
        if self.spot_cap is not None:
            if self.spot_price is None:
                raise ValueError("spot cap given without a spot price")
            if self.spot_cap < 0:
                raise OutOfRange("spot cap must be >= 0")


@dataclass(frozen=True)
class WeatherVector:
    """Exogenous series for one dispatch stage.

    Args:
        capacity_factors: Per-period availability in [0, 1], keyed by
            generator name, for every weather-driven generator.
        demand: Electricity demand in GWh per period.
        heat_demand: Heat demand in GWh (thermal) per period.
        heat_pump_cop: Heat pump coefficient of performance (> 0).
        period_hours: Length of one period in hours.
    """

    capacity_factors: Mapping[str, np.ndarray]
    demand: np.ndarray
    heat_demand: np.ndarray
    heat_pump_cop: np.ndarray
    period_hours: float = 4.0

    def __post_init__(self):
        factors = dict(self.capacity_factors)
        k = len(factors)
        arrays = [np.ascontiguousarray(v, dtype=float)
                  for v in (*factors.values(), self.demand, self.heat_demand,
                            self.heat_pump_cop)]
        # the finite check covers the series before the first one that
        # is not one-dimensional, so errors come in the order that
        # checking each series in turn gives
        flat_end = next((i for i, a in enumerate(arrays) if a.ndim != 1),
                        len(arrays))
        flat = np.concatenate(arrays[:flat_end]) if flat_end else np.zeros(0)
        if not np.isfinite(flat).all():
            raise OutOfRange("weather series must be finite")
        if flat_end < len(arrays):
            raise LengthMismatch("weather series must be one-dimensional")
        n = len(arrays[k])
        if not n:
            raise LengthMismatch("weather series need at least one period")
        named = list(zip(factors, arrays)) + [("heat_demand", arrays[k + 1]),
                                              ("heat_pump_cop", arrays[k + 2])]
        for name, arr in named:
            if len(arr) != n:
                raise LengthMismatch(
                    f"series {name!r} has length {len(arr)}, expected {n}")
        cf = flat[:k * n]
        if cf.size and (cf.min() < 0 or cf.max() > 1):
            name = next(name for name, arr in zip(factors, arrays)
                        if np.any(arr < 0) or np.any(arr > 1))
            raise OutOfRange(f"capacity factors for {name!r} not in [0, 1]")
        if flat[k * n:(k + 2) * n].min(initial=0.0) < 0:
            raise OutOfRange("demand series must be >= 0")
        if flat[(k + 2) * n:].min(initial=np.inf) <= 0:
            raise OutOfRange("heat pump efficiency must be > 0")
        if not self.period_hours > 0:
            raise OutOfRange("period length must be > 0")
        flat.setflags(write=False)
        views = [flat[i * n:(i + 1) * n] for i in range(k + 3)]
        object.__setattr__(self, "capacity_factors", dict(zip(factors, views)))
        for name, view in zip(("demand", "heat_demand", "heat_pump_cop"),
                              views[k:]):
            object.__setattr__(self, name, view)

    @property
    def n_periods(self) -> int:
        return len(self.demand)

    def electricity_requirement(self) -> np.ndarray:
        """Demand plus electrified heat, in GWh per period."""
        return self.demand + self.heat_demand / self.heat_pump_cop


# StateLayout kind -> (capacity-stage variable prefix, CapacityDecision
# field); a storage's opening and running level are its initial level.
_CAPACITY_ITEMS = {
    "gen": ("G", "generation"),
    "pout": ("F", "storage_power_out"),
    "pin": ("H", "storage_power_in"),
    "energy": ("E", "storage_energy"),
    "ini": ("ini", "initial_level"),
    "level": ("ini", "initial_level"),
    "ltc": ("ltc", "ltc_volume"),
}


@dataclass(frozen=True)
class CapacityDecision:
    """A point in the capacity feasible set.

    Mappings are keyed by technology name; ``initial_level`` covers the
    long-duration storages. ``ltc_volume`` is the contracted hydrogen
    delivery in GWh per period.
    """

    generation: Mapping[str, float]
    storage_power_out: Mapping[str, float]
    storage_power_in: Mapping[str, float]
    storage_energy: Mapping[str, float]
    initial_level: Mapping[str, float]
    ltc_volume: float = 0.0

    def to_state(self, layout: "StateLayout") -> np.ndarray:
        """The outgoing state of the capacity stage for this decision.

        Opening-level slots are filled with the initial level, which is
        what the first dispatch stage sees as its incoming level.
        """
        x = np.zeros(layout.size)
        for p, (kind, name) in enumerate(layout.entries):
            value = getattr(self, _CAPACITY_ITEMS[kind][1])
            x[p] = value if kind == "ltc" else value[name]
        return x


class StateLayout:
    """Fixed ordering of the state vector for a catalog.

    Entries are, in order: one capacity per generator; discharge power,
    charging power, and energy capacity per storage; the opening level
    target per long-duration storage; the contracted per-period
    hydrogen volume; and the running level per long-duration storage.
    """

    def __init__(self, catalog: TechnologyCatalog):
        entries: list[tuple[str, str]] = []
        for g in catalog.generators:
            entries.append(("gen", g.name))
        for s in catalog.storages:
            entries.append(("pout", s.name))
            entries.append(("pin", s.name))
            entries.append(("energy", s.name))
        for s in catalog.long_duration_storages:
            entries.append(("ini", s.name))
        entries.append(("ltc", ""))
        for s in catalog.long_duration_storages:
            entries.append(("level", s.name))
        self.entries: tuple[tuple[str, str], ...] = tuple(entries)
        self.labels: tuple[str, ...] = tuple(
            kind if kind == "ltc" else f"{kind}:{name}"
            for kind, name in entries)
        self._position = {lab: p for p, lab in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.entries)

    def position(self, label: str) -> int:
        return self._position[label]


@dataclass(frozen=True)
class StageProblem:
    """One stage of the decomposed program, ready to solve.

    ``fishing_rows`` are the equality rows pinning the incoming-state
    copies, in state-layout order (empty for the capacity stage).
    ``state_columns`` give the variable column of each outgoing-state
    entry, again in layout order; pass-through entries point at the
    incoming copies, and in the capacity stage the running-level slots
    point at the opening-level variables.

    ``series_columns`` and ``series_rows`` map the label prefix of each
    per-period variable and row that :func:`extract_dispatch` reads
    (``g:<generator>``, ``shed``, ``balance``, ``sbal:<storage>``, ...)
    to its column or row per period, in period order; they are empty
    for the capacity stage.
    """

    stage: int
    instance: lp.LpInstance
    layout: StateLayout
    fishing_rows: tuple[int, ...]
    state_columns: tuple[int, ...]
    theta_column: int | None
    n_periods: int
    period_hours: float = 1.0
    series_columns: Mapping[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)
    series_rows: Mapping[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class DispatchSolution:
    """Dispatch read off one optimal stage solve.

    Flow quantities are GWh per period. ``prices`` and the per-storage
    ``storage_values`` are reported in EUR per MWh. ``stage_cost`` is
    the immediate cost of the stage in MEUR, excluding the cost-to-go
    variable but including any terminal shortfall penalty.
    """

    generation: dict[str, np.ndarray]
    discharge: dict[str, np.ndarray]
    charge: dict[str, np.ndarray]
    level: dict[str, np.ndarray]
    shed: np.ndarray
    spot: np.ndarray | None
    ltc_offtake: np.ndarray | None
    prices: np.ndarray
    storage_values: dict[str, np.ndarray]
    stage_cost: float
    objective: float
    terminal_slack: dict[str, float] = field(default_factory=dict)
    period_hours: float = 1.0


def build_capacity_stage(catalog: TechnologyCatalog) -> StageProblem:
    """The year-zero program: capacities, contract volume, cost-to-go.

    The box bounds of the capacity set sit on the variables; the only
    coupling row ties each opening level to its energy capacity. The
    cost-to-go variable starts unconstrained from below except for
    nonnegativity; training appends cut rows.
    """
    layout = StateLayout(catalog)
    b = lp.LpBuilder()
    for g in catalog.generators:
        b.add_variable(f"G:{g.name}", cost=g.capital_cost * _POWER_COST_SCALE,
                       lower=g.min_capacity, upper=g.max_capacity)
    for s in catalog.storages:
        b.add_variable(f"F:{s.name}", cost=s.capital_cost_out * _POWER_COST_SCALE,
                       upper=s.max_power_out)
        b.add_variable(f"H:{s.name}", cost=s.capital_cost_in * _POWER_COST_SCALE,
                       upper=s.max_power_in)
        b.add_variable(f"E:{s.name}",
                       cost=s.capital_cost_energy * _POWER_COST_SCALE,
                       upper=s.max_energy)
    for s in catalog.long_duration_storages:
        b.add_variable(f"ini:{s.name}")
    b.add_variable("ltc", cost=catalog.ltc_price * _ENERGY_COST_SCALE,
                   upper=catalog.ltc_max if catalog.ltc_max > 0 else 0.0)
    theta = b.add_variable("theta", cost=1.0)
    for s in catalog.long_duration_storages:
        b.add_row(f"inilim:{s.name}",
                  [(f"ini:{s.name}", 1.0), (f"E:{s.name}", -1.0)],
                  lp.LESS_EQUAL, 0.0)
    inst = b.build()
    cols = []
    for kind, name in layout.entries:
        prefix = _CAPACITY_ITEMS[kind][0]
        cols.append(inst.var_index[prefix if kind == "ltc"
                                   else f"{prefix}:{name}"])
    return StageProblem(stage=0, instance=inst, layout=layout,
                        fishing_rows=(), state_columns=tuple(cols),
                        theta_column=theta, n_periods=0, period_hours=0.0)


def build_dispatch_stage(t: int, catalog: TechnologyCatalog,
                         scenario: MarketScenario, weather: WeatherVector,
                         total_stages: int) -> StageProblem:
    """One within-year dispatch stage as an LP.

    Incoming state arrives through free copy variables (labels
    ``in:...``) pinned by equality rows whose right-hand sides
    :func:`apply_incoming_state` fills in. The final stage replaces the
    cost-to-go variable with the terminal level penalty.

    Args:
        t: Stage index in 1..total_stages.
        catalog: Technology set.
        scenario: Backstop supply terms.
        weather: Exogenous series; lengths set the period count.
        total_stages: Number of dispatch stages in the horizon.
    """
    if not 1 <= t <= total_stages:
        raise UnknownStage(f"stage {t} outside 1..{total_stages}")
    layout = StateLayout(catalog)
    horizon = weather.n_periods
    hours = weather.period_hours
    sink = catalog.import_sink
    has_spot = scenario.spot_price is not None and sink is not None
    has_ltc = catalog.ltc_max > 0 and sink is not None
    voll = scenario.voll * _ENERGY_COST_SCALE

    b = lp.LpBuilder()
    copies = []
    for lab in layout.labels:
        copies.append(b.add_variable(f"in:{lab}", lower=-np.inf, upper=np.inf))
    for r in catalog.generators:
        if r.availability is None and r.name not in weather.capacity_factors:
            raise DataError(
                f"no capacity-factor series for generator {r.name!r}")
        for h in range(horizon):
            b.add_variable(f"g:{r.name}:{h}",
                           cost=r.marginal_cost * _ENERGY_COST_SCALE)
    for s in catalog.storages:
        for h in range(horizon):
            b.add_variable(f"f:{s.name}:{h}")
            b.add_variable(f"h:{s.name}:{h}")
            b.add_variable(f"e:{s.name}:{h}")
    for h in range(horizon):
        b.add_variable(f"shed:{h}", cost=voll)
    if has_spot:
        cap = np.inf if scenario.spot_cap is None else scenario.spot_cap * hours
        for h in range(horizon):
            b.add_variable(f"spot:{h}",
                           cost=scenario.spot_price * _ENERGY_COST_SCALE,
                           upper=cap)
    if has_ltc:
        for h in range(horizon):
            b.add_variable(f"lift:{h}")
    terminal = t == total_stages
    theta = None
    if terminal:
        for s in catalog.long_duration_storages:
            b.add_variable(f"slip:{s.name}", cost=voll)
    else:
        theta = b.add_variable("theta", cost=1.0)

    fishing = []
    for lab, col in zip(layout.labels, copies):
        fishing.append(b.add_row(f"fish:{lab}", [(col, 1.0)], lp.EQUAL, 0.0))

    for r in catalog.generators:
        cap_col = f"in:gen:{r.name}"
        for h in range(horizon):
            phi = (r.availability if r.availability is not None
                   else weather.capacity_factors[r.name][h])
            b.add_row(f"avail:{r.name}:{h}",
                      [(f"g:{r.name}:{h}", 1.0), (cap_col, -phi * hours)],
                      lp.LESS_EQUAL, 0.0)
    for s in catalog.storages:
        for h in range(horizon):
            b.add_row(f"fcap:{s.name}:{h}",
                      [(f"f:{s.name}:{h}", 1.0),
                       (f"in:pout:{s.name}", -hours)],
                      lp.LESS_EQUAL, 0.0)
            b.add_row(f"hcap:{s.name}:{h}",
                      [(f"h:{s.name}:{h}", 1.0),
                       (f"in:pin:{s.name}", -hours)],
                      lp.LESS_EQUAL, 0.0)
            b.add_row(f"ecap:{s.name}:{h}",
                      [(f"e:{s.name}:{h}", 1.0),
                       (f"in:energy:{s.name}", -1.0)],
                      lp.LESS_EQUAL, 0.0)

    requirement = weather.electricity_requirement()
    for h in range(horizon):
        terms = [(f"g:{r.name}:{h}", 1.0) for r in catalog.generators]
        terms += [(f"f:{s.name}:{h}", 1.0) for s in catalog.storages]
        terms += [(f"h:{s.name}:{h}", -1.0) for s in catalog.storages]
        terms.append((f"shed:{h}", 1.0))
        b.add_row(f"balance:{h}", terms, lp.EQUAL, requirement[h])

    for s in catalog.storages:
        inflow_here = sink is not None and s.name == sink.name
        for h in range(horizon):
            if h > 0:
                prev = (f"e:{s.name}:{h - 1}", 1.0)
            elif s.long_duration:
                prev = (f"in:level:{s.name}", 1.0)
            else:
                prev = (f"e:{s.name}:{horizon - 1}", 1.0)
            terms = [prev,
                     (f"e:{s.name}:{h}", -1.0),
                     (f"h:{s.name}:{h}", s.efficiency_in),
                     (f"f:{s.name}:{h}", -1.0 / s.efficiency_out)]
            if inflow_here and has_spot:
                terms.append((f"spot:{h}", 1.0))
            if inflow_here and has_ltc:
                terms.append((f"lift:{h}", 1.0))
            b.add_row(f"sbal:{s.name}:{h}", terms, lp.EQUAL, 0.0)

    if has_ltc:
        for h in range(horizon):
            b.add_row(f"ltclo:{h}", [(f"lift:{h}", 1.0), ("in:ltc", -0.9)],
                      lp.GREATER_EQUAL, 0.0)
            b.add_row(f"ltchi:{h}", [(f"lift:{h}", 1.0), ("in:ltc", -1.1)],
                      lp.LESS_EQUAL, 0.0)

    if terminal:
        # level target: opening-level target - final level - slack <= 0,
        # the slack priced at the lost-load rate, so finishing at or above
        # the target costs nothing and a deficit is penalized linearly
        for s in catalog.long_duration_storages:
            b.add_row(f"terminal:{s.name}",
                      [(f"in:ini:{s.name}", 1.0),
                       (f"e:{s.name}:{horizon - 1}", -1.0),
                       (f"slip:{s.name}", -1.0)],
                      lp.LESS_EQUAL, 0.0)

    inst = b.build()
    cols = []
    for p, (kind, name) in enumerate(layout.entries):
        if kind == "level":
            cols.append(inst.var_index[f"e:{name}:{horizon - 1}"])
        else:
            cols.append(copies[p])
    columns = [f"g:{r.name}" for r in catalog.generators]
    columns += [f"{kind}:{s.name}" for s in catalog.storages
                for kind in "fhe"]
    columns += ["shed"] + ["spot"] * has_spot + ["lift"] * has_ltc
    rows = ["balance"] + [f"sbal:{s.name}" for s in catalog.storages]
    return StageProblem(stage=t, instance=inst, layout=layout,
                        fishing_rows=tuple(fishing),
                        state_columns=tuple(cols), theta_column=theta,
                        n_periods=horizon,
                        period_hours=weather.period_hours,
                        series_columns=_series(inst.var_index, columns,
                                               horizon),
                        series_rows=_series(inst.row_index, rows, horizon))


def _series(index: Mapping[str, int], prefixes, horizon: int) -> dict:
    """Per label prefix, the positions of ``<prefix>:0`` ..
    ``<prefix>:<horizon - 1>`` in ``index``, as one read-only array."""
    series = {}
    for prefix in prefixes:
        at = np.array([index[f"{prefix}:{h}"] for h in range(horizon)],
                      dtype=np.intp)
        at.setflags(write=False)
        series[prefix] = at
    return series


def incoming_rhs(problem: StageProblem, x_in) -> np.ndarray:
    """``x_in`` as the right-hand sides of the fishing rows of a
    dispatch stage, checked against the stage's state layout."""
    if problem.stage == 0:
        raise UnknownStage("the capacity stage has no incoming state")
    x_in = np.asarray(x_in, dtype=float)
    if x_in.shape != (problem.layout.size,):
        raise DimensionMismatch(
            f"state has shape {x_in.shape}, expected ({problem.layout.size},)")
    return x_in


def apply_incoming_state(problem: StageProblem,
                         x_in: np.ndarray) -> StageProblem:
    """Pin the incoming-state copies of a dispatch stage to ``x_in``.

    Returns a new problem sharing everything but the right-hand sides
    of the fishing rows; the original is untouched.
    """
    return replace(problem, instance=lp.replace_rhs(
        problem.instance, problem.fishing_rows, incoming_rhs(problem, x_in)))


def extract_state(problem: StageProblem, sol: lp.LpSolution) -> np.ndarray:
    """The outgoing state vector of an optimal stage solve."""
    if sol.status != lp.OPTIMAL:
        raise NotOptimal(f"stage {problem.stage} solve is {sol.status}")
    return sol.primal[list(problem.state_columns)].copy()


def fishing_duals(problem: StageProblem, sol: lp.LpSolution) -> np.ndarray:
    """Sensitivities of the stage optimum to the incoming state."""
    if sol.status != lp.OPTIMAL:
        raise NotOptimal(f"stage {problem.stage} solve is {sol.status}")
    return sol.duals[list(problem.fishing_rows)].copy()


def extract_dispatch(problem: StageProblem, sol: lp.LpSolution,
                     catalog: TechnologyCatalog) -> DispatchSolution:
    """Unpack an optimal dispatch solve into named series."""
    if sol.status != lp.OPTIMAL:
        raise NotOptimal(f"stage {problem.stage} solve is {sol.status}")
    inst = problem.instance
    columns, rows = problem.series_columns, problem.series_rows

    def series(prefix: str) -> np.ndarray:
        return sol.primal[columns[prefix]]

    generation = {r.name: series(f"g:{r.name}") for r in catalog.generators}
    discharge = {s.name: series(f"f:{s.name}") for s in catalog.storages}
    charge = {s.name: series(f"h:{s.name}") for s in catalog.storages}
    level = {s.name: series(f"e:{s.name}") for s in catalog.storages}
    shed = series("shed")
    spot = series("spot") if "spot" in columns else None
    lift = series("lift") if "lift" in columns else None
    prices = sol.duals[rows["balance"]] / _ENERGY_COST_SCALE
    storage_values = {
        s.name: sol.duals[rows[f"sbal:{s.name}"]] / _ENERGY_COST_SCALE
        for s in catalog.storages}
    cost = sol.objective
    if problem.theta_column is not None:
        cost -= sol.primal[problem.theta_column]
    slack = {}
    for s in catalog.long_duration_storages:
        lab = f"slip:{s.name}"
        if lab in inst.var_index:
            slack[s.name] = float(sol.primal[inst.var_index[lab]])
    return DispatchSolution(generation=generation, discharge=discharge,
                            charge=charge, level=level, shed=shed, spot=spot,
                            ltc_offtake=lift, prices=prices,
                            storage_values=storage_values,
                            stage_cost=float(cost),
                            objective=float(sol.objective),
                            terminal_slack=slack,
                            period_hours=problem.period_hours)
