"""Turning trained policies and simulations into market-facing output.

The centerpiece is the marginal storage value (MSV): the shadow price
of one more MWh of stored hydrogen. During the horizon it is read off
the trained cost-to-go approximation (the slope of the binding cut in
the level coordinate); in the final stage it degenerates to a step at
the opening-level target. Bids follow from stationarity: a store
discharges whenever the electricity price covers MSV divided by the
discharge efficiency, and charges below MSV times the charge
efficiency.

All prices here are EUR/MWh; levels are GWh.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import EmptyPool, UnknownStage
from .tables import csv_text

BID_HEADER = ("stage", "level", "msv", "charge_bid", "discharge_bid")
LEVEL_TOL = 1e-6
KKT_TOL = 1e-5


@dataclass(frozen=True)
class BidPair:
    """Efficiency-adjusted bids implied by one storage value."""

    discharge_bid: float
    charge_bid: float


def bid_conversion(msv: float, efficiency_out: float,
                   efficiency_in: float) -> BidPair:
    """Translate a storage value into charge and discharge bids.

    Discharging one MWh of electricity burns 1/efficiency_out MWh of
    stored fuel, so the break-even ask is msv/efficiency_out. Charging
    banks efficiency_in MWh per MWh bought, so the break-even bid is
    efficiency_in * msv.
    """
    if not 0.0 < efficiency_out <= 1.0 or not 0.0 < efficiency_in <= 1.0:
        raise ValueError("efficiencies must lie in (0, 1]")
    return BidPair(discharge_bid=msv / efficiency_out,
                   charge_bid=efficiency_in * msv)


@dataclass(frozen=True)
class BidCurve:
    """Storage value and bids across the level range of one stage."""

    stage: int
    storage: str
    levels: np.ndarray
    msv: np.ndarray
    discharge_bids: np.ndarray
    charge_bids: np.ndarray

    def rows(self) -> list:
        """One table row per grid level, under :data:`BID_HEADER`."""
        return [(self.stage, e, m, c, d) for e, m, c, d in zip(
            self.levels.tolist(), self.msv.tolist(),
            self.charge_bids.tolist(), self.discharge_bids.tolist())]

    def to_table(self) -> str:
        return csv_text(BID_HEADER, self.rows())


def msv_curve(policy, stage: int, grid_step: float = 10.0,
              storage: str | None = None) -> BidCurve:
    """Marginal storage value over a level grid at the trained point.

    For stages before the last, the value function is the pointwise
    maximum of the next stage's cut pool, restricted to the chosen
    store's level coordinate with every other state coordinate pinned
    at the trained capacities; the MSV at a grid level is minus the
    binding cut's slope there (ties resolve to the right derivative).
    The final stage uses the terminal rule instead: the full lost-load
    price below the opening-level target, zero at or above it.

    Raises:
        EmptyPool: the stage's pool has no cuts yet.
        UnknownStage: stage outside [0, T].
        ValueError: no long-duration store, a ``storage`` not in the
            catalog, not long-duration or not built, or a step <= 0.
    """
    catalog = policy.catalog
    stores = catalog.long_duration_storages
    if not stores:
        raise ValueError("no long-duration storage to evaluate")
    named = {s.name: s for s in catalog.storages}
    store = stores[0] if storage is None else named.get(storage)
    if store is None or not store.long_duration:
        why = "not in the catalog" if store is None else "not long-duration"
        raise ValueError(f"storage {storage!r} is {why}")
    if not 0 <= stage <= policy.n_stages:
        raise UnknownStage(f"stage {stage} outside [0, {policy.n_stages}]")
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    layout = policy.layout
    x = np.asarray(policy.capacities, dtype=float).copy()
    built = float(x[layout.position(f"energy:{store.name}")])
    if built <= 0:
        raise ValueError(f"storage {store.name!r} was not built")
    levels = np.arange(0.0, built, grid_step)
    if levels.size == 0 or levels[-1] != built:
        levels = np.append(levels, built)
    pos = layout.position(f"level:{store.name}")
    if stage == policy.n_stages:
        target = float(x[layout.position(f"ini:{store.name}")])
        msv = np.where(levels < target, policy.scenario.voll, 0.0)
    else:
        pool = policy.pools.get(stage + 1, [])
        if not pool:
            raise EmptyPool(f"no cuts for the stage {stage + 1} cost-to-go")
        base = x.copy()
        base[pos] = 0.0
        alphas = np.array([cut.value_at(base) for cut in pool])
        betas = np.array([cut.slope[pos] for cut in pool])
        msv = np.empty(levels.size)
        for k, e in enumerate(levels):
            values = alphas + betas * e
            top = values.max()
            msv[k] = -betas[values == top].max() / model._ENERGY_COST_SCALE
        msv = np.maximum(msv, 0.0)
    pairs = [bid_conversion(m, store.efficiency_out, store.efficiency_in)
             for m in msv]
    return BidCurve(stage=stage, storage=store.name, levels=levels, msv=msv,
                    discharge_bids=np.array([p.discharge_bid for p in pairs]),
                    charge_bids=np.array([p.charge_bid for p in pairs]))


@dataclass(frozen=True)
class DurationCurve:
    """Prices sorted descending with cumulative period shares."""

    prices: np.ndarray
    shares: np.ndarray

    def to_table(self) -> str:
        return csv_text(("rank", "share", "price"),
                        zip(range(self.prices.size), self.shares.tolist(),
                            self.prices.tolist()))


def price_duration_curve(trajectories) -> DurationCurve:
    """Pool the electricity prices of simulated paths into one curve.

    Prices across all paths and periods are sorted descending; the
    share attached to each entry is the cumulative fraction of
    simulated hours with at least that price.
    """
    dispatches = [rec.dispatch for trajectory in trajectories
                  for rec in trajectory.records if rec.dispatch is not None]
    if not dispatches:
        return DurationCurve(prices=np.array([]), shares=np.array([]))
    prices = np.concatenate([np.asarray(d.prices, dtype=float)
                             for d in dispatches])
    hours = np.concatenate([np.full(d.prices.shape, d.period_hours)
                            for d in dispatches])
    order = np.argsort(-prices, kind="stable")
    prices = prices[order]
    hours = hours[order]
    shares = np.cumsum(hours) / hours.sum()
    return DurationCurve(prices=prices, shares=shares)


def distinct_price_levels(prices, lower: float = 0.0,
                          upper: float | None = None):
    """Cluster prices into distinct levels inside an open interval.

    Prices within :data:`LEVEL_TOL` (scaled by the interval size) of
    each other count as one level; prices at or beyond the interval
    ends are dropped. Returns the sorted level representatives.
    """
    arr = np.sort(np.asarray(prices, dtype=float).ravel())
    scale = upper if upper is not None else (
        float(arr.max()) if arr.size else 1.0)
    margin = LEVEL_TOL * max(1.0, abs(scale))
    arr = arr[arr > lower + margin]
    if upper is not None:
        arr = arr[arr < upper - margin]
    levels = []
    for p in arr:
        if not levels or p - levels[-1] > margin:
            levels.append(float(p))
    return levels


@dataclass(frozen=True)
class TrajectoryBands:
    """Closing-level statistics per stage, in deviation-from-target
    form (zero marks the opening-level target)."""

    storage: str
    target: float
    stages: np.ndarray
    mean: np.ndarray
    p5: np.ndarray
    p25: np.ndarray
    p75: np.ndarray
    p95: np.ndarray
    levels: np.ndarray

    def to_table(self) -> str:
        return csv_text(("stage", "stat", "value"), (
            (t, stat, getattr(self, stat)[i])
            for i, t in enumerate(self.stages)
            for stat in ("mean", "p5", "p25", "p75", "p95")))


def trajectory_stats(trajectories, e_ini: float,
                     storage: str | None = None) -> TrajectoryBands:
    """Band statistics of end-of-stage storage levels across paths.

    Deviations are closing level minus ``e_ini`` so a path that ends
    every stage on target reads zero throughout. ``storage`` defaults
    to the first storage in the dispatch records.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    first = trajectories[0].records[1].dispatch
    name = storage if storage is not None else next(iter(first.level))
    if name not in first.level:
        raise ValueError(f"storage {name!r} has no level in the dispatch "
                         "records")
    closing = np.array([[rec.dispatch.level[name][-1]
                         for rec in tr.records[1:]] for tr in trajectories])
    dev = closing - e_ini
    p5, p25, p75, p95 = np.percentile(dev, (5, 25, 75, 95), axis=0)
    return TrajectoryBands(
        storage=name, target=float(e_ini),
        stages=np.arange(1, closing.shape[1] + 1), mean=dev.mean(axis=0),
        p5=p5, p25=p25, p75=p75, p95=p95, levels=closing)


@dataclass(frozen=True)
class KktViolation:
    stage: int
    storage: str
    period: int
    mode: str
    price: float
    implied: float


@dataclass(frozen=True)
class KktReport:
    """Outcome of auditing dual consistency over a trajectory."""

    checked: int
    violations: tuple

    @property
    def clean(self) -> bool:
        return not self.violations


def kkt_audit(trajectory, catalog: model.TechnologyCatalog) -> KktReport:
    """Verify the bidding identities on every interior dispatch period.

    Wherever a store discharges strictly inside (0, capacity), the
    electricity price must equal its storage value divided by the
    discharge efficiency; wherever it charges strictly inside, price
    must equal storage value times the charge efficiency, both to
    within :data:`KKT_TOL` relative. Periods at a bound are exempt (the
    bound's dual may be active). Returns a report; it never raises on
    violations.
    """
    layout = model.StateLayout(catalog)
    checked = 0
    violations = []
    for rec in trajectory.records:
        if rec.dispatch is None:
            continue
        d = rec.dispatch
        hours = d.period_hours
        prices = d.prices.tolist()
        for s in catalog.storages:
            msv = d.storage_values[s.name]
            # per mode: the flow, the bounds of its interior and the
            # price the storage value implies, as lists for the loop
            modes = []
            for mode, flow, power, implied in (
                    ("discharge", d.discharge[s.name],
                     rec.incoming[layout.position(f"pout:{s.name}")],
                     msv / s.efficiency_out),
                    ("charge", d.charge[s.name],
                     rec.incoming[layout.position(f"pin:{s.name}")],
                     s.efficiency_in * msv)):
                eps = 1e-6 * (1.0 + power * hours)
                modes.append((mode, flow.tolist(), eps, power * hours - eps,
                              implied.tolist()))
            for h, lam in enumerate(prices):
                for mode, flow, low, high, implied in modes:
                    if not low < flow[h] < high:
                        continue
                    checked += 1
                    if abs(lam - implied[h]) > KKT_TOL * max(
                            1.0, abs(lam), abs(implied[h])):
                        violations.append(KktViolation(
                            stage=rec.stage, storage=s.name, period=h,
                            mode=mode, price=lam, implied=implied[h]))
    return KktReport(checked=checked, violations=tuple(violations))
