"""Inputs of the benchmark workloads, generated from a seed.

The program under test only ever sees the catalogs, scenarios and
lattices built here. Everything random comes from one
``numpy.random.Generator`` made from the workload seed, so the same
seed always gives the same inputs.
"""
from __future__ import annotations

import numpy as np

from stockpile import model, presets
from stockpile.weather import SamplingLattice


def _vector(demand, factors, heat=None, cop=None):
    demand = np.asarray(demand, dtype=float)
    return model.WeatherVector(
        capacity_factors={k: np.asarray(v, dtype=float)
                          for k, v in factors.items()},
        demand=demand,
        heat_demand=np.zeros_like(demand) if heat is None else heat,
        heat_pump_cop=np.ones_like(demand) if cop is None else cop,
        period_hours=1.0)


def canonical_instance():
    """Acceptance check 01's instance: 3 stages x 2 realizations x 4
    periods, one wind generator and one hydrogen cavern.

    Kept equal to ``canonical_catalog``/``canonical_scenario``/
    ``canonical_lattice`` in ``tests/conftest.py``; the smoke test
    compares the two.
    """
    wind = model.Generator(name="wind", capital_cost=2.0, marginal_cost=0.0,
                           max_capacity=18.0)
    cavern = model.Storage(name="cavern", capital_cost_out=1.5,
                           capital_cost_in=1.0, capital_cost_energy=0.02,
                           efficiency_out=0.4, efficiency_in=0.7,
                           max_power_out=12.0, max_power_in=12.0,
                           max_energy=80.0, long_duration=True)
    catalog = model.TechnologyCatalog(generators=(wind,), storages=(cavern,))
    scenario = model.MarketScenario(name="no_imports", voll=100000.0)
    demand = [5.0, 5.0, 5.0, 5.0]
    winds = [
        ([0.9, 0.8, 0.9, 0.7], [0.2, 0.1, 0.2, 0.1]),
        ([0.8, 0.9, 0.7, 0.9], [0.1, 0.2, 0.1, 0.2]),
        ([0.9, 0.9, 0.8, 0.8], [0.2, 0.1, 0.1, 0.2]),
    ]
    lattice = SamplingLattice.from_vectors(
        [[_vector(demand, {"wind": w}) for w in stage] for stage in winds])
    return catalog, scenario, lattice


def sector_catalog() -> model.TechnologyCatalog:
    """Wind and solar, a hydrogen cavern and a battery, plus the
    long-term hydrogen contract.

    Capital costs are scaled, as in the canonical instance, to a
    planning year of a few representative hours, so that storage is
    worth building. The contract forces its delivery into the cavern
    every period, so a contracted volume without cavern capacity to
    take it leaves later stages infeasible; training has no
    feasibility cuts to learn that. Its price is therefore set above
    any value a cut can assign to it: the contract rows and variables
    are in every stage program, and the volume stays at zero.
    """
    return model.TechnologyCatalog(
        generators=(
            model.Generator(name="wind", capital_cost=2.0,
                            marginal_cost=2.1, max_capacity=60.0,
                            min_capacity=30.0),
            model.Generator(name="solar", capital_cost=1.2,
                            marginal_cost=0.0, max_capacity=60.0)),
        storages=(
            model.Storage(name="cavern", capital_cost_out=0.3,
                          capital_cost_in=0.2, capital_cost_energy=0.005,
                          efficiency_out=0.43, efficiency_in=0.66,
                          max_power_out=25.0, max_power_in=25.0,
                          max_energy=400.0, long_duration=True),
            model.Storage(name="battery", capital_cost_out=0.6,
                          capital_cost_in=0.0, capital_cost_energy=0.3,
                          efficiency_out=1.0, efficiency_in=0.96,
                          max_power_out=10.0, max_power_in=10.0,
                          max_energy=40.0)),
        ltc_price=5.0e6, ltc_max=1.0)


def sector_scenario() -> model.MarketScenario:
    return presets.scenario("constrained_imports")


def sector_lattice(rng: np.random.Generator, n_stages: int,
                   n_realizations: int, n_periods: int) -> SamplingLattice:
    """A synthetic hourly lattice with seasons, weather regimes and
    heat demand served through a temperature-dependent COP.

    Stage ``t`` is a season, starting in summer. Its realizations are
    stratified: realization ``i`` draws its wind regime from the
    ``i``-th of ``n_realizations`` equal bands (dark and calm first)
    and its cloudiness from a shifted band, then hourly noise is added.
    Winter is darker, calmer and colder, so a summer surplus is worth
    carrying into winter through the cavern. Stratifying keeps every
    seed's lattice of one shape, one dark and one bright realization
    per stage, while the draws inside the bands and the noise differ.
    """
    hours = np.arange(n_periods)
    daylight = np.clip(np.sin(np.pi * (hours + 0.5) / n_periods), 0.0, None)
    stages = []
    for t in range(n_stages):
        winter = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / max(n_stages, 1))
        vectors = []
        for i in range(n_realizations):
            band = (i + rng.uniform(0.4, 0.6, 2)) / n_realizations
            regime = 0.02 + (0.68 - 0.4 * winter) * band[0]
            wind = np.clip(regime + 0.1 * np.cumsum(
                rng.normal(0.0, 0.3, n_periods)), 0.0, 1.0)
            clear = 0.1 + (0.9 - 0.6 * winter) * ((band[1] + 0.5) % 1.0)
            solar = np.clip(0.8 * clear * daylight
                            + rng.uniform(0.0, 0.03, n_periods), 0.0, 1.0)
            temp = 20.0 - 18.0 * winter + rng.normal(0.0, 1.5) \
                + 3.0 * daylight + rng.normal(0.0, 0.5, n_periods)
            cop = np.clip(3.0 + 0.08 * temp, 1.5, 5.0)
            heat = np.clip(18.0 - temp, 0.0, None) * 0.4
            demand = 10.0 + 2.0 * daylight + rng.normal(0.0, 0.3, n_periods)
            vectors.append(_vector(np.clip(demand, 0.0, None),
                                   {"wind": wind, "solar": solar},
                                   heat=heat, cop=cop))
        stages.append(vectors)
    return SamplingLattice.from_vectors(stages)


def scaling_stage_weather(rng: np.random.Generator,
                          n_periods: int) -> model.WeatherVector:
    """One canonical-catalog dispatch stage of ``n_periods`` hours."""
    wind = np.clip(rng.uniform(0.1, 0.9) + 0.1 * np.cumsum(
        rng.normal(0.0, 0.3, n_periods)), 0.0, 1.0)
    return _vector(np.full(n_periods, 5.0), {"wind": wind})
