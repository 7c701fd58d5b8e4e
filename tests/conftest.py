"""Shared fixtures: the canonical tiny planning instance.

Three stages, two equiprobable weather realizations each, four
periods per stage, one wind generator and one hydrogen store whose
efficiencies (0.4 out, 0.7 in) match the worked bidding example. Dark
realizations leave wind short of demand so storage and lost load both
matter; windy ones allow recharging. Training this instance to its
extensive-form optimum is the backbone of several tests, so the
trained policy is built once per session.
"""
import os

# Pin BLAS to one thread before numpy is first imported, as the
# benchmark launcher does: a multi-threaded np.linalg.inv slows sharply
# when the other cores are busy, which made check 01's wall-clock gate
# depend on machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stockpile import model, presets, sddp  # noqa: E402
from stockpile.weather import (SamplingLattice, WeatherPath,  # noqa: E402
                               sample_path)


def make_vector(demand, factors, hours=1.0):
    demand = np.asarray(demand, dtype=float)
    return model.WeatherVector(
        capacity_factors={k: np.asarray(v, dtype=float)
                          for k, v in factors.items()},
        demand=demand,
        heat_demand=np.zeros_like(demand),
        heat_pump_cop=np.ones_like(demand),
        period_hours=hours)


def canonical_catalog():
    wind = model.Generator(name="wind", capital_cost=2.0, marginal_cost=0.0,
                           max_capacity=18.0)
    cavern = model.Storage(name="cavern", capital_cost_out=1.5,
                           capital_cost_in=1.0, capital_cost_energy=0.02,
                           efficiency_out=0.4, efficiency_in=0.7,
                           max_power_out=12.0, max_power_in=12.0,
                           max_energy=80.0, long_duration=True)
    return model.TechnologyCatalog(generators=(wind,), storages=(cavern,))


def canonical_scenario():
    return model.MarketScenario(name="no_imports", voll=100000.0)


def canonical_lattice():
    demand = [5.0, 5.0, 5.0, 5.0]
    stages = [
        [make_vector(demand, {"wind": [0.9, 0.8, 0.9, 0.7]}),
         make_vector(demand, {"wind": [0.2, 0.1, 0.2, 0.1]})],
        [make_vector(demand, {"wind": [0.8, 0.9, 0.7, 0.9]}),
         make_vector(demand, {"wind": [0.1, 0.2, 0.1, 0.2]})],
        [make_vector(demand, {"wind": [0.9, 0.9, 0.8, 0.8]}),
         make_vector(demand, {"wind": [0.2, 0.1, 0.1, 0.2]})],
    ]
    return SamplingLattice.from_vectors(stages)


def sector_catalog():
    """Wind and solar, a long-duration hydrogen cavern (the import sink)
    and a battery that cycles within each stage."""
    return model.TechnologyCatalog(
        generators=(
            model.Generator(name="wind", capital_cost=2.0, marginal_cost=2.1,
                            max_capacity=60.0, min_capacity=30.0),
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
                          max_energy=40.0)))


def sector_lattice(seed, n_stages=3, n_realizations=3, n_periods=4):
    """Seasonal hourly weather with heat demand served by heat pumps.

    Stage ``t`` is a season, summer first; realization ``i`` draws its
    wind level from the ``i``-th of ``n_realizations`` bands, calm
    first, and its cloudiness from a shifted band, so every stage has a
    dark and a bright realization. Winter is calmer, darker and colder,
    which raises heat demand and lowers the heat pumps' COP.
    """
    rng = np.random.default_rng(seed)
    hours = np.arange(n_periods)
    daylight = np.sin(np.pi * (hours + 0.5) / n_periods)
    stages = []
    for t in range(n_stages):
        winter = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / n_stages)
        vectors = []
        for i in range(n_realizations):
            band = (i + rng.uniform(0.4, 0.6, 2)) / n_realizations
            wind = np.clip((0.05 + (0.65 - 0.4 * winter) * band[0])
                           + rng.normal(0.0, 0.05, n_periods), 0.0, 1.0)
            clear = 0.1 + (0.9 - 0.6 * winter) * ((band[1] + 0.5) % 1.0)
            solar = np.clip(0.8 * clear * daylight, 0.0, 1.0)
            temp = (20.0 - 18.0 * winter + 3.0 * daylight
                    + rng.normal(0.0, 1.0, n_periods))
            vectors.append(model.WeatherVector(
                capacity_factors={"wind": wind, "solar": solar},
                demand=10.0 + 2.0 * daylight,
                heat_demand=np.clip(18.0 - temp, 0.0, None) * 0.4,
                heat_pump_cop=np.clip(3.0 + 0.08 * temp, 1.5, 5.0),
                period_hours=1.0))
        stages.append(vectors)
    return SamplingLattice.from_vectors(stages)


def all_paths(lattice):
    """Every leaf of the lattice as a weather path, in index order."""
    ranges = [range(lattice.branch_count(t))
              for t in range(1, lattice.n_stages + 1)]
    paths = []
    for combo in itertools.product(*ranges):
        vectors = tuple(lattice.realizations(t + 1)[i]
                        for t, i in enumerate(combo))
        paths.append(WeatherPath(vectors=vectors, node_indices=combo))
    return paths


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def canonical():
    lattice = canonical_lattice()
    return {
        "catalog": canonical_catalog(),
        "scenario": canonical_scenario(),
        "lattice": lattice,
        "paths": all_paths(lattice),
    }


@pytest.fixture(scope="session")
def canonical_policy(canonical):
    """The canonical instance trained for up to 200 iterations."""
    options = sddp.TrainOptions(max_iterations=200, seed=7)
    start = time.monotonic()
    policy = sddp.train(canonical["catalog"], canonical["scenario"],
                        canonical["lattice"], options)
    seconds = time.monotonic() - start
    return {"policy": policy, "seconds": seconds,
            "iterations": options.max_iterations}


@pytest.fixture(scope="session")
def sector():
    """A 3 stages x 3 realizations x 4 periods sector lattice with
    constrained imports, its policy trained 6 iterations, and 12
    sampled paths."""
    catalog = sector_catalog()
    scenario = presets.scenario("constrained_imports")
    lattice = sector_lattice(2025)
    policy = sddp.train(catalog, scenario, lattice,
                        sddp.TrainOptions(max_iterations=6, seed=1))
    rng = np.random.default_rng(17)
    return {"catalog": catalog, "scenario": scenario, "lattice": lattice,
            "policy": policy,
            "paths": [sample_path(lattice, rng) for _ in range(12)]}
