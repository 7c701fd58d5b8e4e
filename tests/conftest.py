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

from stockpile import model, sddp  # noqa: E402
from stockpile.weather import SamplingLattice, WeatherPath  # noqa: E402


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
