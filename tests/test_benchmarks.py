"""Tests for the reference optima (extensive form, perfect foresight,
single-year runs) and their orderings against trained policies."""

import numpy as np
import pytest

from conftest import make_vector, sector_catalog, sector_lattice
from stockpile import benchmarks, lp, model, presets, sddp, weather
from stockpile.errors import (DimensionMismatch, SolverFailure, TreeTooLarge,
                              UnknownStage)
from stockpile.weather import SamplingLattice, WeatherPath


def small_catalog():
    wind = model.Generator(name="wind", capital_cost=2.0, marginal_cost=0.0,
                           max_capacity=20.0)
    acc = model.Storage(name="acc", capital_cost_out=1.0, capital_cost_in=0.5,
                        capital_cost_energy=0.05, efficiency_out=0.8,
                        efficiency_in=0.9, max_power_out=10.0,
                        max_power_in=10.0, max_energy=60.0,
                        long_duration=True)
    return model.TechnologyCatalog(generators=(wind,), storages=(acc,))


def path_of(lattice, combo):
    vectors = tuple(lattice.realizations(t + 1)[i]
                    for t, i in enumerate(combo))
    return WeatherPath(vectors=vectors, node_indices=tuple(combo))


def test_single_node_tree_equals_single_year_run():
    """A lattice with one realization per stage admits exactly one
    scenario, so the tree optimum must coincide with the deterministic
    run on that year (the store chains across stages either way)."""
    catalog = small_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    demand = [4.0, 4.0, 4.0]
    lattice = SamplingLattice.from_vectors([
        [make_vector(demand, {"wind": [0.9, 0.7, 0.8]})],
        [make_vector(demand, {"wind": [0.2, 0.3, 0.1]})],
    ])
    ef = benchmarks.extensive_form(catalog, scenario, lattice)
    year = benchmarks.single_year_deterministic(catalog, scenario,
                                                path_of(lattice, (0, 0)))
    assert ef.objective == pytest.approx(year.objective, rel=1e-7)
    assert ef.capacities.storage_energy["acc"] == pytest.approx(
        year.capacities.storage_energy["acc"], abs=1e-5)


def test_duplicated_nodes_leave_optimum_unchanged():
    """Splitting one realization into two identical equiprobable copies
    rescales probabilities but not the optimum."""
    catalog = small_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    demand = [4.0, 4.0, 4.0]
    windy = make_vector(demand, {"wind": [0.9, 0.7, 0.8]})
    dark = make_vector(demand, {"wind": [0.1, 0.2, 0.1]})
    base = benchmarks.extensive_form(
        catalog, scenario,
        SamplingLattice.from_vectors([[windy], [dark]]))
    split = benchmarks.extensive_form(
        catalog, scenario,
        SamplingLattice.from_vectors([[windy, windy], [dark, dark]]))
    assert split.objective == pytest.approx(base.objective, rel=1e-9)


def test_tree_size_guard():
    catalog = small_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    v = make_vector([1.0], {"wind": [0.5]})
    big = SamplingLattice.from_vectors([[v, v, v]] * 10)
    assert big.path_count == 3 ** 10
    with pytest.raises(TreeTooLarge):
        benchmarks.extensive_form(catalog, scenario, big)
    layout = model.StateLayout(catalog)
    with pytest.raises(TreeTooLarge):
        benchmarks.expected_cost_to_go(catalog, scenario, big, 1,
                                       np.zeros(layout.size))


def test_extensive_form_solver_failure_is_named(monkeypatch):
    """A non-optimal monolithic solve raises SolverFailure naming the
    extensive form."""
    v = make_vector([1.0], {"wind": [0.5]})
    lattice = SamplingLattice.from_vectors([[v], [v]])
    monkeypatch.setattr(lp, "solve", lambda inst, **kw: lp.LpSolution(
        lp.UNBOUNDED, None, None, None, None, 0, inst))
    with pytest.raises(SolverFailure,
                       match="^extensive form: solve ended unbounded$"):
        benchmarks.extensive_form(small_catalog(),
                                  model.MarketScenario(name="ni", voll=1000.0),
                                  lattice)


def test_converged_bound_hits_extensive_form(canonical, canonical_policy):
    """After training, the lower bound must sit within 1e-4 relative of
    the tree optimum (and never above it beyond round-off)."""
    ef = benchmarks.extensive_form(canonical["catalog"],
                                   canonical["scenario"],
                                   canonical["lattice"])
    lb = sddp.lower_bound(canonical_policy["policy"])
    assert lb <= ef.objective * (1 + 1e-9)
    assert abs(ef.objective - lb) <= 1e-4 * abs(ef.objective)


def test_oracle_sandwich(canonical, canonical_policy):
    """Lower bound <= tree optimum <= Monte Carlo mean + 2 SE."""
    policy = canonical_policy["policy"]
    ef = benchmarks.extensive_form(canonical["catalog"],
                                   canonical["scenario"],
                                   canonical["lattice"])
    lb = sddp.lower_bound(policy)
    ub = sddp.upper_bound_estimate(policy, n_paths=200, rng_seed=17)
    slack = 1e-9 * abs(ef.objective)
    assert lb <= ef.objective + slack
    assert ef.objective <= ub.mean + 2 * ub.std_error + slack


def test_perfect_foresight_cannot_beat_lf_policy(canonical,
                                                 canonical_policy):
    """Value of perfect information is nonnegative: on the identical
    path set, the clairvoyant shared-capacity optimum costs at most
    the simulated limited-foresight policy."""
    policy = canonical_policy["policy"]
    paths = canonical["paths"]
    pf = benchmarks.perfect_foresight(canonical["catalog"],
                                      canonical["scenario"], paths)
    sims = sddp.simulate(policy, paths)
    lf_cost = np.mean([t.total_cost for t in sims])
    assert pf.objective <= lf_cost * (1 + 1e-6)


def test_wait_and_see_bound(canonical):
    """Tailoring capacity to each year individually can only improve
    on the shared-capacity clairvoyant plan: the mean of single-year
    optima is a lower bound on the perfect-foresight optimum."""
    catalog = canonical["catalog"]
    scenario = canonical["scenario"]
    paths = canonical["paths"]
    singles = [benchmarks.single_year_deterministic(catalog, scenario, p)
               for p in paths]
    pf = benchmarks.perfect_foresight(catalog, scenario, paths)
    mean_single = np.mean([s.objective for s in singles])
    assert mean_single <= pf.objective * (1 + 1e-9)


def test_capacity_spread_dominates_foresight_gap(canonical,
                                                 canonical_policy):
    """Optimizing the store for each year separately spreads its size
    across a wide range; the gap between the shared-capacity clairvoyant
    choice and the trained policy's choice stays inside that spread."""
    catalog = canonical["catalog"]
    scenario = canonical["scenario"]
    paths = canonical["paths"]
    sizes = [benchmarks.single_year_deterministic(
        catalog, scenario, p).capacities.storage_energy["cavern"]
        for p in paths]
    spread = max(sizes) - min(sizes)
    pf = benchmarks.perfect_foresight(catalog, scenario, paths)
    policy = canonical_policy["policy"]
    layout = policy.layout
    lf_energy = policy.capacities[layout.position("energy:cavern")]
    gap = abs(pf.capacities.storage_energy["cavern"] - lf_energy)
    assert spread >= gap - 1e-9


def test_one_year_perfect_foresight_is_single_year(canonical):
    path = canonical["paths"][0]
    a = benchmarks.perfect_foresight(canonical["catalog"],
                                     canonical["scenario"], [path])
    b = benchmarks.single_year_deterministic(canonical["catalog"],
                                             canonical["scenario"], path)
    assert a.objective == b.objective
    assert a.capacities == b.capacities


def test_perfect_foresight_labels_name_each_path_once(canonical):
    """A path whose stages carry different year labels is named after
    its node indices, as the extensive form names its leaves, so the
    lattice's paths have one label each; a historical year, one label
    throughout, keeps it."""
    lattice = SamplingLattice(stages=canonical["lattice"].stages,
                              year_labels=(("1990", "1991"),) * 3)
    args = (canonical["catalog"], canonical["scenario"])
    pf = benchmarks.perfect_foresight(*args,
                                      benchmarks.enumerate_paths(lattice))
    ef = benchmarks.extensive_form(*args, lattice)
    assert len(set(pf.labels)) == lattice.path_count
    assert pf.labels == ("1990",) + ef.labels[1:-1] + ("1991",)
    historical = benchmarks.perfect_foresight(
        *args, weather.historical_paths(lattice))
    assert historical.labels == ("1990", "1991")


def test_zero_demand_years_cost_nothing():
    catalog = small_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    calm = make_vector([0.0, 0.0], {"wind": [0.5, 0.5]})
    path = WeatherPath(vectors=(calm, calm), node_indices=(0, 0))
    pf = benchmarks.perfect_foresight(catalog, scenario, [path, path])
    assert pf.objective == pytest.approx(0.0, abs=1e-6)
    assert pf.capacities.generation["wind"] == pytest.approx(0.0, abs=1e-9)
    assert pf.capacities.storage_energy["acc"] == pytest.approx(0.0,
                                                                abs=1e-9)


def test_flat_availability_builds_no_storage():
    """A firm generator with availability one and flat demand leaves no
    arbitrage value, so positive storage capital keeps storage at
    zero."""
    firm = model.Generator(name="firm", capital_cost=1.0, marginal_cost=0.0,
                           max_capacity=20.0, availability=1.0)
    acc = model.Storage(name="acc", capital_cost_out=0.5, capital_cost_in=0.5,
                        capital_cost_energy=0.05, efficiency_out=0.8,
                        efficiency_in=0.9, max_power_out=10.0,
                        max_power_in=10.0, max_energy=60.0,
                        long_duration=True)
    catalog = model.TechnologyCatalog(generators=(firm,), storages=(acc,))
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    year = make_vector([6.0, 6.0, 6.0, 6.0], {})
    path = WeatherPath(vectors=(year,), node_indices=(0,))
    res = benchmarks.single_year_deterministic(catalog, scenario, path)
    assert res.capacities.generation["firm"] == pytest.approx(6.0, abs=1e-7)
    assert res.capacities.storage_energy["acc"] == pytest.approx(0.0,
                                                                 abs=1e-9)
    assert res.capacities.storage_power_out["acc"] == pytest.approx(0.0,
                                                                    abs=1e-9)


def test_objective_decomposition_and_tables(canonical):
    """The reported objective must equal capital plus the
    probability-weighted dispatch costs, and the table exports must
    carry one row per scenario and period."""
    ef = benchmarks.extensive_form(canonical["catalog"],
                                   canonical["scenario"],
                                   canonical["lattice"])
    recombined = ef.capital_cost + sum(
        w * c for w, c in zip(ef.weights, ef.dispatch_costs))
    assert recombined == pytest.approx(ef.objective, rel=1e-7)
    assert sum(ef.weights) == pytest.approx(1.0, rel=1e-12)
    assert len(ef.labels) == 8
    tables = ef.to_tables()
    assert tables["costs"].splitlines()[0] == \
        "scenario,weight,dispatch_cost_meur"
    assert len(tables["costs"].splitlines()) == 9
    n_periods = 12
    assert len(tables["prices"].splitlines()) == 1 + 8 * n_periods
    assert "cavern,energy_gwh" in tables["capacities"]


def test_cuts_stay_below_brute_force_cost_to_go(canonical,
                                                canonical_policy):
    """Every trained cut is a global underestimator of the exact
    expected cost-to-go; probe a handful of random states per stage."""
    policy = canonical_policy["policy"]
    catalog = canonical["catalog"]
    layout = policy.layout
    rng = np.random.default_rng(3)
    cavern = catalog.storages[0]
    wind = catalog.generators[0]
    for stage in (1, 2, 3):
        pool = policy.pools[stage]
        assert pool
        for _ in range(4):
            x = np.zeros(layout.size)
            x[layout.position("gen:wind")] = rng.uniform(
                0, wind.max_capacity)
            x[layout.position("pout:cavern")] = rng.uniform(
                0, cavern.max_power_out)
            x[layout.position("pin:cavern")] = rng.uniform(
                0, cavern.max_power_in)
            energy = rng.uniform(0, cavern.max_energy)
            x[layout.position("energy:cavern")] = energy
            x[layout.position("ini:cavern")] = rng.uniform(0, energy)
            x[layout.position("level:cavern")] = rng.uniform(0, energy)
            exact = benchmarks.expected_cost_to_go(
                catalog, canonical["scenario"], canonical["lattice"],
                stage, x)
            for cut in pool:
                assert cut.value_at(x) <= exact + 1e-6


def test_cost_to_go_rejects_unknown_stages_and_wrong_state_lengths(
        canonical):
    """Only stages 1..n_stages have a cost-to-go, and the state holds
    one value per layout entry: stage 0 or -1 would unroll a longer,
    made-up tree, and a short or long state would index past it or be
    cut."""
    catalog, scenario, lattice = (canonical["catalog"], canonical["scenario"],
                                  canonical["lattice"])
    size = model.StateLayout(catalog).size
    assert benchmarks.expected_cost_to_go(
        catalog, scenario, lattice, lattice.n_stages, np.zeros(size)) > 0
    for stage in (-1, 0, lattice.n_stages + 1):
        with pytest.raises(UnknownStage, match=f"stage {stage} outside 1..3"):
            benchmarks.expected_cost_to_go(catalog, scenario, lattice, stage,
                                           np.zeros(size))
    for length in (size - 1, size + 1):
        with pytest.raises(DimensionMismatch):
            benchmarks.expected_cost_to_go(catalog, scenario, lattice, 1,
                                           np.zeros(length))


def _sector_instance():
    """The sector catalog under constrained imports on a 3 stages x 2
    realizations x 2 periods lattice."""
    return (sector_catalog(), presets.scenario("constrained_imports"),
            sector_lattice(1, 3, 2, 2))


def _solved_instances(monkeypatch):
    """Every instance ``lp.solve`` is called on from now on, in order."""
    solved = []
    raw = lp.solve

    def spy(problem, **kwargs):
        solved.append(problem)
        return raw(problem, **kwargs)

    monkeypatch.setattr(lp, "solve", spy)
    return solved


def test_extensive_form_is_capacity_rows_plus_node_blocks(monkeypatch):
    """Tree nodes read the capacity columns and their parent's closing
    level: the extensive form holds no state copy (``:in:``) and no link
    row (``:link:``), only the capacity stage's rows and columns plus
    those of one dispatch block per node."""
    catalog, scenario, lattice = _sector_instance()
    solved = _solved_instances(monkeypatch)
    benchmarks.extensive_form(catalog, scenario, lattice)
    (ef,) = solved
    assert not [lab for lab in ef.var_labels if ":in:" in lab]
    assert not [lab for lab in ef.row_labels if ":link:" in lab]

    def size(t=None):
        b = lp.LpBuilder()
        state = benchmarks._capacity_state(
            benchmarks._add_capacity_variables(b, catalog))
        if t is not None:
            benchmarks._Block(b, catalog, scenario, lattice.realizations(t)[0],
                              "x", 1.0, state,
                              terminal=(t == lattice.n_stages))
        inst = b.build()
        return np.array([inst.n_rows, inst.n_vars])

    capacity = size()
    nodes = 1
    expected = capacity.copy()
    for t in range(1, lattice.n_stages + 1):
        nodes *= lattice.branch_count(t)
        expected += nodes * (size(t) - capacity)
    assert (ef.n_rows, ef.n_vars) == tuple(expected)


@pytest.mark.parametrize("instance", ["canonical", "sector"])
def test_cost_to_go_at_the_tree_capacities_is_its_dispatch_cost(canonical,
                                                                instance):
    """The subtree on pinned state columns and the tree on shared
    capacity columns are one program: at the tree's optimal capacities
    the stage-1 cost-to-go is the tree's dispatch part."""
    if instance == "canonical":
        catalog, scenario, lattice = (canonical["catalog"],
                                      canonical["scenario"],
                                      canonical["lattice"])
    else:
        catalog, scenario, lattice = _sector_instance()
    ef = benchmarks.extensive_form(catalog, scenario, lattice)
    state = ef.capacities.to_state(model.StateLayout(catalog))
    ctg = benchmarks.expected_cost_to_go(catalog, scenario, lattice, 1, state)
    assert ctg == pytest.approx(ef.objective - ef.capital_cost, rel=1e-9)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cost_to_go_rejects_a_state_that_is_not_finite(canonical,
                                                       monkeypatch, value):
    """A NaN or infinite state entry is refused before any solve, rather
    than pinned into a program that would solve to inf or NaN."""
    catalog = canonical["catalog"]
    layout = model.StateLayout(catalog)
    x = np.zeros(layout.size)
    x[layout.position("level:cavern")] = value
    solved = _solved_instances(monkeypatch)
    with pytest.raises(ValueError):
        benchmarks.expected_cost_to_go(catalog, canonical["scenario"],
                                       canonical["lattice"], 1, x)
    assert solved == []


def test_leaf_prices_lie_between_one_sided_differences(canonical,
                                                       monkeypatch):
    """A reported price is a subgradient of the tree optimum in its
    balance row's demand: along one leaf's chain, each lies between the
    backward and forward differences of the objective in that row's
    right-hand side (equal where the optimum is smooth)."""
    lattice = canonical["lattice"]
    solved = _solved_instances(monkeypatch)
    result = benchmarks.extensive_form(canonical["catalog"],
                                       canonical["scenario"], lattice)
    (ef,) = solved
    monkeypatch.undo()
    base = result.objective
    leaf = result.labels.index("path-0-1-1")
    prices = result.prices[leaf]
    H = lattice.periods(1)
    step = 1e-4
    for k, node in enumerate(("n0", "n0-1", "n0-1-1")):
        weight = 0.5 ** (k + 1)
        for h in range(H):
            row = ef.row_index[f"{node}:balance:{h}"]
            rhs = ef.rhs[row]
            up, down = (lp.solve(lp.replace_rhs(ef, [row], [rhs + d])).objective
                        for d in (step, -step))
            scale = weight * model._ENERGY_COST_SCALE * step
            backward, forward = (base - down) / scale, (up - base) / scale
            price = prices[k * H + h]
            tol = 1e-6 * max(1.0, abs(price))
            assert backward - tol <= price <= forward + tol, (node, h)


def test_training_reaches_tree_with_imports_contract_and_battery():
    """On a 2-stage, 2-realization, 2-period lattice with a battery, a
    cavern, capped spot imports and a contract, the reference's spot,
    contract (lift, ltclo, ltchi) and circular battery rows all shape
    the tree optimum, and training reaches that optimum to 1e-6
    relative without its bound ever exceeding it."""
    wind = model.Generator(name="wind", capital_cost=2.0, marginal_cost=0.0,
                           max_capacity=30.0)
    battery = model.Storage(name="battery", capital_cost_out=0.5,
                            capital_cost_in=0.0, capital_cost_energy=0.1,
                            efficiency_out=0.95, efficiency_in=0.95,
                            max_power_out=10.0, max_power_in=10.0,
                            max_energy=20.0)
    cavern = model.Storage(name="cavern", capital_cost_out=1.5,
                           capital_cost_in=1.0, capital_cost_energy=0.02,
                           efficiency_out=0.4, efficiency_in=0.7,
                           max_power_out=12.0, max_power_in=12.0,
                           max_energy=80.0, long_duration=True)
    catalog = model.TechnologyCatalog(generators=(wind,),
                                      storages=(battery, cavern),
                                      ltc_price=100.0, ltc_max=2.0)
    scenario = presets.scenario("constrained_imports")
    demand = [5.0, 5.0]
    lattice = SamplingLattice.from_vectors([
        [make_vector(demand, {"wind": [0.9, 0.1]}),
         make_vector(demand, {"wind": [0.2, 0.0]})],
        [make_vector(demand, {"wind": [0.1, 0.8]}),
         make_vector(demand, {"wind": [0.0, 0.1]})],
    ])
    ef = benchmarks.extensive_form(catalog, scenario, lattice)
    assert ef.capacities.ltc_volume > 0
    assert ef.capacities.storage_energy["battery"] > 0
    without_spot = benchmarks.extensive_form(
        catalog, presets.scenario("no_imports"), lattice)
    assert ef.objective < without_spot.objective

    policy = sddp.train(catalog, scenario, lattice,
                        sddp.TrainOptions(max_iterations=80, seed=0))
    bounds = [lb for _, lb, _ in policy.training_log]
    assert max(bounds) <= ef.objective * (1 + 1e-9)
    assert bounds[-1] == pytest.approx(ef.objective, rel=1e-6)
