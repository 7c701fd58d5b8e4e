"""Tests for the nested-decomposition training engine."""

import json
import sys

import numpy as np
import pytest

from stockpile import lp, model, sddp
from stockpile.errors import (DataError, DimensionMismatch, NumericalFailure,
                              SolverFailure)
from stockpile.weather import SamplingLattice, WeatherPath, sample_path


def vector(demand, cf=None, hours=1.0):
    """Weather vector with a flat heat profile and optional wind factor."""
    demand = np.asarray(demand, dtype=float)
    factors = {} if cf is None else {
        "wind": np.asarray(cf, dtype=float) + np.zeros_like(demand)}
    return model.WeatherVector(
        capacity_factors=factors,
        demand=demand,
        heat_demand=np.zeros_like(demand),
        heat_pump_cop=np.ones_like(demand),
        period_hours=hours)


def wind_ldes_catalog(wind_capital=5.0, store_capital=(2.0, 1.0, 0.1),
                      eff=0.9, max_energy=100.0):
    gen = model.Generator(name="wind", capital_cost=wind_capital,
                          marginal_cost=0.0, max_capacity=50.0)
    acc = model.Storage(name="acc", capital_cost_out=store_capital[0],
                        capital_cost_in=store_capital[1],
                        capital_cost_energy=store_capital[2],
                        efficiency_out=eff, efficiency_in=eff,
                        max_power_out=20.0, max_power_in=20.0,
                        max_energy=max_energy, long_duration=True)
    return model.TechnologyCatalog(generators=(gen,), storages=(acc,))


def two_stage_lattice():
    """T=2, N=2: wind feast or famine, then repeat or reverse."""
    stage1 = [vector([3.0, 3.0], cf=[1.0, 0.0]),
              vector([3.0, 3.0], cf=[0.0, 1.0])]
    stage2 = [vector([3.0, 3.0], cf=[1.0, 1.0]),
              vector([3.0, 3.0], cf=[0.0, 0.0])]
    return SamplingLattice.from_vectors([stage1, stage2])


def singleton_path(lattice):
    vectors = tuple(lattice.realizations(t)[0]
                    for t in range(1, lattice.n_stages + 1))
    return WeatherPath(vectors=vectors,
                       node_indices=(0,) * lattice.n_stages)


def test_empty_pool_zero_capital_is_myopic():
    """With no cuts and zero capital costs the capacity stage has
    nothing to pay for: its objective is 0 + theta = 0 and dispatch is
    purely myopic."""
    catalog = wind_ldes_catalog(wind_capital=0.0, store_capital=(0, 0, 0))
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.Policy(catalog, scenario, lattice)
    traj = sddp.forward_pass(policy, singleton_path(lattice))
    assert traj.records[0].stage_cost == 0.0
    assert traj.records[0].theta == 0.0
    assert len(traj.records) == 3


def test_forward_pass_is_deterministic():
    """The same policy on the same path must produce identical
    trajectories, state for state and cost for cost."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.Policy(catalog, scenario, lattice)
    path = singleton_path(lattice)
    a = sddp.forward_pass(policy, path)
    b = sddp.forward_pass(policy, path)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.outgoing, rb.outgoing)
        assert ra.stage_cost == rb.stage_cost
    assert a.total_cost == b.total_cost


def test_forward_pass_rejects_short_path():
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.Policy(catalog, scenario, lattice)
    short = WeatherPath(vectors=(lattice.realizations(1)[0],),
                        node_indices=(0,))
    with pytest.raises(DimensionMismatch):
        sddp.forward_pass(policy, short)


def test_terminal_cut_matches_analytic_shedding_curve():
    """One terminal stage, one period, demand 1 GWh, no generators and
    a lossless store: the cost-to-go is 100 * max(0, 1 - level) MEUR
    with lost load priced at 100 MEUR per GWh. The backward pass from
    trial level 0.5 must produce a cut worth 50 MEUR at the trial point
    with slope -100 along the level coordinate."""
    acc = model.Storage(name="acc", capital_cost_out=0.0, capital_cost_in=0.0,
                        capital_cost_energy=0.0, efficiency_out=1.0,
                        efficiency_in=1.0, max_power_out=5.0, max_power_in=5.0,
                        max_energy=10.0, long_duration=True)
    catalog = model.TechnologyCatalog(generators=(), storages=(acc,))
    scenario = model.MarketScenario(name="ni", voll=100000.0)
    lattice = SamplingLattice.from_vectors([[vector([1.0])]])
    policy = sddp.Policy(catalog, scenario, lattice)
    layout = policy.layout
    trial = np.zeros(layout.size)
    trial[layout.position("pout:acc")] = 5.0
    trial[layout.position("pin:acc")] = 5.0
    trial[layout.position("energy:acc")] = 10.0
    trial[layout.position("level:acc")] = 0.5
    stub = sddp.StageRecord(stage=0, node=None, incoming=None, outgoing=trial,
                            stage_cost=0.0, theta=0.0, dispatch=None)
    sddp.backward_pass(policy, sddp.Trajectory(records=(stub,)))
    assert len(policy.pools[1]) == 1
    cut = policy.pools[1][0]
    assert cut.value_at(trial) == pytest.approx(50.0, abs=1e-6)
    assert cut.slope[layout.position("level:acc")] == pytest.approx(
        -100.0, abs=1e-6)


def test_single_realization_cut_is_exact():
    """With one realization there is no averaging: the cut evaluated
    at the trial state equals the child objective computed through an
    independent stage solve."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    child_weather = vector([3.0, 3.0], cf=[0.4, 0.2])
    lattice = SamplingLattice.from_vectors([[child_weather]])
    policy = sddp.Policy(catalog, scenario, lattice)
    layout = policy.layout
    trial = np.zeros(layout.size)
    trial[layout.position("gen:wind")] = 4.0
    trial[layout.position("pout:acc")] = 2.0
    trial[layout.position("pin:acc")] = 2.0
    trial[layout.position("energy:acc")] = 8.0
    trial[layout.position("ini:acc")] = 1.0
    trial[layout.position("level:acc")] = 1.0
    stub = sddp.StageRecord(stage=0, node=None, incoming=None, outgoing=trial,
                            stage_cost=0.0, theta=0.0, dispatch=None)
    sddp.backward_pass(policy, sddp.Trajectory(records=(stub,)))
    problem = model.build_dispatch_stage(1, catalog, scenario, child_weather,
                                         total_stages=1)
    sol = lp.solve(model.apply_incoming_state(problem, trial).instance)
    cut = policy.pools[1][0]
    assert cut.value_at(trial) == pytest.approx(sol.objective, rel=1e-9)


def test_average_cut_arithmetic():
    """Two equiprobable children worth 10 and 30 with slopes -1 and -3
    at trial x = 2 collapse into a cut through value 20 with slope -2."""
    cut = sddp.average_cut(stage=1, values=[10.0, 30.0],
                           slopes=[[-1.0], [-3.0]], trial_state=[2.0],
                           iteration=7)
    assert cut.slope == pytest.approx([-2.0])
    assert cut.value_at([2.0]) == pytest.approx(20.0)
    assert cut.intercept == pytest.approx(24.0)
    assert cut.iteration == 7


def test_cut_validation():
    with pytest.raises(DimensionMismatch):
        sddp.Cut(stage=1, intercept=0.0, slope=np.zeros(3), iteration=0,
                 trial_state=np.zeros(2))
    with pytest.raises(ValueError):
        sddp.Cut(stage=1, intercept=np.nan, slope=np.zeros(2), iteration=0,
                 trial_state=np.zeros(2))
    with pytest.raises(ValueError):
        sddp.Cut(stage=1, intercept=0.0, slope=np.array([np.inf, 0.0]),
                 iteration=0, trial_state=np.zeros(2))


def test_lower_bound_zero_with_empty_pools():
    """No cuts and free (zero-cost) capacities leave only the
    nonnegative cost-to-go floor, so the bound is exactly zero."""
    catalog = wind_ldes_catalog(wind_capital=0.0, store_capital=(0, 0, 0))
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.Policy(catalog, scenario, two_stage_lattice())
    assert sddp.lower_bound(policy) == 0.0


def test_lower_bound_weakly_increases_per_cut():
    """The bound sequence logged during training never drops by more
    than 1e-9: pools only grow, so the capacity-stage optimum can only
    move up. Costs are scaled so objectives are order one and the
    absolute slack is meaningful."""
    catalog = wind_ldes_catalog(wind_capital=1e-6,
                                store_capital=(2e-7, 1e-7, 1e-8))
    scenario = model.MarketScenario(name="ni", voll=1e-6)
    policy = sddp.train(catalog, scenario, two_stage_lattice(),
                        sddp.TrainOptions(max_iterations=30, seed=3))
    bounds = [row[1] for row in policy.training_log]
    assert len(bounds) == 30
    assert 0.0 < bounds[-1] < 100.0
    for prev, nxt in zip(bounds, bounds[1:]):
        assert nxt >= prev - 1e-9


def test_train_zero_iterations_returns_initial_policy():
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.train(catalog, scenario, two_stage_lattice(),
                        sddp.TrainOptions(max_iterations=0))
    assert policy.training_log == []
    assert all(not cuts for cuts in policy.pools.values())
    assert policy.stopped_reason == "iteration_limit"


def test_same_seed_reproduces_lb_sequence():
    """Training twice with one seed and config must emit bit-identical
    lower-bound logs."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    opts = sddp.TrainOptions(max_iterations=12, seed=11)
    a = sddp.train(catalog, scenario, two_stage_lattice(), opts)
    b = sddp.train(catalog, scenario, two_stage_lattice(), opts)
    assert a.training_log == b.training_log
    assert np.array_equal(a.capacities, b.capacities)


def test_time_limit_flags_policy():
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.train(catalog, scenario, two_stage_lattice(),
                        sddp.TrainOptions(max_iterations=500, time_limit=0.0))
    assert policy.stopped_reason == "time_limit"
    assert len(policy.training_log) == 1
    assert len(policy.pools[1]) == 1


def test_deterministic_lattice_upper_bound_has_zero_error():
    """A single-node lattice admits exactly one path, so the Monte
    Carlo estimate collapses: zero standard error and a mean equal to
    the forward-pass cost."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    stage1 = [vector([3.0, 3.0], cf=[0.8, 0.1])]
    stage2 = [vector([3.0, 3.0], cf=[0.2, 0.9])]
    lattice = SamplingLattice.from_vectors([stage1, stage2])
    policy = sddp.train(catalog, scenario, lattice,
                        sddp.TrainOptions(max_iterations=25, seed=0))
    ub = sddp.upper_bound_estimate(policy, n_paths=4, rng_seed=1)
    assert ub.std_error == 0.0
    traj = sddp.forward_pass(policy, singleton_path(lattice))
    assert ub.mean == pytest.approx(traj.total_cost, rel=1e-9)
    sim = sddp.simulate(policy, [singleton_path(lattice)])[0]
    assert sim.total_cost == pytest.approx(traj.total_cost, rel=1e-9)
    for rs, rf in zip(sim.records[1:], traj.records[1:]):
        assert np.allclose(rs.outgoing, rf.outgoing, atol=1e-9)


def test_upper_bound_requires_two_paths():
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.Policy(catalog, scenario, two_stage_lattice())
    with pytest.raises(ValueError):
        sddp.upper_bound_estimate(policy, n_paths=1)


def test_standard_error_shrinks_with_sample_size():
    """Doubling the path count should shrink the standard error by
    about 1/sqrt(2); allow 30 percent sampling slack."""
    catalog = wind_ldes_catalog(wind_capital=1.0)
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.train(catalog, scenario, two_stage_lattice(),
                        sddp.TrainOptions(max_iterations=10, seed=5))
    small = sddp.upper_bound_estimate(policy, n_paths=100, rng_seed=21)
    big = sddp.upper_bound_estimate(policy, n_paths=200, rng_seed=22)
    assert small.std_error > 0.0
    ratio = big.std_error / small.std_error
    assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.30)


def test_simulation_shares_capacities_and_handles_empty_list():
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.train(catalog, scenario, lattice,
                        sddp.TrainOptions(max_iterations=8, seed=2))
    assert sddp.simulate(policy, []) == []
    rng = np.random.default_rng(9)
    paths = [sample_path(lattice, rng) for _ in range(5)]
    out = sddp.simulate(policy, paths)
    assert len(out) == 5
    for traj in out:
        assert np.array_equal(traj.records[0].outgoing, policy.capacities)
        assert traj.capacity_cost == out[0].capacity_cost


def test_training_improves_simulated_cost():
    """Average simulated cost over a fixed path set should be weakly
    lower for the trained policy than after one iteration."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    first = sddp.train(catalog, scenario, lattice,
                       sddp.TrainOptions(max_iterations=1, seed=4))
    final = sddp.train(catalog, scenario, lattice,
                       sddp.TrainOptions(max_iterations=40, seed=4))
    rng = np.random.default_rng(123)
    paths = [sample_path(lattice, rng) for _ in range(50)]
    cost_first = np.mean([t.total_cost for t in sddp.simulate(first, paths)])
    cost_final = np.mean([t.total_cost for t in sddp.simulate(final, paths)])
    assert cost_final <= cost_first * (1 + 1e-9)


def test_threaded_backward_pass_matches_serial():
    """Running the child solves on two threads must yield the same
    cuts as the serial loop; averaging happens in realization order."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    serial = sddp.Policy(catalog, scenario, lattice)
    threaded = sddp.Policy(catalog, scenario, lattice)
    path = singleton_path(lattice)
    traj = sddp.forward_pass(serial, path)
    sddp.backward_pass(serial, traj, iteration=1, threads=1)
    sddp.backward_pass(threaded, traj, iteration=1, threads=2)
    for t in serial.pools:
        assert len(serial.pools[t]) == len(threaded.pools[t])
        for cs, ct in zip(serial.pools[t], threaded.pools[t]):
            assert cs.intercept == ct.intercept
            assert np.array_equal(cs.slope, ct.slope)


def test_fishing_duals_match_finite_differences():
    """Away from kinks, the incoming-state duals are the gradient of
    the stage objective. Central differences must agree within
    max(1e-5 relative, 1e-7 absolute); coordinates where forward and
    backward slopes disagree sit on a kink and are skipped."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    weather = vector([3.0, 2.0], cf=[0.6, 0.3])
    problem = model.build_dispatch_stage(1, catalog, scenario, weather,
                                         total_stages=1)
    layout = model.StateLayout(catalog)
    x = np.zeros(layout.size)
    x[layout.position("gen:wind")] = 3.7
    x[layout.position("pout:acc")] = 2.3
    x[layout.position("pin:acc")] = 2.9
    x[layout.position("energy:acc")] = 7.3
    x[layout.position("ini:acc")] = 0.9
    x[layout.position("level:acc")] = 1.7

    def objective(state):
        sol = lp.solve(model.apply_incoming_state(problem, state).instance)
        return sol.objective

    sol = lp.solve(model.apply_incoming_state(problem, x).instance)
    duals = model.fishing_duals(problem, sol)
    step = 1e-5
    checked = 0
    for p in range(layout.size):
        up = x.copy()
        dn = x.copy()
        up[p] += step
        dn[p] -= step
        f_up, f_mid, f_dn = objective(up), objective(x), objective(dn)
        fwd = (f_up - f_mid) / step
        bwd = (f_mid - f_dn) / step
        if abs(fwd - bwd) > 1e-3 * (1 + abs(fwd)):
            continue
        central = (f_up - f_dn) / (2 * step)
        tol = max(1e-7, 1e-5 * abs(central))
        assert abs(duals[p] - central) <= tol, layout.labels[p]
        checked += 1
    assert checked >= 4


def test_policy_roundtrip(tmp_path):
    """Save and reload must preserve capacities, pools and the bound;
    a different catalog must be rejected."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.train(catalog, scenario, lattice,
                        sddp.TrainOptions(max_iterations=6, seed=8))
    path = tmp_path / "policy.json"
    sddp.save_policy(policy, path)
    loaded = sddp.load_policy(path, catalog, scenario, lattice)
    assert np.array_equal(loaded.capacities, policy.capacities)
    assert sddp.lower_bound(loaded) == pytest.approx(
        sddp.lower_bound(policy), rel=1e-12)
    for t in policy.pools:
        assert len(loaded.pools[t]) == len(policy.pools[t])
        for a, b in zip(loaded.pools[t], policy.pools[t]):
            assert a.intercept == b.intercept
            assert np.array_equal(a.slope, b.slope)
    other = wind_ldes_catalog(wind_capital=6.0)
    with pytest.raises(DataError):
        sddp.load_policy(path, other, scenario, lattice)


def test_training_log_file(tmp_path):
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    log = tmp_path / "train.csv"
    sddp.train(catalog, scenario, two_stage_lattice(),
               sddp.TrainOptions(max_iterations=5, seed=1,
                                 log_path=str(log)))
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "iteration,seconds,lower_bound,forward_cost"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) >= 0.0
    assert float(first[2]) > 0.0


def test_stop_on_gap_stops_at_first_check():
    """On the two-stage lattice the bound already sits inside the
    sampled upper-bound interval at the first check, so training stops
    after five of its 200 iterations."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    policy = sddp.train(catalog, scenario, two_stage_lattice(),
                        sddp.TrainOptions(max_iterations=200, seed=0,
                                          stop_on_gap=True,
                                          gap_check_every=5))
    assert policy.stopped_reason == "gap"
    assert len(policy.training_log) == 5


def _infeasible(instance, **kwargs):
    return lp.LpSolution(lp.INFEASIBLE, None, None, None, None, 0, instance)


def _singular(instance, **kwargs):
    raise NumericalFailure("basis matrix is singular")


@pytest.mark.parametrize("fake, reason", [
    (_infeasible, "solve ended infeasible"),
    (_singular, "basis matrix is singular"),
], ids=["non_optimal", "raises"])
def test_stage_solve_failure_names_stage_and_realization(monkeypatch, fake,
                                                         reason):
    """A child solve that ends non-optimal or raises becomes a
    SolverFailure naming the stage and realization; the backward pass
    solves the last stage's first realization first."""
    catalog = wind_ldes_catalog()
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = two_stage_lattice()
    policy = sddp.Policy(catalog, scenario, lattice)
    trajectory = sddp.forward_pass(policy, singleton_path(lattice))
    monkeypatch.setattr(lp, "solve", fake)
    with pytest.raises(SolverFailure) as info:
        sddp.backward_pass(policy, trajectory)
    assert str(info.value) == f"stage 2 realization 0: {reason}"


def _train_canonical(canonical, iterations, threads=1):
    return sddp.train(canonical["catalog"], canonical["scenario"],
                      canonical["lattice"],
                      sddp.TrainOptions(max_iterations=iterations, seed=3,
                                        threads=threads))


def test_load_policy_rejects_a_cut_of_the_wrong_size(canonical, tmp_path):
    """A saved cut whose slope and trial state agree with each other but
    not with the state layout is a data error at load, not a failure of
    the first simulation."""
    policy = _train_canonical(canonical, 3)
    path = tmp_path / "policy.json"
    sddp.save_policy(policy, path)
    payload = json.loads(path.read_text())
    cut = payload["pools"]["2"][0]
    assert len(cut["slope"]) == policy.layout.size
    cut["slope"].append(0.0)
    cut["trial_state"].append(0.0)
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="pool '2'.* state size"):
        sddp.load_policy(path, canonical["catalog"], canonical["scenario"],
                         canonical["lattice"])


def test_threaded_training_log_matches_serial(canonical):
    """Warm starts are kept per (stage, realization), so solving the
    realizations of a backward pass on two threads changes nothing."""
    serial = _train_canonical(canonical, 15, threads=1)
    threaded = _train_canonical(canonical, 15, threads=2)
    assert threaded.training_log == serial.training_log


def _costs_and_prices(runs):
    return [(rec.stage_cost,
             None if rec.dispatch is None else rec.dispatch.prices.tolist())
            for tr in runs for rec in tr.records]


def test_simulation_is_bit_reproducible(canonical, tmp_path):
    """Simulation warm-starts only within one call: a second call and a
    reloaded policy give bit-identical costs and prices."""
    policy = _train_canonical(canonical, 15)
    path = tmp_path / "policy.json"
    sddp.save_policy(policy, path)
    loaded = sddp.load_policy(path, canonical["catalog"],
                              canonical["scenario"], canonical["lattice"])
    paths = canonical["paths"] * 2
    first = _costs_and_prices(sddp.simulate(policy, paths))
    assert _costs_and_prices(sddp.simulate(policy, paths)) == first
    assert _costs_and_prices(sddp.simulate(loaded, paths)) == first


def test_no_restart_falls_back_on_canonical_instance(canonical, monkeypatch):
    """Every warm-started stage solve of training and simulation on the
    canonical instance finishes from its basis, without the cold path."""
    finished = []

    def spy(raw):
        def restart(*args):
            sol = raw(*args)
            finished.append(sol is not None)
            return sol
        return restart

    # a state restarts from its own factor by _restart alone, and from a
    # sibling's basis by _warm, which ends in _restart
    for name in ("_warm", "_restart"):
        monkeypatch.setattr(lp.LpState, name, spy(getattr(lp.LpState, name)))
    # repeated solves are served without a restart, so it takes 60
    # iterations to restart more than 400 times
    policy = _train_canonical(canonical, 60)
    sddp.simulate(policy, canonical["paths"])
    assert len(finished) > 400
    assert all(finished)


def _builder_cut_rows(problem, pool):
    """The pool's cut rows appended one at a time by LpBuilder.add_row to
    the problem's variables, as (indptr, indices, values, instance)."""
    inst = problem.instance
    b = lp.LpBuilder()
    for j, label in enumerate(inst.var_labels):
        b.add_variable(label, cost=inst.objective[j], lower=inst.lower[j],
                       upper=inst.upper[j])
    for c, cut in enumerate(pool):
        terms = [(problem.theta_column, 1.0)]
        terms += [(col, -s) for col, s in zip(problem.state_columns,
                                               cut.slope)]
        b.add_row(f"cut:{c}", terms, lp.GREATER_EQUAL, cut.intercept)
    return b.build()


@pytest.mark.parametrize("stage", [0, 1])
def test_cut_block_equals_builder_rows(canonical, stage):
    """The array-built cut block holds, bit for bit, the CSR arrays that
    LpBuilder.add_row stores for the same terms: the terms as given, so
    on the capacity stage the opening-level column, which both the
    opening and the running level map to, appears twice."""
    policy = sddp.Policy(canonical["catalog"], canonical["scenario"],
                         canonical["lattice"])
    problem = policy._template(stage, 0)
    cols = problem.state_columns
    assert (len(set(cols)) < len(cols)) == (stage == 0)
    rng = np.random.default_rng(5)
    pool = []
    for k in range(4):
        slope = rng.normal(size=len(cols)) * 10.0 ** rng.integers(-3, 4)
        slope[k % len(cols)] = 0.0
        pool.append(sddp.Cut(stage=stage + 1, intercept=float(rng.normal()),
                             slope=slope, iteration=k,
                             trial_state=np.zeros(len(cols))))
    indptr, indices, values, senses, rhs, labels = sddp.cut_block(
        problem, pool)
    ref = _builder_cut_rows(problem, pool)
    for mine, theirs in ((indptr, ref.indptr), (indices, ref.indices),
                         (values, ref.values)):
        mine = np.asarray(mine, dtype=theirs.dtype)
        assert mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()
    assert tuple(senses) == ref.senses
    assert np.asarray(rhs).tobytes() == ref.rhs.tobytes()
    assert tuple(labels) == ref.row_labels


def test_cut_block_solves_as_presummed_rows(canonical):
    """On the capacity stage, where the opening and the running level of
    the cavern are one column, the cut block solves byte for byte as the
    same rows written with that column's coefficients summed into one
    entry, zero slopes included."""
    problem = model.build_capacity_stage(canonical["catalog"])
    inst = problem.instance
    cols = problem.state_columns
    assert len(set(cols)) < len(cols)
    rng = np.random.default_rng(11)
    pool = []
    for k in range(12):
        slope = -np.abs(rng.normal(size=len(cols))) * 10.0 ** rng.integers(-2, 3)
        slope[rng.random(len(cols)) < 0.3] = 0.0
        pool.append(sddp.Cut(stage=1, intercept=float(rng.uniform(50, 500)),
                             slope=slope, iteration=k,
                             trial_state=np.zeros(len(cols))))
    indptr, indices, values = [0], [], []
    for cut in pool:
        row = {problem.theta_column: 1.0}
        for col, s in zip(cols, cut.slope):
            row[col] = row.get(col, 0.0) - s
        indices += list(row)
        values += list(row.values())
        indptr.append(len(indices))
    presummed = lp.extend_rows(
        inst, indptr, indices, values, [lp.GREATER_EQUAL] * len(pool),
        [cut.intercept for cut in pool],
        [f"cut:{c}" for c in range(len(pool))])
    mine = lp.solve(lp.extend_rows(inst, *sddp.cut_block(problem, pool)))
    theirs = lp.solve(presummed)
    assert mine.status == theirs.status == lp.OPTIMAL
    assert mine.objective == theirs.objective
    for a, b in ((mine.primal, theirs.primal), (mine.duals, theirs.duals),
                 (mine.reduced_costs, theirs.reduced_costs),
                 *zip(mine.basis, theirs.basis)):
        assert a.tobytes() == b.tobytes()


def _fresh_state(problem, inst):
    """A new LpState of the stage template ``problem`` moved to the
    instance ``inst`` of that template: its right-hand sides rewritten
    and its further rows appended."""
    state = lp.LpState(problem.instance)
    n = problem.instance.n_rows
    state.set_rhs(range(n), inst.rhs[:n])
    start = inst.indptr[n]
    state.append_rows(inst.indptr[n:] - start, inst.indices[start:],
                      inst.values[start:], inst.senses[n:], inst.rhs[n:],
                      inst.row_labels[n:])
    return state


def test_memo_hits_match_a_restart_from_the_stored_basis(canonical,
                                                         monkeypatch):
    """Every solve served from the last-solve memo in 40 canonical
    iterations is, bit for bit, what solving the served instance from
    the stored basis gives, and that restart takes no pivot. The served
    solutions come from persistent stage states, so the restart is a
    fresh state of the same template moved to the served instance,
    which is taken off the served state when it is served: the state
    has not moved since that solve."""
    solves = []
    raw_solve = lp.solve_optimal
    raw_stage = sddp.Policy._solve

    def count(*args, **kwargs):
        solves.append(1)
        return raw_solve(*args, **kwargs)

    hits = []

    def stage(self, t, node, x_in=None, bases=None):
        before = len(solves)
        problem, sol = raw_stage(self, t, node, x_in, bases)
        if len(solves) == before:
            assert sol.source is bases[(t, node)][3]
            hits.append((t, problem, sol, sol.source.instance()))
        return problem, sol

    monkeypatch.setattr(lp, "solve_optimal", count)
    monkeypatch.setattr(sddp.Policy, "_solve", stage)
    _train_canonical(canonical, 40)
    last = canonical["lattice"].n_stages
    # the constructor's capacity solve opens the first forward pass, the
    # lower bound's opens each later one and fixes the final capacities,
    # and each backward pass repeats the forward pass's last-stage solve
    assert sum(t == 0 for t, _, _, _ in hits) == 41
    assert sum(t == last for t, _, _, _ in hits) >= 40
    for _, problem, served, inst in hits:
        again = lp.solve(_fresh_state(problem, inst), basis=served.basis)
        assert again.iterations == 0
        assert again.objective == served.objective
        for mine, theirs in ((again.primal, served.primal),
                             (again.duals, served.duals),
                             (again.reduced_costs, served.reduced_costs),
                             *zip(again.basis, served.basis)):
            assert mine.tobytes() == theirs.tobytes()


def _distinct_incoming_states(policy, paths):
    """The distinct incoming states of every dispatch stage of a cold
    simulation, in order of first appearance. The state layout is one
    for all stages, so each is a valid incoming state of any stage."""
    first = sddp.simulate(policy, paths[:1])[0].record(0)
    states = {}
    for path in paths:
        for rec in sddp._rollout(policy, path, first).records[1:]:
            states.setdefault(rec.incoming.tobytes(), rec.incoming)
    return list(states.values())


def test_sibling_basis_restarts_every_stage_warm(sector):
    """For every dispatch stage and every ordered pair of realizations
    (i, j), realization j at one incoming state restarts warm from i's
    optimal basis at another state, and ends at the cold optimum. The
    cold solve's state is its own, so its instance, taken after the
    solve, is the one solved."""
    policy = sector["policy"]
    x_i, x_j = _distinct_incoming_states(policy, sector["paths"])[:2]
    assert x_i.tobytes() != x_j.tobytes()
    n_real = sector["lattice"].branch_count(1)
    assert n_real == 3
    for t in range(1, policy.n_stages + 1):
        for i in range(n_real):
            _, from_i = policy._solve(t, i, x_i)
            assert from_i.basis is not None
            for j in range(n_real):
                _, cold = policy._solve(t, j, x_j)
                assert cold.start == "cold"
                warm = lp.solve(cold.source.instance(), basis=from_i.basis)
                assert warm.start == "warm", (t, i, j)
                assert warm.status == lp.OPTIMAL
                assert warm.objective == pytest.approx(cold.objective,
                                                       rel=1e-9)


def test_simulation_solves_one_stage_problem_cold_per_stage(sector,
                                                            monkeypatch):
    """A simulation solves only its first path's stages cold; every other
    first visit of a (stage, realization) restarts from a sibling's
    basis, without a fallback. The first path is the all-cold rollout
    bit for bit, and every stage solve of every path is optimal: its
    objective is a cold solve's at the same incoming state.

    Paths are not compared with all-cold rollouts as a whole: a stage
    whose optimal face is not a point (here stage 2, where buying spot
    hydrogen now and a cut's value of the level trade one for one) may
    end at another level from another start, and later stages differ
    from there on.
    """
    policy, paths = sector["policy"], sector["paths"]
    starts = []
    raw = lp.solve

    def spy(instance, **kwargs):
        sol = raw(instance, **kwargs)
        starts.append(sol.start)
        return sol

    monkeypatch.setattr(lp, "solve", spy)
    runs = sddp.simulate(policy, paths)
    assert starts.count("cold") == policy.n_stages
    assert starts.count("fallback") == 0
    visited = {(t, n) for p in paths for t, n in enumerate(p.node_indices)}
    assert len(visited) > policy.n_stages
    monkeypatch.undo()

    cold = sddp._rollout(policy, paths[0], runs[0].record(0), None)
    assert _costs_and_prices([cold]) == _costs_and_prices(runs[:1])
    for run in runs:
        for rec in run.records[1:]:
            _, sol = policy._solve(rec.stage, rec.node, rec.incoming)
            assert sol.start == "cold"
            objective = rec.stage_cost + (rec.theta or 0.0)
            assert objective == pytest.approx(sol.objective, rel=1e-9)


def test_backward_pass_leaves_the_stage_bases_alone(sector):
    """Only the rollout writes a stage's basis entry in the dict of last
    solves; a backward pass reads them. On four threads switching every
    few microseconds, it leaves each entry as it found it and adds the
    cuts a serial pass adds."""
    policies = [sddp.Policy(sector["catalog"], sector["scenario"],
                            sector["lattice"]) for _ in range(2)]
    dicts = [{}, {}]
    rng = np.random.default_rng(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for k in range(1, 4):
            path = sample_path(sector["lattice"], rng)
            for policy, bases, threads in zip(policies, dicts, (1, 4)):
                trajectory = sddp.forward_pass(policy, path, bases)
                stages = {key: entry for key, entry in bases.items()
                          if isinstance(key, int)}
                assert sorted(stages) == list(range(1, policy.n_stages + 1))
                sddp.backward_pass(policy, trajectory, iteration=k,
                                   threads=threads, bases=bases)
                after = {key: entry for key, entry in bases.items()
                         if isinstance(key, int)}
                assert after.keys() == stages.keys()
                assert all(after[key] is stages[key] for key in stages)
    finally:
        sys.setswitchinterval(interval)
    serial, threaded = (policy.to_payload()["pools"] for policy in policies)
    assert threaded == serial


def test_threaded_training_policy_matches_serial_on_three_realizations(
        sector):
    """With three realizations per stage, first visits in the backward
    pass restart from the rollout's stage bases; two threads train the
    byte-identical policy that one thread does."""
    payloads = [json.dumps(sddp.train(
        sector["catalog"], sector["scenario"], sector["lattice"],
        sddp.TrainOptions(max_iterations=6, seed=1, threads=threads),
    ).to_payload(), sort_keys=True) for threads in (1, 2)]
    assert payloads[0] == payloads[1]


def _state_solves(monkeypatch):
    """Record every solve of an lp.LpState that lp.solve makes, as the
    instance the state stood for at the solve and the solution."""
    seen = []
    raw = lp.solve

    def spy(problem, **kwargs):
        sol = raw(problem, **kwargs)
        if isinstance(problem, lp.LpState):
            seen.append((problem.instance(), sol))
        return sol

    monkeypatch.setattr(lp, "solve", spy)
    return seen


def _feasibility_error(inst, x):
    """The largest violation of a row or a bound of ``inst`` at ``x``."""
    ax = inst.dense_matrix() @ x
    senses = np.array(inst.senses)
    rows = np.where(senses == lp.LESS_EQUAL, ax - inst.rhs, np.where(
        senses == lp.GREATER_EQUAL, inst.rhs - ax, np.abs(ax - inst.rhs)))
    bounds = np.maximum(inst.lower - x, x - inst.upper)
    return max(rows.max(initial=0.0), bounds.max(initial=0.0), 0.0)


def _cut_at_trial(inst, sol):
    """The one-realization cut of ``sol`` evaluated at its trial state,
    the right-hand sides of the fishing rows."""
    fish = [i for label, i in inst.row_index.items()
            if label.startswith("fish:")]
    trial = inst.rhs[fish]
    return sddp.average_cut(1, [sol.objective], [sol.duals[fish]], trial,
                            0).value_at(trial)


def test_persistent_states_solve_what_their_instances_would(canonical,
                                                           sector,
                                                           monkeypatch):
    """Every stage solve of 40 canonical and 2 sector training iterations
    goes through a persistent stage state and matches a cold solve of
    the instance it solved: objectives within 1e-9 relative, the cut of
    its duals at the trial state within 1e-7 (duals may be degenerate),
    and its primal feasible for that instance."""
    seen = _state_solves(monkeypatch)
    _train_canonical(canonical, 40)
    n_canonical = len(seen)
    sddp.train(sector["catalog"], sector["scenario"], sector["lattice"],
               sddp.TrainOptions(max_iterations=2, seed=1))
    assert n_canonical > 200 and len(seen) > n_canonical
    assert any(sol.start == "warm" and "cut:0" in inst.row_index
               for inst, sol in seen)
    monkeypatch.undo()
    for inst, sol in seen:
        cold = lp.solve(inst)
        assert cold.status == sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9,
                                              abs=1e-9)
        if inst.n_rows and inst.row_labels[0].startswith("fish:"):
            assert _cut_at_trial(inst, sol) == pytest.approx(
                _cut_at_trial(inst, cold), rel=1e-7, abs=1e-7)
        assert _feasibility_error(inst, sol.primal) <= lp.FEASIBILITY_TOL


def test_train_solves_the_capacity_stage_cold_once(canonical, monkeypatch):
    """The constructor's capacity solve enters the run's dict of last
    solves, so a 1-iteration train solves the capacity stage cold once:
    the first forward pass is served that solve, and the bound solve
    restarts from its factor."""
    starts = []
    raw = lp.solve

    def spy(problem, **kwargs):
        sol = raw(problem, **kwargs)
        if not any(label.startswith("fish:") for label in problem.row_index):
            starts.append(sol.start)
        return sol

    monkeypatch.setattr(lp, "solve", spy)
    _train_canonical(canonical, 1)
    assert starts == ["cold", "warm"]
