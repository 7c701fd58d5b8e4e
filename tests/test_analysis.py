"""Tests for bid curves, duration curves, trajectory bands and the
dual-consistency audit."""

import numpy as np
import pytest

from conftest import make_vector, sector_catalog, sector_lattice
from stockpile import analysis, benchmarks, model, sddp
from stockpile.errors import EmptyPool, UnknownStage
from stockpile.weather import SamplingLattice, WeatherPath


def storage_only_catalog():
    acc = model.Storage(name="acc", capital_cost_out=1.0, capital_cost_in=1.0,
                        capital_cost_energy=0.1, efficiency_out=0.4,
                        efficiency_in=0.7, max_power_out=5.0, max_power_in=5.0,
                        max_energy=40.0, long_duration=True)
    return model.TechnologyCatalog(generators=(), storages=(acc,))


def fake_dispatch(prices, name="acc", level=None, discharge=None,
                  charge=None, msv=None, hours=1.0):
    prices = np.asarray(prices, dtype=float)
    zeros = np.zeros_like(prices)

    def pick(x):
        return zeros if x is None else np.asarray(x, dtype=float)

    return model.DispatchSolution(
        generation={}, discharge={name: pick(discharge)},
        charge={name: pick(charge)}, level={name: pick(level)},
        shed=zeros, spot=None, ltc_offtake=None, prices=prices,
        storage_values={name: pick(msv)}, stage_cost=0.0, objective=0.0,
        terminal_slack={}, period_hours=hours)


def fake_trajectory(dispatches, incoming=None):
    records = [sddp.StageRecord(stage=0, node=None, incoming=None,
                                outgoing=np.zeros(1), stage_cost=0.0,
                                theta=0.0, dispatch=None)]
    for t, d in enumerate(dispatches, start=1):
        records.append(sddp.StageRecord(
            stage=t, node=0, incoming=incoming, outgoing=np.zeros(1),
            stage_cost=0.0, theta=None, dispatch=d))
    return sddp.Trajectory(records=tuple(records))


def test_bid_conversion_worked_examples():
    """A storage value of 100 EUR/MWh of fuel with efficiencies 0.4 out
    and 0.7 in prices discharge at 250 and charge at 70, exactly."""
    pair = analysis.bid_conversion(100.0, 0.4, 0.7)
    assert pair.discharge_bid == 250.0
    assert pair.charge_bid == 70.0
    pair = analysis.bid_conversion(127.0, 0.4, 0.7)
    assert pair.discharge_bid == 317.5
    assert pair.charge_bid == pytest.approx(88.9, abs=1e-9)
    pair = analysis.bid_conversion(0.0, 0.5, 0.5)
    assert (pair.discharge_bid, pair.charge_bid) == (0.0, 0.0)
    with pytest.raises(ValueError):
        analysis.bid_conversion(10.0, 0.0, 0.7)
    with pytest.raises(ValueError):
        analysis.bid_conversion(10.0, 0.4, 1.5)


def test_final_stage_msv_is_a_step_at_the_target(canonical_policy):
    """In the last stage the only future value is the terminal
    shortfall penalty: full lost-load price strictly below the opening
    target, zero at and above it."""
    policy = canonical_policy["policy"]
    layout = policy.layout
    target = policy.capacities[layout.position("ini:cavern")]
    voll = policy.scenario.voll
    curve = analysis.msv_curve(policy, 3, grid_step=2.0)
    assert curve.storage == "cavern"
    below = curve.levels < target
    assert np.all(curve.msv[below] == voll)
    assert np.all(curve.msv[~below] == 0.0)
    assert below.any() and (~below).any()
    on_target = analysis.msv_curve(policy, 3, grid_step=target / 2)
    k = int(np.flatnonzero(on_target.levels == target)[0])
    assert on_target.msv[k] == 0.0
    assert on_target.msv[k - 1] == voll


def test_msv_curves_are_nonincreasing_and_nonnegative(canonical_policy):
    """Convexity of the learned cost-to-go makes every bid curve step
    down (or stay flat) as the store fills; never negative."""
    policy = canonical_policy["policy"]
    for stage in range(0, policy.n_stages + 1):
        curve = analysis.msv_curve(policy, stage, grid_step=2.5)
        assert np.all(np.diff(curve.msv) <= 0.0)
        assert np.all(curve.msv >= 0.0)
        assert curve.msv[0] >= curve.msv[-1]
        assert np.all(curve.discharge_bids ==
                      curve.msv / policy.catalog.storages[0].efficiency_out)
        assert np.all(curve.charge_bids ==
                      policy.catalog.storages[0].efficiency_in * curve.msv)


def test_msv_matches_brute_force_value_perturbation(canonical):
    """A backward pass anchored at a chosen trial level writes the
    exact tangent of the final stage's expected cost into the pool, so
    the bid curve evaluated at that level must match a central finite
    difference of the brute-force cost-to-go; kinks (where one-sided
    slopes disagree) are skipped."""
    catalog = canonical["catalog"]
    scenario = canonical["scenario"]
    lattice = canonical["lattice"]
    policy = sddp.Policy(catalog, scenario, lattice)
    layout = policy.layout
    pos = layout.position("level:cavern")
    decision = model.CapacityDecision(
        generation={"wind": 18.0}, storage_power_out={"cavern": 10.0},
        storage_power_in={"cavern": 10.0}, storage_energy={"cavern": 40.0},
        initial_level={"cavern": 20.0})
    policy.capacities = decision.to_state(layout)
    probes = (13.7, 31.4)
    for e0 in probes:
        x = policy.capacities.copy()
        x[pos] = e0
        records = tuple(
            sddp.StageRecord(stage=t, node=None, incoming=None, outgoing=x,
                             stage_cost=0.0, theta=0.0, dispatch=None)
            for t in range(3))
        sddp.backward_pass(policy, sddp.Trajectory(records=records))
    assert len(policy.pools[3]) == len(probes)

    def exact(level):
        x = policy.capacities.copy()
        x[pos] = level
        return benchmarks.expected_cost_to_go(catalog, scenario, lattice,
                                              3, x)

    step = 0.05
    confirmed = 0
    for e0 in probes:
        q0, qp, qm = exact(e0), exact(e0 + step), exact(e0 - step)
        fwd = (qp - q0) / step
        bwd = (q0 - qm) / step
        if abs(fwd - bwd) > 1e-3 * (1 + abs(fwd)):
            continue
        expected = -(qp - qm) / (2 * step) * 1e3
        curve = analysis.msv_curve(policy, 2, grid_step=e0)
        assert curve.levels[1] == pytest.approx(e0, abs=1e-12)
        assert curve.msv[1] == pytest.approx(expected, rel=1e-4, abs=1e-6)
        confirmed += 1
    assert confirmed >= 1


def test_msv_curve_error_cases(canonical):
    policy = sddp.Policy(canonical["catalog"], canonical["scenario"],
                         canonical["lattice"])
    with pytest.raises(ValueError):
        analysis.msv_curve(policy, 1)
    decision = model.CapacityDecision(
        generation={"wind": 5.0}, storage_power_out={"cavern": 5.0},
        storage_power_in={"cavern": 5.0}, storage_energy={"cavern": 40.0},
        initial_level={"cavern": 10.0})
    policy.capacities = decision.to_state(policy.layout)
    with pytest.raises(EmptyPool):
        analysis.msv_curve(policy, 1)
    with pytest.raises(UnknownStage):
        analysis.msv_curve(policy, 4)
    with pytest.raises(ValueError):
        analysis.msv_curve(policy, 3, grid_step=0.0)
    terminal = analysis.msv_curve(policy, 3, grid_step=15.0)
    assert terminal.levels[-1] == 40.0


def test_bad_storage_names_raise_value_errors_naming_the_store():
    """msv_curve rejects a short-duration store, built or not, and a
    name the catalog lacks; trajectory_stats rejects a name its
    dispatch records lack. Each error names the store and says why."""
    catalog = sector_catalog()
    policy = sddp.Policy(catalog, model.MarketScenario("ni", voll=1000.0),
                         sector_lattice(2025))
    for energy in (20.0, 0.0):
        decision = model.CapacityDecision(
            generation={"wind": 30.0, "solar": 0.0},
            storage_power_out={"cavern": 5.0, "battery": 5.0},
            storage_power_in={"cavern": 5.0, "battery": 5.0},
            storage_energy={"cavern": 100.0, "battery": energy},
            initial_level={"cavern": 50.0})
        policy.capacities = decision.to_state(policy.layout)
        with pytest.raises(ValueError, match="'battery' is not long-dur"):
            analysis.msv_curve(policy, 1, storage="battery")
    with pytest.raises(ValueError, match="'tank' is not in the catalog"):
        analysis.msv_curve(policy, 1, storage="tank")
    trajectory = fake_trajectory([fake_dispatch([0.0], level=[1.0])])
    with pytest.raises(ValueError, match="'tank' has no level"):
        analysis.trajectory_stats([trajectory], e_ini=0.0, storage="tank")


def test_duration_curve_sorts_descending():
    curve = analysis.price_duration_curve(
        [fake_trajectory([fake_dispatch([3.0, 1.0, 2.0])])])
    assert list(curve.prices) == [3.0, 2.0, 1.0]
    assert np.allclose(curve.shares, [1 / 3, 2 / 3, 1.0])
    assert curve.to_table().splitlines()[0] == "rank,share,price"
    empty = analysis.price_duration_curve([])
    assert empty.prices.size == 0


def test_all_shedding_run_pins_prices_at_voll():
    """With nothing built every period sheds, so the whole duration
    curve sits flat at the lost-load price."""
    wind = model.Generator(name="wind", capital_cost=1.0, marginal_cost=0.0,
                           max_capacity=0.0)
    acc = model.Storage(name="acc", capital_cost_out=1.0, capital_cost_in=1.0,
                        capital_cost_energy=0.1, efficiency_out=0.5,
                        efficiency_in=0.5, max_power_out=0.0,
                        max_power_in=0.0, max_energy=0.0, long_duration=True)
    catalog = model.TechnologyCatalog(generators=(wind,), storages=(acc,))
    scenario = model.MarketScenario(name="ni", voll=1000.0)
    lattice = SamplingLattice.from_vectors(
        [[make_vector([2.0, 2.0], {"wind": [0.5, 0.5]})]])
    policy = sddp.Policy(catalog, scenario, lattice)
    path = WeatherPath(vectors=(lattice.realizations(1)[0],),
                       node_indices=(0,))
    trajectories = sddp.simulate(policy, [path])
    curve = analysis.price_duration_curve(trajectories)
    assert curve.prices.size == 2
    assert np.all(curve.prices == pytest.approx(1000.0, rel=1e-9))


def test_distinct_price_levels_clusters_and_filters():
    prices = [0.0, 0.0, 100000.0, 250.0, 250.0 + 1e-7, 70.0, 99000.0,
              99999.99]
    levels = analysis.distinct_price_levels(prices, lower=0.0,
                                            upper=100000.0)
    assert len(levels) == 3
    assert levels[0] == pytest.approx(70.0)
    assert levels[1] == pytest.approx(250.0)
    assert levels[2] == pytest.approx(99000.0)
    assert analysis.distinct_price_levels([]) == []
    assert analysis.distinct_price_levels([5.0, 5.0, 5.0]) == [5.0]


def test_trajectory_stats_single_run_collapses_bands():
    levels_by_stage = [np.array([3.0, 4.0]), np.array([4.0, 6.0])]
    trajectory = fake_trajectory(
        [fake_dispatch([0.0, 0.0], level=lv) for lv in levels_by_stage])
    bands = analysis.trajectory_stats([trajectory], e_ini=5.0)
    assert list(bands.stages) == [1, 2]
    assert bands.mean == pytest.approx([-1.0, 1.0])
    for arr in (bands.p5, bands.p25, bands.p75, bands.p95):
        assert arr == pytest.approx([-1.0, 1.0])
    assert bands.levels.shape == (1, 2)
    table = bands.to_table()
    assert table.splitlines()[0] == "stage,stat,value"
    assert len(table.splitlines()) == 11


def test_trajectory_stats_on_target_reads_zero():
    on_target = fake_trajectory(
        [fake_dispatch([0.0], level=[7.5]), fake_dispatch([0.0],
                                                          level=[7.5])])
    bands = analysis.trajectory_stats([on_target, on_target], e_ini=7.5)
    assert np.all(bands.mean == 0.0)
    assert np.all(bands.p5 == 0.0)
    assert np.all(bands.p95 == 0.0)


def test_kkt_audit_worked_example():
    """Interior discharge with a storage value of 100 and discharge
    efficiency 0.4 demands a price of exactly 250; a price of 260 is a
    violation, and a period at full discharge capacity is exempt."""
    catalog = storage_only_catalog()
    layout = model.StateLayout(catalog)
    incoming = np.zeros(layout.size)
    incoming[layout.position("pout:acc")] = 5.0
    incoming[layout.position("pin:acc")] = 5.0
    good = fake_trajectory([fake_dispatch(
        [250.0], discharge=[1.0], msv=[100.0])], incoming=incoming)
    report = analysis.kkt_audit(good, catalog)
    assert report.clean and report.checked == 1
    bad = fake_trajectory([fake_dispatch(
        [260.0], discharge=[1.0], msv=[100.0])], incoming=incoming)
    report = analysis.kkt_audit(bad, catalog)
    assert not report.clean
    assert report.violations[0].mode == "discharge"
    assert report.violations[0].implied == 250.0
    capped = fake_trajectory([fake_dispatch(
        [999.0], discharge=[5.0], msv=[100.0])], incoming=incoming)
    report = analysis.kkt_audit(capped, catalog)
    assert report.checked == 0 and report.clean
    charging = fake_trajectory([fake_dispatch(
        [70.0], charge=[1.0], msv=[100.0])], incoming=incoming)
    assert analysis.kkt_audit(charging, catalog).clean


def test_kkt_audit_is_clean_on_converged_instance(canonical,
                                                  canonical_policy):
    """A converged policy's simulated dispatch must satisfy the
    bidding identities in every interior period of every path."""
    policy = canonical_policy["policy"]
    trajectories = sddp.simulate(policy, canonical["paths"])
    total = 0
    for trajectory in trajectories:
        report = analysis.kkt_audit(trajectory, canonical["catalog"])
        assert report.clean, report.violations
        total += report.checked
    assert total > 0
