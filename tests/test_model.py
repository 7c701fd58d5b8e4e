import itertools

import numpy as np
import pytest
from scipy import optimize

from stockpile import lp, model
from stockpile.errors import (
    DimensionMismatch,
    InconsistentBounds,
    LengthMismatch,
    OutOfRange,
    UnknownStage,
)

NO_IMPORTS = model.MarketScenario("no_imports", voll=100000.0)
CONSTRAINED = model.MarketScenario("constrained", voll=100000.0,
                                   spot_price=250.0, spot_cap=5.5)
UNLIMITED = model.MarketScenario("unlimited", voll=100000.0, spot_price=250.0)


def one_ldes_catalog(eff_out=0.4, eff_in=0.7, ltc_max=0.0):
    wind = model.Generator("wind", capital_cost=50.0, marginal_cost=0.0,
                           max_capacity=50.0)
    store = model.Storage("h2store", capital_cost_out=30.0,
                          capital_cost_in=20.0, capital_cost_energy=0.5,
                          efficiency_out=eff_out, efficiency_in=eff_in,
                          max_power_out=20.0, max_power_in=20.0,
                          max_energy=400.0, long_duration=True)
    return model.TechnologyCatalog((wind,), (store,), ltc_price=80.0,
                                   ltc_max=ltc_max)


def flat_weather(n=4, demand=5.0, cf=0.5, heat=0.0, cop=3.0, hours=1.0):
    return model.WeatherVector(
        capacity_factors={"wind": np.full(n, float(cf))},
        demand=np.full(n, float(demand)),
        heat_demand=np.full(n, float(heat)),
        heat_pump_cop=np.full(n, float(cop)),
        period_hours=hours)


def state_of(catalog, wind=10.0, pout=5.0, pin=5.0, energy=50.0, ini=20.0,
             ltc=0.0):
    layout = model.StateLayout(catalog)
    decision = model.CapacityDecision(
        generation={g.name: wind for g in catalog.generators},
        storage_power_out={s.name: pout for s in catalog.storages},
        storage_power_in={s.name: pin for s in catalog.storages},
        storage_energy={s.name: energy for s in catalog.storages},
        initial_level={s.name: ini for s in catalog.long_duration_storages},
        ltc_volume=ltc)
    return decision.to_state(layout)


def test_validation_rejects_bad_technology_data():
    """Negative costs, inverted bounds, and efficiencies outside (0, 1]
    are caught at construction time."""
    with pytest.raises(OutOfRange):
        model.Generator("g", capital_cost=-1.0, marginal_cost=0.0,
                        max_capacity=1.0)
    with pytest.raises(InconsistentBounds):
        model.Generator("g", capital_cost=1.0, marginal_cost=0.0,
                        max_capacity=1.0, min_capacity=2.0)
    with pytest.raises(OutOfRange):
        model.Storage("s", 1.0, 1.0, 1.0, efficiency_out=0.0,
                      efficiency_in=1.0, max_power_out=1.0, max_power_in=1.0,
                      max_energy=1.0)
    with pytest.raises(OutOfRange):
        flat_weather(cf=1.5)
    with pytest.raises(LengthMismatch):
        model.WeatherVector(capacity_factors={"wind": np.zeros(3)},
                            demand=np.zeros(4), heat_demand=np.zeros(4),
                            heat_pump_cop=np.ones(4))


def test_capacity_stage_zero_cost_ties_at_lower_bounds():
    """With all capital costs zero and no cuts, the optimum is zero and
    the reported point sits at the lower bounds."""
    wind = model.Generator("wind", capital_cost=0.0, marginal_cost=0.0,
                           max_capacity=50.0, min_capacity=2.0)
    store = model.Storage("h2store", 0.0, 0.0, 0.0, efficiency_out=0.5,
                          efficiency_in=0.5, max_power_out=20.0,
                          max_power_in=20.0, max_energy=400.0,
                          long_duration=True)
    catalog = model.TechnologyCatalog((wind,), (store,))
    prob = model.build_capacity_stage(catalog)
    sol = lp.solve(prob.instance)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == 0.0
    assert sol.value("G:wind") == 2.0
    assert sol.value("F:h2store") == 0.0
    assert sol.value("theta") == 0.0


def test_capacity_stage_capacity_without_value_stays_zero():
    """A generator with positive capital cost and no cost-to-go pressure
    is not built."""
    catalog = one_ldes_catalog()
    prob = model.build_capacity_stage(catalog)
    sol = lp.solve(prob.instance)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == 0.0
    assert sol.value("G:wind") == 0.0


def test_capacity_stage_single_cut_moves_optimum_to_kink():
    """One cut theta >= 100 - 50 G against capital of 1 EUR/kW-yr (1
    MEUR/GW-yr) puts the optimum at the kink G = 2 with objective 2,
    checked by enumerating the three candidate vertices by hand: G = 0
    costs 100, the kink costs 2, and G = 10 costs 10."""
    wind = model.Generator("wind", capital_cost=1.0, marginal_cost=0.0,
                           max_capacity=10.0)
    catalog = model.TechnologyCatalog((wind,), ())
    prob = model.build_capacity_stage(catalog)
    index = prob.instance.var_index
    cut = lp.extend_rows(prob.instance, [0, 2],
                         [index["theta"], index["G:wind"]], [1.0, 50.0],
                         [lp.GREATER_EQUAL], [100.0], ["cut0"])
    sol = lp.solve(cut)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(2.0, rel=1e-9)
    assert sol.value("G:wind") == pytest.approx(2.0, rel=1e-9)
    assert sol.value("theta") == pytest.approx(0.0, abs=1e-9)


def test_balance_requirement_combines_heat():
    """Electricity demand of 10 plus 6 units of heat at COP 3 puts a
    requirement of 12 on the balance row."""
    catalog = one_ldes_catalog()
    weather = flat_weather(demand=10.0, heat=6.0, cop=3.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    i = prob.instance.row_index["balance:0"]
    assert prob.instance.rhs[i] == pytest.approx(12.0)


def test_forced_shedding_is_priced_at_voll():
    """With zero availability, no stored energy, and no imports, every
    period sheds its full requirement and the stage cost is the
    lost-load price times the shed volume."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=4, demand=10.0, cf=0.0, heat=6.0, cop=3.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    x = state_of(catalog, wind=10.0, energy=0.0, ini=0.0)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    assert sol.status == lp.OPTIMAL
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert dispatch.shed == pytest.approx(np.full(4, 12.0))
    assert sol.objective == pytest.approx(100000.0 * 1e-3 * 48.0, rel=1e-12)
    assert dispatch.prices == pytest.approx(np.full(4, 100000.0))


def scipy_stage_oracle(catalog, weather, x_in, layout):
    """Independent dense assembly of a single dispatch stage (no spot,
    no contract, not terminal) solved with scipy. Variable blocks per
    period: g per generator, f/h/e per storage, shed."""
    n = weather.n_periods
    hours = weather.period_hours
    gens = catalog.generators
    stos = catalog.storages
    width = len(gens) + 3 * len(stos) + 1

    def col(h, block):
        return h * width + block

    nv = n * width
    cost = np.zeros(nv)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    caps = {}
    for p, (kind, name) in enumerate(layout.entries):
        caps[(kind, name)] = x_in[p]
    for h in range(n):
        for j, g in enumerate(gens):
            cost[col(h, j)] = g.marginal_cost * 1e-3
            phi = (g.availability if g.availability is not None
                   else weather.capacity_factors[g.name][h])
            row = np.zeros(nv)
            row[col(h, j)] = 1.0
            a_ub.append(row)
            b_ub.append(phi * hours * caps[("gen", g.name)])
        for j, s in enumerate(stos):
            fc, hc, ec = (col(h, len(gens) + 3 * j + k) for k in range(3))
            for c, bound in ((fc, hours * caps[("pout", s.name)]),
                             (hc, hours * caps[("pin", s.name)]),
                             (ec, caps[("energy", s.name)])):
                row = np.zeros(nv)
                row[c] = 1.0
                a_ub.append(row)
                b_ub.append(bound)
        cost[col(h, width - 1)] = 100000.0 * 1e-3
        row = np.zeros(nv)
        for j in range(len(gens)):
            row[col(h, j)] = 1.0
        for j, s in enumerate(stos):
            row[col(h, len(gens) + 3 * j)] = 1.0
            row[col(h, len(gens) + 3 * j + 1)] = -1.0
        row[col(h, width - 1)] = 1.0
        a_eq.append(row)
        b_eq.append(weather.electricity_requirement()[h])
    for h in range(n):
        for j, s in enumerate(stos):
            fc, hc, ec = (col(h, len(gens) + 3 * j + k) for k in range(3))
            row = np.zeros(nv)
            row[ec] = -1.0
            row[hc] = s.efficiency_in
            row[fc] = -1.0 / s.efficiency_out
            rhs = 0.0
            if h > 0:
                row[col(h - 1, len(gens) + 3 * j + 2)] = 1.0
            elif s.long_duration:
                # constant opening level moves to the right-hand side
                rhs = -caps[("level", s.name)]
            else:
                row[col(n - 1, len(gens) + 3 * j + 2)] = 1.0
            a_eq.append(row)
            b_eq.append(rhs)
    res = optimize.linprog(cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                           A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                           bounds=[(0, None)] * nv, method="highs")
    assert res.status == 0
    return res


def test_dispatch_matches_independent_assembly():
    """A four-period stage with one wind generator and one storage
    solves to the same objective and dispatch as a dense reference
    model assembled from scratch."""
    gen = model.Generator("wind", capital_cost=50.0, marginal_cost=1.5,
                          max_capacity=50.0)
    backup = model.Generator("bio", capital_cost=90.0, marginal_cost=40.0,
                             max_capacity=10.0, availability=1.0)
    store = model.Storage("h2store", 30.0, 20.0, 0.5, efficiency_out=0.5,
                          efficiency_in=0.7, max_power_out=20.0,
                          max_power_in=20.0, max_energy=400.0,
                          long_duration=True)
    catalog = model.TechnologyCatalog((gen, backup), (store,))
    layout = model.StateLayout(catalog)
    weather = model.WeatherVector(
        capacity_factors={"wind": np.array([0.9, 0.1, 0.0, 0.6])},
        demand=np.array([4.0, 6.0, 7.0, 3.0]),
        heat_demand=np.array([3.0, 0.0, 3.0, 0.0]),
        heat_pump_cop=np.full(4, 3.0),
        period_hours=1.0)
    decision = model.CapacityDecision(
        generation={"wind": 8.0, "bio": 2.0},
        storage_power_out={"h2store": 4.0},
        storage_power_in={"h2store": 6.0},
        storage_energy={"h2store": 30.0},
        initial_level={"h2store": 6.0})
    x = decision.to_state(layout)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    assert sol.status == lp.OPTIMAL
    ref = scipy_stage_oracle(catalog, weather, x, layout)
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    width = 2 + 3 + 1
    for h in range(4):
        assert dispatch.generation["wind"][h] == pytest.approx(
            ref.x[h * width], abs=1e-6)
        assert dispatch.generation["bio"][h] == pytest.approx(
            ref.x[h * width + 1], abs=1e-6)
        assert dispatch.level["h2store"][h] == pytest.approx(
            ref.x[h * width + 4], abs=1e-6)


def test_empty_storage_cannot_serve_demand():
    """An opening level of zero with zero wind forces shedding before
    the storage can be charged."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=3, demand=2.0, cf=0.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    x = state_of(catalog, ini=0.0)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert np.all(dispatch.shed > 0)


def test_doubled_capacity_weakly_cheaper():
    """Doubling the wind capacity relaxes the availability rows, so the
    optimal stage cost cannot increase."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=4, demand=6.0, cf=0.4)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    base = state_of(catalog, wind=5.0, ini=1.0)
    doubled = base.copy()
    layout = prob.layout
    doubled[layout.position("gen:wind")] *= 2.0
    lo = lp.solve(model.apply_incoming_state(prob, base).instance)
    hi = lp.solve(model.apply_incoming_state(prob, doubled).instance)
    assert hi.objective <= lo.objective + 1e-6


def test_incoming_level_sensitivity_matches_fishing_dual():
    """Perturbing the incoming storage level by a small amount moves
    the stage optimum by the fishing dual of that row, to first order."""
    catalog = one_ldes_catalog(eff_out=0.5, eff_in=0.8)
    weather = flat_weather(n=4, demand=6.0, cf=0.2)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    layout = prob.layout
    x = state_of(catalog, wind=10.0, ini=3.7)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    rho = model.fishing_duals(prob, sol)
    p = layout.position("level:h2store")
    eps = 1e-4
    up = x.copy()
    dn = x.copy()
    up[p] += eps
    dn[p] -= eps
    s_up = lp.solve(model.apply_incoming_state(prob, up).instance)
    s_dn = lp.solve(model.apply_incoming_state(prob, dn).instance)
    fwd = (s_up.objective - sol.objective) / eps
    bwd = (sol.objective - s_dn.objective) / eps
    assert fwd == pytest.approx(bwd, rel=1e-6, abs=1e-3)
    assert 0.5 * (fwd + bwd) == pytest.approx(
        rho[p], rel=1e-5, abs=1e-5 * (1 + abs(rho[p])))
    # more energy in store can never hurt
    assert rho[p] <= 1e-9


def test_state_passthrough_and_level_readout():
    """Capacity entries of the outgoing state equal the incoming ones
    exactly; the level slot reads the final-period level."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=4, demand=6.0, cf=0.6)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    x = state_of(catalog, ini=7.0)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    out = model.extract_state(prob, sol)
    layout = prob.layout
    lev = layout.position("level:h2store")
    for p in range(layout.size):
        if p != lev:
            assert out[p] == pytest.approx(x[p], abs=1e-9)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert out[lev] == dispatch.level["h2store"][-1]


def test_chained_stages_keep_level_continuity():
    """Feeding stage one's outgoing state into stage two satisfies the
    cross-stage storage balance to within 1e-9."""
    catalog = one_ldes_catalog(eff_out=0.5, eff_in=0.8)
    w1 = flat_weather(n=4, demand=3.0, cf=0.8)
    w2 = flat_weather(n=4, demand=6.0, cf=0.1)
    p1 = model.build_dispatch_stage(1, catalog, NO_IMPORTS, w1, total_stages=3)
    p2 = model.build_dispatch_stage(2, catalog, NO_IMPORTS, w2, total_stages=3)
    x0 = state_of(catalog, ini=5.0)
    s1 = lp.solve(model.apply_incoming_state(p1, x0).instance)
    x1 = model.extract_state(p1, s1)
    s2 = lp.solve(model.apply_incoming_state(p2, x1).instance)
    d2 = model.extract_dispatch(p2, s2, catalog)
    store = catalog.storages[0]
    residual = (d2.level["h2store"][0]
                - x1[p1.layout.position("level:h2store")]
                - store.efficiency_in * d2.charge["h2store"][0]
                + d2.discharge["h2store"][0] / store.efficiency_out)
    assert abs(residual) <= 1e-9


def test_terminal_shortfall_penalized_at_voll():
    """An incoming level target of 5 against an energy cap of 4 forces
    one unit of terminal slack, costing 100,000 EUR/MWh on 1 GWh, which
    is 100 MEUR."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=3, demand=0.0, cf=0.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=1)
    assert prob.theta_column is None
    x = state_of(catalog, wind=0.0, energy=4.0, ini=5.0)
    x[prob.layout.position("level:h2store")] = 4.0
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert dispatch.terminal_slack["h2store"] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(100.0, rel=1e-12)


def test_terminal_surplus_earns_nothing():
    """Finishing above the opening-level target leaves the slack at
    zero; there is no reward for surplus."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=3, demand=0.0, cf=0.5)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=1)
    x = state_of(catalog, ini=2.0)
    x[prob.layout.position("level:h2store")] = 10.0
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert dispatch.terminal_slack["h2store"] == 0.0
    assert sol.objective == pytest.approx(0.0, abs=1e-6)


def test_import_scenarios_order_costs():
    """For the same weather and state, each scenario relaxes the
    previous one: no imports >= capped spot >= unlimited spot."""
    catalog = one_ldes_catalog()
    weather = flat_weather(n=4, demand=5.0, cf=0.0)
    x = state_of(catalog, wind=0.0, pout=10.0, energy=20.0, ini=0.0)
    costs = {}
    for scen in (NO_IMPORTS, CONSTRAINED, UNLIMITED):
        prob = model.build_dispatch_stage(1, catalog, scen, weather,
                                          total_stages=2)
        sol = lp.solve(model.apply_incoming_state(prob, x).instance)
        assert sol.status == lp.OPTIMAL
        costs[scen.name] = sol.objective
    assert costs["no_imports"] > costs["constrained"] > costs["unlimited"]
    prob = model.build_dispatch_stage(1, catalog, CONSTRAINED, weather,
                                      total_stages=2)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert np.all(dispatch.spot <= 5.5 * weather.period_hours + 1e-9)


def test_contract_offtake_stays_within_band():
    """Per-period contract deliveries must stay within 10 percent of
    the contracted volume."""
    catalog = one_ldes_catalog(ltc_max=8.0)
    weather = flat_weather(n=4, demand=5.0, cf=0.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    x = state_of(catalog, wind=0.0, pout=10.0, energy=30.0, ini=0.0, ltc=2.0)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    dispatch = model.extract_dispatch(prob, sol, catalog)
    assert np.all(dispatch.ltc_offtake >= 0.9 * 2.0 - 1e-9)
    assert np.all(dispatch.ltc_offtake <= 1.1 * 2.0 + 1e-9)


def test_short_storage_is_circular_within_stage():
    """A short-duration storage must end the stage where it started:
    its first-period balance references the final-period level."""
    battery = model.Storage("battery", 10.0, 10.0, 5.0, efficiency_out=0.9,
                            efficiency_in=0.9, max_power_out=10.0,
                            max_power_in=10.0, max_energy=40.0,
                            long_duration=False)
    wind = model.Generator("wind", capital_cost=50.0, marginal_cost=0.0,
                           max_capacity=50.0)
    catalog = model.TechnologyCatalog((wind,), (battery,))
    weather = model.WeatherVector(
        capacity_factors={"wind": np.array([1.0, 0.0, 1.0, 0.0])},
        demand=np.full(4, 3.0), heat_demand=np.zeros(4),
        heat_pump_cop=np.ones(4), period_hours=1.0)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    x = state_of(catalog, wind=8.0, pout=5.0, pin=5.0, energy=20.0)
    sol = lp.solve(model.apply_incoming_state(prob, x).instance)
    d = model.extract_dispatch(prob, sol, catalog)
    # the battery cycles to cover the zero-wind periods
    assert np.all(d.shed <= 1e-9)
    residual = (d.level["battery"][-1] - d.level["battery"][0]
                + battery.efficiency_in * d.charge["battery"][0]
                - d.discharge["battery"][0] / battery.efficiency_out)
    assert abs(residual) <= 1e-9


def test_energy_balance_and_bounds_hold_everywhere():
    """Across random incoming states and weather draws, every optimal
    dispatch satisfies the balance to 1e-6 and all box bounds."""
    rng = np.random.default_rng(7)
    catalog = one_ldes_catalog(eff_out=0.5, eff_in=0.8)
    for _ in range(8):
        weather = model.WeatherVector(
            capacity_factors={"wind": rng.uniform(0, 1, 5)},
            demand=rng.uniform(0, 8, 5),
            heat_demand=rng.uniform(0, 4, 5),
            heat_pump_cop=rng.uniform(2, 4, 5),
            period_hours=1.0)
        x = state_of(catalog, wind=rng.uniform(0, 12),
                     pout=rng.uniform(0, 8), pin=rng.uniform(0, 8),
                     energy=rng.uniform(0, 60), ini=0.0)
        layout = model.StateLayout(catalog)
        x[layout.position("ini:h2store")] = min(
            rng.uniform(0, 60), x[layout.position("energy:h2store")])
        x[layout.position("level:h2store")] = x[layout.position("ini:h2store")]
        prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                          total_stages=2)
        sol = lp.solve(model.apply_incoming_state(prob, x).instance)
        assert sol.status == lp.OPTIMAL
        d = model.extract_dispatch(prob, sol, catalog)
        supply = (sum(d.generation.values()) + sum(d.discharge.values())
                  + d.shed - sum(d.charge.values()))
        assert supply == pytest.approx(weather.electricity_requirement(),
                                       abs=1e-6)
        for s in catalog.storages:
            assert np.all(d.level[s.name] >= -1e-7)
            assert np.all(d.level[s.name]
                          <= x[layout.position(f"energy:{s.name}")] + 1e-7)
            assert np.all(d.discharge[s.name]
                          <= x[layout.position(f"pout:{s.name}")] + 1e-7)
            assert np.all(d.charge[s.name]
                          <= x[layout.position(f"pin:{s.name}")] + 1e-7)


def test_stage_index_and_state_dimension_errors():
    """Out-of-range stage indices and wrong state dimensions raise the
    dedicated errors."""
    catalog = one_ldes_catalog()
    weather = flat_weather()
    with pytest.raises(UnknownStage):
        model.build_dispatch_stage(0, catalog, NO_IMPORTS, weather,
                                   total_stages=2)
    with pytest.raises(UnknownStage):
        model.build_dispatch_stage(3, catalog, NO_IMPORTS, weather,
                                   total_stages=2)
    prob = model.build_dispatch_stage(1, catalog, NO_IMPORTS, weather,
                                      total_stages=2)
    with pytest.raises(DimensionMismatch):
        model.apply_incoming_state(prob, np.zeros(3))


def test_capacity_state_columns_and_to_state_follow_the_layout():
    """With two long-duration storages, a battery and a contract, each
    state slot of the capacity stage points at the variable named for
    its layout entry, and ``to_state`` fills it from the matching field
    of the decision."""
    wind = model.Generator("wind", capital_cost=50.0, marginal_cost=0.0,
                           max_capacity=50.0)

    def store(name, long_duration):
        return model.Storage(name, capital_cost_out=30.0,
                             capital_cost_in=20.0, capital_cost_energy=0.5,
                             efficiency_out=0.5, efficiency_in=0.7,
                             max_power_out=20.0, max_power_in=20.0,
                             max_energy=400.0, long_duration=long_duration)

    catalog = model.TechnologyCatalog(
        (wind,), (store("cavern", True), store("battery", False),
                  store("tank", True)), ltc_price=80.0, ltc_max=3.0)
    problem = model.build_capacity_stage(catalog)
    layout = problem.layout
    variable = {"gen": "G:{}", "pout": "F:{}", "pin": "H:{}",
                "energy": "E:{}", "ini": "ini:{}", "level": "ini:{}",
                "ltc": "ltc"}
    labels = problem.instance.var_labels
    kinds = [kind for kind, _ in layout.entries]
    assert sorted(set(kinds)) == sorted(variable)
    assert kinds.count("level") == 2
    for (kind, name), col in zip(layout.entries, problem.state_columns):
        assert labels[col] == variable[kind].format(name)

    decision = model.CapacityDecision(
        generation={"wind": 1.0},
        storage_power_out={"cavern": 2.0, "battery": 3.0, "tank": 4.0},
        storage_power_in={"cavern": 5.0, "battery": 6.0, "tank": 7.0},
        storage_energy={"cavern": 8.0, "battery": 9.0, "tank": 10.0},
        initial_level={"cavern": 11.0, "tank": 12.0},
        ltc_volume=13.0)
    field = {"gen": decision.generation,
             "pout": decision.storage_power_out,
             "pin": decision.storage_power_in,
             "energy": decision.storage_energy,
             "ini": decision.initial_level,
             "level": decision.initial_level}
    x = decision.to_state(layout)
    assert x.shape == (layout.size,)
    for p, (kind, name) in enumerate(layout.entries):
        expected = decision.ltc_volume if kind == "ltc" else field[kind][name]
        assert x[p] == expected


def _weather_checks_one_series_at_a_time(factors, demand, heat, cop, hours):
    """The checks of WeatherVector one series at a time, as they were
    written before they shared array passes: the reference its messages
    and their order are held to."""
    def series(values):
        arr = np.ascontiguousarray(values, dtype=float)
        if arr.ndim != 1:
            raise LengthMismatch("weather series must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise OutOfRange("weather series must be finite")
        return arr

    cf = {k: series(v) for k, v in factors.items()}
    demand, heat, cop = series(demand), series(heat), series(cop)
    n = len(demand)
    for name, arr in list(cf.items()) + [("heat_demand", heat),
                                         ("heat_pump_cop", cop)]:
        if len(arr) != n:
            raise LengthMismatch(
                f"series {name!r} has length {len(arr)}, expected {n}")
    for name, arr in cf.items():
        if np.any(arr < 0) or np.any(arr > 1):
            raise OutOfRange(f"capacity factors for {name!r} not in [0, 1]")
    if np.any(demand < 0) or np.any(heat < 0):
        raise OutOfRange("demand series must be >= 0")
    if np.any(cop <= 0):
        raise OutOfRange("heat pump efficiency must be > 0")
    if not hours > 0:
        raise OutOfRange("period length must be > 0")


def test_weather_vector_checks_match_one_series_at_a_time():
    """On valid series and on series broken in one or two ways at once,
    WeatherVector raises what the one-series-at-a-time checks raise, or
    stores the series unchanged and read-only."""
    good = {"wind": [0.2, 0.9, 1.0], "solar": [0.0, 0.5, 0.1]}
    breaks = {
        "nan": lambda a: a[:1] + [np.nan] + a[2:],
        "inf": lambda a: a[:2] + [np.inf],
        "short": lambda a: a[:2],
        "square": lambda a: [a, a],
        "scalar": lambda a: 0.5,
        "negative": lambda a: a[:1] + [-0.1] + a[2:],
        "above_one": lambda a: a[:2] + [1.5],
        "zero": lambda a: a[:1] + [0.0] + a[2:],
    }
    fields = ["wind", "solar", "demand", "heat", "cop"]
    base = {**good, "demand": [4.0, 5.0, 6.0], "heat": [1.0, 0.0, 2.0],
            "cop": [3.0, 2.5, 3.5]}
    cases = [dict(base)]
    for (f1, b1), (f2, b2) in itertools.product(
            itertools.product(fields, breaks), repeat=2):
        case = dict(base)
        case[f1] = breaks[b1](case[f1])
        if f2 != f1:
            case[f2] = breaks[b2](case[f2])
        cases.append(case)
    cases.append({**base, "hours": 0.0})
    cases.append({**base, "wind": [], "solar": [], "demand": [],
                  "heat": [], "cop": []})
    for case in cases:
        args = ({"wind": case["wind"], "solar": case["solar"]},
                case["demand"], case["heat"], case["cop"],
                case.get("hours", 1.0))
        try:
            _weather_checks_one_series_at_a_time(*args)
            expected = None
        except (LengthMismatch, OutOfRange) as exc:
            expected = (type(exc), str(exc))
        try:
            vec = model.WeatherVector(*args)
            got = None
        except (LengthMismatch, OutOfRange) as exc:
            got = (type(exc), str(exc))
        assert got == expected, case
        if got is None:
            for mine, given in ((vec.capacity_factors["wind"], case["wind"]),
                                (vec.demand, case["demand"]),
                                (vec.heat_pump_cop, case["cop"])):
                assert mine.tolist() == np.ravel(given).tolist()
                assert not mine.flags.writeable
