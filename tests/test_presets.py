"""Tests for scenario and technology cost presets."""

import pytest

from stockpile import presets


def test_no_imports_preset_has_lost_load_only():
    """The closed-system preset prices lost load at 100,000 EUR/MWh and
    offers no spot purchases."""
    s = presets.scenario("no_imports")
    assert s.voll == 100_000.0
    assert s.spot_price is None
    assert s.spot_cap is None


def test_constrained_imports_preset_prices_and_caps_spot():
    """The capped import preset buys at 250 EUR/MWh up to 5.5 GWh/h."""
    s = presets.scenario("constrained_imports")
    assert s.voll == 100_000.0
    assert s.spot_price == 250.0
    assert s.spot_cap == 5.5


def test_unlimited_imports_preset_has_no_cap():
    """The uncapped import preset keeps the 250 EUR/MWh price with no
    quantity bound."""
    s = presets.scenario("unlimited_imports")
    assert s.spot_price == 250.0
    assert s.spot_cap is None


def test_unknown_scenario_name_rejected():
    """A name outside the preset list raises ValueError naming the
    valid options."""
    with pytest.raises(ValueError, match="no_imports"):
        presets.scenario("imports_galore")


def test_annuity_repays_principal():
    """Discounting the constant annuity payment over the lifetime must
    recover exactly one unit of principal."""
    for lifetime, rate in ((30.0, 0.04), (15.0, 0.07), (100.0, 0.04)):
        a = presets.annuity_factor(lifetime, rate)
        present_value = sum(a / (1.0 + rate) ** y
                            for y in range(1, int(lifetime) + 1))
        assert present_value == pytest.approx(1.0, abs=1e-12)


def test_zero_rate_annuity_is_straight_line():
    assert presets.annuity_factor(25.0, 0.0) == pytest.approx(0.04)


def test_annuity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        presets.annuity_factor(0.0)
    with pytest.raises(ValueError):
        presets.annuity_factor(10.0, -0.01)


def test_annualized_cost_adds_fixed_om():
    """Annualized wind cost is the overnight annuity plus fixed O&M."""
    tc = presets.TECHNOLOGY_COSTS["onshore_wind"]
    a = presets.annuity_factor(tc.lifetime_years, 0.04)
    expected = tc.overnight_cost * a + tc.fixed_om
    assert presets.annualized_cost("onshore_wind", 0.04) == pytest.approx(expected)
    with pytest.raises(ValueError, match="unknown technology"):
        presets.annualized_cost("fusion")


def test_generator_preset_fields():
    """Wind keeps its per-MWh-electric variable cost and weather-driven
    availability; biomass converts fuel cost by efficiency and is
    dispatchable."""
    wind = presets.generator("onshore_wind", max_capacity=20.0)
    assert wind.name == "onshore_wind"
    assert wind.marginal_cost == pytest.approx(2.1)
    assert wind.availability is None
    assert wind.max_capacity == 20.0

    bio = presets.generator("biomass", "wood", max_capacity=5.0)
    assert bio.name == "wood"
    assert bio.marginal_cost == pytest.approx(13.6 / 0.49)
    assert bio.availability == 1.0


@pytest.mark.parametrize("key", ["battery_inverter", "battery_storage",
                                 "electrolysis", "hydrogen_turbine",
                                 "hydrogen_cavern", "cavern_compressor",
                                 "hydrogen_tank", "tank_compressor", "fusion"])
def test_generator_preset_rejects_storage_components(key):
    """Only the four generation technologies are generator presets; the
    components of the storage presets are not, and the message lists
    exactly the four."""
    with pytest.raises(ValueError) as err:
        presets.generator(key, max_capacity=1.0)
    assert str(err.value) == (
        f"unknown generator technology {key!r}; expected one of "
        "['biomass', 'offshore_wind', 'onshore_wind', 'solar']")


def test_battery_preset_is_short_duration():
    b = presets.battery(max_power_out=2.0, max_power_in=2.0, max_energy=8.0)
    assert not b.long_duration
    assert b.efficiency_in == pytest.approx(0.96)
    assert b.efficiency_out == 1.0
    assert b.capital_cost_energy == pytest.approx(
        presets.annualized_cost("battery_storage"))
    assert b.capital_cost_in == 0.0


def test_hydrogen_cavern_preset_combines_chain_costs():
    """The cavern storage carries electrolysis plus efficiency-scaled
    compression on charging, turbine on discharge, and is inter-stage
    state."""
    s = presets.hydrogen_cavern(max_power_out=10.0, max_power_in=10.0,
                                max_energy=1000.0)
    assert s.long_duration
    assert s.efficiency_out == pytest.approx(0.43)
    assert s.efficiency_in == pytest.approx(0.66)
    expected_in = (presets.annualized_cost("electrolysis")
                   + 0.66 * presets.annualized_cost("cavern_compressor"))
    assert s.capital_cost_in == pytest.approx(expected_in)
    assert s.capital_cost_out == pytest.approx(
        presets.annualized_cost("hydrogen_turbine"))
    assert s.capital_cost_energy == pytest.approx(
        1.43 * presets.annuity_factor(100.0))


def test_hydrogen_tank_costs_more_per_energy_than_cavern():
    tank = presets.hydrogen_tank(max_power_out=1.0, max_power_in=1.0,
                                 max_energy=10.0)
    cavern = presets.hydrogen_cavern(max_power_out=1.0, max_power_in=1.0,
                                     max_energy=10.0)
    assert tank.capital_cost_energy > cavern.capital_cost_energy
