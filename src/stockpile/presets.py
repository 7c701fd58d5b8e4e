"""Published scenario shapes and technology cost defaults.

Three market presets cover the backstop supply environments studied
with this toolkit: a closed system where lost load at 100,000 EUR/MWh
is the only outside option, and two hydrogen-import variants buying at
250 EUR/MWh with and without a 5.5 GWh/h purchase cap.

Technology figures are overnight investment costs (EUR/kW, or EUR/kWh
for energy capacity) plus fixed O&M, converted to the annualized
EUR/kW-yr values the catalog expects through a standard annuity at a
configurable interest rate (default 4%). Variable costs of storage
conversion steps are not modeled; generator fuel costs quoted per MWh
of fuel are converted to per-MWh-electric by the conversion efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Generator, MarketScenario, Storage

DEFAULT_INTEREST_RATE = 0.04
VOLL_EUR_PER_MWH = 100_000.0
SPOT_PRICE_EUR_PER_MWH = 250.0
SPOT_CAP_GWH_PER_HOUR = 5.5

SCENARIO_NAMES = ("no_imports", "constrained_imports", "unlimited_imports")


def scenario(name: str, voll: float = VOLL_EUR_PER_MWH) -> MarketScenario:
    """Build one of the preset market scenarios.

    Args:
        name: One of ``no_imports``, ``constrained_imports``,
            ``unlimited_imports``.
        voll: Lost-load price in EUR per MWh of electricity. The
            import presets keep lost load as a last resort above the
            spot option.

    Returns:
        The corresponding :class:`~stockpile.model.MarketScenario`.

    Raises:
        ValueError: Unknown preset name.
    """
    if name == "no_imports":
        return MarketScenario(name=name, voll=voll)
    if name == "constrained_imports":
        return MarketScenario(name=name, voll=voll,
                              spot_price=SPOT_PRICE_EUR_PER_MWH,
                              spot_cap=SPOT_CAP_GWH_PER_HOUR)
    if name == "unlimited_imports":
        return MarketScenario(name=name, voll=voll,
                              spot_price=SPOT_PRICE_EUR_PER_MWH,
                              spot_cap=None)
    raise ValueError(
        f"unknown scenario preset {name!r}; expected one of {SCENARIO_NAMES}")


@dataclass(frozen=True)
class TechnologyCost:
    """Raw cost figures for one technology.

    Args:
        overnight_cost: Investment cost in EUR per kW (EUR per kWh for
            energy capacity).
        fixed_om: Fixed operating cost in EUR per kW-yr.
        variable_cost: Variable plus fuel cost in EUR per MWh. Quoted
            per MWh of fuel when an efficiency is given.
        efficiency: Conversion efficiency in (0, 1], or None where not
            applicable.
        lifetime_years: Amortization horizon in years.
    """

    overnight_cost: float
    fixed_om: float = 0.0
    variable_cost: float = 0.0
    efficiency: float | None = None
    lifetime_years: float = 30.0


TECHNOLOGY_COSTS = {
    "biomass": TechnologyCost(2516.96, 129.01, 13.6, 0.49, 30.0),
    "solar": TechnologyCost(457.84, 8.76, 0.0, None, 40.0),
    "onshore_wind": TechnologyCost(1224.98, 17.53, 2.1, None, 30.0),
    "offshore_wind": TechnologyCost(1842.61, 37.08, 3.4, None, 30.0),
    "battery_inverter": TechnologyCost(71.7, 0.65, 2.0, 0.96, 30.0),
    "battery_storage": TechnologyCost(112.31, 0.0, 0.0, 1.0, 30.0),
    "electrolysis": TechnologyCost(404.22, 8.05, 0.0, 0.66, 25.0),
    "hydrogen_turbine": TechnologyCost(501.38, 7.89, 5.0, 0.43, 25.0),
    "hydrogen_cavern": TechnologyCost(1.43, 0.0, 0.0, 1.0, 100.0),
    "cavern_compressor": TechnologyCost(95.66, 3.83, 0.0, 1.0, 15.0),
    "hydrogen_tank": TechnologyCost(17.15, 0.48, 0.0, 1.0, 30.0),
    "tank_compressor": TechnologyCost(9.55, 0.48, 0.0, 1.0, 25.0),
}

_DISPATCHABLE = {"biomass"}

_GENERATOR_KEYS = ("biomass", "solar", "onshore_wind", "offshore_wind")


def _cost(key: str) -> TechnologyCost:
    try:
        return TECHNOLOGY_COSTS[key]
    except KeyError:
        raise ValueError(
            f"unknown technology {key!r}; expected one of "
            f"{sorted(TECHNOLOGY_COSTS)}") from None


def annuity_factor(lifetime_years: float,
                   rate: float = DEFAULT_INTEREST_RATE) -> float:
    """Constant annual payment per unit of up-front cost.

    Args:
        lifetime_years: Amortization horizon, > 0.
        rate: Interest rate per year, >= 0.

    Returns:
        The factor a such that paying a every year for the lifetime
        repays one unit of principal at the given rate.
    """
    if lifetime_years <= 0:
        raise ValueError("lifetime must be > 0")
    if rate < 0:
        raise ValueError("interest rate must be >= 0")
    if rate == 0.0:
        return 1.0 / lifetime_years
    return rate / (1.0 - (1.0 + rate) ** -lifetime_years)


def annualized_cost(key: str, rate: float = DEFAULT_INTEREST_RATE) -> float:
    """Annuity plus fixed O&M for a named technology, EUR/kW-yr."""
    tc = _cost(key)
    return tc.overnight_cost * annuity_factor(tc.lifetime_years, rate) + tc.fixed_om


def generator(key: str, name: str | None = None, *, max_capacity: float,
              min_capacity: float = 0.0,
              rate: float = DEFAULT_INTEREST_RATE) -> Generator:
    """Build a generator from a cost preset.

    Weather-driven presets (solar, wind) leave availability to the
    weather vector under the generator's name; ``biomass`` is treated
    as fully dispatchable with its fuel cost converted to EUR per MWh
    of electricity.

    Args:
        key: Generation technology key into the technology table.
        name: Catalog name; defaults to the key.
        max_capacity: Upper capacity bound in GW.
        min_capacity: Lower capacity bound in GW.
        rate: Interest rate for the annuity.
    """
    if key not in _GENERATOR_KEYS:
        raise ValueError(f"unknown generator technology {key!r}; expected "
                         f"one of {sorted(_GENERATOR_KEYS)}")
    tc = TECHNOLOGY_COSTS[key]
    marginal = tc.variable_cost
    if tc.efficiency is not None:
        marginal = tc.variable_cost / tc.efficiency
    return Generator(
        name=name or key,
        capital_cost=annualized_cost(key, rate),
        marginal_cost=marginal,
        max_capacity=max_capacity,
        min_capacity=min_capacity,
        availability=1.0 if key in _DISPATCHABLE else None,
    )


def battery(name: str = "battery", *, max_power_out: float,
            max_power_in: float, max_energy: float,
            rate: float = DEFAULT_INTEREST_RATE) -> Storage:
    """Short-duration battery built from the inverter and cell presets.

    The inverter cost is carried on discharge power; charging pays the
    inverter round-trip efficiency. The level is circular within each
    stage (not inter-stage state).
    """
    inverter = TECHNOLOGY_COSTS["battery_inverter"]
    return Storage(
        name=name,
        capital_cost_out=annualized_cost("battery_inverter", rate),
        capital_cost_in=0.0,
        capital_cost_energy=annualized_cost("battery_storage", rate),
        efficiency_out=1.0,
        efficiency_in=inverter.efficiency,
        max_power_out=max_power_out,
        max_power_in=max_power_in,
        max_energy=max_energy,
        long_duration=False,
    )


def _hydrogen_storage(name: str, energy_key: str, compressor_key: str,
                      max_power_out: float, max_power_in: float,
                      max_energy: float, rate: float) -> Storage:
    pem = TECHNOLOGY_COSTS["electrolysis"]
    turbine = TECHNOLOGY_COSTS["hydrogen_turbine"]
    # Charging power is metered in electric GW; the compressor is
    # quoted per kW of hydrogen flow, hence the efficiency scaling.
    cost_in = (annualized_cost("electrolysis", rate)
               + pem.efficiency * annualized_cost(compressor_key, rate))
    return Storage(
        name=name,
        capital_cost_out=annualized_cost("hydrogen_turbine", rate),
        capital_cost_in=cost_in,
        capital_cost_energy=annualized_cost(energy_key, rate),
        efficiency_out=turbine.efficiency,
        efficiency_in=pem.efficiency,
        max_power_out=max_power_out,
        max_power_in=max_power_in,
        max_energy=max_energy,
        long_duration=True,
    )


def hydrogen_cavern(name: str = "cavern", *, max_power_out: float,
                    max_power_in: float, max_energy: float,
                    rate: float = DEFAULT_INTEREST_RATE) -> Storage:
    """Cavern-backed hydrogen chain as one storage technology.

    Electrolysis plus cavern compression on the charge side, a hydrogen
    turbine on the discharge side, cavern volume as energy capacity.
    The level carries across stages.
    """
    return _hydrogen_storage(name, "hydrogen_cavern", "cavern_compressor",
                             max_power_out, max_power_in, max_energy, rate)


def hydrogen_tank(name: str = "tank", *, max_power_out: float,
                  max_power_in: float, max_energy: float,
                  rate: float = DEFAULT_INTEREST_RATE) -> Storage:
    """Tank-backed hydrogen chain; same shape as the cavern variant
    with tank vessel and compressor costs."""
    return _hydrogen_storage(name, "hydrogen_tank", "tank_compressor",
                             max_power_out, max_power_in, max_energy, rate)
