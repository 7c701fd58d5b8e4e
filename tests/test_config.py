"""Tests for YAML run-configuration validation and the provenance echo."""

import builtins
import dataclasses
import hashlib
import textwrap
from datetime import datetime, timedelta

import numpy as np
import pytest
import yaml

from stockpile import config
from stockpile.errors import ConfigError, DataError
from stockpile.model import Generator, Storage
from stockpile.sddp import TrainOptions

MINIMAL = """\
schema_version: 1
scenario: no_imports
catalog:
  generators:
    - name: wind
      capital_cost: 2.0
      max_capacity: 18.0
  storages:
    - name: cavern
      capital_cost_out: 1.5
      capital_cost_in: 1.0
      capital_cost_energy: 0.02
      efficiency_out: 0.4
      efficiency_in: 0.7
      max_power_out: 12.0
      max_power_in: 12.0
      max_energy: 80.0
      long_duration: true
lattice:
  period_hours: 1.0
  stages:
    - realizations:
        - demand: [5.0, 5.0]
          capacity_factors: {wind: [0.9, 0.8]}
    - realizations:
        - demand: [5.0, 5.0]
          capacity_factors: {wind: [0.2, 0.1]}
        - demand: [4.0, 4.0]
          capacity_factors: {wind: [0.7, 0.9]}
training:
  seed: 7
  max_iterations: 20
simulation:
  seed: 11
  n_paths: 50
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_round_trip(tmp_path):
    """A minimal valid config resolves the preset scenario, builds the
    catalog and lattice, and carries training and simulation options."""
    cfg = config.validate_config(write(tmp_path, MINIMAL))
    assert cfg.scenario.name == "no_imports"
    assert cfg.scenario.voll == 100_000.0
    assert cfg.scenario.spot_price is None
    assert [g.name for g in cfg.catalog.generators] == ["wind"]
    assert cfg.catalog.storage("cavern").long_duration
    assert cfg.lattice.n_stages == 2
    assert cfg.lattice.branch_count(2) == 2
    assert cfg.training.seed == 7
    assert cfg.training.max_iterations == 20
    assert cfg.simulation == config.SimulationOptions(seed=11, n_paths=50)
    assert len(cfg.source_hash) == 64


def test_constrained_imports_preset_resolves(tmp_path):
    """Naming the capped import preset fills the 250 EUR/MWh price and
    the 5.5 GWh/h cap."""
    text = MINIMAL.replace("scenario: no_imports",
                           "scenario: constrained_imports")
    cfg = config.validate_config(write(tmp_path, text))
    assert cfg.scenario.spot_price == 250.0
    assert cfg.scenario.spot_cap == 5.5


def test_negative_efficiency_names_the_field(tmp_path):
    """A storage efficiency outside (0, 1] is reported with the path of
    the offending entry."""
    text = MINIMAL.replace("efficiency_out: 0.4", "efficiency_out: -0.4")
    with pytest.raises(ConfigError, match=r"catalog\.storages\[0\]"):
        config.validate_config(write(tmp_path, text))


def test_all_violations_reported_not_just_first(tmp_path):
    """Several independent problems are all listed in one error."""
    text = MINIMAL.replace("schema_version: 1", "schema_version: 99")
    text = text.replace("capital_cost: 2.0", "capital_cost: -2.0")
    text = text.replace("seed: 7\n", "")
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, text))
    joined = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 3
    assert "schema_version" in joined
    assert "catalog.generators[0]" in joined
    assert "training.seed" in joined


def test_unknown_field_rejected(tmp_path):
    text = MINIMAL.replace("capital_cost: 2.0",
                           "capital_cost: 2.0\n      capitol: 1.0")
    with pytest.raises(ConfigError, match="unknown field"):
        config.validate_config(write(tmp_path, text))


def test_missing_capacity_factors_for_weather_generator(tmp_path):
    text = MINIMAL.replace("capacity_factors: {wind: [0.2, 0.1]}",
                           "capacity_factors: {}")
    with pytest.raises(ConfigError, match="wind"):
        config.validate_config(write(tmp_path, text))


def test_storage_component_is_no_generator_preset(tmp_path):
    """A storage component named as a generator preset is a violation
    at the entry's preset key."""
    text = MINIMAL.replace("capital_cost: 2.0",
                           "preset: battery_inverter", 1)
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, text))
    assert err.value.violations == [
        "catalog.generators[0].preset: unknown generator technology "
        "'battery_inverter'; expected one of "
        "['biomass', 'offshore_wind', 'onshore_wind', 'solar']"]


def test_missing_file_and_bad_yaml_are_data_errors(tmp_path):
    with pytest.raises(DataError):
        config.validate_config(str(tmp_path / "absent.yaml"))
    with pytest.raises(DataError):
        config.validate_config(write(tmp_path, "a: [unclosed"))


def test_preset_fields_merge_with_overrides(tmp_path):
    """A technology preset fills cost fields; explicit values win."""
    text = textwrap.dedent("""\
    schema_version: 1
    scenario: no_imports
    catalog:
      generators:
        - name: wind
          preset: onshore_wind
          capital_cost: 3.5
          max_capacity: 10.0
      storages:
        - name: store
          preset: hydrogen_cavern
          max_power_out: 2.0
          max_power_in: 2.0
          max_energy: 100.0
    lattice:
      period_hours: 2.0
      stages:
        - realizations:
            - demand: [1.0]
              capacity_factors: {wind: [0.5]}
    """)
    cfg = config.validate_config(write(tmp_path, text))
    wind = cfg.catalog.generators[0]
    assert wind.capital_cost == 3.5
    assert wind.marginal_cost == pytest.approx(2.1)
    store = cfg.catalog.storage("store")
    assert store.efficiency_out == pytest.approx(0.43)
    assert store.long_duration
    assert store.max_energy == 100.0


def test_echo_is_deterministic_and_carries_hashes(tmp_path):
    """Two validations of the same file give byte-identical echoes; the
    echo parses as YAML and records the source hash."""
    path = write(tmp_path, MINIMAL)
    cfg1 = config.validate_config(path)
    cfg2 = config.validate_config(path)
    assert config.echo_text(cfg1) == config.echo_text(cfg2)
    doc = yaml.safe_load(config.echo_text(cfg1))
    assert doc["source"]["config_sha256"] == cfg1.source_hash
    assert doc["scenario"]["voll"] == 100_000.0
    assert doc["lattice"]["stages"][1]["realizations"][0]["demand"] == [5.0, 5.0]
    merged = config.echo_text(cfg1, extra_hashes={"policy_sha256": "abc"})
    assert yaml.safe_load(merged)["source"]["policy_sha256"] == "abc"


def test_series_lattice_from_file(tmp_path, monkeypatch):
    """A one-year hourly series with a block size builds a 12-stage
    monthly lattice, and the echo names the series by its keys and
    content hash, with none of its values. The series file is opened
    once, so the hash pins the bytes the lattice was built from."""
    start = datetime(1990, 7, 1)
    rows = ["timestamp,demand,cf_wind"]
    rng = np.random.default_rng(0)
    for h in range(8760):
        ts = start + timedelta(hours=h)
        rows.append(f"{ts.isoformat()},{5 + (h % 24) / 24:.3f},"
                    f"{rng.uniform(0, 1):.4f}")
    series = tmp_path / "series.csv"
    series.write_text("\n".join(rows) + "\n")
    text = textwrap.dedent(f"""\
    schema_version: 1
    scenario: no_imports
    catalog:
      generators:
        - name: wind
          capital_cost: 2.0
          max_capacity: 18.0
    lattice:
      series: {series}
      block: 24
    """)
    raw_open = builtins.open
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return raw_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    cfg = config.validate_config(write(tmp_path, text))
    monkeypatch.undo()
    assert opened.count(str(series)) == 1
    assert cfg.lattice.n_stages == 12
    assert cfg.lattice.branch_count(1) == 1
    assert cfg.lattice.periods(1) == 31
    echo = yaml.safe_load(config.echo_text(cfg))
    assert echo["lattice"] == {"series": str(series), "block": 24,
                               "first_month": 7}
    assert echo["source"]["series_sha256"] == hashlib.sha256(
        series.read_bytes()).hexdigest()


def test_missing_series_file_is_a_config_error(tmp_path):
    text = MINIMAL.split("lattice:")[0] + (
        f"lattice:\n  series: {tmp_path / 'gone.csv'}\n  block: 24\n")
    with pytest.raises(ConfigError, match="lattice.series: .*gone.csv"):
        config.validate_config(write(tmp_path, text))


def test_lattice_requires_exactly_one_source(tmp_path):
    text = MINIMAL.replace("lattice:\n  period_hours: 1.0",
                           "lattice:\n  series: x.csv\n  period_hours: 1.0")
    with pytest.raises(ConfigError, match="exactly one"):
        config.validate_config(write(tmp_path, text))


@pytest.mark.parametrize("hours", ["0", "0.0", "-1.0"])
def test_period_hours_must_be_positive(tmp_path, hours):
    """A zero or negative period length is one violation at its key,
    not a 4-hour default or a violation per realization; the
    realizations are still checked after it."""
    text = MINIMAL.replace("period_hours: 1.0", f"period_hours: {hours}")
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, text))
    assert err.value.violations == ["lattice.period_hours: must be > 0"]
    text = text.replace("demand: [4.0, 4.0]", "demand: [-4.0, 4.0]")
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, text))
    assert err.value.violations == [
        "lattice.period_hours: must be > 0",
        "lattice.stages[1].realizations[1]: demand series must be >= 0"]


FULL = """\
schema_version: 1
scenario:
  name: capped
  voll: 9000.0
  spot_price: 120.0
  spot_cap: 2.5
annualization_rate: 0.05
catalog:
  ltc_price: 80.0
  ltc_max: 1.5
  generators:
    - name: solar
      preset: solar
      max_capacity: 40.0
    - name: gas
      capital_cost: 30.0
      marginal_cost: 60.0
      max_capacity: 5.0
      min_capacity: 1.0
      availability: 0.9
  storages:
    - name: battery
      preset: battery
      max_power_out: 3.0
      max_power_in: 3.0
      max_energy: 12.0
    - name: cavern
      preset: hydrogen_cavern
      efficiency_out: 0.45
      max_power_out: 10.0
      max_power_in: 8.0
      max_energy: .inf
lattice:
  period_hours: 2.0
  stages:
    - realizations:
        - year_label: "1990/91"
          demand: [5.0, 6.0]
          capacity_factors: {solar: [0.0, 0.5]}
          heat_demand: [1.0, 2.0]
          cop: [3.0, 2.5]
        - demand: [4.0, 4.5]
          capacity_factors: {solar: [0.25, 0.75]}
    - realizations:
        - demand: [5.5, 5.0]
          capacity_factors: {solar: [0.125, 0.0]}
training:
  seed: 4
  max_iterations: 9
  time_limit: 30.5
  threads: 2
  stop_on_gap: true
  gap_paths: 7
  gap_check_every: 3
simulation:
  seed: 11
  n_paths: 30
analysis:
  grid_step: 5.0
  max_lag: 6
  stage_length: week
  series: weather.csv
"""

# Echo of FULL: both preset kinds, a mapping scenario, contract terms,
# every optional realization field, every training field, simulation
# and analysis.
FULL_ECHO = """\
analysis:
  grid_step: 5.0
  max_lag: 6
  series: weather.csv
  stage_length: week
annualization_rate: 0.05
catalog:
  generators:
  - availability: null
    capital_cost: 35.442073308257456
    marginal_cost: 0.0
    max_capacity: 40.0
    min_capacity: 0.0
    name: solar
  - availability: 0.9
    capital_cost: 30.0
    marginal_cost: 60.0
    max_capacity: 5.0
    min_capacity: 1.0
    name: gas
  ltc_max: 1.5
  ltc_price: 80.0
  storages:
  - capital_cost_energy: 7.305926673865861
    capital_cost_in: 0.0
    capital_cost_out: 5.314187895255831
    efficiency_in: 0.96
    efficiency_out: 1.0
    long_duration: false
    max_energy: 12.0
    max_power_in: 3.0
    max_power_out: 3.0
    name: battery
  - capital_cost_energy: 0.07204788743940084
    capital_cost_in: 45.340830423076795
    capital_cost_out: 43.46414304068774
    efficiency_in: 0.66
    efficiency_out: 0.45
    long_duration: true
    max_energy: .inf
    max_power_in: 8.0
    max_power_out: 10.0
    name: cavern
lattice:
  period_hours: 2.0
  stages:
  - realizations:
    - capacity_factors:
        solar:
        - 0.0
        - 0.5
      cop:
      - 3.0
      - 2.5
      demand:
      - 5.0
      - 6.0
      heat_demand:
      - 1.0
      - 2.0
      year_label: 1990/91
    - capacity_factors:
        solar:
        - 0.25
        - 0.75
      cop:
      - 1.0
      - 1.0
      demand:
      - 4.0
      - 4.5
      heat_demand:
      - 0.0
      - 0.0
      year_label: sample-1
  - realizations:
    - capacity_factors:
        solar:
        - 0.125
        - 0.0
      cop:
      - 1.0
      - 1.0
      demand:
      - 5.5
      - 5.0
      heat_demand:
      - 0.0
      - 0.0
      year_label: sample-0
scenario:
  name: capped
  spot_cap: 2.5
  spot_price: 120.0
  voll: 9000.0
schema_version: 1
simulation:
  n_paths: 30
  seed: 11
source:
  config_sha256: a58f5a3544d0cddeb6d8ffad04886c0976b8fd999fa36d5c72b4f6116b6c2107
training:
  gap_check_every: 3
  gap_paths: 7
  max_iterations: 9
  seed: 4
  stop_on_gap: true
  threads: 2
  time_limit: 30.5
"""


def test_echo_of_every_section_is_exact(tmp_path):
    """The echo of a config that uses every section is pinned byte for
    byte, preset-filled costs and defaults included."""
    cfg = config.validate_config(write(tmp_path, FULL))
    assert config.echo_text(cfg) == FULL_ECHO


# A non-default value for every config key that names a dataclass field.
FIELD_VALUES = {
    Generator: {"capital_cost": 31.0, "marginal_cost": 41.0,
                "max_capacity": 51.0, "min_capacity": 1.5,
                "availability": 0.75},
    Storage: {"capital_cost_out": 1.25, "capital_cost_in": 2.25,
              "capital_cost_energy": 0.125, "efficiency_out": 0.5,
              "efficiency_in": 0.625, "max_power_out": 6.0,
              "max_power_in": 7.0, "max_energy": 90.0,
              "long_duration": True},
    TrainOptions: {"max_iterations": 9, "time_limit": 30.5, "seed": 4,
                   "threads": 2, "stop_on_gap": True, "gap_paths": 7,
                   "gap_check_every": 3},
}


def test_every_dataclass_field_is_a_config_key_and_echoed(tmp_path):
    """Each field of Generator, Storage and TrainOptions (less the name
    and the log path) is read from its config key and echoed back."""
    for cls, values in FIELD_VALUES.items():
        assert set(values) == {f.name for f in dataclasses.fields(cls)} \
            - {"name", "log_path"}
    doc = yaml.safe_load(MINIMAL)
    doc["catalog"]["generators"] = [
        {"name": "gas", **FIELD_VALUES[Generator]}]
    doc["catalog"]["storages"] = [
        {"name": "cavern", **FIELD_VALUES[Storage]}]
    doc["training"] = FIELD_VALUES[TrainOptions]
    cfg = config.validate_config(write(tmp_path, yaml.safe_dump(doc)))
    echo = yaml.safe_load(config.echo_text(cfg))
    built = {Generator: cfg.catalog.generators[0],
             Storage: cfg.catalog.storages[0], TrainOptions: cfg.training}
    echoed = {Generator: echo["catalog"]["generators"][0],
              Storage: echo["catalog"]["storages"][0],
              TrainOptions: echo["training"]}
    for cls, values in FIELD_VALUES.items():
        for key, value in values.items():
            assert getattr(built[cls], key) == value, key
            assert echoed[cls][key] == value, key


def test_missing_technology_fields_are_all_listed(tmp_path):
    """A generator without cost or bound lists both; a capacity bound,
    which no preset fills, reads plain "required"."""
    text = MINIMAL.replace(
        "      capital_cost: 2.0\n      max_capacity: 18.0\n", "")
    text = text.replace("      max_energy: 80.0\n", "")
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, text))
    assert err.value.violations == [
        "catalog.generators[0].capital_cost: "
        "required (directly or via preset)",
        "catalog.generators[0].max_capacity: required",
        "catalog.storages[0].max_energy: required",
    ]


def test_each_violation_reads_once_at_its_path(tmp_path):
    """The reader's messages: a missing key is "required", a non-string
    in a string key has one type message, a bound prints as declared,
    a range the model checks is reported at the section path, and a
    null simulation seed is a missing seed; no key is listed twice."""
    doc = yaml.safe_load(MINIMAL)
    doc["scenario"] = {"name": 5, "spot_price": -1.0}
    doc["annualization_rate"] = -1
    doc["catalog"]["ltc_max"] = -2.0
    doc["training"]["threads"] = 0
    doc["simulation"]["seed"] = None
    doc["analysis"] = {"series": 5, "stage_length": "day"}
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, yaml.safe_dump(doc)))
    assert err.value.violations == [
        "annualization_rate: must be >= 0, got -1.0",
        "scenario.name: expected a non-empty string, got 5",
        "scenario.voll: required",
        "catalog: contract volume bound must be >= 0",
        "training.threads: must be >= 1, got 0",
        "simulation.seed: required (seeds are mandatory)",
        "analysis.series: expected a non-empty string, got 5",
    ]
    doc["scenario"] = {"name": "s", "voll": 10.0, "spot_price": -1.0}
    doc["analysis"] = {"stage_length": "day"}
    with pytest.raises(ConfigError) as err:
        config.validate_config(write(tmp_path, yaml.safe_dump(doc)))
    assert err.value.violations[1] == \
        "scenario: spot price must be finite and >= 0"
    assert err.value.violations[-1] == \
        "analysis.stage_length: expected 'month' or 'week'"
