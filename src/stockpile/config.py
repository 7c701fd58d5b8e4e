"""Run configuration: YAML schema, validation, provenance echo.

Schema version 1. Top-level keys:

``schema_version``
    Must equal 1.
``scenario``
    Preset name (``no_imports``, ``constrained_imports``,
    ``unlimited_imports``) or a mapping with ``name``, ``voll`` and
    optional ``spot_price`` / ``spot_cap``.
``annualization_rate``
    Interest rate used by technology presets (default 0.04).
``catalog``
    ``ltc_price`` / ``ltc_max`` (optional, default 0) plus
    ``generators`` and ``storages`` lists. An entry's keys are the
    fields of :class:`~stockpile.model.Generator` or
    :class:`~stockpile.model.Storage`. It may name a ``preset`` from
    :mod:`stockpile.presets`, which fills every field except the name
    and the capacity bounds; explicit fields override preset values.
    Capacity bounds are always explicit (``.inf`` is allowed);
    ``marginal_cost`` defaults to 0.
``lattice``
    Either inline ``stages`` (list of ``{realizations: [...]}``, each
    realization carrying ``demand``, ``capacity_factors``, optional
    ``heat_demand`` / ``cop`` / ``year_label``) with ``period_hours``,
    or ``series`` (path to a delimited table) with optional ``block``
    and ``first_month`` to build a monthly lattice from data.
``training``
    Optional; required by the train command. Its keys are the fields
    of :class:`~stockpile.sddp.TrainOptions` except ``log_path``;
    ``seed`` is mandatory when the block is present.
``simulation``
    Optional; required by the simulate and curves commands. ``seed``
    is mandatory when present; ``n_paths`` defaults to 200.
``analysis``
    Optional: ``grid_step`` (GWh), ``max_lag``, ``stage_length``
    (``month`` or ``week``), ``series`` (path, required by the acf
    command).

The key lists and value types of catalog entries and the training
block come from their dataclasses (``dataclasses.fields`` and the type
hints), so a field added there is a config key and is echoed.
Validation reports every violation found, not just the first, each
prefixed with the field path. ``echo_text`` renders the fully resolved
configuration (defaults applied, content hashes attached) as
deterministic YAML so an output directory records exactly what ran;
every section but the lattice is echoed as its dataclass.
"""
from __future__ import annotations

import hashlib
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
import yaml

from . import presets, weather
from .errors import ConfigError, StockpileError
from .model import (
    Generator,
    MarketScenario,
    Storage,
    TechnologyCatalog,
    WeatherVector,
)
from .sddp import TrainOptions
from .weather import SamplingLattice

SCHEMA_VERSION = 1

# Capacity bounds: always explicit, never filled by a preset.
_BOUNDS = {Generator: ("max_capacity", "min_capacity"),
           Storage: ("max_power_out", "max_power_in", "max_energy")}

_STORAGE_PRESETS = {"battery": presets.battery,
                    "hydrogen_cavern": presets.hydrogen_cavern,
                    "hydrogen_tank": presets.hydrogen_tank}

# Training options the config never sets: the CLI picks the log file.
_UNREAD_TRAINING = ("log_path",)


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for the curves and acf commands."""

    grid_step: float = 10.0
    max_lag: int = 12
    stage_length: str = "month"
    series: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated and resolved run configuration.

    Args:
        scenario: Market environment (lost-load price, spot terms).
        catalog: Investable technologies and contract terms.
        lattice: Per-stage weather sample spaces.
        training: Training options, or None when the config has no
            training block.
        simulation_seed: Seed for simulation path sampling, or None.
        simulation_paths: Number of Monte-Carlo paths to simulate.
        analysis: Curve and autocorrelation options.
        annualization_rate: Interest rate behind preset costs.
        resolved: Plain-data echo of the configuration with all
            defaults applied and content hashes attached.
        source_hash: SHA-256 of the raw configuration file bytes.
    """

    scenario: MarketScenario
    catalog: TechnologyCatalog
    lattice: SamplingLattice
    training: TrainOptions | None
    simulation_seed: int | None
    simulation_paths: int
    analysis: AnalysisOptions
    annualization_rate: float
    resolved: dict = field(repr=False)
    source_hash: str = ""


class _Collector:
    """Accumulates violations with their field paths."""

    def __init__(self):
        self.violations: list[str] = []

    def error(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")

    def raise_if_any(self) -> None:
        if self.violations:
            raise ConfigError(self.violations)


def _require_mapping(raw, path, errors) -> dict | None:
    if not isinstance(raw, dict):
        errors.error(path, f"expected a mapping, got {type(raw).__name__}")
        return None
    return raw


def _number(raw, path, errors, *, allow_none=False, minimum=None):
    if raw is None and allow_none:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.error(path, f"expected a number, got {raw!r}")
        return None
    value = float(raw)
    if minimum is not None and value < minimum:
        errors.error(path, f"must be >= {minimum}, got {value}")
        return None
    return value


def _integer(raw, path, errors, *, minimum=0):
    if isinstance(raw, bool) or not isinstance(raw, int):
        errors.error(path, f"expected an integer, got {raw!r}")
        return None
    if raw < minimum:
        errors.error(path, f"must be >= {minimum}, got {raw}")
        return None
    return raw


def _series(raw, path, errors):
    if not isinstance(raw, list) or not raw:
        errors.error(path, "expected a non-empty list of numbers")
        return None
    values = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            errors.error(f"{path}[{i}]", f"expected a number, got {v!r}")
            return None
        values.append(float(v))
    return np.asarray(values)


def _check_unknown(raw: dict, known, path: str, errors) -> None:
    for key in raw:
        if key not in known:
            errors.error(f"{path}.{key}", "unknown field")


def _parse_scenario(raw, errors) -> MarketScenario | None:
    if isinstance(raw, str):
        try:
            return presets.scenario(raw)
        except ValueError as exc:
            errors.error("scenario", str(exc))
            return None
    node = _require_mapping(raw, "scenario", errors)
    if node is None:
        return None
    _check_unknown(node, {"name", "voll", "spot_price", "spot_cap"},
                   "scenario", errors)
    name = node.get("name")
    if not isinstance(name, str) or not name:
        errors.error("scenario.name", "expected a non-empty string")
        return None
    voll = _number(node.get("voll"), "scenario.voll", errors, minimum=0.0)
    spot_price = _number(node.get("spot_price"), "scenario.spot_price",
                         errors, allow_none=True, minimum=0.0)
    spot_cap = _number(node.get("spot_cap"), "scenario.spot_cap", errors,
                       allow_none=True, minimum=0.0)
    if voll is None:
        return None
    try:
        return MarketScenario(name=name, voll=voll, spot_price=spot_price,
                              spot_cap=spot_cap)
    except (StockpileError, ValueError) as exc:
        errors.error("scenario", str(exc))
        return None


def _keys(cls, skip=()) -> list[str]:
    """Field names of dataclass ``cls`` less ``skip``, in field order."""
    return [f.name for f in fields(cls) if f.name not in skip]


def _read_fields(node, cls, path, errors, *, skip=(), minimum=None):
    """Values of the keys of ``node`` that name fields of ``cls``.

    Each field's type hint picks its check: ``bool``, ``int`` (>= 0),
    ``float`` or ``float | None``, floats held to ``minimum`` when one
    is given. Absent keys are left out. Returns None when any value
    fails its check.
    """
    hints = typing.get_type_hints(cls)
    before = len(errors.violations)
    values = {}
    for key in _keys(cls, skip):
        if key not in node:
            continue
        raw, where, kind = node[key], f"{path}.{key}", hints[key]
        if kind is bool:
            if not isinstance(raw, bool):
                errors.error(where, "expected true or false")
            values[key] = raw
        elif kind is int:
            values[key] = _integer(raw, where, errors)
        else:
            values[key] = _number(raw, where, errors,
                                  allow_none=kind is not float,
                                  minimum=minimum)
    return None if len(errors.violations) > before else values


def _preset(cls, key, name, rate):
    """Preset ``key`` built as a ``cls`` named ``name``, bounds zero.

    Raises:
        ValueError: ``key`` names no preset of that kind.
    """
    bounds = dict.fromkeys(_BOUNDS[cls], 0.0)
    if cls is Generator:
        return presets.generator(key, name, rate=rate, **bounds)
    if not isinstance(key, str) or key not in _STORAGE_PRESETS:
        raise ValueError(f"expected one of {sorted(_STORAGE_PRESETS)}, "
                         f"got {key!r}")
    return _STORAGE_PRESETS[key](name, rate=rate, **bounds)


def _technology(cls, node, path, rate, errors):
    """One catalog entry as a :class:`Generator` or :class:`Storage`.

    A ``preset`` fills every field except the name and the capacity
    bounds; explicit keys override it. ``marginal_cost`` defaults to 0.
    """
    _check_unknown(node, {"preset", *_keys(cls)}, path, errors)
    name = node.get("name")
    if not isinstance(name, str) or not name:
        errors.error(f"{path}.name", "expected a non-empty string")
        return None
    bounds = _BOUNDS[cls]
    values = {}
    if node.get("preset") is not None:
        try:
            base = _preset(cls, node["preset"], name, rate)
        except ValueError as exc:
            errors.error(f"{path}.preset", str(exc))
            return None
        values = {key: getattr(base, key)
                  for key in _keys(cls, ("name", *bounds))}
    read = _read_fields(node, cls, path, errors, skip=("name",))
    if read is None:
        return None
    values.update(read)
    if cls is Generator:
        values.setdefault("marginal_cost", 0.0)
    missing = [f.name for f in fields(cls) if f.default is MISSING
               and f.name not in values and f.name != "name"]
    for key in missing:
        errors.error(f"{path}.{key}", "required" if key in bounds
                     else "required (directly or via preset)")
    if missing:
        return None
    try:
        return cls(name=name, **values)
    except (StockpileError, ValueError) as exc:
        errors.error(path, str(exc))
        return None


def _parse_catalog(raw, rate, errors) -> TechnologyCatalog | None:
    node = _require_mapping(raw, "catalog", errors)
    if node is None:
        return None
    _check_unknown(node, {"ltc_price", "ltc_max", "generators", "storages"},
                   "catalog", errors)
    ltc_price = _number(node.get("ltc_price", 0.0), "catalog.ltc_price",
                        errors, minimum=0.0)
    ltc_max = _number(node.get("ltc_max", 0.0), "catalog.ltc_max", errors,
                      minimum=0.0)
    entries = {}
    for key, cls in (("generators", Generator), ("storages", Storage)):
        raw_list = node.get(key, [])
        if not isinstance(raw_list, list):
            errors.error(f"catalog.{key}", "expected a list")
            raw_list = []
        entries[key] = []
        for i, raw_entry in enumerate(raw_list):
            path = f"catalog.{key}[{i}]"
            mapping = _require_mapping(raw_entry, path, errors)
            tech = None if mapping is None else \
                _technology(cls, mapping, path, rate, errors)
            if tech is not None:
                entries[key].append(tech)
    if errors.violations:
        return None
    try:
        return TechnologyCatalog(**entries, ltc_price=ltc_price or 0.0,
                                 ltc_max=ltc_max or 0.0)
    except (StockpileError, ValueError) as exc:
        errors.error("catalog", str(exc))
        return None


def _vector_from_node(node, path, period_hours, errors) -> WeatherVector | None:
    known = {"demand", "capacity_factors", "heat_demand", "cop", "year_label"}
    _check_unknown(node, known, path, errors)
    demand = _series(node.get("demand"), f"{path}.demand", errors)
    if demand is None:
        return None
    n = len(demand)
    factors = {}
    raw_cf = node.get("capacity_factors", {})
    if not isinstance(raw_cf, dict):
        errors.error(f"{path}.capacity_factors", "expected a mapping")
        return None
    for gname, series in raw_cf.items():
        arr = _series(series, f"{path}.capacity_factors.{gname}", errors)
        if arr is None:
            return None
        factors[gname] = arr
    heat = _series(node["heat_demand"], f"{path}.heat_demand", errors) \
        if "heat_demand" in node else np.zeros(n)
    cop = _series(node["cop"], f"{path}.cop", errors) \
        if "cop" in node else np.ones(n)
    if heat is None or cop is None:
        return None
    try:
        return WeatherVector(capacity_factors=factors, demand=demand,
                             heat_demand=heat, heat_pump_cop=cop,
                             period_hours=period_hours)
    except (StockpileError, ValueError) as exc:
        errors.error(path, str(exc))
        return None


def _parse_inline_lattice(node, errors) -> SamplingLattice | None:
    period_hours = _number(node.get("period_hours", 4.0),
                           "lattice.period_hours", errors)
    raw_stages = node.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        errors.error("lattice.stages", "expected a non-empty list")
        return None
    stages = []
    labels = []
    for t, snode in enumerate(raw_stages):
        path = f"lattice.stages[{t}]"
        mapping = _require_mapping(snode, path, errors)
        if mapping is None:
            return None
        _check_unknown(mapping, {"realizations"}, path, errors)
        raw_reals = mapping.get("realizations")
        if not isinstance(raw_reals, list) or not raw_reals:
            errors.error(f"{path}.realizations", "expected a non-empty list")
            return None
        vectors = []
        stage_labels = []
        for i, rnode in enumerate(raw_reals):
            rpath = f"{path}.realizations[{i}]"
            rmapping = _require_mapping(rnode, rpath, errors)
            if rmapping is None:
                return None
            label = rmapping.get("year_label", f"sample-{i}")
            if not isinstance(label, str):
                errors.error(f"{rpath}.year_label", "expected a string")
                return None
            vec = _vector_from_node(rmapping, rpath, period_hours or 4.0,
                                    errors)
            if vec is None:
                return None
            vectors.append(vec)
            stage_labels.append(label)
        stages.append(tuple(vectors))
        labels.append(tuple(stage_labels))
    try:
        return SamplingLattice.from_vectors(stages, year_labels=labels)
    except (StockpileError, ValueError) as exc:
        errors.error("lattice", str(exc))
        return None


def _parse_series_lattice(node, errors):
    path = node.get("series")
    if not isinstance(path, str) or not path:
        errors.error("lattice.series", "expected a file path")
        return None, None
    block = node.get("block", 1)
    block = _integer(block, "lattice.block", errors, minimum=1)
    first_month = _integer(node.get("first_month", 7), "lattice.first_month",
                           errors, minimum=1)
    if block is None or first_month is None or first_month > 12:
        if first_month is not None and first_month > 12:
            errors.error("lattice.first_month", "must be in 1..12")
        return None, None
    try:
        table = weather.ingest_series(path)
        table = weather.aggregate(table, block)
        lattice = weather.build_lattice(table, first_month=first_month)
    except OSError as exc:
        errors.error("lattice.series", str(exc))
        return None, None
    except (StockpileError, ValueError) as exc:
        errors.error("lattice.series", str(exc))
        return None, None
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return lattice, digest


def _parse_lattice(raw, errors):
    node = _require_mapping(raw, "lattice", errors)
    if node is None:
        return None, None
    has_inline = "stages" in node
    has_series = "series" in node
    if has_inline == has_series:
        errors.error("lattice",
                     "provide exactly one of 'stages' or 'series'")
        return None, None
    if has_inline:
        _check_unknown(node, {"stages", "period_hours"}, "lattice", errors)
        return _parse_inline_lattice(node, errors), None
    _check_unknown(node, {"series", "block", "first_month"}, "lattice",
                   errors)
    return _parse_series_lattice(node, errors)


def _parse_training(raw, errors) -> TrainOptions | None:
    node = _require_mapping(raw, "training", errors)
    if node is None:
        return None
    _check_unknown(node, _keys(TrainOptions, _UNREAD_TRAINING), "training",
                   errors)
    if "seed" not in node:
        errors.error("training.seed", "required (seeds are mandatory)")
        return None
    kwargs = _read_fields(node, TrainOptions, "training", errors,
                          skip=_UNREAD_TRAINING, minimum=0.0)
    if kwargs is None:
        return None
    if kwargs.get("threads", 1) < 1:
        errors.error("training.threads", "must be >= 1")
        return None
    return TrainOptions(**kwargs)


def _parse_simulation(raw, errors):
    node = _require_mapping(raw, "simulation", errors)
    if node is None:
        return None, 200
    _check_unknown(node, {"seed", "n_paths"}, "simulation", errors)
    if "seed" not in node:
        errors.error("simulation.seed", "required (seeds are mandatory)")
        return None, 200
    seed = _integer(node["seed"], "simulation.seed", errors)
    n_paths = _integer(node.get("n_paths", 200), "simulation.n_paths",
                       errors, minimum=1)
    return seed, (n_paths if n_paths is not None else 200)


def _parse_analysis(raw, errors) -> AnalysisOptions:
    node = _require_mapping(raw, "analysis", errors)
    if node is None:
        return AnalysisOptions()
    _check_unknown(node, {"grid_step", "max_lag", "stage_length", "series"},
                   "analysis", errors)
    grid_step = _number(node.get("grid_step", 10.0), "analysis.grid_step",
                        errors)
    max_lag = _integer(node.get("max_lag", 12), "analysis.max_lag", errors,
                       minimum=1)
    stage_length = node.get("stage_length", "month")
    if stage_length not in ("month", "week"):
        errors.error("analysis.stage_length", "expected 'month' or 'week'")
        stage_length = "month"
    series = node.get("series")
    if series is not None and not isinstance(series, str):
        errors.error("analysis.series", "expected a file path")
        series = None
    if grid_step is not None and grid_step <= 0:
        errors.error("analysis.grid_step", "must be > 0")
        grid_step = 10.0
    return AnalysisOptions(grid_step=grid_step or 10.0,
                           max_lag=max_lag or 12,
                           stage_length=stage_length, series=series)


def _plain(value):
    """Convert to YAML-safe plain data."""
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _resolved_echo(cfg_bytes_hash, scenario, catalog, lattice, training,
                   sim_seed, sim_paths, analysis, rate, series_hash) -> dict:
    stages = []
    for t in range(1, lattice.n_stages + 1):
        reals = []
        for i, vec in enumerate(lattice.realizations(t)):
            label = (lattice.year_labels[t - 1][i]
                     if lattice.year_labels is not None else f"sample-{i}")
            reals.append({
                "year_label": label,
                "demand": vec.demand,
                "capacity_factors": dict(vec.capacity_factors),
                "heat_demand": vec.heat_demand,
                "cop": vec.heat_pump_cop,
            })
        stages.append({"realizations": reals})
    period_hours = lattice.realizations(1)[0].period_hours
    training_node = None
    if training is not None:
        training_node = {key: getattr(training, key)
                         for key in _keys(TrainOptions, _UNREAD_TRAINING)}
    source = {"config_sha256": cfg_bytes_hash}
    if series_hash:
        source["series_sha256"] = series_hash
    return _plain({
        "schema_version": SCHEMA_VERSION,
        "scenario": asdict(scenario),
        "annualization_rate": rate,
        "catalog": asdict(catalog),
        "lattice": {"period_hours": period_hours, "stages": stages},
        "training": training_node,
        "simulation": {"seed": sim_seed, "n_paths": sim_paths},
        "analysis": asdict(analysis),
        "source": source,
    })


def validate_config(path: str) -> ScenarioConfig:
    """Parse, validate, and resolve a YAML run configuration.

    Args:
        path: Configuration file location.

    Returns:
        The normalized :class:`ScenarioConfig` with defaults applied.

    Raises:
        DataError: The file is missing or not valid YAML.
        ConfigError: One or more schema violations, all listed.
    """
    from .errors import DataError

    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise DataError(f"config {path!r} is not valid YAML: {exc}") from exc
    errors = _Collector()
    node = _require_mapping(raw, "config", errors)
    errors.raise_if_any()
    _check_unknown(node, {"schema_version", "scenario", "annualization_rate",
                          "catalog", "lattice", "training", "simulation",
                          "analysis"}, "config", errors)
    version = node.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.error("schema_version",
                     f"expected {SCHEMA_VERSION}, got {version!r}")
    rate = _number(node.get("annualization_rate", 0.04),
                   "annualization_rate", errors, minimum=0.0)
    if rate is None:
        rate = 0.04
    scenario = None
    if "scenario" not in node:
        errors.error("scenario", "required")
    else:
        scenario = _parse_scenario(node["scenario"], errors)
    catalog = None
    if "catalog" not in node:
        errors.error("catalog", "required")
    else:
        catalog = _parse_catalog(node["catalog"], rate, errors)
    lattice, series_hash = (None, None)
    if "lattice" not in node:
        errors.error("lattice", "required")
    else:
        lattice, series_hash = _parse_lattice(node["lattice"], errors)
    training = None
    if "training" in node:
        training = _parse_training(node["training"], errors)
    sim_seed, sim_paths = (None, 200)
    if "simulation" in node:
        sim_seed, sim_paths = _parse_simulation(node["simulation"], errors)
    analysis = _parse_analysis(node["analysis"], errors) \
        if "analysis" in node else AnalysisOptions()
    if catalog is not None and lattice is not None:
        weather_driven = [g.name for g in catalog.generators
                          if g.availability is None]
        for t in range(1, lattice.n_stages + 1):
            for i, vec in enumerate(lattice.realizations(t)):
                for gname in weather_driven:
                    if gname not in vec.capacity_factors:
                        errors.error(
                            f"lattice.stages[{t - 1}].realizations[{i}]",
                            f"missing capacity factors for weather-driven "
                            f"generator {gname!r}")
    errors.raise_if_any()
    digest = hashlib.sha256(raw_bytes).hexdigest()
    resolved = _resolved_echo(digest, scenario, catalog, lattice, training,
                              sim_seed, sim_paths, analysis, rate,
                              series_hash)
    return ScenarioConfig(scenario=scenario, catalog=catalog,
                          lattice=lattice, training=training,
                          simulation_seed=sim_seed,
                          simulation_paths=sim_paths, analysis=analysis,
                          annualization_rate=rate, resolved=resolved,
                          source_hash=digest)


def echo_text(cfg: ScenarioConfig, extra_hashes: dict | None = None) -> str:
    """Deterministic YAML echo of the resolved configuration.

    Args:
        cfg: A validated configuration.
        extra_hashes: Additional content hashes (for example the policy
            file a simulation read) merged into the ``source`` block.
    """
    resolved = dict(cfg.resolved)
    if extra_hashes:
        source = dict(resolved.get("source", {}))
        source.update(extra_hashes)
        resolved["source"] = source
    return yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False)
