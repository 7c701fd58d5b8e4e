"""Run configuration: YAML schema, validation, provenance echo.

Schema version 1. Top-level keys:

``schema_version``
    Must equal 1.
``scenario``
    Preset name (``no_imports``, ``constrained_imports``,
    ``unlimited_imports``) or a mapping whose keys are the fields of
    :class:`~stockpile.model.MarketScenario`.
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
    Optional; required by the simulate and curves commands. Its keys
    are the fields of :class:`SimulationOptions`; ``seed`` is
    mandatory when the block is present.
``analysis``
    Optional; its keys are the fields of :class:`AnalysisOptions`.

One reader, :func:`_read`, builds each section but the inline lattice
as its dataclass: keys are the fields, each value is checked against
its field's type hint (``bool``, ``str``, ``int`` or ``float``, each
optionally ``None``; never NaN or the empty string), a field without a
default is required, and the constructor's own range checks are
reported at the section path. Each lower bound is declared once, in
:data:`MINIMUM`; the CLI's override flags read the same entries.
Hand-written rules: mandatory seeds, one lattice source,
``period_hours > 0``, ``grid_step > 0``, ``stage_length``,
``first_month <= 12``, the inline realizations, the preset fill and the
inline lattice echo.

Validation reports every violation found, not just the first, each
prefixed with the field path. ``echo_text`` renders the fully resolved
configuration (defaults applied, content hashes attached) as
deterministic YAML so an output directory records exactly what ran;
every section but an inline lattice is echoed as its dataclass. A
series lattice is echoed by its keys, the series file being pinned by
its SHA-256 in ``source``, and an inline one by its loaded values.
"""
from __future__ import annotations

import hashlib
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
import yaml

from . import presets, weather
from .errors import ConfigError, DataError, StockpileError
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

# The lower bound of each bounded number key, by key name: it holds in
# every section that has the key and for the CLI flag overriding it.
MINIMUM = {"annualization_rate": 0, "seed": 0, "max_iterations": 0,
           "time_limit": 0, "threads": 1, "gap_paths": 2,
           "gap_check_every": 1, "n_paths": 1, "max_lag": 1, "block": 1,
           "first_month": 1}

# The violation a value of the wrong type reads, by expected type.
_EXPECTED = {bool: "expected true or false",
             str: "expected a non-empty string, got {!r}",
             int: "expected an integer, got {!r}",
             float: "expected a number, got {!r}"}

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
    """Knobs for the curves and acf commands: the bid-curve grid step
    (GWh), the largest autocorrelation lag, the stage length (``month``
    or ``week``) and the series file the acf command reads."""

    grid_step: float = 10.0
    max_lag: int = 12
    stage_length: str = "month"
    series: str | None = None


@dataclass(frozen=True)
class SimulationOptions:
    """Path sampling for the simulate and curves commands; ``seed`` is
    None only when the config has no simulation block."""

    seed: int | None = None
    n_paths: int = 200


@dataclass(frozen=True)
class _SeriesLattice:
    """The keys of a lattice built from a series file."""

    series: str
    block: int = 1
    first_month: int = 7


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated and resolved run configuration.

    Args:
        scenario: Market environment (lost-load price, spot terms).
        catalog: Investable technologies and contract terms.
        lattice: Per-stage weather sample spaces.
        training: Training options, or None when the config has no
            training block.
        simulation: Simulation seed and path count.
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
    simulation: SimulationOptions
    analysis: AnalysisOptions
    annualization_rate: float
    resolved: dict = field(repr=False)
    source_hash: str = ""


def _fits(raw, kind) -> bool:
    if kind is bool or isinstance(raw, bool):
        return kind is bool and isinstance(raw, bool)
    if kind is float:
        return isinstance(raw, (int, float)) and not math.isnan(raw)
    if kind is str:
        return isinstance(raw, str) and raw != ""
    return isinstance(raw, int)


def check_value(raw, kind, key: str, nullable: bool = False):
    """``raw`` read as the value of key ``key`` of type ``kind``
    (``bool``, ``str``, ``int`` or ``float``; ``nullable`` admits None).

    Returns the value (a ``float`` for a number key) and None, or None
    and the violation: a wrong type, NaN, an empty string, or a value
    below the key's :data:`MINIMUM`.
    """
    if raw is None and nullable:
        return None, None
    if not _fits(raw, kind):
        return None, _EXPECTED[kind].format(raw)
    value = float(raw) if kind is float else raw
    if key in MINIMUM and value < MINIMUM[key]:
        return None, f"must be >= {MINIMUM[key]}, got {value}"
    return value, None


def field_kind(cls, key: str):
    """The type of field ``key`` of dataclass ``cls`` and whether it
    admits None, from its type hint (``T`` or ``T | None``)."""
    hint = typing.get_type_hints(cls)[key]
    args = typing.get_args(hint)
    return (args[0], True) if type(None) in args else (hint, False)


def _value(raw, kind, path, errors, nullable=False):
    """:func:`check_value` of the key at ``path``, its violation
    recorded there."""
    value, problem = check_value(raw, kind, path.rsplit(".", 1)[-1],
                                 nullable)
    if problem is not None:
        errors.append(f"{path}: {problem}")
    return value


def _require_mapping(raw, path, errors) -> dict | None:
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected a mapping, got {type(raw).__name__}")
        return None
    return raw


def _check_unknown(raw: dict, known, path: str, errors) -> None:
    for key in raw:
        if key not in known:
            errors.append(f"{path}.{key}: unknown field")


def _keys(cls, skip=()) -> list[str]:
    """Field names of dataclass ``cls`` less ``skip``, in field order."""
    return [f.name for f in fields(cls) if f.name not in skip]


def _read(cls, raw, path, errors, *, base=None, extra=(), skip=(),
          fills=()):
    """Dataclass ``cls`` built from the mapping ``raw`` at ``path``,
    or None when any check fails.

    Keys are the fields of ``cls`` less ``skip``, plus ``extra`` keys
    the caller reads itself. Values are checked by :func:`check_value`.
    ``base`` gives the values of absent keys and ``extra`` fields. A
    field left without a value or default is required ("directly or
    via preset" when in ``fills``). Constructor errors go to ``path``.
    """
    node = _require_mapping(raw, path, errors)
    if node is None:
        return None
    before = len(errors)
    keys = _keys(cls, (*skip, *extra))
    _check_unknown(node, {*keys, *extra}, path, errors)
    values = dict(base or {})
    for key in keys:
        if key in node:
            kind, nullable = field_kind(cls, key)
            values[key] = _value(node[key], kind, f"{path}.{key}", errors,
                                 nullable)
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            note = " (directly or via preset)" if f.name in fills else ""
            errors.append(f"{path}.{f.name}: required{note}")
    if len(errors) > before:
        return None
    try:
        return cls(**values)
    except (StockpileError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return None


def _series(raw, path, errors):
    if not isinstance(raw, list) or not raw:
        errors.append(f"{path}: expected a non-empty list of numbers")
        return None
    for i, v in enumerate(raw):
        if _value(v, float, f"{path}[{i}]", errors) is None:
            return None
    return np.asarray(raw, dtype=float)


def _parse_scenario(raw, errors) -> MarketScenario | None:
    if not isinstance(raw, str):
        return _read(MarketScenario, raw, "scenario", errors)
    try:
        return presets.scenario(raw)
    except ValueError as exc:
        errors.append(f"scenario: {exc}")
        return None


def _preset(cls, key, rate):
    """Preset ``key`` built as a ``cls`` with zero capacity bounds.

    Raises:
        ValueError: ``key`` names no preset of that kind.
    """
    bounds = dict.fromkeys(_BOUNDS[cls], 0.0)
    if cls is Generator:
        return presets.generator(key, rate=rate, **bounds)
    if not isinstance(key, str) or key not in _STORAGE_PRESETS:
        raise ValueError(f"expected one of {sorted(_STORAGE_PRESETS)}, "
                         f"got {key!r}")
    return _STORAGE_PRESETS[key](rate=rate, **bounds)


def _technology(cls, raw, path, rate, errors):
    """One catalog entry as a :class:`Generator` or :class:`Storage`.

    A ``preset`` fills every field except the name and the capacity
    bounds; explicit keys override it. ``marginal_cost`` defaults to 0.
    """
    fills = _keys(cls, ("name", *_BOUNDS[cls]))
    base = {"marginal_cost": 0.0} if cls is Generator else {}
    preset = raw.get("preset") if isinstance(raw, dict) else None
    if preset is not None:
        try:
            made = _preset(cls, preset, rate)
        except ValueError as exc:
            errors.append(f"{path}.preset: {exc}")
            return None
        base = {key: getattr(made, key) for key in fills}
    return _read(cls, raw, path, errors, base=base, extra=("preset",),
                 fills=fills)


def _parse_catalog(raw, rate, errors) -> TechnologyCatalog | None:
    node = _require_mapping(raw, "catalog", errors)
    if node is None:
        return None
    before = len(errors)
    entries = {}
    for key, cls in (("generators", Generator), ("storages", Storage)):
        raw_list = node.get(key, [])
        if not isinstance(raw_list, list):
            errors.append(f"catalog.{key}: expected a list")
            raw_list = []
        entries[key] = []
        for i, entry in enumerate(raw_list):
            tech = _technology(cls, entry, f"catalog.{key}[{i}]", rate,
                               errors)
            if tech is not None:
                entries[key].append(tech)
    catalog = _read(TechnologyCatalog, node, "catalog", errors,
                    base=entries, extra=tuple(entries))
    return None if len(errors) > before else catalog


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
        errors.append(f"{path}.capacity_factors: expected a mapping")
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
        errors.append(f"{path}: {exc}")
        return None


def _parse_inline_lattice(node, errors) -> SamplingLattice | None:
    period_hours = _value(node.get("period_hours", 4.0),
                          float, "lattice.period_hours", errors)
    if period_hours is not None and not period_hours > 0:
        errors.append("lattice.period_hours: must be > 0")
        period_hours = None         # 4.0 below, to check the realizations
    raw_stages = node.get("stages")
    if not isinstance(raw_stages, list) or not raw_stages:
        errors.append("lattice.stages: expected a non-empty list")
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
            errors.append(f"{path}.realizations: expected a non-empty list")
            return None
        vectors = []
        stage_labels = []
        for i, rnode in enumerate(raw_reals):
            rpath = f"{path}.realizations[{i}]"
            rmapping = _require_mapping(rnode, rpath, errors)
            if rmapping is None:
                return None
            label = _value(rmapping.get("year_label", f"sample-{i}"), str,
                           f"{rpath}.year_label", errors)
            if label is None:
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
        errors.append(f"lattice: {exc}")
        return None


def _parse_series_lattice(node, errors):
    source = _read(_SeriesLattice, node, "lattice", errors)
    if source is None:
        return None, None, None
    if source.first_month > 12:
        errors.append("lattice.first_month: must be in 1..12")
        return None, None, None
    try:
        table, digest = weather.read_series(source.series)
        lattice = weather.build_lattice(weather.aggregate(table, source.block),
                                        first_month=source.first_month)
    except (StockpileError, ValueError) as exc:
        errors.append(f"lattice.series: {exc}")
        return None, None, None
    return lattice, source, digest


def _parse_lattice(raw, errors):
    """The lattice, the :class:`_SeriesLattice` it was read from (None
    for an inline one) and the SHA-256 of its series file (None
    likewise); all None when it is invalid."""
    node = _require_mapping(raw, "lattice", errors)
    if node is None:
        return None, None, None
    has_inline = "stages" in node
    has_series = "series" in node
    if has_inline == has_series:
        errors.append("lattice: provide exactly one of 'stages' or 'series'")
        return None, None, None
    if has_inline:
        _check_unknown(node, {"stages", "period_hours"}, "lattice", errors)
        return _parse_inline_lattice(node, errors), None, None
    return _parse_series_lattice(node, errors)


def _parse_training(raw, errors) -> TrainOptions | None:
    options = _read(TrainOptions, raw, "training", errors,
                    skip=_UNREAD_TRAINING)
    if isinstance(raw, dict) and "seed" not in raw:
        errors.append("training.seed: required (seeds are mandatory)")
    return options


def _parse_simulation(raw, errors) -> SimulationOptions | None:
    options = _read(SimulationOptions, raw, "simulation", errors)
    if isinstance(raw, dict) and raw.get("seed") is None:
        errors.append("simulation.seed: required (seeds are mandatory)")
    return options


def _parse_analysis(raw, errors) -> AnalysisOptions | None:
    options = _read(AnalysisOptions, raw, "analysis", errors)
    if options is not None:
        if options.grid_step <= 0:
            errors.append("analysis.grid_step: must be > 0")
        if options.stage_length not in ("month", "week"):
            errors.append("analysis.stage_length: expected 'month' or 'week'")
    return options


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


def _lattice_echo(lattice) -> dict:
    """An inline lattice as its loaded values, stage by stage."""
    stages = []
    for t in range(1, lattice.n_stages + 1):
        reals = []
        for i, vec in enumerate(lattice.realizations(t)):
            reals.append({
                "year_label": lattice.year_labels[t - 1][i],
                "demand": vec.demand,
                "capacity_factors": dict(vec.capacity_factors),
                "heat_demand": vec.heat_demand,
                "cop": vec.heat_pump_cop,
            })
        stages.append({"realizations": reals})
    period_hours = lattice.realizations(1)[0].period_hours
    return {"period_hours": period_hours, "stages": stages}


def _resolved_echo(cfg_bytes_hash, scenario, catalog, lattice, series,
                   training, simulation, analysis, rate,
                   series_hash) -> dict:
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
        "lattice": (_lattice_echo(lattice) if series is None
                    else asdict(series)),
        "training": training_node,
        "simulation": asdict(simulation),
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
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise DataError(f"config {path!r} is not valid YAML: {exc}") from exc
    errors = []
    node = _require_mapping(raw, "config", errors)
    if errors:
        raise ConfigError(errors)
    _check_unknown(node, {"schema_version", "scenario", "annualization_rate",
                          "catalog", "lattice", "training", "simulation",
                          "analysis"}, "config", errors)
    version = node.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {version!r}")
    rate = _value(node.get("annualization_rate", 0.04), float,
                  "annualization_rate", errors)
    if rate is None:
        rate = 0.04
    for key in ("scenario", "catalog", "lattice"):
        if key not in node:
            errors.append(f"{key}: required")
    scenario = _parse_scenario(node["scenario"], errors) \
        if "scenario" in node else None
    catalog = _parse_catalog(node["catalog"], rate, errors) \
        if "catalog" in node else None
    lattice, series, series_hash = _parse_lattice(node["lattice"], errors) \
        if "lattice" in node else (None, None, None)
    training = _parse_training(node["training"], errors) \
        if "training" in node else None
    simulation = _parse_simulation(node["simulation"], errors) \
        if "simulation" in node else SimulationOptions()
    analysis = _parse_analysis(node["analysis"], errors) \
        if "analysis" in node else AnalysisOptions()
    if catalog is not None and lattice is not None:
        weather_driven = [g.name for g in catalog.generators
                          if g.availability is None]
        for t in range(1, lattice.n_stages + 1):
            for i, vec in enumerate(lattice.realizations(t)):
                for gname in weather_driven:
                    if gname not in vec.capacity_factors:
                        errors.append(
                            f"lattice.stages[{t - 1}].realizations[{i}]: "
                            f"missing capacity factors for weather-driven "
                            f"generator {gname!r}")
    if errors:
        raise ConfigError(errors)
    digest = hashlib.sha256(raw_bytes).hexdigest()
    resolved = _resolved_echo(digest, scenario, catalog, lattice, series,
                              training, simulation, analysis, rate,
                              series_hash)
    return ScenarioConfig(scenario=scenario, catalog=catalog,
                          lattice=lattice, training=training,
                          simulation=simulation, analysis=analysis,
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
