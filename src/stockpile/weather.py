"""Weather series handling and the monthly sampling lattice.

Reads timestamped tables of capacity factors and demand, averages them
to block resolution, slices them into July-to-June weather years
stratified by calendar month, and checks the month-to-month
independence assumption with a de-seasonalized autocorrelation
estimate.

Table schema: a ``timestamp`` column (ISO datetimes, uniform spacing)
followed by one column per series. Columns named ``cf_<generator>``
are capacity factors in [0, 1] and feed the matching weather-driven
generator; ``demand`` and ``heat_demand`` are energy per period (GWh);
``cop`` is the heat pump coefficient of performance. Missing
``heat_demand`` defaults to zero and missing ``cop`` to one.

Synthetic lattices assembled directly from weather vectors are
first-class: :meth:`SamplingLattice.from_vectors` skips ingestion
entirely, which is how small test systems are built.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import (
    DataError,
    GapDetected,
    IndivisibleBlock,
    OutOfRange,
    ParseError,
    PartialYear,
    ZeroVariance,
)
from .model import WeatherVector
from .tables import csv_text

CAPACITY_FACTOR_PREFIX = "cf_"
DEMAND_COLUMN = "demand"
HEAT_COLUMN = "heat_demand"
COP_COLUMN = "cop"


@dataclass(frozen=True)
class SeriesTable:
    """Uniformly spaced timestamped series, one array per column."""

    timestamps: np.ndarray
    columns: dict[str, np.ndarray]
    stride_hours: float

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)


def read_series(path) -> tuple[SeriesTable, str]:
    """The series table in the file at ``path`` and the SHA-256 of its
    bytes.

    The file is read once, so the hash pins the very bytes the table is
    parsed from. Every failure to read or parse it is a
    :class:`~stockpile.errors.DataError`, as in :func:`ingest_series`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read series: {exc}") from exc
    table = ingest_series(io.TextIOWrapper(io.BytesIO(data), newline=""))
    return table, hashlib.sha256(data).hexdigest()


def ingest_series(source) -> SeriesTable:
    """Read and validate a delimited series table.

    ``source`` is an open text file. Timestamps must be uniformly spaced
    with no gaps; capacity-factor columns must lie in [0, 1] up to 1e-9
    slack and are clamped to the interval. Every failure to read or
    parse the table is a :class:`~stockpile.errors.DataError`.
    """
    try:
        rows = list(csv.reader(source))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read series: {exc}") from exc
    if not rows:
        raise ParseError("empty table")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "timestamp":
        raise ParseError("first column must be 'timestamp'")
    names = header[1:]
    if len(set(names)) != len(names) or not names:
        raise ParseError("column names must be unique and at least one")
    if not all(map(str.isprintable, names)):
        raise ParseError(f"column names must be printable, got {names}")
    stamps = []
    data = [[] for _ in names]
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"row {lineno}: expected {len(header)} fields, "
                             f"got {len(row)}")
        try:
            stamps.append(np.datetime64(row[0].strip().replace(" ", "T"), "s"))
        except ValueError:
            raise ParseError(f"row {lineno}: bad timestamp {row[0]!r}") from None
        for j, cell in enumerate(row[1:]):
            try:
                data[j].append(float(cell))
            except ValueError:
                raise ParseError(
                    f"row {lineno}: bad number {cell!r} in column "
                    f"{names[j]!r}") from None
    if len(stamps) < 2:
        raise ParseError("need at least two rows")
    ts = np.array(stamps, dtype="datetime64[s]")
    diffs = np.diff(ts).astype("timedelta64[s]").astype(np.int64)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0))
        raise GapDetected(f"timestamps not increasing at {ts[bad + 1]}")
    if np.any(diffs != diffs[0]):
        bad = int(np.argmax(diffs != diffs[0]))
        raise GapDetected(
            f"gap between {ts[bad]} and {ts[bad + 1]}: expected stride "
            f"{diffs[0]} s, found {diffs[bad]} s")
    columns = {}
    for name, vals in zip(names, data):
        arr = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise OutOfRange(f"column {name!r} contains non-finite values")
        if name.startswith(CAPACITY_FACTOR_PREFIX):
            if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
                bad = int(np.argmax((arr < -1e-9) | (arr > 1 + 1e-9)))
                raise OutOfRange(
                    f"column {name!r} row {bad + 2}: capacity factor "
                    f"{arr[bad]} outside [0, 1]")
            arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        columns[name] = arr
    return SeriesTable(timestamps=ts, columns=columns,
                       stride_hours=float(diffs[0]) / 3600.0)


def aggregate(table: SeriesTable, block: int) -> SeriesTable:
    """Average consecutive blocks of ``block`` rows into single rows.

    The block must divide the number of samples per day so that block
    boundaries never straddle midnight, and the row count must be a
    whole number of blocks.
    """
    if block < 1:
        raise IndivisibleBlock("block must be >= 1")
    if block == 1:
        return table
    per_day = 24.0 / table.stride_hours
    if abs(per_day - round(per_day)) > 1e-9 or round(per_day) % block != 0:
        raise IndivisibleBlock(
            f"block of {block} does not divide {per_day:g} samples per day")
    if table.n_rows % block != 0:
        raise IndivisibleBlock(
            f"{table.n_rows} rows is not a whole number of {block}-blocks")
    n_out = table.n_rows // block
    columns = {}
    for name, arr in table.columns.items():
        out = arr.reshape(n_out, block).mean(axis=1)
        out.setflags(write=False)
        columns[name] = out
    return SeriesTable(timestamps=table.timestamps[::block].copy(),
                       columns=columns,
                       stride_hours=table.stride_hours * block)


@dataclass(frozen=True)
class SamplingLattice:
    """Per-stage finite sample spaces of weather vectors.

    ``stages[t - 1]`` holds the equiprobable realizations of stage
    ``t``. All realizations of a stage share one period count. Year
    labels, when present, identify which historical year each
    realization came from, aligned across stages; within a stage they
    are distinct, and each is printable, so that it can name a row of a
    table.
    """

    stages: tuple
    year_labels: tuple | None = None

    def __post_init__(self):
        stages = tuple(tuple(entry) for entry in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise DataError("lattice needs at least one stage")
        for t, entries in enumerate(stages, start=1):
            if not entries:
                raise DataError(f"stage {t} has no realizations")
            lengths = {v.n_periods for v in entries}
            if len(lengths) != 1:
                raise DataError(
                    f"stage {t} mixes period counts {sorted(lengths)}")
        if self.year_labels is not None:
            labels = tuple(tuple(lab) for lab in self.year_labels)
            object.__setattr__(self, "year_labels", labels)
            if len(labels) != len(stages):
                raise DataError("year labels must cover every stage")
            for t, (entries, labs) in enumerate(zip(stages, labels), start=1):
                if len(labs) != len(entries):
                    raise DataError(f"stage {t} label count mismatch")
                if len(set(labs)) != len(labs):
                    raise DataError(f"stage {t} repeats a year label")
                if not all(str(lab).isprintable() for lab in labs):
                    raise DataError(f"stage {t} year labels must be "
                                    f"printable, got {labs}")

    @classmethod
    def from_vectors(cls, stages, year_labels=None) -> "SamplingLattice":
        """Build a lattice straight from per-stage weather vectors."""
        return cls(stages=tuple(tuple(s) for s in stages),
                   year_labels=year_labels)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def path_count(self) -> int:
        """Exact number of distinct sample paths."""
        return math.prod(len(entries) for entries in self.stages)

    def branch_count(self, t: int) -> int:
        return len(self.stages[t - 1])

    def realizations(self, t: int) -> tuple:
        """The sample space of stage ``t`` (1-based)."""
        return self.stages[t - 1]

    def periods(self, t: int) -> int:
        return self.stages[t - 1][0].n_periods

    def path(self, node_indices) -> "WeatherPath":
        """The path that takes node ``node_indices[t - 1]`` at each
        stage ``t``."""
        idx = tuple(node_indices)
        labels = None
        if self.year_labels is not None:
            labels = tuple(self.year_labels[t][i] for t, i in enumerate(idx))
        return WeatherPath(
            vectors=tuple(self.stages[t][i] for t, i in enumerate(idx)),
            node_indices=idx, year_labels=labels)


@dataclass(frozen=True)
class WeatherPath:
    """One realization per stage, with its lattice node indices."""

    vectors: tuple
    node_indices: tuple
    year_labels: tuple | None = None

    @property
    def n_stages(self) -> int:
        return len(self.vectors)


def sample_path(lattice: SamplingLattice, rng) -> WeatherPath:
    """Draw one path, one independent uniform node per stage.

    ``rng`` is a :class:`numpy.random.Generator` or a seed for one.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return lattice.path(int(rng.integers(len(entries)))
                        for entries in lattice.stages)


def historical_paths(lattice: SamplingLattice) -> list:
    """All chronological year paths, one per historical year label."""
    if lattice.year_labels is None:
        raise DataError("lattice has no year labels")
    paths = []
    for year in lattice.year_labels[0]:
        idx = []
        for t, labs in enumerate(lattice.year_labels, start=1):
            # a stage names each label once (see SamplingLattice)
            if year not in labs:
                raise DataError(f"year {year!r} has no node in stage {t}")
            idx.append(labs.index(year))
        paths.append(lattice.path(idx))
    return paths


def _weather_rows(table: SeriesTable, first_month: int):
    """The table's rows less leap days: datetimes, weather years, columns.

    A weather year starts on the first of ``first_month``; a row earlier
    in its calendar year belongs to the weather year before.
    """
    full = [ts.astype("datetime64[s]").item() for ts in table.timestamps]
    keep = [i for i, d in enumerate(full)
            if not (d.month == 2 and d.day == 29)]
    cal = [full[i] for i in keep]
    years = [d.year if d.month >= first_month else d.year - 1 for d in cal]
    columns = {name: arr[keep] for name, arr in table.columns.items()}
    return cal, years, columns


def build_lattice(table: SeriesTable, first_month: int = 7) -> SamplingLattice:
    """Slice a series table into a month-stratified lattice.

    Weather years run from ``first_month`` (default July) through the
    following June-equivalent; leap days are dropped first so that all
    realizations of a stage share one period count. The table must
    cover each of its years completely.
    """
    cal, row_years, columns = _weather_rows(table, first_month)
    if DEMAND_COLUMN not in columns:
        raise DataError(f"table has no {DEMAND_COLUMN!r} column")
    years = sorted(set(row_years))
    rows_by = {}
    for i, (d, y) in enumerate(zip(cal, row_years)):
        rows_by.setdefault((y, (d.month - first_month) % 12), []).append(i)
    per_day = round(24.0 / table.stride_hours)
    stages = []
    labels = []
    for s in range(12):
        month = (first_month - 1 + s) % 12 + 1
        entries = []
        labs = []
        for y in years:
            rows = rows_by.get((y, s))
            if rows is None:
                raise PartialYear(
                    f"weather year {y} is missing month {month}")
            days = _month_days(month) * per_day
            if len(rows) != days:
                raise PartialYear(
                    f"weather year {y} month {month} has {len(rows)} rows, "
                    f"expected {days}")
            entries.append(_vector_from_rows(columns, rows,
                                             table.stride_hours))
            labs.append(f"{y}/{(y + 1) % 100:02d}")
        stages.append(tuple(entries))
        labels.append(tuple(labs))
    return SamplingLattice(stages=tuple(stages), year_labels=tuple(labels))


def _month_days(month: int) -> int:
    return (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)[month - 1]


def _vector_from_rows(columns, rows, stride_hours) -> WeatherVector:
    idx = np.asarray(rows, dtype=np.intp)
    cf = {name[len(CAPACITY_FACTOR_PREFIX):]: arr[idx]
          for name, arr in columns.items()
          if name.startswith(CAPACITY_FACTOR_PREFIX)}
    n = len(idx)
    heat = columns.get(HEAT_COLUMN)
    cop = columns.get(COP_COLUMN)
    return WeatherVector(
        capacity_factors=cf,
        demand=columns[DEMAND_COLUMN][idx],
        heat_demand=heat[idx] if heat is not None else np.zeros(n),
        heat_pump_cop=cop[idx] if cop is not None else np.ones(n),
        period_hours=stride_hours)


def autocorrelation(values, max_lag: int) -> np.ndarray:
    """Lag-1..max_lag autocorrelations of a single series.

    The lag-k covariance is normalized by (n - k + 1) and divided by
    the full-sample variance.
    """
    x = np.asarray(values, dtype=float)
    x = x - x.mean()
    n = len(x)
    var = float(np.mean(x * x))
    if var <= 0.0:
        raise ZeroVariance("series has zero variance")
    rho = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        if k >= n:
            rho[k - 1] = 0.0
            continue
        rho[k - 1] = float(np.dot(x[k:], x[:-k])) / (n - k + 1) / var
    return rho


@dataclass(frozen=True)
class AcfReport:
    """De-seasonalized autocorrelations per input variable."""

    lags: np.ndarray
    correlations: dict[str, np.ndarray]
    sigma: dict[str, float]
    n_samples: int
    band: float

    def to_table(self) -> str:
        """Render as delimited text: variable, lag, rho, band."""
        return csv_text(("variable", "lag", "rho", "band"),
                        ((name, int(k), f"{r:.6f}", f"{self.band:.6f}")
                         for name, rho in self.correlations.items()
                         for k, r in zip(self.lags, rho)))


def stage_means(table: SeriesTable, stage_length: str = "month",
                first_month: int = 7):
    """Per-(year, stage) mean of every column, de-seasonalized.

    Stages are calendar months or consecutive 7-day blocks of the
    weather year (the last block absorbs the remainder days). The
    cross-year mean of each stage is subtracted, so the result is the
    deviation from the seasonal norm, ordered chronologically.

    Returns ``(keys, deviations)`` where keys are (year, stage) pairs.
    """
    if stage_length not in ("month", "week"):
        raise ValueError(f"unknown stage length {stage_length!r}")
    cal, row_years, columns = _weather_rows(table, first_month)
    groups = {}
    for i, (d, y) in enumerate(zip(cal, row_years)):
        if stage_length == "month":
            s = (d.month - first_month) % 12
        else:
            start = datetime(y, first_month, 1)
            s = min((d - start).days // 7, 51)
        groups.setdefault((y, s), []).append(i)
    years = sorted({y for y, _ in groups})
    if len(years) < 3:
        raise PartialYear("need at least three weather years")
    keys = sorted(groups)
    means = {name: np.array([arr[groups[k]].mean() for k in keys])
             for name, arr in columns.items()}
    n_stage = max(s for _, s in keys) + 1
    deviations = {}
    for name, vals in means.items():
        out = vals.copy()
        for s in range(n_stage):
            mask = np.array([k[1] == s for k in keys])
            if mask.any():
                out[mask] -= out[mask].mean()
        deviations[name] = out
    return keys, deviations


def acf_test(table: SeriesTable, stage_length: str = "month",
             max_lag: int = 12, first_month: int = 7) -> AcfReport:
    """Autocorrelation of de-seasonalized stage means per variable.

    Small values inside the ±2/sqrt(n) band support treating stages as
    independent draws.
    """
    keys, deviations = stage_means(table, stage_length, first_month)
    n = len(keys)
    correlations = {}
    sigma = {}
    for name, vals in deviations.items():
        sd = float(np.std(vals))
        if sd <= 0.0:
            raise ZeroVariance(f"column {name!r} has zero variance")
        correlations[name] = autocorrelation(vals, max_lag)
        sigma[name] = sd
    return AcfReport(lags=np.arange(1, max_lag + 1),
                     correlations=correlations, sigma=sigma, n_samples=n,
                     band=2.0 / math.sqrt(n))
