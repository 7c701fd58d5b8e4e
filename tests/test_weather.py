import io
import math

import numpy as np
import pytest

from stockpile import model, weather
from stockpile.errors import (
    DataError,
    GapDetected,
    IndivisibleBlock,
    OutOfRange,
    ParseError,
    PartialYear,
    ZeroVariance,
)


def make_csv(start="2000-07-01 00:00", hours=24, cf=None, demand=None,
             stride=1):
    """Small helper rendering a series table as CSV text."""
    t0 = np.datetime64(start.replace(" ", "T"), "s")
    lines = ["timestamp,cf_wind,demand"]
    for i in range(hours):
        ts = t0 + np.timedelta64(i * stride * 3600, "s")
        c = 0.5 if cf is None else cf[i]
        d = 1.0 if demand is None else demand[i]
        lines.append(f"{str(ts).replace('T', ' ')},{c},{d}")
    return "\n".join(lines) + "\n"


def hourly_table(years, start_year=2000, rng=None):
    """A full July-to-June multi-year table at hourly resolution,
    covering leap days when the calendar has them."""
    t0 = np.datetime64(f"{start_year}-07-01T00:00", "s")
    t1 = np.datetime64(f"{start_year + years}-07-01T00:00", "s")
    n = int((t1 - t0) / np.timedelta64(3600, "s"))
    rng = rng or np.random.default_rng(0)
    body = ["timestamp,cf_wind,demand,heat_demand,cop"]
    ts = t0 + np.arange(n) * np.timedelta64(3600, "s")
    cf = rng.uniform(0, 1, n)
    dem = rng.uniform(1, 5, n)
    heat = rng.uniform(0, 2, n)
    cop = rng.uniform(2, 4, n)
    for i in range(n):
        body.append(f"{str(ts[i]).replace('T', ' ')},{cf[i]:.6f},"
                    f"{dem[i]:.6f},{heat[i]:.6f},{cop[i]:.6f}")
    return weather.ingest_series(io.StringIO("\n".join(body) + "\n"))


def test_ingest_accepts_constant_year():
    """A constant 0.5 capacity factor over 8760 hourly rows parses to a
    table of the same length."""
    table = weather.ingest_series(io.StringIO(make_csv(hours=8760)))
    assert table.n_rows == 8760
    assert table.stride_hours == 1.0
    assert np.all(table.columns["cf_wind"] == 0.5)


def test_ingest_reports_gap_with_context():
    """Dropping one timestamp from the middle is flagged as a gap that
    names the surrounding timestamps."""
    text = make_csv(hours=24).splitlines()
    del text[13]
    with pytest.raises(GapDetected, match="gap between"):
        weather.ingest_series(io.StringIO("\n".join(text)))


def test_ingest_rejects_out_of_range_capacity_factor():
    cf = [0.5] * 24
    cf[7] = 1.2
    with pytest.raises(OutOfRange, match="cf_wind"):
        weather.ingest_series(io.StringIO(make_csv(hours=24, cf=cf)))


def test_ingest_rejects_garbage_with_row_number():
    text = make_csv(hours=5).replace("0.5,1.0", "0.5,oops", 1)
    with pytest.raises(ParseError, match="row 2"):
        weather.ingest_series(io.StringIO(text))


def test_ingest_rejects_unprintable_column_names():
    text = make_csv(hours=5).replace("cf_wind", '"cf\rwind"', 1)
    with pytest.raises(ParseError, match="must be printable"):
        weather.ingest_series(io.StringIO(text))


_HEADER = "timestamp,cf_wind,demand\n"
_ROWS = "2000-07-01 00:00,0.5,1.0\n2000-07-01 01:00,0.5,1.0\n"


@pytest.mark.parametrize("text,error,message", [
    ("", ParseError, "empty table"),
    ("time,cf_wind\n2000-07-01 00:00,0.5\n", ParseError,
     "first column must be 'timestamp'"),
    ("timestamp,demand,demand\n" + _ROWS, ParseError,
     "column names must be unique and at least one"),
    (_HEADER + _ROWS + "2000-07-01 02:00,0.5\n", ParseError,
     "row 4: expected 3 fields, got 2"),
    (_HEADER + "noon,0.5,1.0\n", ParseError, "row 2: bad timestamp 'noon'"),
    (_HEADER + _ROWS.splitlines()[0] + "\n", ParseError,
     "need at least two rows"),
    (_HEADER + _ROWS + "2000-07-01 01:00,0.5,1.0\n", GapDetected,
     "timestamps not increasing at 2000-07-01T01:00:00"),
    (_HEADER + _ROWS.replace("0.5,1.0\n", "0.5,nan\n", 1), OutOfRange,
     "column 'demand' contains non-finite values"),
], ids=["empty", "no-timestamp", "repeated-name", "short-row",
        "bad-timestamp", "one-row", "not-increasing", "non-finite"])
def test_ingest_rejects_malformed_tables(text, error, message):
    with pytest.raises(DataError) as info:
        weather.ingest_series(io.StringIO(text))
    assert info.type is error
    assert str(info.value) == message


def test_aggregate_takes_block_means():
    """Hourly values 1,2,3,4 averaged in one 4-hour block give 2.5."""
    table = weather.ingest_series(
        io.StringIO(make_csv(hours=4, demand=[1.0, 2.0, 3.0, 4.0])))
    agg = weather.aggregate(table, 4)
    assert agg.n_rows == 1
    assert agg.columns["demand"][0] == pytest.approx(2.5)
    assert agg.stride_hours == 4.0


def test_aggregate_block_one_is_identity():
    table = weather.ingest_series(io.StringIO(make_csv(hours=24)))
    assert weather.aggregate(table, 1) is table


def test_aggregate_preserves_energy_totals():
    """Multiplying the 4-hour means by the block length recovers the
    annual demand total."""
    rng = np.random.default_rng(3)
    demand = rng.uniform(0, 10, 8760)
    table = weather.ingest_series(
        io.StringIO(make_csv(hours=8760, demand=demand)))
    agg = weather.aggregate(table, 4)
    assert 4 * agg.columns["demand"].sum() == pytest.approx(
        demand.sum(), rel=1e-9)


def test_aggregate_composes():
    """Aggregating by 2 then 3 equals aggregating by 6."""
    table = weather.ingest_series(io.StringIO(make_csv(hours=48)))
    once = weather.aggregate(table, 6)
    twice = weather.aggregate(weather.aggregate(table, 2), 3)
    for name in table.columns:
        assert np.allclose(once.columns[name], twice.columns[name],
                           atol=1e-12)


def test_aggregate_rejects_blocks_straddling_midnight():
    table = weather.ingest_series(io.StringIO(make_csv(hours=48)))
    with pytest.raises(IndivisibleBlock):
        weather.aggregate(table, 5)


def test_lattice_from_three_years():
    """Three full weather years give twelve monthly stages with three
    realizations each and 3^12 paths."""
    table = weather.aggregate(hourly_table(3), 4)
    lat = weather.build_lattice(table)
    assert lat.n_stages == 12
    assert all(lat.branch_count(t) == 3 for t in range(1, 13))
    assert lat.path_count == 3 ** 12
    assert lat.year_labels[0] == ("2000/01", "2001/02", "2002/03")
    # July has 31 days of six 4-hour blocks; February always 28
    assert lat.periods(1) == 186
    assert lat.periods(8) == 168
    for t in range(1, 13):
        for v in lat.realizations(t):
            assert v.period_hours == 4.0


def test_lattice_path_count_matches_large_sample():
    """Thirty-five years of twelve monthly stages give exactly 35^12
    synthetic paths, around 3.38e18."""
    stages = []
    vec = model.WeatherVector(capacity_factors={}, demand=np.ones(4),
                              heat_demand=np.zeros(4),
                              heat_pump_cop=np.ones(4))
    for _ in range(12):
        stages.append([vec] * 35)
    lat = weather.SamplingLattice.from_vectors(stages)
    assert lat.path_count == 35 ** 12
    assert lat.path_count == 3379220508056640625
    assert 3.3e18 < lat.path_count < 3.5e18
    small = weather.SamplingLattice.from_vectors([[vec] * 4] * 12)
    assert small.path_count == 16777216
    tiny = weather.SamplingLattice.from_vectors([[vec] * 2] * 3)
    assert tiny.path_count == 8


def test_lattice_rejects_partial_years():
    table = weather.aggregate(hourly_table(2), 4)
    cut = weather.SeriesTable(
        timestamps=table.timestamps[:-200],
        columns={k: v[:-200] for k, v in table.columns.items()},
        stride_hours=table.stride_hours)
    with pytest.raises(PartialYear):
        weather.build_lattice(cut)


def test_lattice_drops_leap_days():
    """A range covering 2004 (a leap year) still yields 168 February
    periods per realization."""
    table = weather.aggregate(hourly_table(3, start_year=2003), 4)
    lat = weather.build_lattice(table)
    feb_stage = 8  # July-first calendar: Jul=1 ... Feb=8
    assert lat.periods(feb_stage) == 168


def test_sample_path_deterministic_and_stratified():
    table = weather.aggregate(hourly_table(3), 4)
    lat = weather.build_lattice(table)
    p1 = weather.sample_path(lat, 42)
    p2 = weather.sample_path(lat, 42)
    assert p1.node_indices == p2.node_indices
    assert p1.year_labels == p2.year_labels
    assert p1.n_stages == 12
    for t, v in enumerate(p1.vectors, start=1):
        assert v.n_periods == lat.periods(t)


def test_single_node_lattice_has_unique_path():
    vec = model.WeatherVector(capacity_factors={}, demand=np.ones(4),
                              heat_demand=np.zeros(4),
                              heat_pump_cop=np.ones(4))
    lat = weather.SamplingLattice.from_vectors([[vec]] * 3)
    for seed in (0, 1, 99):
        assert weather.sample_path(lat, seed).node_indices == (0, 0, 0)


def test_sampling_frequencies_are_uniform():
    """Over 10,000 draws from a 35-node stage, each node's count stays
    within five standard errors of the uniform expectation."""
    vecs = [model.WeatherVector(capacity_factors={}, demand=np.full(2, i),
                                heat_demand=np.zeros(2),
                                heat_pump_cop=np.ones(2))
            for i in range(35)]
    lat = weather.SamplingLattice.from_vectors([vecs])
    rng = np.random.default_rng(2024)
    counts = np.zeros(35)
    n = 10000
    for _ in range(n):
        counts[weather.sample_path(lat, rng).node_indices[0]] += 1
    p = 1.0 / 35.0
    se = math.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 5 * se)


def test_historical_paths_follow_year_labels():
    table = weather.aggregate(hourly_table(3), 4)
    lat = weather.build_lattice(table)
    paths = weather.historical_paths(lat)
    assert len(paths) == 3
    for path in paths:
        assert len(set(path.year_labels)) == 1
    # chronological recombination: stage t of year y is that year's month
    first = paths[0]
    assert first.year_labels[0] == "2000/01"
    for t in range(12):
        assert first.vectors[t] is lat.stages[t][first.node_indices[t]]


def test_single_year_lattice_reproduces_the_data():
    table = weather.aggregate(hourly_table(1), 4)
    lat = weather.build_lattice(table)
    paths = weather.historical_paths(lat)
    assert len(paths) == 1
    total = sum(v.demand.sum() for v in paths[0].vectors)
    assert total == pytest.approx(table.columns["demand"].sum(), rel=1e-9)


def test_historical_paths_need_labels():
    vec = model.WeatherVector(capacity_factors={}, demand=np.ones(4),
                              heat_demand=np.zeros(4),
                              heat_pump_cop=np.ones(4))
    lat = weather.SamplingLattice.from_vectors([[vec, vec]] * 2)
    with pytest.raises(DataError):
        weather.historical_paths(lat)
    lat = weather.SamplingLattice.from_vectors(
        [[vec, vec]] * 2, year_labels=(("a", "b"), ("a", "c")))
    with pytest.raises(DataError, match="'b' has no node in stage 2"):
        weather.historical_paths(lat)


@pytest.mark.parametrize("labels,message", [
    ((("x", "x"),) * 2, "stage 1 repeats a year label"),
    ((("a", "b"), ("a", "a")), "stage 2 repeats a year label"),
    ((("a\rb", "c"),) * 2, "stage 1 year labels must be printable"),
])
def test_lattice_rejects_repeated_or_unprintable_year_labels(labels,
                                                             message):
    """Two nodes of one stage under one year label would give perfect
    foresight several paths of one name, and a control character in a
    label would reach the CSV tables."""
    vec = model.WeatherVector(capacity_factors={}, demand=np.ones(4),
                              heat_demand=np.zeros(4),
                              heat_pump_cop=np.ones(4))
    with pytest.raises(DataError, match=message):
        weather.SamplingLattice.from_vectors([[vec, vec]] * 2,
                                             year_labels=labels)


def test_autocorrelation_of_white_noise_is_inside_band():
    """For 10,000 i.i.d. samples every lag correlation should sit well
    inside +/- 0.03."""
    rng = np.random.default_rng(11)
    rho = weather.autocorrelation(rng.normal(size=10000), 12)
    assert np.all(np.abs(rho) < 0.03)


def test_autocorrelation_recovers_ar1_coefficient():
    """An AR(1) series with coefficient 0.8 shows a lag-1 correlation
    between 0.75 and 0.85."""
    rng = np.random.default_rng(5)
    n = 10000
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = 0.8 * x[i - 1] + rng.normal()
    rho = weather.autocorrelation(x, 3)
    assert 0.75 <= rho[0] <= 0.85
    assert rho[1] == pytest.approx(0.64, abs=0.05)


def test_autocorrelation_rejects_constant_series():
    with pytest.raises(ZeroVariance):
        weather.autocorrelation(np.full(100, 3.0), 2)


def test_deseasonalized_means_sum_to_zero_per_stage():
    table = weather.aggregate(hourly_table(4), 4)
    keys, dev = weather.stage_means(table, "month")
    assert len(keys) == 48
    for name, vals in dev.items():
        for s in range(12):
            mask = np.array([k[1] == s for k in keys])
            assert abs(vals[mask].sum()) <= 1e-9 * (1 + np.abs(vals).max())


def test_acf_report_on_independent_months_stays_in_band():
    """Monthly means built from independent draws show only noise-level
    autocorrelation relative to the 2/sqrt(n) band."""
    table = weather.aggregate(hourly_table(6), 4)
    report = weather.acf_test(table, "month", max_lag=6)
    assert report.n_samples == 72
    assert report.band == pytest.approx(2 / math.sqrt(72))
    for name, rho in report.correlations.items():
        assert np.all(np.abs(rho) <= 2.5 * report.band)
    text = report.to_table()
    assert text.splitlines()[0] == "variable,lag,rho,band"
    assert len(text.splitlines()) == 1 + 6 * len(report.correlations)


def test_acf_detects_persistent_monthly_signal():
    """Demand whose monthly means follow an AR(1) with coefficient 0.8
    is flagged by a lag-1 autocorrelation near 0.8."""
    rng = np.random.default_rng(9)
    years = 12
    n_months = years * 12
    m = np.zeros(n_months)
    for i in range(1, n_months):
        m[i] = 0.8 * m[i - 1] + rng.normal()
    t0 = np.datetime64("2000-07-01T00:00", "s")
    t1 = np.datetime64(f"{2000 + years}-07-01T00:00", "s")
    n = int((t1 - t0) / np.timedelta64(3600, "s"))
    ts = t0 + np.arange(n) * np.timedelta64(3600, "s")
    month_index = np.zeros(n, dtype=int)
    k = -1
    last = None
    for i, d in enumerate(ts.astype("datetime64[s]").tolist()):
        tag = (d.year, d.month)
        if tag != last:
            k += 1
            last = tag
        month_index[i] = k
    demand = 10.0 + m[month_index]
    lines = ["timestamp,demand"]
    for i in range(n):
        lines.append(f"{str(ts[i]).replace('T', ' ')},{demand[i]:.8f}")
    table = weather.ingest_series(io.StringIO("\n".join(lines) + "\n"))
    report = weather.acf_test(weather.aggregate(table, 4), "month", max_lag=3)
    rho1 = report.correlations["demand"][0]
    assert 0.6 <= rho1 <= 0.95
    assert rho1 > 3 * report.band


def test_acf_needs_three_years_and_variance():
    table = weather.aggregate(hourly_table(2), 4)
    with pytest.raises(PartialYear):
        weather.acf_test(table, "month")
    flat = weather.ingest_series(io.StringIO(make_csv(hours=24)))
    with pytest.raises(ValueError):
        weather.stage_means(flat, "fortnight")


def test_weekly_stage_means_cover_52_blocks():
    table = weather.aggregate(hourly_table(3), 4)
    keys, dev = weather.stage_means(table, "week")
    stages = {s for _, s in keys}
    assert stages == set(range(52))
    report = weather.acf_test(table, "week", max_lag=12)
    assert report.n_samples == 52 * 3
