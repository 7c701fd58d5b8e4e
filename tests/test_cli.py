"""End-to-end tests for the command-line front end (in-process)."""

import builtins
import copy
import csv
import hashlib
import json
import textwrap
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from stockpile import cli, lp, sddp
from stockpile.errors import SolverFailure

CONFIG = textwrap.dedent("""\
schema_version: 1
scenario: no_imports
catalog:
  generators:
    - name: wind
      capital_cost: 2.0
      max_capacity: 30.0
  storages:
    - name: cavern
      capital_cost_out: 1.5
      capital_cost_in: 1.0
      capital_cost_energy: 0.02
      efficiency_out: 0.4
      efficiency_in: 0.7
      max_power_out: 12.0
      max_power_in: 12.0
      max_energy: 60.0
      long_duration: true
lattice:
  period_hours: 1.0
  stages:
    - realizations:
        - demand: [4.0, 4.0]
          capacity_factors: {wind: [0.9, 0.8]}
    - realizations:
        - demand: [4.0, 4.0]
          capacity_factors: {wind: [1.0, 1.0]}
        - demand: [4.0, 4.0]
          capacity_factors: {wind: [0.05, 0.0]}
training:
  seed: 3
  max_iterations: 8
simulation:
  seed: 5
  n_paths: 6
""")


def setup_run(tmp_path, text=CONFIG):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    return str(cfg), str(out)


def test_train_writes_policy_log_and_echo(tmp_path, capsys):
    """Training produces the policy file, an iteration log, and the
    resolved-config echo, and reports the lower bound."""
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "policy.json").exists()
    log = (tmp_path / "out" / "training_log.csv").read_text().splitlines()
    assert log[0] == "iteration,seconds,lower_bound,forward_cost"
    assert len(log) == 1 + 8
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert echo["scenario"]["voll"] == 100_000.0
    assert "config_sha256" in echo["source"]
    assert "lower bound" in capsys.readouterr().out


def test_train_zero_iterations_keeps_empty_pools(tmp_path):
    """An explicit zero-iteration budget still writes a loadable policy
    whose cut pools are all empty."""
    cfg, out = setup_run(tmp_path)
    rc = cli.main(["train", "--config", cfg, "--out", out,
                   "--max-iterations", "0"])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "policy.json").read_text())
    assert all(cuts == [] for cuts in payload["pools"].values())


def test_train_solver_failure_exits_4(tmp_path, monkeypatch, capsys):
    """A stage solve that ends non-optimal stops training with exit
    code 4 and names the failing stage on stderr."""
    monkeypatch.setattr(lp, "solve", lambda inst, **kw: lp.LpSolution(
        lp.INFEASIBLE, None, None, None, None, 0, inst))
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 4
    assert ("solver failure: stage 0: solve ended infeasible"
            in capsys.readouterr().err)


def test_train_solver_failure_writes_the_failing_stage_lp(tmp_path,
                                                          monkeypatch, capsys):
    """A stage solve that fails once its stage carries a cut (the
    backward pass's solve of stage 1, realization 0) exits 4 after
    writing that stage's LP, its cut row included, to the output
    directory."""
    raw = lp.solve

    def failing(problem, **kw):
        if "cut:0" in problem.row_index:
            return lp.LpSolution(lp.INFEASIBLE, None, None, None, None, 0,
                                 problem)
        return raw(problem, **kw)

    monkeypatch.setattr(lp, "solve", failing)
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 4
    assert ("solver failure: stage 1 realization 0: solve ended infeasible"
            in capsys.readouterr().err)
    dumped = (tmp_path / "out" / "failure_stage1_node0.lp").read_text()
    rows = [line.split()[1] for line in dumped.splitlines()
            if line.startswith("r ")]
    assert rows[0] == "fish:gen:wind" and rows[-1] == "cut:0"


@pytest.mark.parametrize("command", ["train", "oracle"])
def test_training_flags_reach_train_options(tmp_path, monkeypatch,
                                            command):
    """--seed, --max-iterations, --time-limit and --threads override the
    config's training block in the options handed to sddp.train."""
    seen = []

    def fake_train(catalog, scenario, lattice, options):
        seen.append(options)
        raise SolverFailure("stop after reading the options")

    monkeypatch.setattr(sddp, "train", fake_train)
    cfg, out = setup_run(tmp_path)
    rc = cli.main([command, "--config", cfg, "--out", out, "--seed", "9",
                   "--max-iterations", "4", "--time-limit", "2.5",
                   "--threads", "2"])
    assert rc == 4
    assert seen == [sddp.TrainOptions(
        max_iterations=4, time_limit=2.5, seed=9, threads=2,
        log_path=str(tmp_path / "out" / "training_log.csv"))]


def test_simulate_missing_policy_exits_3(tmp_path, capsys):
    cfg, out = setup_run(tmp_path)
    rc = cli.main(["simulate", "--config", cfg, "--out", out])
    assert rc == 3
    assert "policy" in capsys.readouterr().err


def test_simulate_writes_tables(tmp_path):
    """Simulation writes capacity, trajectory, price, and storage-value
    tables covering every sampled path and stage."""
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
    assert rows[0].startswith("path,stage,node,stage_cost_meur,theta_meur")
    assert len(rows) == 1 + 6 * 3
    prices = (tmp_path / "out" / "prices.csv").read_text().splitlines()
    assert prices[0] == "path,stage,period,price_eur_per_mwh"
    assert len(prices) == 1 + 6 * 2 * 2
    for line in prices[1:]:
        float(line.rsplit(",", 1)[1])
    caps = (tmp_path / "out" / "capacities.csv").read_text().splitlines()
    assert caps[0] == "label,value"
    assert any(line.startswith("gen:wind,") for line in caps)
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert "policy_sha256" in echo["source"]


def test_training_is_reproducible_byte_for_byte(tmp_path):
    """Two runs from the same config produce identical policy files."""
    cfg, _ = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["train", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "policy.json").read_bytes()
    b = (tmp_path / "b" / "policy.json").read_bytes()
    assert a == b


def test_oracle_emits_small_gap_row(tmp_path, capsys):
    """On the tiny instance the trained lower bound matches the exact
    scenario-tree optimum to within 1e-4 relative."""
    text = CONFIG.replace("max_iterations: 8", "max_iterations: 60")
    cfg, out = setup_run(tmp_path, text)
    assert cli.main(["oracle", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines()
    assert lines[0] == "oracle_optimum_meur,sddp_lower_bound_meur,relative_gap"
    optimum, lb, gap = (float(v) for v in lines[1].split(","))
    assert gap <= 1e-4
    assert lb <= optimum * (1 + 1e-9)
    assert "relative_gap" in capsys.readouterr().out


def test_config_violation_exits_2(tmp_path, capsys):
    text = CONFIG.replace("schema_version: 1", "schema_version: 99")
    cfg, out = setup_run(tmp_path, text)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 2
    assert "schema_version" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value,minimum", [
    ("train", "--seed", "-1", "0"),
    ("train", "--max-iterations", "-1", "0"),
    ("train", "--time-limit", "-0.5", "0"),
    ("train", "--threads", "0", "1"),
    ("oracle", "--seed", "-1", "0"),
    ("oracle", "--threads", "0", "1"),
    ("simulate", "--seed", "-1", "0"),
    ("simulate", "--n-paths", "0", "1"),
    ("curves", "--seed", "-1", "0"),
    ("curves", "--n-paths", "0", "1"),
])
def test_out_of_range_override_exits_2(tmp_path, capsys, command, flag,
                                       value, minimum):
    """An override flag is held to the bound of the config key it
    replaces, and a value below it is rejected naming the flag."""
    cfg, out = setup_run(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--out", out, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= {minimum}, got {value}" in err
    assert not (tmp_path / "out").exists()


def test_train_without_training_block_exits_2(tmp_path, capsys):
    text = CONFIG.split("training:")[0]
    cfg, out = setup_run(tmp_path, text)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 2
    assert "training" in capsys.readouterr().err


@pytest.mark.parametrize("labels,message", [
    (("a\rb", "b"),
     "stage 2 year labels must be printable, got ('a\\rb', 'b')"),
    (("x", "x"), "stage 2 repeats a year label"),
], ids=["carriage-return", "repeated"])
def test_bad_year_label_exits_2(tmp_path, capsys, labels, message):
    """A year label with a carriage return, which would split a row of
    the CSV tables, or one repeated within a stage is a config error."""
    doc = yaml.safe_load(CONFIG)
    for node, label in zip(doc["lattice"]["stages"][1]["realizations"],
                           labels):
        node["year_label"] = label
    cfg, out = setup_run(tmp_path, yaml.safe_dump(doc))
    assert cli.main(["train", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: lattice: {message}"]


def test_simulate_without_a_seed_exits_2_and_writes_no_echo(tmp_path,
                                                           capsys):
    """With no simulation block and no --seed, simulate stops at the
    seed, and a run that stops writes no resolved-config echo."""
    cfg, out = setup_run(tmp_path, CONFIG.split("simulation:")[0])
    assert cli.main(["train", "--config", cfg, "--out", out,
                     "--max-iterations", "0"]) == 0
    capsys.readouterr()
    other = tmp_path / "other"
    assert cli.main(["simulate", "--config", cfg, "--out", str(other),
                     "--policy", str(Path(out) / "policy.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: simulation.seed: required by this command"]
    assert not (other / "resolved_config.yaml").exists()


def test_acf_without_a_series_exits_2(tmp_path, capsys):
    cfg, out = setup_run(tmp_path)
    assert cli.main(["acf", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: analysis.series: required by the acf command"]


def test_curves_without_long_duration_storage_exits_3(tmp_path, capsys):
    cfg, out = setup_run(tmp_path, CONFIG.replace("long_duration: true",
                                                  "long_duration: false"))
    assert cli.main(["train", "--config", cfg, "--out", out,
                     "--max-iterations", "0"]) == 0
    capsys.readouterr()
    assert cli.main(["curves", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "data error: curves need a long-duration storage in the catalog"]


def test_missing_config_file_exits_3(tmp_path):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
    assert rc == 3


def test_bench_writes_reference_tables(tmp_path, capsys):
    cfg, out = setup_run(tmp_path)
    assert cli.main(["bench", "--config", cfg, "--out", out]) == 0
    for name in ("ef_capacities", "ef_costs", "ef_prices",
                 "pf_capacities", "pf_costs", "pf_prices"):
        assert (tmp_path / "out" / f"{name}.csv").exists()
    said = capsys.readouterr().out
    assert "scenario tree optimum" in said
    assert "perfect foresight optimum" in said


def test_curves_writes_bid_duration_and_bands(tmp_path):
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    assert cli.main(["curves", "--config", cfg, "--out", out]) == 0
    bids = (tmp_path / "out" / "bids.csv").read_text().splitlines()
    assert bids[0] == "stage,level,msv,charge_bid,discharge_bid"
    assert len(bids) > 1
    duration = (tmp_path / "out" / "duration.csv").read_text().splitlines()
    assert duration[0] == "rank,share,price"
    bands = (tmp_path / "out" / "bands.csv").read_text().splitlines()
    assert bands[0] == "stage,stat,value"
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert echo["source"]["policy_sha256"] == hashlib.sha256(
        (tmp_path / "out" / "policy.json").read_bytes()).hexdigest()


def test_acf_command_writes_report(tmp_path):
    """A three-year daily series yields a lag table for each column."""
    start = datetime(1990, 7, 1)
    end = datetime(1993, 6, 30)
    rng = np.random.default_rng(1)
    rows = ["timestamp,demand,cf_wind"]
    day = start
    while day <= end:
        rows.append(f"{day.isoformat()},{5 + rng.normal():.4f},"
                    f"{rng.uniform(0, 1):.4f}")
        day += timedelta(days=1)
    series = tmp_path / "daily.csv"
    series.write_text("\n".join(rows) + "\n")
    text = CONFIG + textwrap.dedent(f"""\
    analysis:
      series: {series}
      max_lag: 6
    """)
    cfg, out = setup_run(tmp_path, text)
    assert cli.main(["acf", "--config", cfg, "--out", out]) == 0
    table = (tmp_path / "out" / "acf.csv").read_text().splitlines()
    assert table[0] == "variable,lag,rho,band"
    assert len(table) == 1 + 2 * 6
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert echo["source"]["series_sha256"] == hashlib.sha256(
        series.read_bytes()).hexdigest()


def test_acf_reads_its_series_once(tmp_path, monkeypatch):
    """The acf command opens its series file once, so the echoed hash
    pins the bytes the report was computed from."""
    cfg, out = setup_run(tmp_path, _series_config(tmp_path))
    series = str(tmp_path / "daily.csv")
    raw_open = builtins.open
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return raw_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert cli.main(["acf", "--config", cfg, "--out", out]) == 0
    monkeypatch.undo()
    assert opened.count(series) == 1
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert echo["source"]["series_sha256"] == hashlib.sha256(
        Path(series).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["simulate", "curves"])
def test_policy_commands_read_the_policy_once(tmp_path, monkeypatch,
                                              command):
    """simulate and curves open the policy file once, so the echoed
    hash pins the bytes the policy was read from."""
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    policy = str(tmp_path / "out" / "policy.json")
    raw_open = builtins.open
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return raw_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert cli.main([command, "--config", cfg, "--out", out]) == 0
    monkeypatch.undo()
    assert opened.count(policy) == 1
    echo = yaml.safe_load((tmp_path / "out" / "resolved_config.yaml")
                          .read_text())
    assert echo["source"]["policy_sha256"] == hashlib.sha256(
        Path(policy).read_bytes()).hexdigest()


def _exit_code(argv):
    """The exit code of cli.main, argparse's rejections included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _dotted(path):
    """The violation path of a key path: ("a", 0, "b") -> "a[0].b"."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


def _with(doc, path, value):
    """A deep copy of ``doc`` with the key at ``path`` set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# CONFIG with every number key the reader checks given: a scenario
# mapping with spot terms, contract terms, every generator and storage
# number, a gap check and an analysis block.
CHECKED = yaml.safe_load(CONFIG)
CHECKED.update(scenario={"name": "capped", "voll": 9000.0,
                         "spot_price": 120.0, "spot_cap": 2.5},
               annualization_rate=0.05, analysis={"grid_step": 5.0})
CHECKED["catalog"].update(ltc_price=80.0, ltc_max=1.5)
CHECKED["catalog"]["generators"][0].update(marginal_cost=1.0,
                                           min_capacity=0.0)
CHECKED["training"].update(time_limit=30.0, stop_on_gap=True, gap_paths=4,
                           gap_check_every=2)

NAN = float("nan")
_NAN_KEYS = [
    ("scenario", "voll"), ("scenario", "spot_price"), ("scenario", "spot_cap"),
    ("catalog", "ltc_price"), ("catalog", "ltc_max"),
    *[("catalog", "generators", 0, key) for key in (
        "capital_cost", "marginal_cost", "max_capacity", "min_capacity")],
    *[("catalog", "storages", 0, key) for key in (
        "capital_cost_out", "capital_cost_in", "capital_cost_energy",
        "max_power_out", "max_power_in", "max_energy")],
    ("training", "time_limit"), ("analysis", "grid_step"),
    ("annualization_rate",),
]


@pytest.mark.parametrize("path,value,flags,message", [
    *[(path, NAN, [], "expected a number, got nan") for path in _NAN_KEYS],
    (("training", "gap_paths"), 1, [], "must be >= 2, got 1"),
    (("training", "gap_check_every"), 0, [], "must be >= 1, got 0"),
    ((), None, ["--time-limit", "nan"], "expected a number, got nan"),
], ids=[*map(_dotted, _NAN_KEYS), "gap_paths", "gap_check_every",
        "--time-limit"])
def test_nan_or_out_of_range_value_exits_2(tmp_path, capsys, path, value,
                                           flags, message):
    """NaN in any number key, a gap check that cannot run and a NaN
    time-limit flag are each rejected as the one violation (exit 2),
    before training starts."""
    doc = _with(CHECKED, path, value) if path else CHECKED
    cfg, out = setup_run(tmp_path, yaml.safe_dump(doc))
    assert _exit_code(["train", "--config", cfg, "--out", out, *flags]) == 2
    err = capsys.readouterr().err
    if path:
        assert err.splitlines() == [
            f"config error: {_dotted(path)}: {message}"]
    else:
        assert f"argument {flags[0]}: {message}" in err
    assert not (tmp_path / "out" / "policy.json").exists()


_INFINITE_COSTS = [
    (("catalog", "generators", 0, "capital_cost"),
     "catalog.generators[0]: generator 'wind' has a negative or infinite "
     "cost"),
    (("catalog", "storages", 0, "capital_cost_energy"),
     "catalog.storages[0]: storage 'cavern' has a negative or infinite "
     "cost"),
    (("scenario", "voll"),
     "scenario: lost-load price must be finite and >= 0"),
    (("scenario", "spot_price"),
     "scenario: spot price must be finite and >= 0"),
    (("catalog", "ltc_price"),
     "catalog: contract price must be finite and >= 0"),
    (("catalog", "generators", 0, "min_capacity"),
     "catalog.generators[0]: generator 'wind' has a negative or infinite "
     "lower bound"),
]


@pytest.mark.parametrize("path,message", _INFINITE_COSTS,
                         ids=[_dotted(path) for path, _ in _INFINITE_COSTS])
def test_infinite_cost_exits_2(tmp_path, capsys, path, message):
    """An infinite cost or price, or an infinite lower capacity bound,
    is rejected by the model constructor and reported at its entry's
    path (exit 2); an infinite upper capacity bound stays legal."""
    doc = _with(CHECKED, ("catalog", "generators", 0, "max_capacity"),
                float("inf"))
    cfg, out = setup_run(tmp_path, yaml.safe_dump(_with(doc, path,
                                                        float("inf"))))
    assert cli.main(["train", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {message}"]


def _series_config(tmp_path, years=3, gap=False):
    """CONFIG with a daily series of whole July-to-June years for acf;
    ``gap`` drops New Year's Day 1991."""
    rng = np.random.default_rng(1)
    day, end = datetime(1990, 7, 1), datetime(1990 + years, 6, 30)
    rows = ["timestamp,demand,cf_wind"]
    while day <= end:
        if not (gap and day == datetime(1991, 1, 1)):
            rows.append(f"{day.isoformat()},{5 + rng.normal():.4f},"
                        f"{rng.uniform(0, 1):.4f}")
        day += timedelta(days=1)
    series = tmp_path / "daily.csv"
    series.write_text("\n".join(rows) + "\n")
    return CONFIG + f"analysis:\n  series: {series}\n"


def _binary_series_config(tmp_path):
    series = tmp_path / "daily.csv"
    series.write_bytes(b"timestamp,demand\n\xff\xfe\x00\x81\n")
    return CONFIG + f"analysis:\n  series: {series}\n"


def _policy(tmp_path, edit):
    """--policy naming a zero-iteration policy of CONFIG whose payload
    went through ``edit``."""
    cfg, out = setup_run(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out", out,
                     "--max-iterations", "0"]) == 0
    path = tmp_path / "out" / "policy.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return ["--policy", str(path)]


DATA_ERRORS = {
    "series with a gap": lambda tmp: (
        "acf", _series_config(tmp, gap=True), []),
    "series under three years": lambda tmp: (
        "acf", _series_config(tmp, years=2), []),
    "series not text": lambda tmp: ("acf", _binary_series_config(tmp), []),
    "series missing": lambda tmp: (
        "acf", CONFIG + f"analysis:\n  series: {tmp / 'gone.csv'}\n", []),
    "policy is a list": lambda tmp: (
        "simulate", CONFIG, _policy(tmp, lambda payload: [payload])),
    "policy without pools": lambda tmp: (
        "simulate", CONFIG, _policy(tmp, lambda payload: {
            k: v for k, v in payload.items() if k != "pools"})),
    "policy without stage bases": lambda tmp: (
        "simulate", CONFIG, _policy(tmp, lambda payload: {
            k: v for k, v in payload.items() if k != "stage_bases"})),
    "policy missing": lambda tmp: (
        "curves", CONFIG, ["--policy", str(tmp / "gone.json")]),
    "policy a directory": lambda tmp: (
        "simulate", CONFIG, ["--policy", str(tmp)]),
    "policy not JSON": lambda tmp: (
        "curves", CONFIG, ["--policy", _write(tmp / "bad.json", "{not")]),
}


def _write(path, text):
    """Write ``text`` to ``path`` and return the path as a string."""
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case", DATA_ERRORS)
def test_unusable_series_or_policy_exits_3(tmp_path, capsys, case):
    """A series the acf command cannot use, or a policy file that is not
    a saved policy, is a data error (exit 3), not a traceback."""
    command, text, flags = DATA_ERRORS[case](tmp_path)
    cfg, out = setup_run(tmp_path, text)
    assert cli.main([command, "--config", cfg, "--out", out, *flags]) == 3
    assert "data error: " in capsys.readouterr().err


def _readme_run(tmp_path, edit=None):
    """The complete config README.md shows, changed in place by
    ``edit`` when given and trained into ``out``; the config path and
    the output directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("A complete config for a toy two-stage system:\n\n"
                        "```yaml\n", 1)[1].split("```", 1)[0]
    if edit is not None:
        doc = yaml.safe_load(text)
        edit(doc)
        text = yaml.safe_dump(doc)
    cfg, out = setup_run(tmp_path, text)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    return cfg, out


def test_policy_pool_outside_stages_exits_3(tmp_path, capsys):
    """A policy file with a cut pool keyed outside 1..n_stages is a data
    error, even when that pool is empty."""
    cfg, out = _readme_run(tmp_path)
    path = tmp_path / "out" / "policy.json"
    payload = json.loads(path.read_text())
    payload["pools"]["99"] = []
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 3
    assert "stage '99', outside 1..2" in capsys.readouterr().err


def test_policy_cut_of_the_wrong_size_exits_3(tmp_path, capsys):
    """A policy file whose cut has one slope entry and one trial-state
    entry too many is a data error (exit 3), not a traceback from the
    simulation."""
    cfg, out = _readme_run(tmp_path)
    path = tmp_path / "out" / "policy.json"
    payload = json.loads(path.read_text())
    cut = payload["pools"]["2"][0]
    cut["slope"].append(0.0)
    cut["trial_state"].append(0.0)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg, "--out", out,
                     "--policy", str(edited)]) == 3
    assert "state size" in capsys.readouterr().err


@pytest.mark.parametrize("defect", ["short", "nan"])
def test_policy_capacities_of_the_wrong_shape_or_not_finite_exit_3(
        tmp_path, capsys, defect):
    """A policy file whose capacities lack an entry, or hold a NaN, is a
    data error (exit 3) under both commands that load a policy, not a
    traceback or a misleading message from the run."""
    cfg, out = _readme_run(tmp_path)
    path = tmp_path / "out" / "policy.json"
    payload = json.loads(path.read_text())
    if defect == "short":
        payload["capacities"].pop()
    else:
        payload["capacities"][0] = float("nan")
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    for command in ("simulate", "curves"):
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", out,
                         "--policy", str(edited)]) == 3
        assert "policy capacities" in capsys.readouterr().err


def test_simulate_solves_no_capacity_stage(tmp_path, monkeypatch):
    """Simulating one path of the README config solves its two dispatch
    stages and nothing else: the loaded policy brings its capacities."""
    cfg, out = _readme_run(tmp_path)
    solved = []
    raw = lp.solve
    monkeypatch.setattr(lp, "solve", lambda inst, **kw: solved.append(
        inst.n_rows) or raw(inst, **kw))
    assert cli.main(["simulate", "--config", cfg, "--out", out,
                     "--n-paths", "1"]) == 0
    assert len(solved) == 2


def test_tables_keep_names_with_commas_and_quotes_intact(tmp_path):
    """A storage name and a year label holding a comma and a double
    quote are quoted in every table simulate, bench and curves write:
    read back as CSV, each row has its header's field count and the
    names come back as given."""
    name, year = 'cavern,"north"', '2010, "dry"'

    def edit(doc):
        doc["catalog"]["storages"][0]["name"] = name
        for stage in doc["lattice"]["stages"]:
            stage["realizations"][0]["year_label"] = year

    cfg, out = _readme_run(tmp_path, edit)
    for command in ("simulate", "bench", "curves"):
        assert cli.main([command, "--config", cfg, "--out", out]) == 0
    tables = {}
    for path in sorted((tmp_path / "out").glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path
        tables[path.stem] = header, rows
    assert {"capacities", "trajectories", "prices", "storage_values",
            "ef_capacities", "pf_costs", "pf_prices", "bids", "duration",
            "bands"} <= set(tables)
    assert f"closing_{name}_gwh" in tables["trajectories"][0]
    assert {row[3] for row in tables["storage_values"][1]} == {name}
    assert name in {row[0] for row in tables["ef_capacities"][1]}
    for table in ("pf_costs", "pf_prices"):
        assert year in {row[0] for row in tables[table][1]}
