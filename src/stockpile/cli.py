"""Batch command-line front end.

Commands (each takes ``--config`` and ``--out``):

``train``
    Train a policy; writes ``policy.json``, ``training_log.csv``, and
    the resolved-config echo.
``simulate``
    Run a trained policy over freshly sampled paths; writes
    ``capacities.csv``, ``trajectories.csv``, ``prices.csv``,
    ``storage_values.csv``.
``bench``
    Solve the scenario-tree program and the perfect-foresight program
    over all paths; writes ``ef_*.csv`` and ``pf_*.csv`` tables.
``acf``
    Autocorrelation report for the series file named in the config;
    writes ``acf.csv``.
``curves``
    Bid curves, price duration curve, and storage trajectory bands
    from a trained policy; writes ``bids.csv``, ``duration.csv``,
    ``bands.csv``.
``oracle``
    Train, solve the scenario tree, and emit the comparison row
    (oracle optimum, trained lower bound, relative gap) to stdout and
    ``oracle.csv``.

Every command that succeeds writes ``resolved_config.yaml`` (the fully
resolved configuration plus input content hashes) into the output
directory, so a result folder documents exactly what produced it. All
randomness is seeded from the config (``--seed`` overrides); reruns
with identical inputs give identical outputs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 solver
failure, 1 unexpected internal error. A solver failure in a stage
problem first writes the failing LP (:func:`stockpile.lp.dump_instance`)
to ``failure_stage0.lp`` for the capacity stage, or
``failure_stage<t>_node<n>.lp`` for realization n of dispatch stage t,
in the output directory, so that the failure can be replayed.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis, benchmarks, lp, sddp, weather
from .config import (
    ScenarioConfig,
    SimulationOptions,
    check_value,
    echo_text,
    field_kind,
    validate_config,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyPool,
    SolverFailure,
    StockpileError,
)
from .tables import csv_text

POLICY_FILE = "policy.json"

# The training overrides of train and oracle, (TrainOptions field,
# help); flags are field names dashed.
_TRAINING_FLAGS = (
    ("seed", "override training seed"),
    ("max_iterations", "override iteration budget"),
    ("time_limit", "override wall-clock budget in seconds"),
    ("threads", "override backward-pass thread count"),
)


def _flag_type(cls, key):
    """An argparse type for field ``key`` of dataclass ``cls``, held to
    the rules of the config key it overrides."""
    kind = field_kind(cls, key)[0]

    def parse(text):
        value, problem = check_value(kind(text), kind, key)
        if problem is not None:
            raise argparse.ArgumentTypeError(problem)
        return value
    parse.__name__ = kind.__name__      # argparse names it in its errors
    return parse


def _add_training_flags(p) -> None:
    for key, text in _TRAINING_FLAGS:
        p.add_argument("--" + key.replace("_", "-"),
                       type=_flag_type(sddp.TrainOptions, key), help=text)


def _add_simulation_flags(p) -> None:
    p.add_argument("--policy",
                   help=f"policy file (default <out>/{POLICY_FILE})")
    p.add_argument("--seed", type=_flag_type(SimulationOptions, "seed"),
                   help="override simulation seed")
    p.add_argument("--n-paths", type=_flag_type(SimulationOptions, "n_paths"),
                   help="override number of sampled paths")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stockpile",
        description="Capacity expansion and storage bidding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("train", "train a policy", _add_training_flags),
        ("simulate", "simulate a trained policy", _add_simulation_flags),
        ("bench", "solve the reference programs", None),
        ("acf", "stage-mean autocorrelation report", None),
        ("curves", "bid and duration curve tables", _add_simulation_flags),
        ("oracle", "train and compare against the exact tree",
         _add_training_flags),
    )
    for command, text, add_flags in commands:
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", required=True,
                       help="path to the YAML run configuration")
        p.add_argument("--out", default="out",
                       help="output directory (created if missing)")
        if add_flags is not None:
            add_flags(p)
    return parser


def _training_options(cfg: ScenarioConfig, args,
                      out: Path) -> sddp.TrainOptions:
    if cfg.training is None:
        raise ConfigError(["training: block required by this command"])
    overrides = {"log_path": str(out / "training_log.csv")}
    for key, _ in _TRAINING_FLAGS:
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    return dataclasses.replace(cfg.training, **overrides)


def _load_policy(args, cfg: ScenarioConfig, out: Path):
    """The policy in the file named by ``--policy`` (default
    ``<out>/policy.json``) and the SHA-256 of the bytes it was read
    from."""
    path = Path(args.policy) if args.policy else out / POLICY_FILE
    return sddp.load_policy(path, cfg.catalog, cfg.scenario, cfg.lattice)


def _simulate_paths(args, cfg: ScenarioConfig, policy) -> list:
    """Simulate ``policy`` over freshly sampled paths; ``--seed`` and
    ``--n-paths`` override the config's simulation block."""
    seed = args.seed if args.seed is not None else cfg.simulation.seed
    if seed is None:
        raise ConfigError(["simulation.seed: required by this command"])
    n_paths = args.n_paths if args.n_paths is not None else \
        cfg.simulation.n_paths
    rng = np.random.default_rng(seed)
    paths = [weather.sample_path(cfg.lattice, rng) for _ in range(n_paths)]
    return sddp.simulate(policy, paths)


def _bound(policy: sddp.Policy) -> float:
    """The policy's lower bound: its last training-log entry, or a
    capacity-stage solve when it was trained zero iterations."""
    if policy.training_log:
        return policy.training_log[-1][1]
    return sddp.lower_bound(policy)


def _run_train(args, cfg: ScenarioConfig, out: Path) -> dict:
    options = _training_options(cfg, args, out)
    policy = sddp.train(cfg.catalog, cfg.scenario, cfg.lattice, options)
    policy_path = out / POLICY_FILE
    sddp.save_policy(policy, policy_path)
    lb = _bound(policy)
    print(f"trained {len(policy.training_log)} iterations, "
          f"lower bound {lb!r} MEUR, stopped: {policy.stopped_reason}")
    print(f"policy written to {policy_path}")
    return {}


def _run_simulate(args, cfg: ScenarioConfig, out: Path) -> dict:
    policy, policy_sha256 = _load_policy(args, cfg, out)
    trajectories = _simulate_paths(args, cfg, policy)

    (out / "capacities.csv").write_text(csv_text(
        ("label", "value"),
        zip(policy.layout.labels, map(float, policy.capacities))))

    ldes = [s.name for s in cfg.catalog.long_duration_storages]
    rows, price_rows, value_rows = [], [], []
    for p, trajectory in enumerate(trajectories):
        for rec in trajectory.records:
            d = rec.dispatch
            rows.append((p, rec.stage, rec.node, rec.stage_cost, rec.theta,
                         *(None if d is None else float(d.level[name][-1])
                           for name in ldes)))
            if d is None:
                continue
            price_rows += [(p, rec.stage, h, price)
                           for h, price in enumerate(d.prices.tolist())]
            value_rows += [(p, rec.stage, h, name, value)
                           for name, series in d.storage_values.items()
                           for h, value in enumerate(series.tolist())]
    (out / "trajectories.csv").write_text(csv_text(
        ("path", "stage", "node", "stage_cost_meur", "theta_meur",
         *(f"closing_{name}_gwh" for name in ldes)), rows))
    (out / "prices.csv").write_text(csv_text(
        ("path", "stage", "period", "price_eur_per_mwh"), price_rows))
    (out / "storage_values.csv").write_text(csv_text(
        ("path", "stage", "period", "storage", "value_eur_per_mwh"),
        value_rows))
    costs = np.array([t.total_cost for t in trajectories])
    se = costs.std(ddof=1) / np.sqrt(len(costs)) if len(costs) > 1 else 0.0
    print(f"simulated {len(costs)} paths: mean cost {costs.mean():.6e} MEUR "
          f"(se {se:.3e})")
    return {"policy_sha256": policy_sha256}


def _run_bench(args, cfg: ScenarioConfig, out: Path) -> dict:
    ef = benchmarks.extensive_form(cfg.catalog, cfg.scenario, cfg.lattice)
    pf = benchmarks.perfect_foresight(cfg.catalog, cfg.scenario,
                                      benchmarks.enumerate_paths(cfg.lattice))
    for prefix, result in (("ef", ef), ("pf", pf)):
        for name, text in result.to_tables().items():
            (out / f"{prefix}_{name}.csv").write_text(text)
    print(f"scenario tree optimum {ef.objective:.6e} MEUR over "
          f"{cfg.lattice.path_count} paths")
    print(f"perfect foresight optimum {pf.objective:.6e} MEUR")
    return {}


def _run_acf(args, cfg: ScenarioConfig, out: Path) -> dict:
    if cfg.analysis.series is None:
        raise ConfigError(["analysis.series: required by the acf command"])
    table, digest = weather.read_series(cfg.analysis.series)
    report = weather.acf_test(table, stage_length=cfg.analysis.stage_length,
                              max_lag=cfg.analysis.max_lag)
    (out / "acf.csv").write_text(report.to_table())
    worst = max(float(np.max(np.abs(r)))
                for r in report.correlations.values())
    print(f"acf over {report.n_samples} stage means, band "
          f"{report.band:.4f}, max |rho| {worst:.4f}")
    return {"series_sha256": digest}


def _run_curves(args, cfg: ScenarioConfig, out: Path) -> dict:
    policy, policy_sha256 = _load_policy(args, cfg, out)
    if not cfg.catalog.long_duration_storages:
        raise DataError("curves need a long-duration storage in the catalog")
    name = cfg.catalog.long_duration_storages[0].name

    bid_rows = []
    for stage in range(cfg.lattice.n_stages + 1):
        try:
            curve = analysis.msv_curve(policy, stage,
                                       grid_step=cfg.analysis.grid_step,
                                       storage=name)
        except EmptyPool:
            continue
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        bid_rows += curve.rows()
    (out / "bids.csv").write_text(csv_text(analysis.BID_HEADER, bid_rows))

    trajectories = _simulate_paths(args, cfg, policy)
    duration = analysis.price_duration_curve(trajectories)
    (out / "duration.csv").write_text(duration.to_table())
    e_ini = float(policy.capacities[policy.layout.position(f"ini:{name}")])
    bands = analysis.trajectory_stats(trajectories, e_ini, storage=name)
    (out / "bands.csv").write_text(bands.to_table())
    print(f"wrote bid curve ({len(bid_rows)} rows), duration curve, "
          f"and trajectory bands for {name!r}")
    return {"policy_sha256": policy_sha256}


def _run_oracle(args, cfg: ScenarioConfig, out: Path) -> dict:
    options = _training_options(cfg, args, out)
    policy = sddp.train(cfg.catalog, cfg.scenario, cfg.lattice, options)
    ef = benchmarks.extensive_form(cfg.catalog, cfg.scenario, cfg.lattice)
    lb = _bound(policy)
    gap = abs(ef.objective - lb) / max(1.0, abs(ef.objective))
    table = csv_text(
        ("oracle_optimum_meur", "sddp_lower_bound_meur", "relative_gap"),
        [(ef.objective, lb, gap)])
    (out / "oracle.csv").write_text(table)
    sddp.save_policy(policy, out / POLICY_FILE)
    print(table, end="")
    return {}


# Each runner writes its tables and returns the content hashes of the
# inputs it read beyond the config, which main adds to the echo.
_RUNNERS = {
    "train": _run_train,
    "simulate": _run_simulate,
    "bench": _run_bench,
    "acf": _run_acf,
    "curves": _run_curves,
    "oracle": _run_oracle,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = validate_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        hashes = _RUNNERS[args.command](args, cfg, out)
        (out / "resolved_config.yaml").write_text(echo_text(cfg, hashes))
        return 0
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.instance is not None and exc.stage is not None:
            name = (f"failure_stage{exc.stage}.lp" if exc.node is None
                    else f"failure_stage{exc.stage}_node{exc.node}.lp")
            lp.dump_instance(exc.instance, out / name)
            print(f"wrote the failing LP to {out / name}", file=sys.stderr)
        return 4
    except StockpileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
