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

Every command writes ``resolved_config.yaml`` (the fully resolved
configuration plus input content hashes) into the output directory, so
a result folder documents exactly what produced it. All randomness is
seeded from the config (``--seed`` overrides); reruns with identical
inputs give identical outputs.

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
import hashlib
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


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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
    """The path of the policy file named by ``--policy`` (default
    ``<out>/policy.json``) and the policy read from it."""
    path = Path(args.policy) if args.policy else out / POLICY_FILE
    return path, sddp.load_policy(path, cfg.catalog, cfg.scenario,
                                  cfg.lattice)


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


def _run_train(args, cfg: ScenarioConfig, out: Path) -> int:
    options = _training_options(cfg, args, out)
    policy = sddp.train(cfg.catalog, cfg.scenario, cfg.lattice, options)
    policy_path = out / POLICY_FILE
    sddp.save_policy(policy, policy_path)
    _write(out / "resolved_config.yaml", echo_text(cfg))
    lb = _bound(policy)
    print(f"trained {len(policy.training_log)} iterations, "
          f"lower bound {lb!r} MEUR, stopped: {policy.stopped_reason}")
    print(f"policy written to {policy_path}")
    return 0


def _run_simulate(args, cfg: ScenarioConfig, out: Path) -> int:
    policy_path, policy = _load_policy(args, cfg, out)
    trajectories = _simulate_paths(args, cfg, policy)

    lines = ["label,value"]
    for label, value in zip(policy.layout.labels, policy.capacities):
        lines.append(f"{label},{float(value)!r}")
    _write(out / "capacities.csv", "\n".join(lines) + "\n")

    ldes = [s.name for s in cfg.catalog.long_duration_storages]
    header = "path,stage,node,stage_cost_meur,theta_meur"
    header += "".join(f",closing_{name}_gwh" for name in ldes)
    rows = [header]
    price_rows = ["path,stage,period,price_eur_per_mwh"]
    value_rows = ["path,stage,period,storage,value_eur_per_mwh"]
    for p, trajectory in enumerate(trajectories):
        for rec in trajectory.records:
            node = "" if rec.node is None else rec.node
            theta = "" if rec.theta is None else repr(rec.theta)
            line = f"{p},{rec.stage},{node},{rec.stage_cost!r},{theta}"
            for name in ldes:
                if rec.dispatch is None:
                    line += ","
                else:
                    line += f",{float(rec.dispatch.level[name][-1])!r}"
            rows.append(line)
            if rec.dispatch is None:
                continue
            for h, price in enumerate(rec.dispatch.prices):
                price_rows.append(f"{p},{rec.stage},{h},{float(price)!r}")
            for name, series in rec.dispatch.storage_values.items():
                for h, value in enumerate(series):
                    value_rows.append(
                        f"{p},{rec.stage},{h},{name},{float(value)!r}")
    _write(out / "trajectories.csv", "\n".join(rows) + "\n")
    _write(out / "prices.csv", "\n".join(price_rows) + "\n")
    _write(out / "storage_values.csv", "\n".join(value_rows) + "\n")
    _write(out / "resolved_config.yaml",
           echo_text(cfg, {"policy_sha256": _sha256(policy_path)}))
    costs = np.array([t.total_cost for t in trajectories])
    se = costs.std(ddof=1) / np.sqrt(len(costs)) if len(costs) > 1 else 0.0
    print(f"simulated {len(costs)} paths: mean cost {costs.mean():.6e} MEUR "
          f"(se {se:.3e})")
    return 0


def _run_bench(args, cfg: ScenarioConfig, out: Path) -> int:
    ef = benchmarks.extensive_form(cfg.catalog, cfg.scenario, cfg.lattice)
    pf = benchmarks.perfect_foresight(cfg.catalog, cfg.scenario,
                                      benchmarks.enumerate_paths(cfg.lattice))
    for prefix, result in (("ef", ef), ("pf", pf)):
        for name, text in result.to_tables().items():
            _write(out / f"{prefix}_{name}.csv", text)
    _write(out / "resolved_config.yaml", echo_text(cfg))
    print(f"scenario tree optimum {ef.objective:.6e} MEUR over "
          f"{cfg.lattice.path_count} paths")
    print(f"perfect foresight optimum {pf.objective:.6e} MEUR")
    return 0


def _run_acf(args, cfg: ScenarioConfig, out: Path) -> int:
    if cfg.analysis.series is None:
        raise ConfigError(["analysis.series: required by the acf command"])
    table = weather.ingest_series(cfg.analysis.series)
    report = weather.acf_test(table, stage_length=cfg.analysis.stage_length,
                              max_lag=cfg.analysis.max_lag)
    _write(out / "acf.csv", report.to_table())
    _write(out / "resolved_config.yaml",
           echo_text(cfg, {"series_sha256": _sha256(cfg.analysis.series)}))
    worst = max(float(np.max(np.abs(r)))
                for r in report.correlations.values())
    print(f"acf over {report.n_samples} stage means, band "
          f"{report.band:.4f}, max |rho| {worst:.4f}")
    return 0


def _run_curves(args, cfg: ScenarioConfig, out: Path) -> int:
    policy_path, policy = _load_policy(args, cfg, out)
    if not cfg.catalog.long_duration_storages:
        raise DataError("curves need a long-duration storage in the catalog")
    name = cfg.catalog.long_duration_storages[0].name

    bid_lines = []
    for stage in range(cfg.lattice.n_stages + 1):
        try:
            curve = analysis.msv_curve(policy, stage,
                                       grid_step=cfg.analysis.grid_step,
                                       storage=name)
        except EmptyPool:
            continue
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        body = curve.to_table().splitlines()
        if not bid_lines:
            bid_lines.append(body[0])
        bid_lines.extend(body[1:])
    if not bid_lines:
        raise DataError("no cut pool has been trained; run train first")
    _write(out / "bids.csv", "\n".join(bid_lines) + "\n")

    trajectories = _simulate_paths(args, cfg, policy)
    duration = analysis.price_duration_curve(trajectories)
    _write(out / "duration.csv", duration.to_table())
    e_ini = float(policy.capacities[policy.layout.position(f"ini:{name}")])
    bands = analysis.trajectory_stats(trajectories, e_ini, storage=name)
    _write(out / "bands.csv", bands.to_table())
    _write(out / "resolved_config.yaml",
           echo_text(cfg, {"policy_sha256": _sha256(policy_path)}))
    print(f"wrote bid curve ({len(bid_lines) - 1} rows), duration curve, "
          f"and trajectory bands for {name!r}")
    return 0


def _run_oracle(args, cfg: ScenarioConfig, out: Path) -> int:
    options = _training_options(cfg, args, out)
    policy = sddp.train(cfg.catalog, cfg.scenario, cfg.lattice, options)
    ef = benchmarks.extensive_form(cfg.catalog, cfg.scenario, cfg.lattice)
    lb = _bound(policy)
    gap = abs(ef.objective - lb) / max(1.0, abs(ef.objective))
    row = "oracle_optimum_meur,sddp_lower_bound_meur,relative_gap\n" \
          f"{ef.objective!r},{lb!r},{gap!r}\n"
    _write(out / "oracle.csv", row)
    sddp.save_policy(policy, out / POLICY_FILE)
    _write(out / "resolved_config.yaml", echo_text(cfg))
    print(row, end="")
    return 0


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
        return _RUNNERS[args.command](args, cfg, out)
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
