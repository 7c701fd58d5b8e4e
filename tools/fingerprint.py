"""Fingerprint the numerical results of a stockpile source tree.

    python3 tools/fingerprint.py [ROOT]

ROOT (default: the checkout that holds this script) is a tree with the
package in ``src/stockpile``, the benchmark inputs in
``perfbench/instances.py`` and a ``README.md``; all are taken from ROOT
and only read. The script runs a fixed set of seeded computations in
three groups and prints SHA-256 digests:

``results``
    over all three groups, and then over each group alone:
    ``canonical``, the canonical instance trained 40 iterations with
    each of four training seeds (the whole policy payload); ``sector``,
    the sector system trained 8 iterations and simulated over 24
    sampled paths (policy payload and every trajectory record); and
    ``references``, the extensive-form and perfect-foresight programs of
    three seeded sector lattices (objective and output tables);
``solves``
    over every ``lp.solve`` result along the way: status, objective,
    primal, duals and reduced costs;
``kkt``
    over the KKT audit (``analysis.kkt_audit``) of every simulated
    sector trajectory: the periods checked and each violation. It is
    printed apart and is in no other digest, so the results digests
    read as they did before it was added.
``outputs``
    over every file that the command line's ``train``, ``simulate``,
    ``bench``, ``curves`` and ``oracle`` write for the config README.md
    shows, each command into its own directory, and then over each file
    alone. The wall-clock ``seconds`` column of ``training_log.csv`` is
    dropped before hashing. These runs come after the ``lp.solve`` spy
    is removed, so their solves are in no other digest.
``stages``
    over the solves of the dispatch stages ``tools/stage_scaling.py``
    solves through one ``lp.LpState`` at H = 24, 96 and 192 periods,
    with its weather, decision, level move and cut: cold, after the
    incoming level moves and after the cut is appended, each solve's
    status, objective, primal, duals and reduced costs. These LPs have
    the rows of a full stage, with many entries each. It is printed
    apart, with the count of those solves and the totals of their
    counters, and is in no other digest.

It also prints the cut count of each pool of every canonical policy
(by training seed) and of the sector policy, then the number of those
solves, split by the path that produced each (``LpSolution.start``:
cold, warm, or fallback, a cold solve after a restart that could not
finish; "unlabelled" on a tree whose solutions do not say), and the
totals of the solve counters (dual and primal pivots and refactors;
"n/a" on a tree without them), and the longest restart, the most
pivots any solve with ``start`` warm took, beside ``lp._PIVOT_LIMIT``,
the pivots a restart may take before it falls back to a cold solve
("n/a" on a tree whose solutions do not say how they started). A line
of its own splits the sector simulation's solves alone the same way.
None of these is part of a digest.

Two trees that print the same digests solved every LP of these runs to
the same bits; a group's digest alone tells which groups a change
moved. To check that a refactor changes no number, run the script on a
checkout of the parent commit and on the change, on the same machine,
and compare the two outputs. Run as a script, it pins BLAS to one
thread before numpy loads, because the simplex's pivot sequence can
depend on it; imported, it leaves the environment alone, and ``run``
restores ``sys.path`` when it returns or raises.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

CANONICAL_SEEDS = (0, 1, 2, 3)
CANONICAL_ITERATIONS = 40
SECTOR_SHAPE = (4, 3, 12)           # stages, realizations, periods
SECTOR_LATTICE_SEED = 20240
SECTOR_TRAIN_SEED = 7
SECTOR_ITERATIONS = 8
SECTOR_PATHS = 24
SECTOR_PATH_SEED = 11
REFERENCE_SHAPE = (3, 2, 2)
REFERENCE_SEEDS = (1, 2, 3)
README_CONFIG = "A complete config for a toy two-stage system:\n\n```yaml\n"
COMMANDS = ("train", "simulate", "bench", "curves", "oracle")
STAGE_PERIODS = (24, 96, 192)


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``: arrays by dtype, shape and bytes,
    floats by their exact repr, containers and dataclasses element by
    element (dict keys sorted)."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (float, np.floating)):
        h.update(repr(float(obj)).encode())
    else:
        h.update(repr(obj).encode())
    h.update(b";")


COUNTERS = ("dual_pivots", "primal_pivots", "refactors")


def _outputs(root: Path, cli) -> dict:
    """The digest of each file the command line writes for README.md's
    config, keyed ``<command>/<file>``, and over all of them as
    ``all``."""
    readme = (root / "README.md").read_text()
    config = readme.split(README_CONFIG, 1)[1].split("```", 1)[0]
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.yaml").write_text(config)
        policy = ["--policy", str(tmp / "train" / "policy.json")]
        for command in COMMANDS:
            argv = [command, "--config", str(tmp / "run.yaml"),
                    "--out", str(tmp / command)]
            if command in ("simulate", "curves"):
                argv += policy
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code:
                raise SystemExit(f"stockpile {command} exited {code}")
        for path in sorted(tmp.glob("*/*")):
            h = hashlib.sha256()
            if path.name == "training_log.csv":
                rows = list(csv.reader(path.read_text().splitlines()))
                seconds = rows[0].index("seconds")
                _feed(h, [row[:seconds] + row[seconds + 1:] for row in rows])
            else:
                h.update(path.read_bytes())
            files[f"{path.parent.name}/{path.name}"] = h.hexdigest()
    digest = hashlib.sha256()
    _feed(digest, files)
    return {"all": digest.hexdigest(), **files}


def _stages(lp) -> tuple[str, int, dict]:
    """The stages digest (see the module docstring), the number of its
    solves and the totals of their counters, solved by the package
    ``lp``."""
    spec = importlib.util.spec_from_file_location(
        "stage_scaling", Path(__file__).resolve().parent / "stage_scaling.py")
    stage_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_scaling)
    digest = hashlib.sha256()
    sols = []
    for h in STAGE_PERIODS:
        problem, inst, moved = stage_scaling.stage_lps(h)
        state = lp.LpState(inst)
        sols.append(lp.solve(state))
        rows = list(problem.fishing_rows)
        state.set_rhs(rows, moved.rhs[rows])
        sols.append(lp.solve(state))
        stage_scaling.append_cut(state, problem)
        sols.append(lp.solve(state))
    for sol in sols:
        _feed(digest, (sol.status, sol.objective, sol.primal, sol.duals,
                       sol.reduced_costs))
    totals = {name: sum(getattr(sol, name) for sol in sols)
              for name in COUNTERS}
    return digest.hexdigest(), len(sols), totals


def run(root: Path) -> tuple[dict, dict, str, tuple, dict, dict, dict, dict,
                             tuple, tuple]:
    """The results digest of each group and over all of them, the cut
    count of each pool of each trained policy, the solves digest, the
    KKT digest with the periods checked and the violations, the solve
    count by ``start`` and that of the sector simulation alone, the
    totals of the solve counters, the outputs digests, the pivots of
    the longest restart with the restart budget, and the stages digest
    with its solve count and counter totals, of the tree at ``root``."""
    saved_path = list(sys.path)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    try:
        return _run(root)
    finally:
        sys.path[:] = saved_path


def _run(root: Path) -> tuple:
    """:func:`run`, with ``root``'s ``src`` and ``perfbench`` first on
    ``sys.path``."""
    import instances
    from stockpile import analysis, benchmarks, cli, lp, sddp
    from stockpile.weather import sample_path

    source = Path(lp.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported {source}, not the package under {root}")

    results = {"all": hashlib.sha256()}
    pools = {}
    solves = hashlib.sha256()
    count = dict.fromkeys(("cold", "warm", "fallback"), 0)
    totals = dict.fromkeys(COUNTERS, 0)
    restarts = [0]
    raw = lp.solve

    def solve(problem, **kwargs):
        sol = raw(problem, **kwargs)
        # a tree older than LpSolution.start or the counters has its
        # solves unlabelled and uncounted
        start = getattr(sol, "start", "unlabelled")
        count[start] = count.get(start, 0) + 1
        if start == "warm":
            restarts.append(sol.iterations)
        for name in COUNTERS:
            value = getattr(sol, name, None)
            totals[name] = None if value is None or totals[name] is None \
                else totals[name] + value
        _feed(solves, (sol.status, sol.objective, sol.primal, sol.duals,
                       sol.reduced_costs))
        return sol

    def feed(group, obj):
        for key in ("all", group):
            _feed(results.setdefault(key, hashlib.sha256()), obj)

    lp.solve = solve
    try:
        catalog, scenario, lattice = instances.canonical_instance()
        for seed in CANONICAL_SEEDS:
            policy = sddp.train(catalog, scenario, lattice, sddp.TrainOptions(
                max_iterations=CANONICAL_ITERATIONS, seed=seed, threads=1))
            feed("canonical", policy.to_payload())
            pools[f"canonical {seed}"] = [
                len(cuts) for cuts in policy.pools.values()]

        catalog = instances.sector_catalog()
        scenario = instances.sector_scenario()
        lattice = instances.sector_lattice(
            np.random.default_rng(SECTOR_LATTICE_SEED), *SECTOR_SHAPE)
        policy = sddp.train(catalog, scenario, lattice, sddp.TrainOptions(
            max_iterations=SECTOR_ITERATIONS, seed=SECTOR_TRAIN_SEED,
            threads=1))
        feed("sector", policy.to_payload())
        pools["sector"] = [len(cuts) for cuts in policy.pools.values()]
        rng = np.random.default_rng(SECTOR_PATH_SEED)
        paths = [sample_path(lattice, rng) for _ in range(SECTOR_PATHS)]
        before = dict(count)
        trajectories = sddp.simulate(policy, paths)
        simulated = {start: n - before.get(start, 0)
                     for start, n in count.items()}
        feed("sector", trajectories)
        audits = [analysis.kkt_audit(t, catalog) for t in trajectories]
        kkt = hashlib.sha256()
        _feed(kkt, audits)
        kkt = (kkt.hexdigest(), sum(a.checked for a in audits),
               sum(len(a.violations) for a in audits))

        for seed in REFERENCE_SEEDS:
            lattice = instances.sector_lattice(np.random.default_rng(seed),
                                               *REFERENCE_SHAPE)
            ef = benchmarks.extensive_form(catalog, scenario, lattice)
            pf = benchmarks.perfect_foresight(
                catalog, scenario, benchmarks.enumerate_paths(lattice))
            for result in (ef, pf):
                feed("references", (result.objective, result.to_tables()))
    finally:
        lp.solve = raw
    digests = {key: h.hexdigest() for key, h in results.items()}
    restart = ("n/a" if "unlabelled" in count else max(restarts),
               getattr(lp, "_PIVOT_LIMIT", "n/a"))
    return (digests, pools, solves.hexdigest(), kkt, count, simulated, totals,
            _outputs(root, cli), restart, _stages(lp))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    (results, pools, solves, kkt, count, simulated, totals, outputs, restart,
     stages) = run(root.resolve())
    print(f"results {results.pop('all')}")
    for group, digest in results.items():
        print(f"  {group:<10} {digest}")
    print("pools   " + ", ".join(f"{name}: {'/'.join(map(str, sizes))}"
                                 for name, sizes in pools.items()))
    work = _work(totals)
    print(f"solves  {solves} ({sum(count.values())} solves: {_split(count)}; "
          f"{work})")
    print(f"sim     {sum(simulated.values())} solves of the sector simulation: "
          f"{_split(simulated)}")
    print(f"restart {restart[0]} pivots at the longest, of a budget of "
          f"{restart[1]}")
    print(f"kkt     {kkt[0]} ({kkt[1]} periods checked, "
          f"{kkt[2]} violations)")
    print(f"outputs {outputs.pop('all')} ({len(outputs)} files)")
    for name, digest in outputs.items():
        print(f"  {name:<32} {digest}")
    print(f"stages  {stages[0]} ({stages[1]} solves; {_work(stages[2])})")
    return 0


def _split(count: dict) -> str:
    """A solve count by ``start`` as printed."""
    return ", ".join(f"{n} {start}" for start, n in count.items())


def _work(totals: dict) -> str:
    """The totals of the solve counters as printed."""
    return ", ".join(f"{'n/a' if n is None else n} {name.replace('_', ' ')}"
                     for name, n in totals.items())


if __name__ == "__main__":
    sys.exit(main())
