"""Fingerprint the numerical results of a stockpile source tree.

    python3 tools/fingerprint.py [ROOT]

ROOT (default: the checkout that holds this script) is a tree with the
package in ``src/stockpile`` and the benchmark inputs in
``perfbench/instances.py``; both are imported from ROOT and only read.
The script runs a fixed set of seeded computations in three groups and
prints SHA-256 digests:

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
    primal, duals and reduced costs.

It also prints the number of those solves, split by the path that
produced each (``LpSolution.start``: cold, warm, or fallback, a cold
solve after a restart that could not finish; "unlabelled" on a tree
whose solutions do not say), and the totals of the solve counters
(dual and primal pivots and refactors; "n/a" on a tree without them).
Neither is part of a digest.

Two trees that print the same digests solved every LP of these runs to
the same bits; a group's digest alone tells which groups a change
moved. To check that a refactor changes no number, run the script on a
checkout of the parent commit and on the change, on the same machine,
and compare the two outputs. BLAS is pinned to one thread before numpy
loads, because the simplex's pivot sequence can depend on it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

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


def run(root: Path) -> tuple[dict, str, dict, dict]:
    """The results digest of each group and over all of them, the
    solves digest, the solve count by ``start`` and the totals of the
    solve counters of the tree at ``root``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import instances
    from stockpile import benchmarks, lp, sddp
    from stockpile.weather import sample_path

    source = Path(lp.__file__).resolve()
    if not source.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported {source}, not the package under {root}")

    results = {"all": hashlib.sha256()}
    solves = hashlib.sha256()
    count = dict.fromkeys(("cold", "warm", "fallback"), 0)
    totals = dict.fromkeys(COUNTERS, 0)
    raw = lp.solve

    def solve(problem, **kwargs):
        sol = raw(problem, **kwargs)
        # a tree older than LpSolution.start or the counters has its
        # solves unlabelled and uncounted
        start = getattr(sol, "start", "unlabelled")
        count[start] = count.get(start, 0) + 1
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

        catalog = instances.sector_catalog()
        scenario = instances.sector_scenario()
        lattice = instances.sector_lattice(
            np.random.default_rng(SECTOR_LATTICE_SEED), *SECTOR_SHAPE)
        policy = sddp.train(catalog, scenario, lattice, sddp.TrainOptions(
            max_iterations=SECTOR_ITERATIONS, seed=SECTOR_TRAIN_SEED,
            threads=1))
        feed("sector", policy.to_payload())
        rng = np.random.default_rng(SECTOR_PATH_SEED)
        paths = [sample_path(lattice, rng) for _ in range(SECTOR_PATHS)]
        feed("sector", sddp.simulate(policy, paths))

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
    return digests, solves.hexdigest(), count, totals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    results, solves, count, totals = run(root.resolve())
    print(f"results {results.pop('all')}")
    for group, digest in results.items():
        print(f"  {group:<10} {digest}")
    split = ", ".join(f"{n} {start}" for start, n in count.items())
    work = ", ".join(f"{'n/a' if n is None else n} {name.replace('_', ' ')}"
                     for name, n in totals.items())
    print(f"solves  {solves} ({sum(count.values())} solves: {split}; "
          f"{work})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
