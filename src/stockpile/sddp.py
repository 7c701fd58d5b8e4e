"""Nested-decomposition training of a capacity-and-dispatch policy.

Alternates sampled forward passes (producing trial states) with
backward passes (averaging child objectives and incoming-state duals
into cutting planes on each stage's cost-to-go variable). The capacity
stage's optimum over its cut pool is a true lower bound on the policy
value; a Monte Carlo average of simulated path costs estimates the
upper bound.

Cut pools are keyed by the stage they approximate: pool ``t`` holds
cuts on the cost-to-go variable of problem ``t - 1``, which stands in
for the expected cost of stages ``t`` onward. Pools only grow; no
pruning is attempted, which is fine at desk scale.

Persistent stage problems: between two solves of one (stage,
realization) only the fishing-row right-hand sides change and cut rows
are appended. So each such problem is kept, within a run, as one
:class:`stockpile.lp.LpState` built from its stage template: a solve
rewrites the fishing right-hand sides in place, appends the cuts added
to the pool since the last solve, and restarts from the basis factor
the state kept (see :mod:`stockpile.lp`). No instance is built,
presolved or scaled again, and the basis is not inverted again. Two
realizations of one dispatch stage have the same variables and rows as
well. They differ only in right-hand sides and in the capacity-factor
coefficients of the generator copy columns, each of which is basic and
the only entry of its own fishing row, so a realization's optimal basis
is dual feasible for its siblings too. A (stage, realization) with no
state yet therefore builds one from its template and restarts from the
basis of the last solve of its stage that :func:`_rollout` made,
whichever realization that was.

The states live in a dict of last solves that belongs to one run. It
maps each (stage, realization) to that problem's state and its last
solve, and each dispatch stage ``t`` (the bare integer) to the basis of
its last rollout solve. :meth:`Policy._solve` writes the (stage,
realization) entries, and :func:`_rollout` alone writes the per-stage
ones; :func:`backward_pass` and :func:`lower_bound` only read those.
:func:`train` keeps one dict, which the capacity solve that sets the
new :class:`Policy`'s capacities enters first, and passes it to
:func:`forward_pass`, :func:`backward_pass` and :func:`lower_bound`.
Each :func:`simulate` call starts a fresh one, so a simulation solves
one problem per dispatch stage cold, on its first path. The states die
with their dict; none is stored on the policy or in its JSON.

The same dict serves repeated solves. A solve whose incoming state has
the same bytes, and whose pool the same length, as the last solve of its
(stage, realization) is that problem again, and gets the stored
(problem, solution) pair back, exactly what restarting the state from
its own factor would give. Within training this hands the
constructor's and the lower bound's capacity-stage solves to the next
forward pass and the latter to the capacity decision (at gap checks
and at the end of :func:`train`), and the forward pass's last-stage
solve to the backward pass; in simulation, paths that share a prefix
share its solves. The dict holds one state per lattice node and one
basis per dispatch stage.

Determinism: with a fixed seed, training twice yields bit-identical
logs and policies. Threaded backward passes keep determinism because
realization results are reduced in realization order, each
(stage, realization) entry, its state included, is written and moved
only by the thread solving that problem, and the per-stage entries a
first visit starts from are written only by the serial rollout, never
during a backward pass. So
each solve starts from the same basis on any thread count. The
training log kept on the policy stores no wall-clock times; the
optional CSV log file adds a seconds column and is therefore not
byte-reproducible.
"""
from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import lp, model
from .errors import DataError, DimensionMismatch, SolverFailure
from .weather import SamplingLattice, WeatherPath, sample_path

POLICY_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Cut:
    """One affine lower bound on a stage's expected cost-to-go.

    The cut constrains ``theta_stage``: theta >= intercept + slope @ x,
    where x is the outgoing state of problem ``stage - 1`` and the
    intercept is the cut value at x = 0.
    """

    stage: int
    intercept: float
    slope: np.ndarray
    iteration: int
    trial_state: np.ndarray

    def __post_init__(self):
        slope = np.ascontiguousarray(self.slope, dtype=float)
        trial = np.ascontiguousarray(self.trial_state, dtype=float)
        slope.setflags(write=False)
        trial.setflags(write=False)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "trial_state", trial)
        if not np.isfinite(self.intercept):
            raise ValueError("cut intercept must be finite")
        if not np.all(np.isfinite(slope)):
            raise ValueError("cut slope must be finite")
        if slope.shape != trial.shape:
            raise DimensionMismatch("cut slope and trial state differ in size")

    def value_at(self, x) -> float:
        return self.intercept + float(self.slope @ np.asarray(x, dtype=float))


def average_cut(stage: int, values, slopes, trial_state,
                iteration: int) -> Cut:
    """Collapse equiprobable child solves into one average cut.

    ``values`` are the child objectives and ``slopes`` their
    incoming-state duals, both in realization order; the mean of each
    defines the cut, anchored at the trial state.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    trial = np.asarray(trial_state, dtype=float)
    mean_value = float(values.mean())
    mean_slope = slopes.mean(axis=0)
    return Cut(stage=stage, intercept=mean_value - float(mean_slope @ trial),
               slope=mean_slope, iteration=iteration, trial_state=trial)


def cut_block(problem: model.StageProblem, cuts, first: int = 0) -> tuple:
    """The rows of ``cuts``, cuts ``first``, ``first + 1``, ... of a
    pool, on ``problem`` as the arguments that
    :meth:`stockpile.lp.LpState.append_rows` takes and that follow the
    instance in :func:`stockpile.lp.extend_rows`. A stage's state keeps
    each block it is given, and :meth:`stockpile.lp.LpState.instance`
    applies them to the template with :func:`stockpile.lp.extend_rows`.

    Cut ``c`` is the row ``cut:<c>``: theta + (-slope) @ x >= intercept,
    its terms as given, theta first. A column named twice (the capacity
    stage maps a storage's opening and running level to one variable)
    keeps both entries for presolve to sum, as in the arrays that
    :meth:`stockpile.lp.LpBuilder.add_row` stores for the same terms.
    """
    cols = (problem.theta_column,) + problem.state_columns
    values = np.hstack([np.ones((len(cuts), 1)),
                        -np.array([cut.slope for cut in cuts])])
    return (np.arange(len(cuts) + 1) * len(cols), np.tile(cols, len(cuts)),
            values.ravel(), (lp.GREATER_EQUAL,) * len(cuts),
            [cut.intercept for cut in cuts],
            [f"cut:{first + c}" for c in range(len(cuts))])


@dataclass(frozen=True)
class StageRecord:
    """One stage of a trajectory."""

    stage: int
    node: int | None
    incoming: np.ndarray | None
    outgoing: np.ndarray
    stage_cost: float
    theta: float | None
    dispatch: model.DispatchSolution | None


@dataclass(frozen=True)
class Trajectory:
    """A full forward pass: one record per stage, capacity stage first."""

    records: tuple

    @property
    def total_cost(self) -> float:
        return float(sum(r.stage_cost for r in self.records))

    @property
    def capacity_cost(self) -> float:
        return self.records[0].stage_cost

    def record(self, t: int) -> StageRecord:
        return self.records[t]


@dataclass
class TrainOptions:
    """Knobs for :func:`train`.

    ``time_limit`` is wall-clock seconds; when exceeded the best policy
    so far is returned with ``stopped_reason`` set to ``"time_limit"``.
    ``stop_on_gap`` enables the classical rule that stops once the
    lower bound reaches the sampled upper-bound confidence interval;
    it is off by default.
    """

    max_iterations: int = 100
    time_limit: float | None = None
    seed: int = 0
    threads: int = 1
    stop_on_gap: bool = False
    gap_paths: int = 50
    gap_check_every: int = 10
    log_path: str | None = None


@dataclass
class UpperBound:
    """Monte Carlo estimate of the policy cost."""

    mean: float
    std_error: float
    n_paths: int


class Policy:
    """Capacity decision plus trained cost-to-go approximations.

    Holds everything needed to run forward passes: the catalog and
    scenario (to rebuild stage problems), the lattice (sample spaces),
    the cut pools, and the capacity decision. Training appends to the
    pools and updates the decision in place. ``capacities``, when
    given (a loaded policy's), is the decision; otherwise the
    constructor solves the capacity stage under the empty pools, in
    :func:`train` through the run's dict of last solves ``_solves``, so
    that the first forward pass is served that solve.
    """

    def __init__(self, catalog: model.TechnologyCatalog,
                 scenario: model.MarketScenario, lattice: SamplingLattice,
                 capacities=None, *, _solves=None):
        self.catalog = catalog
        self.scenario = scenario
        self.lattice = lattice
        self.layout = model.StateLayout(catalog)
        self.n_stages = lattice.n_stages
        self.pools: dict[int, list[Cut]] = {
            t: [] for t in range(1, self.n_stages + 1)}
        self.training_log: list[tuple[int, float, float]] = []
        self.stopped_reason: str | None = None
        self._templates: dict = {}
        self.capacities = (model.extract_state(*self._solve(0, 0,
                                                            bases=_solves))
                           if capacities is None
                           else np.asarray(capacities, dtype=float))

    # -- stage problem materialization ---------------------------------

    def _template(self, t: int, node: int) -> model.StageProblem:
        key = (t, node)
        if key not in self._templates:
            if t == 0:
                self._templates[key] = model.build_capacity_stage(self.catalog)
            else:
                weather = self.lattice.realizations(t)[node]
                self._templates[key] = model.build_dispatch_stage(
                    t, self.catalog, self.scenario, weather,
                    total_stages=self.n_stages)
        return self._templates[key]

    def _solve(self, t: int, node: int, x_in=None, bases=None):
        """Solve problem ``t`` at realization ``node`` to optimality.

        The problem carries the current cut pool on its cost-to-go
        variable and, when ``x_in`` is given, that incoming state.
        ``bases`` is a run's dict of last solves (see the module
        docstring), a fresh one when not given, whose entry under
        (stage, realization) holds the problem's
        :class:`stockpile.lp.LpState`. The solve rewrites that state's
        fishing right-hand sides, appends the cuts added to the pool
        since its last solve and restarts from the factor the state
        kept. A key with no entry yet gets a state built from the stage
        template, which restarts from the stage's basis stored by
        :func:`_rollout`, if any, and else solves cold. The solve then
        stores its state and solution under its key; it never writes the
        stage's entry. When the incoming state's bytes and the pool
        length both equal those of the stored solve, the problem is the
        same, so the stored (problem, solution) pair is returned without
        solving; the state's restart from its own factor would
        reproduce it bit for bit. A (stage, realization) key is only
        written by the thread solving that problem. Returns the stage
        template and the solution.
        """
        bases = {} if bases is None else bases
        key = (t, node)
        pool = self.pools.get(t + 1, ())
        stamp = (None if x_in is None
                 else np.ascontiguousarray(x_in, dtype=float).tobytes(),
                 len(pool))
        last = bases.get(key)
        if last is not None and last[0] == stamp:
            return last[1], last[2]
        problem = self._template(t, node)
        if last is None:
            state = lp.LpState(problem.instance)
            basis = bases.get(t)
        else:
            state, basis = last[3], None
        if x_in is not None:
            state.set_rhs(problem.fishing_rows,
                          model.incoming_rhs(problem, x_in))
        done = state.n_rows - problem.instance.n_rows
        if len(pool) > done and problem.theta_column is not None:
            state.append_rows(*cut_block(problem, pool[done:], done))
        where = f"stage {t}" if t == 0 else f"stage {t} realization {node}"
        try:
            sol = lp.solve_optimal(state, where, basis)
        except SolverFailure as exc:
            exc.stage, exc.node = t, None if t == 0 else node
            raise
        bases[key] = (stamp, problem, sol, state)
        return problem, sol

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        pools = {
            str(t): [{
                "intercept": cut.intercept,
                "slope": cut.slope.tolist(),
                "iteration": cut.iteration,
                "trial_state": cut.trial_state.tolist(),
            } for cut in cuts]
            for t, cuts in self.pools.items()}
        return {
            "format_version": POLICY_FORMAT_VERSION,
            "catalog_hash": catalog_fingerprint(self.catalog, self.scenario),
            "state_labels": list(self.layout.labels),
            "n_stages": self.n_stages,
            "capacities": self.capacities.tolist(),
            "pools": pools,
            "training_log": [list(row) for row in self.training_log],
            "stopped_reason": self.stopped_reason,
        }


def catalog_fingerprint(catalog: model.TechnologyCatalog,
                        scenario: model.MarketScenario) -> str:
    """Stable hash of the catalog and scenario a policy was trained on."""
    blob = json.dumps({"catalog": asdict(catalog),
                       "scenario": asdict(scenario)},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_policy(policy: Policy, path) -> None:
    """Write a policy as versioned JSON (byte-reproducible)."""
    with open(path, "w") as fh:
        json.dump(policy.to_payload(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_policy(path, catalog: model.TechnologyCatalog,
                scenario: model.MarketScenario,
                lattice: SamplingLattice) -> Policy:
    """Rebuild a policy from :func:`save_policy` output.

    The stored catalog hash must match the supplied catalog and
    scenario; mismatches raise :class:`~stockpile.errors.DataError`,
    as does a file that cannot be read or parsed, or whose structure is
    not that of a saved policy.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("format_version") != POLICY_FORMAT_VERSION:
            raise DataError(f"unsupported policy format "
                            f"{payload.get('format_version')!r}")
        if payload["catalog_hash"] != catalog_fingerprint(catalog, scenario):
            raise DataError(
                "policy was trained on a different catalog/scenario")
        policy = Policy(catalog, scenario, lattice, payload["capacities"])
        if list(policy.layout.labels) != payload["state_labels"]:
            raise DataError("policy state layout does not match the catalog")
        if payload["n_stages"] != policy.n_stages:
            raise DataError("policy stage count does not match the lattice")
        for t_str, cuts in payload["pools"].items():
            t = int(t_str)
            if t not in policy.pools:
                raise DataError(f"policy has a cut pool for stage {t_str!r}, "
                                f"outside 1..{policy.n_stages}")
            policy.pools[t] = [
                Cut(stage=t, intercept=c["intercept"],
                    slope=np.asarray(c["slope"], dtype=float),
                    iteration=c["iteration"],
                    trial_state=np.asarray(c["trial_state"], dtype=float))
                for c in cuts]
            # a cut's constructor has checked that its slope and trial
            # state have one shape
            size = policy.layout.size
            if any(cut.slope.shape != (size,) for cut in policy.pools[t]):
                raise DataError(f"policy has a cut in pool {t_str!r} whose "
                                f"slope and trial state are not of the "
                                f"state size {size}")
        policy.training_log = [tuple(row) for row in payload["training_log"]]
        policy.stopped_reason = payload["stopped_reason"]
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            DimensionMismatch) as exc:
        raise DataError(f"cannot read policy {str(path)!r}: "
                        f"{type(exc).__name__}: {exc}") from exc
    return policy


def _rollout(policy: Policy, path: WeatherPath, first: StageRecord,
             bases=None) -> Trajectory:
    """Chain dispatch-stage solves 1..T along one weather path.

    Stage 1 receives the outgoing state of the capacity-stage record
    ``first``; each later stage receives the previous stage's. Solves
    restart from and update ``bases``, a fresh dict when not given, as
    in :meth:`Policy._solve`, and each sets its stage's entry in
    ``bases`` to its basis, from which a realization of that stage not
    solved yet restarts. This is the only code that writes those
    entries.
    """
    if path.n_stages != policy.n_stages:
        raise DimensionMismatch(
            f"path has {path.n_stages} stages, lattice {policy.n_stages}")
    bases = {} if bases is None else bases
    records = [first]
    x = first.outgoing
    for t in range(1, policy.n_stages + 1):
        node = path.node_indices[t - 1]
        problem, sol = policy._solve(t, node, x, bases)
        if sol.basis is not None:
            bases[t] = sol.basis
        x_out = model.extract_state(problem, sol)
        dispatch = model.extract_dispatch(problem, sol, policy.catalog)
        theta = (None if problem.theta_column is None
                 else float(sol.primal[problem.theta_column]))
        records.append(StageRecord(
            stage=t, node=node, incoming=x, outgoing=x_out,
            stage_cost=dispatch.stage_cost, theta=theta, dispatch=dispatch))
        x = x_out
    return Trajectory(records=tuple(records))


def forward_pass(policy: Policy, path: WeatherPath,
                 bases=None) -> Trajectory:
    """Chain stage solves along one weather path, collecting states.

    The capacity stage is solved against the current cut pool; each
    dispatch stage then receives the previous stage's outgoing state.
    Solves restart from and update ``bases`` as in
    :meth:`Policy._solve`.
    """
    problem, sol = policy._solve(0, 0, bases=bases)
    theta = sol.primal[problem.theta_column]
    first = StageRecord(stage=0, node=None, incoming=None,
                        outgoing=model.extract_state(problem, sol),
                        stage_cost=float(sol.objective - theta),
                        theta=float(theta), dispatch=None)
    return _rollout(policy, path, first, bases)


def _child_solve(policy: Policy, t: int, node: int, x_in, bases):
    problem, sol = policy._solve(t, node, x_in, bases)
    return float(sol.objective), model.fishing_duals(problem, sol)


def backward_pass(policy: Policy, trajectory: Trajectory,
                  iteration: int = 0, threads: int = 1,
                  bases=None) -> None:
    """Add one cut per stage from the trajectory's trial states.

    Walks stages last to first; at each stage the child problems
    already contain the cuts added deeper in this same pass. Children
    across realizations may solve in parallel; their results are
    averaged in realization order either way. Solves restart from and
    update ``bases`` as in :meth:`Policy._solve`.
    """
    for t in range(policy.n_stages - 1, -1, -1):
        child = t + 1
        x_trial = trajectory.record(t).outgoing
        n_real = policy.lattice.branch_count(child)
        if threads > 1 and n_real > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(
                    lambda i: _child_solve(policy, child, i, x_trial, bases),
                    range(n_real)))
        else:
            results = [_child_solve(policy, child, i, x_trial, bases)
                       for i in range(n_real)]
        values = [v for v, _ in results]
        slopes = [s for _, s in results]
        cut = average_cut(child, values, slopes, x_trial, iteration)
        if cut.slope.shape != (policy.layout.size,):
            raise DimensionMismatch("cut slope does not match state size")
        policy.pools[child].append(cut)


def lower_bound(policy: Policy, bases=None) -> float:
    """Optimum of the capacity stage under the current pool.

    ``bases`` is a run's dict of last solves (see :meth:`Policy._solve`);
    without one the solve is cold.
    """
    _, sol = policy._solve(0, 0, bases=bases)
    return float(sol.objective)


def _capital_cost(policy: Policy, x0) -> float:
    problem = policy._template(0, 0)
    values = np.zeros(problem.instance.n_vars)
    values[list(problem.state_columns)] = x0
    return float(problem.instance.objective @ values)


def simulate(policy: Policy, paths) -> list:
    """Run the trained policy over given paths with frozen capacities.

    Every trajectory shares the policy's capacity decision; dispatch
    follows the learned cost-to-go pools. Each stage solve restarts
    from the basis of the last solve of its (stage, realization) within
    this call, or, on that realization's first visit, from the last
    solve of its stage; so only the first path's solves start cold.
    """
    x0 = np.asarray(policy.capacities, dtype=float)
    first = StageRecord(stage=0, node=None, incoming=None, outgoing=x0,
                        stage_cost=_capital_cost(policy, x0), theta=None,
                        dispatch=None)
    bases = {}
    return [_rollout(policy, path, first, bases) for path in paths]


def upper_bound_estimate(policy: Policy, n_paths: int,
                         rng_seed=0) -> UpperBound:
    """Mean and standard error of simulated total cost over sampled
    paths (capacities frozen at the policy decision)."""
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    rng = np.random.default_rng(rng_seed)
    paths = [sample_path(policy.lattice, rng) for _ in range(n_paths)]
    costs = np.array([tr.total_cost for tr in simulate(policy, paths)])
    return UpperBound(mean=float(costs.mean()),
                      std_error=float(costs.std(ddof=1) / np.sqrt(n_paths)),
                      n_paths=n_paths)


def train(catalog: model.TechnologyCatalog, scenario: model.MarketScenario,
          lattice: SamplingLattice,
          options: TrainOptions | None = None) -> Policy:
    """Run the full training loop and return the resulting policy.

    Each iteration samples one forward path, adds one cut per stage in
    the backward pass, and records the new lower bound; the
    capacity-stage solve behind that bound also opens the next forward
    pass. All training solves restart from, and are served by, one dict
    of last solves (see :meth:`Policy._solve`). The final capacity
    decision is the capacity-stage optimum under the final pool, which
    the last bound solve already found.
    """
    opt = options or TrainOptions()
    bases = {}
    policy = Policy(catalog, scenario, lattice, _solves=bases)
    rng = np.random.default_rng(opt.seed)
    start = time.monotonic()
    log_rows = []
    policy.stopped_reason = "iteration_limit"
    for k in range(1, opt.max_iterations + 1):
        trajectory = forward_pass(policy, sample_path(lattice, rng), bases)
        backward_pass(policy, trajectory, iteration=k, threads=opt.threads,
                      bases=bases)
        lb = lower_bound(policy, bases)
        forward_cost = trajectory.total_cost
        policy.training_log.append((k, lb, forward_cost))
        log_rows.append((k, time.monotonic() - start, lb, forward_cost))
        if opt.stop_on_gap and k % opt.gap_check_every == 0:
            policy.capacities = model.extract_state(
                *policy._solve(0, 0, bases=bases))
            ub = upper_bound_estimate(policy, opt.gap_paths,
                                      rng_seed=opt.seed + k)
            if lb >= ub.mean - 2 * ub.std_error:
                policy.stopped_reason = "gap"
                break
        if opt.time_limit is not None and (
                time.monotonic() - start) > opt.time_limit:
            policy.stopped_reason = "time_limit"
            break
    policy.capacities = model.extract_state(*policy._solve(0, 0, bases=bases))
    if opt.log_path:
        with open(opt.log_path, "w") as fh:
            fh.write("iteration,seconds,lower_bound,forward_cost\n")
            for k, secs, lb, fc in log_rows:
                fh.write(f"{k},{secs:.3f},{lb!r},{fc!r}\n")
    return policy

