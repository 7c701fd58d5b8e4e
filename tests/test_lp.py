"""Solver checks for the bounded-variable simplex.

Expected values come from hand solutions, an independent vertex
enumeration written here, and cross-checks against scipy's HiGHS
interface, never from the solver under test.
"""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from stockpile import lp, model
from stockpile.errors import NotOptimal, NumericalFailure, UnknownVariable


def build(objective, rows, senses, rhs, lower, upper, var_labels=None, row_labels=None):
    n = len(objective)
    m = len(rhs)
    var_labels = var_labels or [f"x{j}" for j in range(n)]
    row_labels = row_labels or [f"r{i}" for i in range(m)]
    b = lp.LpBuilder()
    for j in range(n):
        b.add_variable(var_labels[j], cost=objective[j], lower=lower[j], upper=upper[j])
    for i in range(m):
        terms = [(j, rows[i][j]) for j in range(n) if rows[i][j] != 0.0]
        b.add_row(row_labels[i], terms, senses[i], rhs[i])
    return b.build()


def test_upper_bound_row_binding():
    """min -x s.t. x <= 2, x >= 0: optimum x = 2, objective -2, dual -1."""
    inst = build([-1.0], [[1.0]], ["<="], [2.0], [0.0], [np.inf])
    sol = lp.solve(inst)
    assert sol.source is inst
    assert sol.status == lp.OPTIMAL
    assert sol.value("x0") == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    assert sol.dual("r0") == pytest.approx(-1.0, abs=1e-9)


def test_lower_bound_row_binding():
    """min x s.t. x >= 1: optimum x = 1, dual +1 under minimization."""
    inst = build([1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
    sol = lp.solve(inst)
    assert sol.status == lp.OPTIMAL
    assert sol.value("x0") == pytest.approx(1.0, abs=1e-9)
    assert sol.dual("r0") == pytest.approx(1.0, abs=1e-9)


def enumerate_vertices_2d(rows, senses, rhs, lower, upper):
    """All crossing points of constraint/bound pairs that are feasible.

    Brute-force oracle for two-variable problems only.
    """
    lines = []
    for row, sense, b in zip(rows, senses, rhs):
        lines.append((row[0], row[1], b))
    for j, (lo, hi) in enumerate(zip(lower, upper)):
        unit = [0.0, 0.0]
        unit[j] = 1.0
        if np.isfinite(lo):
            lines.append((unit[0], unit[1], lo))
        if np.isfinite(hi):
            lines.append((unit[0], unit[1], hi))
    pts = []
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-12:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        pts.append((x, y))
    feasible = []
    for x, y in pts:
        ok = lower[0] - 1e-9 <= x <= upper[0] + 1e-9 and lower[1] - 1e-9 <= y <= upper[1] + 1e-9
        for row, sense, b in zip(rows, senses, rhs):
            v = row[0] * x + row[1] * y
            if sense == "<=" and v > b + 1e-9:
                ok = False
            if sense == ">=" and v < b - 1e-9:
                ok = False
            if sense == "=" and abs(v - b) > 1e-9:
                ok = False
        if ok:
            feasible.append((x, y))
    return feasible


def test_two_constraint_vertex():
    """min x + y s.t. x + 2y >= 4, 3x + y >= 6, x, y >= 0.

    The vertex enumeration oracle finds the optimum at (8/5, 6/5) with
    objective 14/5.
    """
    rows = [[1.0, 2.0], [3.0, 1.0]]
    senses = [">=", ">="]
    rhs = [4.0, 6.0]
    lower = [0.0, 0.0]
    upper = [np.inf, np.inf]
    verts = enumerate_vertices_2d(rows, senses, rhs, lower, upper)
    assert verts
    best = min(v[0] + v[1] for v in verts)
    assert best == pytest.approx(14.0 / 5.0, abs=1e-9)

    inst = build([1.0, 1.0], rows, senses, rhs, lower, upper)
    sol = lp.solve(inst)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-9)
    assert sol.value("x0") == pytest.approx(8.0 / 5.0, abs=1e-9)
    assert sol.value("x1") == pytest.approx(6.0 / 5.0, abs=1e-9)
    # both rows binding: duals from solving the 2x2 dual system
    # [1 3; 2 1][y1 y2]' = [1 1]'  ->  y = (2/5, 1/5)
    assert sol.dual("r0") == pytest.approx(2.0 / 5.0, abs=1e-9)
    assert sol.dual("r1") == pytest.approx(1.0 / 5.0, abs=1e-9)


def test_infeasible_reported_without_primal():
    inst = build([1.0], [[1.0], [1.0]], [">=", "<="], [3.0, 1.0], [0.0], [np.inf])
    sol = lp.solve(inst)
    assert sol.status == lp.INFEASIBLE
    assert sol.primal is None and sol.duals is None
    with pytest.raises(NotOptimal):
        sol.value("x0")


def test_unbounded_reported():
    inst = build([-1.0], [[0.0]], ["<="], [1.0], [0.0], [np.inf])
    # keep one non-empty row so the simplex actually runs
    inst = build([-1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0], [0.0, 0.0],
                 [np.inf, np.inf])
    sol = lp.solve(inst)
    assert sol.status == lp.UNBOUNDED
    assert sol.primal is None


def test_empty_row_has_zero_dual_and_infeasible_constant():
    inst = build([1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]], [">=", "<="],
                 [1.0, 5.0], [0.0, 0.0], [np.inf, np.inf])
    sol = lp.solve(inst)
    assert sol.status == lp.OPTIMAL
    assert sol.dual("r1") == 0.0
    bad = build([1.0], [[0.0]], ["<="], [-5.0], [0.0], [np.inf])
    assert lp.solve(bad).status == lp.INFEASIBLE


def test_fixed_and_free_variables_with_equality_dual():
    """Free copy variable pinned by an equality row; its dual is the
    sensitivity of the objective to the pinned value."""
    b = lp.LpBuilder()
    b.add_variable("copy", cost=0.0, lower=-np.inf, upper=np.inf)
    b.add_variable("y", cost=3.0, lower=0.0, upper=np.inf)
    b.add_row("pin", [("copy", 1.0)], "=", 7.0)
    b.add_row("link", [("y", 1.0), ("copy", -1.0)], ">=", 0.0)
    sol = lp.solve(b.build())
    assert sol.status == lp.OPTIMAL
    assert sol.value("copy") == pytest.approx(7.0, abs=1e-9)
    assert sol.value("y") == pytest.approx(7.0, abs=1e-9)
    # raising the pin by one unit raises the objective by 3
    assert sol.dual("pin") == pytest.approx(3.0, abs=1e-8)


def test_bound_flip_path():
    """Optimal point with a variable at its upper bound and another basic."""
    inst = build([-2.0, -1.0], [[1.0, 1.0]], ["<="], [3.0],
                 [0.0, 0.0], [2.0, 2.0])
    sol = lp.solve(inst)
    assert sol.status == lp.OPTIMAL
    assert sol.value("x0") == pytest.approx(2.0, abs=1e-9)
    assert sol.value("x1") == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)


def test_negative_lower_bounds():
    inst = build([1.0, 1.0], [[1.0, 1.0]], [">="], [-3.0],
                 [-5.0, -5.0], [5.0, 5.0])
    sol = lp.solve(inst)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.dual("r0") == pytest.approx(1.0, abs=1e-9)


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    inst = build(rng.integers(-5, 5, 6).astype(float),
                 rng.integers(-3, 4, (4, 6)).astype(float),
                 ["<=", ">=", "<=", "="],
                 [10.0, -8.0, 7.0, 1.0],
                 [0.0] * 6, [10.0] * 6)
    a = lp.solve(inst)
    bsol = lp.solve(inst)
    assert a.status == bsol.status == lp.OPTIMAL
    assert a.objective == bsol.objective
    assert np.array_equal(a.primal, bsol.primal)
    assert np.array_equal(a.duals, bsol.duals)
    assert np.array_equal(a.reduced_costs, bsol.reduced_costs)


def test_extend_rows_immutable_and_warm_equivalent():
    inst = build([-1.0, -1.0], [[1.0, 1.0]], ["<="], [4.0],
                 [0.0, 0.0], [np.inf, np.inf])
    base = lp.solve(inst)
    tightened = lp.extend_rows(inst, [0, 1], [0], [1.0], ["<="], [1.0],
                               ["cap"])
    assert tightened.n_rows == inst.n_rows + 1
    again = lp.solve(inst)
    assert again.objective == base.objective  # original untouched
    sol = lp.solve(tightened)
    assert sol.value("x0") == pytest.approx(1.0, abs=1e-9)
    assert sol.value("x1") == pytest.approx(3.0, abs=1e-9)
    resolve = lp.solve(tightened)
    assert abs(resolve.objective - sol.objective) <= 1e-9
    assert np.allclose(resolve.primal, sol.primal, atol=1e-9)


def test_extend_rows_unknown_variable():
    inst = build([1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
    for column in (1, -1):
        with pytest.raises(UnknownVariable):
            lp.extend_rows(inst, [0, 1], [column], [1.0], ["<="], [1.0],
                           ["r1"])


def test_extend_rows_matches_sequential_appends():
    """A batch extension solves identically to the same rows appended
    one at a time."""
    inst = build([-1.0, -2.0], [[1.0, 1.0]], ["<="], [4.0],
                 [0.0, 0.0], [3.0, 3.0])
    # x0 <= 2 and x0 + 2 x1 <= 5, as (indices, values, rhs, label)
    rows = [([0], [1.0], 2.0, "extra0"),
            ([0, 1], [1.0, 2.0], 5.0, "extra1")]
    batched = lp.extend_rows(inst, [0, 1, 3], [0, 0, 1], [1.0, 1.0, 2.0],
                             [lp.LESS_EQUAL] * 2, [2.0, 5.0],
                             ["extra0", "extra1"])
    oneby = inst
    for cols, vals, b, label in rows:
        oneby = lp.extend_rows(oneby, [0, len(cols)], cols, vals,
                               [lp.LESS_EQUAL], [b], [label])
    sb = lp.solve(batched)
    so = lp.solve(oneby)
    assert sb.objective == so.objective
    assert np.array_equal(sb.primal, so.primal)
    assert np.array_equal(sb.duals, so.duals)
    assert lp.extend_rows(inst, [0], [], [], [], [], []) is inst


def test_duplicate_terms_coalesced():
    b = lp.LpBuilder()
    b.add_variable("x", cost=1.0)
    b.add_row("r", [("x", 1.0), ("x", 1.0)], ">=", 4.0)
    sol = lp.solve(b.build())
    assert sol.value("x") == pytest.approx(2.0, abs=1e-9)


def test_pivot_limit_raises(monkeypatch):
    monkeypatch.setattr(lp, "_PIVOT_LIMIT", 0)
    monkeypatch.setattr(lp, "_PIVOT_LIMIT_PER_DIM", 0)
    rows = [[1.0, 2.0], [3.0, 1.0]]
    inst = build([1.0, 1.0], rows, [">=", ">="], [4.0, 6.0],
                 [0.0, 0.0], [np.inf, np.inf])
    with pytest.raises(NumericalFailure):
        lp.solve(inst)


def test_restart_over_its_pivot_budget_falls_back_to_cold(canonical,
                                                           monkeypatch):
    """A restart may take _PIVOT_LIMIT pivots whatever the LP's size;
    one that needs more ends on the cold path, which solves the LP.
    Canonical dispatch stage 1 in its dark realization, solved in a
    persistent state, restarts in 3 pivots after its incoming cavern
    level moves from 30 to 5 GWh, so a budget of 0 sends it cold."""
    lattice = canonical["lattice"]
    problem = model.build_dispatch_stage(
        1, canonical["catalog"], canonical["scenario"],
        lattice.realizations(1)[1], total_stages=lattice.n_stages)

    def stage(level):
        decision = model.CapacityDecision(
            generation={"wind": 12.0}, storage_power_out={"cavern": 6.0},
            storage_power_in={"cavern": 6.0},
            storage_energy={"cavern": 60.0}, initial_level={"cavern": level})
        return model.apply_incoming_state(
            problem, decision.to_state(problem.layout)).instance

    state, moved = lp.LpState(stage(30.0)), stage(5.0)
    assert lp.solve(state).start == "cold"
    rows = list(problem.fishing_rows)
    state.set_rhs(rows, moved.rhs[rows])
    monkeypatch.setattr(lp, "_PIVOT_LIMIT", 0)
    sol = lp.solve(state)
    assert sol.status == lp.OPTIMAL and sol.start == "fallback"
    assert sol.objective == lp.solve(moved).objective


def test_dump_instance(tmp_path):
    inst = build([1.0], [[2.0]], ["<="], [3.0], [0.0], [5.0])
    path = tmp_path / "dump.txt"
    lp.dump_instance(inst, path)
    text = path.read_text()
    assert "vars 1" in text and "rows 1" in text and "x0:2.0" in text


def _random_instance(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    a = rng.integers(-4, 5, (m, n)).astype(float)
    c = rng.integers(-5, 6, n).astype(float)
    senses = [("<=", ">=", "=")[int(rng.integers(0, 3))] for _ in range(m)]
    rhs = rng.integers(-8, 9, m).astype(float)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for j in range(n):
        kind = int(rng.integers(0, 4))
        if kind == 1:
            lower[j], upper[j] = -5.0, 10.0
        elif kind == 2:
            lower[j], upper[j] = -np.inf, np.inf
        elif kind == 3:
            lower[j] = upper[j] = float(rng.integers(-3, 4))
    return a, c, senses, rhs, lower, upper


def _scipy_reference(a, c, senses, rhs, lower, upper):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, s, b in zip(a, senses, rhs):
        if s == "<=":
            a_ub.append(row)
            b_ub.append(b)
        elif s == ">=":
            a_ub.append(-row)
            b_ub.append(-b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    bounds = [(None if not np.isfinite(lo) else lo,
               None if not np.isfinite(hi) else hi)
              for lo, hi in zip(lower, upper)]
    return optimize.linprog(
        c, A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds, method="highs")


@pytest.mark.parametrize("seed", range(60))
def test_random_cross_check_against_scipy(seed):
    rng = np.random.default_rng(1000 + seed)
    a, c, senses, rhs, lower, upper = _random_instance(rng)
    inst = build(c, a, senses, rhs, lower, upper)
    sol = lp.solve(inst)
    ref = _scipy_reference(a, c, senses, rhs, lower, upper)
    if ref.status == 2:
        assert sol.status == lp.INFEASIBLE
        return
    if ref.status == 3:
        assert sol.status == lp.UNBOUNDED
        return
    assert ref.status == 0 and sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
    _check_kkt(inst, sol)


def _check_kkt(inst, sol):
    """Feasibility, dual sign convention, complementary slackness, strong
    duality, dual feasibility of reduced costs; all at the documented
    tolerances on order-one data."""
    a = inst.dense_matrix()
    act = a @ sol.primal
    for i, (s, b) in enumerate(zip(inst.senses, inst.rhs)):
        slack = b - act[i]
        if s == "<=":
            assert slack >= -1e-7
            assert sol.duals[i] <= 1e-7
        elif s == ">=":
            assert slack <= 1e-7
            assert sol.duals[i] >= -1e-7
        else:
            assert abs(slack) <= 1e-7
        if s != "=":
            assert abs(sol.duals[i] * slack) <= 1e-5
    assert np.all(sol.primal >= inst.lower - 1e-7)
    assert np.all(sol.primal <= inst.upper + 1e-7)
    # reduced costs: z = c - A'y, and sign matches the active bound
    z = inst.objective - a.T @ sol.duals
    assert np.allclose(z, sol.reduced_costs, atol=1e-6)
    at_lower = np.abs(sol.primal - inst.lower) <= 1e-7
    at_upper = np.abs(sol.primal - inst.upper) <= 1e-7
    interior = ~(at_lower | at_upper)
    assert np.all(sol.reduced_costs[at_lower & ~at_upper] >= -1e-6)
    assert np.all(sol.reduced_costs[at_upper & ~at_lower] <= 1e-6)
    assert np.all(np.abs(sol.reduced_costs[interior]) <= 1e-6)


def test_bland_rule_runs_match_highs_and_dantzig(monkeypatch):
    """With the trigger lowered to one degenerate step, Bland's rule
    picks every entering column after a run's first degenerate pivot on
    seeded random LPs whose rows mostly pass through the origin. The
    objectives match HiGHS and the solve under Dantzig's rule, and the
    rule changes which columns enter."""
    raw = lp._Simplex._entering
    picks = []

    def entering(sx, z):
        q, direction = raw(sx, z)
        if q >= 0:
            picks.append((sx.bland, q))
        return q, direction

    monkeypatch.setattr(lp._Simplex, "_entering", entering)
    by_bland, changed = 0, 0
    for seed in range(30):
        rng = np.random.default_rng(3000 + seed)
        n, m = int(rng.integers(4, 9)), int(rng.integers(3, 7))
        a = rng.integers(-4, 5, (m, n)).astype(float)
        c = rng.integers(-5, 6, n).astype(float)
        rhs = np.where(rng.random(m) < 0.6, 0.0,
                       rng.integers(1, 9, m)).astype(float)
        data = (a, c, ["<="] * m, rhs, np.zeros(n), np.full(n, 10.0))
        inst = build(c, a, *data[2:])
        picks.clear()
        dantzig = lp.solve(inst)
        dantzig_picks = list(picks)
        assert not any(bland for bland, _ in dantzig_picks)
        monkeypatch.setattr(lp, "_BLAND_TRIGGER", 1)
        picks.clear()
        sol = lp.solve(inst)
        monkeypatch.setattr(lp, "_BLAND_TRIGGER", 1000)
        flags = [bland for bland, _ in picks]
        # once on, Bland's rule stays on to the end of the run
        assert flags == sorted(flags)
        by_bland += sum(flags)
        changed += [q for _, q in picks] != [q for _, q in dantzig_picks]
        ref = _scipy_reference(*data)
        assert ref.status == 0 and sol.status == dantzig.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        assert sol.objective == pytest.approx(dantzig.objective, rel=1e-9,
                                              abs=1e-9)
        _check_kkt(inst, sol)
    assert by_bland >= 60 and changed >= 5


@pytest.mark.parametrize("seed", range(20))
def test_duals_are_rhs_sensitivities(seed):
    """Central finite differences of the optimum match the duals away
    from degenerate points."""
    rng = np.random.default_rng(4000 + seed)
    a, c, senses, rhs, lower, upper = _random_instance(rng)
    inst = build(c, a, senses, rhs, lower, upper)
    sol = lp.solve(inst)
    if sol.status != lp.OPTIMAL:
        return
    eps = 1e-5
    for i in range(len(rhs)):
        up = rhs.copy()
        dn = rhs.copy()
        up[i] += eps
        dn[i] -= eps
        s_up = lp.solve(build(c, a, senses, up, lower, upper))
        s_dn = lp.solve(build(c, a, senses, dn, lower, upper))
        if s_up.status != lp.OPTIMAL or s_dn.status != lp.OPTIMAL:
            continue
        fwd = (s_up.objective - sol.objective) / eps
        bwd = (sol.objective - s_dn.objective) / eps
        if abs(fwd - bwd) > 1e-6 * (1.0 + abs(fwd)):
            continue  # kink in the value function; dual is one-sided there
        assert 0.5 * (fwd + bwd) == pytest.approx(sol.duals[i], rel=1e-5, abs=1e-6)


def test_badly_scaled_costs_still_solve():
    """Mix of order-1 and order-1e8 cost coefficients, as produced by
    penalty pricing; the scaled solver must keep exact duals."""
    b = lp.LpBuilder()
    b.add_variable("supply", cost=1e8, lower=0.0, upper=np.inf)
    b.add_variable("cheap", cost=2.0, lower=0.0, upper=3.0)
    b.add_row("demand", [("supply", 1.0), ("cheap", 1.0)], ">=", 5.0)
    sol = lp.solve(b.build())
    assert sol.status == lp.OPTIMAL
    assert sol.value("cheap") == pytest.approx(3.0, abs=1e-9)
    assert sol.value("supply") == pytest.approx(2.0, abs=1e-9)
    assert sol.dual("demand") == pytest.approx(1e8, rel=1e-9)


def _perturbed_extension(rng, a, c, senses, rhs, lower, upper):
    """The instance with its right-hand sides moved and 1-3 random rows
    appended, as a training iteration changes a stage problem."""
    n = a.shape[1]
    k = int(rng.integers(1, 4))
    a2 = np.vstack([a, rng.integers(-4, 5, (k, n)).astype(float)])
    senses2 = senses + [("<=", ">=", "=")[int(rng.integers(0, 3))]
                        for _ in range(k)]
    rhs2 = np.concatenate([rhs + rng.integers(-2, 3, len(rhs)),
                           rng.integers(-8, 9, k)]).astype(float)
    return a2, c, senses2, rhs2, lower, upper


@pytest.mark.parametrize("seed", range(60))
def test_restart_after_rhs_change_and_new_rows_matches_cold(seed):
    """A solve restarted from the previous optimal basis after the
    right-hand sides move and rows are appended agrees with the cold
    solve and with scipy within 1e-9 relative."""
    rng = np.random.default_rng(1000 + seed)
    a, c, senses, rhs, lower, upper = _random_instance(rng)
    first = lp.solve(build(c, a, senses, rhs, lower, upper))
    if first.status != lp.OPTIMAL:
        return
    a, c, senses, rhs, lower, upper = _perturbed_extension(
        rng, a, c, senses, rhs, lower, upper)
    inst = build(c, a, senses, rhs, lower, upper)
    cold = lp.solve(inst)
    warm = lp.solve(inst, basis=first.basis)
    ref = _scipy_reference(a, c, senses, rhs, lower, upper)
    assert warm.status == cold.status
    if cold.status != lp.OPTIMAL:
        assert ref.status in (2, 3)
        return
    for value in (cold.objective, ref.fun):
        assert warm.objective == pytest.approx(value, rel=1e-9, abs=1e-9)
    _check_kkt(inst, warm)


def test_restart_from_own_basis_reproduces_solution_without_pivots():
    rng = np.random.default_rng(7)
    inst = build(rng.integers(-5, 6, 6).astype(float),
                 rng.integers(-3, 4, (4, 6)).astype(float),
                 ["<=", ">=", "<=", "="], [10.0, -8.0, 7.0, 1.0],
                 [0.0] * 6, [10.0] * 6)
    cold = lp.solve(inst)
    warm = lp.solve(inst, basis=cold.basis)
    assert cold.iterations > 0 and warm.iterations == 0
    assert warm.objective == cold.objective
    assert np.array_equal(warm.primal, cold.primal)
    assert np.array_equal(warm.duals, cold.duals)
    assert np.array_equal(warm.reduced_costs, cold.reduced_costs)
    for mine, other in zip(warm.basis, cold.basis):
        assert np.array_equal(mine, other)
        assert not mine.flags.writeable


@st.composite
def _bounded_feasible_lp(draw):
    """A random LP that is bounded, since every variable is boxed, and
    feasible, since its right-hand sides hold at an integer point of the
    box."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    small = st.integers(-4, 4)
    a = np.array(draw(st.lists(st.lists(small, min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    cost = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    upper = np.array(draw(st.lists(st.integers(1, 8), min_size=n,
                                   max_size=n)), dtype=float)
    point = np.array([draw(st.integers(0, int(u))) for u in upper],
                     dtype=float)
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m,
                           max_size=m))
    gaps = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    rhs = a @ point + np.array([{"<=": g, ">=": -g, "=": 0}[sense]
                                for sense, g in zip(senses, gaps)])
    return build(cost, a, senses, rhs, [0.0] * n, upper)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_bounded_feasible_lp())
def test_restart_from_own_basis_is_bit_identical_property(inst):
    """On any bounded feasible LP, a restart from the solution's own basis
    takes no pivot, factorizes the basis once, and reproduces the
    objective, primal, duals, reduced costs and basis bit for bit."""
    cold = lp.solve(inst)
    assert cold.status == lp.OPTIMAL
    assume(cold.basis is not None)
    refactors = []
    raw = lp._Simplex.refactor

    def counted(self):
        refactors.append(1)
        return raw(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Simplex, "refactor", counted)
        warm = lp.solve(inst, basis=cold.basis)
    assert warm.iterations == 0 and len(refactors) == 1
    assert warm.objective == cold.objective
    for mine, theirs in ((warm.primal, cold.primal), (warm.duals, cold.duals),
                         (warm.reduced_costs, cold.reduced_costs),
                         *zip(warm.basis, cold.basis)):
        assert mine.tobytes() == theirs.tobytes()


def _unused_column_instance():
    """min x0 + x1 s.t. x0 + x1 >= 2, x0 - x1 <= 1; x2 is in no row."""
    return build([1.0, 1.0, 0.0], [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]],
                 [">=", "<="], [2.0, 1.0], [0.0] * 3, [np.inf, np.inf, 5.0])


@pytest.mark.parametrize("basis", [
    ([lp._BASIC, lp._BASIC], [lp._AT_UPPER, lp._AT_LOWER]),
    ([lp._BASIC, lp._AT_LOWER, lp._AT_LOWER],
     [lp._BASIC, lp._BASIC, lp._BASIC]),
    ([lp._BASIC, lp._AT_LOWER, lp._BASIC], [lp._AT_UPPER, lp._AT_LOWER]),
    ([lp._BASIC, lp._AT_UPPER, lp._AT_LOWER], [lp._BASIC, lp._AT_LOWER]),
    ([lp._BASIC, lp._BASIC, lp._BASIC], [lp._AT_UPPER, lp._AT_LOWER]),
], ids=["wrong_variable_count", "too_many_rows", "singular",
        "status_off_its_bounds", "too_many_basics"])
def test_unusable_basis_falls_back_to_cold(monkeypatch, basis):
    inst = _unused_column_instance()
    cold = lp.solve(inst)
    restarts = []
    raw = lp.LpState._warm
    monkeypatch.setattr(lp.LpState, "_warm",
                        lambda *args: restarts.append(raw(*args)) or restarts[-1])
    sol = lp.solve(inst, basis=basis)
    assert restarts == [None]
    assert sol.status == lp.OPTIMAL
    assert sol.objective == cold.objective == pytest.approx(2.0, abs=1e-9)
    assert np.array_equal(sol.primal, cold.primal)
    assert np.array_equal(sol.duals, cold.duals)


def test_solution_start_names_the_path_that_produced_it():
    """``start`` is "cold" without a basis, "warm" when the restart
    finishes (an optimum or a proved infeasibility, an empty row's
    included), and "fallback" for the cold solve after a restart that
    could not finish."""
    inst = _unused_column_instance()
    cold = lp.solve(inst)
    assert cold.start == "cold"
    warm = lp.solve(inst, basis=cold.basis)
    assert warm.start == "warm"
    assert warm.objective == cold.objective
    singular = ([lp._BASIC, lp._AT_LOWER, lp._BASIC],
                [lp._AT_UPPER, lp._AT_LOWER])
    fallback = lp.solve(inst, basis=singular)
    assert fallback.start == "fallback"
    assert fallback.objective == cold.objective
    capped = lp.extend_rows(inst, [0, 2], [0, 1], [1.0, 1.0], ["<="], [1.0],
                            ["cap"])
    assert lp.solve(capped).start == "cold"
    proved = lp.solve(capped, basis=cold.basis)
    assert (proved.status, proved.start) == (lp.INFEASIBLE, "warm")
    empty = build([1.0], [[0.0]], [">="], [1.0], [0.0], [np.inf])
    settled = lp.solve(empty, basis=([lp._AT_LOWER], [lp._BASIC]))
    assert (settled.status, settled.start) == (lp.INFEASIBLE, "warm")


def test_basis_is_none_unless_optimal():
    infeasible = build([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0],
                       [0.0], [np.inf])
    unbounded = build([-1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
    feasible = build([1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
    basis = lp.solve(feasible).basis
    assert basis is not None
    for inst in (infeasible, unbounded):
        for start in (None, basis):
            sol = lp.solve(inst, basis=start)
            assert sol.status != lp.OPTIMAL and sol.basis is None


def test_extend_rows_validates_only_new_rows_and_indexes_them():
    inst = build([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [0.0, 0.0],
                 [np.inf, np.inf])
    grown = lp.extend_rows(inst, [0, 1], [0], [1.0], ["<="], [3.0], ["cap"])
    assert grown.row_index == {"r0": 0, "cap": 1}
    assert inst.row_index == {"r0": 0}
    for (indptr, value, b, label), message in [
            (([0, 1], np.nan, 1.0, "bad"), "coefficients"),
            (([0, 1], 1.0, np.inf, "bad"), "rhs"),
            (([0, 1], 1.0, 1.0, "r0"), "duplicate"),
            (([1, 1], 1.0, 1.0, "bad"), "indptr")]:
        with pytest.raises(ValueError, match=message):
            lp.extend_rows(inst, indptr, [0], [value], ["<="], [b], [label])


def test_replace_rhs_validates_new_values():
    inst = build([1.0], [[1.0], [2.0]], [">=", ">="], [1.0, 1.0], [0.0],
                 [np.inf])
    moved = lp.replace_rhs(inst, [1], [4.0])
    assert list(moved.rhs) == [1.0, 4.0] and list(inst.rhs) == [1.0, 1.0]
    assert not moved.rhs.flags.writeable
    assert lp.solve(moved).objective == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError, match="rhs"):
        lp.replace_rhs(inst, [0], [np.nan])


def _rowless(cost, lower, upper):
    """An LP whose rows all have no nonzero coefficient: one empty row of
    each sense with a right-hand side it satisfies, and one whose only
    term has a zero coefficient."""
    b = lp.LpBuilder()
    for j, (c, lo, hi) in enumerate(zip(cost, lower, upper)):
        b.add_variable(f"x{j}", cost=c, lower=lo, upper=hi)
    b.add_row("le", [], "<=", 1.0)
    b.add_row("ge", [], ">=", -2.0)
    b.add_row("eq", [], "=", 0.0)
    b.add_row("zero", [("x0", 0.0)], "<=", 0.5)
    return b.build()


def test_rowless_lp_optimal_matches_scipy_and_restarts():
    # boxed at its upper bound (negative cost), free at zero (no cost),
    # at a finite lower bound, boxed at its lower bound, fixed, and
    # negative-cost with only an upper bound
    cost = [-2.0, 0.0, 1.0, 3.0, 5.0, -1.0]
    lower = [-1.0, -np.inf, 0.0, -2.0, 1.0, -np.inf]
    upper = [3.0, np.inf, np.inf, 5.0, 1.0, 4.0]
    inst = _rowless(cost, lower, upper)
    sol = lp.solve(inst)
    ref = optimize.linprog(cost, bounds=[(None if np.isinf(lo) else lo,
                                          None if np.isinf(hi) else hi)
                                         for lo, hi in zip(lower, upper)],
                           method="highs")
    assert ref.status == 0 and sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)
    assert np.allclose(sol.primal, [3.0, 0.0, 0.0, -2.0, 1.0, 4.0], atol=1e-12)
    assert np.allclose(sol.primal, ref.x, atol=1e-9)
    assert np.array_equal(sol.duals, np.zeros(inst.n_rows))
    assert np.allclose(sol.reduced_costs, cost, atol=1e-12)
    again = lp.solve(inst, basis=sol.basis)
    assert again.iterations == 0
    assert np.array_equal(again.primal, sol.primal)
    assert np.array_equal(again.reduced_costs, sol.reduced_costs)
    assert all(np.array_equal(a, b) for a, b in zip(again.basis, sol.basis))


@pytest.mark.parametrize("lower,upper,cost", [
    (-np.inf, np.inf, -1.0),       # free, negative cost
    (-np.inf, 2.0, 1.0),           # no lower bound, positive cost
    (0.0, np.inf, -3.0)])          # no upper bound, negative cost
def test_rowless_lp_unbounded_matches_scipy(lower, upper, cost):
    inst = _rowless([cost, 1.0], [lower, 0.0], [upper, 1.0])
    ref = optimize.linprog([cost, 1.0],
                           bounds=[(None if np.isinf(lower) else lower,
                                    None if np.isinf(upper) else upper),
                                   (0.0, 1.0)], method="highs")
    assert ref.status == 3
    assert lp.solve(inst).status == lp.UNBOUNDED


def _csr_instance(**changes):
    """Two variables, rows x <= 4 and 2x + 3y >= 1, as a CSR triple."""
    data = dict(objective=np.array([1.0, 2.0]), indptr=np.array([0, 1, 3]),
                indices=np.array([0, 0, 1]), values=np.array([1.0, 2.0, 3.0]),
                senses=("<=", ">="), rhs=np.array([4.0, 1.0]),
                lower=np.zeros(2), upper=np.full(2, np.inf),
                var_labels=("x", "y"), row_labels=("a", "b"))
    data.update(changes)
    return lp.LpInstance(**data)


def test_csr_instance_is_read_only_and_matches_scipy_sparse():
    values = np.array([1.0, 2.0, 3.0])
    inst = _csr_instance(values=values)
    assert values.flags.writeable             # the caller's array is not frozen
    for arr in (inst.objective, inst.indptr, inst.indices, inst.values,
                inst.rhs, inst.lower, inst.upper):
        assert not arr.flags.writeable
    assert inst.indptr.dtype == inst.indices.dtype == np.intp
    expected = sparse.csr_array((inst.values, inst.indices, inst.indptr),
                                shape=(inst.n_rows, inst.n_vars)).toarray()
    assert np.array_equal(inst.dense_matrix(), expected)
    assert inst.row_index == {"a": 0, "b": 1}
    sol = lp.solve(inst)
    assert sol.value("x") == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("changes,message", [
    ({"indptr": np.array([1, 1, 3])}, "indptr"),      # does not start at 0
    ({"indptr": np.array([0, 4, 3])}, "indptr"),      # decreases
    ({"indptr": np.array([0, 1, 2])}, "indptr"),      # ends short of nnz
    ({"indptr": np.array([0, 3])}, "row storage"),
    ({"values": np.array([1.0, 2.0])}, "length mismatch"),
    ({"indices": np.array([0, 0, 2])}, "unknown variable index"),
    ({"indices": np.array([-1, 0, 1])}, "unknown variable index"),
    ({"values": np.array([1.0, np.nan, 3.0])}, "coefficients"),
    ({"senses": ("<=", "<")}, "sense '<'"),
    ({"rhs": np.array([4.0, np.inf])}, "rhs"),
    ({"lower": np.array([0.0, np.nan])}, "NaN"),
    ({"lower": np.array([5.0, 0.0]), "upper": np.array([1.0, 1.0])},
     "lower > upper for variable 'x'"),
    # a variable with no finite value, which a solve would report optimal
    # at objective inf (lower = +inf) or infeasible (upper = -inf)
    ({"lower": np.array([0.0, np.inf])}, "no finite value"),
    ({"lower": np.array([0.0, -np.inf]), "upper": np.array([np.inf, -np.inf])},
     "no finite value"),
    ({"var_labels": ("x", "x")}, "duplicate variable label 'x'"),
    ({"row_labels": ("a", "a")}, "duplicate row label 'a'"),
], ids=["indptr_start", "indptr_decreases", "indptr_end", "indptr_length",
        "value_count", "column_range", "negative_column", "nan_coefficient",
        "unknown_sense", "infinite_rhs", "nan_bound", "lower_above_upper",
        "infinite_lower", "negative_infinite_upper",
        "duplicate_variable", "duplicate_row"])
def test_csr_instance_rejects_inconsistent_data(changes, message):
    with pytest.raises(ValueError, match=message):
        _csr_instance(**changes)


@pytest.mark.parametrize("label,sense,message", [
    ("a", "<=", "duplicate row label 'a'"),
    ("b", "<", "unknown row sense '<'"),
], ids=["duplicate_row", "unknown_sense"])
def test_builder_rejects_inconsistent_rows(label, sense, message):
    """The builder reports a repeated row label or an unknown sense with
    the instance constructor's message, by the time it builds."""
    b = lp.LpBuilder()
    b.add_variable("x")
    b.add_row("a", [("x", 1.0)], "<=", 1.0)
    with pytest.raises(ValueError, match=message):
        b.add_row(label, [("x", 1.0)], sense, 1.0)
        b.build()


def test_replaced_instance_is_validated():
    inst = _csr_instance()
    with pytest.raises(ValueError, match="rhs"):
        dataclasses.replace(inst, rhs=np.array([np.nan, 1.0]))
    moved = dataclasses.replace(inst, rhs=np.array([4.0, 2.0]))
    assert moved.row_index == inst.row_index and moved.indices is inst.indices


def _unit_and_structural_basis(rng, n, m, art_rows, dense):
    """A random nonsingular basis of ``dense`` (structural columns, then
    one slack per row, then the artificials on ``art_rows``): each row
    is covered by its slack, by an artificial on it, or left to one of
    the structural columns. More rows are covered on each attempt, so
    the all-unit basis ends the search."""
    for attempt in range(21):
        covered = rng.random(m) < 0.3 + 0.035 * attempt
        k = m - int(covered.sum())
        if k > n:
            continue
        units = [rng.choice([n + i] + [n + m + t for t, r in enumerate(art_rows)
                                       if r == i])
                 for i in covered.nonzero()[0]]
        basis = rng.permutation(np.concatenate(
            [rng.choice(n, size=k, replace=False), units]).astype(np.intp))
        if np.linalg.cond(dense[:, basis]) < 1e4:
            return basis
    raise AssertionError("the all-unit basis is never singular")


def _expanded_inverse(sx, dense):
    """The dense B^-1 that the simplex's partitioned factor stands for,

        B^-1 = [[A_RK^-1, 0], [-sigma A_SK A_RK^-1, sigma]],

    with rows in basis-position order and columns in row order;
    ``dense`` holds every column of the simplex, units included."""
    binv = np.zeros((sx.m, sx.m))
    binv[np.ix_(sx.kpos, sx.rrow)] = sx.inv
    upos = sx.usign.nonzero()[0]
    binv[upos, sx.urow[upos]] = sx.usign[upos]
    a_sk = dense[np.ix_(sx.urow[upos], sx.basis[sx.kpos])]
    binv[np.ix_(upos, sx.rrow)] = -sx.usign[upos, None] * a_sk @ sx.inv
    return binv


@pytest.mark.parametrize("seed", range(40))
def test_block_refactor_matches_dense_inverse(seed):
    """The blockwise inverse of a basis mixing structural, slack and
    artificial columns equals the dense inverse of that basis, and the
    basics it sets solve the equality system."""
    rng = np.random.default_rng(7000 + seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    a = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < 0.6)
    a[np.arange(m), rng.integers(0, n, m)] = rng.integers(1, 4, m)
    inst = build(rng.integers(-3, 4, n).astype(float), a.astype(float),
                 list(rng.choice(["<=", ">=", "="], m)),
                 rng.integers(-5, 6, m).astype(float), [0.0] * n, [5.0] * n)
    p = lp.LpState(inst)
    assert p.n_rows == m
    sx = lp._Simplex(p)
    art_rows = rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False)
    sx.add_units(art_rows, rng.choice([-1.0, 1.0], len(art_rows)))
    dense = np.zeros((m, sx.n))
    dense[sx.entry_row, sx.entry_col] = sx.entry_val
    basis = _unit_and_structural_basis(rng, n, m, art_rows, dense)
    sx.install_basis(basis)
    assert np.abs(_expanded_inverse(sx, dense)
                  - np.linalg.inv(dense[:, basis])).max() <= 1e-10
    assert np.allclose(dense @ sx.x, p.b_s, atol=1e-10)


_SWAPS = ("structural for structural", "structural in, unit out",
          "unit in, structural out", "unit for unit, same row",
          "unit for unit, other row")


def _swap_kind(sx, r, q):
    """The kind of the swap that puts column ``q`` into basis position
    ``r``, and by how much it changes the block size k."""
    unit_out = sx.usign[r] != 0.0
    if q < sx.ns:
        return (_SWAPS[1], 1) if unit_out else (_SWAPS[0], 0)
    if not unit_out:
        return _SWAPS[2], -1
    same = sx.urow[r] == sx.entry_row[sx.unit_entry[q - sx.ns]]
    return (_SWAPS[3] if same else _SWAPS[4]), 0


def _mixed_basis_simplex(seed):
    """A random 10-row, 14-column LP in a ``_Simplex`` whose every row
    has its slack and an artificial, installed at a random basis of five
    structural columns and five units (slacks and artificials), with a
    random cost on every column; with the dense matrix of all its
    columns and the generator that drew them."""
    rng = np.random.default_rng(seed)
    n, m = 14, 10
    a = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < 0.4)
    a[np.arange(m), rng.integers(0, n, m)] = rng.integers(1, 4, m)
    inst = build(rng.integers(-3, 4, n).astype(float), a.astype(float),
                 list(rng.choice(["<=", ">=", "="], m)),
                 rng.integers(-5, 6, m).astype(float), [0.0] * n, [5.0] * n)
    sx = lp._Simplex(lp.LpState(inst))
    sx.add_units(np.arange(m), rng.choice([-1.0, 1.0], m))
    sx.set_costs(rng.normal(size=sx.n))     # unit columns cost too
    dense = np.zeros((m, sx.n))
    dense[sx.entry_row, sx.entry_col] = sx.entry_val
    while True:
        # five structural basics, and the slack or the artificial of each
        # of the other five rows
        covered = rng.choice(m, size=5, replace=False)
        basis = np.concatenate([rng.choice(n, size=5, replace=False),
                                covered + rng.choice([n, n + m], size=5)])
        if np.linalg.cond(dense[:, basis]) < 1e4:
            break
    sx.install_basis(rng.permutation(basis))
    return rng, sx, dense


def _assert_matches_dense(sx, dense):
    """The factor, its rows, the duals and reduced costs of ``sx`` equal
    the dense formulas of its basis B within 1e-10."""
    binv = np.linalg.inv(dense[:, sx.basis])
    assert np.abs(_expanded_inverse(sx, dense) - binv).max() <= 1e-10
    for r in range(sx.m):
        assert np.abs(sx.inverse_row(r) - binv[r]).max() <= 1e-10
    sx.priced = None
    y, z = sx.duals_and_reduced_costs()
    assert np.abs(y - sx.c[sx.basis] @ binv).max() <= 1e-10
    assert np.abs(z - (sx.c - y @ dense)).max() <= 1e-10


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", _SWAPS)
def test_factor_update_matches_dense_inverse(kind, seed):
    """Three swaps of one kind in a row, each on a random pair whose new
    basis is well conditioned: every entering column equals B^-1 a_q,
    and after every update the partitioned factor, expanded to dense,
    equals ``np.linalg.inv`` of the new basis within 1e-10, as do the
    rows of the inverse, the duals and the reduced costs. The second
    swap is given row r of the inverse, as the dual simplex gives it."""
    rng, sx, dense = _mixed_basis_simplex(9000 + seed)
    _assert_matches_dense(sx, dense)
    for swap in range(3):
        nonbasic = np.setdiff1d(np.arange(sx.n), sx.basis)
        pairs = [(r, q) for r in range(sx.m) for q in nonbasic
                 if _swap_kind(sx, r, q)[0] == kind]
        for at in rng.permutation(len(pairs)):
            r, q = pairs[at]
            new = sx.basis.copy()
            new[r] = q
            if np.linalg.cond(dense[:, new]) < 1e4:
                break
        else:
            raise AssertionError(f"no well-conditioned {kind} swap")
        d = sx.column(q)
        entering = np.linalg.solve(dense[:, sx.basis], dense[:, q])
        assert np.abs(d - entering).max() <= 1e-10
        k = len(sx.kpos)
        step = _swap_kind(sx, r, q)[1]
        sx._replace(r, q, d, sx.inverse_row(r) if swap == 1 else None)
        assert np.array_equal(sx.basis, new)
        assert len(sx.kpos) == len(sx.rrow) == k + step
        _assert_matches_dense(sx, dense)


def _copying_update(sx, r, q, d, rho):
    """A_RK^-1 after column ``q`` enters basis position ``r``, by the
    formulas of a factor that allocates a new block for every border
    and shrink and updates every entry densely: the reference that the
    in-place updates must match bit for bit. Called before the swap."""
    inv = sx.inv.copy()
    k = len(inv)
    t = sx.kslot[sx.basis[r]]
    if q < sx.ns:
        dk = d[sx.kpos]
        if t >= 0:
            pivrow = inv[t] / dk[t]
            inv -= dk[:, None] * pivrow
            inv[t] = pivrow
            return inv
        delta = sx.usign[r] * d[r]
        h = sx._leaving_row_block(r, rho) / -delta
        new = np.empty((k + 1, k + 1))
        new[:k, :k] = inv - dk[:, None] * h
        new[:k, k] = dk / -delta
        new[k, :k] = h
        new[k, k] = 1.0 / delta
        return new
    i = sx.entry_row[sx.unit_entry[q - sx.ns]]
    slot = sx.rslot[i]
    if t >= 0:
        keep_k = np.arange(k) != t
        keep_r = np.arange(k) != slot
        return (inv[np.ix_(keep_k, keep_r)] - inv[keep_k, slot, None]
                * (inv[t, keep_r] / inv[t, slot]))
    if sx.urow[r] != i:
        h = sx._leaving_row_block(r, rho)
        col = inv[:, slot] / h[slot]
        h[slot] -= 1.0
        inv -= col[:, None] * h
    return inv


def _shrink_at(sx, r, q, where):
    """Whether the swap takes the leaving structural's row of A_RK^-1
    and the entering unit's column at ``where`` (first, middle or last
    of the k of each)."""
    k = len(sx.kpos)
    at = {"first": 0, "middle": k // 2, "last": k - 1}[where]
    return (sx.kslot[sx.basis[r]] == at
            and sx.rslot[sx.entry_row[sx.unit_entry[q - sx.ns]]] == at)


def test_in_place_factor_updates_match_copying_formulas():
    """A long run of swaps of every kind, with enough borders to outgrow
    the factor's buffer more than twice and shrinks at the first, a
    middle and the last row and column of A_RK^-1: after each, the
    factor equals the copying formulas of ``_copying_update`` bit for
    bit (``==`` holds -0.0 equal to 0.0, the one difference the sparse
    updates allow) and ``np.linalg.inv`` of A_RK within 1e-10. The
    factor a state holds after its solve is exactly k x k."""
    rng = np.random.default_rng(11)
    n, m = 30, 24
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
    inst = build(rng.normal(size=n), a, ["="] * m, rng.normal(size=m),
                 [0.0] * n, [5.0] * n)
    sx = lp._Simplex(lp.LpState(inst))
    sx.add_units(np.arange(m), rng.choice([-1.0, 1.0], m))
    dense = np.zeros((m, sx.n))
    dense[sx.entry_row, sx.entry_col] = sx.entry_val
    # three structural basics; every other row covered by its slack or
    # its artificial
    covered = np.arange(3, m)
    sx.install_basis(np.concatenate(
        [[0, 1, 2], covered + rng.choice([n, n + m], m - 3)]))
    border, shrink = _SWAPS[1], _SWAPS[2]
    plan = ([border] * 6 + list(_SWAPS) + [border] * 8
            + [(shrink, where) for where in ("first", "middle", "last")]
            + list(_SWAPS) + [border] * 3)
    sizes = [len(sx.buf)]
    for swap, want in enumerate(plan):
        kind, where = want if isinstance(want, tuple) else (want, None)
        nonbasic = np.setdiff1d(np.arange(sx.n), sx.basis)
        pairs = [(r, q) for r in range(sx.m) for q in nonbasic
                 if _swap_kind(sx, r, q)[0] == kind
                 and (where is None or _shrink_at(sx, r, q, where))]
        for at in rng.permutation(len(pairs)):
            r, q = pairs[at]
            new = sx.basis.copy()
            new[r] = q
            if np.linalg.cond(dense[:, new]) < 1e6:
                break
        else:
            raise AssertionError(f"no well-conditioned {want} swap")
        d = sx.column(q)
        rho = sx.inverse_row(r) if swap % 2 else None
        expected = _copying_update(sx, r, q, d, rho)
        sx._replace(r, q, d, rho)
        assert np.array_equal(sx.inv, expected), (swap, want)
        a_rk = dense[np.ix_(sx.rrow, sx.basis[sx.kpos])]
        assert np.abs(sx.inv - np.linalg.inv(a_rk)).max() <= 1e-10
        sizes.append(len(sx.buf))
    assert sum(after > before for before, after in zip(sizes, sizes[1:])) > 2

    state = lp.LpState(_sparse_feasible_lp(5))
    for moved in (0.0, 1.0):
        state.set_rhs(range(state.n_rows), state.rhs + moved)
        sol = lp.solve(state)
        assert sol.status == lp.OPTIMAL and sol.iterations > 0
        held = state.sx.inv
        k = len(state.sx.kpos)
        assert k > 10
        assert (held if held.base is None else held.base).size == k * k


def _sparse_feasible_lp(seed):
    """A random sparse LP of 40 rows and 30 columns, boxed and feasible
    at a random point of its box: with more rows than columns, every
    basis keeps fewer structural basics than rows."""
    rng = np.random.default_rng(seed)
    n, m = 30, 40
    a = rng.integers(-3, 4, (m, n)) * (rng.random((m, n)) < 0.1)
    a[np.arange(m), rng.integers(0, n, m)] = rng.integers(1, 4, m)
    senses = rng.choice(["<=", ">=", "="], m, p=[0.45, 0.45, 0.1])
    point = rng.integers(0, 5, n)
    gap = rng.integers(0, 4, m) * np.where(senses == "<=", 1,
                                           np.where(senses == ">=", -1, 0))
    return build(rng.integers(-5, 6, n).astype(float), a.astype(float),
                 list(senses), (a @ point + gap).astype(float), [0.0] * n,
                 [5.0] * n)


def test_simplex_holds_no_m_by_m_array(monkeypatch):
    """Through a cold solve and a restart after the right-hand sides
    move, no array the simplex holds, nor the buffer under one that is
    a view, has m x m entries: its largest is the buffer of the k x k
    block inverse or the column data."""
    inst = _sparse_feasible_lp(5)
    seen = []

    def spy(raw):
        def checked(self, *args):
            out = raw(self, *args)
            sizes = [a.size for v in vars(self).values()
                     if isinstance(v, np.ndarray)
                     for a in (v, v.base) if isinstance(a, np.ndarray)]
            seen.append((len(self.kpos), self.m, max(sizes)))
            return out
        return checked

    monkeypatch.setattr(lp._Simplex, "_replace", spy(lp._Simplex._replace))
    monkeypatch.setattr(lp._Simplex, "refactor", spy(lp._Simplex.refactor))
    cold = lp.solve(inst)
    assert cold.status == lp.OPTIMAL
    moved = lp.replace_rhs(inst, range(inst.n_rows), inst.rhs + 1.0)
    assert lp.solve(moved, basis=cold.basis).status == lp.OPTIMAL
    assert len(seen) > 20 and max(k for k, _, _ in seen) > 10
    for k, m, largest in seen:
        assert m == inst.n_rows and k < m
        assert largest < m * m


def _dependent_columns_instance():
    """min x0 + x1 s.t. x0 + x1 >= 2, 2 x0 + 2 x1 <= 5: the two columns
    are equal, so no basis holds both."""
    return build([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [">=", "<="],
                 [2.0, 5.0], [0.0, 0.0], [np.inf, np.inf])


def test_refactor_rejects_shared_row_and_singular_block(monkeypatch):
    p = lp.LpState(_dependent_columns_instance())
    sx = lp._Simplex(p)
    sx.add_units(np.array([0]), np.array([1.0]))
    with pytest.raises(NumericalFailure, match="share a row"):
        sx.install_basis([2, 4])        # row 0's slack and its artificial
    with pytest.raises(NumericalFailure, match="singular"):
        lp._Simplex(p).install_basis([0, 1])
    # the same singular block as a warm basis: the solve goes cold
    inst = _dependent_columns_instance()
    cold = lp.solve(inst)
    restarts = []
    raw = lp.LpState._warm
    monkeypatch.setattr(lp.LpState, "_warm",
                        lambda *args: restarts.append(raw(*args)) or restarts[-1])
    sol = lp.solve(inst, basis=([lp._BASIC, lp._BASIC],
                                [lp._AT_UPPER, lp._AT_LOWER]))
    assert restarts == [None]
    assert sol.status == lp.OPTIMAL
    assert sol.objective == cold.objective == pytest.approx(2.0, abs=1e-9)
    assert np.array_equal(sol.primal, cold.primal)


def _same_solution(sol, other):
    assert sol.status == other.status
    assert sol.objective == other.objective
    for mine, theirs in ((sol.primal, other.primal), (sol.duals, other.duals),
                         (sol.reduced_costs, other.reduced_costs)):
        assert np.array_equal(mine, theirs)


def _dense_twin(inst):
    """The instance rebuilt row by row from its dense matrix."""
    return build(inst.objective, inst.dense_matrix(), list(inst.senses),
                 inst.rhs, inst.lower, inst.upper, list(inst.var_labels),
                 list(inst.row_labels))


def _scipy_csr_reference(inst):
    """scipy HiGHS on the instance's CSR triple, which scipy coalesces
    itself by summing repeated entries."""
    a = sparse.csr_array((inst.values, inst.indices, inst.indptr),
                         shape=(inst.n_rows, inst.n_vars)).toarray()
    return _scipy_reference(a, inst.objective, inst.senses, inst.rhs,
                            inst.lower, inst.upper)


def test_repeated_column_in_a_row_solves_like_dense_matrix():
    """Row a holds x twice (3x + 2y >= 4), row b holds y twice with
    opposite signs (x <= 3) and row c only y - y, so it is empty."""
    inst = _csr_instance(
        objective=np.array([2.0, 1.0]), indptr=np.array([0, 3, 6, 8]),
        indices=np.array([0, 1, 0, 1, 1, 0, 1, 1]),
        values=np.array([1.0, 2.0, 2.0, 1.0, -1.0, 1.0, 1.5, -1.5]),
        senses=(">=", "<=", "="), rhs=np.array([4.0, 3.0, 0.0]),
        row_labels=("a", "b", "c"))
    assert np.array_equal(inst.dense_matrix(), [[3.0, 2.0], [1.0, 0.0],
                                                [0.0, 0.0]])
    sol = lp.solve(inst)
    _same_solution(sol, lp.solve(_dense_twin(inst)))
    ref = _scipy_csr_reference(inst)
    assert ref.status == 0 and sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    assert sol.dual("c") == 0.0


def test_explicit_zero_coefficients_are_no_entries():
    """0 x + y >= 1 has the one entry y; 0 x <= 2 has none, so it is an
    empty row, and with a right-hand side of -1 it is infeasible."""
    inst = _csr_instance(indptr=np.array([0, 2, 3]),
                         indices=np.array([0, 1, 0]),
                         values=np.array([0.0, 1.0, 0.0]),
                         senses=(">=", "<="), rhs=np.array([1.0, 2.0]))
    sol = lp.solve(inst)
    _same_solution(sol, lp.solve(_dense_twin(inst)))
    ref = _scipy_csr_reference(inst)
    assert ref.status == 0 and sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    violated = lp.replace_rhs(inst, [1], [-1.0])
    assert _scipy_csr_reference(violated).status == 2
    assert lp.solve(violated).status == lp.INFEASIBLE
    assert lp.solve(_dense_twin(violated)).status == lp.INFEASIBLE


@st.composite
def _any_lp(draw):
    """A random LP with boxed, half-bounded, free and fixed variables and
    few distinct coefficients, so that many are degenerate, infeasible
    or unbounded. Returned as the arrays build() and the scipy
    reference take."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 5))
    coef = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    a = np.array(draw(st.lists(st.lists(coef, min_size=n, max_size=n),
                               min_size=m, max_size=m)),
                 dtype=float).reshape(m, n)
    if m >= 2 and draw(st.booleans()):
        a[-1] = a[0]                             # a repeated row
    cost = np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n)), dtype=float)
    lower, upper = np.zeros(n), np.zeros(n)
    for j in range(n):
        lo = draw(st.integers(-3, 2))
        kind = draw(st.sampled_from(["boxed", "lower", "upper", "free",
                                     "fixed"]))
        lower[j] = -np.inf if kind in ("upper", "free") else lo
        upper[j] = {"boxed": lo + draw(st.integers(1, 4)), "fixed": lo,
                    "upper": lo}.get(kind, np.inf)
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m,
                           max_size=m))
    rhs = np.array(draw(st.lists(st.integers(-4, 4), min_size=m,
                                 max_size=m)), dtype=float)
    return a, cost, senses, rhs, lower, upper


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_any_lp())
def test_status_and_objective_match_highs_property(data):
    """Any small LP ends with HiGHS's status and, when optimal, its
    objective. An LP HiGHS calls unbounded counts as infeasible when it
    has no feasible point at all."""
    a, c, senses, rhs, lower, upper = data
    sol = lp.solve(build(c, a, senses, rhs, lower, upper))
    ref = _scipy_reference(a, c, senses, rhs, lower, upper)
    assert ref.status in (0, 2, 3)
    feasible = _scipy_reference(a, 0.0 * c, senses, rhs, lower,
                                upper).status == 0
    if not feasible:
        assert sol.status == lp.INFEASIBLE
    elif ref.status == 3:
        assert sol.status == lp.UNBOUNDED
    else:
        assert ref.status == 0 and sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)


@st.composite
def _moved_and_grown(draw):
    """A bounded feasible LP plus moved right-hand sides for its rows and
    0-3 further rows, as (instance, rhs, new rows as a CSR block)."""
    inst = draw(_bounded_feasible_lp())
    shift = draw(st.lists(st.integers(-2, 2), min_size=inst.n_rows,
                          max_size=inst.n_rows))
    k = draw(st.integers(0, 3))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=inst.n_vars,
                          max_size=inst.n_vars)) for _ in range(k)]
    block = sparse.csr_array(np.array(rows, dtype=float).reshape(
        k, inst.n_vars))
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=k,
                           max_size=k))
    rhs = draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
    return inst, inst.rhs + np.array(shift), (block, senses, rhs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_moved_and_grown())
def test_restart_after_moved_rhs_and_new_rows_matches_cold_property(case):
    """A restart from the optimal basis, after the right-hand sides move
    and rows are appended, ends with the cold solve's status and
    objective."""
    inst, rhs, (block, senses, new_rhs) = case
    first = lp.solve(inst)
    assume(first.basis is not None)
    moved = lp.replace_rhs(inst, range(inst.n_rows), rhs)
    grown = lp.extend_rows(moved, block.indptr, block.indices, block.data,
                           senses, new_rhs,
                           [f"new{i}" for i in range(len(senses))])
    warm = lp.solve(grown, basis=first.basis)
    cold = lp.solve(grown)
    assert warm.status == cold.status
    if cold.status == lp.OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                               abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_moved_and_grown())
def test_restart_proves_infeasibility_without_cold_solve(case):
    """On the examples of the restart property test, a restart ends with
    the cold solve's status, and an infeasible one is settled by the
    dual simplex without a cold solve."""
    inst, rhs, (block, senses, new_rhs) = case
    first = lp.solve(inst)
    assume(first.basis is not None)
    moved = lp.replace_rhs(inst, range(inst.n_rows), rhs)
    grown = lp.extend_rows(moved, block.indptr, block.indices, block.data,
                           senses, new_rhs,
                           [f"new{i}" for i in range(len(senses))])
    colds = []
    raw = lp.LpState._cold
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp.LpState, "_cold", lambda p: colds.append(p) or raw(p))
        warm = lp.solve(grown, basis=first.basis)
    cold = lp.solve(grown)
    assert warm.status == cold.status
    if cold.status == lp.INFEASIBLE:
        assert colds == []
        assert warm.primal is None and warm.basis is None


def test_solve_counters_add_up_over_cold_own_factor_and_new_rows():
    """A state's cold solve, its 0-pivot restart from its own factor
    (which refactors nothing and reproduces the cold solution bit for
    bit), and its restart after a row cuts the optimum off: in each,
    dual and primal pivots add up to the iterations. A solution reads
    its labels off the state, which moves on: a value stays readable
    after a later append, and a row appended after the solve has no
    dual in it."""
    inst = _sparse_feasible_lp(5)
    state = lp.LpState(inst)
    cold = lp.solve(state)
    assert cold.start == "cold" and cold.iterations > 0
    assert cold.dual_pivots == 0 and cold.refactors >= 2
    again = lp.solve(state)
    assert again.start == "warm"
    assert again.iterations == again.refactors == 0
    for mine, theirs in ((again.primal, cold.primal),
                         (again.duals, cold.duals),
                         (again.reduced_costs, cold.reduced_costs),
                         *zip(again.basis, cold.basis)):
        assert mine.tobytes() == theirs.tobytes()
    n = inst.n_vars
    state.append_rows([0, n], np.arange(n), np.ones(n), ["<="],
                      [cold.primal.sum() - 1.0], ["cut"])
    assert cold.source is state
    assert cold.value("x1") == cold.primal[1]
    assert cold.dual("r2") == cold.duals[2]
    with pytest.raises(KeyError):
        cold.dual("cut")
    grown = lp.solve(state)
    assert grown.start == "warm" and grown.dual_pivots >= 1
    assert grown.dual("cut") == grown.duals[inst.n_rows]
    assert grown.refactors >= 1
    assert grown.objective == pytest.approx(
        lp.solve(state.instance()).objective, rel=1e-9)
    for sol in (cold, again, grown):
        assert sol.dual_pivots + sol.primal_pivots == sol.iterations


@pytest.mark.parametrize("block, message", [
    (([0, 1], [0], [np.nan], ["<="], [1.0], ["a"]),
     "row coefficients must be finite"),
    (([0, 1], [3], [1.0], ["<="], [1.0], ["a"]),
     "row references an unknown variable index"),
    (([0, 1], [0], [1.0], ["<"], [1.0], ["a"]), "unknown row sense '<'"),
    (([0, 1], [0], [1.0], ["<="], [np.inf], ["a"]), "rhs must be finite"),
    (([0, 2], [0], [1.0], ["<="], [1.0], ["a"]),
     "indptr must start at 0, never decrease and end at the nonzero count"),
    (([0, 1], [0], [1.0], ["<="], [1.0], ["r1"]), "duplicate row label 'r1'"),
    (([0, 1, 2], [0, 1], [1.0, 1.0], ["<="] * 2, [1.0] * 2, ["a", "a"]),
     "duplicate row label 'a'"),
], ids=["coefficient", "column", "sense", "rhs", "indptr", "label",
        "label_in_block"])
def test_state_checks_appended_rows_as_the_constructor_does(block, message):
    """Appended rows are checked on arrival with the instance
    constructor's messages, and a rejected block leaves the state as it
    was."""
    inst = _unused_column_instance()
    indptr, indices, values, senses, rhs, labels = block
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(
            inst,
            indptr=np.concatenate([inst.indptr,
                                   inst.indptr[-1] + np.asarray(indptr[1:])]),
            indices=np.concatenate([inst.indices, indices]),
            values=np.concatenate([inst.values, values]),
            senses=inst.senses + tuple(senses),
            rhs=np.concatenate([inst.rhs, rhs]),
            row_labels=inst.row_labels + tuple(labels))
    state = lp.LpState(inst)
    with pytest.raises(ValueError, match=message):
        state.append_rows(*block)
    assert state.n_rows == inst.n_rows and list(state.row_index) == ["r0", "r1"]
    assert lp.solve(state).objective == pytest.approx(2.0)


def test_state_checks_rewritten_rhs():
    state = lp.LpState(_unused_column_instance())
    with pytest.raises(ValueError, match="rhs must be finite"):
        state.set_rhs([0], [np.nan])
    with pytest.raises(ValueError, match="unknown row"):
        state.set_rhs([2], [1.0])
    assert state.rhs.tolist() == [2.0, 1.0]


def test_rows_appended_one_at_a_time_solve_as_rows_appended_at_once():
    """Rows naming a column twice, appended to a state one block at a
    time, are stored, scaled and solved bit for bit as the same rows
    appended at once, and stand for the same instance at moved
    right-hand sides; and the state agrees with a cold solve of the
    instance it stands for."""
    rng = np.random.default_rng(3)
    inst = _sparse_feasible_lp(11)
    n = inst.n_vars
    rows = []
    for i in range(6):
        cols = rng.choice(n, 4)
        cols[1] = cols[0]                       # a repeated column
        rows.append((cols, rng.integers(-3, 4, 4).astype(float),
                     float(rng.integers(5, 30)), f"extra{i}"))
    one = lp.LpState(inst)
    for cols, vals, b, label in rows:
        one.append_rows([0, 4], cols, vals, ["<="], [b], [label])
    whole = lp.LpState(inst)
    whole.append_rows(np.arange(7) * 4, np.concatenate([r[0] for r in rows]),
                      np.concatenate([r[1] for r in rows]), ["<="] * 6,
                      [r[2] for r in rows], [r[3] for r in rows])
    for name in ("rowptr", "entry_row", "entry_col", "entry_val", "b_s", "c",
                 "lower", "upper", "rscale"):
        assert getattr(one, name).tobytes() == getattr(whole, name).tobytes()
    a, b = lp.solve(one), lp.solve(whole)
    _same_solution(a, b)
    assert a.objective == pytest.approx(lp.solve(one.instance()).objective,
                                        rel=1e-9)
    moved = [0, inst.n_rows, inst.n_rows + 5]
    for state in (one, whole):
        state.set_rhs(moved, [1.0, 2.0, 3.0])
    mine, theirs = one.instance(), whole.instance()
    for name in ("indptr", "indices", "values", "rhs"):
        assert getattr(mine, name).tobytes() == getattr(theirs, name).tobytes()
    assert mine.senses == theirs.senses
    assert mine.row_labels == theirs.row_labels
    assert mine.rhs[moved].tolist() == [1.0, 2.0, 3.0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_moved_and_grown())
def test_state_restart_after_moved_rhs_and_new_rows_matches_cold_property(
        case):
    """A state that moves its right-hand sides and appends rows after an
    optimal solve, and restarts from its own factor, ends with the
    status and objective of a cold solve of the instance it stands
    for; and so does the solve after that."""
    inst, rhs, (block, senses, new_rhs) = case
    state = lp.LpState(inst)
    first = lp.solve(state)
    assume(first.basis is not None)
    state.set_rhs(range(inst.n_rows), rhs)
    state.append_rows(block.indptr, block.indices, block.data, senses,
                      new_rhs, [f"new{i}" for i in range(len(senses))])
    for _ in range(2):
        warm = lp.solve(state)
        cold = lp.solve(state.instance())
        assert warm.status == cold.status
        if cold.status == lp.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9,
                                                   abs=1e-9)
        state.set_rhs(range(inst.n_rows), inst.rhs)


def test_state_checks_empty_rows_at_each_solve(monkeypatch):
    """A row with no nonzero entry, in the template or appended, holds
    its slack alone and its right-hand side is checked at each solve:
    violated, the solve ends infeasible, proved by a restart's dual
    simplex from the held factor or by a cold solve's phase 1;
    restored, the state solves to the instance's optimum again. A kept
    factor takes a block that holds such a row."""
    inst = _csr_instance(indptr=np.array([0, 2, 3]),
                         indices=np.array([0, 1, 0]),
                         values=np.array([0.0, 1.0, 0.0]),
                         senses=(">=", "<="), rhs=np.array([1.0, 2.0]))
    state = lp.LpState(inst)
    optimum = lp.solve(state).objective
    state.append_rows([0, 1, 1], [0], [1.0], ["<=", "="], [5.0, 0.0],
                      ["x_cap", "empty"])
    warm = lp.solve(state)
    assert warm.start == "warm" and warm.objective == optimum
    state.set_rhs([3], [0.5])
    with monkeypatch.context() as patch:
        patch.setattr(lp.LpState, "_cold", None)
        proved = lp.solve(state)
    assert (proved.status, proved.start) == (lp.INFEASIBLE, "warm")
    state.set_rhs([3], [0.0])
    for row, bad, good in ((3, 0.5, 0.0), (1, -1.0, 2.0)):
        state.set_rhs([row], [bad])
        assert lp.solve(state).status == lp.INFEASIBLE
        assert lp.solve(state.instance()).status == lp.INFEASIBLE
        state.set_rhs([row], [good])
    sol = lp.solve(state)
    assert sol.status == lp.OPTIMAL and sol.objective == optimum
    assert sol.objective == lp.solve(state.instance()).objective


def test_append_keeps_the_held_entries_as_a_prefix():
    """An append adds its rows' entries after those held and moves none
    of them: the arrays held before are an unchanged prefix of the
    arrays after."""
    state = lp.LpState(_sparse_feasible_lp(11))
    lp.solve(state)
    held = [getattr(state, name).copy()
            for name in ("rowptr", "entry_row", "entry_col", "entry_val")]
    state.append_rows([0, 3, 5], [4, 0, 2, 9, 1], [1.0, -2.0, 0.5, 3.0, 1.0],
                      ["<=", ">="], [8.0, -1.0], ["c0", "c1"])
    for before, name in zip(held, ("rowptr", "entry_row", "entry_col",
                                   "entry_val")):
        after = getattr(state, name)
        assert len(after) > len(before)
        assert after[:len(before)].tobytes() == before.tobytes()
    assert lp.solve(state).objective == pytest.approx(
        lp.solve(state.instance()).objective, rel=1e-9)


def test_template_and_appended_rows_take_one_row_path():
    """The template's rows and appended ones go into a state by one
    path. A template with an empty row, an explicit zero and a column
    repeated within a row, grown by two blocks that hold a row whose
    entries cancel and an empty row, ends with one entry list in row
    order: each row holds its entries as they arrived (a template row
    as ``_entries`` gives it, an appended one by column) and then its
    slack's unit entry, an empty row its slack alone, and a cold
    simplex's artificials come after the last row. Every row is a
    simplex row, and each row's slack bounds are those its sense
    sets."""
    inst = lp.LpInstance(
        objective=np.ones(3), indptr=np.array([0, 3, 3, 5]),
        indices=np.array([0, 1, 1, 0, 2]),
        values=np.array([1.0, 1.5, 0.5, 0.0, 3.0]),
        senses=("<=", ">=", "="), rhs=np.array([4.0, -1.0, 3.0]),
        lower=np.zeros(3), upper=np.full(3, np.inf),
        var_labels=("x", "y", "z"), row_labels=("r0", "r1", "r2"))
    state = lp.LpState(inst)
    state.append_rows([0, 2, 4], [1, 0, 2, 2], [2.0, 1.0, 1.0, -1.0],
                      ["<=", ">="], [6.0, 0.0], ["a0", "a1"])
    state.append_rows([0, 0, 2], [0, 2], [-1.0, 2.0], ["=", ">="],
                      [0.0, -5.0], ["b0", "b1"])
    senses = ["<=", ">=", "=", "<=", ">=", "=", ">="]
    n, m = state.n, len(senses)
    assert state.n_rows == m and list(state.row_index) == [
        "r0", "r1", "r2", "a0", "a1", "b0", "b1"]
    assert lp._Simplex(state).m == len(state.b_s) == len(state.rscale) == m

    assert (np.diff(state.entry_row) >= 0).all()
    assert state.rowptr.tolist() == [0, 3, 4, 6, 9, 10, 11, 14]
    assert len(state.entry_row) == len(state.entry_col) \
        == len(state.entry_val) == state.rowptr[-1]
    cols = [[0, 1], [], [2], [0, 1], [], [], [0, 2]]
    for i, want in enumerate(cols):
        nz = slice(state.rowptr[i], state.rowptr[i + 1])
        assert (state.entry_row[nz] == i).all()
        assert state.entry_col[nz].tolist() == want + [n + i]
        assert state.entry_val[nz][-1] == 1.0
    structural = state.entry_col < n
    assert (state.entry_val[structural] != 0.0).all()
    row, col, _ = lp._entries(inst.indptr, inst.indices, inst.values)
    assert state.entry_row[structural][:len(row)].tolist() == row.tolist()
    assert state.entry_col[structural][:len(col)].tolist() == col.tolist()

    sx = lp._Simplex(state)
    assert sx.unit_entry.tolist() == (state.rowptr[1:] - 1).tolist()
    sx.add_units(np.array([1, 4]), np.array([1.0, -1.0]))
    end = state.rowptr[-1]
    assert sx.entry_row[end:].tolist() == [1, 4]
    assert sx.entry_col[end:].tolist() == [n + m, n + m + 1]
    assert sx.entry_val[end:].tolist() == [1.0, -1.0]
    assert sx.unit_entry[m:].tolist() == [end, end + 1]

    bounds = {"<=": (0.0, np.inf), ">=": (-np.inf, 0.0), "=": (0.0, 0.0)}
    assert list(zip(state.lower[n:].tolist(), state.upper[n:].tolist())) \
        == [bounds[s] for s in senses]
    assert lp.solve(state).objective == pytest.approx(1.0)
    assert lp.solve(state.instance()).objective == pytest.approx(1.0)
