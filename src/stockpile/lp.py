"""Bounded-variable linear programming with exact duals.

Self-contained revised simplex over problems of the form

    min c'x   s.t.  a_i'x {<=, >=, =} b_i,   l <= x <= u,

returning the primal point, the objective, one dual per row, and reduced
costs. Duals follow the sensitivity convention: the dual of row i is the
derivative of the optimal objective in b_i. Under
minimization that makes the dual of a binding >= row nonnegative, of a
binding <= row nonpositive, and of an equality row sign-free.

An :class:`LpInstance` holds its rows in compressed sparse row (CSR)
form: the nonzeros of row i are ``values[indptr[i]:indptr[i + 1]]`` in
the columns ``indices[indptr[i]:indptr[i + 1]]``, the triple that
``scipy.sparse.csr_array((values, indices, indptr))`` takes.
:func:`extend_rows` takes the rows it appends as such a triple too, so
a caller can build a block of rows with array operations. A row may
name a column twice or with a zero coefficient. Every instance,
including those :func:`extend_rows` and :func:`replace_rhs` derive, is
checked by its constructor. An :class:`LpState` is built from a checked
instance, and checks the rows it appends and the right-hand sides it
rewrites when they arrive, with the constructor's messages; there is no
unchecked path. The instance a state stands for is derived the same
way: its template at the current right-hand sides, with each appended
block applied by :func:`extend_rows`, the one code that concatenates
CSR rows.

The simplex kernel is sparse and never forms a dense copy of the
constraint matrix. Presolve, alone, sums a column repeated within a row
and drops zeros as it turns the CSR rows into compressed sparse columns,
then equilibrates them on their nonzeros. Slack and phase-1
artificial columns are unit columns, stored as a row and a sign. Every
product with the matrix (pricing ``y @ A``, the leaving row of the
tableau, ``A @ x``) is one ``np.bincount`` over the nonzeros.

Nor does it form an m x m basis inverse. Each basic unit column covers
its own row; with K the structural basics, R the rows no basic unit
covers and S the covered ones, the basis inverse is held as the k x k
inverse of the block A_RK (k = |K| = |R|) plus the signs of the
covering units, so memory and work per pivot grow with k, not m:

* an entering column is d_K = A_RK^-1 a_R, then
  d_U = sigma (a_S - A_SK d_K);
* duals are y_S = sigma c_U, then y_R = (c_K - y_S A_SK) A_RK^-1;
* a pivot updates A_RK^-1 by the kind of the swap: a rank-1 column
  update (structural for structural), a border by one row and column
  (a structural in place of a unit), a shrink by one (a unit in place
  of a structural), a rank-1 row update (units on different rows), or
  a sign alone (units on the same row).

Every 100 pivots, and once at the end, the block is inverted afresh;
the all-slack start inverts nothing.

The solver is deterministic: the same instance solved twice in one
process yields bit-identical results, and the returned solution is
computed from the final basis alone, whatever pivots reached it.
Anti-cycling is handled by switching from Dantzig pricing to Bland's
rule after a run of 1000 degenerate pivots. Rows and columns are
max-norm equilibrated internally, so the stated tolerances apply to the
scaled system; for data of order one they coincide with the raw
residuals.

Every solve runs on an :class:`LpState`, the problem presolved and
scaled. :func:`solve` builds one for an instance and solves it once,
so a one-shot solve depends on the instance alone. A caller that
solves one problem many times keeps its state: :meth:`LpState.set_rhs`
rewrites right-hand sides in place and :meth:`LpState.append_rows`
appends rows, so the next solve needs no new instance, no presolve and
no new scaling. Only the rows appended get scales, each its own over
the column scales the state fixed at the start.

Restarts: after an optimal solve, a state keeps the factor of its
basis, the one the last refactor in sorted basis order made. An
appended row enters with its slack basic; that is one more row a basic
unit covers, so A_RK^-1 stays as it is. The next solve of the state
sets the basics for the current right-hand sides (one ftran) and
restarts from that factor. Without one, it restarts from a given
basis: an optimal :class:`LpSolution` carries its basis, and
:func:`solve` accepts it back for a problem with the same variables
whose rows extend the earlier rows (new rows start with their slack
basic), and installs it. Changing right-hand sides or appending rows
keeps such a basis dual feasible, so either restart runs a
bounded-variable dual simplex until no basic variable violates its
bounds (leaving row: largest violation; entering column: smallest
|z_j / alpha_j|, ties to the largest |alpha_j|), then the primal
simplex, and then the same residual, bound and duality-gap checks as a
cold solve. A leaving row that no column can enter proves the LP
infeasible, and the restart reports INFEASIBLE. A basis that does not
fit the problem, a singular basis, any numerical failure and any other
non-optimal end send the solve down the cold two-phase path instead,
so a restart changes the work done but never whether a solve succeeds.
A solution's ``start`` says which of these paths produced it, and its
counters how many pivots and factorizations it took.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (NotOptimal, NumericalFailure, SolverFailure,
                     UnknownVariable)

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_SENSES = (LESS_EQUAL, GREATER_EQUAL, EQUAL)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-7

# Internal pivot tolerances, applied to the equilibrated system.
_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_PRIMAL_TOL = 1e-9
_RATIO_TIE = 1e-9
_BLAND_TRIGGER = 1000
_REFACTOR_EVERY = 100
_PIVOT_LIMIT = 20000
_PIVOT_LIMIT_PER_DIM = 200


def _as_readonly(arr, dtype=float) -> np.ndarray:
    """``arr`` as a read-only contiguous array. Writable input is
    copied, so no caller can change the result or finds its own array
    frozen; read-only input is shared."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, which nothing else references, made read-only."""
    arr.setflags(write=False)
    return arr


def _label_index(labels: tuple, kind: str) -> dict:
    """Position of each label; raises ValueError on a duplicate."""
    index = dict(zip(labels, range(len(labels))))
    if len(index) != len(labels):
        # positions overwritten by a later occurrence of their label
        first = np.setdiff1d(np.arange(len(labels)), list(index.values()))[0]
        raise ValueError(f"duplicate {kind} label {labels[first]!r}")
    return index


def _check_rows(indptr, indices, values, senses, rhs, m: int, n: int):
    """Check ``m`` rows in CSR form over ``n`` columns, with their senses
    and right-hand sides; raises ValueError with the message the
    :class:`LpInstance` constructor gives."""
    if rhs.shape != (m,) or len(senses) != m:
        raise ValueError("rhs/senses length does not match row count")
    if indptr.shape != (m + 1,):
        raise ValueError("row storage length does not match row count")
    if indices.ndim != 1 or indices.shape != values.shape:
        raise ValueError("row index/value length mismatch")
    if (indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any()
            or indptr[-1] != len(indices)):
        raise ValueError("indptr must start at 0, never decrease and "
                         "end at the nonzero count")
    if not np.isfinite(values).all():
        raise ValueError("row coefficients must be finite")
    if not np.isfinite(rhs).all():
        raise ValueError("rhs must be finite")
    unknown = set(senses).difference(_SENSES)
    if unknown:
        raise ValueError(f"unknown row sense {min(unknown, key=senses.index)!r}")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError("row references an unknown variable index")


@dataclass(frozen=True)
class LpInstance:
    """Immutable LP description with CSR rows and labeled components.

    Row i has the coefficients ``values[indptr[i]:indptr[i + 1]]`` in
    the columns ``indices[indptr[i]:indptr[i + 1]]``. The constructor
    stores every array as a read-only copy (arrays already read-only are
    shared), checks the whole instance with array operations and builds
    the label indices, so every instance is a checked one. Use
    :class:`LpBuilder` for incremental construction, :func:`extend_rows`
    to derive a new instance with extra rows and :func:`replace_rhs` to
    move right-hand sides.
    """

    objective: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    senses: tuple
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var_labels: tuple
    row_labels: tuple
    var_index: dict = field(init=False, repr=False, compare=False)
    row_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("objective", float), ("indptr", np.intp),
                            ("indices", np.intp), ("values", float),
                            ("rhs", float), ("lower", float), ("upper", float)):
            object.__setattr__(self, name, _as_readonly(getattr(self, name), dtype))
        for name in ("senses", "var_labels", "row_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.var_labels)
        if self.objective.shape != (n,) or self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("objective/bounds length does not match variable count")
        _check_rows(self.indptr, self.indices, self.values, self.senses,
                    self.rhs, len(self.row_labels), n)
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower > upper for variable {self.var_labels[bad]!r}")
        object.__setattr__(self, "var_index", _label_index(self.var_labels, "variable"))
        object.__setattr__(self, "row_index", _label_index(self.row_labels, "row"))

    @property
    def n_vars(self) -> int:
        return len(self.var_labels)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        row, col, val, _ = _entries(self.indptr, self.indices, self.values)
        a[row, col] = val
        return a


class LpBuilder:
    """Incremental construction of an :class:`LpInstance`."""

    def __init__(self):
        self._cost = []
        self._lower = []
        self._upper = []
        self._var_labels = []
        self._var_index = {}
        self._indptr = [0]
        self._indices = []
        self._values = []
        self._senses = []
        self._rhs = []
        self._row_labels = []

    def add_variable(self, label: str, cost: float = 0.0,
                     lower: float = 0.0, upper: float = np.inf) -> int:
        if label in self._var_index:
            raise ValueError(f"duplicate variable label {label!r}")
        j = len(self._var_labels)
        self._var_index[label] = j
        self._var_labels.append(label)
        self._cost.append(float(cost))
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        return j

    def add_row(self, label: str, terms, sense: str, rhs: float) -> int:
        """Append one row. ``terms`` pairs a variable index or label with a
        coefficient and is stored as given. Raises :class:`UnknownVariable`
        for a variable the builder lacks; :meth:`build` rejects a repeated
        row label or an unknown sense."""
        cols, vals = [], []
        for var, coef in terms:
            if isinstance(var, (int, np.integer)):
                j = int(var)
                if not 0 <= j < len(self._var_labels):
                    raise UnknownVariable(f"variable index {j} out of range")
            elif var in self._var_index:
                j = self._var_index[var]
            else:
                raise UnknownVariable(f"unknown variable {var!r}")
            cols.append(j)
            vals.append(float(coef))
        self._indices += cols
        self._values += vals
        self._indptr.append(len(self._indices))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._row_labels.append(label)
        return len(self._row_labels) - 1

    def build(self) -> LpInstance:
        return LpInstance(
            objective=self._cost,
            indptr=self._indptr,
            indices=self._indices,
            values=self._values,
            senses=self._senses,
            rhs=self._rhs,
            lower=self._lower,
            upper=self._upper,
            var_labels=self._var_labels,
            row_labels=self._row_labels,
        )


def extend_rows(instance: LpInstance, indptr, indices, values, senses,
                rhs, labels) -> LpInstance:
    """Return a new instance with a block of extra rows appended.

    The block is given in CSR form (see the module docstring) with its
    own ``indptr``, which starts at 0, plus one sense, right-hand side
    and label per row. Column indices refer to the instance's variables.
    The original instance is untouched. Raises :class:`UnknownVariable`
    for a column index outside the instance and :class:`ValueError` for
    anything else the constructor rejects.
    """
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    if indptr.shape != (len(labels) + 1,) or indptr[0] != 0:
        raise ValueError("block indptr must start at 0 and have one entry "
                         "per row plus one")
    if not len(labels):
        return instance
    outside = (indices < 0) | (indices >= instance.n_vars)
    if np.any(outside):
        raise UnknownVariable(
            f"variable index {indices[outside][0]} out of range")
    return replace(
        instance,
        indptr=np.concatenate([instance.indptr,
                               len(instance.indices) + indptr[1:]]),
        indices=np.concatenate([instance.indices, indices]),
        values=np.concatenate([instance.values, values]),
        senses=instance.senses + tuple(senses),
        rhs=np.concatenate([instance.rhs, rhs]),
        row_labels=instance.row_labels + tuple(labels),
    )


def replace_rhs(instance: LpInstance, rows, values) -> LpInstance:
    """Return a new instance whose right-hand sides at the row positions
    ``rows`` are ``values``. The original is untouched."""
    rhs = np.array(instance.rhs)
    rhs[list(rows)] = values
    return replace(instance, rhs=rhs)


@dataclass(frozen=True)
class LpSolution:
    """Result of a solve. Primal/dual data is populated only when optimal.

    ``iterations`` counts the pivots of the solve, ``dual_pivots`` those
    of the dual simplex and ``primal_pivots`` those of the primal one
    (phase 1 included), so the two add up to ``iterations``;
    ``refactors`` counts the factorizations of the basis, those that
    install a basis and the last one included. ``basis`` is the optimal
    basis as a read-only pair of status arrays, one entry per variable
    and one per row slack, for restarting a later :func:`solve`; it is
    None unless the status is optimal, and also when an artificial
    variable is still basic. ``start`` names the path that produced the
    result: ``"warm"`` for a restart from a basis (a given one or the
    factor an :class:`LpState` kept), ``"fallback"`` for the cold solve
    after a restart that could not finish, and ``"cold"`` otherwise (no
    basis, or presolve settled the problem before any basis was
    installed).

    ``source`` is what was solved: the :class:`LpInstance` given to
    :func:`solve`, or the :class:`LpState`. :meth:`value` and
    :meth:`dual` read their labels off it. A state moves on after its
    solve, and :meth:`dual` raises KeyError for a row appended since;
    to keep the instance a state solve saw, take
    :meth:`LpState.instance` before the state moves.
    """

    status: str
    objective: float | None
    primal: np.ndarray | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int
    source: object = field(repr=False, compare=False)
    basis: tuple | None = field(default=None, repr=False, compare=False)
    start: str = field(default="cold", compare=False)
    dual_pivots: int = field(default=0, compare=False)
    primal_pivots: int = field(default=0, compare=False)
    refactors: int = field(default=0, compare=False)

    def _need_optimal(self):
        if self.status != OPTIMAL:
            raise NotOptimal(f"solution status is {self.status!r}")

    def value(self, label: str) -> float:
        self._need_optimal()
        return float(self.primal[self.source.var_index[label]])

    def dual(self, label: str) -> float:
        self._need_optimal()
        i = self.source.row_index[label]
        if i >= len(self.duals):            # a row appended after the solve
            raise KeyError(label)
        return float(self.duals[i])


# basis status codes
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE_NB = 3
_FIXED = 4
# by status, the sign that turns a rate per unit increase into a gain
# (see _Simplex._gain): a column at its lower bound can only rise, one at
# its upper bound only fall, basic and fixed ones do not move
_GAIN_SIGN = np.array([0.0, -1.0, 1.0, 0.0, 0.0])


def _subtract_outer(a, u, v):
    """``a -= outer(u, v)`` in place. When under a quarter of ``v`` is
    nonzero, only those columns are touched: elsewhere the update would
    subtract zeros, and indexing the columns costs more than the dense
    update unless they are few."""
    nz = v.nonzero()[0]
    if 4 * len(nz) < len(v):
        a[:, nz] -= u[:, None] * v[nz]
    else:
        a -= u[:, None] * v


def _status_fits(status, lower, upper) -> bool:
    """Whether every nonbasic status names a bound its variable has."""
    fixed = lower == upper
    fits = ((status == _BASIC)
            | ((status == _AT_LOWER) & np.isfinite(lower) & ~fixed)
            | ((status == _AT_UPPER) & np.isfinite(upper) & ~fixed)
            | ((status == _FREE_NB) & np.isinf(lower) & np.isinf(upper))
            | ((status == _FIXED) & fixed))
    return bool(np.all(fits))


class _Simplex:
    """Working state of the simplex on an equality-form bounded LP. It
    outlives its solve when an :class:`LpState` keeps it as the factor
    of its last optimal basis.

    The columns are those of an :class:`LpState`: its ``ns``
    structural columns in compressed sparse column form, one slack per
    row, and then any artificials :meth:`add_units` appends. A slack or
    an artificial is a unit column, +1 or -1 in a single row. The
    entries of all columns form one coordinate list (``entry_col``,
    ``entry_row``, ``entry_val``) in column order, column j's at
    ``colptr[j]:colptr[j + 1]``, so a unit column is the one entry at
    ``colptr[j]``. Every product with the constraint matrix is built
    from that list; there is no dense copy of it.

    The basis inverse is held in partitioned form and never as an
    m x m matrix. A basic unit column covers its own row. With K the
    basis positions of the structural basics, R the rows no basic unit
    covers (|R| = |K| = k), S the covered rows and sigma the signs of
    the units covering them,

        B^-1 = [[A_RK^-1, 0], [-sigma A_SK A_RK^-1, sigma]],

    so the factor is the k x k matrix ``inv`` = A_RK^-1 (row t for the
    basis position ``kpos[t]``, column t for the row ``rrow[t]``) plus
    the maps ``kslot`` (column to its row of ``inv``, -1 unless a
    structural basic), ``rslot`` (row to its column of ``inv``, -1 when
    covered), ``urow`` and ``usign`` (basis position to the row and sign
    of its unit; 0 and 0.0 for a structural). :meth:`refactor` builds it
    and :meth:`_replace` updates it on each pivot.

    ``status`` gives each column's starting status; by default every
    column is nonbasic at a finite bound (fixed, lower, then upper) or
    free at zero.
    """

    def __init__(self, p, status=None):
        self._bind(p)
        self.pivots = 0
        self.dual_pivots = 0
        self.refactors = 0
        self.degenerate_run = 0
        self.bland = False
        if status is None:
            status = np.full(self.n, _FREE_NB, dtype=np.int8)
            status[np.isfinite(self.upper)] = _AT_UPPER
            status[np.isfinite(self.lower)] = _AT_LOWER
            status[self.lower == self.upper] = _FIXED
        self.status = status
        # nonbasics sit at the bound their status names, free ones at
        # zero; refactor() sets the basics
        self.x = np.where(status == _AT_UPPER, self.upper, np.where(
            (status == _AT_LOWER) | (status == _FIXED), self.lower, 0.0))
        self.basis = None
        self.inv = self.kpos = self.rrow = None     # the factor, see above
        self.kslot = self.rslot = self.urow = self.usign = None
        self.priced = None          # (y, z) of the current factor and costs
        self.fresh = False          # no step since the last refactor()

    def _bind(self, p):
        """Take the columns, rows, costs and bounds of the
        :class:`LpState` ``p``."""
        self.m = p.m
        self.ns = p.n
        self.n = p.n + p.m
        self.colptr = np.concatenate([p.colptr,
                                      p.colptr[-1] + np.arange(1, p.m + 1)])
        self.entry_col = p.entry_col
        self.entry_row = p.entry_row
        self.entry_val = p.entry_val
        self.rowptr, self.row_col, self.row_val = p.rowptr, p.row_col, p.row_val
        self.b = p.b_s
        self.c = p.c
        self.lower = p.lower.copy()
        self.upper = p.upper.copy()
        self.pivot_limit = _PIVOT_LIMIT + _PIVOT_LIMIT_PER_DIM * (p.m + p.n)

    def take_rows(self, p):
        """Take the rows appended to ``p`` since :meth:`_bind`, each with
        its slack basic. Each is one more covered row, so A_RK^-1, K and
        R stay as they are; the basics are set by :meth:`resume`."""
        old = self.m
        self._bind(p)
        k = self.m - old
        slacks = np.arange(self.ns + old, self.n)
        self.status = np.concatenate([self.status,
                                      np.full(k, _BASIC, dtype=np.int8)])
        self.x = np.concatenate([self.x, np.zeros(k)])
        self.basis = np.concatenate([self.basis, slacks])
        self.urow = np.concatenate([self.urow, np.arange(old, self.m)])
        self.usign = np.concatenate([self.usign, np.ones(k)])
        self.kslot = np.concatenate([self.kslot, np.full(k, -1, dtype=np.intp)])
        self.rslot = np.concatenate([self.rslot, np.full(k, -1, dtype=np.intp)])
        self.priced = None

    def drop_units(self):
        """Forget the artificial columns :meth:`add_units` appended, none
        of them basic, so that slacks of appended rows can follow the
        row slacks."""
        n = self.ns + self.m
        self.colptr = self.colptr[:n + 1]
        nz = self.colptr[-1]
        self.entry_col = self.entry_col[:nz]
        self.entry_row = self.entry_row[:nz]
        self.entry_val = self.entry_val[:nz]
        for name in ("c", "lower", "upper", "x", "status", "kslot"):
            setattr(self, name, getattr(self, name)[:n])
        self.n = n
        self.priced = None

    def resume(self):
        """Start another solve from the factor held: zero the counters
        and set the basics for the current right-hand sides."""
        self.pivots = self.dual_pivots = self.refactors = 0
        self.degenerate_run = 0
        self.bland = False
        self.set_basics()

    def counts(self) -> dict:
        """The solve counters, as :class:`LpSolution` takes them."""
        return {"dual_pivots": self.dual_pivots,
                "primal_pivots": self.pivots - self.dual_pivots,
                "refactors": self.refactors}

    def add_units(self, rows, signs):
        """Append unit columns, column t being ``signs[t]`` in row
        ``rows[t]``, at zero cost and nonbasic at their lower bound 0."""
        k = len(rows)
        self.colptr = np.concatenate([self.colptr,
                                      self.colptr[-1] + np.arange(1, k + 1)])
        self.entry_col = np.concatenate([self.entry_col,
                                         np.arange(self.n, self.n + k)])
        self.entry_row = np.concatenate([self.entry_row, rows])
        self.entry_val = np.concatenate([self.entry_val, signs])
        self.set_costs(np.concatenate([self.c, np.zeros(k)]))
        self.lower = np.concatenate([self.lower, np.zeros(k)])
        self.upper = np.concatenate([self.upper, np.full(k, np.inf)])
        self.x = np.concatenate([self.x, np.zeros(k)])
        self.status = np.concatenate([self.status,
                                      np.full(k, _AT_LOWER, dtype=np.int8)])
        self.n += k

    def set_costs(self, c):
        self.c = c
        self.priced = None

    # -- products with the constraint matrix ----------------------------

    def times(self, x):
        """``A @ x`` over all columns."""
        return np.bincount(self.entry_row, self.entry_val * x[self.entry_col],
                           self.m)

    def row_times(self, y):
        """``y @ A`` over all columns."""
        return np.bincount(self.entry_col, y[self.entry_row] * self.entry_val,
                           self.n)

    # -- products with the basis inverse --------------------------------

    def _ftran(self, v):
        """``B^-1 v`` for ``v`` over rows, as a vector over basis
        positions: d_K = A_RK^-1 v_R, then d_U = sigma (v_S - A_SK d_K)."""
        dk = self.inv @ v[self.rrow]
        xk = np.zeros(self.n)
        xk[self.basis[self.kpos]] = dk
        d = self.usign * (v - self.times(xk))[self.urow]
        d[self.kpos] = dk
        return d

    def _btran(self, g):
        """``g @ B^-1`` for ``g`` over basis positions, as a vector over
        rows: y_S = sigma g_U, then y_R = (g_K - y_S A_SK) A_RK^-1. Slacks
        cost nothing, so y_S is often zero, and then so is y_S A_SK."""
        gu = self.usign * g
        gk = g[self.kpos]
        if gu.any():
            y = np.bincount(self.urow, gu, self.m)
            gk = gk - self.row_times(y)[self.basis[self.kpos]]
        else:
            y = np.zeros(self.m)
        y[self.rrow] = gk @ self.inv
        return y

    def column(self, j):
        """Column ``j`` times the current inverse."""
        v = np.zeros(self.m)
        nz = slice(self.colptr[j], self.colptr[j + 1])
        v[self.entry_row[nz]] = self.entry_val[nz]
        return self._ftran(v)

    def inverse_row(self, r):
        """Row ``r`` of B^-1: row t of A_RK^-1 on R and zero on S for a
        structural basic, -sigma_s A_sK A_RK^-1 on R and sigma_s at s for
        the unit covering row s."""
        rho = np.zeros(self.m)
        t = self.kslot[self.basis[r]]
        if t >= 0:
            rho[self.rrow] = self.inv[t]
        else:
            sign = self.usign[r]
            rho[self.rrow] = -sign * self._row_block(self.urow[r])
            rho[self.urow[r]] = sign
        return rho

    def _row_block(self, s):
        """A_sK A_RK^-1: the entries of row ``s`` in the structural
        basics' columns times the block inverse."""
        nz = slice(self.rowptr[s], self.rowptr[s + 1])
        t = self.kslot[self.row_col[nz]]
        basic = t >= 0
        return self.row_val[nz][basic] @ self.inv[t[basic]]

    def _leaving_row_block(self, r, rho):
        """A_sK A_RK^-1 for the row s of the unit in basis position
        ``r``, read off ``rho``, row r of the inverse, when given."""
        if rho is None:
            return self._row_block(self.urow[r])
        return -self.usign[r] * rho[self.rrow]

    # -- basis handling -------------------------------------------------

    def install_basis(self, basis):
        self.basis = np.asarray(basis, dtype=np.intp)
        self.status[self.basis] = _BASIC
        self.refactor()

    def refactor(self):
        """Factor the basis in the partitioned form of the class
        docstring, inverting only the k x k block A_RK, and set the
        basics by the same block solve. A basis of unit columns alone
        inverts nothing. Two basic units on one row, or a singular A_RK,
        raise :class:`NumericalFailure`."""
        m, basis = self.m, self.basis
        unit = basis >= self.ns
        at = self.colptr[basis]             # a unit column's one entry
        self.urow = np.where(unit, self.entry_row[at], 0)
        self.usign = np.where(unit, self.entry_val[at], 0.0)
        hits = np.bincount(self.urow, unit, m)
        if hits.max(initial=0) > 1:
            raise NumericalFailure("two basic unit columns share a row")
        self.kpos = (~unit).nonzero()[0]
        self.rrow = (hits == 0).nonzero()[0]
        k = len(self.kpos)
        struct = basis[self.kpos]
        self.kslot = np.full(self.n, -1, dtype=np.intp)
        self.kslot[struct] = np.arange(k)
        self.rslot = np.full(m, -1, dtype=np.intp)
        self.rslot[self.rrow] = np.arange(k)
        block = np.zeros((k, k))
        if k:
            first = self.colptr[struct]
            count = self.colptr[struct + 1] - first
            end = count.cumsum()
            # the entries of the structural basics, one column after another
            at = np.arange(end[-1]) + (first - end + count).repeat(count)
            rows = self.rslot[self.entry_row[at]]
            cols = np.arange(k).repeat(count)
            open_ = rows >= 0
            block[rows[open_], cols[open_]] = self.entry_val[at[open_]]
            try:
                block = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                raise NumericalFailure("basis matrix is singular") from None
        self.inv = block
        self.priced = None
        self.refactors += 1
        self.set_basics()
        self.fresh = True

    def set_basics(self):
        """Set the basics so that the rows hold with every nonbasic at
        its value: one :meth:`_ftran`."""
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self._ftran(self.b - self.times(xn))

    def _leave(self, j, upper):
        """Make basic column ``j`` nonbasic at its upper or lower bound."""
        self.x[j] = self.upper[j] if upper else self.lower[j]
        if self.lower[j] == self.upper[j]:
            self.status[j] = _FIXED
        else:
            self.status[j] = _AT_UPPER if upper else _AT_LOWER

    def _replace(self, r, q, d, rho=None):
        """Put column ``q`` into basis position ``r``; ``d`` is its
        column times the current inverse and ``rho``, when the caller
        has it, row ``r`` of that inverse. The factor is updated by the
        kind of the swap; see the branches."""
        leaving = self.basis[r]
        t = self.kslot[leaving]
        self.kslot[leaving] = -1
        self.status[q] = _BASIC
        self.basis[r] = q
        self.priced = None
        if q < self.ns:
            dk = d[self.kpos]
            if t >= 0:
                # structural for structural: column t of A_RK is replaced,
                # a rank-1 update
                pivrow = self.inv[t] / dk[t]
                _subtract_outer(self.inv, dk, pivrow)
                self.inv[t] = pivrow
                self.kslot[q] = t
                return
            # structural in, unit out: the unit's row s opens, and A_RK
            # is bordered by row s and column q; the Schur complement
            # a_sq - A_sK d_K is sigma_s d_r
            s = self.urow[r]
            h = self._leaving_row_block(r, rho)
            delta = self.usign[r] * d[r]
            k = len(self.kpos)
            h /= -delta
            inv = np.empty((k + 1, k + 1))
            inv[:k, :k] = self.inv
            _subtract_outer(inv[:k, :k], dk, h)
            inv[:k, k] = dk / -delta
            inv[k, :k] = h
            inv[k, k] = 1.0 / delta
            self.inv = inv
            self.kpos = np.concatenate((self.kpos, [r]))
            self.rrow = np.concatenate((self.rrow, [s]))
            self.kslot[q] = self.rslot[s] = k
            self.urow[r] = 0
            self.usign[r] = 0.0
            return
        at = self.colptr[q]
        i, sign = self.entry_row[at], self.entry_val[at]
        slot = self.rslot[i]
        if t >= 0:
            # unit in on the open row i, structural out: A_RK loses row i
            # and column t; the inverse of what is left is the Schur
            # complement of the pivot inv[t, slot] in A_RK^-1
            keep_k = np.arange(len(self.kpos)) != t
            keep_r = np.arange(len(self.rrow)) != slot
            self.inv = (self.inv[np.ix_(keep_k, keep_r)]
                        - self.inv[keep_k, slot, None]
                        * (self.inv[t, keep_r] / self.inv[t, slot]))
            self.kpos = self.kpos[keep_k]
            self.rrow = self.rrow[keep_r]
            self.rslot[i] = -1
            self.kslot[self.basis[self.kpos]] = np.arange(len(self.kpos))
            self.rslot[self.rrow] = np.arange(len(self.rrow))
        elif self.urow[r] != i:
            # unit for unit on different rows: row i of A_RK is replaced
            # by the leaving unit's row s, a rank-1 row update
            s = self.urow[r]
            h = self._leaving_row_block(r, rho)
            col = self.inv[:, slot] / h[slot]
            h[slot] -= 1.0
            _subtract_outer(self.inv, col, h)
            self.rrow[slot] = s
            self.rslot[s] = slot
            self.rslot[i] = -1
        # a unit for a unit on the same row changes only the sign
        self.urow[r] = i
        self.usign[r] = sign

    # -- pricing --------------------------------------------------------

    def duals_and_reduced_costs(self):
        """Duals and reduced costs of the current basis, computed once
        per factor and cost vector (a bound flip changes neither)."""
        if self.priced is None:
            y = self._btran(self.c[self.basis])
            self.priced = y, self.c - self.row_times(y)
        return self.priced

    def _gain(self, v):
        """``v`` per column, signed so that it is positive where moving
        the column off its bound in the feasible direction gains: -v at
        a lower bound, v at an upper bound, |v| when free, 0 when basic
        or fixed."""
        return np.where(self.status == _FREE_NB, np.abs(v),
                        _GAIN_SIGN.take(self.status) * v)

    def _dual_violation(self, z):
        """How far each nonbasic reduced cost has the sign that makes its
        column worth entering, beyond the entering tolerance."""
        return np.maximum(self._gain(z) - _ENTER_TOL, 0.0)

    def _entering(self, z):
        viol = self._dual_violation(z)
        if not viol.any():
            return -1, 0
        if self.bland:
            q = int(viol.nonzero()[0][0])       # first eligible index
        else:
            q = int(viol.argmax())              # most violating, first on ties
        if self.status[q] == _AT_LOWER:
            direction = 1
        elif self.status[q] == _AT_UPPER:
            direction = -1
        else:
            direction = 1 if z[q] < 0.0 else -1
        return q, direction

    # -- pivoting -------------------------------------------------------

    def step(self, q, direction):
        """One ratio test plus pivot or bound flip. False means unbounded."""
        d = self.column(q)
        delta = -direction * d              # change of each basic per unit step
        xb = self.x[self.basis]
        # each basic heads for the bound in the direction it moves, an
        # infinite one setting no limit; a move within the pivot
        # tolerance sets none either
        bound = np.where(delta < 0.0, self.lower[self.basis],
                         self.upper[self.basis])
        moving = np.abs(d) > _PIVOT_TOL
        limits = np.divide(bound - xb, delta, out=np.full(self.m, np.inf),
                           where=moving)
        np.maximum(limits, 0.0, out=limits)
        lim_min = limits.min() if self.m else np.inf
        if np.isfinite(self.lower[q]) and np.isfinite(self.upper[q]):
            t_flip = self.upper[q] - self.lower[q]
        else:
            t_flip = np.inf
        if not np.isfinite(min(lim_min, t_flip)):
            return False
        if t_flip <= lim_min:
            # bound flip: entering jumps to its other bound, basis unchanged
            self.x[self.basis] = xb + delta * t_flip
            self.x[q] = self.upper[q] if direction > 0 else self.lower[q]
            self.status[q] = _AT_UPPER if direction > 0 else _AT_LOWER
            self._count_step(t_flip)
            return True
        tie = limits <= lim_min + _RATIO_TIE * (1.0 + lim_min)
        usable = tie & moving
        cand = (usable if usable.any() else tie).nonzero()[0]
        r = int(cand[np.argmin(self.basis[cand])])
        t = limits[r]
        leaving = int(self.basis[r])
        if abs(d[r]) < _PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        self.x[self.basis] = xb + delta * t
        self.x[q] = self.x[q] + direction * t
        self._leave(leaving, delta[r] >= 0.0)
        self._replace(r, q, d)
        self._count_step(t)
        return True

    def dual_run(self):
        """Bounded dual simplex pivots until the basis is primal feasible.

        The leaving row is the basic variable with the largest bound
        violation; it leaves at the bound it violates. The entering
        column minimises |z_j / alpha_j| over the nonbasics whose move
        in their feasible direction pushes the leaving variable towards
        that bound (alpha is the leaving row of the tableau), ties going
        to the largest |alpha_j|. Returns False when no column can
        enter: no nonbasic can move the leaving variable towards its
        bound, which proves the LP infeasible. Returns True once the
        basis is primal feasible. Raises :class:`NumericalFailure` when
        the basis is not dual feasible.
        """
        while True:
            self._check_pivot_limit()
            xb = self.x[self.basis]
            below = self.lower[self.basis] - xb
            viol = np.maximum(below, xb - self.upper[self.basis])
            if viol.max(initial=0.0) <= _PRIMAL_TOL:
                return True
            r = int(viol.argmax())
            _, z = self.duals_and_reduced_costs()
            if self._dual_violation(z).max() > OPTIMALITY_TOL:
                raise NumericalFailure("dual simplex basis is not dual feasible")
            rise = below[r] > 0.0
            rho = self.inverse_row(r)
            alpha = self.row_times(rho)
            # raising nonbasic j by one moves the leaving variable by -alpha_j
            g = alpha if rise else -alpha
            cand = (self._gain(g) > _PIVOT_TOL).nonzero()[0]
            if not cand.size:
                return False
            ratio = np.abs(z[cand] / alpha[cand])
            best = ratio.min()
            tie = cand[ratio <= best + _RATIO_TIE * (1.0 + best)]
            q = int(tie[np.argmax(np.abs(alpha[tie]))])
            d = self.column(q)
            if abs(d[r]) < _PIVOT_TOL:
                raise NumericalFailure("pivot element below tolerance")
            leaving = int(self.basis[r])
            target = self.lower[leaving] if rise else self.upper[leaving]
            t = (xb[r] - target) / d[r]
            self.x[self.basis] = xb - d * t
            self.x[q] = self.x[q] + t
            self._leave(leaving, not rise)
            self._replace(r, q, d, rho)
            self.dual_pivots += 1
            self._count_step(best)

    def _count_step(self, t):
        self.pivots += 1
        self.fresh = False
        if t <= _DEGENERATE_STEP:
            self.degenerate_run += 1
            if self.degenerate_run >= _BLAND_TRIGGER:
                self.bland = True
        else:
            self.degenerate_run = 0
        if self.pivots % _REFACTOR_EVERY == 0:
            self.refactor()

    def _check_pivot_limit(self):
        if self.pivots > self.pivot_limit:
            raise NumericalFailure(
                f"pivot limit {self.pivot_limit} exceeded "
                f"(degenerate run {self.degenerate_run})")

    def run(self):
        """Iterate to optimality. Returns OPTIMAL or UNBOUNDED."""
        while True:
            self._check_pivot_limit()
            _, z = self.duals_and_reduced_costs()
            q, direction = self._entering(z)
            if q < 0:
                return OPTIMAL
            if not self.step(q, direction):
                return UNBOUNDED


def _scale(row, col, val, row_count, col_order, n):
    """Two rounds of max-norm row/column equilibration of the nonzero
    entries ``val`` at (``row``, ``col``) of an m x n matrix, in row
    order with ``row_count[i] > 0`` entries in row i; ``col_order``
    sorts them by column. Returns the scaled values, the column counts
    and the row and column factors r and d.

    a_scaled[i, j] = a[i, j] / (r[i] * d[j]), which substitutes
    x_scaled = d * x. Hence b_scaled = b / r, bounds scale by d, costs
    scale by 1/d, the primal recovers as x_scaled / d, duals as
    y_scaled / r, and reduced costs as z_scaled * d. A maximum over the
    nonzeros equals the one over the dense row or column, so the factors
    and scaled values are those of the dense matrix.
    """
    m = len(row_count)
    col_count = np.bincount(col, minlength=n)
    used = col_count > 0
    row_first = row_count.cumsum() - row_count
    col_first = (col_count.cumsum() - col_count)[used]
    a = val
    r = np.ones(m)
    d = np.ones(n)
    for _ in range(2):
        cmax = np.zeros(n)
        if m:
            rmax = np.maximum.reduceat(np.abs(a), row_first)
            rmax[rmax == 0.0] = 1.0
            rmax = np.minimum(np.maximum(rmax, 1e-8), 1e8)
            r *= rmax
            a = a / rmax[row]
            cmax[used] = np.maximum.reduceat(np.abs(a[col_order]), col_first)
        cmax[cmax == 0.0] = 1.0
        cmax = np.minimum(np.maximum(cmax, 1e-8), 1e8)
        d *= cmax
        a = a / cmax[col]
    return a, col_count, r, d


def _entries(indptr, indices, values):
    """The nonzero entries of rows in CSR form as (row, col, val) in row
    order, plus the permutation that sorts them by column with rows
    ascending within a column. The only code that merges entries: a
    column repeated within a row (a capacity-stage cut names the
    opening-level column twice) is one entry holding the sum, and an
    explicit zero (a cut's zero slope, say) is no entry."""
    row = np.arange(len(indptr) - 1).repeat(indptr[1:] - indptr[:-1])
    col, val = indices, values
    nonzero = val != 0.0
    if not nonzero.all():
        row, col, val = row[nonzero], col[nonzero], val[nonzero]
    # stable, so rows stay ascending within a column and repeats of one
    # (row, column) end up next to each other in the order given
    order = col.argsort(kind="stable")
    ccol, crow = col[order], row[order]
    repeat = (ccol[1:] == ccol[:-1]) & (crow[1:] == crow[:-1])
    if repeat.any():
        first = np.concatenate([[True], ~repeat]).nonzero()[0]
        summed = np.add.reduceat(val[order], first)
        back = crow[first].argsort(kind="stable")
        row, col, val = crow[first][back], ccol[first][back], summed[back]
        nonzero = val != 0.0
        row, col, val = row[nonzero], col[nonzero], val[nonzero]
        order = col.argsort(kind="stable")
    return row, col, val, order


def _slack_bounds(senses):
    """The bounds of the slacks of rows with ``senses``: a <= row's
    slack is nonnegative, a >= row's nonpositive, an equality row's
    zero."""
    return (np.array([-np.inf if s == GREATER_EQUAL else 0.0 for s in senses]),
            np.array([np.inf if s == LESS_EQUAL else 0.0 for s in senses]))


class LpState:
    """An LP prepared once and kept across solves.

    The constructor presolves and scales a checked :class:`LpInstance`,
    its template: rows with no nonzero entry are dropped (their
    right-hand sides are checked at each solve), and the rest are
    max-norm equilibrated as one block by :func:`_scale`, which fixes
    the column scales and the cost scale for the life of the state. The
    system is then held in equality form over the kept rows, with one
    slack column per kept row after the structural columns. The entries
    of all columns are one coordinate list: the scaled structural
    entries column by column, column j's at ``colptr[j]:colptr[j + 1]``,
    then the slacks' unit entries. The scaled structural entries are
    also kept row by row, row i's in the columns
    ``row_col[rowptr[i]:rowptr[i + 1]]``.

    Between solves, :meth:`set_rhs` rewrites right-hand sides in place
    and :meth:`append_rows` appends rows, each scaled by its own max-norm
    over the fixed column scales; both check what they are given with
    the messages of the instance constructor. An optimal solve keeps the
    factor of its basis in ``sx``, and the next solve restarts from it
    (see the module docstring). Like an instance, a state answers
    ``n_rows``, ``var_index`` and ``row_index``, the last kept current
    row by row, and :meth:`instance` builds the instance it stands for.
    """

    def __init__(self, instance: LpInstance):
        self.template = instance
        self.var_index = instance.var_index
        self.row_labels = list(instance.row_labels)
        self.row_index = dict(instance.row_index)
        self.senses = list(instance.senses)
        self.rhs = np.array(instance.rhs)       # of every row, unscaled
        self._blocks = []                       # appended rows, as given
        self.sx = None                          # factor of the last optimum
        row, col, val, order = _entries(instance.indptr, instance.indices,
                                        instance.values)
        row_count = np.bincount(row, minlength=instance.n_rows)
        nonempty = row_count > 0
        self.keep = nonempty.nonzero()[0]       # instance row of each kept row
        self.dropped = (~nonempty).nonzero()[0]
        if self.dropped.size:
            row = (nonempty.cumsum() - 1)[row]
            row_count = row_count[self.keep]
        self.row_slot = np.full(instance.n_rows, -1, dtype=np.intp)
        self.row_slot[self.keep] = np.arange(len(self.keep))
        m, n = len(self.keep), instance.n_vars
        a, col_count, self.rscale, self.dscale = _scale(row, col, val,
                                                        row_count, order, n)
        c_s = instance.objective / self.dscale
        self.cost_scale = max(1.0, float(np.abs(c_s).max(initial=0.0)))
        # slack columns are exactly unit columns after scaling (their own
        # column scale cancels the row scale); bounds encode the row sense
        self.colptr = np.concatenate([[0], col_count.cumsum()])
        self.entry_col = np.concatenate([col[order], np.arange(n, n + m)])
        self.entry_row = np.concatenate([row[order], np.arange(m)])
        self.entry_val = np.concatenate([a[order], np.ones(m)])
        self.rowptr = np.concatenate([[0], row_count.cumsum()])
        self.row_col, self.row_val = col, a
        self.b_s = self.rhs[self.keep] / self.rscale
        self.c = np.concatenate([c_s / self.cost_scale, np.zeros(m)])
        slack_lo, slack_hi = _slack_bounds(
            [instance.senses[i] for i in self.keep])
        self.lower = np.concatenate([instance.lower * self.dscale, slack_lo])
        self.upper = np.concatenate([instance.upper * self.dscale, slack_hi])

    @property
    def n(self) -> int:
        return self.template.n_vars

    @property
    def m(self) -> int:
        return len(self.keep)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    # -- moving the problem --------------------------------------------

    def set_rhs(self, rows, values) -> None:
        """Rewrite the right-hand sides at the row positions ``rows`` to
        ``values``, in place. A held factor stays; the next solve sets
        its basics for the new right-hand sides."""
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if values.shape != rows.shape:
            raise ValueError("rhs length does not match the rows given")
        if not np.all(np.isfinite(values)):
            raise ValueError("rhs must be finite")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValueError("rhs names an unknown row")
        self.rhs[rows] = values
        slot = self.row_slot[rows]
        kept = slot >= 0
        self.b_s[slot[kept]] = values[kept] / self.rscale[slot[kept]]

    def append_rows(self, indptr, indices, values, senses, rhs,
                    labels) -> None:
        """Append a block of rows given as :func:`extend_rows` takes it.

        Each new row with a nonzero entry is scaled by the largest of
        its entries over their column scales, clamped as :func:`_scale`
        clamps; a row with none is dropped, as presolve drops it. A held
        factor takes the new rows with their slacks basic.
        """
        indptr = _as_readonly(indptr, np.intp)
        indices = _as_readonly(indices, np.intp)
        values = _as_readonly(values)
        rhs = np.asarray(rhs, dtype=float)
        senses, labels = tuple(senses), tuple(labels)
        k = len(labels)
        _check_rows(indptr, indices, values, senses, rhs, k, self.n)
        _label_index(labels, "row")
        clash = next((lab for lab in labels if lab in self.row_index), None)
        if clash is not None:
            raise ValueError(f"duplicate row label {clash!r}")
        if not k:
            return
        row, col, val, _ = _entries(indptr, indices, values)
        # entries of an appended row in column order, so that rows
        # appended one block at a time are stored as the same rows
        # appended at once
        by_row = np.lexsort((col, row))
        row, col, val = row[by_row], col[by_row], val[by_row]
        count = np.bincount(row, minlength=k)
        nonempty = count > 0
        new = nonempty.nonzero()[0]
        at = (nonempty.cumsum() - 1)[row]       # each entry's new kept row
        v = val / self.dscale[col]
        r = np.ones(len(new))
        if v.size:
            r = np.maximum.reduceat(np.abs(v), (count.cumsum() - count)[new])
            r[r == 0.0] = 1.0
            r = np.minimum(np.maximum(r, 1e-8), 1e8)
        a = v / r[at]
        n, m_old, first = self.n, self.m, self.n_rows
        m = m_old + len(new)
        nz = self.colptr[-1]
        ecol = np.concatenate([self.entry_col[:nz], col])
        erow = np.concatenate([self.entry_row[:nz], m_old + at])
        eval_ = np.concatenate([self.entry_val[:nz], a])
        by_col = ecol.argsort(kind="stable")
        self.colptr = np.concatenate(
            [[0], np.bincount(ecol, minlength=n).cumsum()])
        self.entry_col = np.concatenate([ecol[by_col], np.arange(n, n + m)])
        self.entry_row = np.concatenate([erow[by_col], np.arange(m)])
        self.entry_val = np.concatenate([eval_[by_col], np.ones(m)])
        self.rowptr = np.concatenate([self.rowptr,
                                      self.rowptr[-1] + count[new].cumsum()])
        self.row_col = np.concatenate([self.row_col, col])
        self.row_val = np.concatenate([self.row_val, a])
        self.keep = np.concatenate([self.keep, first + new])
        self.dropped = np.concatenate([self.dropped,
                                       first + (~nonempty).nonzero()[0]])
        slot = np.full(k, -1, dtype=np.intp)
        slot[new] = np.arange(m_old, m)
        self.row_slot = np.concatenate([self.row_slot, slot])
        self.rscale = np.concatenate([self.rscale, r])
        self.b_s = np.concatenate([self.b_s, rhs[new] / r])
        self.c = np.concatenate([self.c, np.zeros(len(new))])
        slack_lo, slack_hi = _slack_bounds([senses[i] for i in new])
        self.lower = np.concatenate([self.lower, slack_lo])
        self.upper = np.concatenate([self.upper, slack_hi])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.senses += senses
        self.row_labels += labels
        self.row_index.update(zip(labels, range(first, first + k)))
        self._blocks.append((indptr, indices, values, senses, labels))
        if self.sx is not None:
            self.sx.take_rows(self)

    def instance(self) -> LpInstance:
        """The instance the state stands for now, built afresh: the
        template at the current right-hand sides with each appended
        block applied by :func:`extend_rows`."""
        t = self.template
        inst = replace(t, rhs=self.rhs[:t.n_rows])
        first = t.n_rows
        for indptr, indices, values, senses, labels in self._blocks:
            last = first + len(labels)
            inst = extend_rows(inst, indptr, indices, values, senses,
                               self.rhs[first:last], labels)
            first = last
        return inst

    # -- solving ---------------------------------------------------------

    def _solve(self, basis=None) -> LpSolution:
        """Solve from the held factor, else from ``basis``, else cold;
        see :func:`solve`."""
        sx, self.sx = self.sx, None
        if self.dropped.size:
            senses = np.asarray(self.senses, dtype=str)[self.dropped]
            rhs = self.rhs[self.dropped]
            violated = np.where(
                senses == LESS_EQUAL, rhs < -FEASIBILITY_TOL, np.where(
                    senses == GREATER_EQUAL, rhs > FEASIBILITY_TOL,
                    np.abs(rhs) > FEASIBILITY_TOL))
            if violated.any():
                return LpSolution(INFEASIBLE, None, None, None, None, 0,
                                  self, start="cold")
        if sx is not None:
            sx.resume()
            sol = self._restart(sx)
        elif basis is not None:
            sol = self._warm(basis)
        else:
            return self._cold()
        return replace(self._cold(), start="fallback") if sol is None else sol

    def _cold(self) -> LpSolution:
        """Two-phase solve from the slack basis."""
        n, m = self.n, self.m
        sx = _Simplex(self)

        # initial point: nonbasics at bounds; rows whose residual fits
        # inside the slack bounds start with a basic slack, the rest get
        # an artificial
        slack_lo, slack_hi = self.lower[n:], self.upper[n:]
        resid = self.b_s - sx.times(sx.x)
        absorbable = (resid >= slack_lo - 1e-9) & (resid <= slack_hi + 1e-9)
        art_rows = (~absorbable).nonzero()[0]
        n_art = len(art_rows)
        basis = np.arange(n, n + m)                      # slack of each row
        if n_art:
            sx.add_units(art_rows, np.where(resid[art_rows] >= 0.0, 1.0, -1.0))
            basis[art_rows] = np.arange(n + m, n + m + n_art)
        sx.install_basis(basis)

        if n_art:
            # phase 1: minimize the artificial sum
            real_cost = sx.c
            phase1 = np.zeros(sx.n)
            phase1[n + m:] = 1.0
            sx.set_costs(phase1)
            if sx.run() != OPTIMAL:
                raise NumericalFailure("phase 1 terminated unbounded")
            art_sum = float(np.abs(sx.x[n + m:]).sum())
            if art_sum > FEASIBILITY_TOL * (1.0 + float(np.abs(self.b_s).max())):
                return LpSolution(INFEASIBLE, None, None, None, None,
                                  sx.pivots, self, start="cold", **sx.counts())
            # freeze artificials at zero, restore the real objective
            sx.set_costs(real_cost)
            sx.lower[n + m:] = 0.0
            sx.upper[n + m:] = 0.0
            nb_art = np.arange(n + m, sx.n)[sx.status[n + m:] != _BASIC]
            sx.status[nb_art] = _FIXED
            sx.x[nb_art] = 0.0
            sx.degenerate_run = 0
            sx.bland = False

        if sx.run() == UNBOUNDED:
            return LpSolution(UNBOUNDED, None, None, None, None, sx.pivots,
                              self, start="cold", **sx.counts())
        return self._finish(sx, "cold")

    def _warm(self, basis) -> LpSolution | None:
        """Install a given basis and restart from it (:meth:`_restart`).
        Returns None, sending the caller to the cold path, when the
        basis does not fit the problem or is singular."""
        cols, rows = basis
        m_all = self.n_rows
        if len(cols) != self.n or len(rows) > m_all:
            return None
        slacks = np.full(m_all, _BASIC, dtype=np.int8)
        slacks[:len(rows)] = rows
        status = np.concatenate([cols, slacks[self.keep]]).astype(np.int8)
        basic = (status == _BASIC).nonzero()[0]
        if len(basic) != self.m or not _status_fits(status, self.lower,
                                                    self.upper):
            return None
        sx = _Simplex(self, status)
        try:
            sx.install_basis(basic)
        except NumericalFailure:
            return None
        return self._restart(sx)

    def _restart(self, sx: _Simplex) -> LpSolution | None:
        """Solve from the factored basis in ``sx``: dual simplex to
        primal feasibility, then primal simplex to optimality. An
        infeasibility the dual simplex proves is the result. Returns
        None, sending the caller to the cold path, when the restart
        fails or ends unbounded."""
        try:
            if not sx.dual_run():
                return LpSolution(INFEASIBLE, None, None, None, None,
                                  sx.pivots, self, start="warm", **sx.counts())
            sx.degenerate_run = 0
            sx.bland = False
            if sx.run() != OPTIMAL:
                return None
            return self._finish(sx, "warm")
        except NumericalFailure:
            return None

    def _finish(self, sx: _Simplex, start: str) -> LpSolution:
        """Verify an optimal basis on the scaled system, then unscale it;
        ``start`` labels the result. A basis with no basic artificial
        stays on the state, factored, for the next solve."""
        n, m = self.n, self.m
        t = self.template
        # refactor in column order, so that the output depends on the
        # final basis alone and not on the pivots that reached it; a
        # sorted basis refactored with no step since (every 0-pivot
        # restart) is that already
        if not (sx.fresh and (sx.basis[:-1] < sx.basis[1:]).all()):
            sx.basis.sort()
            sx.refactor()
        y_s, z_s = sx.duals_and_reduced_costs()

        # verification on the scaled system
        resid = np.abs(sx.times(sx.x) - self.b_s)
        feas_ref = FEASIBILITY_TOL * (1.0 + float(np.abs(self.b_s).max(initial=0.0)))
        if float(resid.max(initial=0.0)) > feas_ref:
            raise NumericalFailure(
                f"primal residual {resid.max():.3e} exceeds {feas_ref:.3e}")
        # a value outside its box snaps onto the bound it crosses; the
        # move, relative to that bound, is the bound violation
        snapped = np.minimum(np.maximum(sx.x, sx.lower), sx.upper)
        bound_viol = float((np.abs(snapped - sx.x)
                            / (1.0 + np.abs(snapped))).max(initial=0.0))
        if bound_viol > 10.0 * FEASIBILITY_TOL:
            raise NumericalFailure(f"bound violation {bound_viol:.3e}")
        # keep the snap of within-tolerance drift, so callers never see a
        # primal outside its declared box
        sx.x = snapped

        # unscale
        primal = sx.x[:n] / self.dscale
        duals_kept = y_s * self.cost_scale / self.rscale
        duals = np.zeros(self.n_rows)
        duals[self.keep] = duals_kept
        red = z_s[:n] * self.cost_scale * self.dscale
        obj = float(t.objective @ primal)

        # strong duality on the original data
        dual_obj = float(duals_kept @ self.rhs[self.keep])
        stat_n = sx.status[:n].copy()
        at_lo = (stat_n == _AT_LOWER) | (stat_n == _FIXED)
        at_hi = stat_n == _AT_UPPER
        if at_lo.any():
            dual_obj += float(red[at_lo] @ t.lower[at_lo])
        if at_hi.any():
            dual_obj += float(red[at_hi] @ t.upper[at_hi])
        gap = abs(obj - dual_obj)
        if gap > 1e-6 * (1.0 + abs(obj) + abs(dual_obj)):
            raise NumericalFailure(f"duality gap {gap:.3e} on objective {obj:.6e}")

        basis = None
        if not (sx.status[n + m:] == _BASIC).any():      # no basic artificial
            rows = np.full(self.n_rows, _BASIC, dtype=np.int8)
            rows[self.keep] = sx.status[n:n + m]
            basis = (_frozen(stat_n), _frozen(rows))
            sx.drop_units()
            self.sx = sx
        return LpSolution(OPTIMAL, obj, _frozen(primal), _frozen(duals),
                          _frozen(red), sx.pivots, self, basis,
                          start, **sx.counts())


def solve(problem, *, basis=None) -> LpSolution:
    """Solve an :class:`LpInstance` or an :class:`LpState` and return
    status, primal, duals, reduced costs.

    Two-phase bounded-variable revised simplex. Infeasible and unbounded
    problems are reported by status alone. Raises
    :class:`NumericalFailure` if tolerances cannot be maintained.

    An instance is solved once, in a state built for the purpose, and
    is the solution's ``source``; the state dies with the call. A
    state restarts from the factor its last optimal solve left, if any.
    Otherwise, ``basis`` is the :attr:`LpSolution.basis` of an earlier
    solve of a problem with the same variables whose rows are a prefix
    of this problem's rows; the rows beyond that prefix start with their
    slack basic. The solve then restarts from that basis (see the module
    docstring): it ends infeasible when the dual simplex proves
    infeasibility, and falls back to the cold two-phase path whenever
    the restart cannot finish otherwise, so a basis never changes
    whether a solve succeeds.
    """
    if isinstance(problem, LpInstance):
        return replace(LpState(problem)._solve(basis), source=problem)
    return problem._solve(basis)


def solve_optimal(problem, where: str, basis=None) -> LpSolution:
    """Solve, as :func:`solve` does, and return an optimal solution, or
    raise.

    Any solver error or non-optimal status becomes a
    :class:`SolverFailure` whose message starts with ``where``, the
    caller's name for the problem (a stage and realization, or a
    reference model), and which carries the problem as an instance.
    Calls :func:`solve` through the module namespace, so a replacement
    installed on the module takes effect here too.
    """
    try:
        sol = solve(problem, basis=basis)
    except Exception as exc:
        raise SolverFailure(f"{where}: {exc}",
                            instance=_instance_of(problem)) from exc
    if sol.status != OPTIMAL:
        raise SolverFailure(f"{where}: solve ended {sol.status}",
                            instance=_instance_of(problem))
    return sol


def _instance_of(problem) -> LpInstance:
    return problem if isinstance(problem, LpInstance) else problem.instance()


def dump_instance(instance: LpInstance, path) -> None:
    """Write a fixed-format text rendition for debugging.

    One variable per line (label, lower, upper, cost), then one row per
    line (label, sense, rhs, nonzeros as ``label:coef``).
    """
    with open(path, "w") as fh:
        fh.write(f"vars {instance.n_vars}\n")
        for j, lab in enumerate(instance.var_labels):
            fh.write(f"v {lab} {float(instance.lower[j])!r} "
                     f"{float(instance.upper[j])!r} "
                     f"{float(instance.objective[j])!r}\n")
        fh.write(f"rows {instance.n_rows}\n")
        for i, lab in enumerate(instance.row_labels):
            nz = slice(instance.indptr[i], instance.indptr[i + 1])
            parts = " ".join(
                f"{instance.var_labels[c]}:{float(v)!r}"
                for c, v in zip(instance.indices[nz], instance.values[nz]))
            fh.write(f"r {lab} {instance.senses[i]} "
                     f"{float(instance.rhs[i])!r} {parts}\n")
