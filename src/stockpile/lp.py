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
a caller can build a block of rows with array operations. Every
instance, including those :func:`extend_rows` and :func:`replace_rhs`
derive, is checked by its constructor; there is no unchecked path.

The solver is deterministic: the same instance solved twice in one
process yields bit-identical results, and the returned solution is
computed from the final basis alone, whatever pivots reached it.
Anti-cycling is handled by switching from Dantzig pricing to Bland's
rule after a run of 1000 degenerate pivots. Rows and columns are
max-norm equilibrated internally, so the stated tolerances apply to the
scaled system; for data of order one they coincide with the raw
residuals.

Restarts: an optimal :class:`LpSolution` carries its basis, and
:func:`solve` accepts it back for an instance with the same variables
whose rows extend the earlier rows (new rows start with their slack
basic). Changing right-hand sides or appending rows keeps such a basis
dual feasible, so the restart installs it, runs a bounded-variable
dual simplex until no basic variable violates its bounds (leaving row:
largest violation; entering column: smallest |z_j / alpha_j|, ties to
the largest |alpha_j|), then the primal simplex, and then the same
residual, bound and duality-gap checks as a cold solve. A basis that
does not fit the instance, a singular basis, any numerical failure and
any non-optimal end send the solve down the cold two-phase path
instead, so a restart changes the work done but never whether a solve
succeeds.
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


def _as_readonly(arr, dtype=float) -> np.ndarray:
    """``arr`` as a read-only contiguous array. Writable input is
    copied, so no caller can change the result or finds its own array
    frozen; read-only input is shared."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
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


def _sparse_row(terms, sense: str, var_index: dict, n_vars: int):
    """Sorted column indices and coefficients of one row, as lists.

    ``terms`` pairs a variable index or label with a coefficient;
    duplicate variables are coalesced by summing. Raises
    :class:`UnknownVariable` for a label or index not among the
    ``n_vars`` variables of ``var_index``.
    """
    if sense not in _SENSES:
        raise ValueError(f"unknown row sense {sense!r}")
    acc = {}
    for var, coef in terms:
        if isinstance(var, (int, np.integer)):
            j = int(var)
            if not 0 <= j < n_vars:
                raise UnknownVariable(f"variable index {j} out of range")
        elif var in var_index:
            j = var_index[var]
        else:
            raise UnknownVariable(f"unknown variable {var!r}")
        acc[j] = acc.get(j, 0.0) + float(coef)
    cols = sorted(acc)
    return cols, [acc[j] for j in cols]


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
        m = len(self.row_labels)
        if self.objective.shape != (n,) or self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("objective/bounds length does not match variable count")
        if self.rhs.shape != (m,) or len(self.senses) != m:
            raise ValueError("rhs/senses length does not match row count")
        if self.indptr.shape != (m + 1,):
            raise ValueError("row storage length does not match row count")
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise ValueError("row index/value length mismatch")
        if (self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0)
                or self.indptr[-1] != len(self.indices)):
            raise ValueError("indptr must start at 0, never decrease and "
                             "end at the nonzero count")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("row coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("rhs must be finite")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(f"lower > upper for variable {self.var_labels[bad]!r}")
        unknown = set(self.senses).difference(_SENSES)
        if unknown:
            raise ValueError(f"unknown row sense {min(unknown, key=self.senses.index)!r}")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("row references an unknown variable index")
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
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        np.add.at(a, (rows, self.indices), self.values)
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
        self._row_set = set()

    @property
    def n_vars(self) -> int:
        return len(self._var_labels)

    @property
    def n_rows(self) -> int:
        return len(self._row_labels)

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

    def variable_index(self, label: str) -> int:
        try:
            return self._var_index[label]
        except KeyError:
            raise UnknownVariable(f"unknown variable {label!r}") from None

    def add_to_cost(self, var, coef: float) -> None:
        j = var if isinstance(var, (int, np.integer)) else self.variable_index(var)
        self._cost[int(j)] += float(coef)

    def add_row(self, label: str, terms, sense: str, rhs: float) -> int:
        """Append one row. ``terms`` pairs a variable index or label with a
        coefficient; duplicate variables are coalesced by summing."""
        if label in self._row_set:
            raise ValueError(f"duplicate row label {label!r}")
        cols, vals = _sparse_row(terms, sense, self._var_index,
                                 len(self._var_labels))
        self._indices += cols
        self._values += vals
        self._indptr.append(len(self._indices))
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._row_labels.append(label)
        self._row_set.add(label)
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

    ``iterations`` counts the pivots of the solve, dual and primal.
    ``basis`` is the optimal basis as a read-only pair of status arrays,
    one entry per variable and one per row slack, for restarting a later
    :func:`solve`; it is None unless the status is optimal, and also
    when an artificial variable is still basic.
    """

    status: str
    objective: float | None
    primal: np.ndarray | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int
    instance: LpInstance = field(repr=False, compare=False)
    basis: tuple | None = field(default=None, repr=False, compare=False)

    def _need_optimal(self):
        if self.status != OPTIMAL:
            raise NotOptimal(f"solution status is {self.status!r}")

    def value(self, label: str) -> float:
        self._need_optimal()
        return float(self.primal[self.instance.var_index[label]])

    def dual(self, label: str) -> float:
        self._need_optimal()
        return float(self.duals[self.instance.row_index[label]])

    def reduced_cost(self, label: str) -> float:
        self._need_optimal()
        return float(self.reduced_costs[self.instance.var_index[label]])


# basis status codes
_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE_NB = 3
_FIXED = 4


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
    """Working state for one solve of an equality-form bounded LP.

    ``status`` gives each column's starting status; by default every
    column is nonbasic at a finite bound (fixed, lower, then upper) or
    free at zero.
    """

    def __init__(self, a, b, c, lower, upper, max_pivots, status=None):
        self.a = a                  # dense m x n, slack columns included
        self.b = b
        self.c = c
        self.lower = lower.copy()
        self.upper = upper.copy()
        self.m, self.n = a.shape
        self.max_pivots = max_pivots
        self.pivots = 0
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
        self.binv = None
        self.fresh = False          # no step since the last refactor()

    # -- basis handling -------------------------------------------------

    def install_basis(self, basis):
        self.basis = np.asarray(basis, dtype=np.intp)
        self.status[self.basis] = _BASIC
        self.refactor()

    def refactor(self):
        bmat = self.a[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            raise NumericalFailure("basis matrix is singular") from None
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self.a @ xn)
        self.fresh = True

    def _leave(self, j, upper):
        """Make basic column ``j`` nonbasic at its upper or lower bound."""
        self.x[j] = self.upper[j] if upper else self.lower[j]
        if self.lower[j] == self.upper[j]:
            self.status[j] = _FIXED
        else:
            self.status[j] = _AT_UPPER if upper else _AT_LOWER

    def _replace(self, r, q, d):
        """Put column ``q`` into basis position ``r``; ``d`` is its
        column times the current inverse."""
        self.status[q] = _BASIC
        self.basis[r] = q
        # product-form update of the inverse
        pivrow = self.binv[r] / d[r]
        self.binv -= np.outer(d, pivrow)
        self.binv[r] = pivrow

    # -- pricing --------------------------------------------------------

    def duals_and_reduced_costs(self):
        y = self.c[self.basis] @ self.binv
        z = self.c - y @ self.a
        return y, z

    def _dual_violation(self, z):
        """How far each nonbasic reduced cost has the sign that makes its
        column worth entering, beyond the entering tolerance."""
        viol = np.zeros(self.n)
        at_lo = self.status == _AT_LOWER
        at_hi = self.status == _AT_UPPER
        free = self.status == _FREE_NB
        viol[at_lo] = np.maximum(0.0, -z[at_lo] - _ENTER_TOL)
        viol[at_hi] = np.maximum(0.0, z[at_hi] - _ENTER_TOL)
        viol[free] = np.maximum(0.0, np.abs(z[free]) - _ENTER_TOL)
        return viol

    def _entering(self, z):
        viol = self._dual_violation(z)
        if not np.any(viol > 0.0):
            return -1, 0
        if self.bland:
            q = int(np.argmax(viol > 0.0))      # first eligible index
        else:
            q = int(np.argmax(viol))            # most violating, first on ties
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
        d = self.binv @ self.a[:, q]
        delta = -direction * d              # change of each basic per unit step
        xb = self.x[self.basis]
        lb = self.lower[self.basis]
        ub = self.upper[self.basis]
        limits = np.full(self.m, np.inf)
        dn = (delta < -_PIVOT_TOL) & np.isfinite(lb)
        up = (delta > _PIVOT_TOL) & np.isfinite(ub)
        if np.any(dn):
            limits[dn] = (xb[dn] - lb[dn]) / -delta[dn]
        if np.any(up):
            limits[up] = (ub[up] - xb[up]) / delta[up]
        limits = np.maximum(limits, 0.0)
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
        usable = tie & (np.abs(d) > _PIVOT_TOL)
        cand = np.flatnonzero(usable if np.any(usable) else tie)
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
        to the largest |alpha_j|. Raises :class:`NumericalFailure` when
        the basis is not dual feasible or no column can enter.
        """
        while True:
            self._check_pivot_limit()
            xb = self.x[self.basis]
            below = self.lower[self.basis] - xb
            viol = np.maximum(below, xb - self.upper[self.basis])
            if viol.max(initial=0.0) <= _PRIMAL_TOL:
                return
            r = int(np.argmax(viol))
            _, z = self.duals_and_reduced_costs()
            if self._dual_violation(z).max() > OPTIMALITY_TOL:
                raise NumericalFailure("dual simplex basis is not dual feasible")
            rise = below[r] > 0.0
            alpha = self.binv[r] @ self.a
            # raising nonbasic j by one moves the leaving variable by -alpha_j
            g = alpha if rise else -alpha
            st = self.status
            cand = np.flatnonzero(
                ((st == _AT_LOWER) & (g < -_PIVOT_TOL))
                | ((st == _AT_UPPER) & (g > _PIVOT_TOL))
                | ((st == _FREE_NB) & (np.abs(g) > _PIVOT_TOL)))
            if not cand.size:
                raise NumericalFailure("dual simplex found no entering column")
            ratio = np.abs(z[cand] / alpha[cand])
            best = ratio.min()
            tie = cand[ratio <= best + _RATIO_TIE * (1.0 + best)]
            q = int(tie[np.argmax(np.abs(alpha[tie]))])
            d = self.binv @ self.a[:, q]
            if abs(d[r]) < _PIVOT_TOL:
                raise NumericalFailure("pivot element below tolerance")
            leaving = int(self.basis[r])
            target = self.lower[leaving] if rise else self.upper[leaving]
            t = (xb[r] - target) / d[r]
            self.x[self.basis] = xb - d * t
            self.x[q] = self.x[q] + t
            self._leave(leaving, not rise)
            self._replace(r, q, d)
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
        if self.pivots > self.max_pivots:
            raise NumericalFailure(
                f"pivot limit {self.max_pivots} exceeded "
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


def _scale(a_struct, b, c, lower, upper):
    """Two rounds of max-norm row/column equilibration.

    a_scaled[i, j] = a[i, j] / (r[i] * d[j]), which substitutes
    x_scaled = d * x. Hence b_scaled = b / r, bounds scale by d, costs
    scale by 1/d, the primal recovers as x_scaled / d, duals as
    y_scaled / r, and reduced costs as z_scaled * d.
    """
    a = a_struct.astype(float)
    m, n = a.shape
    r = np.ones(m)
    d = np.ones(n)
    for _ in range(2):
        if m:
            rmax = np.abs(a).max(axis=1)
            rmax[rmax == 0.0] = 1.0
            rmax = np.clip(rmax, 1e-8, 1e8)
            r *= rmax
            a /= rmax[:, None]
            cmax = np.abs(a).max(axis=0)
        else:
            cmax = np.zeros(n)
        cmax[cmax == 0.0] = 1.0
        cmax = np.clip(cmax, 1e-8, 1e8)
        d *= cmax
        a /= cmax[None, :]
    b_s = b / r if m else b.astype(float).copy()
    with np.errstate(invalid="ignore"):
        lo_s = lower * d
        hi_s = upper * d
    c_s = c / d
    return a, b_s, c_s, lo_s, hi_s, r, d


@dataclass(frozen=True)
class _Prepared:
    """An instance after presolve and scaling, in equality form over its
    kept (nonempty) rows with one slack column per kept row."""

    instance: LpInstance
    keep: np.ndarray          # instance row of each kept row
    b: np.ndarray             # unscaled right-hand sides of the kept rows
    a: np.ndarray             # scaled structural columns, then the slacks
    b_s: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    rscale: np.ndarray
    dscale: np.ndarray
    cost_scale: float

    @property
    def n(self) -> int:
        return self.instance.n_vars

    @property
    def m(self) -> int:
        return len(self.keep)


def _prepare(instance: LpInstance):
    """Presolve and scale. Returns an :class:`LpSolution` instead when
    presolve alone settles the instance."""
    # presolve: drop rows with no coefficients, checking constant feasibility
    a_full = instance.dense_matrix()
    nonempty = np.any(a_full != 0.0, axis=1)
    senses = np.asarray(instance.senses, dtype=str)
    le = senses == LESS_EQUAL
    ge = senses == GREATER_EQUAL
    rhs = instance.rhs
    violated = np.where(le, rhs < -FEASIBILITY_TOL, np.where(
        ge, rhs > FEASIBILITY_TOL, np.abs(rhs) > FEASIBILITY_TOL))
    if np.any(violated & ~nonempty):
        return LpSolution(INFEASIBLE, None, None, None, None, 0, instance)
    keep = np.flatnonzero(nonempty)
    b = rhs[keep]
    m = len(keep)

    a_s, b_s, c_s, lo_s, hi_s, rscale, dscale = _scale(
        a_full[keep], b, instance.objective, instance.lower, instance.upper)
    cost_scale = max(1.0, float(np.abs(c_s).max(initial=0.0)))
    c_s = c_s / cost_scale

    # slack columns are exactly identity after scaling (their own column
    # scale cancels the row scale); bounds encode the row sense
    slack_lo = np.where(ge[keep], -np.inf, 0.0)
    slack_hi = np.where(le[keep], np.inf, 0.0)
    return _Prepared(
        instance=instance, keep=keep, b=b,
        a=np.hstack([a_s, np.eye(m)]), b_s=b_s,
        c=np.concatenate([c_s, np.zeros(m)]),
        lower=np.concatenate([lo_s, slack_lo]),
        upper=np.concatenate([hi_s, slack_hi]),
        rscale=rscale, dscale=dscale, cost_scale=cost_scale)


def _cold(p: _Prepared, max_pivots: int) -> LpSolution:
    """Two-phase solve from the slack basis."""
    n, m = p.n, p.m
    sx = _Simplex(p.a, p.b_s, p.c, p.lower, p.upper, max_pivots)

    # initial point: nonbasics at bounds; rows whose residual fits inside the
    # slack bounds start with a basic slack, the rest get an artificial
    slack_lo, slack_hi = p.lower[n:], p.upper[n:]
    resid = p.b_s - p.a @ sx.x
    absorbable = (resid >= slack_lo - 1e-9) & (resid <= slack_hi + 1e-9)
    art_rows = np.flatnonzero(~absorbable)
    n_art = len(art_rows)
    if n_art:
        art_mat = np.zeros((m, n_art))
        art_sign = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
        art_mat[art_rows, np.arange(n_art)] = art_sign
        sx.a = np.hstack([sx.a, art_mat])
        sx.c = np.concatenate([sx.c, np.zeros(n_art)])
        sx.lower = np.concatenate([sx.lower, np.zeros(n_art)])
        sx.upper = np.concatenate([sx.upper, np.full(n_art, np.inf)])
        sx.x = np.concatenate([sx.x, np.zeros(n_art)])
        sx.status = np.concatenate([sx.status, np.full(n_art, _AT_LOWER, dtype=np.int8)])
        sx.n = sx.a.shape[1]

    basis = np.empty(m, dtype=np.intp)
    basis[:] = n + np.arange(m)                      # slack of each row
    for k, i in enumerate(art_rows):
        basis[i] = n + m + k
    sx.install_basis(basis)

    if n_art:
        # phase 1: minimize the artificial sum
        real_cost = sx.c
        phase1 = np.zeros(sx.n)
        phase1[n + m:] = 1.0
        sx.c = phase1
        if sx.run() != OPTIMAL:
            raise NumericalFailure("phase 1 terminated unbounded")
        art_sum = float(np.abs(sx.x[n + m:]).sum())
        if art_sum > FEASIBILITY_TOL * (1.0 + float(np.abs(p.b_s).max())):
            return LpSolution(INFEASIBLE, None, None, None, None,
                              sx.pivots, p.instance)
        # freeze artificials at zero, restore the real objective
        sx.c = real_cost
        sx.lower[n + m:] = 0.0
        sx.upper[n + m:] = 0.0
        nb_art = np.arange(n + m, sx.n)[sx.status[n + m:] != _BASIC]
        sx.status[nb_art] = _FIXED
        sx.x[nb_art] = 0.0
        sx.degenerate_run = 0
        sx.bland = False

    if sx.run() == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, None, sx.pivots,
                          p.instance)
    return _finish(p, sx)


def _warm(p: _Prepared, basis, max_pivots: int) -> LpSolution | None:
    """Solve from a given basis: dual simplex to primal feasibility,
    then primal simplex to optimality. Returns None, sending the caller
    to the cold path, when the basis does not fit the instance, is
    singular, or the restart fails or ends non-optimal."""
    cols, rows = basis
    m_all = p.instance.n_rows
    if len(cols) != p.n or len(rows) > m_all:
        return None
    slacks = np.full(m_all, _BASIC, dtype=np.int8)
    slacks[:len(rows)] = rows
    status = np.concatenate([cols, slacks[p.keep]]).astype(np.int8)
    if (np.count_nonzero(status == _BASIC) != p.m
            or not _status_fits(status, p.lower, p.upper)):
        return None
    sx = _Simplex(p.a, p.b_s, p.c, p.lower, p.upper, max_pivots, status)
    try:
        sx.install_basis(np.flatnonzero(status == _BASIC))
        sx.dual_run()
        sx.degenerate_run = 0
        sx.bland = False
        if sx.run() != OPTIMAL:
            return None
        return _finish(p, sx)
    except NumericalFailure:
        return None


def _finish(p: _Prepared, sx: _Simplex) -> LpSolution:
    """Verify an optimal basis on the scaled system, then unscale it."""
    n, m = p.n, p.m
    instance = p.instance
    # refactor in column order, so that the output depends on the final
    # basis alone and not on the pivots that reached it; a sorted basis
    # refactored with no step since (every 0-pivot restart) is that already
    if not (sx.fresh and np.all(sx.basis[:-1] < sx.basis[1:])):
        sx.basis.sort()
        sx.refactor()
    y_s, z_s = sx.duals_and_reduced_costs()

    # verification on the scaled system
    resid = np.abs(sx.a @ sx.x - p.b_s)
    feas_ref = FEASIBILITY_TOL * (1.0 + float(np.abs(p.b_s).max(initial=0.0)))
    if float(resid.max(initial=0.0)) > feas_ref:
        raise NumericalFailure(
            f"primal residual {resid.max():.3e} exceeds {feas_ref:.3e}")
    lo_ref = 1.0 + np.abs(np.where(np.isfinite(sx.lower), sx.lower, 0.0))
    hi_ref = 1.0 + np.abs(np.where(np.isfinite(sx.upper), sx.upper, 0.0))
    below = np.where(np.isfinite(sx.lower), sx.lower - sx.x, 0.0) / lo_ref
    above = np.where(np.isfinite(sx.upper), sx.x - sx.upper, 0.0) / hi_ref
    bound_viol = max(float(below.max(initial=0.0)), float(above.max(initial=0.0)))
    if bound_viol > 10.0 * FEASIBILITY_TOL:
        raise NumericalFailure(f"bound violation {bound_viol:.3e}")
    # snap within-tolerance drift onto the bounds so callers never see
    # a primal outside its declared box
    np.clip(sx.x, sx.lower, sx.upper, out=sx.x)

    # unscale
    primal = sx.x[:n] / p.dscale
    duals_kept = y_s * p.cost_scale / p.rscale
    duals = np.zeros(instance.n_rows)
    duals[p.keep] = duals_kept
    red = z_s[:n] * p.cost_scale * p.dscale
    obj = float(instance.objective @ primal)

    # strong duality on the original data
    dual_obj = float(duals_kept @ p.b)
    stat_n = sx.status[:n]
    at_lo = (stat_n == _AT_LOWER) | (stat_n == _FIXED)
    at_hi = stat_n == _AT_UPPER
    if np.any(at_lo):
        dual_obj += float(red[at_lo] @ instance.lower[at_lo])
    if np.any(at_hi):
        dual_obj += float(red[at_hi] @ instance.upper[at_hi])
    gap = abs(obj - dual_obj)
    if gap > 1e-6 * (1.0 + abs(obj) + abs(dual_obj)):
        raise NumericalFailure(f"duality gap {gap:.3e} on objective {obj:.6e}")

    basis = None
    if not np.any(sx.status[n + m:] == _BASIC):      # no basic artificial
        rows = np.full(instance.n_rows, _BASIC, dtype=np.int8)
        rows[p.keep] = sx.status[n:n + m]
        basis = (_as_readonly(stat_n, np.int8), _as_readonly(rows, np.int8))
    return LpSolution(OPTIMAL, obj, _as_readonly(primal), _as_readonly(duals),
                      _as_readonly(red), sx.pivots, instance, basis)


def solve(instance: LpInstance, *, max_pivots: int | None = None,
          basis=None) -> LpSolution:
    """Solve the instance and return status, primal, duals, reduced costs.

    Two-phase bounded-variable revised simplex. Infeasible and unbounded
    instances are reported by status alone. Raises
    :class:`NumericalFailure` if tolerances cannot be maintained.

    ``basis`` is the :attr:`LpSolution.basis` of an earlier solve of an
    instance with the same variables whose rows are a prefix of this
    instance's rows; the rows beyond that prefix start with their slack
    basic. The solve then restarts from that basis (see the module
    docstring) and falls back to the cold two-phase path whenever the
    restart cannot finish, so a basis never changes whether a solve
    succeeds.
    """
    p = _prepare(instance)
    if isinstance(p, LpSolution):
        return p
    if max_pivots is None:
        max_pivots = 20000 + 200 * (p.m + p.n)
    if basis is not None:
        sol = _warm(p, basis, max_pivots)
        if sol is not None:
            return sol
    return _cold(p, max_pivots)


def solve_optimal(instance: LpInstance, where: str,
                  basis=None) -> LpSolution:
    """Solve, from ``basis`` if given, and return an optimal solution,
    or raise.

    Any solver error or non-optimal status becomes a
    :class:`SolverFailure` whose message starts with ``where``, the
    caller's name for the problem (a stage and realization, or a
    reference model). Calls :func:`solve` through the module namespace,
    so a replacement installed on the module takes effect here too.
    """
    try:
        sol = solve(instance, basis=basis)
    except Exception as exc:
        raise SolverFailure(f"{where}: {exc}") from exc
    if sol.status != OPTIMAL:
        raise SolverFailure(f"{where}: solve ended {sol.status}")
    return sol


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
