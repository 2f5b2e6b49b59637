"""Bounded dual simplex with a primal clean-up, for every LP solve.

Design notes:

* Variables carry their bounds directly (no slack rows for upper bounds),
  which keeps capacity caps out of the constraint matrix.
* Column ``n_struct + i`` of ``A`` is the slack of row ``i`` with
  coefficient +1 (the layout ``standardize`` builds).  A basis therefore
  holds slack columns, one per row they cover, and structural columns.  Only
  the structural columns restricted to the uncovered rows (the "bump", the
  LU nucleus of Suhl & Suhl 1990) go to a sparse LU (SuperLU, called on
  raw arrays as scipy's ``splu`` calls it, see :func:`splu`); the entries
  of the covered rows follow from the structural basic columns, kept as raw
  column arrays.  An all-slack basis needs no factorisation.
* Pivots since the last factorisation form a product-form eta file
  (Dantzig & Orchard-Hays 1954) held in closed form: a fixed store of the
  vectors ``w_k - e_{r_k}`` and the inverse of the small lower-triangular
  matrix that couples them, so ftran and btran apply every eta in two dense
  matrix-vector products.  The basis is refactored when the store holds
  ``REFACTOR_EVERY`` etas and before optimality is declared, so the final
  point is computed from a fresh factorisation.
* The objective is normalised by its largest coefficient internally, so
  scaling the objective by any positive factor leaves the pivot sequence,
  and therefore the returned vertex, unchanged.
* The tolerances are the constants of :mod:`enopt.solver.core`:
  ``FEASIBILITY_TOL`` on basic variables' bound violations,
  ``OPTIMALITY_TOL`` on reduced costs of the normalised objective.

A cold solve starts from the slack basis: every structural column at a
finite bound (lower if it has one, else upper; free columns at 0) and every
slack basic.  With non-negative costs on columns at their lower bound, which
every compiled program has, that basis is dual feasible.  A warm solve
starts from the optimal :class:`BasisState` of a solve with the same ``A``;
a changed ``b``, or bounds for which each nonbasic status still names a
finite bound, leave it dual feasible.  Where a start is not (changed costs,
or negative costs or costed free columns, built only through the library
API), the costs of the offending columns are shifted so their reduced costs
are zero for the dual pass (cost modification, Koberstein 2005, ch. 4) and
restored afterwards.

Both starts run the same two passes:

1. A bounded dual simplex (Koberstein 2005) restores primal feasibility.
   The leaving row has the largest bound violation; the entering column
   comes from the textbook dual ratio test over the nonbasic columns whose
   tableau entry has the sign that lets their reduced cost reach zero, plus
   free columns with any usable entry, ties broken by the largest pivot
   entry and then the lowest index; a run of degenerate dual pivots switches
   to lowest-index choices.  No candidate column, checked on a fresh
   factorisation, means the program is infeasible, and the leaving row's
   btran vector is returned as a Farkas certificate.  Before each pivot the
   pivot element is read from the tableau row and from the ftran'd column;
   when they disagree (or the column's is below ``PIVOT_TOL``) the basis is
   refactored and the iteration redone, and a disagreement on a fresh
   factorisation raises :class:`~enopt.solver.core.SolverError`.
2. The primal simplex with the true costs finishes: it declares optimality
   as above or finds an unbounded ray.  When the dual pass left etas, it
   refactors before it first prices, so a solve without a primal pivot
   prices once, from the fresh factorisation it declares optimality from.
   Pricing is Dantzig (largest reduced-cost violation).  A run of
   degenerate pivots switches to Bland's rule (smallest index in, smallest
   index out), which guarantees termination; the first non-degenerate step
   switches back.  A per-column sign (-1 at a movable lower bound, +1 at a
   movable upper bound, 0 otherwise), kept up to date at every status
   change, turns the reduced costs into violations with one product.  The
   ratio test looks only at rows with a usable pivot entry and bounds the
   overshoot as Harris (1973) does: among the rows whose limit lies within
   the smallest limit relaxed by the feasibility tolerance, it takes the
   largest pivot entry, so no basic moves more than the tolerance past its
   bound.

:meth:`BoundedSimplex.solve` returns a :class:`~enopt.solver.core.Solution`
over the structural columns: values, objective and bound (+inf for an
infeasible LP, -inf for an unbounded one), the duals and reduced costs of an
optimum, the ray or Farkas vector that certifies the other two outcomes,
and, for an optimum only, the :class:`~enopt.solver.core.BasisState` to warm
start from.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csc_array, csc_matrix
# the kernels behind scipy's own ``S @ w`` for CSC and CSR matrices, called on
# raw arrays so no checked matrix is built per factorisation
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
# the SuperLU factorisation call behind ``scipy.sparse.linalg.splu``
from scipy.sparse.linalg._dsolve._superlu import gstrf

from .core import (FEASIBILITY_TOL, OPTIMALITY_TOL, BasisState, Solution, SolverConfig,
                   SolverError, Status, relative_gap)
from .standard import StandardForm

__all__ = ["BoundedSimplex"]

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

PIVOT_TOL = 1e-9
DEGENERATE_STEP = 1e-10
REFACTOR_EVERY = 64
STALL_WINDOW = 40


# the options ``scipy.sparse.linalg.splu`` passes with its default arguments
_SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": None, "Relax": None}


def splu(n: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """``scipy.sparse.linalg.splu`` of the n x n CSC matrix (data, indices,
    indptr), called on the raw arrays: for a typical bump, the checked
    ``csc_matrix`` splu builds costs more than the factorisation itself.
    The arrays must be canonical (sorted row indices, no repeated entries,
    of which SuperLU keeps only the last); bumps of ``standardize``'s A are."""
    return gstrf(n, data.size, data, indices.astype(np.intc), indptr.astype(np.intc),
                 csc_construct_func=csc_array, ilu=False, options=_SPLU_OPTIONS)


def gather_columns(A: csc_matrix, cols: np.ndarray):
    """The (indptr, indices, data) arrays of ``A[:, cols]``, copied straight
    from A's arrays (same entries, same order, same index dtype)."""
    start = A.indptr[cols]
    lens = A.indptr[cols + 1] - start
    indptr = np.zeros(cols.size + 1, dtype=A.indptr.dtype)
    np.cumsum(lens, out=indptr[1:])
    pos = np.repeat(start - indptr[:-1], lens) + np.arange(indptr[-1])
    return indptr, A.indices[pos], A.data[pos]


class BoundedSimplex:
    """One LP solve over a standard form with the given bound vectors, from
    the slack basis or ``start``; :meth:`solve` runs it once.  The only
    setting is ``max_iterations``, the pivot limit of the whole solve."""

    def __init__(self, std: StandardForm, lower: np.ndarray, upper: np.ndarray, *,
                 start: BasisState | None = None,
                 max_iterations: int = SolverConfig.max_iterations):
        self.A, self.AT = std.A, std.AT
        self.m, self.n = std.A.shape
        self.n_struct = self.n - self.m
        self.max_iterations = max_iterations
        self.lower, self.upper = lower, upper
        self.b = std.b

        # normalise the objective so tolerances are scale-free
        self.cost_orig = std.cost
        self.scale = float(np.max(np.abs(self.cost_orig))) if self.n else 0.0
        if self.scale <= 0.0:
            self.scale = 1.0
        self.cost = self.cost_orig / self.scale

        if start is None:
            # the slack basis: structurals at a finite bound, slacks basic
            self.status = np.where(np.isfinite(lower), AT_LOWER,
                                   np.where(np.isfinite(upper), AT_UPPER, FREE)).astype(np.int8)
            self.basis = np.arange(self.n_struct, self.n, dtype=np.int64)
            self.status[self.basis] = BASIC
        else:
            # statuses still fit: branching tightens only columns basic in
            # the start, and the completion dive fixes a nonbasic free column
            # at its start value 0
            self.basis = start.basis.copy()
            self.status = start.status.copy()

        # violation = d * price_sign for columns at a bound; nonbasic free
        # columns are priced by |d| (once basic, a column only ever leaves
        # to a bound, so this list only shrinks)
        movable = self.upper > self.lower
        self.price_sign = np.where(movable & (self.status == AT_LOWER), -1.0,
                                   np.where(movable & (self.status == AT_UPPER), 1.0, 0.0))
        self.free = np.flatnonzero(movable & (self.status == FREE))

        self.iterations = 0
        # eta file: row k of eta_vecs is w_k - e_{r_k}; eta_inv[:k, :k] is the
        # inverse of the lower-triangular T with T[k, j] = eta_vecs[j, r_k]
        # (j < k) and T[k, k] = w_k[r_k]
        self.eta_vecs = np.empty((REFACTOR_EVERY, self.m))
        self.eta_rows = np.empty(REFACTOR_EVERY, dtype=np.int64)
        self.eta_inv = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY))
        self.n_etas = 0
        self._refactor()

    # -- linear algebra ------------------------------------------------------

    def _refactor(self) -> None:
        """Factorise the basis: slack columns by their row, LU of the bump."""
        m, basis = self.m, self.basis
        unit = basis >= self.n_struct
        self.pos_unit = np.flatnonzero(unit)
        self.pos_struct = np.flatnonzero(~unit)
        self.rows_unit = basis[self.pos_unit] - self.n_struct
        covered = np.zeros(m, dtype=bool)
        covered[self.rows_unit] = True
        self.rows_bump = np.flatnonzero(~covered)
        bump_row = np.full(m, -1, dtype=self.A.indices.dtype)
        bump_row[self.rows_bump] = np.arange(self.rows_bump.size)

        # structural basic columns, gathered from A's arrays; the bump keeps
        # their uncovered rows
        indptr, indices, data = gather_columns(self.A, basis[self.pos_struct])
        self.S = (indptr, indices, data)
        self.lu = None
        nb = self.rows_bump.size
        if nb:
            keep = bump_row[indices] >= 0
            kept = np.zeros(keep.size + 1, dtype=indptr.dtype)
            np.cumsum(keep, out=kept[1:])
            try:
                self.lu = splu(nb, data[keep], bump_row[indices[keep]], kept[indptr])
            except RuntimeError as exc:  # singular basis: numerical breakdown
                raise SolverError(f"basis factorisation failed: {exc}") from exc
        self.n_etas = 0
        x_nb = self._nonbasic_values()
        self.xB = self._ftran(self.b - self.A @ x_nb)

    def _push_eta(self, r: int, w: np.ndarray) -> None:
        """Record the pivot that put w = B^-1 a_q into basis position r."""
        k = self.n_etas
        self.eta_vecs[k] = w
        self.eta_vecs[k, r] -= 1.0
        self.eta_rows[k] = r
        inv = self.eta_inv
        inv[k, :k] = -(self.eta_vecs[:k, r] @ inv[:k, :k]) / w[r]
        inv[k, k] = 1.0 / w[r]
        self.n_etas = k + 1
        if self.n_etas == REFACTOR_EVERY:
            self._refactor()

    def _nonbasic_values(self) -> np.ndarray:
        x = np.where(self.status == AT_LOWER, self.lower, 0.0)
        x = np.where(self.status == AT_UPPER, self.upper, x)
        x[self.basis] = 0.0
        return x

    def _ftran(self, col: np.ndarray) -> np.ndarray:
        w = np.empty(self.m)
        if self.lu is not None:
            w_struct = self.lu.solve(col[self.rows_bump])
            w[self.pos_struct] = w_struct
            s_w = np.zeros(self.m)  # S @ w_struct
            csc_matvec(self.m, w_struct.size, *self.S, w_struct, s_w)
            col = col - s_w
        w[self.pos_unit] = col[self.rows_unit]
        k = self.n_etas
        if k:
            t = self.eta_inv[:k, :k] @ w[self.eta_rows[:k]]
            w -= t @ self.eta_vecs[:k]
        return w

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        z = np.array(cb, dtype=float)
        k = self.n_etas
        if k:
            h = (self.eta_vecs[:k] @ z) @ self.eta_inv[:k, :k]
            np.subtract.at(z, self.eta_rows[:k], h)
        y = np.zeros(self.m)
        y[self.rows_unit] = z[self.pos_unit]
        if self.lu is not None:
            st_y = np.zeros(self.pos_struct.size)  # S.T @ y: S's CSC arrays are S.T's CSR
            csr_matvec(st_y.size, self.m, *self.S, y, st_y)
            y[self.rows_bump] = self.lu.solve(z[self.pos_struct] - st_y, trans="T")
        return y

    def _column(self, j: int) -> np.ndarray:
        start, end = self.A.indptr[j], self.A.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.A.indices[start:end]] = self.A.data[start:end]
        return col

    # -- pricing and ratio test ----------------------------------------------

    def _price(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self._btran(cost[self.basis])
        d = cost - self.AT @ y
        return y, d

    def _violations(self, d: np.ndarray) -> np.ndarray:
        """How far each reduced cost is on the wrong side for its column."""
        viol = d * self.price_sign
        if self.free.size:
            viol[self.free] = np.abs(d[self.free])
        return viol

    def _entering(self, d: np.ndarray, bland: bool) -> int | None:
        viol = self._violations(d)
        q = int(np.argmax(viol))
        if not viol[q] > OPTIMALITY_TOL:
            return None
        if bland:
            return int(np.argmax(viol > OPTIMALITY_TOL))
        return q

    def _ratio_test(self, q: int, sigma: float, w: np.ndarray, bland: bool):
        """Step t >= 0 and leaving row, moving no basic more than the
        feasibility tolerance past its bound (Harris 1973; a basic already
        past it counts from where it is).

        Every row whose own limit is within the smallest limit relaxed by
        the tolerance (``FEASIBILITY_TOL / |delta|`` for a row that moves by
        delta per unit step) is a candidate; the largest pivot entry, then
        the lowest column, leaves (in Bland mode the lowest column).  Returns
        (t, leaving_row or None); None means the entering variable hits its
        opposite bound first (a bound flip), or that the step is unbounded
        when t is inf.
        """
        rows = np.flatnonzero(np.abs(w) > PIVOT_TOL)
        delta = sigma * w[rows]
        cols = self.basis[rows]
        bound = np.where(delta > 0.0, self.lower[cols], self.upper[cols])
        with np.errstate(invalid="ignore"):
            lims = (self.xB[rows] - bound) / delta
        np.maximum(lims, 0.0, out=lims)
        t_rows = lims.min() if rows.size else math.inf
        own = self.upper[q] - self.lower[q]
        if own <= t_rows:
            return own, None
        if not math.isfinite(t_rows):
            return math.inf, None
        # Harris: no candidate's step moves another basic more than the
        # tolerance past its bound, nor the entering column past its own
        cand = np.flatnonzero(lims <= min((lims + FEASIBILITY_TOL / np.abs(delta)).min(), own))
        if bland:
            k = cand[int(np.argmin(cols[cand]))]
        else:
            # prefer the numerically largest pivot, then the smallest index
            k = cand[np.lexsort((cols[cand], -np.abs(w[rows[cand]])))[0]]
        return float(lims[k]), int(rows[k])

    def _set_status(self, j: int, st: int) -> None:
        """Change a column's status and keep its pricing sign in step."""
        if self.status[j] == FREE:
            self.free = self.free[self.free != j]
        self.status[j] = st
        if self.upper[j] > self.lower[j] and st in (AT_LOWER, AT_UPPER):
            self.price_sign[j] = -1.0 if st == AT_LOWER else 1.0
        else:
            self.price_sign[j] = 0.0

    def _value_of(self, j: int) -> float:
        st = self.status[j]
        if st == AT_LOWER:
            return float(self.lower[j])
        if st == AT_UPPER:
            return float(self.upper[j])
        return 0.0

    def _pivot(self, r: int, q: int, w: np.ndarray, step: float, leaving_status: int) -> None:
        """Move column q by step, the basics by -step * w, and swap q into
        basis row r, whose column leaves with the given status."""
        self.xB -= step * w
        self._set_status(self.basis[r], leaving_status)
        self.basis[r] = q
        self.xB[r] = self._value_of(q) + step
        self._set_status(q, BASIC)
        self._push_eta(r, w)

    # -- main loop -------------------------------------------------------------

    def _run_phase(self, cost: np.ndarray):
        """Iterate until no violated reduced cost remains.

        Returns (status, y, d) where status is OPTIMAL, UNBOUNDED (d is
        then the ray over all columns) or ITERATION_LIMIT.
        """
        stall = 0  # degenerate pivots in a row; a run of them switches to Bland
        # the dual pass leaves etas behind; without a pivot here, this
        # factorisation is the fresh one optimality is declared from
        if self.n_etas:
            self._refactor()
        while True:
            bland = stall >= STALL_WINDOW
            y, d = self._price(cost)
            q = self._entering(d, bland)
            if q is None and self.n_etas:
                self._refactor()
                y, d = self._price(cost)
                q = self._entering(d, bland)
            if q is None:
                return Status.OPTIMAL, y, d
            if self.iterations >= self.max_iterations:
                return Status.ITERATION_LIMIT, y, d
            self.iterations += 1

            sigma = 1.0 if (self.status[q] == AT_LOWER
                            or (self.status[q] == FREE and d[q] < 0)) else -1.0
            w = self._ftran(self._column(q))
            t, r = self._ratio_test(q, sigma, w, bland)
            if math.isinf(t):
                ray = np.zeros(self.n)
                ray[q] = sigma
                ray[self.basis] = -sigma * w
                return Status.UNBOUNDED, y, ray
            if r is None:
                # bound flip: entering runs to its other bound, basis unchanged
                self.xB -= t * (sigma * w)
                self._set_status(q, AT_UPPER if self.status[q] == AT_LOWER else AT_LOWER)
            else:
                # a leaving variable always stops at a finite bound
                # (infinite bounds never limit the ratio test)
                self._pivot(r, q, w, sigma * t, AT_LOWER if sigma * w[r] > 0 else AT_UPPER)
            stall = stall + 1 if t <= DEGENERATE_STEP else 0

    def _leaving_row(self, bland: bool) -> tuple[int | None, float]:
        """The basic row with the largest bound violation (lowest column in
        Bland mode) and +1 if it leaves to its lower bound, -1 to its upper."""
        cols = self.basis
        below = self.lower[cols] - self.xB
        above = self.xB - self.upper[cols]
        viol = np.maximum(below, above)
        rows = np.flatnonzero(viol > FEASIBILITY_TOL)
        if not rows.size:
            return None, 0.0
        r = int(rows[np.argmin(cols[rows])] if bland else rows[np.argmax(viol[rows])])
        return r, 1.0 if below[r] > 0.0 else -1.0

    def _dual_ratio_test(self, d: np.ndarray, alpha: np.ndarray, bland: bool) -> int | None:
        """Entering column: the first reduced cost to reach zero as the
        leaving row's dual moves, where alpha is the tableau row signed so
        that d_j + t * alpha_j with t >= 0 is the move.

        None means no column limits the move: the program is infeasible.
        """
        ps = self.price_sign
        cand = np.flatnonzero(ps * alpha > PIVOT_TOL)
        if self.free.size:
            cand = np.union1d(cand, self.free[np.abs(alpha[self.free]) > PIVOT_TOL])
        if not cand.size:
            return None
        room = -d[cand] * ps[cand]  # |d_j| while column j is dual feasible
        is_free = ps[cand] == 0.0
        room[is_free] = np.abs(d[cand[is_free]])
        ratios = np.maximum(room, 0.0) / np.abs(alpha[cand])
        t = ratios.min()
        tied = cand[ratios <= t + 1e-9 * (1.0 + t)]
        if bland:
            return int(tied[0])
        # prefer the numerically largest pivot, then the smallest index
        return int(tied[np.lexsort((tied, -np.abs(alpha[tied])))[0]])

    def _run_dual(self, cost: np.ndarray, d: np.ndarray):
        """Bounded dual simplex (Koberstein 2005) from a basis that is dual
        feasible for ``cost``, whose reduced costs are ``d``: pivot bound
        violations out of the basis while the reduced costs keep their signs.

        Returns (status, farkas): status is None once the basis is primal
        feasible, else INFEASIBLE, with farkas its certificate, or
        ITERATION_LIMIT.
        """
        stall = 0  # degenerate pivots in a row; a run of them switches to Bland
        while True:
            bland = stall >= STALL_WINDOW
            r, toward = self._leaving_row(bland)
            if r is None:
                return None, None
            er = np.zeros(self.m)
            er[r] = 1.0
            rho = self._btran(er)
            alpha = self.AT @ rho  # row r of B^-1 A
            q = self._dual_ratio_test(d, toward * alpha, bland)
            if q is None and self.n_etas:
                self._refactor()
                _, d = self._price(cost)
                continue
            if q is None:
                # no column can move x_B[r] toward its bound: rho'b lies
                # beyond the range of rho'Ax over the bounds
                return Status.INFEASIBLE, -toward * rho
            if self.iterations >= self.max_iterations:
                return Status.ITERATION_LIMIT, None
            # the pivot element twice: from the tableau row and from the
            # column; where they disagree the factorisation has lost accuracy
            w = self._ftran(self._column(q))
            if abs(w[r]) <= PIVOT_TOL or abs(w[r] - alpha[q]) > 1e-9 * abs(alpha[q]):
                if not self.n_etas:
                    raise SolverError(f"pivot element of row {r} and column {q} is "
                                      f"{alpha[q]!r} in the tableau row but {w[r]!r} in "
                                      "the column on a fresh factorisation")
                self._refactor()
                _, d = self._price(cost)
                continue
            self.iterations += 1

            theta = d[q] / alpha[q]
            d -= theta * alpha
            # the entering column moves until the leaving one sits at its bound
            leaving = self.basis[r]
            if toward > 0:
                self._pivot(r, q, w, (self.xB[r] - self.lower[leaving]) / w[r], AT_LOWER)
            else:
                self._pivot(r, q, w, (self.xB[r] - self.upper[leaving]) / w[r], AT_UPPER)
            stall = stall + 1 if abs(theta) <= DEGENERATE_STEP else 0

    def solve(self) -> Solution:
        _, d = self._price(self.cost)
        # cost modification: columns whose reduced cost has the wrong sign
        # for their bound get a cost with reduced cost zero for the dual pass
        cost = self.cost
        shifted = self._violations(d) > OPTIMALITY_TOL
        if shifted.any():
            cost = cost.copy()
            cost[shifted] -= d[shifted]
            d[shifted] = 0.0
        status, farkas = self._run_dual(cost, d)
        if status is not None:
            return self._solution(status, phase=1, farkas=farkas)

        # primal clean-up with the true costs
        status, y, d = self._run_phase(self.cost)
        if status == Status.UNBOUNDED:  # d is the ray
            return self._solution(status, duals=y * self.scale, ray=d[:self.n_struct])
        if status == Status.ITERATION_LIMIT:
            return self._solution(status)
        d[self.status == BASIC] = 0.0
        return self._solution(status, duals=y * self.scale,
                              reduced_costs=d[:self.n_struct] * self.scale,
                              basis=BasisState(self.basis.copy(), self.status.copy()))

    def _solution(self, status: Status, phase: int = 2, **fields) -> Solution:
        """The solve's result over the structural columns; an infeasible or
        unbounded LP reports the objective +inf or -inf, and only an
        iteration limit leaves the bound open."""
        x = self._nonbasic_values()
        x[self.basis] = self.xB
        x += 0.0  # a basic value of -0.0 is reported as 0.0
        if status == Status.INFEASIBLE:
            objective = math.inf
        elif status == Status.UNBOUNDED:
            objective = -math.inf
        else:
            objective = float(self.cost_orig @ x)
        bound = -math.inf if status == Status.ITERATION_LIMIT else objective
        return Solution(status=status, values=x[:self.n_struct], objective=objective,
                        bound=bound, gap=relative_gap(objective, bound),
                        iterations=self.iterations,
                        message=f"simplex finished in phase {phase}", **fields)
