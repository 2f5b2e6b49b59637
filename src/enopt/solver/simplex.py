"""Simplex for bounded variables: a two-phase primal with artificial
columns for cold starts, and a dual simplex for warm starts.

Design notes:

* Variables carry their bounds directly (no slack rows for upper bounds),
  which keeps capacity caps out of the constraint matrix.
* Column ``n_struct + i`` of ``A`` is the slack of row ``i`` with
  coefficient +1 (the layout ``standardize`` builds), and the artificial of
  row ``i`` is ``signs[i]`` times the unit vector.  A basis therefore holds
  unit columns, one per row they cover, and structural columns.  Only the
  structural columns restricted to the uncovered rows (the "bump", the LU
  nucleus of Suhl & Suhl 1990) go to a sparse LU (scipy ``splu``); the
  entries of the covered rows follow from one sparse product with the
  structural basic columns.  An all-slack basis needs no factorisation.
* Pivots since the last factorisation form a product-form eta file
  (Dantzig & Orchard-Hays 1954) held in closed form: a fixed store of the
  vectors ``w_k - e_{r_k}`` and the inverse of the small lower-triangular
  matrix that couples them, so ftran and btran apply every eta in two dense
  matrix-vector products.  The basis is refactored when the store holds
  ``REFACTOR_EVERY`` etas and before optimality is declared, so the final
  point is computed from a fresh factorisation.
* Pricing is Dantzig (largest reduced-cost violation).  A run of degenerate
  pivots switches to Bland's rule (smallest index in, smallest index out),
  which guarantees termination; the first non-degenerate step switches back.
  A per-column sign (-1 at a movable lower bound, +1 at a movable upper
  bound, 0 otherwise), kept up to date at every status change, turns the
  reduced costs into violations with one product; the ratio test looks only
  at rows with a usable pivot entry.
* The objective is normalised by its largest coefficient internally, so
  scaling the objective by any positive factor leaves the pivot sequence,
  and therefore the returned vertex, unchanged.

Cold start (phase 1) starts from all structural variables at a finite
bound, slacks absorbing what they can, and one artificial column per
remaining row.  The sum of artificials is driven to zero; leftover basic
artificials are pivoted out or pinned to zero for phase 2.

Warm start: an optimal solve returns its basis as a :class:`BasisState`.
A solve of the same standard form with tightened bounds (a branch-and-bound
child) starts from it, reusing its matrix with the artificial columns, their
signs and their pinned bounds, and refactors once.  That basis is still dual
feasible, so a bounded dual simplex (Koberstein 2005) restores primal
feasibility: the leaving row has the largest bound violation; the entering
column comes from the textbook dual ratio test over the nonbasic columns
whose tableau entry has the sign that lets their reduced cost reach zero,
plus free columns with any usable entry, ties broken by the largest pivot
entry and then the lowest index; a run of degenerate dual pivots switches to
lowest-index choices.  No candidate column, checked on a fresh
factorisation, means the program is infeasible.  Once primal feasible, the
phase-2 primal loop runs as a clean-up and declares optimality as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import SolverError

__all__ = ["BasisState", "SimplexOutcome", "BoundedSimplex"]

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

PIVOT_TOL = 1e-9
DEGENERATE_STEP = 1e-10
REFACTOR_EVERY = 64
STALL_WINDOW = 40


@dataclass(frozen=True)
class BasisState:
    """An optimal basis that a solve with tightened bounds can start from.

    ``basis`` holds the basic column of each row and ``status`` the status
    of every column, artificials included.  ``A`` (the standard form with
    the artificial columns appended), its transpose ``AT`` and the
    artificial ``signs`` come from the cold solve that built them and are
    shared, never copied, by every warm start that descends from it.
    """

    basis: np.ndarray  # (m,) int64
    status: np.ndarray  # (n + 2m,) int8
    A: sp.csc_matrix
    AT: sp.csr_matrix
    signs: np.ndarray


@dataclass
class SimplexOutcome:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    x: np.ndarray  # all columns (structural + slack)
    objective: float
    y: np.ndarray | None  # row duals, original objective units
    reduced_costs: np.ndarray | None  # all columns, original objective units
    iterations: int
    ray: np.ndarray | None = None
    farkas: np.ndarray | None = None
    phase: int = 2
    state: BasisState | None = None  # the optimal basis, to warm-start from


class BoundedSimplex:
    def __init__(self, A: sp.csc_matrix, b: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, cost: np.ndarray, *,
                 start: BasisState | None = None,
                 feasibility_tol: float = 1e-6, optimality_tol: float = 1e-7,
                 max_iterations: int = 200_000):
        self.m, n_cols = A.shape
        self.n_real = n_cols  # structural + slack; artificials come after
        self.n_struct = n_cols - self.m
        self.ftol = feasibility_tol
        self.otol = optimality_tol
        self.max_iterations = max_iterations

        # normalise the objective so tolerances are scale-free
        self.scale = float(np.max(np.abs(cost))) if cost.size else 0.0
        if self.scale <= 0.0:
            self.scale = 1.0
        self.cost_orig = cost.astype(float)
        self.b = b.astype(float)

        self.warm = start is not None
        if start is None:
            self._crash(A, lower, upper)
        else:
            # the parent's matrix and artificials, which its phase 1 left
            # pinned at zero
            self.A, self.AT, self.signs = start.A, start.AT, start.signs
            self.lower = np.concatenate([lower, np.zeros(self.m)])
            self.upper = np.concatenate([upper, np.zeros(self.m)])
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

        n = self.n_real
        self.cost_phase1 = np.zeros(n + self.m)
        self.cost_phase1[n:] = 1.0
        self.cost_phase2 = np.concatenate([self.cost_orig / self.scale, np.zeros(self.m)])

        self.iterations = 0
        # eta file: row k of eta_vecs is w_k - e_{r_k}; eta_inv[:k, :k] is the
        # inverse of the lower-triangular T with T[k, j] = eta_vecs[j, r_k]
        # (j < k) and T[k, k] = w_k[r_k]
        self.eta_vecs = np.empty((REFACTOR_EVERY, self.m))
        self.eta_rows = np.empty(REFACTOR_EVERY, dtype=np.int64)
        self.eta_inv = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY))
        self.n_etas = 0
        self._refactor()

    def _crash(self, A: sp.csc_matrix, lower: np.ndarray, upper: np.ndarray) -> None:
        """Cold start: every nonbasic at a bound, each row's slack basic
        where its bounds absorb the residual, an artificial otherwise."""
        status = np.where(np.isfinite(lower), AT_LOWER,
                          np.where(np.isfinite(upper), AT_UPPER, FREE)).astype(np.int8)
        x_nb = np.where(status == AT_LOWER, lower, 0.0)
        x_nb = np.where(status == AT_UPPER, upper, x_nb)
        residual = self.b - A @ x_nb

        basis = np.empty(self.m, dtype=np.int64)
        signs = np.ones(self.m)
        art_rows = []
        n = self.n_real
        for i in range(self.m):
            s = n - self.m + i  # slack column of row i
            target = x_nb[s] + residual[i]
            if lower[s] - 1e-9 <= target <= upper[s] + 1e-9:
                basis[i] = s
                status[s] = BASIC
            else:
                # artificial takes the row residual, signed so it starts >= 0
                basis[i] = n + i
                signs[i] = 1.0 if residual[i] >= 0 else -1.0
                art_rows.append(i)

        self.signs = signs
        self.A = sp.hstack([A, sp.diags(signs, format="csc")], format="csc")
        self.AT = self.A.T.tocsr()
        self.lower = np.concatenate([lower, np.zeros(self.m)])
        self.upper = np.concatenate([upper, np.zeros(self.m)])
        for i in art_rows:
            self.upper[n + i] = math.inf
        art_status = np.full(self.m, AT_LOWER, dtype=np.int8)
        self.status = np.concatenate([status, art_status])
        self.status[basis] = BASIC
        self.basis = basis

    # -- linear algebra ------------------------------------------------------

    def _refactor(self) -> None:
        """Factorise the basis: unit columns by their row, LU of the bump."""
        m, basis = self.m, self.basis
        unit = basis >= self.n_struct
        self.pos_unit = np.flatnonzero(unit)
        self.pos_struct = np.flatnonzero(~unit)
        cols = basis[self.pos_unit]
        art = cols >= self.n_real
        self.rows_unit = np.where(art, cols - self.n_real, cols - self.n_struct)
        self.sign_unit = np.where(art, self.signs[self.rows_unit], 1.0)
        covered = np.zeros(m, dtype=bool)
        covered[self.rows_unit] = True
        self.rows_bump = np.flatnonzero(~covered)
        if self.rows_bump.size != self.pos_struct.size:
            raise SolverError("basis factorisation failed: a row's slack and "
                              "artificial are both basic")
        bump_row = np.full(m, -1, dtype=np.int64)
        bump_row[self.rows_bump] = np.arange(self.rows_bump.size)

        # structural basic columns; the bump keeps their uncovered rows
        self.S = self.A[:, basis[self.pos_struct]]
        self.S_T = self.S.T
        self.lu = None
        nb = self.rows_bump.size
        if nb:
            keep = bump_row[self.S.indices] >= 0
            kept = np.concatenate(([0], np.cumsum(keep)))
            bump = sp.csc_matrix((self.S.data[keep], bump_row[self.S.indices[keep]],
                                  kept[self.S.indptr]), shape=(nb, nb))
            try:
                self.lu = splu(bump)
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
            col = col - self.S @ w_struct
        w[self.pos_unit] = self.sign_unit * col[self.rows_unit]
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
        y[self.rows_unit] = self.sign_unit * z[self.pos_unit]
        if self.lu is not None:
            y[self.rows_bump] = self.lu.solve(z[self.pos_struct] - self.S_T @ y, trans="T")
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

    def _entering(self, d: np.ndarray, bland: bool) -> int | None:
        viol = d * self.price_sign
        if self.free.size:
            viol[self.free] = np.abs(d[self.free])
        q = int(np.argmax(viol))
        if not viol[q] > self.otol:
            return None
        if bland:
            return int(np.argmax(viol > self.otol))
        return q

    def _ratio_test(self, q: int, sigma: float, w: np.ndarray, bland: bool):
        """Largest step t >= 0 keeping all basics inside their bounds.

        Returns (t, leaving_row or None); None means the entering variable
        hits its opposite bound first (a bound flip), or that the step is
        unbounded when t is inf.
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
        cand = np.flatnonzero(lims <= t_rows + 1e-9 * (1.0 + t_rows))
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

    def _tableau_row(self, r: int) -> np.ndarray:
        """Row r of B^-1 A over every column, artificials included."""
        er = np.zeros(self.m)
        er[r] = 1.0
        return self.AT @ self._btran(er)

    # -- main loop -------------------------------------------------------------

    def _run_phase(self, cost: np.ndarray):
        """Iterate until no violated reduced cost remains.

        Returns (outcome_tag, y, d) where outcome_tag is "optimal",
        "unbounded" or "iteration_limit".
        """
        stall = 0
        bland = False
        while True:
            y, d = self._price(cost)
            q = self._entering(d, bland)
            if q is None and self.n_etas:
                self._refactor()
                y, d = self._price(cost)
                q = self._entering(d, bland)
            if q is None:
                return "optimal", y, d
            if self.iterations >= self.max_iterations:
                return "iteration_limit", y, d
            self.iterations += 1

            sigma = 1.0 if (self.status[q] == AT_LOWER
                            or (self.status[q] == FREE and d[q] < 0)) else -1.0
            w = self._ftran(self._column(q))
            t, r = self._ratio_test(q, sigma, w, bland)
            if math.isinf(t):
                ray = np.zeros(self.A.shape[1])
                ray[q] = sigma
                ray[self.basis] = -sigma * w
                return "unbounded", y, ray
            if r is None:
                # bound flip: entering runs to its other bound, basis unchanged
                self.xB -= t * (sigma * w)
                self._set_status(q, AT_UPPER if self.status[q] == AT_LOWER else AT_LOWER)
            else:
                leaving = self.basis[r]
                if leaving >= self.n_real:
                    # artificial leaves for good
                    self.upper[leaving] = 0.0
                    self._pivot(r, q, w, sigma * t, AT_LOWER)
                else:
                    # a leaving variable always stops at a finite bound
                    # (infinite bounds never limit the ratio test)
                    self._pivot(r, q, w, sigma * t,
                                AT_LOWER if sigma * w[r] > 0 else AT_UPPER)
            if t <= DEGENERATE_STEP:
                stall += 1
                if stall >= STALL_WINDOW:
                    bland = True
            else:
                stall = 0
                bland = False

    def _drive_out_artificials(self) -> None:
        for r in range(self.m):
            if self.basis[r] < self.n_real:
                continue
            rowvals = self._tableau_row(r)
            entering = None
            for j in np.flatnonzero(np.abs(rowvals) > 1e-7):
                if j < self.n_real and self.status[j] != BASIC:
                    entering = int(j)
                    break
            art = self.basis[r]
            if entering is None:
                # dependent row: pin the artificial at zero and leave it basic
                self.upper[art] = 0.0
                continue
            w = self._ftran(self._column(entering))
            if abs(w[r]) <= PIVOT_TOL:
                self.upper[art] = 0.0
                continue
            self.upper[art] = 0.0
            self._set_status(art, AT_LOWER)
            self.basis[r] = entering
            self.xB[r] = self._value_of(entering)
            self._set_status(entering, BASIC)
            self._push_eta(r, w)
        self._refactor()

    def _leaving_row(self, bland: bool) -> tuple[int | None, float]:
        """The basic row with the largest bound violation (lowest column in
        Bland mode) and +1 if it leaves to its lower bound, -1 to its upper."""
        cols = self.basis
        below = self.lower[cols] - self.xB
        above = self.xB - self.upper[cols]
        viol = np.maximum(below, above)
        rows = np.flatnonzero(viol > self.ftol)
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

    def _run_dual(self) -> str:
        """Bounded dual simplex (Koberstein 2005) from a dual feasible basis:
        pivot bound violations out of the basis while the reduced costs keep
        their signs.

        Returns "feasible", "infeasible" or "iteration_limit".
        """
        _, d = self._price(self.cost_phase2)
        stall = 0
        bland = False
        while True:
            r, toward = self._leaving_row(bland)
            if r is None:
                return "feasible"
            alpha = self._tableau_row(r)
            q = self._dual_ratio_test(d, toward * alpha, bland)
            if q is None and self.n_etas:
                self._refactor()
                _, d = self._price(self.cost_phase2)
                continue
            if q is None:
                return "infeasible"
            if self.iterations >= self.max_iterations:
                return "iteration_limit"
            self.iterations += 1

            theta = d[q] / alpha[q]
            d -= theta * alpha
            w = self._ftran(self._column(q))
            # the entering column moves until the leaving one sits at its bound
            leaving = self.basis[r]
            if toward > 0:
                self._pivot(r, q, w, (self.xB[r] - self.lower[leaving]) / w[r], AT_LOWER)
            else:
                self._pivot(r, q, w, (self.xB[r] - self.upper[leaving]) / w[r], AT_UPPER)
            if abs(theta) <= DEGENERATE_STEP:
                stall += 1
                if stall >= STALL_WINDOW:
                    bland = True
            else:
                stall = 0
                bland = False

    def solve(self) -> SimplexOutcome:
        if self.warm:
            # the start basis is dual feasible: the dual simplex replaces phase 1
            tag = self._run_dual()
            if tag != "feasible":
                return self._outcome(tag, phase=1)
        elif np.any(self.basis >= self.n_real):
            # phase 1: minimise the sum of artificials
            tag, y, d = self._run_phase(self.cost_phase1)
            if tag == "iteration_limit":
                return self._outcome("iteration_limit", phase=1)
            art_mask = self.basis >= self.n_real
            infeas = float(np.sum(np.maximum(self.xB[art_mask], 0.0)))
            if infeas > self.ftol * max(1.0, float(np.max(np.abs(self.b), initial=0.0))):
                out = self._outcome("infeasible", phase=1)
                out.farkas = y
                return out
            self._drive_out_artificials()

        tag, y, extra = self._run_phase(self.cost_phase2)
        if tag == "unbounded":
            out = self._outcome("unbounded")
            out.ray = extra[:self.n_real]
            out.y = y * self.scale
            return out
        if tag == "iteration_limit":
            return self._outcome("iteration_limit")
        out = self._outcome("optimal")
        out.y = y * self.scale
        d = extra.copy()
        d[self.status == BASIC] = 0.0
        out.reduced_costs = d[:self.n_real] * self.scale
        out.state = BasisState(self.basis.copy(), self.status.copy(),
                               self.A, self.AT, self.signs)
        return out

    def _outcome(self, status: str, phase: int = 2) -> SimplexOutcome:
        x = self._nonbasic_values()
        x[self.basis] = self.xB
        x = x[:self.n_real]
        obj = float(self.cost_orig @ x)
        return SimplexOutcome(status=status, x=x, objective=obj, y=None,
                              reduced_costs=None, iterations=self.iterations, phase=phase)
