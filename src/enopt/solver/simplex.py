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
  of the covered rows follow from the structural basic columns' entries
  in those rows, kept as raw column arrays.  An all-slack basis needs no
  factorisation.  SuperLU keeps its COLAMD ordering and partial pivoting
  but builds no relaxed supernodes: the bumps are nearly triangular, and
  the dense blocks of relaxed supernodes made each triangular solve and
  the factorisation take up to about twice as long.
* The basis vectors are indexed by slot, not by position in ``basis``:
  ftran'd columns, the basic values and bounds, the etas and the rows of
  ``B^-1 A``.  A basic slack's slot is its own row; the structural basic
  columns take the uncovered rows in their order in ``basis`` (see
  :meth:`BoundedSimplex._refactor`), so the slack part of ftran and btran
  is the identity and needs no gather.  ``basis`` keeps its positions,
  which set the bump's column order, and ``slot_col`` maps each slot to its
  basic column.  Slots equal positions until a slack enters the basis at
  another row's position.  Leaving-row ties still go to the lowest
  position, and each entry is computed as the position-indexed layout
  computed it, but for the order of two kinds of sums: the remainder lanes
  of BLAS's dense eta products, and the eta file's product with a priced
  cost vector.  These can move an entry's last bit; the pivots and results
  of the shipped scenarios and the benchmark's workloads are unchanged.
  The dense eta products run through BLAS, whose kernel (picked for the
  CPU at run time by OpenBLAS) rounds its remainder lanes differently from
  its main loop, so a solve is bit-reproducible for one BLAS kernel, not
  across CPUs that get different kernels.
* Pivots since the last factorisation form a product-form eta file
  (Dantzig & Orchard-Hays 1954) held in closed form: a fixed store of the
  vectors ``w_k - e_{r_k}`` and the inverse of the small lower-triangular
  matrix that couples them, so ftran and btran apply every eta in two dense
  matrix-vector products.  ftran skips the product when no eta
  multiplier is nonzero (28% of the columns with etas at 336 steps) and
  applies the one eta alone when one is (8%), with the dense product's
  bits (Hall & McKinnon 2005 apply only the etas that act).  The basis is
  refactored when the store holds ``REFACTOR_EVERY`` (32) etas, which
  keeps those products short for the price of a factorisation (about
  three pivots' time at 336 steps), and before optimality is declared, so
  the final point is computed from a fresh factorisation.
* The dual pass keeps the bounds of the basic columns by slot, so its
  leaving-row scan reads no gathered bound arrays, and takes the product
  of the eta file with a unit vector as that file's column.  That column
  times the eta file's coupling inverse is also the row the pivot's own
  eta adds to the inverse, so one product serves the btran and the eta.
  The leaving direction flips the ratio test's comparison instead of the
  tableau row, and each pivot scalar is read once as a Python float (the
  same IEEE double arithmetic).  A dual-degenerate pivot (entering
  reduced cost exactly 0) leaves the reduced costs as they are: the
  update would only flip the sign of zeros, which no choice reads.
* The objective is normalised by its largest coefficient internally, and
  the crash reads costs only as zero or nonzero and as a ratio, so scaling
  the objective by any positive factor leaves the start, the pivot
  sequence, and therefore the returned vertex, unchanged.
* The tolerances are the constants of :mod:`enopt.solver.core`:
  ``FEASIBILITY_TOL`` on basic variables' bound violations,
  ``OPTIMALITY_TOL`` on reduced costs of the normalised objective.

A cold solve starts from the slack basis (every structural column at a
finite bound, lower if it has one, else upper, free columns at 0, and every
slack basic), crashed (Bixby 1992; Maros 2003, ch. 9; see :func:`crash`):
structural columns at a finite lower bound replace row slacks, first on
the equality rows, then on the other rows, each only where none of its
rows is taken yet, so the crashed columns are triangular and the basis
nonsingular.  Most of the dual pass's pivots on a compiled program would
only swap a zero-cost flow column in for an equality row's fixed slack;
the crash does that work before the first factorisation.  Without scaling
a crash start can lead a badly scaled program to a wrong vertex, so it is
skipped when the structural entries of ``A``, or the nonzero costs, span
more than ``CRASH_RANGE`` (:func:`crash_gate`).  Each cold solve logs its
start at INFO.  A warm solve starts from the optimal :class:`BasisState` of
a solve with the same ``A``; a changed ``b``, or bounds for which each
nonbasic status still names a finite bound, leave it dual feasible.  It
also fits ``A`` with rows appended, each with its own slack column after
the existing ones, once the start is extended by those slacks as basic
(branch and bound's cut rounds do this): the new rows' duals are zero, so
every reduced cost is unchanged, and the dual pass drives out the slacks
that the start's point puts past their bounds.  The state carries the
factorisation its solve declared optimality from (a :class:`Factor`):
the bump's LU with the slot maps, the covered-row arrays ``S`` and the
uncovered rows derived with it.  A start on the same ``A`` (the matrix
object, unchanged) and the same basis installs all of it and derives
nothing: it pays only for its basic values, ``B^-1 (b - A x_N)``.  Any
other factorisation (:meth:`BoundedSimplex._refactor`) derives the slot
maps, ``S`` and the bump in one pass over the structural basic columns'
entries, and reuses the last LU, a start's included, when the bump
arrays equal those that LU factorised, bit for bit; otherwise it calls
SuperLU.  SuperLU is deterministic, so the reuse changes no value, pivot
or count but the factorisations: a start with changed ``b`` or bounds, or
with appended rows whose slacks cover them, begins without factorising,
and a start applied to another ``A`` whose bump differs factorises
anew.  Where a start is not dual
feasible (changed costs; negative costs or costed free columns, built only
through the library API; or costed columns made basic by the crash, which
shift 3 or 4 costs of a compiled program), the costs of the offending
columns are shifted so their reduced costs are zero for the dual pass (cost
modification, Koberstein 2005, ch. 4) and restored afterwards.

Both starts run the same two passes:

1. A bounded dual simplex (Koberstein 2005) restores primal feasibility.
   The leaving row has the largest bound violation (the lowest position
   in ``basis`` among equals); the entering column
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

import logging
import math
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_array, csc_matrix
# the kernels behind scipy's own ``S @ w`` for CSC and CSR matrices, called on
# raw arrays so no checked matrix is built per factorisation
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_matvecs
# the SuperLU factorisation call behind ``scipy.sparse.linalg.splu``
from scipy.sparse.linalg._dsolve._superlu import gstrf

from .core import (FEASIBILITY_TOL, OPTIMALITY_TOL, BasisState, Solution, SolverConfig,
                   SolverError, Status)
from .standard import StandardForm

__all__ = ["BoundedSimplex"]

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

PIVOT_TOL = 1e-9
DEGENERATE_STEP = 1e-10
REFACTOR_EVERY = 32
STALL_WINDOW = 40
# the crash is skipped when the structural entries of A, or the nonzero
# costs, span more than this ratio
CRASH_RANGE = 1e3
# a crashed column's pivot is at least this share of its largest entry
CRASH_PIVOT = 0.1

log = logging.getLogger(__name__)


# the options ``scipy.sparse.linalg.splu(A, relax=1, panel_size=1)`` passes:
# its defaults but no relaxed supernodes (see the module docstring)
_SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None, "PanelSize": 1, "Relax": 1}


def splu(n: int, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """``scipy.sparse.linalg.splu`` of the n x n CSC matrix (data, indices,
    indptr) with ``_SPLU_OPTIONS``, called on the raw arrays: for a typical
    bump, the checked ``csc_matrix`` splu builds costs more than the
    factorisation itself.
    The arrays must be canonical (sorted row indices, no repeated entries,
    of which SuperLU keeps only the last); bumps of ``standardize``'s A are,
    with or without branch and bound's cut rows."""
    return gstrf(n, data.size, data, indices.astype(np.intc), indptr.astype(np.intc),
                 csc_construct_func=csc_array, ilu=False, options=_SPLU_OPTIONS)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two contiguous 1-D arrays hold the same values, bit for bit."""
    return a.dtype == b.dtype and a.size == b.size and a.tobytes() == b.tobytes()


class Factor(NamedTuple):
    """A factorisation of ``basis`` over ``A`` (the matrix object) and what
    :meth:`BoundedSimplex._refactor` derived with it: the bump's SuperLU
    object and the CSC arrays (data, indices, indptr) it factorised (both
    None without a bump), the basic column and the position in ``basis`` of
    each slot, the uncovered rows, and ``S``, the CSC arrays of the
    structural basic columns' entries in the covered rows.  None of its
    arrays is changed after it is made."""

    lu: object
    bump: tuple | None
    A: csc_matrix
    basis: np.ndarray
    slot_col: np.ndarray
    slot_pos: np.ndarray
    rows_bump: np.ndarray
    S: tuple


def gather_columns(A: csc_matrix, cols: np.ndarray):
    """The (indptr, indices, data) arrays of ``A[:, cols]``, copied straight
    from A's arrays (same entries, same order, same index dtype)."""
    start = A.indptr[cols]
    lens = A.indptr[cols + 1] - start
    indptr = np.zeros(cols.size + 1, dtype=A.indptr.dtype)
    np.cumsum(lens, out=indptr[1:])
    pos = np.repeat(start - indptr[:-1], lens) + np.arange(indptr[-1])
    return indptr, A.indices[pos], A.data[pos]


def slack_basis(lower: np.ndarray, upper: np.ndarray, n_struct: int) -> BasisState:
    """Every structural column at a finite bound (lower if it has one, else
    upper; free columns at 0) and every slack basic."""
    status = np.where(np.isfinite(lower), AT_LOWER,
                      np.where(np.isfinite(upper), AT_UPPER, FREE)).astype(np.int8)
    basis = np.arange(n_struct, lower.size, dtype=np.int64)
    status[basis] = BASIC
    return BasisState(basis, status)


def crash_gate(std: StandardForm) -> tuple[str, float] | None:
    """Why the crash is skipped for ``std``, with the range that tripped
    it, or None: the structural entries of A, or the nonzero costs, span
    more than ``CRASH_RANGE``."""
    for name, values in (("structural entries of A", std.A.data[:std.A.indptr[std.n_struct]]),
                         ("nonzero costs", std.cost)):
        size = np.abs(values[values != 0.0])
        if size.size and size.max() > CRASH_RANGE * size.min():
            return name, float(size.max() / size.min())
    return None


def crash(std: StandardForm, lower: np.ndarray, upper: np.ndarray,
          start: BasisState) -> list[list[tuple[int, int]]]:
    """Make structural columns basic in place of row slacks in ``start``,
    a slack basis, and return the (column, row) pairs of each pass in the
    order they were taken (Bixby 1992; Maros 2003, ch. 9).

    The candidates are the structural columns at a finite lower bound that
    can move, those without cost first, then the costed ones, each group in
    column order.  Pass 1 offers the equality rows, pass 2 every other row
    whose slack has a finite bound.  A candidate takes the row of its
    largest entry among the pass's rows if that entry is at least
    ``CRASH_PIVOT`` of its largest entry and none of its rows is taken yet,
    so the crashed columns are triangular in the order taken and the basis
    stays nonsingular; the row's slack leaves to its finite bound.  Costs
    are read only as zero or nonzero, so a positive scaling of the
    objective leaves the start unchanged."""
    A, ns = std.A, std.n_struct
    basis, status = start.basis, start.status
    ptr = A.indptr[:ns + 1]
    rows = A.indices[:ptr[-1]]
    size = np.abs(A.data[:ptr[-1]])
    col_of = np.repeat(np.arange(ns), np.diff(ptr))
    nonempty = ptr[:-1] < ptr[1:]
    starts = ptr[:-1][nonempty]  # the first entry of each non-empty column

    def per_column(reduce, values, empty):
        out = np.full(ns, empty, dtype=values.dtype)
        if values.size:
            out[nonempty] = reduce.reduceat(values, starts)
        return out

    biggest = per_column(np.maximum, size, 0.0)
    cand = np.flatnonzero((status[:ns] == AT_LOWER) & (upper[:ns] > lower[:ns]))
    cand = np.concatenate([cand[std.cost[cand] == 0.0], cand[std.cost[cand] != 0.0]])
    slack_lo, slack_hi = lower[ns:], upper[ns:]
    rows_list, ptr_list = rows.tolist(), ptr.tolist()
    taken: set[int] = set()
    passes = []
    for offered in (slack_lo == slack_hi, np.isfinite(slack_lo) | np.isfinite(slack_hi)):
        # each column's pivot: its first largest entry in an offered row
        on_offer = np.where(offered[rows], size, 0.0)
        best = per_column(np.maximum, on_offer, 0.0)
        hit = (on_offer == best[col_of]) & (on_offer > 0.0)
        first = per_column(np.minimum, np.where(hit, np.arange(rows.size), rows.size), rows.size)
        ok = (first[cand] < rows.size) & (best[cand] >= CRASH_PIVOT * biggest[cand])
        pairs = []
        for j, r in zip(cand[ok].tolist(), rows[first[cand[ok]]].tolist()):
            if taken.isdisjoint(rows_list[ptr_list[j]:ptr_list[j + 1]]):
                taken.add(r)
                pairs.append((j, r))
                basis[r] = j
                status[j] = BASIC
                status[ns + r] = AT_LOWER if math.isfinite(lower[ns + r]) else AT_UPPER
        passes.append(pairs)
        cand = cand[status[cand] != BASIC]
    return passes


class BoundedSimplex:
    """One LP solve over a standard form with the given bound vectors, from
    the crashed slack basis or ``start``; :meth:`solve` runs it once.  The only
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
            # the slack basis, crashed unless the gate says otherwise
            start = slack_basis(lower, upper, self.n_struct)
            skip = crash_gate(std)
            if skip is None:
                passes = crash(std, lower, upper, start)
                log.info("crash start: %d columns basic on equality rows, %d on other rows",
                         *map(len, passes))
            else:
                log.info("slack start, no crash: the %s span %.3g, above %g", *skip, CRASH_RANGE)
        # a warm start's statuses still fit: branching tightens only columns
        # basic in the start, and the completion dive fixes a nonbasic free
        # column at its start value 0
        self.basis = start.basis.copy()
        self.status = start.status.copy()
        # the bump's last factorisation and its arrays (see _refactor)
        self.factor = start.factor

        # violation = d * price_sign for columns at a bound; nonbasic free
        # columns are priced by |d| (once basic, a column only ever leaves
        # to a bound, so this list only shrinks)
        self.movable = movable = self.upper > self.lower
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
        """Factorise the basis: slack columns by their row, LU of the bump.

        Every basic column gets a slot, a row index that its entries of
        ftran'd columns, its basic value and bounds and its etas use until
        the next factorisation: a basic slack's slot is its own row, and the
        structural basic columns take the uncovered rows in their order in
        ``basis``, which is also the bump's column order.  A start whose
        factorisation was built for this ``A`` and this basis installs what
        that factorisation carries and derives nothing."""
        f = self.factor
        if f is None or f.A is not self.A or not _same_bits(f.basis, self.basis):
            f = self.factor = self._factorise(f)
        self.lu, self.rows_bump, self.slot_pos, self.S = f.lu, f.rows_bump, f.slot_pos, f.S
        self.slot_col = f.slot_col.copy()  # _pivot keeps it, the factorisation keeps its own
        self.n_etas = 0
        # the bounds of the basic columns by slot; _pivot keeps them
        self.lbB, self.ubB = self.lower[self.slot_col], self.upper[self.slot_col]
        # A @ x_nb over the columns from the first to the last at a nonzero
        # bound: the terms of the others are +-0.0, which leave every sum of
        # the product as it is, bit for bit
        x = self._nonbasic_values()
        at = x.nonzero()[0]
        if at.size:
            lo, hi = int(at[0]), int(at[-1]) + 1
            ax = np.zeros(self.m)
            csc_matvec(self.m, hi - lo, self.A.indptr[lo:], self.A.indices, self.A.data,
                       x[lo:hi], ax)
            self.xB = self._ftran(self.b - ax)
        else:
            self.xB = self._ftran(self.b)

    def _factorise(self, last: Factor | None) -> Factor:
        """The slot maps, ``S`` and the bump of the basis, derived in one
        pass over the structural basic columns' entries, and the bump's LU:
        ``last``'s where its bump has the same arrays, bit for bit (SuperLU
        is deterministic, so it stands in for the call), else SuperLU's."""
        m, ns, basis = self.m, self.n_struct, self.basis
        unit = basis >= ns
        pos_unit, pos_struct = unit.nonzero()[0], (~unit).nonzero()[0]
        rows_unit = basis[pos_unit] - ns
        # bump index by row, -1 on the rows the basic slacks cover
        bump_row = np.zeros(m, dtype=self.A.indices.dtype)
        bump_row[rows_unit] = -1
        rows_bump = (bump_row == 0).nonzero()[0]
        nb = rows_bump.size
        bump_row[rows_bump] = np.arange(nb, dtype=bump_row.dtype)
        # slot -> position in basis; a pivot gives the entering column both
        # of the leaving column's
        slot_pos = np.empty(m, dtype=np.int64)
        slot_pos[rows_unit] = pos_unit
        slot_pos[rows_bump] = pos_struct
        # structural basic columns, gathered from A's arrays: the bump keeps
        # their uncovered rows, S their covered ones, all that ftran and
        # btran read of them besides the LU
        indptr, indices, data = gather_columns(self.A, basis[pos_struct])
        at_bump = bump_row[indices]
        keep = at_bump >= 0
        kept = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=kept[1:])
        cover = ~keep
        S = (indptr - kept[indptr], indices[cover], data[cover])
        lu = bump = None
        if nb:
            bump = (data[keep], at_bump[keep], kept[indptr])
            if last is not None and last.bump is not None and all(map(_same_bits, bump, last.bump)):
                lu, bump = last.lu, last.bump
            else:
                try:
                    lu = splu(nb, *bump)
                except RuntimeError as exc:  # singular basis: numerical breakdown
                    raise SolverError(f"basis factorisation failed: {exc}") from exc
        return Factor(lu, bump, self.A, basis.copy(), basis[slot_pos], slot_pos, rows_bump, S)

    def _eta_row(self, r: int) -> np.ndarray | None:
        """The eta file's column r times the inverse of its coupling
        matrix: what btran of e_r subtracts at the eta rows, and, divided by
        -w_r, the coupling row a pivot on slot r adds (None without etas)."""
        k = self.n_etas
        return self.eta_vecs[:k, r] @ self.eta_inv[:k, :k] if k else None

    def _push_eta(self, r: int, w: np.ndarray, u: np.ndarray | None = None) -> None:
        """Record the pivot that put w = B^-1 a_q into slot r; u is
        ``_eta_row(r)`` where the caller has it."""
        k = self.n_etas
        wr = float(w[r])
        self.eta_vecs[k] = w
        self.eta_vecs[k, r] = wr - 1.0
        self.eta_rows[k] = r
        if k:
            # -(u / w_r), bit for bit: IEEE division rounds the magnitude
            # alone
            np.divide(self._eta_row(r) if u is None else u, -wr, out=self.eta_inv[k, :k])
        self.eta_inv[k, k] = 1.0 / wr
        self.n_etas = k + 1
        if self.n_etas == REFACTOR_EVERY:
            self._refactor()

    def _nonbasic_values(self) -> np.ndarray:
        x = np.where(self.status == AT_LOWER, self.lower, 0.0)
        x = np.where(self.status == AT_UPPER, self.upper, x)
        x[self.basis] = 0.0
        return x

    def _ftran(self, col: np.ndarray) -> np.ndarray:
        """``B^-1 col`` by slot."""
        if self.lu is not None:
            w_struct = self.lu.solve(col[self.rows_bump])
            w = np.zeros(self.m)  # S @ w_struct on the covered rows, then col minus it
            csc_matvec(self.m, w_struct.size, *self.S, w_struct, w)
            np.subtract(col, w, out=w)
            w[self.rows_bump] = w_struct
        else:
            w = col.copy()
        k = self.n_etas
        if k:
            t = self.eta_inv[:k, :k] @ w[self.eta_rows[:k]]
            acting = np.count_nonzero(t)
            if acting == 1:
                # the dense product with one nonzero multiplier, bit for
                # bit: its sums start from +0.0, which turns a -0.0 term
                # into +0.0
                j = int(t.nonzero()[0][0])
                term = float(t[j]) * self.eta_vecs[j]
                term += 0.0
                w -= term
            elif acting:
                w -= t @ self.eta_vecs[:k]
        return w

    def _btran(self, cb: np.ndarray) -> np.ndarray:
        """``B^-T cb`` for cb by slot."""
        z = np.array(cb, dtype=float)
        k = self.n_etas
        return self._btran_etas(z, (self.eta_vecs[:k] @ z) @ self.eta_inv[:k, :k] if k else None)

    def _btran_unit(self, r: int, u: np.ndarray | None = None) -> np.ndarray:
        """``_btran(e_r)``, bit for bit: the eta file's product with e_r is
        its column r, so what it subtracts is ``_eta_row(r)``, which the
        caller may pass as u."""
        z = np.zeros(self.m)
        z[r] = 1.0
        return self._btran_etas(z, self._eta_row(r) if u is None else u)

    def _btran_etas(self, z: np.ndarray, u: np.ndarray | None) -> np.ndarray:
        """btran of z, where u is the eta file's product with z times the
        inverse of its coupling matrix (None without etas); works in z's
        storage."""
        if u is not None:
            np.subtract.at(z, self.eta_rows[:self.n_etas], u)
        if self.lu is not None:
            # a slack's dual is its slot's entry; the bump rows' follow.  S
            # reads only the covered rows, so its sums are those of the
            # whole columns with the bump rows' duals at zero, bit for bit
            st_y = np.zeros(self.rows_bump.size)  # S.T @ y: S's CSC arrays are S.T's CSR
            csr_matvec(st_y.size, self.m, *self.S, z, st_y)
            z[self.rows_bump] = self.lu.solve(z[self.rows_bump] - st_y, trans="T")
        return z

    def _times_A(self, y: np.ndarray) -> np.ndarray:
        """``AT @ y``, the kernel scipy's product calls, on AT's arrays."""
        out = np.zeros(self.n)
        csr_matvec(self.n, self.m, self.AT.indptr, self.AT.indices, self.AT.data, y, out)
        return out

    def tableau_rows(self, slots: np.ndarray) -> np.ndarray:
        """The rows of ``B^-1 A`` of the basic columns in ``slots``, over
        every column, from a fresh factorisation (no etas): one transposed
        solve with a column per row and one product with ``AT``.  Both treat
        each column as :meth:`_btran_unit` and :meth:`_times_A` treat their
        vector, so row k equals ``_times_A(_btran_unit(slots[k]))`` bit for
        bit."""
        k = slots.size
        y = np.zeros((self.m, k))  # the unit vectors e_r, one per column
        y[slots, np.arange(k)] = 1.0
        if self.lu is not None:
            st_y = np.zeros((self.rows_bump.size, k))
            csr_matvecs(st_y.shape[0], self.m, k, *self.S, y, st_y)
            y[self.rows_bump] = self.lu.solve(y[self.rows_bump] - st_y, trans="T")
        out = np.zeros((self.n, k))
        csr_matvecs(self.n, self.m, k, self.AT.indptr, self.AT.indices, self.AT.data, y, out)
        return out.T

    def _column(self, j: int) -> np.ndarray:
        start, end = self.A.indptr[j], self.A.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.A.indices[start:end]] = self.A.data[start:end]
        return col

    # -- pricing and ratio test ----------------------------------------------

    def _price(self, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = self._btran(cost[self.slot_col])
        d = cost - self._times_A(y)
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
        (t, leaving slot or None); None means the entering variable hits its
        opposite bound first (a bound flip), or that the step is unbounded
        when t is inf.
        """
        rows = np.flatnonzero(np.abs(w) > PIVOT_TOL)
        delta = sigma * w[rows]
        bound = np.where(delta > 0.0, self.lbB[rows], self.ubB[rows])
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
        cols = self.slot_col[rows[cand]]
        if bland:
            k = cand[int(np.argmin(cols))]
        else:
            # prefer the numerically largest pivot, then the smallest index
            k = cand[np.lexsort((cols, -np.abs(w[rows[cand]])))[0]]
        return float(lims[k]), int(rows[k])

    def _set_status(self, j: int, st: int) -> None:
        """Change a column's status and keep its pricing sign in step."""
        if self.free.size and self.status[j] == FREE:
            self.free = self.free[self.free != j]
        self.status[j] = st
        if self.movable[j] and st in (AT_LOWER, AT_UPPER):
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

    def _pivot(self, r: int, q: int, w: np.ndarray, step: float, leaving_status: int,
               u: np.ndarray | None = None) -> None:
        """Move column q by step, the basics by -step * w, and swap q into
        slot r (and its position in ``basis``), whose column leaves with the
        given status; u is ``_eta_row(r)`` where the caller has it."""
        self.xB -= step * w
        self._set_status(int(self.slot_col[r]), leaving_status)
        self.basis[self.slot_pos[r]] = self.slot_col[r] = q
        self.lbB[r], self.ubB[r] = self.lower[q], self.upper[q]
        self.xB[r] = self._value_of(q) + step
        self._set_status(q, BASIC)
        self._push_eta(r, w, u)

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
                ray[self.slot_col] = -sigma * w
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
        """The slot with the largest bound violation, the lowest position in
        ``basis`` among equals (the lowest column in Bland mode), and +1 if
        it leaves to its lower bound, -1 to its upper."""
        if not self.m:
            return None, 0.0
        viol = np.maximum(self.lbB - self.xB, self.xB - self.ubB)
        r = int(viol.argmax())
        if not viol[r] > FEASIBILITY_TOL:
            return None, 0.0
        if bland:
            rows = np.flatnonzero(viol > FEASIBILITY_TOL)
            r = int(rows[np.argmin(self.slot_col[rows])])
        elif self.m - 1 - int(viol[::-1].argmax()) != r:  # the last largest is another
            tied = (viol == viol[r]).nonzero()[0]
            r = int(tied[np.argmin(self.slot_pos[tied])])
        return r, 1.0 if self.lbB[r] > self.xB[r] else -1.0

    def _dual_ratio_test(self, d: np.ndarray, alpha: np.ndarray, toward: float,
                         bland: bool) -> int | None:
        """Entering column: the first reduced cost to reach zero as the
        leaving row's dual moves, where ``toward * alpha`` is the tableau
        row signed so that d_j + t * toward * alpha_j with t >= 0 is the
        move (toward is +1 or -1).

        None means no column limits the move: the program is infeasible.
        """
        ps = self.price_sign
        # toward * |alpha_j| where it lets d_j reach zero; multiplying by
        # toward = -1 flips signs exactly, so the comparison flips instead
        signed = ps * alpha
        if toward > 0:
            cand = (signed > PIVOT_TOL).nonzero()[0]
            size = signed[cand]
        else:
            cand = (signed < -PIVOT_TOL).nonzero()[0]
            size = -signed[cand]
        room = -d[cand] * ps[cand]  # |d_j| while column j is dual feasible
        if self.free.size:
            free = self.free[np.abs(alpha[self.free]) > PIVOT_TOL]
            cand = np.concatenate([cand, free])
            size = np.concatenate([size, np.abs(alpha[free])])
            room = np.concatenate([room, np.abs(d[free])])
        if not cand.size:
            return None
        ratios = np.maximum(room, 0.0, out=room)
        ratios /= size
        t = float(ratios[ratios.argmin()])
        tied = (ratios <= t + 1e-9 * (1.0 + t)).nonzero()[0]
        if tied.size == 1:
            return int(cand[tied[0]])
        if bland:
            return int(cand[tied].min())
        # prefer the numerically largest pivot, then the smallest index
        return int(cand[tied[np.lexsort((cand[tied], -size[tied]))[0]]])

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
            u = self._eta_row(r)  # shared by the btran and the pivot's eta
            rho = self._btran_unit(r, u)
            alpha = self._times_A(rho)  # row r of B^-1 A
            q = self._dual_ratio_test(d, alpha, toward, bland)
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
            wr, aq = float(w[r]), float(alpha[q])
            if abs(wr) <= PIVOT_TOL or abs(wr - aq) > 1e-9 * abs(aq):
                if not self.n_etas:
                    raise SolverError(f"pivot element of row {r} and column {q} is "
                                      f"{aq!r} in the tableau row but {wr!r} in "
                                      "the column on a fresh factorisation")
                self._refactor()
                _, d = self._price(cost)
                continue
            self.iterations += 1

            dq = float(d[q])
            theta = dq / aq
            if dq != 0.0:  # a dual-degenerate pivot moves no reduced cost
                d -= theta * alpha
            # the entering column moves until the leaving one sits at its bound
            if toward > 0:
                self._pivot(r, q, w, (float(self.xB[r]) - float(self.lbB[r])) / wr, AT_LOWER, u)
            else:
                self._pivot(r, q, w, (float(self.xB[r]) - float(self.ubB[r])) / wr, AT_UPPER, u)
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
        # optimality was declared from a fresh factorisation of this basis,
        # which a start from it installs
        return self._solution(status, duals=y * self.scale,
                              reduced_costs=d[:self.n_struct] * self.scale,
                              basis=BasisState(self.basis.copy(), self.status.copy(), self.factor))

    def _solution(self, status: Status, phase: int = 2, **fields) -> Solution:
        """The solve's result over the structural columns; an infeasible or
        unbounded LP reports the objective +inf or -inf, and only an
        iteration limit leaves the bound open."""
        x = self._nonbasic_values()
        x[self.slot_col] = self.xB
        x += 0.0  # a basic value of -0.0 is reported as 0.0
        if status == Status.INFEASIBLE:
            objective = math.inf
        elif status == Status.UNBOUNDED:
            objective = -math.inf
        else:
            objective = float(self.cost_orig @ x)
        bound = -math.inf if status == Status.ITERATION_LIMIT else objective
        return Solution(status=status, values=x[:self.n_struct], objective=objective,
                        bound=bound, iterations=self.iterations,
                        message=f"simplex finished in phase {phase}", **fields)
