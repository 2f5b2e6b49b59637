"""Branch and bound over the integer variables of a compiled program.

The root relaxation is a cold solve, a dual simplex from the crashed slack
basis (see :mod:`enopt.solver.simplex`).
While it is fractional, up to ``CUT_ROUNDS`` rounds of Gomory mixed-integer
(GMI) cuts (Gomory 1960; Balas, Ceria, Cornuéjols & Natraj 1996) tighten it
before any branching.  Each round reads, from the root's optimal basis and
the factorisation it carries, the tableau row of every basic integer column
whose value is at least ``MIN_FRACTION`` from an integer, ``CUT_BLOCK``
rows per transposed solve.  Written in ``x'_j >= 0``, the distance
of nonbasic column j from the bound it sits at (``u_j - x_j`` at an upper
bound), the row is ``x_k + sum_j a_j x'_j = b`` with fractional part
``f0`` of ``b``, and gives the cut ``sum_j pi_j x'_j >= 1``:

* an integer column at an integral bound, with ``f_j`` the fractional part
  of ``a_j``: ``pi_j = f_j / f0`` if ``f_j <= f0``, else
  ``(1 - f_j) / (1 - f0)``;
* any other column: ``pi_j = a_j / f0`` if ``a_j > 0``, else
  ``-a_j / (1 - f0)``.

Why a cut is valid: at any point whose integer columns are integral,
``x_k`` and every integer ``x'_j`` are integers, so taking the integer
parts of their coefficients out of the row (``f_j`` or ``f_j - 1``) leaves
``f0`` plus an integer ``z``.  If ``z >= 0``, the nonnegative terms of the
row reach ``f0``, and the terms with ``pi_j = f_j / f0`` or ``a_j / f0``
reach 1; if ``z <= -1``, the negative ones reach ``f0 - 1``, and the terms
with ``pi_j = (1 - f_j) / (1 - f0)`` or ``-a_j / (1 - f0)`` reach 1.  Every
``pi_j`` is nonnegative, so the cut holds either way, while the root vertex,
where every ``x'_j`` is 0, violates it.

Fixed columns drop out (their ``x'_j`` is always 0); a row with an entry on
a nonbasic free column gives no cut; each slack is replaced by
``b_i - A_i x``, so a cut is a row ``g x >= h`` over the structural
columns.  Terms below ``DROP_SHARE`` of the cut's largest are dropped and
``h`` is lowered by their largest value within the bounds, which keeps the
cut valid.  A cut is not added when a dropped term is unbounded above
within the bounds, or when its largest and smallest terms differ by more
than ``MAX_DYNAMISM``; every other ``h`` is lowered by ``RELAX_SHARE`` of
its size.  The cut rows are
appended to the solver's standard form only (the slack of cut c is column
``n_struct + m + c``); the program, its fingerprint and its LP text do not
change.  A cut re-solve starts from the previous basis with the new
slacks basic, and a round whose re-solve is not optimal is discarded.

Branch and bound then runs on the cut standard form.  Node selection is
best-bound (a node's key is its parent's LP objective), ties broken by
creation order; branching picks the most fractional integer variable, ties
broken by lowest variable index.  Both rules are deterministic, so
identical inputs explore identical trees.  Each heap entry carries its
parent's optimal basis next to its bound overrides, and the node LP is
re-optimised from that basis by the same dual simplex.  The basis carries
the factorisation its solve declared optimality from
(:class:`~enopt.solver.core.BasisState`), so the two children of a node,
each cut re-solve, each cut round and the polish start without
factorising: the simplex reuses a factorisation only for bump arrays
equal bit for bit to those it factorised, so every result is the one a
fresh factorisation gives.  A warm-started
node LP can end at a different alternative optimum than a cold solve
would, so trees and node counts may differ from versions that solved every
node cold, while staying bit-reproducible within a version.

The final incumbent's integers are fixed and the program's own standard
form is solved from the root's basis before the cuts (the polish), so the
reported point is a vertex of the program itself; when no node is left
open, the polished objective is also the reported bound.  The completion
dive after a node limit is the same fixed-integer solve, at the rounded
root relaxation.  A search stopped by the node limit is ``optimal`` when the
final gap, against the open nodes' smallest key, is within ``mip_gap``, and
``gap_limit`` otherwise.  A node LP stopped by the iteration limit stops
the search; its node stays open and its key, outside the gap when it was
popped, bounds the result, which therefore ends ``gap_limit``.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from .core import INTEGRALITY_TOL, BasisState, Solution, SolverConfig, Status, relative_gap
from . import lp
from .lp import solve_standard_lp
from .simplex import AT_UPPER, BASIC, FREE, BoundedSimplex
from .standard import StandardForm, compressed, standardize

__all__ = ["solve_milp", "solve"]

log = logging.getLogger(__name__)

# rounds of Gomory mixed-integer cuts at a fractional root
CUT_ROUNDS = 5
# a source row's value must lie this far from the nearest integer
MIN_FRACTION = 0.01
# terms below this share of a cut's largest are dropped
DROP_SHARE = 1e-9
# largest ratio between a cut's largest and smallest term
MAX_DYNAMISM = 1e6
# every cut's right-hand side is lowered by this share of its size
RELAX_SHARE = 1e-9
# source rows whose cuts are built together: one transposed solve takes a
# column per row, and the dense work arrays hold this many rows of the
# tableau (at 128 they set the 720-step tile's peak memory)
CUT_BLOCK = 32


def _apply_overrides(std, overrides: dict):
    lower = std.lower.copy()
    upper = std.upper.copy()
    for j, (lo, hi) in overrides.items():
        lower[j] = lo
        upper[j] = hi
    return lower, upper


def _fractionality(x: np.ndarray, int_idx: np.ndarray) -> np.ndarray:
    vals = x[int_idx]
    return np.abs(vals - np.round(vals))


def _gmi_cuts(std: StandardForm, state: BasisState) -> tuple[sp.csr_matrix, np.ndarray]:
    """The Gomory mixed-integer cuts ``G x >= h`` over the structural
    columns from the optimal basis ``state`` of ``std`` (see the module
    docstring), built ``CUT_BLOCK`` source rows at a time."""
    sim = BoundedSimplex(std, std.lower, std.upper, start=state)
    ns, lower, upper, status = std.n_struct, std.lower, std.upper, state.status
    is_int = np.zeros(status.size, dtype=bool)
    is_int[std.integer_idx] = True
    # source rows by slot: the structural basic columns hold their slots in
    # the order of their positions in the basis, so the cuts come out in
    # that order
    frac = sim.xB - np.floor(sim.xB)
    rows = np.flatnonzero(is_int[sim.slot_col] & (frac >= MIN_FRACTION)
                          & (frac <= 1.0 - MIN_FRACTION))
    # the columns a cut reads: nonbasic at a bound, not fixed
    cols = np.flatnonzero((status != BASIC) & (status != FREE) & (upper > lower))
    flip = status[cols] == AT_UPPER  # complemented: x' = u - x
    at = np.where(flip, upper[cols], lower[cols])  # the bound each sits at
    ints = is_int[cols] & (at == np.round(at))  # x' integral with x
    struct = cols < ns
    # the kept cuts as the arrays of their CSR matrix (entries per row, then
    # columns and values in row-major order), and their right-hand sides
    row_nnz, cut_cols = [np.zeros(1, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    cut_vals, rhs = [np.zeros(0)], [np.zeros(0)]
    for start in range(0, rows.size, CUT_BLOCK):
        block = rows[start:start + CUT_BLOCK]
        f0 = frac[block, None]
        tableau = sim.tableau_rows(block)  # rows of B^-1 A
        keep = ~(tableau[:, status == FREE] != 0.0).any(axis=1)
        a = tableau[:, cols]
        a[:, flip] *= -1.0
        pi = np.where(a > 0.0, a / f0, -a / (1.0 - f0))
        fj = a[:, ints] - np.floor(a[:, ints])
        pi[:, ints] = np.where(fj <= f0, fj / f0, (1.0 - fj) / (1.0 - f0))
        # pi x' >= 1 in x: g x >= 1 + g at
        g = np.where(flip, -pi, pi)
        h = 1.0 + g @ at
        # each slack is b_i - A_i x: one product with the transpose the solves share
        G = np.zeros((block.size, ns))
        G[:, cols[struct]] = g[:, struct]
        g_slack = np.zeros((block.size, std.num_rows))
        g_slack[:, cols[~struct] - ns] = g[:, ~struct]
        G -= (std.AT @ g_slack.T)[:ns].T
        h -= g_slack @ std.b

        size = np.abs(G)
        largest = size.max(axis=1)
        drop = (size < DROP_SHARE * largest[:, None]) & (G != 0.0)
        r_drop, j_drop = np.nonzero(drop)
        gd = G[r_drop, j_drop]  # nonzero, so no 0 * inf below
        worst = np.maximum(gd * lower[j_drop], gd * upper[j_drop])
        h -= np.bincount(r_drop, weights=worst, minlength=h.size)
        G[drop] = 0.0
        smallest = np.where(G != 0.0, size, np.inf).min(axis=1)
        keep &= np.isfinite(h) & (largest > 0.0) & (largest <= MAX_DYNAMISM * smallest)
        G = G[keep]
        nonzero = G != 0.0
        row_nnz.append(nonzero.sum(axis=1))
        cut_cols.append(np.nonzero(nonzero)[1])
        cut_vals.append(G[nonzero])
        rhs.append(h[keep] - RELAX_SHARE * np.maximum(1.0, np.abs(h[keep])))
    h = np.concatenate(rhs)
    idx = std.A.indices.dtype
    return compressed(sp.csr_matrix, np.concatenate(cut_vals),
                      np.concatenate(cut_cols).astype(idx),
                      np.cumsum(np.concatenate(row_nnz)).astype(idx), (h.size, ns)), h


def _with_cuts(std: StandardForm, G: sp.csr_matrix, h: np.ndarray) -> StandardForm:
    """``std`` with the rows ``G x >= h`` appended; the slack of cut c is
    column ``n_struct + m + c`` and lies in (-inf, 0], the slack of a
    ``>=`` row."""
    A, m, c = std.A, std.num_rows, h.size
    n = A.shape[1]
    cut_row = np.repeat(np.arange(c), np.diff(G.indptr))  # G's entries by row, then column
    # every column keeps its entries and gains its cut entries below them
    # (a stable sort by column keeps both in row order)
    col = np.concatenate([np.repeat(np.arange(n), np.diff(A.indptr)), G.indices, n + np.arange(c)])
    order = np.argsort(col, kind="stable")
    rows = np.concatenate([A.indices, m + cut_row, m + np.arange(c)])[order]
    data = np.concatenate([A.data, G.data, np.ones(c)])[order]
    indptr = np.zeros(n + c + 1, dtype=A.indptr.dtype)
    np.cumsum(np.bincount(col, minlength=n + c), out=indptr[1:])
    return StandardForm(compressed(sp.csc_matrix, data, rows.astype(A.indices.dtype), indptr,
                                   (m + c, n + c)),
                        np.concatenate([std.b, h]),
                        np.concatenate([std.lower, np.full(c, -np.inf)]),
                        np.concatenate([std.upper, np.zeros(c)]),
                        np.concatenate([std.cost, np.zeros(c)]), std.n_struct, std.integer_idx)


def _extended(state: BasisState, rows: int) -> BasisState:
    """The start ``state`` for its standard form with ``rows`` rows
    appended: their slacks join the basis.  Those slacks cover the new
    rows, so the bump, and the factorisation ``state`` carries, stay."""
    slacks = state.status.size + np.arange(rows)
    return BasisState(np.concatenate([state.basis, slacks]),
                      np.concatenate([state.status, np.full(rows, BASIC, dtype=np.int8)]),
                      state.factor)


def solve_milp(prog, config: SolverConfig | None = None) -> Solution:
    """Exact MILP solve; needs at least one integer-flagged variable."""
    cfg = config or SolverConfig()
    std = standardize(prog)
    int_idx = std.integer_idx
    if int_idx.size == 0:
        raise ValueError("program has no integer variables; use solve_lp")

    root = solve_standard_lp(std, cfg)
    nodes_explored = 1
    iterations = root.iterations
    if root.status != Status.OPTIMAL:
        return replace(root, nodes=nodes_explored, duals=None, reduced_costs=None)

    def integral(out: Solution) -> bool:
        return bool(np.all(_fractionality(out.values, int_idx) <= INTEGRALITY_TOL))

    def fixed_integers(values: np.ndarray) -> Solution:
        """The program's own LP with every integer fixed at ``values``
        rounded, solved from the root's basis before the cuts."""
        nonlocal iterations
        lower, upper = std.lower.copy(), std.upper.copy()
        lower[int_idx] = upper[int_idx] = np.clip(np.round(values[int_idx]),
                                                  std.lower[int_idx], std.upper[int_idx])
        out = solve_standard_lp(std, cfg, lower, upper, start=root.basis)
        iterations += out.iterations
        return out

    # Gomory mixed-integer cut rounds: cut is the standard form branch and
    # bound runs on, relaxed its optimal root
    cut, relaxed, rounds = std, root, 0
    while rounds < CUT_ROUNDS and not integral(relaxed):
        G, h = _gmi_cuts(cut, relaxed.basis)
        if not h.size:
            break
        grown = _with_cuts(cut, G, h)
        out = solve_standard_lp(grown, cfg, start=_extended(relaxed.basis, h.size))
        iterations += out.iterations
        if out.status != Status.OPTIMAL:
            break
        cut, relaxed, rounds = grown, out, rounds + 1
    log.info("root bound %.10g before cuts, %.10g after %d cuts in %d rounds",
             root.objective, relaxed.objective, cut.num_rows - std.num_rows, rounds)

    incumbent: np.ndarray | None = None  # the best integral point's values
    incumbent_obj = cutoff = math.inf
    counter = 0
    # (bound, creation order, bound overrides, the parent's optimal basis)
    heap: list[tuple[float, int, dict, BasisState]] = []

    def push(bound: float, overrides: dict, state: BasisState) -> None:
        nonlocal counter
        counter += 1
        heapq.heappush(heap, (bound, counter, overrides, state))

    def frontier_bound() -> float:
        return heap[0][0] if heap else incumbent_obj

    def branch(out: Solution, overrides: dict) -> None:
        frac = _fractionality(out.values, int_idx)
        cand = np.flatnonzero(frac > INTEGRALITY_TOL)
        # most fractional: fractional part closest to one half, lowest index first
        dist = np.abs(frac[cand] - 0.5)
        j = int(int_idx[cand[int(np.lexsort((cand, dist))[0])]])
        xj = out.values[j]
        plo, phi = overrides.get(j, (cut.lower[j], cut.upper[j]))
        down = math.floor(xj + INTEGRALITY_TOL)
        up = math.ceil(xj - INTEGRALITY_TOL)
        if down >= plo - 1e-12:
            push(out.objective, {**overrides, j: (plo, float(down))}, out.basis)
        if up <= phi + 1e-12:
            push(out.objective, {**overrides, j: (float(up), phi)}, out.basis)

    def accept(out: Solution) -> None:
        """Make an integral point the incumbent and set the pruning cutoff."""
        nonlocal incumbent, incumbent_obj, cutoff
        incumbent = out.values
        incumbent_obj = out.objective
        cutoff = incumbent_obj - 1e-9 * max(1.0, abs(incumbent_obj))

    # root handling
    if integral(relaxed):
        accept(relaxed)
    else:
        branch(relaxed, {})

    status = Status.OPTIMAL  # or GAP_LIMIT once stopped early, by the limit named
    limit = ""
    while heap:
        if nodes_explored >= cfg.max_nodes:
            status, limit = Status.GAP_LIMIT, "node limit"
            break
        if incumbent is not None and relative_gap(incumbent_obj, frontier_bound()) <= cfg.mip_gap:
            break
        bound_est, _, overrides, state = heapq.heappop(heap)
        if bound_est >= cutoff:
            continue
        lower, upper = _apply_overrides(cut, overrides)
        out = solve_standard_lp(cut, cfg, lower, upper, start=state)
        nodes_explored += 1
        iterations += out.iterations
        if out.status == Status.INFEASIBLE:
            continue
        if out.status == Status.UNBOUNDED:
            # a subproblem ray is feasible for the root as well
            return replace(out, nodes=nodes_explored, duals=None, reduced_costs=None)
        if out.status == Status.ITERATION_LIMIT:
            # the node stays open: its key bounds the leaves it was to cover
            push(bound_est, overrides, state)
            status, limit = Status.GAP_LIMIT, "node LP iteration limit"
            break
        if out.objective >= cutoff:
            continue
        if integral(out):
            accept(out)
        else:
            branch(out, overrides)

    if incumbent is None and status == Status.GAP_LIMIT:
        # completion dive: fix every integer to the rounded root relaxation
        out = fixed_integers(relaxed.values)
        if out.status == Status.OPTIMAL:
            incumbent = out.values
    elif incumbent is not None and cut is not std:
        # polish: the incumbent's integers on the program's own rows
        out = fixed_integers(incumbent)
        if out.status == Status.OPTIMAL:
            incumbent = out.values

    if incumbent is None:
        if status == Status.GAP_LIMIT:
            return Solution(status=Status.GAP_LIMIT, values=np.zeros(prog.num_vars),
                            objective=math.inf, bound=frontier_bound(), gap=math.inf,
                            iterations=iterations, nodes=nodes_explored, integral=False,
                            message=f"{limit} reached before any incumbent")
        return Solution(status=Status.INFEASIBLE, values=np.zeros(prog.num_vars),
                        objective=math.inf, bound=math.inf, gap=0.0,
                        iterations=iterations, nodes=nodes_explored, integral=False,
                        message="all branches fathomed without a feasible point")

    # snap integer values exactly (in place: the array came from its node's
    # solve alone) and let the reported objective match the reported point;
    # no open node bounds above it, and with none left it is the bound
    incumbent[int_idx] = np.round(incumbent[int_idx]) + 0.0  # also clears -0.0
    incumbent_obj = float(prog.objective @ incumbent)
    bound = min(frontier_bound(), incumbent_obj)
    gap = relative_gap(incumbent_obj, bound)
    # the open nodes bound every leaf not explored, so a stop at the node
    # limit within the gap is an optimum; a stop at a node LP's iteration
    # limit never is, as that node's key was outside the gap when it was
    # popped
    status = Status.GAP_LIMIT if gap > cfg.mip_gap else Status.OPTIMAL
    return Solution(status=status, values=incumbent, objective=incumbent_obj,
                    bound=bound, gap=gap, iterations=iterations, nodes=nodes_explored,
                    integral=True, message=f"branch and bound explored {nodes_explored} nodes")


def solve(prog, config: SolverConfig | None = None) -> Solution:
    """Dispatch on integrality: MILP when any variable is integer-flagged."""
    if prog.is_integer.any():
        return solve_milp(prog, config)
    return lp.solve_lp(prog, config)  # looked up per call, so a wrapper on it is seen
