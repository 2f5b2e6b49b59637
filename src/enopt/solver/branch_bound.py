"""Branch and bound over the integer variables of a compiled program.

Node selection is best-bound (a node's key is its parent's LP objective),
ties broken by creation order; branching picks the most fractional integer
variable, ties broken by lowest variable index.  Both rules are
deterministic, so identical inputs explore identical trees.

The root relaxation is a cold solve, a dual simplex from the slack basis.
Each heap entry carries its parent's optimal basis next to its bound
overrides, and the node LP is re-optimised from that basis by the same dual
simplex; the completion dive starts from the root's basis.  A warm-started
node LP can end at a different alternative optimum than a cold solve would,
so trees and node counts may differ from versions that solved every node
cold, while staying bit-reproducible within a version.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

import numpy as np

from .core import BasisState, Solution, SolverConfig, Status, relative_gap
from . import lp
from .lp import solve_standard_lp
from .standard import standardize

__all__ = ["solve_milp", "solve"]


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

    incumbent: np.ndarray | None = None  # the best integral point's values
    incumbent_obj = math.inf
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
        cand = np.flatnonzero(frac > cfg.integrality_tol)
        # most fractional: fractional part closest to one half, lowest index first
        dist = np.abs(frac[cand] - 0.5)
        j = int(int_idx[cand[int(np.lexsort((cand, dist))[0])]])
        xj = out.values[j]
        plo, phi = overrides.get(j, (std.lower[j], std.upper[j]))
        down = math.floor(xj + cfg.integrality_tol)
        up = math.ceil(xj - cfg.integrality_tol)
        if down >= plo - 1e-12:
            push(out.objective, {**overrides, j: (plo, float(down))}, out.basis)
        if up <= phi + 1e-12:
            push(out.objective, {**overrides, j: (float(up), phi)}, out.basis)

    # root handling
    if np.all(_fractionality(root.values, int_idx) <= cfg.integrality_tol):
        incumbent = root.values
        incumbent_obj = root.objective
    else:
        branch(root, {})

    status = Status.OPTIMAL
    while heap:
        if nodes_explored >= cfg.max_nodes:
            status = Status.GAP_LIMIT
            break
        if incumbent is not None and relative_gap(incumbent_obj, frontier_bound()) <= cfg.mip_gap:
            break
        bound_est, _, overrides, state = heapq.heappop(heap)
        if incumbent is not None and bound_est >= incumbent_obj - 1e-9 * max(
                1.0, abs(incumbent_obj)):
            continue
        lower, upper = _apply_overrides(std, overrides)
        out = solve_standard_lp(std, cfg, lower, upper, start=state)
        nodes_explored += 1
        iterations += out.iterations
        if out.status == Status.INFEASIBLE:
            continue
        if out.status == Status.UNBOUNDED:
            # a subproblem ray is feasible for the root as well
            return replace(out, nodes=nodes_explored, duals=None, reduced_costs=None)
        if out.status == Status.ITERATION_LIMIT:
            status = Status.GAP_LIMIT
            break
        if incumbent is not None and out.objective >= incumbent_obj - 1e-9 * max(
                1.0, abs(incumbent_obj)):
            continue
        if np.all(_fractionality(out.values, int_idx) <= cfg.integrality_tol):
            incumbent = out.values
            incumbent_obj = out.objective
        else:
            branch(out, overrides)

    if incumbent is None and status == Status.GAP_LIMIT:
        # completion dive: fix every integer to the rounded root relaxation
        overrides = {}
        for j in int_idx:
            r = float(np.round(root.values[j]))
            r = min(max(r, std.lower[j]), std.upper[j])
            overrides[int(j)] = (r, r)
        lower, upper = _apply_overrides(std, overrides)
        out = solve_standard_lp(std, cfg, lower, upper, start=root.basis)
        iterations += out.iterations
        if out.status == Status.OPTIMAL:
            incumbent = out.values
            incumbent_obj = out.objective

    bound = frontier_bound() if heap else incumbent_obj
    if incumbent is None:
        if status == Status.GAP_LIMIT:
            return Solution(status=Status.GAP_LIMIT, values=np.zeros(prog.num_vars),
                            objective=math.inf, bound=bound, gap=math.inf,
                            iterations=iterations, nodes=nodes_explored, integral=False,
                            message="node limit reached before any incumbent")
        return Solution(status=Status.INFEASIBLE, values=np.zeros(prog.num_vars),
                        objective=math.inf, bound=math.inf, gap=0.0,
                        iterations=iterations, nodes=nodes_explored, integral=False,
                        message="all branches fathomed without a feasible point")

    # snap integer values exactly (in place: the array came from its node's
    # solve alone) and let the reported objective match the reported point
    incumbent[int_idx] = np.round(incumbent[int_idx]) + 0.0  # also clears -0.0
    incumbent_obj = float(prog.objective @ incumbent)
    gap = relative_gap(incumbent_obj, bound)
    if status == Status.OPTIMAL and gap > cfg.mip_gap:
        status = Status.GAP_LIMIT
    return Solution(status=status, values=incumbent, objective=incumbent_obj,
                    bound=bound, gap=gap, iterations=iterations, nodes=nodes_explored,
                    integral=True, message=f"branch and bound explored {nodes_explored} nodes")


def solve(prog, config: SolverConfig | None = None) -> Solution:
    """Dispatch on integrality: MILP when any variable is integer-flagged."""
    if prog.is_integer.any():
        return solve_milp(prog, config)
    return lp.solve_lp(prog, config)  # looked up per call, so a wrapper on it is seen
