"""Outside yardstick: scipy's HiGHS on enopt's own standardized program.

``standardize`` turns every row into ``a.x + s = b`` with the row's sense
held in the slack's bounds ``s_lo <= s <= s_hi`` (``<=`` gives s >= 0, ``>=``
gives s <= 0, ``=`` pins s to 0).  Eliminating the slack gives the row range
``b - s_hi <= a.x <= b - s_lo``, which is what HiGHS receives.
"""

from __future__ import annotations

import math
import time

import numpy as np


def highs_solve(std) -> tuple[str, float, float]:
    """Solve a ``StandardForm`` with HiGHS; returns (status, objective, seconds).

    Status is one of optimal, infeasible, unbounded or error."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = std.n_struct
    integrality = np.zeros(n)
    integrality[std.integer_idx] = 1
    constraints = []
    if std.num_rows:
        slack_lo, slack_hi = std.lower[n:], std.upper[n:]
        constraints.append(LinearConstraint(std.A[:, :n], std.b - slack_hi, std.b - slack_lo))
    start = time.perf_counter()
    res = milp(std.cost[:n], integrality=integrality, constraints=constraints,
               bounds=Bounds(std.lower[:n], std.upper[:n]),
               options={"mip_rel_gap": 1e-9})
    seconds = time.perf_counter() - start
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    objective = float(res.fun) if status == "optimal" else math.nan
    return status, objective, seconds


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))
