"""Conversion of a program into equality standard form with bounded slacks.

Each row gains one slack column with coefficient +1; the row sense moves
into the slack's bounds (<= gives slack in [0, inf), >= in (-inf, 0] and
equality pins it to 0).  Variables keep their own bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = ["LE", "EQ", "GE", "StandardForm", "standardize"]

# the row senses of every program the solver reads
LE, EQ, GE = "<=", "=", ">="


@dataclass
class StandardForm:
    A: sp.csc_matrix  # (m, n_struct + m)
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    cost: np.ndarray
    n_struct: int
    integer_idx: np.ndarray  # structural indices flagged integer

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @cached_property
    def AT(self) -> sp.csr_matrix:
        """A's transpose, a CSR view of A's arrays, made on the first solve
        and shared by every solve of this standard form."""
        return self.A.T


def standardize(prog) -> StandardForm:
    """The standard form of a finalized
    :class:`~enopt.formulate.LinearProgram`, whose arrays it reads as they
    are."""
    m, sense = prog.num_rows, prog.sense
    if not np.isin(sense, (LE, EQ, GE)).all():
        raise ValueError(f"unknown row senses {set(sense.tolist()) - {LE, EQ, GE}}")
    A = sp.hstack([prog.A, sp.identity(m, format="csr")], format="csc")
    slack_lo = np.where(sense == GE, -np.inf, 0.0)
    slack_hi = np.where(sense == LE, np.inf, 0.0)
    lower = np.concatenate([prog.lower, slack_lo])
    upper = np.concatenate([prog.upper, slack_hi])
    cost = np.concatenate([prog.objective, np.zeros(m)])
    return StandardForm(A, prog.rhs.copy(), lower, upper, cost, prog.num_vars,
                        np.flatnonzero(prog.is_integer))
