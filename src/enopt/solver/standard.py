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
# the kernel behind scipy's CSR to CSC conversion, called on raw arrays
from scipy.sparse._sparsetools import csr_tocsc

__all__ = ["LE", "EQ", "GE", "StandardForm", "standardize", "compressed"]

# the row senses of every program the solver reads
LE, EQ, GE = "<=", "=", ">="


def compressed(kind, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
               shape: tuple[int, int]):
    """The ``kind`` matrix (``sp.csr_matrix`` or ``sp.csc_matrix``) over the
    arrays as they are, with the attributes scipy's constructor sets.  It
    skips that constructor's index dtype pass, which may copy the indices,
    and its format check; ``indices`` and ``indptr`` must share an index
    dtype, and the caller vouches for the rest of the format."""
    out = kind.__new__(kind)
    out._shape, out.maxprint = (int(shape[0]), int(shape[1])), 50  # scipy's default maxprint
    out.data, out.indices, out.indptr = data, indices, indptr
    return out


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
        A = self.A
        return compressed(sp.csr_matrix, A.data, A.indices, A.indptr, A.shape[::-1])


def standardize(prog) -> StandardForm:
    """The standard form of a finalized
    :class:`~enopt.formulate.LinearProgram`, whose arrays it reads as they
    are."""
    m, sense = prog.num_rows, prog.sense
    # three comparisons of the object array: np.isin sorts it
    le, ge = sense == LE, sense == GE
    if not (le | ge | (sense == EQ)).all():
        raise ValueError(f"unknown row senses {set(sense.tolist()) - {LE, EQ, GE}}")
    # [A | I] written into its CSC arrays: A's columns by csr_tocsc, which
    # lists each column's rows in order, then the slack columns; summed
    # duplicates included, the arrays sp.hstack([A, I], format="csc")
    # builds through COO, bit for bit
    n, nnz, idx = prog.num_vars, prog.A.nnz, prog.A.indices.dtype
    indptr = np.empty(n + m + 1, dtype=idx)
    indices = np.empty(nnz + m, dtype=idx)
    data = np.empty(nnz + m)
    csr_tocsc(m, n, prog.A.indptr.astype(idx, copy=False), prog.A.indices, prog.A.data,
              indptr[:n + 1], indices[:nnz], data[:nnz])
    indptr[n + 1:] = nnz + np.arange(1, m + 1)
    indices[nnz:] = np.arange(m)
    data[nnz:] = 1.0
    A = sp.csc_matrix((data, indices, indptr), shape=(m, n + m))
    A.sum_duplicates()
    slack_lo = np.where(ge, -np.inf, 0.0)
    slack_hi = np.where(le, np.inf, 0.0)
    lower = np.concatenate([prog.lower, slack_lo])
    upper = np.concatenate([prog.upper, slack_hi])
    cost = np.concatenate([prog.objective, np.zeros(m)])
    return StandardForm(A, prog.rhs.copy(), lower, upper, cost, prog.num_vars,
                        np.flatnonzero(prog.is_integer))
