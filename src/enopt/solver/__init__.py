"""Built-in exact solver: bounded-variable dual simplex with a primal
clean-up, plus best-bound branch and bound.

Every result, from one simplex solve up to a whole MILP, is a
:class:`Solution`; an optimal LP's also carries its optimal
:class:`BasisState`, which a warm start reads.  The entry points take a
finalized :class:`enopt.formulate.LinearProgram` and read its arrays."""

from .branch_bound import solve, solve_milp
from .certificate import CertificateReport, check_certificate
from .core import BasisState, Solution, SolverConfig, SolverError, Status
from .lp import solve_lp

__all__ = [
    "Status",
    "SolverConfig",
    "Solution",
    "BasisState",
    "SolverError",
    "solve",
    "solve_lp",
    "solve_milp",
    "check_certificate",
    "CertificateReport",
]
