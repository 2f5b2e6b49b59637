"""Built-in exact solver: bounded-variable dual simplex with a primal
clean-up, plus best-bound branch and bound.  The entry points take any object shaped like
:class:`enopt.formulate.LinearProgram`, so an adapter around an external
solver can slot in behind the same interface."""

from .branch_bound import solve, solve_milp
from .certificate import CertificateReport, check_certificate
from .core import Solution, SolverConfig, SolverError, Status
from .lp import solve_lp

__all__ = [
    "Status",
    "SolverConfig",
    "Solution",
    "SolverError",
    "solve",
    "solve_lp",
    "solve_milp",
    "check_certificate",
    "CertificateReport",
]
