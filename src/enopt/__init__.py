"""enopt: energy-system optimisation with a built-in exact LP/MILP solver."""

from . import analyze, finance, formulate, model, scenario, solver
from .formulate import LinearProgram, VarKind, VarRef, Family, compile_system, write_lp
from .model import EnergySystem, validate_system, system_dimensions
from .solver import Solution, SolverConfig, Status, solve, solve_lp, solve_milp

__version__ = "0.1.0"

__all__ = [
    "analyze",
    "finance",
    "formulate",
    "model",
    "scenario",
    "solver",
    "LinearProgram",
    "VarKind",
    "VarRef",
    "Family",
    "compile_system",
    "write_lp",
    "EnergySystem",
    "validate_system",
    "system_dimensions",
    "Solution",
    "SolverConfig",
    "Status",
    "solve",
    "solve_lp",
    "solve_milp",
]
