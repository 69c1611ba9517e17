"""Multi-objective 0-1 integer linear programming by adaptive branch and bound."""

from .instances import GeneratorSpec, generate, read_instance, write_instance
from .model import (Dominance, Instance, Solution, compare,
                    enumerate_nondominated, evaluate, is_feasible)
from .solver import SolverConfig, SolveStats, solve

__all__ = [
    "Dominance", "GeneratorSpec", "Instance", "Solution", "SolverConfig",
    "SolveStats", "compare", "enumerate_nondominated", "evaluate", "generate",
    "is_feasible", "read_instance", "solve", "write_instance",
]
