"""Multi-objective 0-1 integer linear programming by adaptive branch and bound."""

from .bounds import (IncumbentList, LocalUpperBoundSet, LowerBoundSet,
                     local_ideal)
from .instances import GeneratorSpec, generate, read_instance, write_instance
from .model import (Dominance, Instance, Solution, compare,
                    enumerate_nondominated, evaluate, ideal_and_nadir,
                    is_feasible)
from .solver import SolverConfig, SolveStats, solve

__all__ = [
    "Dominance", "GeneratorSpec", "IncumbentList", "Instance",
    "LocalUpperBoundSet", "LowerBoundSet", "Solution", "SolverConfig",
    "SolveStats", "compare", "enumerate_nondominated", "evaluate", "generate",
    "ideal_and_nadir", "is_feasible", "local_ideal", "read_instance", "solve",
    "write_instance",
]
