"""Multi-objective 0-1 integer linear programming by adaptive branch and bound."""

from .bounds import (IncumbentList, LocalUpperBoundSet, LowerBoundSet,
                     hv_box_gap, hv_simplex_gap, is_strictly_above,
                     local_ideal, spanning_points)
from .instances import GeneratorSpec, generate, read_instance, write_instance
from .model import (Dominance, Instance, Solution, compare,
                    enumerate_nondominated, evaluate, ideal_and_nadir,
                    is_feasible)
from .solver import SolverConfig, SolveStats, solve

__all__ = [
    "Dominance", "GeneratorSpec", "IncumbentList", "Instance",
    "LocalUpperBoundSet", "LowerBoundSet", "Solution", "SolverConfig",
    "SolveStats", "compare", "enumerate_nondominated", "evaluate", "generate",
    "hv_box_gap", "hv_simplex_gap", "ideal_and_nadir", "is_feasible",
    "is_strictly_above", "local_ideal", "read_instance", "solve",
    "spanning_points", "write_instance",
]
