"""Single-objective 0-1 branch and bound for weighted-sum and e-constraint scalarizations.

Best-bound search with LP relaxation bounds. When a deadline or a node limit
stops the search, the incumbent (if any) is returned together with the best
proven global bound, so callers can degrade gracefully instead of failing.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .lp import INFEASIBLE, OPTIMAL, RelaxedSubproblem, solve_lp
from .model import Instance

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE_TIMEOUT = "feasible_timeout"
STATUS_INFEASIBLE = "infeasible"
STATUS_NO_SOLUTION_TIMEOUT = "no_solution_timeout"

_INT_TOL = 1e-6


@dataclass(frozen=True)
class ScalarResult:
    status: str
    solution: tuple = None    # binary n-vector
    value: float = None
    bound: float = -math.inf  # best proven lower bound


def _fractional_var(x, free):
    """Most fractional free variable, the first of equals, or -1 if x is
    integral on the free set. ndarray.round rounds half to even, as round does."""
    if not len(free):
        return -1
    xf = x[free]
    frac = np.abs(xf - xf.round())
    k = int(frac.argmax())
    return int(free[k]) if frac[k] > _INT_TOL else -1


def solve_single_objective(sub: RelaxedSubproblem, c, deadline: float = math.inf,
                           node_limit: int = None) -> ScalarResult:
    """min c.x over the binary subproblem, by best-bound branch and bound.

    ``deadline`` is an absolute ``time.monotonic()`` reading. ``node_limit``
    caps the number of expanded nodes; unlike the deadline it makes truncated
    solves reproducible across runs.
    """
    c = np.asarray(c, dtype=float)
    root = solve_lp(sub, c)
    if root.status == INFEASIBLE:
        return ScalarResult(status=STATUS_INFEASIBLE, bound=math.inf)

    best_val = math.inf
    best_x = None
    heap = []     # (LP bound, seq, subproblem, branching variable)
    seq = 0

    def push(node_sub, res):
        nonlocal seq, best_val, best_x
        j = _fractional_var(res.x, node_sub.cols)
        if j < 0:
            xr = np.rint(res.x).astype(np.int64)
            val = float(c @ xr)
            if val < best_val - 1e-12:
                best_val = val
                best_x = tuple(int(v) for v in xr)
            return
        # the subproblem keeps its optimal tableau for its children
        heapq.heappush(heap, (res.value, seq, node_sub, j))
        seq += 1

    push(sub, root)
    expanded = 0
    while heap:
        bound, _, node_sub, j = heap[0]
        global_bound = bound
        if bound >= best_val - 1e-9:
            return ScalarResult(status=STATUS_OPTIMAL, solution=best_x,
                                value=best_val, bound=best_val)
        if time.monotonic() > deadline:
            break
        if node_limit is not None and expanded >= node_limit:
            break
        expanded += 1
        heapq.heappop(heap)
        for v in (0, 1):
            child = node_sub.branch(j, v)
            res = solve_lp(child, c)
            if res.status == OPTIMAL and res.value < best_val - 1e-9:
                push(child, res)
    if heap:
        if best_x is not None:
            return ScalarResult(status=STATUS_FEASIBLE_TIMEOUT, solution=best_x,
                                value=best_val, bound=global_bound)
        return ScalarResult(status=STATUS_NO_SOLUTION_TIMEOUT, bound=global_bound)
    if best_x is None:
        return ScalarResult(status=STATUS_INFEASIBLE, bound=math.inf)
    return ScalarResult(status=STATUS_OPTIMAL, solution=best_x,
                        value=best_val, bound=best_val)


def solve_weighted_sum_ip(sub: RelaxedSubproblem, lam, deadline: float = math.inf,
                          node_limit: int = None):
    """Weighted-sum scalarization to integer optimality.

    Returns (result, (lam, level_rhs)), or (result, None) when the subproblem
    is infeasible. The level set lam.Cx >= level_rhs is a valid inequality for
    the subproblem: level_rhs is the result's proven bound, which is its value
    when it is optimal, and holds too when the solve stops early.
    """
    lam = np.asarray(lam, dtype=float)
    res = solve_single_objective(sub, lam @ sub.instance.C, deadline, node_limit)
    if res.status == STATUS_INFEASIBLE:
        return res, None
    return res, (lam, res.bound)


def solve_econstraint(instance: Instance, cut_rows, k: int, eps,
                      deadline: float = math.inf):
    """Two-stage e-constraint scalarization under the rows a.x >= rhs of
    ``cut_rows``: min z_k under z_i <= eps_i, then min sum z_i under the
    stage-1 cap. Returns (result, n_ip_solves).

    An optimal stage-2 solution is efficient for the underlying problem.
    Both stages stop at the one absolute ``deadline``.
    """
    p = instance.p
    eps = list(eps)
    if len(eps) != p - 1:
        raise ValueError(f"eps needs {p - 1} entries, got {len(eps)}")
    others = [i for i in range(p) if i != k]
    # z_i <= e  as  -C_i x >= -e
    rows = list(cut_rows) + [(-instance.C[i].astype(float), -float(e))
                             for i, e in zip(others, eps)]
    res1 = solve_single_objective(RelaxedSubproblem(instance, {}, rows),
                                  instance.C[k].astype(float), deadline)
    if res1.status in (STATUS_INFEASIBLE, STATUS_NO_SOLUTION_TIMEOUT):
        return res1, 1
    stage2 = RelaxedSubproblem(instance, {}, rows + [(-instance.C[k].astype(float),
                                                      -float(res1.value))])
    res2 = solve_single_objective(stage2, instance.C.sum(axis=0).astype(float), deadline)
    if res2.status in (STATUS_INFEASIBLE, STATUS_NO_SOLUTION_TIMEOUT):
        # stage-1 incumbent is still feasible for the e-constraint problem
        return ScalarResult(status=STATUS_FEASIBLE_TIMEOUT, solution=res1.solution,
                            value=res1.value, bound=res1.bound), 2
    return res2, 2
