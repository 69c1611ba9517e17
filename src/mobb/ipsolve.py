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
STATUS_TARGET_REACHED = "target_reached"

_INT_TOL = 1e-6

# An integral objective's LP value v proves the integer bound ceil(v - tol),
# tol = _ROUND_TOL * max(1, ||c||_1). ||c||_1 bounds |c.x| over the box, and
# a float64 LP value is off by a few ulps of that scale, far less than 1e-6
# of it, so a value that is an integer up to rounding keeps that integer. A
# slack of 1/2 or more is no longer small against the unit step between
# bounds, so from ||c||_1 >= 5e5 on the raw value is the bound, as it is for
# a fractional c; that covers every objective whose values pass 2**53, where
# float64 holds only integers.
_ROUND_TOL = 1e-6


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


def _bound_rounding(c):
    """The map from an LP value to the node bound it proves: ceil(v - tol)
    when ``c`` is integral and its slack below 1/2, but never below v; else
    the value itself."""
    tol = _ROUND_TOL * max(1.0, float(np.abs(c).sum()))
    if tol >= 0.5 or not (c == c.round()).all():
        return float
    return lambda v: max(float(v), float(math.ceil(v - tol)))


def solve_single_objective(sub: RelaxedSubproblem, c, deadline: float = math.inf,
                           node_limit: int = None, cutoff: float = math.inf,
                           target: float = math.inf) -> ScalarResult:
    """min c.x over the binary subproblem, by best-bound branch and bound.

    ``deadline`` is an absolute ``time.monotonic()`` reading. ``node_limit``
    caps the number of expanded nodes; unlike the deadline it makes truncated
    solves reproducible across runs.

    ``cutoff`` asks only for a solution of value below it: when none exists
    the result is infeasible with ``bound = cutoff``, a valid lower bound.
    ``target`` stops the search once its best open bound reaches it, with
    status ``STATUS_TARGET_REACHED``, that bound and the incumbent, if any;
    the optimality test comes first, so a search whose optimum lies below the
    target runs as without it. The open nodes are searched in order of their
    LP values; an integral ``c`` rounds each value up to the integer bound it
    proves (``_bound_rounding``) before it is compared.
    """
    c = np.asarray(c, dtype=float)
    root = solve_lp(sub, c)
    if root.status == INFEASIBLE:
        return ScalarResult(status=STATUS_INFEASIBLE, bound=math.inf)
    rounded = _bound_rounding(c)

    best_val = cutoff
    best_x = None
    heap = []     # (LP value, seq, subproblem, branching variable)
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
        value, _, node_sub, j = heap[0]
        bound = rounded(value)
        if bound >= best_val - 1e-9:
            break
        if bound >= target:
            return ScalarResult(status=STATUS_TARGET_REACHED, solution=best_x,
                                value=None if best_x is None else best_val,
                                bound=bound)
        if (time.monotonic() > deadline
                or node_limit is not None and expanded >= node_limit):
            if best_x is None:
                return ScalarResult(status=STATUS_NO_SOLUTION_TIMEOUT, bound=bound)
            return ScalarResult(status=STATUS_FEASIBLE_TIMEOUT, solution=best_x,
                                value=best_val, bound=bound)
        expanded += 1
        heapq.heappop(heap)
        for v in (0, 1):
            child = node_sub.branch(j, v)
            res = solve_lp(child, c)
            if res.status == OPTIMAL and rounded(res.value) < best_val - 1e-9:
                push(child, res)
    if best_x is None:
        return ScalarResult(status=STATUS_INFEASIBLE, bound=best_val)
    return ScalarResult(status=STATUS_OPTIMAL, solution=best_x,
                        value=best_val, bound=best_val)


def solve_weighted_sum_ip(sub: RelaxedSubproblem, lam, deadline: float = math.inf,
                          node_limit: int = None, target: float = math.inf):
    """Weighted-sum scalarization to integer optimality, or until its bound
    reaches ``target``.

    Returns (result, (lam, level_rhs)), or (result, None) when the subproblem
    is infeasible. The level set lam.Cx >= level_rhs is a valid inequality for
    the subproblem: level_rhs is the result's proven bound, which is its value
    when it is optimal, and holds too when the solve stops early.
    """
    lam = np.asarray(lam, dtype=float)
    res = solve_single_objective(sub, lam @ sub.instance.C, deadline, node_limit,
                                 target=target)
    if res.status == STATUS_INFEASIBLE:
        return res, None
    return res, (lam, res.bound)


def solve_econstraint(instance: Instance, cut_rows, k: int, eps,
                      deadline: float = math.inf, cutoff: float = math.inf):
    """Two-stage e-constraint scalarization under the rows a.x >= rhs of
    ``cut_rows``: min z_k under z_i <= eps_i and z_k < cutoff, then min sum z_i
    under the stage-1 cap. Returns (result, n_ip_solves).

    An optimal stage-2 solution is efficient for the underlying problem.
    When stage 1 shows that no solution has z_k below ``cutoff``, stage 2 does
    not run and the result is infeasible. Both stages stop at the one absolute
    ``deadline``; a stage 2 that stops without a solution returns stage 1's.
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
                                  instance.C[k].astype(float), deadline,
                                  cutoff=cutoff)
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
