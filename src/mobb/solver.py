"""Multi-objective 0-1 branch and bound with adaptive objective-space improvements.

The main loop follows the classic node-select / lower-bound / incumbent-update /
fathom / branch cycle. Optional features: dynamic hypervolume-gap node
selection (lhg/hsz), weighted-sum warmstart with level-set cuts, scheduled
two-stage e-constraint solves, simple lower bound sets at fixed tree levels,
and terminal enumeration of almost-fixed nodes.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (IncumbentList, LocalUpperBoundSet, LowerBoundSet,
                     MEASURE_HSZ, MEASURE_LHG, default_big_m, gap_argmax_lub,
                     gap_values, surviving_mask)
from .ipsolve import (STATUS_TARGET_REACHED, solve_econstraint,
                      solve_weighted_sum_ip)
from .lp import (RelaxedSubproblem, augmented_unit_weights,
                 lower_bound_frontier, refine_frontier)
from .model import (DEFAULT_ENUM_CAP, FLOAT_TOL, Instance, ModelError, Solution,
                    enumerate_nondominated, is_feasible)

SELECT_DEPTH = "depth"
SELECT_BREADTH = "breadth"
SELECT_LHG = "lhg"
SELECT_HSZ = "hsz"

BRANCH_MOF = "mof"
BRANCH_SOR = "sor"

_INT_TOL = 1e-6

# effort cap for the simple-lower-bound weighted-sum IP at inner nodes
_SLB_NODE_LIMIT = 200


@dataclass(frozen=True)
class SolverConfig:
    """Frozen, so that every instance has passed ``__post_init__``'s checks;
    ``dataclasses.replace`` builds a variant and runs them again."""

    node_selection: str = SELECT_DEPTH
    branching: str = BRANCH_MOF
    warmstart: bool = False
    ec_enabled: bool = False
    slb_enabled: bool = False
    slb_level: int = 5
    te_enabled: bool = False
    te_threshold: int = 10
    time_limit: float = 7200.0
    refine_max: int = 50
    trace: bool = False

    def __post_init__(self):
        # a node with no free variable is a leaf before TE is tested, so a
        # threshold below 1 would never enumerate
        if not 1 <= self.te_threshold <= DEFAULT_ENUM_CAP:
            raise ModelError("te_threshold must be between 1 and the "
                             f"enumeration cap {DEFAULT_ENUM_CAP}")
        if self.slb_level < 1:
            raise ModelError("slb_level must be >= 1")
        if self.refine_max < 0:
            raise ModelError("refine_max must be >= 0")
        # not NaN: every comparison with it is False, so it would never stop
        if not self.time_limit > 0:
            raise ModelError("time_limit must be a positive number of seconds")
        if self.node_selection not in (SELECT_DEPTH, SELECT_BREADTH, SELECT_LHG, SELECT_HSZ):
            raise ModelError(f"unknown node selection {self.node_selection!r}")
        if self.branching not in (BRANCH_MOF, BRANCH_SOR):
            raise ModelError(f"unknown branching rule {self.branching!r}")

    @property
    def measure(self) -> str:
        return MEASURE_LHG if self.node_selection == SELECT_LHG else MEASURE_HSZ

    @property
    def dynamic(self) -> bool:
        return self.node_selection in (SELECT_LHG, SELECT_HSZ)


@dataclass(slots=True)
class Node:
    # the node's relaxation: its fixings, its cut rows a.x >= rhs and its LP;
    # its depth is its number of fixings, since a branching adds one
    sub: RelaxedSubproblem
    gap: float                       # frozen gap inherited from the parent
    # on an SLB level: (weight, the parent's facet offsets), decided once per
    # branching by the parent; None where the node builds its LP bound
    slb: tuple = None


@dataclass
class SolveStats:
    nodes_explored: int = 0
    ips: int = 0
    wall_time: float = 0.0
    fathomed: dict = field(default_factory=lambda: {
        "infeasibility": 0, "dominance": 0, "enumeration": 0})
    branched: int = 0
    solved: bool = False
    cut_log: list = field(default_factory=list)        # (fixings, coeffs, rhs)
    # one dict per node under SolverConfig.trace: iteration, depth, free,
    # fixings, outcome and the add-on flags process_node returns
    trace: list = field(default_factory=list)


def add_level_cut(C, lam, rhs):
    """Round a level-set inequality lam.Cx >= rhs to integer data.

    Coefficients are rounded up, the right-hand side down, which keeps the cut
    valid for binary x. Returns (coeffs, rhs) or None if trivially redundant.
    """
    a_bar = np.asarray(lam, dtype=float) @ np.asarray(C, dtype=float)
    coeffs = np.ceil(a_bar - 1e-9).astype(np.int64)
    b = int(math.floor(rhs + 1e-9))
    if int(coeffs[coeffs < 0].sum()) >= b:
        return None
    return coeffs, b


def prune_redundant_cuts(cuts, L: LowerBoundSet):
    """Drop cuts with strictly positive slack at every extreme solution of L.
    A bound with no extreme solutions keeps every cut. The cuts kept are new
    tuples, so ``RelaxedSubproblem.branch`` builds the children afresh."""
    X = L.extreme_solutions
    if not len(X):
        return cuts
    return [(a, rhs) for a, rhs in cuts
            if (X @ np.asarray(a, dtype=float) <= rhs + 1e-6).any()]


def sum_of_ratios_variable(instance: Instance, free):
    """Free variable with the largest summed objective-to-weight ratio; the
    first one among equal scores."""
    return int(free[instance.ratio_scores[free].argmax()])


def choose_branch_variable(instance: Instance, L: LowerBoundSet, free, config: SolverConfig):
    """Most-often-fractional over the bound's extreme solutions, else sum-of-ratios."""
    if not len(free):
        raise ModelError("no free variables to branch on")
    if config.branching == BRANCH_MOF:
        X = L.extreme_solutions[:, free]
        counts = (np.abs(X - np.rint(X)) > _INT_TOL).sum(axis=0)
        best = int(counts.argmax())  # argmax keeps the lowest index on ties
        if counts[best] > 0:
            return int(free[best])
    return sum_of_ratios_variable(instance, free)


def slb_weight(parent_lubs, p: int):
    """Weight for the simple lower bound: normal through the per-objective
    minimal surviving local upper bounds of the parent, else equal weights."""
    ones = np.full(p, 1.0 / p)
    if parent_lubs is None or not len(parent_lubs):
        return ones
    pts = []
    for k in range(p):
        pts.append(min(parent_lubs, key=lambda u: (u[k], tuple(u))))
    pts = np.asarray(pts, dtype=float)
    diffs = pts[1:] - pts[0]
    if np.linalg.matrix_rank(diffs, tol=1e-9) < p - 1:
        return ones
    _, _, vt = np.linalg.svd(diffs)
    v = vt[-1]
    if v.sum() < 0:
        v = -v
    if np.any(v < -1e-9) or v.sum() <= 1e-12:
        return ones
    v = np.clip(v, 0.0, None)
    return v / v.sum()


class _Queue:
    """Open nodes in one min-heap whose key encodes the selection strategy.

    depth pops the newest node, breadth the oldest, lhg/hsz the largest frozen
    gap and the newest among equal gaps. The push sequence number makes every
    key unique, so nodes themselves are never compared.
    """

    def __init__(self, strategy: str):
        self.strategy = strategy
        self._heap = []
        self._seq = 0

    def push(self, node: Node):
        seq = self._seq
        self._seq += 1
        if self.strategy == SELECT_DEPTH:
            key = (-seq,)
        elif self.strategy == SELECT_BREADTH:
            key = (seq,)
        else:
            key = (-node.gap, -seq)
        heapq.heappush(self._heap, (key, node))

    def pop(self) -> Node:
        return heapq.heappop(self._heap)[1]

    def __len__(self):
        return len(self._heap)


class Solver:
    """One branch-and-bound run; owns all mutable search state."""

    def __init__(self, instance: Instance, config: SolverConfig = None):
        self.instance = instance
        self.config = config or SolverConfig()
        self.stats = SolveStats()
        p = instance.p
        self.M = default_big_m(instance.C)
        self.U = IncumbentList()
        self.K = LocalUpperBoundSet(p, self.M)
        self.root_cuts = []
        self._deadline = None

    # -- helpers ----------------------------------------------------------

    def _accept(self, sol: Solution):
        if self.U.update(sol)[0]:
            self.K.update(np.asarray(sol.image))

    def _accept_result(self, res):
        """Pass a scalarized IP's solution, if it returned one, to U: the
        one solution rule for every IP, stopped ones included."""
        if res.solution is not None:
            self._accept(Solution.from_x(self.instance, res.solution))

    def _weighted_sum_step(self, sub: RelaxedSubproblem, lam, node_limit: int = None,
                           target: float = math.inf):
        """Run one weighted-sum IP over ``sub`` and pass its solution to U.

        Returns None when the relaxation is infeasible, else the IP's result,
        whose bound is the level rhs of lam.Cx >= rhs, valid for ``sub`` even
        when the IP stopped early, and the level's rounded cut, which the cut
        log records, or None if it is redundant.
        """
        res, level = solve_weighted_sum_ip(sub, lam, self._deadline, node_limit,
                                           target=target)
        self.stats.ips += 1
        if level is None:
            return None
        self._accept_result(res)
        cut = add_level_cut(self.instance.C, *level)
        if cut is not None:
            self.stats.cut_log.append((dict(sub.fixings), *cut))
        return res, cut

    # -- warmstart --------------------------------------------------------

    def warmstart(self) -> bool:
        """Solve the predefined weight set at the root; False if infeasible."""
        for lam in augmented_unit_weights(self.instance.p):
            step = self._weighted_sum_step(
                RelaxedSubproblem(self.instance, {}, list(self.root_cuts)), lam)
            if step is None:
                return False
            if step[1] is not None:
                self.root_cuts.append(step[1])
        return True

    # -- scheduled e-constraint solves ------------------------------------

    def ec_step(self, L: LowerBoundSet):
        """Two-stage e-constraint solve in the box of the lub of largest gap.

        Returns None if no lub survives, so nothing is solved, else whether
        the solve found a point in the box, which then joins U.
        """
        surviving = self.K.arr[surviving_mask(L, self.K.arr)]
        lu = gap_argmax_lub(L, surviving, self.config.measure)
        if lu is None:
            return None
        # stage 1 minimizes z_0 under z_i <= lu_i - 1 for the other objectives
        # and looks only below lu_0, so any solution lies in the box z < lu
        eps = [int(v) - 1 for v in lu[1:]]
        res, n_ips = solve_econstraint(self.instance, self.root_cuts, eps,
                                       self._deadline, cutoff=int(lu[0]))
        self.stats.ips += n_ips
        self._accept_result(res)
        return res.solution is not None

    # -- simple lower bound -----------------------------------------------

    def simple_lower_bound(self, node: Node):
        """Level-set bound from one weighted-sum IP plus the parent's facets,
        with the weight and facets the parent handed down in ``node.slb``.

        Returns (LowerBoundSet or None, cuts, reached): None means fathom by
        infeasibility, cuts are the node's cut rows plus the IP's rounded
        level-set cut, if it has one, and reached says that the IP stopped at
        its target. The target is the largest lam.u over the lubs u strictly
        above the facets: a level that reaches it leaves no lub above the
        bound, so the node is fathomed as it would be by the optimal level.
        """
        cuts = node.sub.cut_rows
        lam, facets = node.slb
        above = self.K.arr[(self.K.arr > facets + FLOAT_TOL).all(axis=1)]
        target = float((above @ lam).max()) if len(above) else -math.inf
        # deterministic node budget so seeded runs reproduce exactly; the
        # global deadline still bounds the wall time
        step = self._weighted_sum_step(node.sub, lam, _SLB_NODE_LIMIT, target)
        if step is None:
            return None, cuts, False
        res, cut = step
        if cut is not None:
            cuts = cuts + [cut]
        L = LowerBoundSet(hyperplanes=[(lam, float(res.bound))], facet_offsets=facets,
                          extreme_solutions=np.empty((0, self.instance.n)))
        return L, cuts, res.status == STATUS_TARGET_REACHED

    # -- node processing ---------------------------------------------------

    def _surviving(self, L: LowerBoundSet) -> np.ndarray:
        """Pass the bound's integral extreme solutions to the incumbent list,
        then return the local upper bounds strictly above the bound."""
        X = L.extreme_solutions
        Xr = np.rint(X)
        idx = (np.abs(X - Xr).max(axis=1) <= _INT_TOL).nonzero()[0]
        if len(idx):
            # U only improves, so an image it weakly dominates now would
            # be rejected anyway: skip its feasibility check and update
            Y = Xr[idx].astype(np.int64) @ self.instance.C.T
            idx = idx[~self.U.dominated(Y)]
        for i in idx:
            xi = Xr[i].astype(np.int64)
            if is_feasible(self.instance, xi):
                self._accept(Solution.from_x(self.instance, xi))
        return self.K.arr[surviving_mask(L, self.K.arr)]

    def process_node(self, node: Node, iteration: int, queue: _Queue):
        """Bound, then fathom or branch one node.

        Returns (outcome, addons): the fathom cause or "branched", and the
        dict of the add-ons' outcomes at this node: ``slb`` (the simple lower
        bound replaced the frontier), ``slb_target`` (its IP stopped at its
        target), ``ec`` (an e-constraint solve ran) and ``ec_found`` (it found
        a point in its box). A node is pruned by infeasibility, by dominance
        (no local upper bound lies strictly above its bound) or by terminal
        enumeration.
        """
        cfg = self.config
        inst = self.instance
        sub = node.sub
        free = sub.cols
        addons = {"slb": False, "slb_target": False, "ec": False, "ec_found": False}

        if not len(free):
            # a leaf's one point joins the incumbents, which then dominate it
            sols = enumerate_nondominated(inst, sub.fixings)
            if not sols:
                return "infeasibility", addons
            self._accept(sols[0])
            return "dominance", addons

        if cfg.te_enabled and len(free) <= cfg.te_threshold:
            for sol in enumerate_nondominated(inst, sub.fixings):
                self._accept(sol)
            return "enumeration", addons

        use_slb = node.slb is not None
        cuts = sub.cut_rows
        if use_slb:
            L, cuts, addons["slb_target"] = self.simple_lower_bound(node)
            addons["slb"] = True
        else:
            L = lower_bound_frontier(sub)
        if L is None:
            return "infeasibility", addons

        n = inst.n
        if (cfg.ec_enabled and iteration % n == 0
                and iteration <= inst.p * n * n):
            found = self.ec_step(L)
            addons["ec"] = found is not None
            addons["ec_found"] = bool(found)

        surviving = self._surviving(L)
        # refinement is deferred at every node, the root included: fathoming
        # is monotone in the bound, so the cheap initial bound settles most
        # nodes without it
        if (len(surviving) and not use_slb and inst.p >= 3
                and cfg.refine_max > 0):
            L = refine_frontier(sub, L, cfg.refine_max)
            surviving = self._surviving(L)
        if not len(surviving):
            return "dominance", addons

        gap = (float(gap_values(L, surviving, cfg.measure).max())
               if cfg.dynamic else 0.0)
        cuts = prune_redundant_cuts(cuts, L)
        j = choose_branch_variable(inst, L, free, cfg)
        # SLB bounds the nodes at every slb_level-th depth below the root
        depth = len(sub.fixings) + 1        # the children's
        slb = ((slb_weight(surviving, inst.p), L.facet_offsets)
               if cfg.slb_enabled and depth % cfg.slb_level == 0 else None)
        # RelaxedSubproblem.branch decides what each child inherits from the
        # node: its tableau and, at p = 2, the rows of L its fixing keeps
        for v in (0, 1):
            queue.push(Node(sub=sub.branch(j, v, cuts, L), gap=gap, slb=slb))
        return "branched", addons

    # -- main loop ---------------------------------------------------------

    def solve(self):
        cfg = self.config
        stats = self.stats
        start = time.monotonic()
        self._deadline = start + cfg.time_limit
        feasible = True
        if cfg.warmstart:
            feasible = self.warmstart()
        if feasible:
            queue = _Queue(cfg.node_selection)
            # no local name holds the root: its tableau goes with its children's
            queue.push(Node(RelaxedSubproblem(self.instance, {}, list(self.root_cuts)),
                            gap=math.inf))
            iteration = 0
            stats.solved = True
            while len(queue):
                if time.monotonic() > self._deadline:
                    stats.solved = False
                    break
                node = queue.pop()
                iteration += 1
                outcome, addons = self.process_node(node, iteration, queue)
                stats.nodes_explored = iteration
                if outcome == "branched":
                    stats.branched += 1
                else:
                    stats.fathomed[outcome] += 1
                if cfg.trace:
                    # a node's fixings are never changed once it is built
                    fixings = node.sub.fixings
                    stats.trace.append({
                        "iteration": iteration, "depth": len(fixings),
                        "free": self.instance.n - len(fixings),
                        "fixings": fixings, "outcome": outcome, **addons})
        else:
            stats.solved = True
        stats.wall_time = time.monotonic() - start
        entries = sorted(self.U.entries, key=lambda s: s.image)
        points = [s.image for s in entries]
        return points, entries, stats


def solve(instance: Instance, config: SolverConfig = None):
    """Compute the nondominated set and a minimal complete solution set."""
    return Solver(instance, config).solve()
