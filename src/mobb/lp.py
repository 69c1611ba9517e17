"""Dense simplex on one warm-started tableau per subproblem, and the vector-LP
frontier of the linear relaxation."""

from __future__ import annotations

import copy
import itertools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .bounds import LowerBoundSet
from .model import FLOAT_TOL, Instance, ModelError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_BLAND_AFTER = 1000   # degenerate pivots before switching to Bland's rule
_LEX_CAP = 1e-7       # slack on the stage-1 value when a lexmin caps it
_FACET_TOL = 1e-7     # a refinement plane must cut a vertex off by more than this
_KEEP_TOL = 1e-9      # a parent's point is kept when its x_j is this close to v


class InfeasibleSubproblem(Exception):
    """The relaxation of a subproblem admits no solution."""


@dataclass(frozen=True)
class LpResult:
    status: str
    value: float = 0.0
    x: np.ndarray = None      # full n-vector including fixed entries


def _pivot(T, basis, r, j):
    """Make column j basic in row r: one Gauss-Jordan step on the rows with a
    nonzero in column j. Every value equals the step over all of T; only the
    sign of a zero can differ, and no comparison sees it."""
    T[r] /= T[r, j]
    factor = T[:, j].copy()
    factor[r] = 0.0
    nz = factor.nonzero()[0]
    T[nz] -= factor[nz, None] * T[r]
    basis[r] = j


def _price_out(row, T, basis):
    """``row`` less the constraint rows of T that zero it on the basic columns."""
    return row - row[basis] @ T[:len(basis)]


def _optimize(T, basis, ncols):
    """Primal simplex on the reduced costs in T's last row; only the first
    ``ncols`` columns may enter. Returns OPTIMAL or UNBOUNDED."""
    rows, rhs, obj = T[:-1], T[:-1, -1], T[-1, :ncols]   # views into T
    degenerate = 0
    while True:
        use_bland = degenerate > _BLAND_AFTER
        if use_bland:
            cands = (obj < -_PIVOT_TOL).nonzero()[0]
            entering = int(cands[0]) if len(cands) else -1
        else:
            entering = int(obj.argmin())
            if obj[entering] >= -_PIVOT_TOL:
                entering = -1
        if entering < 0:
            return OPTIMAL
        col = rows[:, entering]
        pos = (col > _PIVOT_TOL).nonzero()[0]
        if not len(pos):
            return UNBOUNDED
        ratios = rhs[pos] / col[pos]
        rmin = float(ratios.min())
        if rmin <= _PIVOT_TOL:
            degenerate += 1
        tie = pos[np.abs(ratios - rmin) <= 1e-12]
        if use_bland and len(tie) > 1:
            leave = int(tie[basis[tie].argmin()])
        else:
            leave = int(tie[0])
        _pivot(T, basis, leave, entering)


def _dual_optimize(T, basis, ncols):
    """Dual simplex from a dual feasible basis: the reduced costs in T's last
    row are nonnegative on the first ``ncols`` columns, and some basic values
    may be negative (Koberstein 2005, ch. 3). Returns OPTIMAL once every basic
    value is nonnegative, or INFEASIBLE when a leaving row has no negative
    entry to pivot on."""
    rows, rhs, obj = T[:-1], T[:-1, -1], T[-1, :ncols]   # views into T
    degenerate = 0
    while True:
        use_bland = degenerate > _BLAND_AFTER
        if use_bland:
            cands = (rhs < -_PIVOT_TOL).nonzero()[0]
            if not len(cands):
                return OPTIMAL
            leave = int(cands[basis[cands].argmin()])
        else:
            leave = int(rhs.argmin())
            if rhs[leave] >= -_PIVOT_TOL:
                return OPTIMAL
        row = rows[leave, :ncols]
        neg = (row < -_PIVOT_TOL).nonzero()[0]
        if not len(neg):
            if rhs[leave] < -_FEAS_TOL:
                return INFEASIBLE
            # feasible within phase 1's tolerance: the rest is rounding noise
            rhs[leave] = 0.0
            continue
        ratios = np.maximum(obj[neg], 0.0) / -row[neg]
        rmin = float(ratios.min())
        if rmin <= _PIVOT_TOL:
            degenerate += 1
        tie = neg[ratios - rmin <= 1e-12]
        if use_bland or len(tie) == 1:
            entering = int(tie[0])
        else:
            # the largest pivot element among the ties, for stability
            entering = int(tie[row[tie].argmin()])
        _pivot(T, basis, leave, entering)


@dataclass
class _Tableau:
    """A primal feasible simplex tableau for ``A y <= b, y >= 0``.

    Columns are the ``nv`` structural ones, then slacks, then the rhs. The
    constraint rows are in canonical form for ``basis``; the last row holds
    the reduced costs of the last objective and minus its value. Any new
    objective reoptimizes from this basis, which stays primal feasible.
    """

    T: np.ndarray
    basis: np.ndarray
    nv: int

    @classmethod
    def phase1(cls, A, b):
        """A feasible basis by minimizing the sum of artificials, or None."""
        m, nv = A.shape
        art_rows = np.flatnonzero(b < 0)
        na = len(art_rows)
        # columns: structural | slacks | artificials | rhs
        T = np.zeros((m + 1, nv + m + na + 1))
        T[:m, :nv] = A
        T[:m, nv:nv + m] = np.eye(m)
        T[:m, -1] = b
        T[art_rows] *= -1.0
        basis = nv + np.arange(m)
        if na:
            art_cols = nv + m + np.arange(na)
            T[art_rows, art_cols] = 1.0
            basis[art_rows] = art_cols
            T[-1, art_cols] = 1.0
            T[-1] = _price_out(T[-1], T, basis)
            _optimize(T, basis, nv + m)
            if -T[-1, -1] > _FEAS_TOL:
                return None
            # drive the artificials left at zero out of the basis; a row with
            # no other support is redundant and goes with them
            alive = np.ones(m + 1, dtype=bool)
            for i in np.flatnonzero(basis >= nv + m):
                nz = np.flatnonzero(np.abs(T[i, :nv + m]) > _PIVOT_TOL)
                if len(nz):
                    _pivot(T, basis, i, int(nz[0]))
                else:
                    alive[i] = False
            T = np.concatenate((T[alive, :nv + m], T[alive, -1:]), axis=1)
            basis = basis[alive[:m]]
        return cls(T, basis, nv)

    def optimize(self, c) -> str:
        """Phase 2 for min c.y from the current basis."""
        row = np.zeros(self.T.shape[1])
        row[:self.nv] = c
        self.T[-1] = _price_out(row, self.T, self.basis)
        return _optimize(self.T, self.basis, self.T.shape[1] - 1)

    def point(self):
        """(value, y) of the current basic solution."""
        y = np.zeros(self.nv)
        structural = self.basis < self.nv
        y[self.basis[structural]] = self.T[:-1, -1][structural]
        return float(-self.T[-1, -1]), y

    def with_row(self, a, rhs) -> "_Tableau":
        """A copy with the row a.y <= rhs appended and its slack basic.

        The copy keeps the reduced costs, so it stays dual feasible when this
        tableau is optimal; it is primal feasible when the current point
        satisfies the row.
        """
        m = len(self.basis)
        w = self.T.shape[1]
        T = np.zeros((m + 2, w + 1))
        T[:m, :w - 1] = self.T[:m, :-1]
        T[:m, -1] = self.T[:m, -1]
        T[-1, :w - 1] = self.T[-1, :-1]
        T[-1, -1] = self.T[-1, -1]
        row = np.zeros(w + 1)
        row[:self.nv] = a
        row[w - 1] = 1.0
        row[-1] = rhs
        T[m] = _price_out(row, T, self.basis)
        return _Tableau(T, np.concatenate((self.basis, [w - 1])), self.nv)

    def fixed(self, c, v) -> "_Tableau":
        """A copy with structural column c fixed to v and deleted, or None
        when y_c's row shows that y_c = v is infeasible. The copy keeps the
        reduced costs, so it stays dual feasible when this tableau is optimal.
        A basic y_c hands its row to the column of a dual ratio test over the
        entries whose sign keeps that column nonnegative, or over both signs
        at a zero right-hand side; the row always has a nonzero entry in some
        nonbasic slack column, since the basis matrix is invertible."""
        T = np.concatenate((self.T[:, :c], self.T[:, c + 1:]), axis=1)
        T[:, -1] -= v * self.T[:, c]
        basis = self.basis - (self.basis > c)
        r = (self.basis == c).nonzero()[0]
        if len(r):
            r = int(r[0])
            row, rhs = T[r, :-1], T[r, -1]
            cand = np.abs(row) > _PIVOT_TOL
            if abs(rhs) > _FEAS_TOL:
                cand &= (row > 0) == (rhs > 0)
            cand = cand.nonzero()[0]
            if not len(cand):
                return None
            ratios = np.maximum(T[-1, cand], 0.0) / np.abs(row[cand])
            tie = cand[ratios - ratios.min() <= 1e-12]
            _pivot(T, basis, r, int(tie[np.abs(row[tie]).argmax()]))
        return _Tableau(T, basis, self.nv - 1)


class RelaxedSubproblem:
    """A node's relaxation and its one LP: fixings, the inherited pool of
    valid inequalities, the LE system over the free variables and the tableau
    of the last simplex solve.

    ``cut_rows`` are decision-space inequalities a.x >= rhs (level-set cuts are
    stored here after integer rounding). The constructor builds the system
    from them, so rows must not change afterwards. Only the first simplex
    solve runs phase 1. Later objectives start phase 2 from the last optimal
    basis, which stays primal feasible because only the objective changes
    (Chvatal 1983, ch. 10). A copy made by ``with_row``, or by ``branch`` for
    a child that keeps the cut rows, needs no phase 1 either: it starts from a
    copy of this subproblem's tableau, with its row appended or its
    ``pending`` fixing substituted, and restores feasibility by dual simplex.
    Every fixing is substituted, so the tableau's structural columns are
    always ``cols``, the free variables in increasing order.
    """

    def __init__(self, instance: Instance, fixings=None, cut_rows=None):
        self.instance = instance
        self.fixings = {} if fixings is None else fixings
        self.cut_rows = [] if cut_rows is None else cut_rows   # [(a, rhs)]
        A_le, b_le = instance.le_normalized()
        rows = [A_le.astype(float)]
        rhs = [b_le.astype(float)]
        for a, r in self.cut_rows:
            rows.append(-np.asarray(a, dtype=float)[None, :])
            rhs.append(np.array([-float(r)]))
        A = np.vstack(rows)
        b = np.concatenate(rhs)
        # the tableau's structural columns: the variables free at build time
        self.cols = np.asarray([j for j in range(instance.n) if j not in self.fixings],
                               dtype=np.int64)
        self.fixed_idx = np.asarray(sorted(self.fixings), dtype=np.int64)
        self.xf = np.asarray([self.fixings[j] for j in self.fixed_idx], dtype=float)
        if len(self.fixed_idx):
            b = b - A[:, self.fixed_idx] @ self.xf
        Af = A[:, self.cols]
        # rows with no free support must hold outright
        empty = (np.abs(Af) <= 1e-12).all(axis=1)
        self.infeasible = bool((b[empty] < -_FEAS_TOL).any())
        self.Af = Af[~empty]
        self.bf = b[~empty]
        # fractional knapsack: one nonnegative row plus box bounds
        self.knapsack = len(self.Af) == 1 and bool((self.Af[0] >= 0).all())
        self.tableau = None
        # (column, value): a fixing the next simplex solve substitutes into a
        # copy of ``tableau``, which is then still the parent's; or None
        self.pending = None

    def full_x(self, y) -> np.ndarray:
        """The n-vector with ``y`` on the columns and every fixing exact."""
        x = np.zeros(self.instance.n)
        x[self.fixed_idx] = self.xf
        x[self.cols] = y
        return x

    def with_row(self, a, rhs) -> "RelaxedSubproblem":
        """A copy with the row a.y <= rhs, over ``cols``, appended to a copy
        of this subproblem's tableau.

        The appended copy keeps the reduced costs, so it starts dual feasible,
        and a dual simplex restores primal feasibility instead of phase 1.
        Phase 1 would build from the system alone and drop the row, so this
        subproblem must have a tableau with no pending fixing; a knapsack gets
        one only from ``simplex``, never from the greedy.
        """
        if self.tableau is None or self.pending is not None:
            raise ValueError("with_row needs a solved simplex tableau")
        extended = copy.copy(self)
        extended.knapsack = False     # the greedy would ignore the row
        extended._settle(self.tableau.with_row(a, float(rhs)))
        return extended

    def keeps_rows(self, rows) -> bool:
        """Whether ``rows`` are exactly this subproblem's cut rows, the same
        objects in the same order: then a child with them has a relaxation
        inside this one's."""
        return (len(rows) == len(self.cut_rows)
                and all(map(operator.is_, rows, self.cut_rows)))

    def branch(self, j: int, v: int, cut_rows=None) -> "RelaxedSubproblem":
        """The child with x_j fixed to v and ``cut_rows`` (by default this
        subproblem's) as its cut rows.

        This subproblem first substitutes its own pending fixing. Then, when
        it has a simplex tableau, is not a knapsack and the child keeps
        exactly its cut rows, the child's first solve starts from a copy of
        that tableau as it then stands: x_j leaves the basis if it is basic
        (``_Tableau.fixed``), moves to v and its column is deleted, and a dual
        simplex restores feasibility. Until then the child shares the tableau,
        not this subproblem. Otherwise the child is built afresh.
        """
        self.apply_pending()
        fixings = {**self.fixings, j: v}
        rows = self.cut_rows if cut_rows is None else cut_rows
        if self.tableau is None or self.knapsack or not self.keeps_rows(rows):
            return RelaxedSubproblem(self.instance, fixings, list(rows))
        c = int(self.cols.searchsorted(j))
        pos = int(self.fixed_idx.searchsorted(j))
        # Af and bf stay an ancestor's: only phase 1 and the greedy read them
        child = copy.copy(self)
        child.fixings = fixings
        child.cut_rows = list(self.cut_rows)
        child.cols = np.concatenate((self.cols[:c], self.cols[c + 1:]))
        child.fixed_idx = np.concatenate((self.fixed_idx[:pos], [j], self.fixed_idx[pos:]))
        child.xf = np.concatenate((self.xf[:pos], [float(v)], self.xf[pos:]))
        child.pending = (c, float(v))
        return child

    def apply_pending(self):
        """Substitute the pending fixing into a copy of the tableau and
        restore feasibility by dual simplex, as the next simplex solve does
        first. Afterwards this subproblem no longer holds the tableau it was
        branched from."""
        if self.pending is not None:
            c, v = self.pending
            self.pending = None
            self._settle(self.tableau.fixed(c, v))

    def _settle(self, tab):
        """Make ``tab``, a dual feasible copy, this subproblem's tableau once
        a dual simplex has made it primal feasible; None, or a dual simplex
        that finds no feasible point, leaves the subproblem infeasible."""
        if tab is not None and _dual_optimize(
                tab.T, tab.basis, tab.T.shape[1] - 1) == INFEASIBLE:
            tab = None
        self.tableau = tab
        if tab is None:
            self.infeasible = True

    def simplex(self, cf):
        """(value, y) of min cf.y over the columns, reoptimized from the last
        tableau, or None if infeasible."""
        if self.tableau is None:
            # box: x_j <= 1 for free variables; the knapsack greedy never
            # needs these rows, so they are built only here
            k = len(self.cols)
            A = np.vstack([self.Af, np.eye(k)])
            b = np.concatenate([self.bf, np.ones(k)])
            self.tableau = _Tableau.phase1(A, b)
            if self.tableau is None:
                self.infeasible = True
        else:
            self.apply_pending()
        if self.tableau is None:
            return None
        if self.tableau.optimize(cf) == UNBOUNDED:
            raise ModelError("unbounded LP over a boxed binary relaxation")
        return self.tableau.point()


def _greedy_knapsack_lp(c, w, cap):
    """min c.y s.t. w.y <= cap, 0 <= y <= 1, with w >= 0: fractional greedy.
    ``_greedy_knapsack_rows`` is the same greedy for many objectives at once;
    on a single objective it takes more than twice as long as this one."""
    if cap < -_FEAS_TOL:
        return None
    y = np.zeros(len(c))
    gain = (c < -_PIVOT_TOL).nonzero()[0]
    freebies = gain[w[gain] <= _PIVOT_TOL]
    y[freebies] = 1.0
    paid = gain[w[gain] > _PIVOT_TOL]
    order = paid[np.lexsort((paid, c[paid] / w[paid]))]
    cum = w[order].cumsum()
    nfull = int(cum.searchsorted(float(cap) + 1e-12, side="right"))
    y[order[:nfull]] = 1.0
    if nfull < len(order):
        left = float(cap) - (cum[nfull - 1] if nfull else 0.0)
        frac = left / w[order[nfull]]
        if frac > _PIVOT_TOL:
            y[order[nfull]] = frac
    return y


def _greedy_knapsack_rows(C, w, cap):
    """``_greedy_knapsack_lp`` for every row of C at once, equal to it bit for
    bit: one stable sort by ratio per row and one row-wise cumsum."""
    if cap < -_FEAS_TOL:
        return None
    C = np.ascontiguousarray(C, dtype=float)
    k, n = C.shape
    paying = w > _PIVOT_TOL
    gain = C < -_PIVOT_TOL
    paid = gain & paying
    # the paid items of each row first, by ratio and then by index
    ratio = np.divide(C, w, out=np.full((k, n), np.inf), where=paid)
    order = np.argsort(ratio, axis=1, kind="stable")
    # cum[:, t]: the weight of the first t items in order
    cum = np.zeros((k, n + 1))
    np.cumsum(w[order], axis=1, out=cum[:, 1:])
    npaid = paid.sum(axis=1)
    # w >= 0, so cum never falls and the items that fit are a prefix
    nfull = np.minimum((cum[:, 1:] <= float(cap) + 1e-12).sum(axis=1), npaid)
    # each row's y in its sorted order first, then scattered back
    S = (np.arange(n) < nfull[:, None]).astype(float)
    r = np.flatnonzero(nfull < npaid)
    f = nfull[r]
    frac = (float(cap) - cum[r, f]) / w[order[r, f]]
    big = frac > _PIVOT_TOL
    S[r[big], f[big]] = frac[big]
    Y = np.empty((k, n))
    Y[np.arange(k)[:, None], order] = S
    # the items that gain at no weight
    Y[gain & ~paying] = 1.0
    return Y


def _knapsack_result(sub: RelaxedSubproblem, c, y) -> LpResult:
    """``solve_lp``'s answer on a knapsack relaxation, from the greedy's y."""
    if y is None:
        return LpResult(status=INFEASIBLE)
    # the value from a fresh c[sub.cols]: with a row view of a 2-D array the
    # product can come out 1 ulp apart
    return LpResult(status=OPTIMAL,
                    value=float(c[sub.cols] @ y) + float(c[sub.fixed_idx] @ sub.xf),
                    x=sub.full_x(y))


def solve_lp(sub: RelaxedSubproblem, c) -> LpResult:
    """min c.x over the subproblem's relaxation (0 <= x <= 1, fixings applied).

    Reoptimizes the subproblem's tableau from its last basis.
    """
    c = np.asarray(c, dtype=float)
    if sub.infeasible:
        return LpResult(status=INFEASIBLE)
    if sub.knapsack:
        return _knapsack_result(
            sub, c, _greedy_knapsack_lp(c[sub.cols], sub.Af[0], sub.bf[0]))
    offset = float(c[sub.fixed_idx] @ sub.xf)
    # a branched child learns whether its fixings hold from its first solve
    if not len(sub.cols) and sub.pending is None:
        return LpResult(status=OPTIMAL, value=offset, x=sub.full_x(0.0))
    point = sub.simplex(c[sub.cols])
    if point is None:
        return LpResult(status=INFEASIBLE)
    value, y = point
    return LpResult(status=OPTIMAL, value=value + offset,
                    x=sub.full_x(y.clip(0.0, 1.0)))


def _solve_lps(sub: RelaxedSubproblem, objs) -> list:
    """``[solve_lp(sub, c) for c in objs]``, equal bit for bit. A knapsack
    relaxation answers every row with one ``_greedy_knapsack_rows`` call; any
    other goes through ``solve_lp`` row by row, in order, so warm starts take
    the same pivots."""
    if sub.infeasible or not sub.knapsack or not len(objs):
        return [solve_lp(sub, c) for c in objs]
    objs = np.asarray(objs, dtype=float)
    Y = _greedy_knapsack_rows(objs[:, sub.cols], sub.Af[0], sub.bf[0])
    if Y is None:
        return [LpResult(status=INFEASIBLE)] * len(objs)
    return [_knapsack_result(sub, c, y) for c, y in zip(objs, Y)]


def _lexmin(sub: RelaxedSubproblem, k: int, j: int):
    """Lexicographic minimum over the relaxation: min z_k, then min z_j.

    Stage 2 solves the ``with_row`` copy capped by z_k <= v_k + _LEX_CAP. The
    cap's slack is basic at _LEX_CAP >= 0 in the stage-1 optimal tableau, so
    the copy is primal feasible, its dual simplex makes no pivot, and phase 2
    runs from the stage-1 basis.
    """
    inst = sub.instance
    ck = inst.C[k].astype(float)
    res = solve_lp(sub, ck)
    if res.status == INFEASIBLE:
        return None
    vk = res.value
    x = res.x
    if len(sub.cols):
        a = ck[sub.cols]
        cap = vk + _LEX_CAP - float(ck[sub.fixed_idx] @ sub.xf)
        # already optimal for z_k, with no pivot, unless the knapsack greedy
        # answered stage 1; then this builds the tableau that with_row needs
        sub.simplex(a)
        capped = solve_lp(sub.with_row(a, cap), inst.C[j])
        # only float rounding at huge objective values can make the cap
        # infeasible; the stage-1 point then stands
        if capped.status == OPTIMAL:
            x = capped.x
    return vk, inst.C @ x, x


def _normalize(lam):
    lam = np.asarray(lam, dtype=float)
    return lam / lam.sum()


def augmented_unit_weights(p: int, delta: float = 1e-3):
    """p augmented unit vectors plus equal weights, each summing to 1: the
    planes of the initial outer approximation and the warmstart weight set."""
    weights = []
    for k in range(p):
        w = np.full(p, delta)
        w[k] = 1.0
        weights.append(w / w.sum())
    weights.append(np.full(p, 1.0 / p))
    return weights


@dataclass(frozen=True, slots=True)
class KeptPoints:
    """The extreme solutions of a p = 2 parent's bound set that a child's
    fixing x_j = v keeps (|x_j - v| <= _KEEP_TOL), in the parent's sorted
    order, with their positions there, the parent's number of extreme points
    and its facet offsets: what ``_frontier_2d`` seeds the child's bound with.
    A queued child holds them, so they are small: their images are not kept,
    since C x gives them again bit for bit, and each solution is a copy of
    its bytes, which sits with the other small objects and not among the
    tableaus in the heap (``np.frombuffer`` reads it back)."""

    index: list
    solutions: list     # bytes of float64 n-vectors
    count: int
    offsets: np.ndarray

    @classmethod
    def of(cls, L: LowerBoundSet, j: int, v: int):
        """The solutions of L with x_j = v, or None if none has."""
        # a list, not tuple() of a generator: such a tuple is resized into
        # place instead of taken from the tuple free list, but freeing it adds
        # to that list, so a long run fills the free lists to their caps
        # (2000 tuples of each size, resident for good)
        index = [i for i, x in enumerate(L.extreme_solutions)
                 if abs(x[j] - v) <= _KEEP_TOL]
        if not index:
            return None
        return cls(index, [L.extreme_solutions[i].tobytes() for i in index],
                   len(L.extreme_points), L.facet_offsets)


def _facet_normal(ya, yb):
    """The normalized weight whose level lines run through ya and yb, or None
    unless both of its entries exceed 1e-9."""
    lam = np.array([ya[1] - yb[1], yb[0] - ya[0]])
    if lam[0] <= 1e-9 or lam[1] <= 1e-9:
        return None
    return _normalize(lam)


def _close(ya, yb) -> bool:
    return bool((np.abs(ya - yb) <= 1e-7).all())


def _place_lexmin(known, y, x, first: bool):
    """Put a lexicographic minimum (y, x) first or last in ``known``, the
    sorted [parent index or None, point, solution] of ``_frontier_2d``.

    A fresh run has no point beyond its minima. But the cap's slack on the
    first objective minimized can leave the minimum a little inside a kept
    vertex, which then stands for it: its solution is exact where the
    minimum's has moved within the slack, so the child's own children can
    keep it. The innermost of the kept points beyond the minimum or within
    1e-7 of it stays in its place, and the others go.
    """
    end = 0 if first else -1

    def beyond(k):
        a, b = (k[1], y) if first else (y, k[1])
        return (a[0], a[1]) < (b[0], b[1])

    taken = None
    while known and known[end][0] is not None and (
            beyond(known[end]) or _close(known[end][1], y)):
        taken = known.pop(end)
    if taken is not None:
        known.insert(0 if first else len(known), taken)
    elif not (known and _close(known[end][1], y)):
        known.insert(0 if first else len(known), [None, y, x])


def _frontier_2d(sub: RelaxedSubproblem, kept: KeptPoints = None) -> LowerBoundSet:
    """All extreme supported points of a biobjective relaxation, dichotomically.

    The search starts from the known points: the two lexicographic minima
    and the ``kept`` points of the parent's bound, if any. A child's
    relaxation is its parent's with x_j = v, so a kept point is an extreme
    supported point of the child as well, and every plane of the parent is
    valid in the child. A kept first or last point is the child's
    lexicographic minimum, and the parent's facet offset stands for it, so
    its ``_lexmin`` is skipped. Two kept points that were adjacent in the
    parent bound a facet, whose plane needs no LP. The weighted sums are
    solved only between the other consecutive known points. Without ``kept``
    every point and plane is found afresh.
    """
    inst = sub.instance
    known, facets = [], []
    if kept is not None:
        # as the child's first LP would, even when it solves none: then it
        # drops its parent's tableau, and its own children start warm
        sub.apply_pending()
        if sub.infeasible:
            raise InfeasibleSubproblem(inst.name)
        known = [[i, inst.C @ x, x] for i, x in
                 zip(kept.index, map(np.frombuffer, kept.solutions))]
        for (i, ya, _), (k, yb, _) in zip(known, known[1:]):
            lam = _facet_normal(ya, yb) if k == i + 1 else None
            if lam is not None:
                facets.append((lam, min(float(lam @ ya), float(lam @ yb))))
    if known and known[0][0] == 0:
        v1 = float(kept.offsets[0])
    else:
        left = _lexmin(sub, 0, 1)
        if left is None:
            raise InfeasibleSubproblem(inst.name)
        v1 = left[0]
        _place_lexmin(known, *left[1:], first=True)
    if kept is not None and known[-1][0] == kept.count - 1:
        v2 = float(kept.offsets[1])
    else:
        right = _lexmin(sub, 1, 0)
        if right is None:
            raise InfeasibleSubproblem(inst.name)
        v2 = right[0]
        _place_lexmin(known, *right[1:], first=False)
    hyperplanes = [(np.array([1.0, 0.0]), v1), (np.array([0.0, 1.0]), v2)] + facets
    points = [y for _, y, _ in known]
    sols = [x for _, _, x in known]
    seen = {tuple(y.round(7)) for y in points}
    # the gaps not on a kept facet, the leftmost searched first
    stack = [(ka[1], kb[1]) for ka, kb in zip(known[::-1][1:], known[::-1])
             if ka[0] is None or kb[0] != ka[0] + 1]
    while stack:
        ya, yb = stack.pop()
        lam = _facet_normal(ya, yb)
        if lam is None:
            continue
        res = solve_lp(sub, lam @ inst.C)
        hyperplanes.append((lam, res.value))
        if res.value < float(lam @ ya) - FLOAT_TOL:
            yc = inst.C @ res.x
            key = tuple(yc.round(7))
            if key in seen:
                # a point found before: at objective values of 2**52 and
                # more, float64 rounding fakes the improvement, and
                # splitting again would never end
                continue
            seen.add(key)
            points.append(yc)
            sols.append(res.x)
            stack.append((ya, yc))
            stack.append((yc, yb))
    order = np.lexsort((np.asarray(points)[:, 1], np.asarray(points)[:, 0]))
    points = [points[i] for i in order]
    sols = [sols[i] for i in order]
    return LowerBoundSet(hyperplanes=hyperplanes,
                         extreme_points=points, extreme_solutions=sols,
                         facet_offsets=np.array([v1, v2]))


def _feasible_subsets(normals, rhs, subsets):
    """The p-tuples of plane indices in ``subsets`` whose planes meet in one
    point of {y : lam.y >= rhs for all planes}, as rows, and those points, by
    the gufuncs ``np.linalg.det`` and ``solve`` wrap."""
    combos = np.fromiter(itertools.chain.from_iterable(subsets), np.int64)
    combos = combos.reshape(-1, normals.shape[1])
    Ms = normals[combos]
    good = abs(_umath_linalg.det(Ms, signature="d->d")) > 1e-9
    combos = combos[good]
    verts = _umath_linalg.solve(Ms[good], rhs[combos][..., None], signature="dd->d")[..., 0]
    feas = (verts @ normals.T >= rhs - 1e-6).all(axis=1)
    return combos[feas], verts[feas]


def _first_occurrences(rows):
    """{row rounded to 7 decimals, as a tuple: index of its first occurrence},
    in order of first occurrence."""
    first = {}
    for i, key in enumerate(np.round(rows, 7).tolist()):
        first.setdefault(tuple(key), i)
    return first


def _distinct(verts):
    """``verts`` without repeats at 7 decimals, first occurrences in order."""
    return verts[list(_first_occurrences(verts).values())]


class _OuterRegion:
    """The vertices of {y : lam.y >= rhs for all planes}, kept up to date as
    planes are appended (the double description method: Motzkin et al. 1953;
    Fukuda & Prodon 1996).

    Rows pair a feasible p-subset of plane indices with the point its planes
    meet in. Appending a plane drops the rows it cuts off and solves, for every
    cut vertex, each (p-1)-subset of the planes active there together with the
    new plane. That finds every new vertex provided each appended normal is a
    nonnegative combination of the existing ones, as in ``refine_frontier``:
    then every recession direction of the region stays inside the new
    halfspace, so each new vertex lies on an edge (or ray) through a cut
    vertex, and the edges of a degenerate vertex lie in (p-1)-subsets of its
    active planes, not only in the faces of its one stored subset. Below p
    planes there is no vertex, so all p-subsets are solved on reaching p.
    ``normals`` and ``rhs`` view buffers that double when full.
    """

    def __init__(self, normals, rhs, p):
        self.p = p
        self._normals, self._rhs = np.empty((16, p)), np.empty(16)
        self.normals, self.rhs = self._normals[:0], self._rhs[:0]
        self.add(list(zip(normals, rhs)))

    def vertices(self):
        """The distinct vertices, ordered and valued as intersecting every
        p-subset of the same planes afresh gives them."""
        order = np.lexsort(self.subsets.T[::-1])
        return _distinct(self.points[order])

    def add(self, planes):
        """Append the planes lam.y >= r of ``planes`` [(lam, r)], in order."""
        h = len(self.rhs)
        n = h + len(planes)
        if n > len(self._rhs):
            self._normals = np.concatenate((self.normals, np.empty((n, self.p))))
            self._rhs = np.concatenate((self.rhs, np.empty(n)))
        for a, (lam, r) in enumerate(planes, h):
            self._normals[a], self._rhs[a] = lam, r
        self.normals, self.rhs = self._normals[:n], self._rhs[:n]
        if h < self.p:
            self.subsets, self.points = _feasible_subsets(
                self.normals, self.rhs, itertools.combinations(range(n), self.p))
        else:
            for a in range(h, n):
                self._cut(a)

    def _cut(self, a):
        """Update the rows for plane ``a``, given rows valid for planes < a."""
        normals, rhs, points = self._normals[:a + 1], self._rhs[:a + 1], self.points
        cut = points @ normals[a] < rhs[a] - 1e-6
        active = abs(points[cut] @ normals[:a].T - rhs[:a]) <= 1e-6
        # each distinct active set once: many rows can share a degenerate vertex
        sets = {tuple(itertools.compress(range(a), row)) for row in active.tolist()}
        faces = {face + (a,) for s in sets
                 for face in itertools.combinations(s, self.p - 1)}
        subsets, new = _feasible_subsets(normals, rhs, faces)
        keep = ~cut
        self.subsets = np.concatenate((self.subsets[keep], subsets))
        self.points = np.concatenate((points[keep], new))


def _vertex_weights(verts, normals, rhs):
    """For each vertex, whether any plane is active there (|slack| <= 1e-6),
    and the normalized sum of the active normals. The sums add the active rows
    in plane order, starting from zero, as ``normals[active].sum(axis=0)``
    does, so each row equals ``_normalize`` of that sum bit for bit."""
    active = abs(verts @ normals.T - rhs) <= 1e-6
    rows, planes = active.nonzero()
    # ufunc.at adds unbuffered, one index after another
    sums = np.zeros(verts.shape)
    np.add.at(sums, rows, normals[planes])
    has_active = active.any(axis=1)
    lams = np.divide(sums, sums.sum(axis=1, keepdims=True), out=np.zeros(sums.shape),
                     where=has_active[:, None])
    return has_active, lams


def _frontier_outer(sub: RelaxedSubproblem) -> LowerBoundSet:
    """Initial outer approximation of the frontier for p >= 3 objectives:
    planes for the augmented unit weights plus the all-ones weight, and the
    per-objective minima as axis facets. ``refine_frontier`` tightens it."""
    inst = sub.instance
    weights = augmented_unit_weights(inst.p)
    Cf = inst.C.astype(float)
    objs = np.vstack([np.asarray(weights) @ Cf, Cf])
    results = _solve_lps(sub, objs)
    if any(r.status == INFEASIBLE for r in results):
        raise InfeasibleSubproblem(inst.name)
    hyperplanes = [(w, res.value) for w, res in zip(weights, results)]
    sols = [res.x for res in results[:len(weights)]]
    points = [Cf @ x for x in sols]
    # valid axis facets from pure per-objective minima
    offsets = np.array([r.value for r in results[len(weights):]])
    points, sols = _dedupe_points(points, sols)
    return LowerBoundSet(hyperplanes=hyperplanes,
                         extreme_points=points, extreme_solutions=sols,
                         facet_offsets=offsets)


def _dedupe_points(points, sols):
    """The first of each repeated point at 7 decimals, with its solution,
    sorted by the rounded point."""
    first = _first_occurrences(points)
    keep = [first[k] for k in sorted(first)]
    return [points[i] for i in keep], [sols[i] for i in keep]


def refine_frontier(sub: RelaxedSubproblem, L: LowerBoundSet,
                    refine_max: int) -> LowerBoundSet:
    """Outer-approximation refinement of a bound set from
    ``lower_bound_frontier``, with at most ``refine_max`` LP solves.

    Vertices of the outer region that a fresh supporting hyperplane cuts off
    are removed in rounds. Stopping early keeps the bound valid, only weaker.
    Fathoming tests are monotone in the bound, so callers may first test the
    unrefined bound and only pay for refinement when the node survives.
    """
    inst = sub.instance
    if refine_max <= 0 or inst.p == 2:
        return L
    C = inst.C.astype(float)  # no cast per product
    hyperplanes = list(L.hyperplanes)
    points = list(L.extreme_points)
    sols = list(L.extreme_solutions)
    cache = {}     # plane key -> LpResult
    solves = 0
    supported = set()
    plane_keys = {tuple(np.round(lam, 9)) for lam, _ in hyperplanes}
    region = _OuterRegion(*zip(*hyperplanes), inst.p)
    while True:
        verts = region.vertices()
        if not len(verts):
            break
        has_active, lams = _vertex_weights(verts, region.normals, region.rhs)
        lam_keys = list(map(tuple, lams.round(9).tolist()))
        # plan the round in vertex order; a cached plane still counts as a solve
        plan = []
        vert_keys = map(tuple, verts.round(7).tolist())
        for i, (key, on) in enumerate(zip(vert_keys, has_active.tolist())):
            if key in supported or not on:
                continue
            if lam_keys[i] in plane_keys:
                supported.add(key)
                continue
            plan.append((i, key))
            if solves + len(plan) >= refine_max:
                break
        solves += len(plan)
        todo = {}
        for i, _ in plan:
            if lam_keys[i] not in cache:
                todo.setdefault(lam_keys[i], i)
        objs = [lams[i] @ C for i in todo.values()]
        cache.update(zip(todo, _solve_lps(sub, objs)))
        pending = {}
        for i, key in plan:
            res = cache[lam_keys[i]]
            if res.value > float(lams[i] @ verts[i]) + _FACET_TOL:
                # a copy: a view would keep the round's matrix alive
                pending.setdefault(lam_keys[i], (lams[i].copy(), res))
            else:
                supported.add(key)
        if not pending:
            break
        new_planes = [(lam, res.value) for lam, res in pending.values()]
        hyperplanes.extend(new_planes)
        plane_keys.update(pending)
        sols.extend(res.x for _, res in pending.values())
        points.extend(C @ res.x for _, res in pending.values())
        if solves >= refine_max:
            break
        region.add(new_planes)
    points, sols = _dedupe_points(points, sols)
    return LowerBoundSet(hyperplanes=hyperplanes,
                         extreme_points=points, extreme_solutions=sols,
                         facet_offsets=L.facet_offsets)


def lower_bound_frontier(sub: RelaxedSubproblem,
                         kept: KeptPoints = None) -> LowerBoundSet:
    """Full lower bound set of a subproblem's linear relaxation: exact for
    p == 2, an unrefined outer approximation for p >= 3 (see
    ``refine_frontier``). ``kept``, for p == 2 only, are the parent's extreme
    points that this child's fixing keeps; ``_frontier_2d`` starts from them.

    Raises InfeasibleSubproblem when the relaxation is empty.
    """
    if sub.instance.p == 2:
        return _frontier_2d(sub, kept)
    return _frontier_outer(sub)
