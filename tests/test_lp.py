"""Tests for the simplex core, relaxations and frontier lower bound sets."""

import collections
import itertools
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobb.lp
from mobb.bounds import LowerBoundSet
from mobb.cli import approach_config
from mobb.instances import GeneratorSpec, generate
from mobb.ipsolve import STATUS_OPTIMAL, solve_single_objective
from mobb.lp import (_FACET_TOL, _FEAS_TOL, _LEX_CAP, _PIVOT_TOL, INFEASIBLE,
                     OPTIMAL, UNBOUNDED, RelaxedSubproblem, _dedupe_solutions,
                     _distinct, _feasible_subsets, _greedy_knapsack_lp,
                     _greedy_knapsack_rows, _lexmin, _normalize, _OuterRegion,
                     _solve_lps, _Tableau, lower_bound_frontier,
                     refine_frontier, solve_lp)
from mobb.model import Instance, enumerate_nondominated
from mobb.solver import solve


def _simplex(c, A, b):
    """min c.y  s.t.  A y <= b, y >= 0, from a slack basis. Returns
    (status, value, y)."""
    tab = _Tableau.phase1(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
    if tab is None:
        return INFEASIBLE, 0.0, None
    if tab.optimize(c) == UNBOUNDED:
        return UNBOUNDED, 0.0, None
    value, y = tab.point()
    return OPTIMAL, value, y


def _region_vertices(normals, rhs, p):
    """Vertices of {y : lam.y >= rhs for all planes} via p-subset intersection:
    the reference for ``_OuterRegion``."""
    h = len(rhs)
    if h < p:
        return np.empty((0, p))
    return _distinct(_feasible_subsets(normals, rhs, itertools.combinations(range(h), p))[1])


def cover_instance():
    """min over [0,1]^2 with x1 + x2 >= 1 and identity objectives."""
    return Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[1], senses=("ge",),
                    name="cover")


def random_instance(seed, p=2, n=6):
    rng = np.random.default_rng(seed)
    return Instance(C=rng.integers(-20, 21, (p, n)),
                    A=rng.integers(0, 8, (2, n)),
                    b=rng.integers(1, 8 * n, 2), senses=("le", "le"),
                    name=f"rand{seed}")


def _images(inst, L):
    """The images C x of L's extreme solutions, one row each."""
    return np.asarray([inst.C @ x for x in L.extreme_solutions])


class TestSimplex:
    def test_forced_by_constraint(self):
        # min x1 s.t. -x1 - x2 <= -1, x <= 1 (boxed)
        A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([-1.0, 1.0, 1.0])
        status, value, y = _simplex(np.array([1.0, 0.0]), A, b)
        assert status == OPTIMAL
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_tight_constraint_sum(self):
        A = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([-1.0, 1.0, 1.0])
        status, value, _ = _simplex(np.array([1.0, 1.0]), A, b)
        assert status == OPTIMAL
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        # x1 >= 1 and x1 <= 0
        A = np.array([[-1.0], [1.0]])
        b = np.array([-1.0, 0.0])
        status, _, _ = _simplex(np.array([1.0]), A, b)
        assert status == INFEASIBLE

    def test_unbounded_detected(self):
        status, _, _ = _simplex(np.array([-1.0]), np.array([[0.0]]),
                                np.array([1.0]))
        assert status == "unbounded"


class TestSolveLp:
    def test_weighted_unit_direction(self):
        sub = RelaxedSubproblem(cover_instance())
        res = solve_lp(sub, np.array([1.0, 0.0]) @ sub.instance.C)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_equal_weights_on_tight_constraint(self):
        sub = RelaxedSubproblem(cover_instance())
        res = solve_lp(sub, np.array([0.5, 0.5]) @ sub.instance.C)
        assert res.value == pytest.approx(0.5, abs=1e-9)

    def test_fixings_substituted(self):
        sub = RelaxedSubproblem(cover_instance(), fixings={0: 1, 1: 0})
        res = solve_lp(sub, np.array([1.0, 1.0]))
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0)
        assert list(res.x) == [1.0, 0.0]

    def test_contradictory_fixings_infeasible(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 0]], b=[1], senses=("ge",))
        sub = RelaxedSubproblem(inst, fixings={0: 0})
        res = solve_lp(sub, np.array([1.0, 1.0]))
        assert res.status == INFEASIBLE

    def test_cut_rows_respected(self):
        inst = cover_instance()
        sub = RelaxedSubproblem(inst, cut_rows=[(np.array([1.0, 0.0]), 1.0)])
        res = solve_lp(sub, np.array([1.0, 0.0]))
        assert res.value == pytest.approx(1.0)


def _level_cut(inst, rng):
    """A cut lam.Cx >= rhs at a random height that keeps the root feasible;
    it also takes a knapsack off the greedy path and onto the simplex."""
    lam = rng.random(inst.p) + 0.05
    a = lam / lam.sum() @ inst.C
    lo = solve_lp(RelaxedSubproblem(inst), a).value
    hi = -solve_lp(RelaxedSubproblem(inst), -a).value
    return [(a, lo + float(rng.uniform(0.0, 0.9)) * (hi - lo))]


CHAIN_SPECS = [
    GeneratorSpec(family="GAP", p=2, seed=5, agents=3, jobs=4),
    GeneratorSpec(family="UFLP", p=2, seed=5, facilities=2, customers=4),
    GeneratorSpec(family="CFLP", p=2, seed=5, facilities=3, customers=3),
    GeneratorSpec(family="KP", p=2, seed=5, items=12),
]


def _pivot_dense(T, basis, r, j):
    """The reference Gauss-Jordan step, over every row of T."""
    T[r] /= T[r, j]
    factor = T[:, j].copy()
    factor[r] = 0.0
    T -= np.outer(factor, T[r])
    basis[r] = j


def _pivot_rows(T, basis, r, j):
    """The reference Gauss-Jordan step in the other update order: a gather
    and a scatter of only the rows with a nonzero in column j. Its values
    equal ``_pivot_dense``'s under ==."""
    T[r] /= T[r, j]
    factor = T[:, j].copy()
    factor[r] = 0.0
    nz = np.flatnonzero(factor)
    T[nz] -= factor[nz, None] * T[r]
    basis[r] = j


def _optimize_dense(T, basis, ncols):
    """The reference primal simplex: ratio tests masked over every row, and
    ``_pivot_rows``, so its pivots update the rows in another order than the
    kernel's. Reads ``mobb.lp._BLAND_AFTER`` when it runs."""
    rows = T[:-1]
    degenerate = 0
    while True:
        obj = T[-1, :ncols]
        use_bland = degenerate > mobb.lp._BLAND_AFTER
        if use_bland:
            cands = np.flatnonzero(obj < -_PIVOT_TOL)
            entering = int(cands[0]) if len(cands) else -1
        else:
            entering = int(np.argmin(obj))
            if obj[entering] >= -_PIVOT_TOL:
                entering = -1
        if entering < 0:
            return OPTIMAL
        col = rows[:, entering]
        pos = col > _PIVOT_TOL
        if not pos.any():
            return UNBOUNDED
        ratios = np.where(pos, rows[:, -1] / np.where(pos, col, 1.0), np.inf)
        rmin = float(ratios.min())
        if rmin <= _PIVOT_TOL:
            degenerate += 1
        tie = np.flatnonzero(np.abs(ratios - rmin) <= 1e-12)
        if use_bland and len(tie) > 1:
            leave = int(tie[np.argmin(basis[tie])])
        else:
            leave = int(tie[0])
        _pivot_rows(T, basis, leave, entering)


def _dual_optimize_dense(T, basis, ncols):
    """The reference dual simplex, masked and dense as ``_optimize_dense``."""
    rows = T[:-1]
    degenerate = 0
    while True:
        rhs = rows[:, -1]
        use_bland = degenerate > mobb.lp._BLAND_AFTER
        if use_bland:
            cands = np.flatnonzero(rhs < -_PIVOT_TOL)
            if not len(cands):
                return OPTIMAL
            leave = int(cands[np.argmin(basis[cands])])
        else:
            leave = int(np.argmin(rhs))
            if rhs[leave] >= -_PIVOT_TOL:
                return OPTIMAL
        row = rows[leave, :ncols]
        neg = row < -_PIVOT_TOL
        if not neg.any():
            if rhs[leave] < -_FEAS_TOL:
                return INFEASIBLE
            rows[leave, -1] = 0.0
            continue
        d = np.maximum(T[-1, :ncols], 0.0)
        ratios = np.where(neg, d / np.where(neg, -row, 1.0), np.inf)
        rmin = float(ratios.min())
        if rmin <= _PIVOT_TOL:
            degenerate += 1
        tie = np.flatnonzero(ratios - rmin <= 1e-12)
        if use_bland or len(tie) == 1:
            entering = int(tie[0])
        else:
            entering = int(tie[np.argmin(row[tie])])
        _pivot_rows(T, basis, leave, entering)


_DENSE = {"_pivot": _pivot_rows, "_optimize": _optimize_dense,
          "_dual_optimize": _dual_optimize_dense}


def _lockstep(kernel, reference, T, basis, *args):
    """Run ``reference`` on copies, then ``kernel`` in place: same status, and
    basis and T equal under ==, so a zero may differ only in its sign."""
    T_ref, basis_ref = T.copy(), basis.copy()
    want = reference(T_ref, basis_ref, *args)
    got = kernel(T, basis, *args)
    assert got == want
    assert np.array_equal(basis, basis_ref)
    assert np.array_equal(T, T_ref)
    return got


class _Lockstep:
    """Binds ``mobb.lp``'s kernel functions to wrappers that check every call
    against the dense reference; counts the calls made from outside the
    kernel (a pivot from phase 1's drive-out of artificials or from a
    fixing's ``_Tableau.fixed``, not from a simplex loop), and separately the
    pivots made by phase 1's drive-out."""

    def __init__(self, mp):
        self.calls = collections.Counter()
        self.depth = 0
        self.phase1_pivots = 0
        for name, ref in _DENSE.items():
            mp.setattr(mobb.lp, name, self._wrap(name, getattr(mobb.lp, name), ref))
        phase1 = _Tableau.phase1.__func__

        def counted(cls, A, b):
            before = self.calls["_pivot"]
            tab = phase1(cls, A, b)
            self.phase1_pivots += self.calls["_pivot"] - before
            return tab
        mp.setattr(_Tableau, "phase1", classmethod(counted))

    def _wrap(self, name, kernel, ref):
        def checked(T, basis, *args):
            if not self.depth:
                self.calls[name] += 1
            self.depth += 1
            try:
                return _lockstep(kernel, ref, T, basis, *args)
            finally:
                self.depth -= 1
        return checked


def _random_tableau(rng, m, nv, dual, integral):
    """Constraint rows [A | I | b] on a slack basis with reduced costs c on
    the structural columns: c >= 0 for the dual simplex, b >= 0 for the
    primal. Small integers give ties and degenerate pivots."""
    def draw(shape):
        vals = rng.integers(-3, 4, shape) * (rng.random(shape) < 0.5)
        return vals.astype(float) if integral else vals * rng.random(shape)
    T = np.zeros((m + 1, nv + m + 1))
    T[:m, :nv] = draw((m, nv))
    T[:m, nv:nv + m] = np.eye(m)
    T[:m, -1] = draw(m)
    T[-1, :nv] = draw(nv)
    if dual:
        T[-1, :nv] = np.abs(T[-1, :nv])
        # a value inside phase 1's tolerance below zero takes the rounding
        # noise branch
        T[:m, -1][rng.random(m) < 0.15] = -0.5 * _FEAS_TOL
    else:
        T[:m, -1] = np.abs(T[:m, -1])
    return T, nv + np.arange(m)


class TestKernelLockstep:
    """The kernel pivots by one broadcast over every row and runs its ratio
    tests on the candidate rows; every call must match the reference, which
    masks its ratio tests over every row and pivots only the rows its column
    touches."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8),
           st.booleans(), st.booleans(), st.sampled_from([1000, 0]))
    def test_random_tableaus(self, seed, m, nv, dual, integral, bland_after):
        rng = np.random.default_rng(seed)
        T, basis = _random_tableau(rng, m, nv, dual, integral)
        kernel, ref = ((mobb.lp._dual_optimize, _dual_optimize_dense) if dual
                       else (mobb.lp._optimize, _optimize_dense))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mobb.lp, "_BLAND_AFTER", bland_after)
            _lockstep(kernel, ref, T, basis, T.shape[1] - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           # small shapes, and the mean tableau shapes of kp2-scalarized and
           # lp2-general
           st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     st.sampled_from([(20, 35), (70, 95)])))
    def test_random_pivots(self, seed, shape):
        m, w = shape
        rng = np.random.default_rng(seed)
        # mostly zeros, as in a tableau, so many rows skip the update
        T = (rng.integers(-3, 4, (m + 1, w)) * rng.random((m + 1, w))
             * (rng.random((m + 1, w)) < 0.3))
        r, j = int(rng.integers(m)), int(rng.integers(w))
        T[r, j] = float(rng.integers(1, 4)) * rng.choice([-1.0, 1.0])
        for reference in (_pivot_dense, _pivot_rows):
            _lockstep(mobb.lp._pivot, reference, T.copy(), np.arange(m), r, j)

    @pytest.mark.parametrize("gap, first", [
        (0.0, True),       # an exact tie
        (5e-13, True),     # the later row smaller by less than 1e-12
        (-5e-13, True),    # the later row larger by less than 1e-12
        (1e-11, False),    # the later row smaller by more than 1e-12
    ])
    def test_primal_ratio_ties_leave_the_first_row(self, gap, first):
        # min -y over y <= 1 and y <= 1 - gap: y enters, and one pivot ends it
        T = np.array([[1.0, 1.0, 0.0, 1.0],
                      [1.0, 0.0, 1.0, 1.0 - gap],
                      [-1.0, 0.0, 0.0, 0.0]])
        basis = np.array([1, 2])
        assert _lockstep(mobb.lp._optimize, _optimize_dense, T, basis, 3) == OPTIMAL
        assert list(basis) == ([0, 2] if first else [1, 0])

    def test_bland_ratio_ties_leave_the_least_basic_index(self, monkeypatch):
        # both rows tie at ratio 0; row 0's basic column has the larger index
        monkeypatch.setattr(mobb.lp, "_BLAND_AFTER", -1)
        T = np.array([[1.0, 0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0, 0.0],
                      [-1.0, 0.0, 0.0, 0.0]])
        basis = np.array([2, 1])
        assert _lockstep(mobb.lp._optimize, _optimize_dense, T, basis, 3) == OPTIMAL
        assert list(basis) == [2, 0]

    @pytest.mark.parametrize("d1, entering", [
        (2.0, 1),            # an exact tie: the larger pivot, -2 over -1
        (2.0 + 1e-12, 1),    # the larger pivot's ratio above by 5e-13
        (2.0 - 1e-12, 1),    # the larger pivot's ratio below by 5e-13
        (2.0 + 1e-10, 0),    # no tie: the least ratio
    ])
    def test_dual_ratio_ties_keep_the_largest_pivot(self, d1, entering):
        # -y0 - 2 y1 + s = -1 with reduced costs 1 and d1: ratios 1 and d1 / 2
        T = np.array([[-1.0, -2.0, 1.0, -1.0],
                      [1.0, d1, 0.0, 0.0]])
        basis = np.array([2])
        assert _lockstep(mobb.lp._dual_optimize, _dual_optimize_dense,
                         T, basis, 3) == OPTIMAL
        assert list(basis) == [entering]

    @pytest.mark.parametrize("bland_after", [1000, 0])
    @pytest.mark.parametrize("family", range(len(CHAIN_SPECS)))
    def test_phase1_frontier_and_warm_children(self, family, bland_after):
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(family)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mobb.lp, "_BLAND_AFTER", bland_after)
            lock = _Lockstep(mp)
            sub = RelaxedSubproblem(inst, {}, cuts)
            lower_bound_frontier(sub)
            for j in range(3):
                for v in (0, 1):
                    child = sub.branch(j, v)
                    if solve_lp(child, inst.C[0] + inst.C[1]).status == OPTIMAL:
                        lower_bound_frontier(child)
        assert lock.calls["_optimize"] >= 10
        assert lock.calls["_dual_optimize"] >= 3
        # GAP, UFLP and CFLP have equality rows: phase 1 ends with
        # artificials basic at zero and pivots them out
        assert (lock.phase1_pivots > 0) == (inst.m > 1)
        # a fixing of a basic variable pivots it out of the basis
        assert lock.calls["_pivot"] > lock.phase1_pivots

    @pytest.mark.parametrize("spec, cut", [
        (GeneratorSpec(family="GAP", p=2, seed=1, agents=4, jobs=7), False),
        (GeneratorSpec(family="KP", p=2, seed=1, items=16), True),
    ])
    def test_ip_tree(self, spec, cut):
        # a scalarized IP's tree: the fixings' pivots, the warm children's
        # dual simplex and every reprice are checked; a level cut takes the
        # knapsack onto the simplex
        inst = generate(spec)
        cuts = _level_cut(inst, np.random.default_rng(0)) if cut else []
        c = inst.C[0].astype(float)
        with pytest.MonkeyPatch.context() as mp:
            lock = _Lockstep(mp)
            res = solve_single_objective(RelaxedSubproblem(inst, {}, cuts), c)
        assert res.status == STATUS_OPTIMAL
        assert res == solve_single_objective(RelaxedSubproblem(inst, {}, cuts), c)
        assert lock.calls["_optimize"] >= 15
        assert lock.calls["_dual_optimize"] >= 10
        assert lock.calls["_pivot"] > lock.phase1_pivots

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
    def test_phase1_on_random_equalities(self, seed, m, nv):
        # each row twice, as a.y <= b and -a.y <= -b, as le_normalized writes
        # an equality; the second copy starts on an artificial
        rng = np.random.default_rng(seed)
        A = rng.integers(-2, 3, (m, nv)).astype(float)
        b = (np.abs(A) @ rng.integers(0, 2, nv)).astype(float)
        with pytest.MonkeyPatch.context() as mp:
            _Lockstep(mp)
            _Tableau.phase1(np.vstack([A, -A, np.eye(nv)]),
                            np.concatenate([b, -b, np.ones(nv)]))


def _fixed_reference(tab, c, v):
    """``_Tableau.fixed`` with the column deleted by ``np.delete``."""
    T = np.delete(tab.T, c, axis=1)
    T[:, -1] -= v * tab.T[:, c]
    basis = tab.basis - (tab.basis > c)
    r = np.flatnonzero(tab.basis == c)
    if len(r):
        r = int(r[0])
        row, rhs = T[r, :-1], T[r, -1]
        cand = np.abs(row) > _PIVOT_TOL
        if abs(rhs) > _FEAS_TOL:
            cand &= (row > 0) == (rhs > 0)
        cand = np.flatnonzero(cand)
        if not len(cand):
            return None
        ratios = np.maximum(T[-1, cand], 0.0) / np.abs(row[cand])
        tie = cand[ratios - np.min(ratios) <= 1e-12]
        mobb.lp._pivot(T, basis, r, int(tie[np.argmax(np.abs(row[tie]))]))
    return T, basis


def _with_row_reference(tab, a, rhs):
    """``_Tableau.with_row`` by ``np.insert`` of the slack column and the
    row, and ``np.append`` of the slack to the basis."""
    m, w = len(tab.basis), tab.T.shape[1]
    T = np.insert(tab.T, w - 1, 0.0, axis=1)
    row = np.zeros(w + 1)
    row[:tab.nv] = a
    row[w - 1] = 1.0
    row[-1] = rhs
    T = np.insert(T, m, row - row[tab.basis] @ T[:m], axis=0)
    return T, np.append(tab.basis, w - 1)


class TestTableauCopies:
    """The copies a child or a cut row starts from equal, bit for bit, the
    same copies written with numpy's delete, insert and append."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.booleans(), st.booleans())
    def test_fixed_and_with_row(self, seed, m, nv, dual, integral):
        rng = np.random.default_rng(seed)
        T, basis = _random_tableau(rng, m, nv, dual, integral)
        if not dual:
            # structural columns enter the basis, so fixing one pivots it out
            mobb.lp._optimize(T, basis, T.shape[1] - 1)
        tab = _Tableau(T, basis, nv)
        before = T.copy(), basis.copy()
        for c in range(nv):
            for v in (0, 1):
                got, ref = tab.fixed(c, v), _fixed_reference(tab, c, v)
                assert (got is None) == (ref is None)
                if got is not None:
                    assert np.array_equal(got.T, ref[0])
                    assert np.array_equal(got.basis, ref[1])
                    assert got.basis.dtype == ref[1].dtype and got.nv == nv - 1
        a, rhs = rng.integers(-3, 4, nv).astype(float), float(rng.integers(-2, 5))
        got, ref = tab.with_row(a, rhs), _with_row_reference(tab, a, rhs)
        assert np.array_equal(got.T, ref[0])
        assert np.array_equal(got.basis, ref[1])
        assert got.basis.dtype == ref[1].dtype
        # the copies leave the tableau they were made from as it was
        assert np.array_equal(tab.T, before[0]) and np.array_equal(tab.basis, before[1])


def _matches_fresh(sub, c):
    """``solve_lp(sub, c)`` against a fresh subproblem with the same fixings
    and cut rows: the same status, the value within 1e-7, every fixing exact."""
    got = solve_lp(sub, c)
    ref = solve_lp(RelaxedSubproblem(sub.instance, dict(sub.fixings),
                                     list(sub.cut_rows)), c)
    assert got.status == ref.status
    if got.status == OPTIMAL:
        assert abs(got.value - ref.value) <= 1e-7
        assert all(got.x[i] == u for i, u in sub.fixings.items())
    return got


class TestWarmChildren:
    """``RelaxedSubproblem.branch`` children start from the parent's optimal
    tableau and must solve as a freshly built subproblem does."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(CHAIN_SPECS) - 1), st.integers(0, 10_000))
    def test_chain_matches_fresh(self, family, seed):
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(seed)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        objectives = [rng.random(inst.p) @ inst.C,
                      rng.integers(-20, 21, inst.n).astype(float)]
        sub = RelaxedSubproblem(inst, {}, cuts)
        assert solve_lp(sub, objectives[0]).status == OPTIMAL
        warm = 0
        while len(sub.cols):
            j = int(rng.choice(sub.cols))
            c = objectives[int(rng.random() < 0.3)]
            feasible = []
            for v in (0, 1):
                child = sub.branch(j, v)
                warm += child.tableau is not None
                if _matches_fresh(child, c).status == OPTIMAL:
                    feasible.append(child)
            if not feasible:
                break
            sub = feasible[int(rng.integers(len(feasible)))]
        assert warm >= 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, len(CHAIN_SPECS) - 1), st.integers(0, 10_000))
    def test_chain_arrays_equal_fresh(self, family, seed):
        # a child's free columns and fixings, updated in place of a rebuild,
        # hold exactly what a fresh subproblem with its fixings holds
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(seed)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        c = rng.random(inst.p) @ inst.C
        sub = RelaxedSubproblem(inst, {}, cuts)
        solve_lp(sub, c)
        warm = 0
        while len(sub.cols):
            j = int(rng.choice(sub.cols))
            child = sub.branch(j, int(rng.integers(2)))
            warm += child.tableau is not None
            fresh = RelaxedSubproblem(inst, dict(child.fixings), list(cuts))
            for name in ("cols", "fixed_idx", "xf"):
                got, ref = getattr(child, name), getattr(fresh, name)
                assert np.array_equal(got, ref) and got.dtype == ref.dtype, name
            # solve some children, and branch others before their first solve
            if rng.random() < 0.5 and solve_lp(child, c).status != OPTIMAL:
                break
            sub = child
        assert warm >= 1

    @pytest.mark.parametrize("family", range(len(CHAIN_SPECS)))
    def test_parent_objective_needs_no_primal_pivot(self, monkeypatch, family):
        # the copy keeps the parent's reduced costs, so once the dual simplex
        # is done the tableau is optimal for the parent's objective
        primal_moves = []
        optimize = mobb.lp._optimize

        def watched(T, basis, ncols):
            before = basis.copy()
            status = optimize(T, basis, ncols)
            primal_moves.append(not np.array_equal(before, basis))
            return status

        monkeypatch.setattr(mobb.lp, "_optimize", watched)
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(family)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        c = rng.random(inst.p) @ inst.C
        sub = RelaxedSubproblem(inst, {}, cuts)
        solve_lp(sub, c)
        solved = 0
        while len(sub.cols):
            j = int(rng.choice(sub.cols))
            feasible = []
            for v in (0, 1):
                child = sub.branch(j, v)
                primal_moves.clear()
                if solve_lp(child, c).status == OPTIMAL:
                    assert primal_moves == [False]
                    feasible.append(child)
                    solved += 1
            if not feasible:
                break
            sub = feasible[int(rng.integers(len(feasible)))]
        assert solved >= 4

    def test_child_branched_before_its_solve(self):
        # branching the child substitutes its own fixing first, so the
        # grandchild holds one pending fixing on the child's tableau
        inst = generate(CHAIN_SPECS[0])
        c = inst.C[0] + inst.C[1]
        sub = RelaxedSubproblem(inst)
        solve_lp(sub, c)
        checked = 0
        for j, k in ((0, 1), (2, 7), (5, 3)):
            for v, u in ((0, 0), (0, 1), (1, 0), (1, 1)):
                child = sub.branch(j, v)
                grand = child.branch(k, u)
                assert child.pending is None
                assert grand.pending is None or grand.tableau is child.tableau
                checked += _matches_fresh(grand, c).status == OPTIMAL
                _matches_fresh(child, c)
        assert checked >= 6

    def test_last_free_variable(self):
        # x0 + x1 + x2 = 2: every chain of warm children down to no free
        # variable, in every order, ends at one of the three points or at an
        # infeasible child whose parent was feasible
        inst = Instance(C=[[1, 2, 4], [4, 1, 2]], A=[[1, 1, 1]], b=[2],
                        senses=("eq",))
        c = (inst.C[0] + inst.C[1]).astype(float)
        ends = collections.Counter()
        for order in itertools.permutations(range(3)):
            for values in itertools.product((0, 1), repeat=3):
                sub = RelaxedSubproblem(inst)
                solve_lp(sub, c)
                for j, v in zip(order, values):
                    sub = sub.branch(j, v)
                    assert sub.tableau is not None
                    status = _matches_fresh(sub, c).status
                    if status == INFEASIBLE:
                        break
                if not len(sub.cols):
                    ends[status] += 1
        assert ends == {OPTIMAL: 18, INFEASIBLE: 18}

    @pytest.mark.parametrize("family", range(len(CHAIN_SPECS)))
    def test_basic_variable_already_at_its_value(self, family):
        # a degenerate basis holds y_j basic at 0 or 1; fixing it there
        # leaves its row with a zero right-hand side and no basic column
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(family)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        sub = RelaxedSubproblem(inst, {}, cuts)
        checked = 0
        for _ in range(8):
            c = rng.random(inst.p) @ inst.C
            solve_lp(sub, c)
            tab = sub.tableau
            for r in np.flatnonzero(tab.basis < tab.nv):
                j = int(sub.cols[tab.basis[r]])
                for v in (0, 1):
                    if tab.T[r, -1] == v:
                        assert _matches_fresh(sub.branch(j, v), c).status == OPTIMAL
                        checked += 1
        assert checked >= 1

    @pytest.mark.parametrize("family", range(len(CHAIN_SPECS)))
    def test_other_cut_rows_build_the_child_afresh(self, monkeypatch, family):
        # a cut added (as SLB adds one), the cuts dropped (as pruning drops
        # them) or an equal row that is not the parent's own: the child's
        # first solve runs phase 1 and equals a fresh subproblem's, while a
        # child keeping the parent's rows starts from its tableau
        runs = []
        phase1 = _Tableau.phase1.__func__

        def counted(cls, A, b):
            runs.append(1)
            return phase1(cls, A, b)

        monkeypatch.setattr(_Tableau, "phase1", classmethod(counted))
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(family)
        rows = _level_cut(inst, rng)
        (a, r), = rows
        c = rng.random(inst.p) @ inst.C
        sub = RelaxedSubproblem(inst, {}, rows)
        assert solve_lp(sub, c).status == OPTIMAL and sub.tableau is not None
        j = int(rng.integers(inst.n))
        for other in (rows + _level_cut(inst, rng), [], [(a.copy(), r)]):
            for v in (0, 1):
                child = sub.branch(j, v, other)
                assert child.tableau is None
                assert all(x is y for x, y in zip(child.cut_rows, other))
                runs.clear()
                got = solve_lp(child, c)
                # a knapsack left without the cut takes the greedy
                assert len(runs) == int(not child.knapsack)
                _same_result(got, solve_lp(
                    RelaxedSubproblem(inst, {j: v}, list(other)), c))
        for kept in (None, rows, list(rows)):
            for v in (0, 1):
                child = sub.branch(j, v, kept)
                assert child.tableau is sub.tableau
                runs.clear()
                got = solve_lp(child, c)
                assert not runs
                ref = solve_lp(RelaxedSubproblem(inst, {j: v}, list(rows)), c)
                assert got.status == ref.status
                if got.status == OPTIMAL:
                    assert abs(got.value - ref.value) <= 1e-7

    def test_heavy_item_fixed_in_is_infeasible(self):
        # a knapsack with a loose level cut goes through the simplex; item 2
        # alone outweighs the capacity
        inst = Instance(C=[[-5, -4, -3], [-1, -2, -6]], A=[[4, 2, 9]], b=[6],
                        senses=("le",))
        sub = RelaxedSubproblem(inst, {}, [(np.ones(3), 0.0)])
        c = np.array([-1.0, -1.0, -1.0])
        assert solve_lp(sub, c).status == OPTIMAL
        child = sub.branch(2, 1)
        assert child.tableau is not None
        assert solve_lp(child, c).status == INFEASIBLE
        assert solve_lp(child, c).status == INFEASIBLE
        res = solve_lp(sub.branch(2, 0), c)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(-2.0)

    def test_knapsack_parent_builds_children_fresh(self):
        inst = Instance(C=[[-5, -4, -3], [-1, -2, -6]], A=[[4, 2, 9]], b=[6],
                        senses=("le",))
        sub = RelaxedSubproblem(inst)
        solve_lp(sub, inst.C[0])
        assert sub.knapsack
        child = sub.branch(0, 1)
        assert child.tableau is None
        assert solve_lp(child, inst.C[0]).value == pytest.approx(-9.0)


def _same_result(got, ref):
    assert got.status == ref.status
    if ref.status == OPTIMAL:
        assert got.value == ref.value and got.x.tobytes() == ref.x.tobytes()


class TestCopies:
    @pytest.mark.parametrize("family", range(len(CHAIN_SPECS)))
    def test_solved_copies_leave_their_parent_as_it_was(self, family):
        # warm children and a with_row copy are shallow copies of their
        # parent; solving them, and branching below them, must not write
        # into the parent's fixings, cut rows or tableau
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(family)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        objs = [rng.random(inst.p) @ inst.C for _ in range(3)]
        sub = RelaxedSubproblem(inst, {}, cuts)
        x = solve_lp(sub, objs[0]).x
        before = (dict(sub.fixings), list(sub.cut_rows), sub.tableau.T.tobytes(),
                  sub.tableau.basis.tobytes(), sub.cols.tobytes())
        a = np.zeros(len(sub.cols))
        a[int(np.flatnonzero(x < 0.5)[0])] = -1.0
        copies = [sub.branch(j, v) for j in range(3) for v in (0, 1)]
        assert all(child.tableau is sub.tableau for child in copies)
        copies.append(sub.with_row(a, -1.0))
        for copy in copies:
            for c in objs:
                if solve_lp(copy, c).status == OPTIMAL:
                    solve_lp(copy.branch(int(copy.cols[-1]), 1), c)
        assert sub.fixings == before[0] and sub.fixings is not copies[0].fixings
        assert len(sub.cut_rows) == len(before[1])
        assert all(map(operator.is_, sub.cut_rows, before[1]))
        assert sub.tableau.T.tobytes() == before[2]
        assert sub.tableau.basis.tobytes() == before[3]
        assert sub.cols.tobytes() == before[4]
        assert sub.pending is None and not sub.infeasible


class TestWithRow:
    def test_parent_solves_as_if_no_copy_was_made(self):
        inst = generate(CHAIN_SPECS[0])
        rng = np.random.default_rng(1)
        objs = [rng.random(inst.p) @ inst.C for _ in range(6)]
        sub, twin = RelaxedSubproblem(inst), RelaxedSubproblem(inst)
        x = solve_lp(sub, objs[0]).x
        solve_lp(twin, objs[0])
        # x_j >= 1 for a variable at 0: the copy's dual simplex must pivot
        j = int(np.flatnonzero(x < 0.5)[0])
        a = np.zeros(len(sub.cols))
        a[j] = -1.0
        copy = sub.with_row(a, -1.0)
        got = solve_lp(copy, objs[1])
        assert got.status == OPTIMAL and got.x[j] == pytest.approx(1.0)
        m = len(sub.tableau.basis)
        assert not np.array_equal(copy.tableau.basis[:m], sub.tableau.basis)
        for c in objs[1:]:
            _same_result(solve_lp(sub, c), solve_lp(twin, c))
        assert sub.tableau.T.tobytes() == twin.tableau.T.tobytes()

    def test_needs_a_tableau(self):
        inst = generate(CHAIN_SPECS[3])
        sub = RelaxedSubproblem(inst)
        solve_lp(sub, inst.C[0])
        with pytest.raises(ValueError):
            sub.with_row(np.ones(len(sub.cols)), 1.0)


def _lexmin_reference(sub, k, j):
    """``_lexmin`` on a simplex relaxation with stage 2 run by hand: phase 2
    on a copy of the stage-1 tableau with the cap row appended, and no dual
    simplex."""
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
        capped = sub.tableau.with_row(a, cap)
        capped.optimize(inst.C[j, sub.cols].astype(float))
        x = sub.full_x(np.clip(capped.point()[1], 0.0, 1.0))
    return vk, inst.C @ x, x


class TestLexmin:
    """``_lexmin`` on a simplex relaxation, through ``solve_lp`` on a
    ``with_row`` copy, equals the hand-driven stage 2 bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(CHAIN_SPECS) - 1), st.integers(0, 10_000),
           st.booleans())
    def test_equals_reference(self, family, seed, level_cut):
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(seed)
        # a knapsack needs the cut to leave the greedy
        cuts = _level_cut(inst, rng) if level_cut or inst.m == 1 else []
        fixed = rng.permutation(inst.n)[:int(rng.integers(0, inst.n // 2))]
        fixings = {int(j): int(rng.integers(2)) for j in fixed}
        sub = RelaxedSubproblem(inst, fixings, cuts)
        twin = RelaxedSubproblem(inst, dict(fixings), cuts)
        assert not sub.knapsack
        for k, j in ((0, 1), (1, 0), (0, 1)):
            got = _lexmin(sub, k, j)
            ref = _lexmin_reference(twin, k, j)
            assert (got is None) == (ref is None)
            if ref is None:
                return
            assert got[0] == ref[0]
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[2].tobytes() == ref[2].tobytes()
        assert sub.tableau.T.tobytes() == twin.tableau.T.tobytes()


def _knapsack_lexmin_oracle(c, d, w, cap):
    """The lexicographically smallest (c.y, d.y) over w.y <= cap, 0 <= y <= 1,
    in exact arithmetic, and every vertex y that attains it; None when cap < 0.
    The vertices are each subset taken whole, plus at most one more item cut
    to the capacity left."""
    c, d, w = ([Fraction(int(v)) for v in row] for row in (c, d, w))
    cap = Fraction(int(cap))
    if cap < 0:
        return None
    n = len(w)
    best, argbest = None, []
    for whole in itertools.product((0, 1), repeat=n):
        y = [Fraction(v) for v in whole]
        left = cap - sum(wi * yi for wi, yi in zip(w, y))
        if left < 0:
            continue
        cuts = [i for i in range(n) if not whole[i] and w[i] > left]
        for i in [None] + cuts:
            v = list(y)
            if i is not None:
                v[i] = left / w[i]
            key = (sum(map(operator.mul, c, v)), sum(map(operator.mul, d, v)))
            if best is None or key < best:
                best, argbest = key, [v]
            elif key == best:
                argbest.append(v)
    return best, argbest


def _random_knapsack(rng, n):
    """A knapsack instance whose two objectives and weight carry zeros, ratios
    tied within and across objectives, and a capacity of every kind, with up
    to n // 2 fixings that leave some weight free."""
    w = rng.integers(0, 10, n)
    w[rng.random(n) < 0.25] = 0
    C = rng.integers(-9, 10, (2, n))
    C[rng.random((2, n)) < 0.25] = 0
    tied = rng.random((2, n)) < 0.3
    C[tied] = (-w * rng.integers(1, 3, (2, n)))[tied]
    cap = {0: 0, 1: -int(rng.integers(1, 4)), 2: int(w.sum()),
           3: int(w.sum()) + 2}.get(int(rng.integers(6)), int(rng.integers(0, w.sum() + 1)))
    fixed = rng.permutation(n)[:int(rng.integers(0, n // 2 + 1))]
    free = np.setdiff1d(np.arange(n), fixed)
    if not w[free].any():
        w[free[0]] = int(rng.integers(1, 10))
    inst = Instance(C=C, A=[w], b=[cap], senses=("le",))
    return inst, {int(j): int(rng.integers(2)) for j in fixed}


def _check_knapsack_lexmin(inst, fixings, k, j):
    """``_lexmin(sub, k, j)`` on a knapsack against the exact oracle: the same
    emptiness, the values within 1e-9 and x within 1e-9 of an optimal vertex."""
    sub = RelaxedSubproblem(inst, fixings)
    assert sub.knapsack
    got = _lexmin(sub, k, j)
    cols = sub.cols
    offset = inst.C[:, sub.fixed_idx] @ sub.xf
    cap = int(inst.b[0]) - sum(int(inst.A[0, i]) * v for i, v in fixings.items())
    ref = _knapsack_lexmin_oracle(inst.C[k, cols], inst.C[j, cols], inst.A[0, cols], cap)
    assert (got is None) == (ref is None)
    if ref is None:
        return None
    (vk, vj), vertices = ref
    assert got[0] == pytest.approx(float(vk) + offset[k], rel=1e-15, abs=1e-9)
    assert got[1][k] == pytest.approx(float(vk) + offset[k], rel=1e-15, abs=1e-9)
    assert got[1][j] == pytest.approx(float(vj) + offset[j], rel=1e-15, abs=1e-9)
    assert all(got[2][i] == v for i, v in fixings.items())
    assert any(np.abs(got[2][cols] - np.array(v, dtype=float)).max() <= 1e-9
               for v in vertices)
    assert sub.tableau is None
    return got


class TestKnapsackLexmin:
    """A knapsack's lexicographic minimum is the greedy's, exact, with no
    tableau."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_matches_exact_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        inst, fixings = _random_knapsack(rng, n)
        for k, j in ((0, 1), (1, 0)):
            _check_knapsack_lexmin(inst, fixings, k, j)

    def test_oracle_cases_are_covered(self):
        # the generator the hypothesis test draws from covers every case
        # that ``_random_knapsack`` names
        seen = collections.Counter()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            inst, fixings = _random_knapsack(rng, int(rng.integers(1, 9)))
            w, C = inst.A[0], inst.C
            cap = int(inst.b[0]) - sum(int(w[i]) * v for i, v in fixings.items())
            paid = w > 0
            ratios = [tuple(row[paid] / w[paid]) for row in C]
            seen["tie"] += any(len(set(r)) < len(r) for r in ratios)
            seen["zero cost"] += bool((C == 0).any())
            seen["zero weight"] += bool((~paid).any())
            seen["fixings"] += bool(fixings)
            seen["infeasible"] += cap < 0
            if _check_knapsack_lexmin(inst, fixings, 0, 1) is not None:
                seen["solved"] += 1
        assert min(seen.values()) >= 10 and len(seen) == 6, seen

    @pytest.mark.parametrize("C, w, cap, expected", [
        # nearly tied: -(d - 1)/d and -d/(d + 1) differ by 1/(d(d + 1)), about
        # 2**-52, with every |c_i| w_j just below 2**52; item 0 is cheaper in
        # the second objective, so a float tie would take it first
        ([[-(2**26 - 3), -(2**26 - 2)], [-1, 0]], [2**26 - 2, 2**26 - 1],
         2**26 - 1, [0.0, 1.0]),
        # exactly tied, with the largest |c_i| w_j at 2**52 - 4: the second
        # objective decides
        ([[-(2**25 - 1), -(2**26 - 2)], [0, -1]], [2**25 + 1, 2**26 + 2],
         2**26 + 2, [0.0, 1.0]),
    ], ids=["nearly-tied", "exactly-tied"])
    def test_ties_at_large_magnitudes(self, C, w, cap, expected):
        assert max(abs(c) for row in C for c in row) * max(w) < 2**52
        inst = Instance(C=C, A=[w], b=[cap], senses=("le",))
        vk, _, x = _check_knapsack_lexmin(inst, {}, 0, 1)
        assert x.tolist() == expected

    @pytest.mark.parametrize("seed", [1, 5])
    def test_kp_solve_builds_no_tableau(self, monkeypatch, seed):
        # every relaxation of a KP at p = 2 under NS(LHG) is a knapsack, which
        # answers its LPs and both lexicographic minima by the greedy alone
        runs = []
        phase1 = _Tableau.phase1.__func__
        monkeypatch.setattr(_Tableau, "phase1", classmethod(
            lambda cls, A, b: runs.append(1) or phase1(cls, A, b)))
        inst = generate(GeneratorSpec(family="KP", p=2, seed=seed, items=14))
        points, _, stats = solve(inst, approach_config("NS(LHG)", 600.0))
        assert stats.solved and stats.nodes_explored > 50
        assert not runs
        assert (sorted(tuple(int(v) for v in y) for y in points)
                == sorted(tuple(s.image) for s in enumerate_nondominated(inst)))


class TestGreedyKnapsackLp:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 9))
    def test_matches_simplex(self, seed, n):
        rng = np.random.default_rng(seed)
        c = rng.integers(-30, 31, n).astype(float)
        w = rng.integers(0, 15, n).astype(float)
        cap = float(rng.integers(0, max(int(w.sum()), 1) + 1))
        y = _greedy_knapsack_lp(c, w, cap)
        A = np.vstack([w[None, :], np.eye(n)])
        b = np.concatenate([[cap], np.ones(n)])
        status, value, _ = _simplex(c, A, b)
        assert status == OPTIMAL
        assert float(c @ y) == pytest.approx(value, abs=1e-7)
        assert float(w @ y) <= cap + 1e-9
        assert np.all(y >= -1e-12) and np.all(y <= 1 + 1e-12)


class TestGreedyKnapsackRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 20),
           st.sampled_from(["zero", "infeasible", "inside", "sum", "above"]),
           st.sampled_from([1.0, 0.1, 1 / 3]), st.booleans())
    def test_rows_equal_scalar_greedy(self, seed, k, n, cap_kind, scale, fortran):
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 15, n) * scale
        w[rng.random(n) < 0.2] = 0.0
        C = rng.integers(-30, 31, (k, n)) * scale
        # rows whose ratios take two values, and rows with no negative cost
        ties = rng.random(k) < 0.3
        C[ties] = -w * rng.integers(1, 3, (int(ties.sum()), n))
        nonneg = rng.random(k) < 0.2
        C[nonneg] = np.abs(C[nonneg])
        cap = {"zero": 0.0, "infeasible": -1.0, "inside": rng.uniform(0, w.sum()),
               "sum": float(w.sum()), "above": float(w.sum()) + 2.5}[cap_kind]
        if fortran:
            # objs[:, cols] comes out Fortran-ordered
            cols = np.sort(rng.permutation(n + 3)[:n])
            wide = np.zeros((k, n + 3))
            wide[:, cols] = C
            C = wide[:, cols]
        Y = _greedy_knapsack_rows(C, w, cap)
        if cap_kind == "infeasible":
            assert Y is None and _greedy_knapsack_lp(C[0].copy(), w, cap) is None
            return
        for r in range(k):
            c = C[r].copy()
            y = _greedy_knapsack_lp(c, w, cap)
            assert Y[r].tobytes() == y.tobytes()
            assert float(c @ Y[r]) == float(c @ y)

    @pytest.mark.parametrize("fixings", [{}, {0: 1}, {2: 0, 5: 1, 6: 1},
                                         {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}])
    def test_solve_lps_equals_solve_lp_on_a_knapsack(self, fixings):
        inst = generate(GeneratorSpec(family="KP", p=3, seed=3, items=8))
        rng = np.random.default_rng(0)
        lams = rng.random((12, 3))
        objs = [_normalize(lam) @ inst.C for lam in lams]
        sub = RelaxedSubproblem(inst, fixings)
        assert sub.knapsack
        got = _solve_lps(sub, objs)
        for c, res in zip(objs, got):
            ref = solve_lp(sub, c)
            assert res.status == ref.status
            if ref.status == OPTIMAL:
                assert res.value == ref.value
                assert res.x.tobytes() == ref.x.tobytes()

    def test_other_relaxations_go_through_solve_lp(self, monkeypatch):
        inst = generate(GeneratorSpec(family="GAP", p=3, seed=1, agents=2, jobs=3))
        sub = RelaxedSubproblem(inst)
        twin = RelaxedSubproblem(inst)
        assert not sub.knapsack
        objs = [inst.C[k].astype(float) for k in range(3)]
        seen = []
        original = mobb.lp.solve_lp
        monkeypatch.setattr(mobb.lp, "solve_lp",
                            lambda s, c: seen.append(c) or original(s, c))
        got = _solve_lps(sub, objs)
        assert [c.tolist() for c in seen] == [c.tolist() for c in objs]
        for c, res in zip(objs, got):
            ref = original(twin, c)
            assert res.value == ref.value and res.x.tobytes() == ref.x.tobytes()


def _distinct_reference(verts):
    """``verts`` without repeats at 7 decimals, by ``np.unique``."""
    if not len(verts):
        return verts
    _, idx = np.unique(np.round(verts, 7), axis=0, return_index=True)
    return verts[np.sort(idx)]


def _dedupe_points_reference(points, sols):
    """The first of each repeated point at 7 decimals, by a loop per point."""
    uniq = {}
    for y, x in zip(points, sols):
        uniq.setdefault(tuple(np.round(y, 7)), (y, x))
    return ([uniq[k][0] for k in sorted(uniq)],
            [uniq[k][1] for k in sorted(uniq)])


# values that round apart, values that round together at 7 decimals, and
# both zeros
_NEAR = [0.0, -0.0, 1.0, 1.00000001, 0.99999999, 2.5, 2.50000004, -3.25,
         -3.2500000400001, 1e-8, -1e-8]


class TestDistinctRows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(1, 4))
    def test_distinct_equals_unique(self, seed, m, p):
        rng = np.random.default_rng(seed)
        verts = rng.choice(_NEAR, (m, p))
        got = _distinct(verts)
        ref = _distinct_reference(verts)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.integers(1, 4))
    def test_dedupe_points_equals_loop(self, seed, m, p):
        rng = np.random.default_rng(seed)
        points = list(rng.choice(_NEAR, (m, p)))
        sols = [np.array([float(i)]) for i in range(m)]
        got = _dedupe_solutions(points, sols)
        _, ref = _dedupe_points_reference(points, sols)
        # one row per solution kept, in order; each row names its solution
        assert got.ravel().tolist() == [x[0] for x in ref]

    def test_first_occurrences_in_order(self):
        verts = np.array([[2.0, 0.0], [1.0, -0.0], [2.00000001, 0.0],
                          [1.0, 0.0], [0.5, 0.5]])
        got = _distinct(verts)
        assert got.tobytes() == verts[[0, 1, 4]].tobytes()
        sols = _dedupe_solutions(list(verts), ["a", "b", "c", "d", "e"])
        assert sols.tolist() == ["e", "b", "a"]


class TestFrontier2d:
    def test_cover_segment(self):
        sub = RelaxedSubproblem(cover_instance())
        L = lower_bound_frontier(sub)
        pts = sorted(tuple(np.round(y, 6)) for y in _images(sub.instance, L))
        assert pts == [(0.0, 1.0), (1.0, 0.0)]
        normals = {tuple(np.round(lam / lam.sum(), 6)): rhs
                   for lam, rhs in L.hyperplanes}
        assert normals.get((0.5, 0.5)) == pytest.approx(0.5)  # x+y >= 1 scaled

    def test_all_fixed_single_point(self):
        inst = cover_instance()
        sub = RelaxedSubproblem(inst, fixings={0: 1, 1: 0})
        L = lower_bound_frontier(sub)
        assert _images(inst, L).tolist() == [[1.0, 0.0]]
        assert len(L.hyperplanes) >= 2  # one per unit direction

    def test_infeasible_returns_none(self):
        # p = 3 takes _frontier_outer
        for C in ([[1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]]):
            inst = Instance(C=C, A=[[1, 1]], b=[-1], senses=("le",))
            assert lower_bound_frontier(RelaxedSubproblem(inst)) is None

    @pytest.mark.parametrize("big", [2**52, 23243471785408570])
    def test_huge_objective_values_terminate(self, monkeypatch, big):
        # float64 rounding once made the dichotomic search find the same
        # point again and again; the LP budget turns that hang into a failure
        import mobb.lp
        from mobb.model import enumerate_nondominated
        from mobb.solver import solve
        calls = []

        def counted(sub, c):
            calls.append(1)
            assert len(calls) < 2000, "dichotomic search does not terminate"
            return solve_lp(sub, c)

        monkeypatch.setattr(mobb.lp, "solve_lp", counted)
        inst = Instance(C=[[1, -64, -big, -27], [-31, -5, -8, -2]],
                        A=[[9, 41, 33, 46]], b=[64], senses=("le",))
        points, _, stats = solve(inst)
        assert stats.solved
        assert (sorted(tuple(int(v) for v in y) for y in points)
                == sorted(tuple(int(v) for v in s.image)
                          for s in enumerate_nondominated(inst)))

    def test_distinct_lexmins_at_large_values(self):
        # the two lexicographic minima are 10 apart at 1e7: a relative
        # tolerance would take them for one point and stop the search
        big = 10**7
        inst = Instance(C=[[big, big + 10, big + 3], [big + 10, big, big + 4]],
                        A=[[1, 1, 1]], b=[1], senses=("ge",))
        L = lower_bound_frontier(RelaxedSubproblem(inst))
        pts = _images(inst, L) - big
        assert np.allclose(pts, [[0, 10], [3, 4], [10, 0]], rtol=0.0, atol=1e-6)
        assert len(L.hyperplanes) == 5

    def test_cap_lost_to_rounding_keeps_the_stage1_point(self):
        # at 1e15 the cap's 1e-7 slack is below one ulp, so the cap row can
        # read infeasible after pricing out; the lexmin keeps its stage-1
        # point, which no extreme point may undercut on a facet
        from mobb.model import enumerate_nondominated
        from mobb.solver import solve
        inst = Instance(C=[[19, -17, -50], [-10**15, -18, 44]],
                        A=[[4, 38, 5], [36, 38, 23]], b=[23, 48], senses=("le", "le"))
        L = lower_bound_frontier(RelaxedSubproblem(inst))
        assert np.all(_images(inst, L) >= L.facet_offsets)
        points, _, stats = solve(inst)
        assert stats.solved
        assert (sorted(tuple(int(v) for v in y) for y in points)
                == sorted(tuple(int(v) for v in s.image)
                          for s in enumerate_nondominated(inst)))

    def test_lexmin_at_large_values_is_exact(self):
        # min z_1 has the one minimizer x = (1, 6/19, 0), so the
        # lexicographic minimum is z_0 = 19 - 17 * 6/19 there. A cap slack
        # of some ulps of v_1 = -1e15 would be several units and let stage 2
        # trade z_1 for a lower z_0
        inst = Instance(C=[[19, -17, -50], [-10**15, -18, 44]],
                        A=[[4, 38, 5], [36, 38, 23]], b=[23, 48], senses=("le", "le"))
        vk, y, x = _lexmin(RelaxedSubproblem(inst), 1, 0)
        assert np.allclose(x, [1.0, 6 / 19, 0.0], rtol=0.0, atol=1e-12)
        assert y[0] == pytest.approx(19 - 17 * 6 / 19, rel=0.0, abs=1e-9)
        assert vk == pytest.approx(-10**15 - 18 * 6 / 19, rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hyperplanes_valid_for_all_feasible_points(self, seed):
        inst = random_instance(seed, p=2, n=6)
        sub = RelaxedSubproblem(inst)
        L = lower_bound_frontier(sub)
        if L is None:
            return
        from mobb.model import enumerate_nondominated
        for s in enumerate_nondominated(inst):
            y = np.asarray(s.image, dtype=float)
            for lam, rhs in zip(*L.plane_matrix):
                assert float(lam @ y) >= rhs - 1e-7


def _planes_hold_at_oracle(L, sub):
    """Every plane and facet of L holds, within 1e-7, at each nondominated
    point of ``sub``'s fixings whose solution satisfies its cut rows."""
    normals, rhs = L.plane_matrix
    checked = 0
    for s in enumerate_nondominated(sub.instance, sub.fixings):
        x = np.asarray(s.x, dtype=float)
        if all(float(np.asarray(a) @ x) >= r - 1e-9 for a, r in sub.cut_rows):
            assert np.all(normals @ np.asarray(s.image, dtype=float) >= rhs - 1e-7)
            checked += 1
    return checked


def _same_frontier(inst, got, ref):
    """got's extreme points are ref's within 1e-7, in the same order, and so
    are its facet offsets. An end point may instead be a vertex inside the
    strip the lexmin cap allows: z_k within _LEX_CAP of its minimum and z_j
    no lower than ref's, since a fresh stage 2 can trade the slack in z_k
    for a lower z_j and leave its point up to some 1e-7 off the vertex."""
    G, R = _images(inst, got), _images(inst, ref)
    assert G.shape == R.shape
    assert np.allclose(got.facet_offsets, ref.facet_offsets, rtol=0.0, atol=1e-7)
    near = np.all(np.abs(G - R) <= 1e-7, axis=1)
    assert near[1:-1].all()
    for e, k in ((0, 0), (-1, 1)):
        j = 1 - k
        assert near[e] or (G[e, k] <= ref.facet_offsets[k] + _LEX_CAP + 1e-9
                           and G[e, j] >= R[e, j] - 1e-7)


class TestInheritedFrontier:
    """A p = 2 child's bound seeded with the parent's extreme points that its
    fixing keeps (``kept``: the parent's bound and the rows read from it) is
    the bound a fresh ``_frontier_2d`` finds, with fewer LPs."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, len(CHAIN_SPECS) - 1), st.integers(0, 10_000))
    def test_chain_matches_fresh(self, family, seed):
        inst = generate(CHAIN_SPECS[family])
        rng = np.random.default_rng(seed)
        cuts = _level_cut(inst, rng) if inst.m == 1 else []
        sub = RelaxedSubproblem(inst, {}, cuts)
        L = lower_bound_frontier(sub)
        while len(sub.cols):
            j = int(rng.choice(sub.cols))
            v = int(rng.integers(2))
            # the child starts from its parent's bound, itself inherited
            child = sub.branch(j, v, None, L)
            fresh = RelaxedSubproblem(inst, dict(child.fixings), list(cuts))
            ref = lower_bound_frontier(fresh)
            if ref is None:
                # a kept point would be feasible in the child
                assert child.kept is None
                assert lower_bound_frontier(child) is None
                return
            got = lower_bound_frontier(child)
            _same_frontier(inst, got, ref)
            _planes_hold_at_oracle(got, child)
            sub, L = child, got

    def test_fully_kept_bound_solves_no_lp(self, monkeypatch):
        # x_0 = 0 in every extreme solution of the GAP root: the child keeps
        # the whole bound, yet still applies its fixing to the parent's
        # tableau, as its first LP would
        inst = generate(CHAIN_SPECS[0])
        sub = RelaxedSubproblem(inst)
        L = lower_bound_frontier(sub)
        child = sub.branch(0, 0, None, L)
        bound, rows = child.kept
        count = len(L.extreme_solutions)
        assert bound is L and rows.tolist() == list(range(count)) and count >= 3
        calls = []
        monkeypatch.setattr(mobb.lp, "solve_lp",
                            lambda *args: calls.append(1) or solve_lp(*args))
        got = lower_bound_frontier(child)
        assert not calls
        assert child.pending is None and child.tableau is not sub.tableau
        assert np.array_equal(got.extreme_solutions, L.extreme_solutions)
        assert np.array_equal(got.facet_offsets, L.facet_offsets)
        assert len(got.hyperplanes) == 2 + count - 1
        # read once: the child no longer holds its parent's bound
        assert child.kept is None
        monkeypatch.undo()
        ref = lower_bound_frontier(RelaxedSubproblem(inst, {0: 0}))
        assert np.allclose(_images(inst, got), _images(inst, ref), rtol=0.0, atol=1e-7)
        assert _planes_hold_at_oracle(got, child) >= 1


class TestFrontierOuter:
    def test_zero_refinement_has_p_plus_one_hyperplanes(self):
        inst = random_instance(3, p=3, n=6)
        L = lower_bound_frontier(RelaxedSubproblem(inst))
        assert len(L.hyperplanes) == 4
        assert L.facet_offsets is not None and len(L.facet_offsets) == 3

    def test_refinement_only_adds_planes(self):
        inst = random_instance(4, p=3, n=7)
        sub = RelaxedSubproblem(inst)
        L0 = lower_bound_frontier(sub)
        L1 = refine_frontier(RelaxedSubproblem(inst), L0, refine_max=20)
        assert len(L1.hyperplanes) >= len(L0.hyperplanes)
        assert list(L1.facet_offsets) == list(L0.facet_offsets)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 4))
    def test_outer_planes_valid_by_brute_force(self, seed, p):
        inst = random_instance(seed, p=p, n=6)
        sub = RelaxedSubproblem(inst)
        L = lower_bound_frontier(sub)
        if L is None:
            return
        L = refine_frontier(sub, L, 25)
        from mobb.model import enumerate_nondominated
        for s in enumerate_nondominated(inst):
            y = np.asarray(s.image, dtype=float)
            for lam, rhs in zip(*L.plane_matrix):
                assert float(lam @ y) >= rhs - 1e-7


def _p_subsets(h, p):
    """Every p-subset of range(h) as a row, in lexicographic order."""
    return np.asarray(list(itertools.combinations(range(h), p)))


def _feasible_subsets_reference(normals, rhs, combos):
    """``_feasible_subsets`` through ``np.linalg.det`` and ``np.linalg.solve``."""
    Ms = normals[combos]
    good = np.abs(np.linalg.det(Ms)) > 1e-9
    if not good.any():
        return combos[:0], np.empty((0, normals.shape[1]))
    combos = combos[good]
    verts = np.linalg.solve(Ms[good], rhs[combos][..., None])[..., 0]
    feas = np.all(verts @ normals.T >= rhs[None, :] - 1e-6, axis=1)
    return combos[feas], verts[feas]


class _OuterRegionReference:
    """``_OuterRegion`` with ``np.vstack``/``np.append`` on every append and
    the ``np.linalg`` wrappers: the reference the buffered kernel must equal
    row for row and byte for byte. Below p planes it keeps no rows."""

    def __init__(self, normals, rhs, p):
        self.normals = np.asarray(normals, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.p = p
        if len(self.rhs) < p:
            self.subsets = np.empty((0, p), dtype=np.int64)
            self.points = np.empty((0, p))
        else:
            self.subsets, self.points = _feasible_subsets_reference(
                self.normals, self.rhs, _p_subsets(len(self.rhs), p))

    def vertices(self):
        order = np.lexsort(self.subsets.T[::-1])
        return _distinct(self.points[order])

    def add(self, planes):
        h = len(self.rhs)
        self.normals = np.vstack([self.normals] + [lam for lam, _ in planes])
        self.rhs = np.append(self.rhs, [r for _, r in planes])
        for a in range(h, len(self.rhs)):
            self._cut(a)

    def _cut(self, a):
        normals, rhs = self.normals[:a + 1], self.rhs[:a + 1]
        cut = self.points @ normals[a] < rhs[a] - 1e-6
        if not cut.any():
            return
        active = np.abs(self.points[cut] @ normals[:a].T - rhs[:a]) <= 1e-6
        sets = {tuple(itertools.compress(range(a), row)) for row in active.tolist()}
        faces = {face + (a,) for s in sets
                 for face in itertools.combinations(s, self.p - 1)}
        keep = ~cut
        self.subsets = self.subsets[keep]
        self.points = self.points[keep]
        if faces:
            subsets, points = _feasible_subsets_reference(
                normals, rhs, np.array(list(faces)))
            self.subsets = np.concatenate([self.subsets, subsets])
            self.points = np.concatenate([self.points, points])


class TestRegionVertices:
    def test_simplex_corner(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rhs = np.array([0.0, 0.0, 1.0])
        verts = _region_vertices(normals, rhs, 2)
        keys = {tuple(np.round(v, 6)) for v in verts}
        assert (0.0, 1.0) in keys and (1.0, 0.0) in keys

    def test_too_few_planes(self):
        assert len(_region_vertices(np.ones((2, 3)), np.ones(2), 3)) == 0


def _unit_planes(p, rng):
    """The planes of an unrefined outer approximation: augmented unit weights
    and the all-ones weight, with random right-hand sides."""
    normals = [_normalize(np.where(np.arange(p) == k, 1.0, 1e-3)) for k in range(p)]
    normals.append(_normalize(np.ones(p)))
    return np.asarray(normals), rng.uniform(-20.0, 0.0, p + 1)


def _refinement_planes(region, rng, count):
    """Planes as ``refine_frontier`` appends them: the normalized sum of the
    normals active at a current vertex, cutting that vertex off."""
    verts = region.vertices()
    planes = []
    for i in rng.choice(len(verts), min(count, len(verts)), replace=False):
        v = verts[i]
        active = np.abs(region.normals @ v - region.rhs) <= 1e-6
        lam = _normalize(region.normals[active].sum(axis=0))
        planes.append((lam, float(lam @ v) + rng.uniform(0.05, 3.0)))
    return planes


def _planes_through_one_point(region, rng, count):
    """Refinement normals from several vertices, all through one vertex of the
    region, which none of them cuts off: it becomes a degenerate vertex whose
    stored subsets do not hold every plane active there."""
    verts = region.vertices()
    q = verts[rng.integers(len(verts))]
    planes = []
    for v in verts[rng.permutation(len(verts))[:count]]:
        active = np.abs(region.normals @ v - region.rhs) <= 1e-6
        lam = _normalize(region.normals[active].sum(axis=0))
        if float(lam @ v) < float(lam @ q) - 1e-3:
            planes.append((lam, float(lam @ q)))
    return planes


def _assert_same_vertices(got, ref, normals, rhs, p):
    if len(ref) == 0 or len(got) == 0:
        assert len(ref) == len(got)
        return
    dist = np.linalg.norm(ref[:, None, :] - got[None, :, :], axis=2)
    assert dist.min(axis=1).max() <= 1e-4     # no oracle vertex is missing
    assert dist.min(axis=0).max() <= 1e-4     # and none is made up
    active = np.abs(ref @ normals.T - rhs) <= 1e-6
    if np.all(active.sum(axis=1) == p):       # non-degenerate: one subset each
        assert np.array_equal(got, ref)


class TestOuterRegion:
    """The incremental vertex set against from-scratch enumeration."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 4))
    def test_matches_region_vertices_after_every_append(self, seed, p):
        rng = np.random.default_rng(seed)
        normals, rhs = _unit_planes(p, rng)
        region = _OuterRegion(normals, rhs, p)
        for step in range(6):
            if step % 3 == 2:
                planes = _planes_through_one_point(region, rng, p + 1)
            else:
                planes = _refinement_planes(region, rng, int(rng.integers(1, 4)))
            for plane in planes:                  # one plane at a time ...
                region.add([plane])
                _assert_same_vertices(
                    region.vertices(),
                    _region_vertices(region.normals, region.rhs, p),
                    region.normals, region.rhs, p)

    @pytest.mark.parametrize("p", [3, 4])
    def test_cut_degenerate_vertex_opens_every_edge(self, p):
        # p + 1 planes through one point make it a vertex with more active
        # planes than its stored subset; a plane that cuts it must find the
        # new vertices on every edge through it
        rng = np.random.default_rng(p)
        normals, rhs = _unit_planes(p, rng)
        region = _OuterRegion(normals, rhs, p)
        for seed in range(4):
            region.add(_planes_through_one_point(region, np.random.default_rng(seed), 3 * p))
            region.add(_refinement_planes(region, rng, 3))
            _assert_same_vertices(region.vertices(),
                                  _region_vertices(region.normals, region.rhs, p),
                                  region.normals, region.rhs, p)

    def test_starts_from_region_vertices(self):
        normals, rhs = _unit_planes(3, np.random.default_rng(0))
        region = _OuterRegion(normals, rhs, 3)
        assert np.array_equal(region.vertices(), _region_vertices(normals, rhs, 3))
        assert len(_OuterRegion(normals[:2], rhs[:2], 3).vertices()) == 0


def _assert_same_rows(region, ref):
    assert region.subsets.dtype == ref.subsets.dtype
    assert region.subsets.tobytes() == ref.subsets.tobytes()
    assert region.points.tobytes() == ref.points.tobytes()
    assert region.normals.tobytes() == ref.normals.tobytes()
    assert region.rhs.tobytes() == ref.rhs.tobytes()
    assert region.vertices().tobytes() == ref.vertices().tobytes()


def _normal_stacks(rng, p, k):
    """k stacks of p normalized nonnegative normals; every third is nearly
    singular, its last row a mix of the others moved by 1e-12 to 2e-6."""
    Ms = rng.random((k, p, p)) + 1e-3
    mix = rng.random((k, p - 1, 1))
    eps = 10.0 ** -rng.integers(6, 13, k)
    near = (Ms[:, :-1] * mix).sum(axis=1) + eps[:, None] * (1.0 + rng.random((k, p)))
    Ms[::3, -1] = near[::3]
    return Ms / Ms.sum(axis=2, keepdims=True)


class TestOuterRegionKernel:
    """The buffered kernel against ``_OuterRegionReference``, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 4))
    def test_rows_equal_reference_after_every_add(self, seed, p):
        rng = np.random.default_rng(seed)
        normals, rhs = _unit_planes(p, rng)
        region = _OuterRegion(normals, rhs, p)
        ref = _OuterRegionReference(normals, rhs, p)
        _assert_same_rows(region, ref)
        for step in range(8):
            if step % 3 == 2:
                planes = _planes_through_one_point(region, rng, p + 1)
            else:
                planes = _refinement_planes(region, rng, int(rng.integers(1, 5)))
            # a round's planes in one call, as refine_frontier appends them,
            # or one call per plane
            batches = [planes] if rng.integers(2) else [[plane] for plane in planes]
            for batch in batches:
                region.add(batch)
                ref.add(batch)
                _assert_same_rows(region, ref)

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_fewer_than_p_planes_then_appended(self, p, start):
        # a region with no vertex yet enumerates its rows once it holds p
        # planes, instead of splitting rows it never had
        normals, rhs = _unit_planes(p, np.random.default_rng(start))
        region = _OuterRegion(normals[:start], rhs[:start], p)
        ref = _OuterRegionReference(normals[:start], rhs[:start], p)
        for k in range(start, p + 1):
            region.add([(normals[k], rhs[k])])
            if k + 1 == p:     # the reference enumerates only in its constructor
                ref = _OuterRegionReference(normals[:p], rhs[:p], p)
            else:
                ref.add([(normals[k], rhs[k])])
            _assert_same_rows(region, ref)
        assert np.array_equal(region.vertices(), _region_vertices(normals, rhs, p))
        assert len(region.vertices()) > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 4), st.integers(1, 12))
    def test_gufuncs_equal_linalg_wrappers(self, seed, p, k):
        # the kernel calls numpy.linalg's gufuncs without their wrappers; the
        # wrappers must add nothing but checks on these stacks
        rng = np.random.default_rng(seed)
        Ms = _normal_stacks(rng, p, k)
        b = rng.uniform(-20.0, 0.0, (k, p, 1))
        det = mobb.lp._umath_linalg.det(Ms, signature="d->d")
        assert det.dtype == np.float64 and det.tobytes() == np.linalg.det(Ms).tobytes()
        got = mobb.lp._umath_linalg.solve(Ms, b, signature="dd->d")
        assert got.tobytes() == np.linalg.solve(Ms, b).tobytes()


def _refine_from_scratch(sub, L, refine_max):
    """``refine_frontier`` with the region's vertices enumerated from all
    p-subsets of its planes in every round (the reference)."""
    inst = sub.instance
    p = inst.p
    if refine_max <= 0 or p == 2:
        return L
    hyperplanes = list(L.hyperplanes)
    sols = list(L.extreme_solutions)
    points = [inst.C @ x for x in sols]
    cache = {}

    def weighted(lam):
        key = tuple(np.round(lam, 9))
        if key not in cache:
            cache[key] = solve_lp(sub, lam @ inst.C)
        return cache[key]

    solves = 0
    supported = set()
    plane_keys = {tuple(np.round(lam, 9)) for lam, _ in hyperplanes}
    while solves < refine_max:
        normals = np.asarray([lam for lam, _ in hyperplanes])
        rhs = np.asarray([r for _, r in hyperplanes])
        verts = _region_vertices(normals, rhs, p)
        if not len(verts):
            break
        slack = np.abs(verts @ normals.T - rhs[None, :])
        pending = {}
        for i, v in enumerate(verts):
            key = tuple(np.round(v, 7))
            if key in supported:
                continue
            active = slack[i] <= 1e-6
            if not active.any():
                continue
            lam = _normalize(normals[active].sum(axis=0))
            lam_key = tuple(np.round(lam, 9))
            if lam_key in plane_keys:
                supported.add(key)
                continue
            res = weighted(lam)
            solves += 1
            if res.value > float(lam @ v) + _FACET_TOL:
                pending.setdefault(lam_key, (lam, res))
            else:
                supported.add(key)
            if solves >= refine_max:
                break
        if not pending:
            break
        for lam_key, (lam, res) in pending.items():
            plane_keys.add(lam_key)
            hyperplanes.append((lam, res.value))
            points.append(inst.C @ res.x)
            sols.append(res.x)
    _, sols = _dedupe_points_reference(points, sols)
    return LowerBoundSet(hyperplanes=hyperplanes, extreme_solutions=np.asarray(sols),
                         facet_offsets=L.facet_offsets)


_REFINE_SPECS = [
    GeneratorSpec(family="KP", p=3, seed=4, items=12),
    GeneratorSpec(family="GAP", p=3, seed=1, agents=3, jobs=4),
    GeneratorSpec(family="UFLP", p=3, seed=1, facilities=3, customers=3),
    GeneratorSpec(family="KP", p=4, seed=2, items=10),
]


def _assert_same_refinement(inst, fixings, refine_max):
    sub = RelaxedSubproblem(inst, fixings)
    L0 = lower_bound_frontier(sub)
    if L0 is None:
        return
    got = refine_frontier(sub, L0, refine_max)
    # the same LP history, so warm starts take the same pivots
    twin = RelaxedSubproblem(inst, fixings)
    ref = _refine_from_scratch(twin, lower_bound_frontier(twin), refine_max)
    assert len(got.hyperplanes) == len(ref.hyperplanes)
    for (lam, r), (lam_ref, r_ref) in zip(got.hyperplanes, ref.hyperplanes):
        assert np.array_equal(lam, lam_ref) and r == r_ref
    assert len(got.extreme_solutions) == len(ref.extreme_solutions)
    for x, x_ref in zip(got.extreme_solutions, ref.extreme_solutions):
        assert np.array_equal(x, x_ref)


class TestRefinementEquivalence:
    # at 1 and 13 LPs the budget ends in the middle of a round
    @pytest.mark.parametrize("spec", _REFINE_SPECS, ids=lambda s: f"{s.family}-p{s.p}")
    @pytest.mark.parametrize("refine_max", [1, 5, 13, 50])
    def test_same_bound_as_from_scratch_enumeration(self, spec, refine_max):
        inst = generate(spec)
        for fixings in ({}, {0: 1}, {1: 0, 2: 1}):
            _assert_same_refinement(inst, fixings, refine_max)

    @pytest.mark.parametrize("refine_max", [1, 13, 50])
    def test_same_bound_under_depth3_fixings(self, refine_max):
        inst = generate(GeneratorSpec(family="KP", p=3, seed=3, items=16))
        for fixings in ({0: 1, 1: 0, 2: 1}, {3: 0, 8: 1, 13: 1}, {5: 1, 9: 1, 15: 0}):
            _assert_same_refinement(inst, fixings, refine_max)
