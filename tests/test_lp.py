"""Tests for the simplex core, relaxations and frontier lower bound sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobb.bounds import Kind
from mobb.lp import (INFEASIBLE, OPTIMAL, InfeasibleSubproblem,
                     RelaxedSubproblem, _greedy_knapsack_lp, _region_vertices,
                     _simplex, lower_bound_frontier, refine_frontier, solve_lp)
from mobb.model import Instance


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


class TestFrontier2d:
    def test_cover_segment(self):
        sub = RelaxedSubproblem(cover_instance())
        L = lower_bound_frontier(sub)
        assert L.kind == Kind.FULL
        pts = sorted(tuple(np.round(y, 6)) for y in L.extreme_points)
        assert pts == [(0.0, 1.0), (1.0, 0.0)]
        normals = {tuple(np.round(lam / lam.sum(), 6)): rhs
                   for lam, rhs in L.hyperplanes}
        assert normals.get((0.5, 0.5)) == pytest.approx(0.5)  # x+y >= 1 scaled

    def test_all_fixed_single_point(self):
        inst = cover_instance()
        sub = RelaxedSubproblem(inst, fixings={0: 1, 1: 0})
        L = lower_bound_frontier(sub)
        assert len(L.extreme_points) == 1
        assert list(L.extreme_points[0]) == [1.0, 0.0]
        assert len(L.hyperplanes) >= 2  # one per unit direction

    def test_infeasible_raises(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[-1], senses=("le",))
        with pytest.raises(InfeasibleSubproblem):
            lower_bound_frontier(RelaxedSubproblem(inst))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hyperplanes_valid_for_all_feasible_points(self, seed):
        inst = random_instance(seed, p=2, n=6)
        sub = RelaxedSubproblem(inst)
        try:
            L = lower_bound_frontier(sub)
        except InfeasibleSubproblem:
            return
        from mobb.model import enumerate_nondominated
        for s in enumerate_nondominated(inst):
            y = np.asarray(s.image, dtype=float)
            for lam, rhs in L.all_planes():
                assert float(lam @ y) >= rhs - 1e-7


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
        try:
            L = refine_frontier(sub, lower_bound_frontier(sub), 25)
        except InfeasibleSubproblem:
            return
        from mobb.model import enumerate_nondominated
        for s in enumerate_nondominated(inst):
            y = np.asarray(s.image, dtype=float)
            for lam, rhs in L.all_planes():
                assert float(lam @ y) >= rhs - 1e-7


class TestRegionVertices:
    def test_simplex_corner(self):
        normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rhs = np.array([0.0, 0.0, 1.0])
        verts = _region_vertices(normals, rhs, 2)
        keys = {tuple(np.round(v, 6)) for v in verts}
        assert (0.0, 1.0) in keys and (1.0, 0.0) in keys

    def test_too_few_planes(self):
        assert len(_region_vertices(np.ones((2, 3)), np.ones(2), 3)) == 0
