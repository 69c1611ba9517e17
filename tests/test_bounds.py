"""Tests for incumbents, local upper bounds, lower bound sets and gap measures."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobb.bounds import (IncumbentList, LocalUpperBoundSet, LowerBoundSet,
                         MEASURE_HSZ, MEASURE_LHG, _maximal, default_big_m,
                         gap_argmax_lub, gap_values, surviving_mask)
from mobb.model import FLOAT_TOL, Solution

# Scalar oracles for the batched surviving_mask and gap_values: one local
# upper bound and one plane at a time, as the gap measures are defined.


def all_planes(L: LowerBoundSet) -> list:
    """The hyperplanes plus the axis facets, as (lam, rhs) pairs."""
    planes = list(L.hyperplanes)
    p = len(L.facet_offsets)
    for k in range(p):
        e = np.zeros(p)
        e[k] = 1.0
        planes.append((e, float(L.facet_offsets[k])))
    return planes


def is_strictly_above(L: LowerBoundSet, y) -> bool:
    """True iff y lies in the interior of L + R^p_>= (strict on every plane)."""
    y = np.asarray(y, dtype=float)
    for lam, rhs in all_planes(L):
        if float(lam @ y) <= rhs + FLOAT_TOL:
            return False
    return True


def spanning_points(L: LowerBoundSet, lu) -> list:
    """Axis-parallel projections of a local upper bound onto the bound set.

    The i-th spanning point moves from lu along -e_i until the boundary of
    L + R^p_>= is hit; the remaining coordinates stay pinned at lu. If the ray
    misses every facet the coordinate is clamped at the local ideal, the
    facet offsets.
    """
    lu = np.asarray(lu, dtype=float)
    p = len(lu)
    ideal = L.facet_offsets
    planes = all_planes(L)
    points = []
    for i in range(p):
        t_max = lu[i] - ideal[i]
        t = t_max
        for lam, rhs in planes:
            if lam[i] > 1e-12:
                t = min(t, (float(lam @ lu) - rhs) / lam[i])
        t = max(0.0, min(t, t_max))
        sp = lu.copy()
        sp[i] -= t
        points.append(sp)
    return points


def hv_simplex_gap(lu, spanning) -> float:
    """|det(G)| / p! for the simplex spanned by lu and its spanning points."""
    lu = np.asarray(lu, dtype=float)
    G = np.column_stack([np.asarray(sp, dtype=float) - lu for sp in spanning])
    return abs(float(np.linalg.det(G))) / math.factorial(len(lu))


def hv_box_gap(lu, l_ideal) -> float:
    """Volume of the box between the local ideal point and a local upper bound."""
    diff = np.maximum(np.asarray(lu, dtype=float) - np.asarray(l_ideal, dtype=float), 0.0)
    return float(np.prod(diff))


def brute_force_lubs(images, p: int, M: int):
    """Grid-scan oracle for the local upper bound set."""
    if not images:
        return [tuple([M] * p)]
    zs = [np.asarray(z, dtype=np.int64) for z in images]
    axes = [sorted({int(z[k]) for z in zs} | {M}) for k in range(p)]
    cands = []
    for u in itertools.product(*axes):
        ua = np.asarray(u, dtype=np.int64)
        if not any(np.all(z < ua) for z in zs):
            cands.append(ua)
    return sorted(tuple(int(v) for v in u) for u in _maximal(cands))


def polyline_bound():
    """Biobjective bound set whose boundary is the polyline
    (1,10.5)-(1.5,5)-(3,2)-(8,0.5), plus the two axis facets."""
    return LowerBoundSet(
        hyperplanes=[(np.array([11.0, 1.0]), 21.5),
                     (np.array([2.0, 1.0]), 8.0),
                     (np.array([3.0, 10.0]), 29.0)],
        facet_offsets=np.array([1.0, 0.5]))


def single_plane_bound():
    """The plane y_1 + y_2 >= 10, with axis facets at 0 that no test point
    comes near."""
    return LowerBoundSet(hyperplanes=[(np.array([1.0, 1.0]), 10.0)],
                         facet_offsets=np.zeros(2))


def sol(image, x=(0,)):
    return Solution(x=tuple(x), image=tuple(image))


def surviving(L, K):
    """The local upper bounds strictly above L, as the solver selects them."""
    return K.arr[surviving_mask(L, K.arr)]


def _update_loop(entries, candidate):
    """Scalar oracle for ``IncumbentList.update``: reject a candidate that an
    entry weakly dominates, else drop the entries it weakly dominates and
    append it. Returns (accepted, removed, new entries)."""
    y = candidate.image
    if any(all(a <= b for a, b in zip(s.image, y)) for s in entries):
        return False, [], entries
    removed = [s for s in entries if all(a <= b for a, b in zip(y, s.image))]
    kept = [s for s in entries if s not in removed]
    return True, removed, kept + [candidate]


class TestIncumbentList:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda p: st.lists(
        st.tuples(*[st.integers(-3, 3)] * p), max_size=40)))
    def test_update_matches_scalar_oracle(self, images):
        # a small value range gives repeats and ties in some objectives
        U = IncumbentList()
        entries = []
        for i, y in enumerate(images):
            cand = Solution(x=(i,), image=y)
            accepted, removed, entries = _update_loop(entries, cand)
            assert U.update(cand) == (accepted, removed)
            assert U.entries == entries

    def test_duplicate_rejected(self):
        U = IncumbentList(entries=[sol((2, 9)), sol((6, 7))])
        accepted, removed = U.update(sol((6, 7)))
        assert not accepted and removed == []
        assert sorted(U.images()) == [(2, 9), (6, 7)]

    def test_incomparable_candidate_inserted(self):
        U = IncumbentList(entries=[sol((2, 9)), sol((6, 7))])
        accepted, _ = U.update(sol((5, 8)))
        assert accepted
        assert sorted(U.images()) == [(2, 9), (5, 8), (6, 7)]

    def test_dominating_candidate_sweeps_list(self):
        U = IncumbentList(entries=[sol((2, 9)), sol((6, 7))])
        accepted, removed = U.update(sol((1, 1)))
        assert accepted and len(removed) == 2
        assert U.images() == [(1, 1)]

    def test_dominated_candidate_rejected(self):
        U = IncumbentList(entries=[sol((2, 9))])
        accepted, _ = U.update(sol((3, 10)))
        assert not accepted


class TestLocalUpperBoundSet:
    M = 100

    def test_single_split(self):
        K = LocalUpperBoundSet(2, self.M)
        K.update((2, 9))
        assert K.as_tuples() == [(2, self.M), (self.M, 9)]

    def test_four_point_configuration(self):
        K = LocalUpperBoundSet(2, self.M)
        for z in [(2, 9), (6, 7), (9, 5), (10, 1)]:
            K.update(z)
        assert K.as_tuples() == [(2, self.M), (6, 9), (9, 7), (10, 5),
                                 (self.M, 1)]

    def test_interior_members_of_four_point_configuration(self):
        K = LocalUpperBoundSet(2, self.M)
        for z in [(2, 9), (6, 7), (9, 5), (10, 1)]:
            K.update(z)
        interior = [u for u in K.as_tuples() if all(v < self.M for v in u)]
        assert interior == [(6, 9), (9, 7), (10, 5)]

    def test_disjoint_insert_is_noop(self):
        K = LocalUpperBoundSet(2, self.M)
        K.update((2, 9))
        before = K.as_tuples()
        K.update((50, 50))  # not strictly below any lub
        assert K.as_tuples() == before

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15),
                  st.integers(0, 15), st.integers(0, 15)),
        min_size=0, max_size=7))
    def test_incremental_matches_grid_oracle(self, p, raw):
        M = 20
        images = [z[:p] for z in raw]
        # the solver only ever inserts accepted (mutually nondominated) images
        nd = [z for z in images
              if not any(all(a <= b for a, b in zip(w, z)) and w != z
                         for w in images)]
        K = LocalUpperBoundSet(p, M)
        for z in nd:
            K.update(z)
        assert K.as_tuples() == brute_force_lubs(nd, p, M)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 40))
    def test_maximal_matches_unique_form(self, seed, p, k):
        # the lub order that gap_argmax_lub breaks ties on is np.unique's
        # row order; a small pool of values, extremes included, repeats rows
        rng = np.random.default_rng(seed)
        pool = np.array([-2**63, -2**40, -3, -1, 0, 1, 2, 2**40, 2**63 - 1])
        rows = rng.choice(pool, (k, p))
        U = np.unique(rows, axis=0)
        if len(U) > 1:
            U = U[np.all(U[:, None, :] <= U[None, :, :], axis=2).sum(axis=1) == 1]
        got = _maximal(rows)
        assert got.dtype == U.dtype and got.shape == U.shape
        assert got.tobytes() == U.tobytes()


class TestStrictlyAbove:
    def test_below_single_hyperplane(self):
        L = single_plane_bound()
        assert not is_strictly_above(L, (4, 5))

    def test_above_single_hyperplane(self):
        L = single_plane_bound()
        assert is_strictly_above(L, (6, 6))

    def test_boundary_point_not_strict(self):
        L = single_plane_bound()
        assert not is_strictly_above(L, (4, 6))

    def test_axis_facets_participate(self):
        L = polyline_bound()
        assert not is_strictly_above(L, (0.5, 50))  # left of the x-facet

    def test_mask_agrees_with_scalar_test(self):
        L = polyline_bound()
        pts = [(4, 5), (6, 6), (6, 9), (0.5, 50), (9, 7), (1, 1)]
        mask = surviving_mask(L, np.asarray(pts, dtype=float))
        assert list(mask) == [is_strictly_above(L, y) for y in pts]


class TestDominanceFathom:
    def test_fathom_when_all_lubs_below(self):
        L = single_plane_bound()
        K = LocalUpperBoundSet(2, 100)
        K.arr = np.array([[4, 5]], dtype=np.int64)
        assert len(surviving(L, K)) == 0

    def test_survivor_blocks_fathoming(self):
        L = single_plane_bound()
        K = LocalUpperBoundSet(2, 100)
        K.arr = np.array([[4, 5], [6, 6]], dtype=np.int64)
        assert [tuple(u) for u in surviving(L, K)] == [(6, 6)]

    def test_root_box_never_fathomed(self):
        L = polyline_bound()
        K = LocalUpperBoundSet(2, 100)
        assert len(surviving(L, K)) > 0


class TestSpanningPoints:
    def test_polyline_spanning_points(self):
        L = polyline_bound()
        sp1, sp2 = spanning_points(L, (6, 9))
        assert sp1 == pytest.approx([6 - 53.5 / 11, 9], abs=1e-12)
        assert sp2 == pytest.approx([6, 9 - 7.9], abs=1e-12)

    def test_single_hyperplane(self):
        L = LowerBoundSet(hyperplanes=[(np.array([1.0, 1.0]), 2.0)],
                          facet_offsets=np.array([-10.0, -10.0]))
        sp1, sp2 = spanning_points(L, (2, 2))
        assert list(sp1) == [0.0, 2.0]
        assert list(sp2) == [2.0, 0.0]

    def test_boundary_lub_degenerates(self):
        L = LowerBoundSet(hyperplanes=[(np.array([1.0, 1.0]), 4.0)],
                          facet_offsets=np.array([0.0, 0.0]))
        sp1, sp2 = spanning_points(L, (2, 2))
        assert list(sp1) == [2.0, 2.0]
        assert list(sp2) == [2.0, 2.0]
        assert hv_simplex_gap((2, 2), [sp1, sp2]) == 0.0


class TestGapMeasures:
    def test_simplex_gap_unit_square_case(self):
        assert hv_simplex_gap((2, 2), [(0, 2), (2, 0)]) == pytest.approx(2.0)

    def test_simplex_gap_polyline_lub(self):
        L = polyline_bound()
        gap = hv_simplex_gap((6, 9), spanning_points(L, (6, 9)))
        assert gap == pytest.approx(53.5 * 7.9 / 22, abs=1e-9)

    def test_box_gap_polyline_lub(self):
        assert hv_box_gap((6, 9), (1, 0.5)) == pytest.approx(42.5)

    def test_box_gap_at_ideal_is_zero(self):
        assert hv_box_gap((3, 3), (3, 3)) == 0.0

    def test_box_gap_unit_offset_cube(self):
        assert hv_box_gap((3, 3, 3), (1, 1, 1)) == pytest.approx(8.0)

    def test_node_gap_hsz_takes_max_over_lubs(self):
        L = polyline_bound()
        K = LocalUpperBoundSet(2, 100)
        K.arr = np.array([[6, 9], [9, 7], [10, 5]], dtype=np.int64)
        # products: 5*8.5=42.5, 8*6.5=52, 9*4.5=40.5
        assert gap_values(L, surviving(L, K), MEASURE_HSZ).max() == pytest.approx(52.0)

    def test_root_box_gap_is_box_to_ideal(self):
        L = polyline_bound()
        K = LocalUpperBoundSet(2, 100)
        assert gap_values(L, surviving(L, K), MEASURE_HSZ).max() == pytest.approx(99 * 99.5)

    def test_gap_values_match_scalar_formulas(self):
        L = polyline_bound()
        U = np.array([[6, 9], [9, 7], [10, 5]], dtype=float)
        lhg = gap_values(L, U, MEASURE_LHG)
        hsz = gap_values(L, U, MEASURE_HSZ)
        for i, u in enumerate(U):
            assert lhg[i] == pytest.approx(
                hv_simplex_gap(u, spanning_points(L, u)), abs=1e-9)
            assert hsz[i] == pytest.approx(
                hv_box_gap(u, L.facet_offsets), abs=1e-9)

    def test_argmax_lub(self):
        L = polyline_bound()
        U = np.array([[6, 9], [9, 7], [10, 5]], dtype=float)
        assert list(gap_argmax_lub(L, U, MEASURE_HSZ)) == [9, 7]
        assert gap_argmax_lub(L, np.empty((0, 2)), MEASURE_HSZ) is None


def test_default_big_m_exceeds_any_attainable_value():
    C = np.array([[-3, -1], [-1, -3]])
    assert default_big_m(C) == 5
