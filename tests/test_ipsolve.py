"""Tests for the single-objective branch and bound and both scalarizations."""

import numpy as np
import pytest

from mobb.ipsolve import (STATUS_FEASIBLE_TIMEOUT, STATUS_INFEASIBLE,
                          STATUS_NO_SOLUTION_TIMEOUT, STATUS_OPTIMAL,
                          solve_econstraint, solve_single_objective,
                          solve_weighted_sum_ip)
from mobb.lp import RelaxedSubproblem, augmented_unit_weights
from mobb.model import Instance


def tiny_kp():
    return Instance(C=[[-3, -1], [-1, -3]], A=[[1, 1]], b=[1], senses=("le",),
                    name="tiny_kp")


def random_kp(seed, p=2, n=14):
    rng = np.random.default_rng(seed)
    profits = rng.integers(1, 100, (p, n))
    weights = rng.integers(1, 50, n)
    return Instance(C=-profits, A=weights[None, :], b=[int(weights.sum()) // 2],
                    senses=("le",))


class TestSingleObjective:
    def test_max_profit_choice(self):
        sub = RelaxedSubproblem(tiny_kp())
        res = solve_single_objective(sub, np.array([-3.0, -1.0]))
        assert res.status == STATUS_OPTIMAL
        assert res.solution == (1, 0)
        assert res.value == pytest.approx(-3.0)

    def test_contradictory_fixings_infeasible(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 0]], b=[1], senses=("ge",))
        sub = RelaxedSubproblem(inst, fixings={0: 0})
        res = solve_single_objective(sub, np.array([1.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE

    def test_timeout_returns_valid_bound(self):
        inst = random_kp(0, p=2, n=40)
        sub = RelaxedSubproblem(inst)
        res = solve_single_objective(sub, inst.C[0].astype(float),
                                     time_limit=1e-9)
        assert res.status in (STATUS_OPTIMAL, STATUS_FEASIBLE_TIMEOUT,
                              STATUS_NO_SOLUTION_TIMEOUT)
        exact = solve_single_objective(RelaxedSubproblem(inst),
                                       inst.C[0].astype(float))
        assert res.bound <= exact.value + 1e-9

    def test_matches_enumeration_on_small_instances(self):
        for seed in range(10):
            inst = random_kp(seed, p=2, n=10)
            c = inst.C[0].astype(float)
            res = solve_single_objective(RelaxedSubproblem(inst), c)
            best = min(float(c @ np.array([(b >> k) & 1 for k in range(10)]))
                       for b in range(1 << 10)
                       if inst.A[0] @ np.array([(b >> k) & 1
                                                for k in range(10)]) <= inst.b[0])
            assert res.value == pytest.approx(best)


class TestWeightedSum:
    def test_level_set_through_optimum(self):
        sub = RelaxedSubproblem(tiny_kp())
        res, level = solve_weighted_sum_ip(sub, (0.6, 0.4))
        assert res.solution == (1, 0)
        lam, rhs = level
        assert rhs == pytest.approx(0.6 * -3 + 0.4 * -1)  # -2.2

    def test_equal_weights_larger_capacity(self):
        inst = Instance(C=[[-3, -1], [-1, -3]], A=[[1, 1]], b=[2],
                        senses=("le",))
        res, level = solve_weighted_sum_ip(RelaxedSubproblem(inst), (1.0, 1.0))
        assert res.solution == (1, 1)
        assert level[1] == pytest.approx(-8.0)

    def test_all_fixed_immediate(self):
        sub = RelaxedSubproblem(tiny_kp(), fixings={0: 1, 1: 0})
        res, level = solve_weighted_sum_ip(sub, (0.5, 0.5))
        assert res.status == STATUS_OPTIMAL
        assert res.solution == (1, 0)
        assert level[1] == pytest.approx(0.5 * -3 + 0.5 * -1)

    def test_level_cut_never_cuts_optimal_points(self):
        for seed in range(8):
            inst = random_kp(seed, p=2, n=10)
            res, (lam, rhs) = solve_weighted_sum_ip(RelaxedSubproblem(inst),
                                                    (0.7, 0.3))
            from mobb.model import enumerate_nondominated
            for s in enumerate_nondominated(inst):
                assert float(lam @ np.asarray(s.image)) >= rhs - 1e-9


class TestEConstraint:
    def test_bound_on_second_objective(self):
        sub = RelaxedSubproblem(tiny_kp())
        res, n_ips = solve_econstraint(sub, k=0, eps=[-2])
        assert res.solution == (0, 1)
        assert n_ips == 2

    def test_unreachable_eps_infeasible(self):
        sub = RelaxedSubproblem(tiny_kp())
        res, n_ips = solve_econstraint(sub, k=0, eps=[-10])
        assert res.status == STATUS_INFEASIBLE
        assert n_ips == 1

    def test_loose_eps_reduces_to_lexicographic_min(self):
        sub = RelaxedSubproblem(tiny_kp())
        res, _ = solve_econstraint(sub, k=0, eps=[100])
        assert res.solution == (1, 0)  # min z_1, ties broken by stage 2

    def test_wrong_eps_length_rejected(self):
        with pytest.raises(ValueError):
            solve_econstraint(RelaxedSubproblem(tiny_kp()), k=0, eps=[1, 2])

    def test_stage2_result_is_efficient(self):
        for seed in range(6):
            inst = random_kp(seed, p=3, n=8)
            from mobb.model import enumerate_nondominated
            front = {s.image for s in enumerate_nondominated(inst)}
            nadir = np.max(np.asarray(list(front)), axis=0)
            res, _ = solve_econstraint(RelaxedSubproblem(inst), k=0,
                                       eps=list(nadir[1:]))
            assert res.status == STATUS_OPTIMAL
            img = tuple(int(v) for v in inst.C @ np.asarray(res.solution))
            assert img in front


class TestAugmentedUnitWeights:
    def test_count_and_shape(self):
        ws = augmented_unit_weights(3)
        assert len(ws) == 4
        for w in ws:
            assert w.sum() == pytest.approx(1.0)
            assert np.all(w > 0)

    def test_unit_directions_dominate_their_coordinate(self):
        ws = augmented_unit_weights(4)
        for k in range(4):
            assert np.argmax(ws[k]) == k
