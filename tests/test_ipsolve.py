"""Tests for the single-objective branch and bound and both scalarizations."""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobb.ipsolve
from mobb.instances import GeneratorSpec, generate
from mobb.ipsolve import (_INT_TOL, STATUS_FEASIBLE_TIMEOUT, STATUS_INFEASIBLE,
                          STATUS_NO_SOLUTION_TIMEOUT, STATUS_OPTIMAL,
                          _fractional_var, solve_econstraint,
                          solve_single_objective, solve_weighted_sum_ip)
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
                                     deadline=time.monotonic())
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


def _fractional_var_loop(x, free):
    """Reference: the first free variable of largest fractionality."""
    best, best_frac = -1, _INT_TOL
    for j in free:
        frac = abs(x[j] - round(x[j]))
        if frac > best_frac:
            best, best_frac = j, frac
    return best


class TestFractionalVar:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 0.5, 1.5, -0.5, 2.5, 0.25, 0.75,
                                     1e-7, 1.0 - 1e-7, 2e-6, 1.0 - 2e-6, 0.3,
                                     0.7]), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_matches_loop(self, values, random):
        x = np.array(values)
        free = sorted(random.sample(range(len(x)), random.randint(0, len(x))))
        assert _fractional_var(x, free) == _fractional_var_loop(x, free)

    def test_first_of_ties_and_integral(self):
        x = np.array([0.0, 0.5, 1.0, 0.5, 0.5])
        assert _fractional_var(x, [0, 2, 3, 4]) == 3
        assert _fractional_var(x, [0, 2]) == -1
        assert _fractional_var(x, []) == -1


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
        res, n_ips = solve_econstraint(tiny_kp(), [], k=0, eps=[-2])
        assert res.solution == (0, 1)
        assert n_ips == 2

    def test_unreachable_eps_infeasible(self):
        res, n_ips = solve_econstraint(tiny_kp(), [], k=0, eps=[-10])
        assert res.status == STATUS_INFEASIBLE
        assert n_ips == 1

    def test_loose_eps_reduces_to_lexicographic_min(self):
        res, _ = solve_econstraint(tiny_kp(), [], k=0, eps=[100])
        assert res.solution == (1, 0)  # min z_1, ties broken by stage 2

    def test_wrong_eps_length_rejected(self):
        with pytest.raises(ValueError):
            solve_econstraint(tiny_kp(), [], k=0, eps=[1, 2])

    def test_stage2_result_is_efficient(self):
        for seed in range(6):
            inst = random_kp(seed, p=3, n=8)
            from mobb.model import enumerate_nondominated
            front = {s.image for s in enumerate_nondominated(inst)}
            nadir = np.max(np.asarray(list(front)), axis=0)
            res, _ = solve_econstraint(inst, [], k=0, eps=list(nadir[1:]))
            assert res.status == STATUS_OPTIMAL
            img = tuple(int(v) for v in inst.C @ np.asarray(res.solution))
            assert img in front


    def test_time_limit_covers_both_stages(self, monkeypatch):
        # a fake clock that advances 50 ms per reading; stage 1 times out,
        # and stage 2 stops at the same deadline. With a full second for each
        # stage the call took 2.15 s on this clock.
        now = [0.0]

        def monotonic():
            now[0] += 0.05
            return now[0]

        monkeypatch.setattr(mobb.ipsolve, "time", SimpleNamespace(monotonic=monotonic))
        inst = generate(GeneratorSpec(family="KP", p=2, seed=1, items=30))
        res, n_ips = solve_econstraint(inst, [], k=0, eps=[10**6], deadline=1.0)
        assert n_ips == 2
        assert res.status == STATUS_FEASIBLE_TIMEOUT
        # a few readings past the deadline, as a single-stage solve overruns
        assert now[0] < 1.5


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
