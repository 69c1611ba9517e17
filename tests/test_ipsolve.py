"""Tests for the single-objective branch and bound and both scalarizations."""

import itertools
import math
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
                          STATUS_TARGET_REACHED, _bound_rounding,
                          _fractional_var, solve_econstraint,
                          solve_single_objective, solve_weighted_sum_ip)
from mobb.lp import RelaxedSubproblem, augmented_unit_weights
from mobb.model import Instance, is_feasible


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


# small instances for the brute-force checks: knapsacks take the greedy LP,
# GAP's equality rows the simplex
BRUTE_SPECS = [GeneratorSpec(family="KP", p=2, seed=s, items=9) for s in range(4)] + [
    GeneratorSpec(family="GAP", p=2, seed=s, agents=2, jobs=4) for s in range(4)]
BRUTE_IDS = [f"{s.family}-s{s.seed}" for s in BRUTE_SPECS]


def brute_min(inst, c):
    """min c.x over every feasible binary x, by enumeration; inf if none."""
    return min((float(np.asarray(c) @ x) for x in map(np.array, itertools.product(
        (0, 1), repeat=inst.n)) if is_feasible(inst, x)), default=math.inf)


def brute_objectives(inst):
    """An integral objective (the first row of C) and a fractional one."""
    return [inst.C[0].astype(float), np.array([0.37, 0.63]) @ inst.C]


class TestCutoffAndTarget:
    @pytest.mark.parametrize("spec", BRUTE_SPECS, ids=BRUTE_IDS)
    def test_cutoff_returns_a_solution_iff_one_lies_below(self, spec):
        inst = generate(spec)
        for c in brute_objectives(inst):
            best = brute_min(inst, c)
            for cutoff in (best - 1, best - 0.3, best, best + 0.3, best + 1,
                           math.inf):
                res = solve_single_objective(RelaxedSubproblem(inst), c,
                                             cutoff=cutoff)
                if best < cutoff:
                    assert res.status == STATUS_OPTIMAL
                    assert res.value == pytest.approx(best, abs=1e-9)
                    assert float(c @ np.asarray(res.solution)) == res.value
                else:
                    assert res.status == STATUS_INFEASIBLE
                    assert res.solution is None and res.bound == cutoff

    def test_target_stops_with_a_bound_between_it_and_the_minimum(self):
        stopped = 0
        for inst, c in ((inst, c) for inst in map(generate, BRUTE_SPECS)
                        for c in brute_objectives(inst)):
            best = brute_min(inst, c)
            full = solve_single_objective(RelaxedSubproblem(inst), c)
            for target in (-math.inf, best - 40, best - 5, best - 1, best - 0.5,
                           best, best + 0.5, math.inf):
                res = solve_single_objective(RelaxedSubproblem(inst), c,
                                             target=target)
                if res.status == STATUS_TARGET_REACHED:
                    stopped += 1
                    assert target <= res.bound <= best + 1e-9
                    if res.solution is not None:
                        assert float(c @ np.asarray(res.solution)) == res.value
                else:
                    # optimality is tested first: the search is as without
                    # a target, and it ends at the minimum
                    assert res == full
                    assert res.value == pytest.approx(best, abs=1e-9)
                if target > best + 1e-6:
                    assert res == full
        assert stopped > 0

    @pytest.mark.parametrize("spec", BRUTE_SPECS, ids=BRUTE_IDS)
    def test_bounds_rounded_only_for_an_integral_objective(self, spec, monkeypatch):
        inst = generate(spec)
        integral, fractional = brute_objectives(inst)
        best = brute_min(inst, integral)
        rounded = {k: solve_single_objective(RelaxedSubproblem(inst), integral,
                                             node_limit=k) for k in range(6)}
        frac = {k: solve_single_objective(RelaxedSubproblem(inst), fractional,
                                          node_limit=k) for k in range(6)}
        # the same solves with the raw LP value as every bound
        monkeypatch.setattr(mobb.ipsolve, "_bound_rounding", lambda c: float)
        for k in range(6):
            raw = solve_single_objective(RelaxedSubproblem(inst), integral,
                                         node_limit=k)
            assert raw.bound <= rounded[k].bound <= best
            if rounded[k].status != STATUS_OPTIMAL:
                assert rounded[k].bound == math.ceil(rounded[k].bound)
            assert frac[k] == solve_single_objective(RelaxedSubproblem(inst),
                                                     fractional, node_limit=k)

    def test_rounding_needs_a_small_slack(self):
        c = np.array([3.0, -7.0, 2.0])
        assert _bound_rounding(c)(-1.2) == -1.0
        assert _bound_rounding(c)(4.0 + 1e-9) == 4.0 + 1e-9   # within the slack
        assert _bound_rounding(c + 0.5) is float
        # from ||c||_1 = 5e5 on the slack would reach 1/2
        assert _bound_rounding(c * 10**5) is float


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

    def test_cutoff_skips_stage2_when_the_box_is_empty(self):
        # z_1 <= -1 leaves (1, 0) and (0, 1), with z_0 = -3 and -1
        res, n_ips = solve_econstraint(tiny_kp(), [], k=0, eps=[-1], cutoff=-3)
        assert (res.status, res.bound, n_ips) == (STATUS_INFEASIBLE, -3, 1)
        res, n_ips = solve_econstraint(tiny_kp(), [], k=0, eps=[-1], cutoff=-2)
        assert (res.solution, n_ips) == ((1, 0), 2)

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
