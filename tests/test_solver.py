"""Tests for the branch-and-bound driver and its adaptive components."""

import dataclasses
import itertools
import math
import operator
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobb.ipsolve
import mobb.solver
from mobb.bounds import IncumbentList, LowerBoundSet, surviving_mask
from mobb.instances import GeneratorSpec, generate
from mobb.ipsolve import STATUS_FEASIBLE_TIMEOUT, STATUS_NO_SOLUTION_TIMEOUT
from mobb.lp import KeptPoints, RelaxedSubproblem, _Tableau, lower_bound_frontier
from mobb.model import (Instance, ModelError, Solution, enumerate_nondominated,
                        is_feasible)
from mobb.solver import (_INT_TOL, Node, SolverConfig, Solver, _Queue,
                         add_level_cut, choose_branch_variable,
                         prune_redundant_cuts, slb_weight, solve,
                         sum_of_ratios_variable)


def tiny_kp():
    return Instance(C=[[-3, -1], [-1, -3]], A=[[1, 1]], b=[1], senses=("le",),
                    name="tiny_kp")


def oracle_front(inst):
    return sorted(s.image for s in enumerate_nondominated(inst))


ALL_STRATEGIES = ("depth", "breadth", "lhg", "hsz")


class TestSolveAgainstOracle:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_tiny_kp_every_strategy(self, strategy):
        points, entries, stats = solve(tiny_kp(),
                                       SolverConfig(node_selection=strategy))
        assert points == [(-3, -1), (-1, -3)]
        assert stats.solved

    @pytest.mark.parametrize("refine_max", (0, 50))
    @pytest.mark.parametrize("strategy", ("depth", "lhg"))
    def test_point_off_the_initial_bound_kept_at_p3(self, strategy, refine_max):
        # every weighted-sum LP optimum of the root bound is (10, 0, 0), the
        # only incumbent after the root; (9, 1000, 1000) is nondominated too
        inst = Instance(C=[[10, 9], [0, 1000], [0, 1000]], A=[[1, 1]], b=[1],
                        senses=("eq",))
        cfg = SolverConfig(node_selection=strategy, refine_max=refine_max)
        points, _, stats = solve(inst, cfg)
        assert points == oracle_front(inst) == [(9, 1000, 1000), (10, 0, 0)]
        assert stats.solved

    def test_infeasible_instance_empty_and_solved(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[-1], senses=("le",))
        points, entries, stats = solve(inst, SolverConfig())
        assert points == [] and stats.solved

    def test_all_config_combinations_agree_with_oracle(self):
        inst = generate(GeneratorSpec(family="KP", p=3, seed=7, items=12))
        expected = oracle_front(inst)
        combos = itertools.product(ALL_STRATEGIES[:3], (False, True),
                                   (False, True))
        n_checked = 0
        for strategy, warmstart, ec in combos:
            cfg = SolverConfig(node_selection=strategy, warmstart=warmstart,
                               ec_enabled=ec, refine_max=5)
            points, _, stats = solve(inst, cfg)
            assert sorted(points) == expected, (strategy, warmstart, ec)
            assert stats.solved
            n_checked += 1
        assert n_checked == 12

    def test_entries_are_feasible_representatives(self):
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=3, agents=2,
                                      jobs=4))
        points, entries, _ = solve(inst, SolverConfig())
        from mobb.model import evaluate, is_feasible
        for s in entries:
            assert is_feasible(inst, s.x)
            assert tuple(evaluate(inst, s.x)) == s.image
        assert [s.image for s in entries] == points

    def test_fathom_counters_cover_all_leaves(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=11, items=10))
        _, _, stats = solve(inst, SolverConfig())
        assert sum(stats.fathomed.values()) + stats.branched == stats.nodes_explored


class TestQueue:
    # gaps are ignored by depth and breadth
    GAPS = [1.0, 5.0, math.inf, 5.0, 2.0, 5.0]

    @staticmethod
    def drain(strategy, gaps):
        # the order of the pushed nodes, by push index; the queue never reads
        # a node's subproblem
        queue = _Queue(strategy)
        index = {}
        for i, gap in enumerate(gaps):
            node = Node(sub=None, gap=gap)
            index[id(node)] = i
            queue.push(node)
        order = []
        while len(queue):
            order.append(index[id(queue.pop())])
        return order

    def test_depth_pops_newest_first(self):
        assert self.drain("depth", self.GAPS) == [5, 4, 3, 2, 1, 0]

    def test_breadth_pops_oldest_first(self):
        assert self.drain("breadth", self.GAPS) == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("strategy", ["lhg", "hsz"])
    def test_gap_strategies_pop_largest_gap_then_newest(self, strategy):
        assert self.drain(strategy, self.GAPS) == [2, 5, 3, 1, 4, 0]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_equal_keys_never_compare_nodes(self, strategy):
        # Node defines no ordering: comparing two would raise TypeError
        order = self.drain(strategy, [0.0] * 50)
        assert sorted(order) == list(range(50))
        assert order == (list(range(50)) if strategy == "breadth"
                         else list(range(49, -1, -1)))

    def test_pops_interleave_with_pushes(self):
        queue = _Queue("depth")
        nodes = [Node(sub=None, gap=0.0) for _ in range(3)]
        queue.push(nodes[0])
        queue.push(nodes[1])
        assert queue.pop() is nodes[1]
        queue.push(nodes[2])
        assert queue.pop() is nodes[2]
        assert queue.pop() is nodes[0]
        assert len(queue) == 0


class TestLevelCut:
    def test_rounding_both_sides(self):
        # lam.C = (1.2, -0.4), rhs 2.7 rounds to 2x1 + 0x2 >= 2
        coeffs, rhs = add_level_cut(np.array([[1.2, -0.4]]), np.array([1.0]), 2.7)
        assert list(coeffs) == [2, 0]
        assert rhs == 2

    def test_integer_data_unchanged(self):
        coeffs, rhs = add_level_cut(np.array([[3.0, -2.0]]), np.array([1.0]), 4.0)
        assert list(coeffs) == [3, -2]
        assert rhs == 4

    def test_trivially_redundant_dropped(self):
        assert add_level_cut(np.array([[-0.1]]), np.array([1.0]), -0.9) is None

    def test_cut_valid_for_binary_points(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            C = rng.integers(-9, 10, (2, n))
            lam = rng.random(2)
            a_bar = lam @ C
            # the rounded cut must hold whenever the fractional one does
            coeffs_rhs = add_level_cut(C, lam, float(rng.uniform(-20, 5)))
            if coeffs_rhs is None:
                continue
            coeffs, rhs = coeffs_rhs
            for bits in range(1 << n):
                x = np.array([(bits >> k) & 1 for k in range(n)])
                if float(a_bar @ x) >= rhs:
                    assert int(coeffs @ x) >= rhs


class TestPruneRedundantCuts:
    def _bound_with_solutions(self, sols):
        return LowerBoundSet(hyperplanes=[], facet_offsets=np.zeros(2),
                             extreme_solutions=[np.asarray(s, dtype=float)
                                                for s in sols])

    def test_slack_cut_removed(self):
        L = self._bound_with_solutions([(1.0, 1.0)])
        cuts = [(np.array([1, 1]), 0)]  # slack 2 at the only extreme solution
        assert prune_redundant_cuts(cuts, L) == []

    def test_tight_cut_kept(self):
        L = self._bound_with_solutions([(1.0, 0.0)])
        cuts = [(np.array([1, 1]), 1)]
        assert prune_redundant_cuts(cuts, L) == cuts

    def test_empty_pool_noop(self):
        L = self._bound_with_solutions([(1.0, 0.0)])
        assert prune_redundant_cuts([], L) == []


class TestBranchingRules:
    def test_most_often_fractional(self):
        inst = Instance(C=[[1, 1, 1], [1, 1, 1]], A=[[1, 1, 1]], b=[3],
                        senses=("le",))
        L = LowerBoundSet(hyperplanes=[], facet_offsets=np.zeros(2),
                          extreme_solutions=[np.array([0.5, 1.0, 0.0]),
                                             np.array([0.5, 0.2, 0.0])])
        j = choose_branch_variable(inst, L, [0, 1, 2], SolverConfig())
        assert j == 0  # fractional in both solutions

    def test_sum_of_ratios_formula(self):
        inst = Instance(C=[[3, 1], [1, 3]], A=[[1, 2]], b=[3], senses=("le",))
        # summed |objective| per variable (4, 4), weights (1, 2) -> ratios (4, 2)
        assert sum_of_ratios_variable(inst, [0, 1]) == 0

    def test_integral_solutions_fall_back_to_ratio_rule(self):
        inst = Instance(C=[[3, 1], [1, 3]], A=[[1, 2]], b=[3], senses=("le",))
        L = LowerBoundSet(hyperplanes=[], facet_offsets=np.zeros(2),
                          extreme_solutions=[np.array([1.0, 0.0])])
        assert choose_branch_variable(inst, L, [0, 1], SolverConfig()) == 0

    def test_ratio_ties_take_lowest_index(self):
        inst = Instance(C=[[2, 2], [2, 2]], A=[[1, 1]], b=[2], senses=("le",))
        assert sum_of_ratios_variable(inst, [0, 1]) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 8))
    def test_sum_of_ratios_equals_loop(self, seed, m, n):
        rng = np.random.default_rng(seed)
        inst = Instance(C=rng.integers(-3, 4, (2, n)), A=rng.integers(-1, 4, (m, n)),
                        b=rng.integers(0, 9, m),
                        senses=tuple(rng.choice(["le", "ge", "eq"], m)))
        free = sorted(rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist())
        assert sum_of_ratios_variable(inst, free) == _sum_of_ratios_loop(inst, free)


def _sum_of_ratios_loop(instance, free):
    """The reference: the first all-nonnegative <= row found by a scan, and
    the free variable of largest score by a strict > loop."""
    scores = np.sum(np.abs(instance.C), axis=0).astype(float)
    for i, s in enumerate(instance.senses):
        row = instance.A[i]
        if s == "le" and np.all(row >= 0) and np.any(row > 0):
            scores = scores / np.where(row > 0, row, 1).astype(float)
            break
    best = free[0]
    for j in free:
        if scores[j] > scores[best]:
            best = j
    return best


class TestSlbWeight:
    def test_two_point_normal(self):
        lubs = np.array([[6, 9], [9, 7], [10, 5]])
        lam = slb_weight(lubs, 2)
        # per-objective minimizers (6,9) and (10,5); the line through them
        # has normal proportional to (1, 1)
        assert lam == pytest.approx([0.5, 0.5])

    def test_negative_normal_falls_back_to_equal_weights(self):
        # minimizers (0,10,10) / (10,0,0) / (10,0,0)... degenerate rank
        lubs = np.array([[0, 10, 10], [10, 0, 0]])
        lam = slb_weight(lubs, 3)
        assert lam == pytest.approx([1 / 3] * 3)

    def test_empty_parent_set_gives_equal_weights(self):
        assert slb_weight(None, 2) == pytest.approx([0.5, 0.5])
        assert slb_weight(np.empty((0, 2)), 2) == pytest.approx([0.5, 0.5])


class TestWarmstart:
    def test_tiny_kp_incumbents_found_before_search(self):
        solver = Solver(tiny_kp(), SolverConfig(warmstart=True))
        solver._deadline = time.monotonic() + 60
        assert solver.warmstart()
        assert sorted(solver.U.images()) == [(-3, -1), (-1, -3)]

    def test_infeasible_root_detected(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[-1], senses=("le",))
        points, _, stats = solve(inst, SolverConfig(warmstart=True))
        assert points == [] and stats.solved


class TestSchedules:
    def test_ec_iterations_are_multiples_of_n(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=5, items=10))
        _, _, stats = solve(inst, SolverConfig(warmstart=True, ec_enabled=True,
                                               node_selection="lhg", trace=True))
        n = inst.n
        ec_iterations = [r["iteration"] for r in stats.trace if r["ec"]]
        assert ec_iterations
        for it in ec_iterations:
            assert it % n == 0 and it <= inst.p * n * n

    def test_slb_triggers_only_at_multiples_of_level(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=6, items=12))
        _, _, stats = solve(inst, SolverConfig(slb_enabled=True, slb_level=3,
                                               refine_max=5, trace=True))
        slb_depths = [r["depth"] for r in stats.trace if r["slb"]]
        assert slb_depths
        for depth in slb_depths:
            assert depth >= 3 and depth % 3 == 0

    def test_te_triggers_exactly_at_threshold(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=8, items=14))
        cfg = SolverConfig(te_enabled=True, te_threshold=10, trace=True)
        _, _, stats = solve(inst, cfg)
        te_free = [r["free"] for r in stats.trace if r["outcome"] == "enumeration"]
        assert te_free
        for free in te_free:
            assert free <= 10
        # every traced node with few enough free variables was enumerated
        for rec in stats.trace:
            if rec["free"] <= 10 and rec["free"] > 0:
                assert rec["outcome"] == "enumeration"

    def test_te_threshold_boundary_not_triggered(self):
        inst = generate(GeneratorSpec(family="KP", p=2, seed=8, items=11))
        cfg = SolverConfig(te_enabled=True, te_threshold=10, trace=True)
        _, _, stats = solve(inst, cfg)
        roots = [r for r in stats.trace if r["free"] == 11]
        assert roots and all(r["outcome"] != "enumeration" for r in roots)

    def test_te_results_match_oracle(self):
        inst = generate(GeneratorSpec(family="KP", p=3, seed=9, items=12))
        points, _, _ = solve(inst, SolverConfig(te_enabled=True, refine_max=5))
        assert sorted(points) == oracle_front(inst)


class TestTrace:
    # SLB at even depths, an EC solve every 12th node, TE below 5 free
    # variables: on this instance every outcome and every flag occurs
    CFG = dict(node_selection="lhg", warmstart=True, ec_enabled=True,
               slb_enabled=True, slb_level=2, te_enabled=True, te_threshold=4,
               refine_max=5)

    @staticmethod
    def instance():
        return generate(GeneratorSpec(family="KP", p=2, seed=4, items=12))

    def test_one_record_per_node_and_counts_add_up(self):
        _, _, stats = solve(self.instance(), SolverConfig(trace=True, **self.CFG))
        assert len(stats.trace) == stats.nodes_explored
        assert [r["iteration"] for r in stats.trace] == list(
            range(1, stats.nodes_explored + 1))
        outcomes = {}
        for r in stats.trace:
            assert set(r) == {"iteration", "depth", "free", "fixings", "outcome",
                              "slb", "slb_target", "ec", "ec_found"}
            assert r["free"] == 12 - len(r["fixings"])
            outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
            # an add-on's outcome is recorded only where the add-on ran, and
            # an SLB IP stopped at its target leaves no lub above its bound
            assert r["slb"] or not r["slb_target"]
            assert r["ec"] or not r["ec_found"]
            if r["slb_target"]:
                assert r["outcome"] == "dominance"
        assert outcomes == {**stats.fathomed, "branched": stats.branched}
        for flag in ("slb", "slb_target", "ec", "ec_found"):
            assert any(r[flag] for r in stats.trace), flag

    def test_untraced_run_counts_the_same(self):
        inst = self.instance()
        traced = solve(inst, SolverConfig(trace=True, **self.CFG))
        untraced = solve(inst, SolverConfig(**self.CFG))
        assert untraced[2].trace == []
        assert untraced[0] == traced[0]
        for key in ("nodes_explored", "branched", "fathomed", "ips"):
            assert getattr(untraced[2], key) == getattr(traced[2], key)


class TestConfigValidation:
    def test_te_threshold_above_cap_rejected(self):
        with pytest.raises(ModelError):
            SolverConfig(te_threshold=30)
        # a threshold below 1 would silently never enumerate: a node with
        # no free variable is a leaf before TE is tested
        for threshold in (0, -1):
            with pytest.raises(ModelError):
                SolverConfig(te_threshold=threshold)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ModelError):
            SolverConfig(node_selection="best-first")

    def test_bad_slb_level_rejected(self):
        with pytest.raises(ModelError):
            SolverConfig(slb_level=0)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0, -math.inf])
    def test_time_limit_not_positive_rejected(self, limit):
        # NaN compares False with every deadline, so a run would never stop
        with pytest.raises(ModelError):
            SolverConfig(time_limit=limit)

    def test_frozen_fields_are_checked_again_on_replace(self):
        # a field assigned after construction would skip __post_init__
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.time_limit = math.nan
        assert cfg.time_limit == SolverConfig.time_limit
        for bad in ({"time_limit": math.nan}, {"te_threshold": 0},
                    {"refine_max": -3}):
            with pytest.raises(ModelError):
                dataclasses.replace(cfg, **bad)
        variant = dataclasses.replace(cfg, node_selection="lhg", time_limit=5.0)
        assert (variant.node_selection, variant.time_limit) == ("lhg", 5.0)
        assert cfg.node_selection == SolverConfig.node_selection


class TestScalarizedIps:
    @pytest.mark.parametrize("spec", [
        GeneratorSpec(family="GAP", p=2, seed=2, agents=3, jobs=6),
        GeneratorSpec(family="KP", p=2, seed=5, items=12)], ids=["GAP", "KP"])
    def test_stopped_slb_ip_keeps_its_proven_level(self, monkeypatch, spec):
        # no SLB IP may expand a node, so most stop with their root LP bound
        # and no solution; that bound is still a valid level
        monkeypatch.setattr(mobb.solver, "_SLB_NODE_LIMIT", 0)
        ips, bounds = [], []
        ip, slb = mobb.solver.solve_weighted_sum_ip, Solver.simple_lower_bound
        monkeypatch.setattr(mobb.solver, "solve_weighted_sum_ip",
                            lambda *args, **kw: ips.append(ip(*args, **kw)) or ips[-1])
        monkeypatch.setattr(Solver, "simple_lower_bound",
                            lambda self, node: bounds.append(slb(self, node)) or bounds[-1])
        inst = generate(spec)
        points, _, stats = solve(inst, SolverConfig(node_selection="lhg",
                                                    slb_enabled=True, slb_level=2))
        # without warmstart each weighted-sum IP is the one of an SLB call
        assert len(ips) == len(bounds)
        stopped = 0
        for (res, level), (L, _, _) in zip(ips, bounds):
            if res.status == STATUS_NO_SOLUTION_TIMEOUT:
                stopped += 1
                [(lam, rhs)] = L.hyperplanes
                assert lam is level[0] and rhs == res.bound
        assert stopped > 0
        assert sorted(points) == oracle_front(inst)
        assert stats.cut_log
        for fixings, coeffs, rhs in stats.cut_log:
            for s in enumerate_nondominated(inst, fixings):
                assert int(coeffs @ np.asarray(s.x)) >= rhs

    def test_every_ip_stops_at_the_solver_deadline(self, monkeypatch):
        # the clock stands at 0 but reads just past the solver's deadline
        # from an IP's first stage on, or for an EC from its ec_stage-th:
        # each IP must stop at its first deadline check, after one LP per
        # stage left, and the search goes on around it
        now = [0.0]
        clock = SimpleNamespace(monotonic=lambda: now[0])
        monkeypatch.setattr(mobb.solver, "time", clock)
        monkeypatch.setattr(mobb.ipsolve, "time", clock)
        lps = []        # the LPs an IP solves once the deadline has passed
        lp = mobb.ipsolve.solve_lp

        def counted(*args):
            if now[0]:
                lps.append(1)
            return lp(*args)

        monkeypatch.setattr(mobb.ipsolve, "solve_lp", counted)
        weighted_sum = mobb.solver.solve_weighted_sum_ip
        econstraint = mobb.solver.solve_econstraint
        stage = mobb.ipsolve.solve_single_objective
        inst = generate(GeneratorSpec(family="KP", p=2, seed=5, items=12))
        for ec_stage in (1, 2):
            solver = Solver(inst, SolverConfig(node_selection="lhg", warmstart=True,
                                               ec_enabled=True, slb_enabled=True,
                                               slb_level=2, time_limit=100.0))
            accepted = []
            accept = solver._accept
            monkeypatch.setattr(solver, "_accept",
                                lambda sol: accepted.append(sol.x) or accept(sol))
            runs = []
            running = {}    # the kind of the IP that runs and its stages so far

            def scalarized(kind, fn):
                def run(*args, **kw):
                    running.update(kind=kind(args), stages=0)
                    lps.clear()
                    try:
                        result = fn(*args, **kw)
                    finally:
                        now[0] = 0.0
                    runs.append((running["kind"], result[0], len(lps), len(accepted)))
                    return result
                return run

            def staged(*args, **kw):
                running["stages"] += 1
                if running["kind"] != "ec" or running["stages"] == ec_stage:
                    now[0] = math.nextafter(solver._deadline, math.inf)
                return stage(*args, **kw)

            monkeypatch.setattr(mobb.ipsolve, "solve_single_objective", staged)
            # warmstart IPs run at the root, SLB IPs below it
            monkeypatch.setattr(mobb.solver, "solve_weighted_sum_ip", scalarized(
                lambda args: "slb" if args[0].fixings else "warmstart", weighted_sum))
            monkeypatch.setattr(mobb.solver, "solve_econstraint", scalarized(
                lambda args: "ec", econstraint))
            points, _, stats = solver.solve()
            assert stats.solved and sorted(points) == oracle_front(inst)
            truncated = (STATUS_FEASIBLE_TIMEOUT, STATUS_NO_SOLUTION_TIMEOUT)
            for kind, stages in (("warmstart", 1), ("ec", 3 - ec_stage), ("slb", 1)):
                mine = [(res.status, n) for k, res, n, _ in runs if k == kind]
                assert any(status in truncated for status, _ in mine), kind
                assert all(n <= stages for _, n in mine), kind
            # one solution rule: every solution an IP returns goes to U next,
            # the stage-1 solution of an EC whose stage 2 stopped included
            for _, res, _, i in runs:
                assert res.solution is None or accepted[i] == res.solution
            fallbacks = [res for k, res, _, _ in runs
                         if k == "ec" and res.status == STATUS_FEASIBLE_TIMEOUT]
            assert bool(fallbacks) == (ec_stage == 2)
            assert all(res.solution is not None for res in fallbacks)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(family="KP", p=2, seed=5, items=12),
        GeneratorSpec(family="GAP", p=2, seed=2, agents=3, jobs=6),
        GeneratorSpec(family="KP", p=3, seed=1, items=10)],
        ids=["KP2", "GAP2", "KP3"])
    def test_cutoff_and_target_change_no_decision(self, monkeypatch, spec):
        # EC's cutoff and SLB's target only stop IPs sooner: with every
        # add-on, each node ends as it does when no IP gets them
        lps = []
        lp = mobb.ipsolve.solve_lp
        monkeypatch.setattr(mobb.ipsolve, "solve_lp",
                            lambda *args: lps.append(1) or lp(*args))
        inst = generate(spec)
        cfg = SolverConfig(node_selection="lhg", warmstart=True, ec_enabled=True,
                           slb_enabled=True, slb_level=2, te_enabled=True,
                           te_threshold=4, trace=True)
        got = solve(inst, cfg)
        got_lps = len(lps)
        stage = mobb.ipsolve.solve_single_objective

        def uninformed(sub, c, deadline=math.inf, node_limit=None, **stops):
            assert set(stops) <= {"cutoff", "target"}
            return stage(sub, c, deadline, node_limit)

        monkeypatch.setattr(mobb.ipsolve, "solve_single_objective", uninformed)
        lps.clear()
        ref = solve(inst, cfg)

        def decisions(stats):
            return [(r["fixings"], r["outcome"], r["slb"], r["ec"])
                    for r in stats.trace]

        assert decisions(got[2]) == decisions(ref[2])
        assert got[0] == ref[0] == oracle_front(inst)
        assert [s.x for s in got[1]] == [s.x for s in ref[1]]
        assert any(r["slb_target"] for r in got[2].trace)
        assert not any(r["slb_target"] for r in ref[2].trace)
        assert got_lps < len(lps)


class TestNoFalsePruning:
    def test_dominance_fathomed_subtrees_add_nothing(self):
        for seed in (1, 2, 3):
            inst = generate(GeneratorSpec(family="KP", p=2, seed=seed, items=10))
            cfg = SolverConfig(trace=True, refine_max=5)
            points, _, stats = solve(inst, cfg)
            front = set(points)
            from mobb.model import weakly_dominates
            for rec in stats.trace:
                if rec["outcome"] != "dominance":
                    continue
                for s in enumerate_nondominated(inst, rec["fixings"]):
                    assert any(weakly_dominates(f, s.image) for f in front)


class TestDeterminism:
    def test_repeated_runs_identical(self):
        inst = generate(GeneratorSpec(family="UFLP", p=2, seed=4, facilities=2,
                                      customers=3))
        cfg = SolverConfig(node_selection="lhg", warmstart=True, ec_enabled=True)
        first = solve(inst, cfg)
        second = solve(inst, cfg)
        assert first[0] == second[0]
        assert first[2].nodes_explored == second[2].nodes_explored
        assert first[2].ips == second[2].ips


class _UnfilteredSolver(Solver):
    """The reference ``_surviving``: every integral extreme solution goes
    through ``is_feasible`` and the incumbent update, with no prefilter."""

    def _surviving(self, L):
        if L.extreme_solutions:
            X = np.asarray(L.extreme_solutions)
            Xr = np.rint(X)
            for i in np.where(np.max(np.abs(X - Xr), axis=1) <= _INT_TOL)[0]:
                xi = Xr[i].astype(np.int64)
                if mobb.solver.is_feasible(self.instance, xi):
                    self._accept(Solution.from_x(self.instance, xi))
        return self.K.arr[surviving_mask(L, self.K.arr)]


class TestIncumbentPrefilter:
    """``Solver._surviving`` skips the images the incumbents already weakly
    dominate; the incumbent list and the lubs must not notice."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 12),
           st.integers(0, 12))
    def test_drops_exactly_what_update_rejects(self, seed, p, n_inc, n_cand):
        rng = np.random.default_rng(seed)
        U = IncumbentList()
        for y in rng.integers(-4, 5, (n_inc, p)):
            U.update(Solution(x=(), image=tuple(int(v) for v in y)))
        Y = rng.integers(-4, 5, (n_cand, p))
        dropped = U.dominated(Y)
        assert dropped.shape == (n_cand,)
        for y, drop in zip(Y, dropped.tolist()):
            twin = IncumbentList(list(U.entries))
            accepted, _ = twin.update(Solution(x=(), image=tuple(int(v) for v in y)))
            assert drop == (not accepted)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["KP", "GAP", "UFLP"]), st.integers(2, 3),
           st.integers(0, 1000), st.sampled_from(["depth", "lhg", "hsz"]),
           st.booleans(), st.booleans(), st.booleans())
    def test_solve_leaves_incumbents_and_lubs_as_unfiltered(
            self, family, p, seed, strategy, warmstart, ec, slb):
        size = {"KP": dict(items=9), "GAP": dict(agents=2, jobs=4),
                "UFLP": dict(facilities=2, customers=3)}[family]
        inst = generate(GeneratorSpec(family=family, p=p, seed=seed, **size))
        cfg = SolverConfig(node_selection=strategy, warmstart=warmstart,
                           ec_enabled=ec, slb_enabled=slb, slb_level=2,
                           refine_max=5)
        got, ref = Solver(inst, cfg), _UnfilteredSolver(inst, cfg)
        got_points, _, got_stats = got.solve()
        ref_points, _, ref_stats = ref.solve()
        assert got.U.entries == ref.U.entries
        assert np.array_equal(got.K.arr, ref.K.arr)
        assert got_points == ref_points
        assert got_stats.nodes_explored == ref_stats.nodes_explored
        assert got_stats.fathomed == ref_stats.fathomed

    def test_skips_feasibility_checks(self, monkeypatch):
        checks = []

        def counted(instance, x):
            checks.append(1)
            return is_feasible(instance, x)

        monkeypatch.setattr(mobb.solver, "is_feasible", counted)
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=2, agents=3, jobs=5))
        counts = []
        for cls in (Solver, _UnfilteredSolver):
            checks.clear()
            cls(inst, SolverConfig(node_selection="lhg")).solve()
            counts.append(len(checks))
        assert counts[0] < counts[1]


class _FreshChildSolver(Solver):
    """The reference: every node rebuilds its relaxation afresh from its own
    fixings and cut rows, with phase 1, instead of starting from its parent's
    tableau, and finds its bound afresh instead of from the parent's points
    that its fixing keeps."""

    def process_node(self, node, iteration, queue):
        node.sub = RelaxedSubproblem(self.instance, dict(node.sub.fixings),
                                     list(node.sub.cut_rows))
        return super().process_node(node, iteration, queue)


class _ChildRecordingSolver(Solver):
    """Records (parent subproblem, whether SLB built its bound, child node)
    for every child pushed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.children = []

    def process_node(self, node, iteration, queue):
        pushed = []
        push = queue.push
        queue.push = pushed.append
        try:
            outcome, addons = super().process_node(node, iteration, queue)
        finally:
            del queue.push
        for child in pushed:
            self.children.append((node.sub, addons["slb"], child))
            push(child)
        return outcome, addons


P2_GENERAL = [
    GeneratorSpec(family="GAP", p=2, seed=2, agents=3, jobs=5),
    GeneratorSpec(family="UFLP", p=2, seed=2, facilities=2, customers=4),
    GeneratorSpec(family="CFLP", p=2, seed=2, facilities=3, customers=3),
]


class TestWarmChildren:
    """A child node branches from its parent's tableau (``Node.sub``) when
    the parent has one and the child keeps its cut rows."""

    @pytest.mark.parametrize("spec", P2_GENERAL, ids=lambda s: s.family)
    def test_phase1_runs_once_per_solve(self, monkeypatch, spec):
        runs = []
        phase1 = _Tableau.phase1.__func__

        def counted(cls, A, b):
            runs.append(1)
            return phase1(cls, A, b)

        monkeypatch.setattr(_Tableau, "phase1", classmethod(counted))
        inst = generate(spec)
        points, _, stats = solve(inst, SolverConfig(node_selection="lhg"))
        assert points == oracle_front(inst)
        assert stats.nodes_explored >= 9
        assert len(runs) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["KP", "GAP", "UFLP", "CFLP"]), st.integers(2, 3),
           st.integers(0, 1000), st.sampled_from(["depth", "lhg", "hsz"]),
           st.booleans(), st.booleans(), st.booleans())
    def test_twin_solve_matches_fresh_children_and_oracle(
            self, family, p, seed, strategy, warmstart, ec, slb):
        size = {"KP": dict(items=9), "GAP": dict(agents=2, jobs=4),
                "UFLP": dict(facilities=2, customers=3),
                "CFLP": dict(facilities=2, customers=3)}[family]
        inst = generate(GeneratorSpec(family=family, p=p, seed=seed, **size))
        cfg = SolverConfig(node_selection=strategy, warmstart=warmstart,
                           ec_enabled=ec, slb_enabled=slb, slb_level=2,
                           refine_max=5)
        got_points, _, got_stats = Solver(inst, cfg).solve()
        ref_points, _, ref_stats = _FreshChildSolver(inst, cfg).solve()
        assert got_points == ref_points == oracle_front(inst)
        assert got_stats.solved and ref_stats.solved

    @pytest.mark.parametrize("strategy", ("depth", "lhg"))
    def test_parent_released_once_both_children_are_built(self, monkeypatch,
                                                          strategy):
        # a queued child holds its parent's tableau until its first solve,
        # and nothing holds the parent's subproblem or an older ancestor's
        records = weakref.WeakKeyDictionary()     # child -> its parent's record
        parent = {}             # the record of the subproblem being branched
        branch = RelaxedSubproblem.branch
        frontier = mobb.solver.lower_bound_frontier
        released = []

        def recorded_branch(sub, j, v, cut_rows=None, bound=None):
            if v == 0:
                parent["record"] = {"sub": weakref.ref(sub), "built": 0,
                                    "tableau": weakref.ref(sub.tableau)}
            child = branch(sub, j, v, cut_rows, bound)
            records[child] = parent["record"]
            return child

        def recorded_frontier(sub):
            rec = records.get(sub)
            try:
                return frontier(sub)
            finally:
                if rec is not None:
                    rec["built"] += 1
                    if rec["built"] == 2:
                        released.append(rec["sub"]() is None
                                        and rec["tableau"]() is None)

        monkeypatch.setattr(RelaxedSubproblem, "branch", recorded_branch)
        monkeypatch.setattr(mobb.solver, "lower_bound_frontier", recorded_frontier)
        solve(generate(P2_GENERAL[0]), SolverConfig(node_selection=strategy))
        assert len(released) >= 10 and all(released)


class TestInheritedBounds:
    """A p = 2 child keeps its parent's extreme points for its bound only
    when its relaxation lies inside the parent's: same cut rows, and a
    parent bound from the frontier rather than SLB."""

    def test_other_cut_rows_inherit_nothing(self):
        # warmstart cuts that pruning drops and cuts that SLB adds give
        # children other rows than their parent's
        inst = generate(GeneratorSpec(family="GAP", p=2, seed=2, agents=3, jobs=6))
        solver = _ChildRecordingSolver(inst, SolverConfig(
            node_selection="lhg", warmstart=True, slb_enabled=True, slb_level=2))
        points, _, stats = solver.solve()
        assert stats.solved and points == oracle_front(inst)
        seen = {"dropped": 0, "added": 0, "slb": 0}
        for parent, slb, child in solver.children:
            rows = child.sub.cut_rows
            if slb:
                seen["slb"] += 1
                assert child.sub.kept is None
            if not (len(rows) == len(parent.cut_rows)
                    and all(map(operator.is_, rows, parent.cut_rows))):
                assert child.sub.kept is None
                seen["added" if len(rows) > len(parent.cut_rows) else "dropped"] += 1
        assert min(seen.values()) >= 1, seen

    @pytest.mark.parametrize("spec", P2_GENERAL, ids=lambda s: s.family)
    def test_kept_points_are_the_parents_with_the_fixing(self, spec):
        inst = generate(spec)
        solver = _ChildRecordingSolver(inst, SolverConfig(node_selection="lhg"))
        points, _, _ = solver.solve()
        assert points == oracle_front(inst)
        n_kept = 0
        for _, _, child in solver.children:
            kept = child.sub.kept
            if kept is None:
                continue
            j = list(child.sub.fixings)[-1]     # the child's own fixing
            v = child.sub.fixings[j]
            assert kept.index == sorted(kept.index)
            solutions = map(np.frombuffer, kept.solutions)
            assert all(abs(x[j] - v) <= 1e-9 for x in solutions)
            n_kept += 1
        assert n_kept >= 5

    @staticmethod
    def _root_with_kept_fixing(spec):
        """The root subproblem of ``spec``, its frontier bound and a fixing
        x_j = v that some extreme solution of the bound has."""
        sub = RelaxedSubproblem(generate(spec))
        L = lower_bound_frontier(sub)
        x = L.extreme_solutions[0]
        j = int(np.abs(x - x.round()).argmin())
        v = int(x[j].round())
        assert KeptPoints.of(L, j, v) is not None
        return sub, L, j, v

    def test_slb_bound_keeps_nothing(self):
        # a simple bound has no extreme solutions to keep
        sub, L, j, v = self._root_with_kept_fixing(P2_GENERAL[0])
        slb = LowerBoundSet(hyperplanes=[(np.array([0.5, 0.5]), -1e9)],
                            facet_offsets=L.facet_offsets)
        assert sub.branch(j, v, None, L).kept is not None
        assert sub.branch(j, v, None, slb).kept is None

    def test_p3_bound_keeps_nothing(self):
        # only _frontier_2d starts from kept points
        sub, L, j, v = self._root_with_kept_fixing(GeneratorSpec(
            family="GAP", p=3, seed=1, agents=3, jobs=4))
        assert sub.branch(j, v, None, L).kept is None
