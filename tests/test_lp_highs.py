"""Differential test of the warm-started LP core against scipy's HiGHS.

Each subproblem solves a sequence of objectives on one RelaxedSubproblem, so
every solve after the first starts phase 2 from the previous optimal basis,
and both stages of the lexicographic minimum run on its tableau. Chains of
``RelaxedSubproblem.branch`` children substitute each fixing into the
parent's optimal tableau and start from it by dual simplex: the tableau of
the parent's last ``solve_lp``, or the one ``lower_bound_frontier`` leaves,
as the branch-and-bound solver branches from. A knapsack relaxation's
lexicographic minimum comes from the greedy alone, and is checked here too.
"""

import numpy as np
import pytest

from mobb.instances import GeneratorSpec, generate
from mobb.lp import (INFEASIBLE, OPTIMAL, RelaxedSubproblem, _lexmin,
                     lower_bound_frontier, solve_lp)
from mobb.model import enumerate_nondominated

optimize = pytest.importorskip("scipy.optimize")

TOL = 1e-7

SPECS = [
    GeneratorSpec(family="GAP", p=2, seed=3, agents=3, jobs=5),
    GeneratorSpec(family="UFLP", p=2, seed=3, facilities=3, customers=4),
    GeneratorSpec(family="CFLP", p=2, seed=3, facilities=3, customers=4),
]


def _highs(inst, fixings, cut_rows, c, extra=()):
    """min c.x over the same relaxation; ``extra`` rows are (a, rhs) with a.x <= rhs."""
    A_le, b_le = inst.le_normalized()
    A = [A_le.astype(float)] + [-np.asarray(a, dtype=float)[None, :] for a, _ in cut_rows]
    b = [b_le.astype(float)] + [np.array([-float(r)]) for _, r in cut_rows]
    A += [np.asarray(a, dtype=float)[None, :] for a, _ in extra]
    b += [np.array([float(r)]) for _, r in extra]
    bounds = [(fixings[j], fixings[j]) if j in fixings else (0.0, 1.0)
              for j in range(inst.n)]
    res = optimize.linprog(c, A_ub=np.vstack(A), b_ub=np.concatenate(b),
                           bounds=bounds, method="highs")
    if res.status == 2:
        return INFEASIBLE, None
    assert res.status == 0, res.message
    return OPTIMAL, float(res.fun)


def _subproblems(inst, rng, count):
    """Fixings, mostly copied from an efficient solution and some flipped,
    plus a level cut lam.Cx >= rhs at a random height."""
    efficient = [s.x for s in enumerate_nondominated(inst)]
    for _ in range(count):
        x = efficient[int(rng.integers(len(efficient)))]
        fixed = rng.permutation(inst.n)[:int(rng.integers(0, inst.n // 2))]
        fixings = {int(j): x[j] ^ int(rng.random() < 0.15) for j in fixed}
        lam = rng.random(inst.p) + 0.05
        lam /= lam.sum()
        a = lam @ inst.C
        status, lo = _highs(inst, fixings, [], a)
        if status == INFEASIBLE:
            yield fixings, []
            continue
        _, neg_hi = _highs(inst, fixings, [], -a)
        rhs = lo + float(rng.uniform(0.0, 1.1)) * (-neg_hi - lo)
        yield fixings, [(a, rhs)]


def _objectives(inst, rng):
    cs = [inst.C[0].astype(float), inst.C[1].astype(float)]
    for _ in range(4):
        lam = rng.random(inst.p)
        cs.append(lam / lam.sum() @ inst.C)
    cs.append(rng.integers(-20, 21, inst.n).astype(float))
    cs.append(inst.C[0].astype(float))
    return cs


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_warm_sequence_matches_highs(spec):
    inst = generate(spec)
    rng = np.random.default_rng(11)
    solved = infeasible = 0
    for fixings, cuts in _subproblems(inst, rng, 16):
        sub = RelaxedSubproblem(inst, fixings, cuts)
        for c in _objectives(inst, rng):
            res = solve_lp(sub, c)
            status, value = _highs(inst, fixings, cuts, c)
            assert res.status == status
            if status == INFEASIBLE:
                infeasible += 1
                continue
            solved += 1
            assert res.value == pytest.approx(value, abs=TOL)
            assert float(c @ res.x) == pytest.approx(res.value, abs=TOL)
    assert solved >= 50 and infeasible >= 1


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_lexmin_stages_match_highs(spec):
    inst = generate(spec)
    rng = np.random.default_rng(12)
    checked = 0
    for fixings, cuts in _subproblems(inst, rng, 16):
        sub = RelaxedSubproblem(inst, fixings, cuts)
        for k, j in ((0, 1), (1, 0), (0, 1)):
            out = _lexmin(sub, k, j)
            status, vk = _highs(inst, fixings, cuts, inst.C[k])
            assert (out is None) == (status == INFEASIBLE)
            if out is None:
                continue
            value, y, x = out
            assert value == pytest.approx(vk, abs=TOL)
            cap = [(inst.C[k], value + 1e-7)]
            status, vj = _highs(inst, fixings, cuts, inst.C[j], extra=cap)
            assert status == OPTIMAL
            assert y[k] <= value + 1e-7 + TOL
            assert y[j] == pytest.approx(vj, abs=TOL)
            checked += 1
    assert checked >= 24


def test_knapsack_lexmin_matches_highs():
    # exact: z_k at its minimum, and z_j at its minimum with z_k capped there
    inst = generate(GeneratorSpec(family="KP", p=2, seed=3, items=10))
    rng = np.random.default_rng(14)
    checked = infeasible = 0
    for _ in range(24):
        # up to n - 1 fixings, some of which overfill the knapsack
        fixed = rng.permutation(inst.n)[:int(rng.integers(0, inst.n))]
        fixings = {int(j): int(rng.integers(2)) for j in fixed}
        sub = RelaxedSubproblem(inst, fixings)
        assert sub.knapsack
        for k, j in ((0, 1), (1, 0)):
            out = _lexmin(sub, k, j)
            status, vk = _highs(inst, fixings, [], inst.C[k])
            assert (out is None) == (status == INFEASIBLE)
            if out is None:
                infeasible += 1
                continue
            value, y, _ = out
            assert value == pytest.approx(vk, abs=TOL)
            status, vj = _highs(inst, fixings, [], inst.C[j], extra=[(inst.C[k], vk)])
            assert status == OPTIMAL
            assert y[k] == pytest.approx(vk, abs=TOL)
            assert y[j] == pytest.approx(vj, abs=TOL)
            checked += 1
    assert checked >= 24 and infeasible >= 2


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_branch_chains_match_highs(spec):
    # the same chains twice: each parent branched right after solve_lp(sub, c),
    # then from the tableau its bound set leaves, optimal for the last
    # dichotomic weight and not for c
    inst = generate(spec)
    for frontier in (False, True):
        rng = np.random.default_rng(13)
        solved = infeasible = 0
        for _, cuts in _subproblems(inst, rng, 8):
            c = _objectives(inst, rng)[int(rng.integers(7))]
            sub = RelaxedSubproblem(inst, {}, cuts)
            if solve_lp(sub, c).status == INFEASIBLE:
                continue
            while len(sub.cols):
                if frontier:
                    lower_bound_frontier(sub)
                j = int(rng.choice(sub.cols))
                feasible = []
                for v in (0, 1):
                    child = sub.branch(j, v)
                    res = solve_lp(child, c)
                    status, value = _highs(inst, child.fixings, cuts, c)
                    assert res.status == status
                    if status == INFEASIBLE:
                        infeasible += 1
                        continue
                    solved += 1
                    assert res.value == pytest.approx(value, abs=TOL)
                    assert float(c @ res.x) == pytest.approx(res.value, abs=TOL)
                    feasible.append(child)
                if not feasible:
                    break
                sub = feasible[int(rng.integers(len(feasible)))]
        assert solved >= 100 and infeasible >= 40
