"""Tests for the problem model, dominance algebra and the enumeration oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobb.model import (DEFAULT_ENUM_CAP, Dominance, Instance, ModelError,
                        Solution, compare, enumerate_nondominated, evaluate,
                        is_feasible, weakly_dominates)


def _enumerate_scalar(instance, fixings=None, cap=DEFAULT_ENUM_CAP):
    """Reference for enumerate_nondominated: the same feasible rows, then one
    dict entry per image, filled row by row, and a forward Pareto sweep over
    the sorted images against the running front."""
    fixings = dict(fixings or {})
    n = instance.n
    for j, v in fixings.items():
        if not 0 <= j < n or v not in (0, 1):
            raise ModelError(f"bad fixing {j}:{v}")
    free = [j for j in range(n) if j not in fixings]
    nfree = len(free)
    if nfree > cap:
        raise ModelError(f"{nfree} free variables exceed enumeration cap {cap}")

    A_le, b_le = instance.le_normalized()
    base = np.zeros(n, dtype=np.int64)
    for j, v in fixings.items():
        base[j] = v

    best_x = {}  # image tuple -> first (lex-smallest) x
    chunk_bits = min(nfree, 16)
    total = 1 << nfree
    step = 1 << chunk_bits
    shifts = np.array([nfree - 1 - i for i in range(nfree)], dtype=np.uint64)
    for start in range(0, total, step):
        idx = np.arange(start, min(start + step, total), dtype=np.uint64)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        X = np.tile(base, (len(idx), 1))
        if nfree:
            X[:, free] = bits.astype(np.int64)
        feas = np.all(X @ A_le.T <= b_le, axis=1)
        Xf = X[feas]
        imgs = Xf @ instance.C.T
        for x, y in zip(Xf, imgs):
            key = tuple(int(v) for v in y)
            if key not in best_x:
                best_x[key] = tuple(int(v) for v in x)
    front = []
    for y in sorted(best_x):
        if any(all(a <= b for a, b in zip(f, y)) for f in front):
            continue
        front.append(y)
    return [Solution(x=best_x[y], image=y) for y in front]


def _is_feasible_by_sense(instance, x):
    """Reference for is_feasible: each row against b with its own sense."""
    lhs = instance.A @ np.asarray(x, dtype=np.int64)
    for i, s in enumerate(instance.senses):
        if s == "le" and lhs[i] > instance.b[i]:
            return False
        if s == "ge" and lhs[i] < instance.b[i]:
            return False
        if s == "eq" and lhs[i] != instance.b[i]:
            return False
    return True


def tiny_kp():
    """Two items, one of which fits: the smallest instance with two efficient points."""
    return Instance(C=[[-3, -1], [-1, -3]], A=[[1, 1]], b=[1], senses=("le",),
                    name="tiny_kp")


class TestInstance:
    def test_shapes_and_dtypes_coerced_to_int64(self):
        inst = tiny_kp()
        assert inst.C.dtype == np.int64
        assert (inst.p, inst.n, inst.m) == (2, 2, 1)

    def test_single_objective_rejected(self):
        with pytest.raises(ModelError):
            Instance(C=[[1, 2]], A=[[1, 1]], b=[1], senses=("le",))

    def test_mismatched_b_rejected(self):
        with pytest.raises(ModelError):
            Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[1, 2], senses=("le",))

    def test_unknown_sense_rejected(self):
        with pytest.raises(ModelError):
            Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[1], senses=("lt",))

    def test_row_sum_limit_is_exact(self):
        # each entry and the running float64 sum round down, so a float sum
        # took this row, 2**62 + 65, for one below the limit
        with pytest.raises(ModelError, match="'C': coefficients too large"):
            Instance(C=[[2**58 + 31] * 15 + [2**58 - 400], [1] * 16],
                     A=[[1] * 16], b=[1], senses=("le",))
        ok = Instance(C=[[2**61, 2**61 - 1], [1, 1]], A=[[1, 1]], b=[1],
                      senses=("le",))
        assert int(np.abs(ok.C[0]).sum()) == 2**62 - 1
        with pytest.raises(ModelError, match="'A': coefficients too large"):
            Instance(C=[[1, 1], [1, 1]], A=[[2**61, -2**61]], b=[1],
                     senses=("le",))
        with pytest.raises(ModelError, match="'b': coefficients too large"):
            Instance(C=[[1, 1], [1, 1]], A=[[1, 1]], b=[-2**63], senses=("le",))

    def test_le_normalized_expands_equalities(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1], [1, 0]], b=[1, 0],
                        senses=("eq", "ge"))
        A_le, b_le = inst.le_normalized()
        assert A_le.shape == (3, 2)
        assert list(b_le) == [1, -1, 0]
        assert list(A_le[2]) == [-1, 0]


class TestEvaluate:
    def test_identity_objective(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[2], senses=("le",))
        assert list(evaluate(inst, (1, 0))) == [1, 0]

    def test_column_sum(self):
        assert list(evaluate(tiny_kp(), (1, 1))) == [-4, -4]

    def test_hand_product(self):
        inst = Instance(C=[[2, 5, 3], [4, 1, 1]], A=[[1, 1, 1]], b=[3],
                        senses=("le",))
        assert list(evaluate(inst, (0, 1, 1))) == [8, 2]

    def test_wrong_length_rejected(self):
        with pytest.raises(ModelError):
            evaluate(tiny_kp(), (1, 0, 1))


class TestCompare:
    def test_one_strict_one_equal(self):
        assert compare((1, 2), (1, 3)) is Dominance.DOMINATES

    def test_incomparable_is_symmetric(self):
        assert compare((1, 2), (2, 1)) is Dominance.INCOMPARABLE
        assert compare((2, 1), (1, 2)) is Dominance.INCOMPARABLE

    def test_equal_vectors_weakly_dominate_both_ways(self):
        assert compare((1, 2, 3), (1, 2, 3)) is Dominance.EQUAL
        assert weakly_dominates((1, 2, 3), (1, 2, 3))

    def test_strict_both_components(self):
        assert compare((0, 0), (1, 1)) is Dominance.STRICTLY_DOMINATES
        assert compare((1, 1), (0, 0)) is Dominance.STRICTLY_DOMINATED_BY

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=4),
           st.lists(st.integers(-5, 5), min_size=2, max_size=4))
    def test_compare_antisymmetry(self, a, b):
        if len(a) != len(b):
            return
        flip = {Dominance.DOMINATES: Dominance.DOMINATED_BY,
                Dominance.STRICTLY_DOMINATES: Dominance.STRICTLY_DOMINATED_BY,
                Dominance.DOMINATED_BY: Dominance.DOMINATES,
                Dominance.STRICTLY_DOMINATED_BY: Dominance.STRICTLY_DOMINATES,
                Dominance.EQUAL: Dominance.EQUAL,
                Dominance.INCOMPARABLE: Dominance.INCOMPARABLE}
        assert compare(b, a) is flip[compare(a, b)]


class TestIsFeasible:
    def test_le_violated(self):
        assert not is_feasible(tiny_kp(), (1, 1))

    def test_le_satisfied(self):
        assert is_feasible(tiny_kp(), (0, 1))

    def test_eq_violated(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[1], senses=("eq",))
        assert not is_feasible(inst, (0, 0))
        assert is_feasible(inst, (1, 0))

    def test_ge_checked(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[1], senses=("ge",))
        assert not is_feasible(inst, (0, 0))
        assert is_feasible(inst, (1, 1))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ModelError):
            is_feasible(tiny_kp(), (1, 0, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6))
    def test_equals_row_by_row_senses(self, seed, m, n):
        rng = np.random.default_rng(seed)
        inst = Instance(C=rng.integers(-3, 4, (2, n)), A=rng.integers(-3, 4, (m, n)),
                        b=rng.integers(-4, 5, m),
                        senses=tuple(rng.choice(["le", "ge", "eq"], m)))
        for bits in range(1 << n):
            x = np.array([(bits >> k) & 1 for k in range(n)])
            assert is_feasible(inst, x) == _is_feasible_by_sense(inst, x)


class TestEnumerateNondominated:
    def test_tiny_kp_front(self):
        sols = enumerate_nondominated(tiny_kp())
        assert [s.image for s in sols] == [(-3, -1), (-1, -3)]

    def test_fixing_restricts_completions(self):
        sols = enumerate_nondominated(tiny_kp(), {0: 1})
        assert [s.image for s in sols] == [(-3, -1)]

    def test_infeasible_instance_empty(self):
        inst = Instance(C=[[1, 0], [0, 1]], A=[[1, 1]], b=[-1], senses=("le",))
        assert enumerate_nondominated(inst) == []

    def test_enumeration_cap_enforced(self):
        inst = Instance(C=np.zeros((2, 26), dtype=int) + 1,
                        A=np.ones((1, 26), dtype=int), b=[26], senses=("le",))
        with pytest.raises(ModelError):
            enumerate_nondominated(inst, cap=25)

    def test_bad_fixing_rejected(self):
        # a key that is not an integer is rejected even where it equals one
        for fixings in ({0: 2}, {2: 0}, {-1: 1}, {1.5: 1}, {1.0: 1}, {"1": 1}):
            with pytest.raises(ModelError):
                enumerate_nondominated(tiny_kp(), fixings)

    def test_equal_images_keep_lex_smallest_x(self):
        inst = Instance(C=[[0, 0], [0, 0]], A=[[1, 1]], b=[2], senses=("le",))
        sols = enumerate_nondominated(inst)
        assert len(sols) == 1
        assert sols[0].x == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 7))
    def test_front_is_mutually_nondominated_and_complete(self, seed, p, n):
        rng = np.random.default_rng(seed)
        inst = Instance(C=rng.integers(-9, 10, (p, n)),
                        A=rng.integers(0, 5, (1, n)),
                        b=[int(rng.integers(0, 5 * n))], senses=("le",))
        sols = enumerate_nondominated(inst)
        front = [s.image for s in sols]
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                assert i == j or compare(a, b) is Dominance.INCOMPARABLE
        # every feasible point is weakly dominated by some front member
        for bits in range(1 << n):
            x = [(bits >> (n - 1 - k)) & 1 for k in range(n)]
            if is_feasible(inst, x):
                y = tuple(int(v) for v in evaluate(inst, x))
                assert any(weakly_dominates(f, y) for f in front)

    def test_cross_chunk_tie_keeps_lex_smallest_x(self):
        # x = 0, x0 = 1 and x16 = 1 all reach the image (0, 0); x0 drives the
        # top counter bit, so x0 = 1 lies in the second 2**16-row chunk
        C = np.zeros((2, 17), dtype=int)
        C[:, 1:16] = 1
        inst = Instance(C=C, A=np.ones((1, 17), dtype=int), b=[17],
                        senses=("le",))
        sols = enumerate_nondominated(inst)
        assert [(s.x, s.image) for s in sols] == [((0,) * 17, (0, 0))]
        assert sols == _enumerate_scalar(inst)

    @staticmethod
    def _check_against_scalar(seed, p, nfree, nfix, senses, big=False):
        # eq rows and negative right-hand sides give infeasible instances
        n = nfree + nfix
        rng = np.random.default_rng(seed)
        m = len(senses)
        C = rng.integers(-3, 4, (p, n))
        A = rng.integers(-2, 6, (m, n))
        b = rng.integers(-2, 2 * n + 1, m)
        fixed = rng.permutation(n)[:nfix]
        fixings = {int(j): int(rng.integers(0, 2)) for j in fixed}
        if big:
            # entries of about 2**57.4 (n <= 22 keeps row sums below 2**62):
            # sums above 2**53, which float64 rounds, so only exact int64 passes
            for a in (C, A, b):
                a += (2**62 // 24) * rng.integers(-1, 2, a.shape)
        inst = Instance(C=C, A=A, b=b, senses=tuple(senses))
        got = enumerate_nondominated(inst, fixings)
        assert got == _enumerate_scalar(inst, fixings)
        for s in got:
            assert all(type(v) is int for v in s.x + s.image)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 12),
           st.integers(0, 6),
           st.lists(st.sampled_from(("le", "ge", "eq")), min_size=1, max_size=3),
           st.booleans())
    # terminal enumeration's shape: 10 free variables, 8 to 12 fixings
    @example(1, 2, 10, 8, ["le"], False)
    @example(2, 3, 10, 10, ["le", "ge"], False)
    @example(3, 2, 10, 12, ["eq", "le"], True)
    # a leaf's: no free variable
    @example(4, 3, 0, 6, ["le", "eq"], False)
    @example(5, 2, 12, 6, ["le"], True)
    def test_matches_scalar_reference(self, seed, p, nfree, nfix, senses, big):
        # at least one variable
        self._check_against_scalar(seed, p, nfree, max(nfix, 1 - nfree), senses,
                                   big)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(17, 18),
           st.integers(0, 1),
           st.lists(st.sampled_from(("le", "ge", "eq")), min_size=1, max_size=3))
    # 16 free variables fill exactly one chunk
    @example(6, 3, 16, 1, ["le", "ge"])
    def test_matches_scalar_reference_across_chunks(self, seed, p, nfree, nfix,
                                                    senses):
        # 17 or 18 free variables span two or four 2**16-row chunks; n <= 18
        self._check_against_scalar(seed, p, nfree, min(nfix, 18 - nfree), senses)


class TestSolution:
    def test_from_x_records_image(self):
        s = Solution.from_x(tiny_kp(), (0, 1))
        assert s.x == (0, 1)
        assert s.image == (-1, -3)
