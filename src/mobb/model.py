"""Problem representation, dominance algebra and the exhaustive enumeration oracle.

All objective and constraint data are integer; dominance checks on feasible
images are therefore exact. Fractional (LP-derived) points are compared with a
fixed 1e-9 tolerance elsewhere.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

# Comparison tolerance for fractional values; integer data is compared exactly.
FLOAT_TOL = 1e-9

SENSE_LE = "le"
SENSE_GE = "ge"
SENSE_EQ = "eq"
_SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)

DEFAULT_ENUM_CAP = 25


class ModelError(ValueError):
    """Raised on inconsistent problem data or misuse of a model operation."""


@dataclass(frozen=True)
class Instance:
    """A multi-objective binary linear program: min Cx s.t. Ax (sense) b, x in {0,1}^n."""

    C: np.ndarray            # p x n integer objective matrix
    A: np.ndarray            # m x n integer constraint matrix
    b: np.ndarray            # m integer right-hand sides
    senses: tuple            # m entries over {"le", "ge", "eq"}
    name: str = "unnamed"

    def __post_init__(self):
        C = np.asarray(self.C, dtype=np.int64)
        A = np.asarray(self.A, dtype=np.int64)
        b = np.asarray(self.b, dtype=np.int64)
        if C.ndim != 2 or A.ndim != 2 or b.ndim != 1:
            raise ModelError("C and A must be matrices, b a vector")
        p, n = C.shape
        m = A.shape[0]
        if p < 2:
            raise ModelError(f"need at least 2 objectives, got {p}")
        if n < 1 or m < 1:
            raise ModelError("need at least one variable and one constraint")
        if A.shape[1] != n:
            raise ModelError(f"A has {A.shape[1]} columns, expected {n}")
        if b.shape[0] != m:
            raise ModelError(f"b has {b.shape[0]} entries, expected {m}")
        senses = tuple(self.senses)
        if len(senses) != m:
            raise ModelError(f"{len(senses)} senses for {m} constraints")
        for s in senses:
            if s not in _SENSES:
                raise ModelError(f"unknown sense {s!r}")
        # absolute row sums below 2**62 keep C x, A x and the big-M derived
        # from C inside int64; summed exactly as Python ints, since
        # abs(-2**63) wraps in int64 and float64 sums round
        for name, rows in (("C", C), ("A", A), ("b", b[:, None])):
            if max(sum(map(abs, row)) for row in rows.tolist()) >= 2 ** 62:
                raise ModelError(f"'{name}': coefficients too large "
                                 "(an absolute row sum reaches 2**62)")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def le_normalized(self):
        """All constraints as (A_le, b_le) with sense <=; eq rows become two rows.

        Computed once per instance; the arrays are read-only.
        """
        return self._le

    @functools.cached_property
    def _le(self):
        rows, rhs = [], []
        for i, s in enumerate(self.senses):
            if s == SENSE_LE:
                rows.append(self.A[i])
                rhs.append(self.b[i])
            elif s == SENSE_GE:
                rows.append(-self.A[i])
                rhs.append(-self.b[i])
            else:
                rows.append(self.A[i])
                rhs.append(self.b[i])
                rows.append(-self.A[i])
                rhs.append(-self.b[i])
        A_le = np.array(rows, dtype=np.int64)
        b_le = np.array(rhs, dtype=np.int64)
        A_le.flags.writeable = False
        b_le.flags.writeable = False
        return A_le, b_le

    @functools.cached_property
    def ratio_scores(self) -> np.ndarray:
        """Sum-of-ratios branching scores, computed once per instance: each
        variable's summed absolute objective coefficients, divided by its
        positive weight in the first all-nonnegative <= row, if there is one.
        Read-only."""
        scores = np.sum(np.abs(self.C), axis=0).astype(float)
        for row, s in zip(self.A, self.senses):
            if s == SENSE_LE and np.all(row >= 0) and np.any(row > 0):
                scores = scores / np.where(row > 0, row, 1).astype(float)
                break
        scores.flags.writeable = False
        return scores


@dataclass(frozen=True)
class Solution:
    """A binary vector together with its objective image."""

    x: tuple
    image: tuple

    @classmethod
    def from_x(cls, instance: Instance, x) -> "Solution":
        y = evaluate(instance, x)
        # tuples of lists: tuple() of a generator resizes its result into
        # place, and freeing such small tuples fills the tuple free lists
        return cls(x=tuple([int(v) for v in x]), image=tuple([int(v) for v in y]))


class Dominance(enum.Enum):
    STRICTLY_DOMINATES = "strictly_dominates"
    DOMINATES = "dominates"
    EQUAL = "equal"                      # weak dominance both ways
    INCOMPARABLE = "incomparable"
    DOMINATED_BY = "dominated_by"
    STRICTLY_DOMINATED_BY = "strictly_dominated_by"


def evaluate(instance: Instance, x) -> np.ndarray:
    """Objective image C x of a binary vector."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (instance.n,):
        raise ModelError(f"x has shape {x.shape}, expected ({instance.n},)")
    return instance.C @ x


def compare(y1, y2) -> Dominance:
    """Classify y1 against y2 under the componentwise Pareto orders."""
    y1 = np.asarray(y1)
    y2 = np.asarray(y2)
    if y1.shape != y2.shape:
        raise ModelError(f"incomparable shapes {y1.shape} vs {y2.shape}")
    le = bool(np.all(y1 <= y2))
    ge = bool(np.all(y1 >= y2))
    if le and ge:
        return Dominance.EQUAL
    if le:
        if np.all(y1 < y2):
            return Dominance.STRICTLY_DOMINATES
        return Dominance.DOMINATES
    if ge:
        if np.all(y1 > y2):
            return Dominance.STRICTLY_DOMINATED_BY
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def weakly_dominates(y1, y2) -> bool:
    return bool(np.all(np.asarray(y1) <= np.asarray(y2)))


def is_feasible(instance: Instance, x) -> bool:
    """Check every constraint row, in its <= form, for a binary vector."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (instance.n,):
        raise ModelError(f"x has shape {x.shape}, expected ({instance.n},)")
    A_le, b_le = instance.le_normalized()
    return bool((A_le @ x <= b_le).all())


def _distinct_rows(Y):
    """Distinct rows of an integer matrix in lex order, with the index of each
    one's first occurrence (np.lexsort is stable)."""
    order = np.lexsort(Y.T[::-1])
    Y = Y[order]
    new = np.ones(len(Y), dtype=bool)
    new[1:] = (Y[1:] != Y[:-1]).any(axis=1)
    return Y[new], order[new]


def enumerate_nondominated(instance: Instance, fixings=None, cap: int = DEFAULT_ENUM_CAP):
    """Brute-force oracle: nondominated points over all feasible completions.

    Returns a list of Solutions, one per nondominated point, sorted by image.
    Among solutions with equal image the lexicographically smallest x is kept.
    An infeasible subproblem yields an empty list.
    """
    fixings = dict(fixings or {})
    n = instance.n
    for j, v in fixings.items():
        if not isinstance(j, (int, np.integer)) or not 0 <= j < n or v not in (0, 1):
            raise ModelError(f"bad fixing {j}:{v}")
    free = [j for j in range(n) if j not in fixings]
    nfree = len(free)
    if nfree > cap:
        raise ModelError(f"{nfree} free variables exceed enumeration cap {cap}")

    A_le, b_le = instance.le_normalized()
    m = len(b_le)
    M = np.concatenate([A_le, instance.C])
    x0 = np.zeros(n, dtype=np.int64)
    x0[list(fixings)] = list(fixings.values())

    # Bit i of the counter t drives free[-1 - i], so counting order is lex
    # order on x. A chunk adds M @ x0 (fixings, high bits) to the table S[t] =
    # M[:, free[high:]] @ bits(t), built by doubling (Horowitz & Sahni 1974).
    # Subset sums of M's rows stay below 2**62, so int64 is exact, b_le - off too.
    high = max(nfree - 16, 0)
    S = np.zeros((1, len(M)), dtype=np.int64)
    for j in reversed(free[high:]):
        S = np.concatenate([S, S + M[:, j]])
    images, counters = [], []
    for c in range(1 << high):
        x0[free[:high]] = (c >> np.arange(high - 1, -1, -1)) & 1
        off = M @ x0
        feas = np.flatnonzero((S[:, :m] <= b_le - off[:m]).all(axis=1))
        if len(feas):
            Y, first = _distinct_rows(S[feas, m:] + off[m:])
            images.append(Y)
            counters.append((c << (nfree - high)) + feas[first])
    if not images:
        return []
    Y, t = images[0], counters[0]
    if len(images) > 1:  # chunks are in counter order: first is lex-smallest
        Y, first = _distinct_rows(np.concatenate(images))
        t = np.concatenate(counters)[first]

    # Lexicographic skyline (Kung, Luccio & Preparata 1975): in lex order a
    # point can only be weakly dominated by an earlier one, so the first row
    # left is nondominated, and it removes every later row it weakly dominates.
    front = []
    rest = np.arange(len(Y))
    while len(rest):
        i, rest = rest[0], rest[1:]
        front.append(i)
        rest = rest[(Y[rest] < Y[i]).any(axis=1)]
    X = x0[None].repeat(len(front), axis=0)
    X[:, free] = (t[front, None] >> np.arange(nfree - 1, -1, -1)) & 1
    return [Solution(x=tuple(x), image=tuple(y))
            for x, y in zip(X.tolist(), Y[front].tolist())]
