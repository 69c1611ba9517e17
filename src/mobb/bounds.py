"""Bound sets: incumbent list, local upper bounds, lower bound sets and gap measures."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import FLOAT_TOL, ModelError, Solution, _distinct_rows


@dataclass
class LowerBoundSet:
    """Polyhedral outer approximation of a subproblem's nondominated frontier.

    ``hyperplanes`` is a list of (lambda, rhs) pairs with lambda >= 0, each a
    valid inequality lambda . y >= rhs for every feasible image of the
    subproblem. ``facet_offsets`` are valid componentwise lower bounds (the
    axis-parallel extreme facets), so they are also the bound's local ideal
    point. ``extreme_solutions`` are the relaxation's solutions behind the
    planes, as full x vectors; their images are ``C @ x``. A simple bound
    carries one level-set hyperplane plus the facets inherited from its parent
    node, and no extreme solutions.
    """

    hyperplanes: list            # [(np.ndarray lam, float rhs)]
    facet_offsets: np.ndarray    # float p-vector
    extreme_solutions: list = field(default_factory=list)  # full x vectors

    @functools.cached_property
    def plane_matrix(self):
        """The hyperplanes plus the axis facets, stacked: (normals of shape
        (h + p, p), rhs of shape (h + p,)). Built on first use: a bound set
        does not change once built."""
        normals = [lam for lam, _ in self.hyperplanes]
        rhs = [r for _, r in self.hyperplanes]
        normals.extend(np.eye(len(self.facet_offsets)))
        rhs.extend(map(float, self.facet_offsets))
        return np.asarray(normals, dtype=float), np.asarray(rhs, dtype=float)


def surviving_mask(L: LowerBoundSet, U) -> np.ndarray:
    """Boolean mask of the rows of U strictly above L (batched)."""
    U = np.asarray(U, dtype=float)
    if U.size == 0:
        return np.zeros(len(U), dtype=bool)
    normals, rhs = L.plane_matrix
    return (U @ normals.T > rhs[None, :] + FLOAT_TOL).all(axis=1)


MEASURE_LHG = "lhg"
MEASURE_HSZ = "hsz"


def gap_values(L: LowerBoundSet, surviving, measure: str) -> np.ndarray:
    """Per-lub gap measure over the rows of ``surviving`` (batched)."""
    U = np.asarray(surviving, dtype=float)
    if not len(U):
        return np.zeros(0)
    ideal = L.facet_offsets
    if measure == MEASURE_HSZ:
        return np.prod(np.maximum(U - ideal[None, :], 0.0), axis=1)
    if measure != MEASURE_LHG:
        raise ModelError(f"unknown gap measure {measure!r}")
    p = U.shape[1]
    t = U - ideal[None, :]
    normals, rhs = L.plane_matrix
    proj = U @ normals.T - rhs[None, :]
    for i in range(p):
        col = normals[:, i]
        mask = col > 1e-12
        if mask.any():
            t[:, i] = np.minimum(t[:, i],
                                 np.min(proj[:, mask] / col[mask][None, :], axis=1))
    return np.prod(np.maximum(t, 0.0), axis=1) / math.factorial(p)


def gap_argmax_lub(L: LowerBoundSet, surviving, measure: str):
    """The surviving local upper bound attaining the node's gap measure."""
    if not len(surviving):
        return None
    vals = gap_values(L, surviving, measure)
    return np.asarray(surviving)[int(np.argmax(vals))]


@dataclass
class IncumbentList:
    """Mutually nondominated feasible images, one representing solution each."""

    entries: list = field(default_factory=list)  # [Solution]

    def images(self):
        return [s.image for s in self.entries]

    def dominated(self, Y) -> np.ndarray:
        """Mask of the rows of Y (integer images) that some entry weakly
        dominates: exactly the candidates ``update`` would reject."""
        Y = np.asarray(Y)
        if not self.entries:
            return np.zeros(len(Y), dtype=bool)
        E = np.array(self.images())
        return (E[None, :, :] <= Y[:, None, :]).all(axis=2).any(axis=1)

    def update(self, candidate: Solution):
        """Insert a feasible solution; returns (accepted, removed solutions)."""
        y = np.asarray(candidate.image)
        if self.dominated(y[None, :])[0]:
            return False, []
        kept, removed = [], []
        if self.entries:
            # the entries the candidate weakly dominates go
            swept = np.all(y <= np.array(self.images()), axis=1)
            for s, out in zip(self.entries, swept.tolist()):
                (removed if out else kept).append(s)
        kept.append(candidate)
        self.entries = kept
        return True, removed


class LocalUpperBoundSet:
    """Corner points of the search region induced by the incumbent list.

    Maintained incrementally: inserting an accepted image z splits every lub u
    with z < u into its p children and filters non-maximal candidates. Only
    insertions are needed; images dominated later contribute nothing to the
    search region.
    """

    def __init__(self, p: int, M: int):
        self.p = p
        self.M = int(M)
        self.arr = np.full((1, p), int(M), dtype=np.int64)

    @property
    def lubs(self):
        return list(self.arr)

    def update(self, z):
        z = np.asarray(z, dtype=np.int64)
        hit = np.all(z[None, :] < self.arr, axis=1)
        if not hit.any():
            return self
        children = np.repeat(self.arr[hit], self.p, axis=0)
        cols = np.tile(np.arange(self.p), int(hit.sum()))
        children[np.arange(len(children)), cols] = z[cols]
        self.arr = _maximal(np.vstack([self.arr[~hit], children]))
        return self

    def as_tuples(self):
        return sorted(tuple(int(v) for v in u) for u in self.arr)


def _maximal(points):
    """Componentwise-maximal, deduplicated subset of integer vectors (rows)."""
    if not len(points):
        return np.empty((0, 0), dtype=np.int64)
    U, _ = _distinct_rows(np.asarray(points, dtype=np.int64).reshape(len(points), -1))
    if len(U) <= 1:
        return U
    # after dedupe, u <= v for v != u implies u is strictly covered somewhere
    le = np.all(U[:, None, :] <= U[None, :, :], axis=2)
    return U[le.sum(axis=1) == 1]


def default_big_m(C) -> int:
    """1 + the largest absolute objective row sum; exceeds any attainable value."""
    C = np.asarray(C)
    return int(np.max(np.sum(np.abs(C), axis=1))) + 1
