"""Spans around calls into each layer of mobb, recorded from outside the program.

The tracer replaces a function at the module attribute its caller resolves
(``mobb.solver.lower_bound_frontier``, not ``mobb.lp.lower_bound_frontier``)
and restores every original on exit. Spans are kept in memory as
``[name, start, end, parent, solve_id, note]`` and written out at the end.
``note`` is a per-call value a layer metric needs, such as whether an LP was
infeasible or how many planes a refinement added.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import mobb
import mobb.bounds
import mobb.ipsolve
import mobb.lp
import mobb.solver
from mobb.ipsolve import STATUS_FEASIBLE_TIMEOUT, STATUS_NO_SOLUTION_TIMEOUT
from mobb.lp import INFEASIBLE

NAME, START, END, PARENT, SOLVE, NOTE = range(6)


def _lp_infeasible(args, result):
    return result.status == INFEASIBLE


def _planes_added(args, result):
    return len(result.hyperplanes) - len(args[1].hyperplanes)


def _ip_truncated(args, result):
    return result[0].status in (STATUS_FEASIBLE_TIMEOUT, STATUS_NO_SOLUTION_TIMEOUT)


def _accepted(args, result):
    return result[0]


def _lubs_after(args, result):
    return len(args[0].K.arr)


# (owner, attribute, span name, note); owners are the namespaces callers resolve
BINDINGS = (
    (mobb.solver, "lower_bound_frontier", "lp.frontier", None),
    (mobb.solver, "refine_frontier", "lp.refine", _planes_added),
    (mobb.lp, "solve_lp", "lp.solve_lp", _lp_infeasible),
    (mobb.ipsolve, "solve_lp", "lp.solve_lp", _lp_infeasible),
    (mobb.solver, "solve_weighted_sum_ip", "ipsolve.weighted_sum", _ip_truncated),
    (mobb.solver, "solve_econstraint", "ipsolve.econstraint", _ip_truncated),
    (mobb.solver, "enumerate_nondominated", "model.enumerate", None),
    (mobb.solver, "is_feasible", "model.is_feasible", None),
    (mobb.solver, "surviving_mask", "bounds.surviving_mask", None),
    (mobb.solver, "gap_values", "bounds.gap_values", None),
    (mobb.bounds, "gap_values", "bounds.gap_values", None),   # via gap_argmax_lub
    (mobb.bounds.LocalUpperBoundSet, "update", "bounds.lub_update", None),
    (mobb.bounds.IncumbentList, "update", "bounds.incumbent_update", _accepted),
    (mobb.solver.Solver, "process_node", "solver.process_node", _lubs_after),
    (mobb, "generate", "instances.generate", None),
    (mobb, "write_instance", "instances.io", None),
    (mobb, "read_instance", "instances.io", None),
)


class Tracer:
    """In-memory span recorder; ``installed()`` binds its wrappers."""

    def __init__(self):
        self.spans = []
        self.solve_id = -1
        self._open = []

    def _wrap(self, fn, name, note):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.solve_id, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, note in BINDINGS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "solve", "note"), span))))
                fh.write("\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, total seconds, self seconds, notes, and how many
    ``lp.solve_lp`` spans sit below ``lp.refine`` and below ``ipsolve.*``."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": 0.0,
                               "lps_below": 0})
    for i, span in enumerate(spans):
        agg = out[span[NAME]]
        dur = span[END] - span[START]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time[i]
        if span[NOTE] is not None:
            agg["notes"] += float(span[NOTE])
        if span[NAME] == "lp.solve_lp":
            for ancestor in _ancestor_names(spans, i):
                out[ancestor]["lps_below"] += 1
    return out


def _ancestor_names(spans, i):
    names = set()
    parent = spans[i][PARENT]
    while parent >= 0:
        names.add(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return names


def final_lubs(spans) -> int:
    """Sum over solves of |lubs| after each solve's last node."""
    last = {}
    for span in spans:
        if span[NAME] == "solver.process_node":
            last[span[SOLVE]] = span[NOTE]
    return sum(last.values())
