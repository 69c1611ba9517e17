"""Workloads, seeded instance relabelling and the correctness gate of the solve benchmark.

Each workload is a fixed list of generated instances solved under one approach
preset. The benchmark seed does not pick other instances: it relabels the
fixed ones, permuting variables and constraint rows, and a pass solves several
relabelled copies of each. A relabelled instance is isomorphic to the
original, so its nondominated set is the same and the pinned reference hash
checks every seed exactly, while the solver takes other branching decisions
and LP pivots. Solve time moves with the labelling by up to about 30 % per
instance, so the copies average that out of one pass.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mobb
from mobb.cli import approach_config
from speed import Meter

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# far above any pass on these workloads; a solve that hits it fails the gate
TIME_LIMIT = 600.0


def _kp(p, seed, items):
    return mobb.GeneratorSpec(family="KP", p=p, seed=seed, items=items)


def _gap(p, seed, agents, jobs):
    return mobb.GeneratorSpec(family="GAP", p=p, seed=seed, agents=agents, jobs=jobs)


def _flp(family, p, seed, facilities, customers):
    return mobb.GeneratorSpec(family=family, p=p, seed=seed,
                              facilities=facilities, customers=customers)


@dataclass(frozen=True)
class Workload:
    preset: str      # approach label understood by mobb.cli.approach_config
    specs: tuple     # the measured instances
    warmup: tuple    # smaller instances of the same families, solved untimed
    copies: int      # relabelled copies of each instance in one pass


WORKLOADS = {
    # p=3 outer approximation: refinement (vertex enumeration) and greedy
    # knapsack LPs; never enters the simplex or the IP layer
    "kp3-refine": Workload(
        preset="NS(LHG)",
        specs=(_kp(3, 3, 16), _kp(3, 4, 16), _kp(3, 1, 14)),
        warmup=(_kp(3, 1, 8),),
        copies=2),
    # p=2 general constraints: dichotomic frontier on the dense two-phase
    # simplex; never refines
    "lp2-general": Workload(
        preset="NS(LHG)",
        specs=(_gap(2, 2, 4, 7), _flp("UFLP", 2, 2, 4, 8), _flp("CFLP", 2, 2, 4, 8)),
        warmup=(_gap(2, 1, 2, 4), _flp("UFLP", 2, 1, 2, 3), _flp("CFLP", 2, 1, 2, 3)),
        copies=3),
    # warmstart, e-constraint and simple-lower-bound IP trees of many small
    # LPs, plus terminal enumeration
    "kp2-scalarized": Workload(
        preset="SLB+TE",
        specs=(_kp(2, 1, 20), _kp(2, 2, 20), _gap(2, 1, 3, 6)),
        warmup=(_kp(2, 1, 8), _gap(2, 1, 2, 3)),
        copies=4),
}


def relabel(instance: mobb.Instance, seed: int, index: int, copy: int) -> mobb.Instance:
    """Permute the variables and constraint rows of ``instance``.

    The permutation is drawn from (seed, index, copy), so each instance of a
    workload and each copy of it gets its own.
    """
    rng = np.random.default_rng([seed % 2**63, index, copy])
    cols = rng.permutation(instance.n)
    rows = rng.permutation(instance.m)
    return mobb.Instance(C=instance.C[:, cols], A=instance.A[rows][:, cols],
                         b=instance.b[rows],
                         senses=tuple(instance.senses[i] for i in rows),
                         name=instance.name)


def build_instances(specs, copies: int, seed: int, workdir: Path) -> list:
    """The path a ``mobb solve FILE`` user takes: generate, write, read back.

    Returns ``copies`` relabelled copies of each spec's instance, in order.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for index, spec in enumerate(specs):
        instance = mobb.generate(spec)
        for copy in range(copies):
            relabelled = relabel(instance, seed, index, copy)
            path = workdir / f"{instance.name}_c{copy}.moip.json"
            mobb.write_instance(relabelled, path)
            out.append(mobb.read_instance(path))
    return out


def config(preset: str) -> mobb.SolverConfig:
    return approach_config(preset, TIME_LIMIT)


def frontier_hash(points) -> str:
    """Order-independent digest of a set of integer objective vectors."""
    canon = sorted(tuple(int(v) for v in y) for y in points)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def load_reference() -> dict:
    """Instance name -> pinned frontier hash, valid at every seed (see selfcheck.py)."""
    return json.loads(REFERENCE_FILE.read_text())


def check_solve(instance, points, solutions, stats, expected_hash) -> list:
    """Every reason this solve's output is wrong; empty when it is right."""
    problems = []
    if not stats.solved:
        problems.append("solved=False")
    got = frontier_hash(points)
    if got != expected_hash:
        problems.append(f"frontier hash {got} != {expected_hash}")
    if len(solutions) != len(points):
        problems.append(f"{len(solutions)} solutions for {len(points)} points")
    for y, sol in zip(points, solutions):
        if not mobb.is_feasible(instance, sol.x):
            problems.append(f"infeasible solution for point {y}")
        elif tuple(int(v) for v in mobb.evaluate(instance, sol.x)) != tuple(y):
            problems.append(f"solution does not evaluate to point {y}")
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            if mobb.compare(a, b) is not mobb.Dominance.INCOMPARABLE:
                problems.append(f"points {a} and {b} are not mutually nondominated")
    return problems


def solve_counts(points, stats) -> tuple:
    """The machine-independent record of one solve: counts and frontier hash."""
    return (stats.nodes_explored, stats.branched,
            tuple(sorted(stats.fathomed.items())), stats.ips, len(points),
            frontier_hash(points))


@dataclass
class Pass:
    """One solve of every instance of a workload, with its checks."""

    seconds: list       # per instance, reference seconds (speed.py)
    wall_seconds: list  # per instance, wall
    work_seconds: list  # per instance, wall less the speed probes' pauses
    counts: list        # per instance, solve_counts or None if the solve raised
    problems: list      # per instance, check_solve's reasons


def solve_pass(instances, preset, reference, tracer=None) -> Pass:
    """Solve and check each instance once. A traced pass takes no speed
    probes, so its seconds are wall seconds."""
    p = Pass([], [], [], [], [])
    for instance in instances:
        if tracer is not None:
            tracer.solve_id += 1
        cfg = config(preset)
        try:
            with Meter(probing=tracer is None) as meter:
                points, solutions, stats = mobb.solve(instance, cfg)
        except Exception as exc:  # a solve that raises is a failed solve
            counts, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        else:
            counts = solve_counts(points, stats)
            problems = check_solve(instance, points, solutions, stats,
                                   reference[instance.name])
        p.seconds.append(meter.seconds)
        p.wall_seconds.append(meter.wall)
        p.work_seconds.append(meter.work)
        p.counts.append(counts)
        p.problems.append(problems)
    return p


def frontier_seconds(passes, clock="seconds") -> float:
    """Seconds for one pass: the sum over instances of each one's median time.
    ``clock`` names the Pass field to use: ``seconds``, ``wall_seconds`` or
    ``work_seconds``."""
    return sum(statistics.median(getattr(p, clock)[i] for p in passes)
               for i in range(len(passes[0].seconds)))


def failures(passes) -> dict:
    """{(pass, instance index): reasons} for every failed solve. A solve whose
    counts or hash differ from the first pass's fails too: runs must repeat."""
    out = {}
    first = passes[0].counts
    for k, p in enumerate(passes):
        for i, problems in enumerate(p.problems):
            reasons = list(problems)
            if p.counts[i] != first[i] and not reasons:
                reasons.append(f"counts {p.counts[i]} differ from pass 0 {first[i]}")
            if reasons:
                out[(k, i)] = reasons
    return out


def run_passes(instances, preset, reference, seconds, tracer=None):
    """Alternate untraced and (with a tracer) traced passes until ``seconds``
    have passed; at least one of each. Returns (untraced, traced) lists."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(solve_pass(instances, preset, reference))
        if tracer is not None:
            with tracer.installed():
                traced.append(solve_pass(instances, preset, reference, tracer))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return untraced, traced
