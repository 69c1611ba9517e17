"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line for its criterion so a full run gives a
compact scoreboard even under pytest's output capture.
"""

import contextlib
import csv
import functools
import statistics
import sys
import time

import numpy as np
import pytest

from mobb.bounds import LocalUpperBoundSet, LowerBoundSet, gap_values
from mobb.cli import (APPROACHES, BENCH_HEADER, PROFILE_HEADER,
                      approach_config, main)
from mobb.instances import GeneratorSpec, generate, write_instance
from mobb.lp import RelaxedSubproblem, lower_bound_frontier, solve_lp
from mobb.model import Instance, enumerate_nondominated, weakly_dominates
from mobb.solver import SolverConfig, solve
from test_bounds import hv_box_gap, hv_simplex_gap, spanning_points

ALL_LABELS = ["BB", "NS(LHG)", "NS(HSZ)", "WST", "EC", "SLB", "SLB+TE"]


@contextlib.contextmanager
def criterion(name, capfd=None):
    """Print one scoreboard line per criterion, bypassing output capture."""
    def emit(verdict):
        ctx = capfd.disabled() if capfd is not None else contextlib.nullcontext()
        with ctx:
            print(f"[{verdict}] {name}", file=sys.__stdout__, flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def _family_spec(family, i):
    """i-th seeded small instance of a family, cycling p in {2, 3, 4}."""
    p = (2, 3, 4)[i % 3]
    seed = 1000 + i
    if family == "KP":
        items = {2: 9 + i % 4, 3: 7 + i % 3, 4: 6 + i % 2}[p]
        return GeneratorSpec(family=family, p=p, seed=seed, items=items)
    if family == "UFLP":
        customers = 3 if p == 4 else 3 + i % 2
        return GeneratorSpec(family=family, p=p, seed=seed, facilities=2,
                             customers=customers)
    return GeneratorSpec(family=family, p=p, seed=seed, agents=2, jobs=3 + i % 2)


@functools.lru_cache(maxsize=1)
def _oracle_matrix():
    """All (family, instance, label) runs shared by the equivalence criteria."""
    runs = []
    elapsed0 = time.monotonic()
    for family in ("KP", "GAP", "UFLP"):
        for i in range(50):
            inst = generate(_family_spec(family, i))
            assert inst.n <= 14
            oracle = [s.image for s in enumerate_nondominated(inst)]
            for label in ALL_LABELS:
                cfg = approach_config(label, time_limit=120, refine_max=5)
                points, _, stats = solve(inst, cfg)
                runs.append((inst, label, points, stats, oracle))
    return runs, time.monotonic() - elapsed0


class TestAcceptance:
    def test_c1_oracle_equivalence(self, capfd):
        with criterion("oracle equivalence (150 instances x 7 configs)", capfd):
            runs, elapsed = _oracle_matrix()
            assert len(runs) == 3 * 50 * 7
            for inst, label, points, stats, oracle in runs:
                assert stats.solved, (inst.name, label)
                assert points == oracle, (inst.name, label)
            assert elapsed < 300.0

    def test_c2_reference_geometry(self, capfd):
        with criterion("reference geometry (interior lubs, hb, hg)", capfd):
            M = 100
            K = LocalUpperBoundSet(2, M)
            for z in [(2, 9), (6, 7), (9, 5), (10, 1)]:
                K.update(np.asarray(z))
            interior = {tuple(int(v) for v in u) for u in K.lubs
                        if np.all(np.asarray(u) < M)}
            assert interior == {(6, 9), (9, 7), (10, 5)}
            L = LowerBoundSet(
                hyperplanes=[(np.array([11.0, 1.0]), 21.5),
                             (np.array([2.0, 1.0]), 8.0),
                             (np.array([3.0, 10.0]), 29.0)],
                facet_offsets=np.array([1.0, 0.5]), extreme_solutions=np.empty((0, 2)))
            lu1 = np.array([6.0, 9.0])
            hb = hv_box_gap(lu1, L.facet_offsets)
            assert abs(hb - 42.5) <= 1e-9
            hg = hv_simplex_gap(lu1, spanning_points(L, lu1))
            assert abs(hg - 53.5 * 7.9 / 22.0) <= 1e-9
            assert abs(hg - 19.2113636363636) <= 1e-6
            # the batched gaps the solver's node selection runs
            lubs = np.array([lu1])
            assert abs(gap_values(L, lubs, "lhg")[0] - 19.2113636363636) <= 1e-6
            assert abs(gap_values(L, lubs, "hsz")[0] - 42.5) <= 1e-9

    def test_c3_cut_validity(self, capfd):
        with criterion("cut validity (rounded cuts vs oracle points)", capfd):
            runs, _ = _oracle_matrix()
            n_cuts = 0
            for inst, label, _, stats, _ in runs:
                for fixings, coeffs, rhs in stats.cut_log:
                    n_cuts += 1
                    for s in enumerate_nondominated(inst, fixings):
                        x = np.asarray(s.x)
                        assert int(coeffs @ x) >= rhs, (inst.name, label)
            assert n_cuts > 0  # warmstart/SLB configs did store cuts

    def test_c4_no_false_fathoming(self, capfd):
        with criterion("no false fathoming (dominance subtrees re-enumerated)", capfd):
            specs = [GeneratorSpec(family="KP", p=2, seed=s, items=10)
                     for s in (21, 22, 23)]
            specs += [GeneratorSpec(family="KP", p=3, seed=s, items=10)
                      for s in (24, 25)]
            specs += [GeneratorSpec(family="GAP", p=2, seed=s, agents=2, jobs=5)
                      for s in (26, 27)]
            specs += [GeneratorSpec(family="UFLP", p=2, seed=28, facilities=2,
                                    customers=4)]
            n_subtrees = 0
            for spec in specs:
                inst = generate(spec)
                assert inst.n <= 12
                for cfg in (SolverConfig(trace=True, refine_max=5),
                            SolverConfig(trace=True, refine_max=5,
                                         node_selection="lhg", warmstart=True)):
                    points, _, stats = solve(inst, cfg)
                    front = [np.asarray(y) for y in points]
                    for rec in stats.trace:
                        if rec["outcome"] != "dominance":
                            continue
                        n_subtrees += 1
                        for s in enumerate_nondominated(inst, rec["fixings"]):
                            assert any(weakly_dominates(f, s.image)
                                       for f in front), (inst.name, rec["fixings"])
            assert n_subtrees > 0

    def test_c5_dichotomic_exactness(self, capfd):
        with criterion("dichotomic exactness (100 relaxations, 1e-9)", capfd):
            rng = np.random.default_rng(2024)
            checked = 0
            points_checked = 0
            while checked < 100:
                p, n = 2, int(rng.integers(4, 10))
                inst = Instance(C=rng.integers(-20, 21, (p, n)),
                                A=rng.integers(0, 8, (2, n)),
                                b=rng.integers(1, 8 * n, 2),
                                senses=("le", "le"))
                sub = RelaxedSubproblem(inst)
                L = lower_bound_frontier(sub)
                if L is None:
                    continue
                checked += 1
                pts = [inst.C @ x for x in L.extreme_solutions]
                if len(pts) == 1:
                    lam = np.array([0.5, 0.5])
                    v = solve_lp(sub, lam @ inst.C).value
                    assert abs(float(lam @ pts[0]) - v) <= 1e-9
                    points_checked += 1
                    continue
                for ya, yb in zip(pts, pts[1:]):
                    lam = np.array([ya[1] - yb[1], yb[0] - ya[0]])
                    lam = lam / lam.sum()
                    assert np.all(lam > 0)
                    v = solve_lp(sub, lam @ inst.C).value
                    # both endpoints of the facet re-optimize this weight
                    assert abs(float(lam @ ya) - v) <= 1e-9
                    assert abs(float(lam @ yb) - v) <= 1e-9
                    points_checked += 2
            assert points_checked >= 100

    def test_c6_directional_node_reduction(self, capfd):
        with criterion("directional node reduction (KP p=3 n=30, >= 20%)", capfd):
            seeds = DIRECTIONAL_SEEDS
            assert len(seeds) == 10
            nodes = {"BB": [], "NS(LHG)": []}
            for seed in seeds:
                inst = generate(GeneratorSpec(family="KP", p=3, seed=seed,
                                              items=30, cost_range=(1, 10)))
                fronts = []
                for label in ("BB", "NS(LHG)"):
                    cfg = approach_config(label, time_limit=120, refine_max=0)
                    points, _, stats = solve(inst, cfg)
                    assert stats.solved, (seed, label)
                    nodes[label].append(stats.nodes_explored)
                    fronts.append(points)
                assert fronts[0] == fronts[1], seed
            med_bb = statistics.median(nodes["BB"])
            med_lhg = statistics.median(nodes["NS(LHG)"])
            assert med_lhg < med_bb
            assert (med_bb - med_lhg) / med_bb >= 0.20

    def test_c7_schedule_conformance(self, capfd):
        with criterion("schedule conformance (EC / SLB / TE triggers)", capfd):
            inst = generate(GeneratorSpec(family="KP", p=3, seed=0, items=40,
                                          cost_range=(1, 10)))
            n = inst.n
            cap = inst.p * n * n  # 4800

            cfg = SolverConfig(node_selection="lhg", warmstart=True,
                               ec_enabled=True, refine_max=0, time_limit=12,
                               trace=True)
            _, _, stats = solve(inst, cfg)
            fired = {r["iteration"] for r in stats.trace if r["ec"]}
            assert fired
            for it in fired:
                assert it % n == 0 and it <= cap
            # every branched node at a scheduled iteration must have fired
            must_fire = {r["iteration"] for r in stats.trace
                         if r["iteration"] % n == 0 and r["iteration"] <= cap
                         and r["outcome"] == "branched"}
            assert must_fire <= fired

            cfg = SolverConfig(slb_enabled=True, slb_level=5, refine_max=0,
                               time_limit=8, trace=True)
            _, _, stats = solve(inst, cfg)
            fired = {r["iteration"] for r in stats.trace if r["slb"]}
            assert fired
            for depth in (r["depth"] for r in stats.trace if r["slb"]):
                assert depth >= 5 and depth % 5 == 0
            eligible = {r["iteration"] for r in stats.trace
                        if r["depth"] >= 5 and r["depth"] % 5 == 0
                        and r["free"] > 0}
            assert fired == eligible

            cfg = SolverConfig(te_enabled=True, te_threshold=10, refine_max=0,
                               time_limit=8, trace=True)
            _, _, stats = solve(inst, cfg)
            fired = {r["iteration"] for r in stats.trace
                     if r["outcome"] == "enumeration"}
            assert fired
            eligible = {r["iteration"] for r in stats.trace
                        if 0 < r["free"] <= 10}
            assert fired == eligible
            for r in stats.trace:
                if 0 < r["free"] <= 10:
                    assert r["outcome"] == "enumeration"
                elif r["free"] == 11:
                    assert r["outcome"] != "enumeration"

    def test_c8_determinism(self, tmp_path, capfd):
        with criterion("determinism (byte-identical bench CSVs)", capfd):
            d = tmp_path / "insts"
            d.mkdir()
            for seed in range(3):
                inst = generate(GeneratorSpec(family="KP", p=2, seed=seed,
                                              items=10))
                write_instance(inst, d / f"kp{seed}.moip.json")
            blobs = []
            for name in ("b1.csv", "b2.csv"):
                out = tmp_path / name
                rc = main(["bench", str(d), "--approaches", "BB,WST,SLB",
                           "--out", str(out), "--no-wall-time",
                           "--time-limit", "120"])
                assert rc == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]

    def test_c9_output_format(self, tmp_path, capfd):
        with criterion("output format (bench schema, monotone profile)", capfd):
            d = tmp_path / "insts"
            d.mkdir()
            for seed in range(3):
                inst = generate(GeneratorSpec(family="KP", p=2, seed=seed,
                                              items=10))
                write_instance(inst, d / f"kp{seed}.moip.json")
            bench = tmp_path / "bench.csv"
            assert main(["bench", str(d), "--approaches", "BB,NS(LHG)",
                         "--out", str(bench), "--time-limit", "120"]) == 0
            with open(bench, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["approach", "instance", "nodes", "time_s",
                               "ips", "solved", "frontier"]
            assert rows[0] == BENCH_HEADER
            for row in rows[1:]:
                assert len(row) == len(BENCH_HEADER)
            prof = tmp_path / "profile.csv"
            assert main(["profile", str(bench), "--out", str(prof)]) == 0
            with open(prof, newline="") as fh:
                prows = list(csv.reader(fh))
            assert prows[0] == PROFILE_HEADER
            last = {}
            for label, t, prop in prows[1:]:
                assert float(prop) > last.get(label, 0.0)
                assert float(prop) <= 1.0 + 1e-12
                last[label] = float(prop)
            assert last  # at least one approach solved something


# Ten seeded knapsack instances used by the directional criterion; chosen from
# the seeded family so that both configurations finish within the time limit.
DIRECTIONAL_SEEDS = (4, 5, 6, 9, 11, 14, 17, 18, 19, 20)
