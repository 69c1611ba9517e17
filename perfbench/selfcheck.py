"""The solve benchmark's own tests: reference frontiers, relabelling, repeatable
counts and a faithful traced run.

    python3 -m pytest -q perfbench/selfcheck.py

It takes several minutes: it cross-checks every pinned frontier and solves each
workload three times. The file name keeps it out of the repository's default
test collection.
"""

import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mobb  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import suite  # noqa: E402

# node totals of one pass over the generated (not relabelled) instances; the
# machine-independent record of the workloads
EXPECTED_NODES = {"kp3-refine": 943, "lp2-general": 811, "kp2-scalarized": 499}

ORACLE_MAX_N = 20
CROSS_CHECK_PRESETS = ("BB", "NS(LHG)", "SLB+TE")

ALL_SPECS = [spec for w in suite.WORKLOADS.values() for spec in w.specs]


def _points(instance, preset):
    points, _, stats = mobb.solve(instance, suite.config(preset))
    assert stats.solved
    return points


def test_reference_names_every_workload_instance():
    names = {mobb.generate(spec).name for spec in ALL_SPECS}
    assert names == set(suite.load_reference())


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: mobb.generate(s).name)
def test_reference_frontier(spec):
    """Oracle where enumeration is cheap, else agreement of three presets."""
    instance = mobb.generate(spec)
    expected = suite.load_reference()[instance.name]
    if instance.n <= ORACLE_MAX_N:
        oracle = [s.image for s in mobb.enumerate_nondominated(instance)]
        assert suite.frontier_hash(oracle) == expected
    else:
        for preset in CROSS_CHECK_PRESETS:
            assert suite.frontier_hash(_points(instance, preset)) == expected, preset


@pytest.mark.parametrize("spec", [
    mobb.GeneratorSpec(family="KP", p=3, seed=5, items=10),
    mobb.GeneratorSpec(family="GAP", p=2, seed=5, agents=2, jobs=5),
    mobb.GeneratorSpec(family="CFLP", p=2, seed=5, facilities=2, customers=4),
], ids=lambda s: s.family)
def test_relabelling_keeps_the_nondominated_set(spec):
    instance = mobb.generate(spec)
    oracle = suite.frontier_hash(s.image for s in mobb.enumerate_nondominated(instance))
    for seed, copy in ((0, 0), (0, 1), (7, 0)):
        relabelled = suite.relabel(instance, seed, 1, copy)
        assert relabelled.name == instance.name
        assert not (relabelled.C == instance.C).all()
        images = [s.image for s in mobb.enumerate_nondominated(relabelled)]
        assert suite.frontier_hash(images) == oracle


def test_tracer_restores_every_binding_even_on_error():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]
            assert all(w is not o for w, o in zip(wrapped, originals))
            raise RuntimeError
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS] == originals


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_takes_out_probe_pauses_and_restores_the_alarm_handler():
    saved = signal.getsignal(signal.SIGALRM)
    with speed.Meter() as meter:
        _spin(2.5 * speed.PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is saved
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.probes) >= 4          # before, two ticks, after
    assert meter.work == pytest.approx(meter.wall - sum(meter.probes[1:-1]))
    assert meter.seconds == pytest.approx(
        meter.work * speed.REFERENCE_PROBE_S / statistics.fmean(meter.probes))

    with speed.Meter(probing=False) as wall_only:
        _spin(2.5 * speed.PERIOD_S)
    assert wall_only.probes == []
    assert wall_only.seconds == wall_only.work == wall_only.wall


def _call_counts(tracer):
    return {name: agg["calls"] for name, agg in spans.layer_totals(tracer.spans).items()}


@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_counts_repeat_and_traced_run_matches(workload):
    """One untraced and two traced passes over the generated instances give
    identical solver counts, frontier hashes and layer call counts, and every
    solve passes the gate."""
    w = suite.WORKLOADS[workload]
    reference = suite.load_reference()
    instances = [mobb.generate(spec) for spec in w.specs]
    untraced = suite.solve_pass(instances, w.preset, reference)
    tracers = [spans.Tracer(), spans.Tracer()]
    traced = []
    for tracer in tracers:
        with tracer.installed():
            traced.append(suite.solve_pass(instances, w.preset, reference, tracer))

    passes = [untraced] + traced
    assert suite.failures(passes) == {}
    assert sum(c[0] for c in untraced.counts) == EXPECTED_NODES[workload]
    assert _call_counts(tracers[0]) == _call_counts(tracers[1])

    calls = _call_counts(tracers[0])
    nodes = sum(c[0] for c in untraced.counts)
    assert calls["solver.process_node"] == nodes
    if workload != "kp3-refine":
        assert "lp.refine" not in calls
    if workload != "kp2-scalarized":
        assert "ipsolve.weighted_sum" not in calls
        assert "ipsolve.econstraint" not in calls
