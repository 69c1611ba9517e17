"""Solve benchmark of mobb: time to the whole, exactly right frontier.

    python3 perfbench/run.py --workload kp3-refine --seed 0 --seconds 30 --trace 0

Run it from the repository root. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics. Times are reference seconds: wall seconds
scaled by the machine's speed as a fixed probe measures it (speed.py). Every
solve is checked against the pinned reference frontier. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Spans and a run record go to ``perfbench/out/``.
See perfbench/README.md.
"""

import os

# One BLAS thread for this process and its children. OpenBLAS reads this only
# when it is loaded, so it must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
SETUP_PROBES = 3      # on each side of a set-up sample
SETUP_TIMEOUT_S = 60


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def setup_seconds(workload: str, seed: int, workdir: Path) -> tuple:
    """One fresh-process set-up, timed inside that process, as
    (reference seconds, wall seconds). Speed probes just before and after it
    give the machine's speed (see speed.py)."""
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    wall = float(proc.stdout.split()[-1])
    probes += [speed.probe() for _ in range(SETUP_PROBES)]
    return speed.reference_seconds(wall, probes), wall


def end_to_end(workload, seed, seconds, instances, reference):
    """Returns (metrics, passes, record).

    Half the set-up samples are taken before the timed passes and the rest
    after them, so that every pass runs under the same conditions.
    """
    w = suite.WORKLOADS[workload]
    workdir = OUT / f"{workload}-seed{seed}"

    def sample_setup(k):
        return setup_seconds(workload, seed, workdir / f"setup{k}")

    before = SETUP_REPEATS // 2
    setup = [sample_setup(k) for k in range(before)]
    passes, _ = suite.run_passes(instances, w.preset, reference, seconds)
    setup += [sample_setup(k) for k in range(before, SETUP_REPEATS)]
    attempted = len(passes) * len(instances)
    metrics = {
        "frontier_s": (suite.frontier_seconds(passes), "s"),
        "setup_s": (statistics.median(ref for ref, _ in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_frac": ((attempted - len(suite.failures(passes))) / attempted, "frac"),
    }
    record = {"passes": len(passes),
              "setup_seconds": [ref for ref, _ in setup],
              "setup_wall_seconds": [wall for _, wall in setup],
              "instance_seconds": [p.seconds for p in passes],
              "instance_wall_seconds": [p.wall_seconds for p in passes],
              "frontier_wall_s": suite.frontier_seconds(passes, "wall_seconds"),
              "counts": passes[0].counts}
    return metrics, passes, record


def per_layer(workload, seed, seconds, instances, reference, setup_tracer):
    """Returns (metrics, passes, record); passes holds untraced then traced."""
    w = suite.WORKLOADS[workload]
    tracer = spans.Tracer()
    untraced, traced = suite.run_passes(instances, w.preset, reference, seconds, tracer)
    k = len(traced)
    layers = spans.layer_totals(tracer.spans)
    setup_layers = spans.layer_totals(setup_tracer.spans)

    def lay(name, key):
        return layers[name][key] / k if name in layers else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    counts = [c for c in untraced[0].counts if c is not None]
    nodes = sum(c[0] for c in counts)
    fathomed = {}
    for c in counts:
        for cause, v in c[2]:
            fathomed[cause] = fathomed.get(cause, 0) + v
    t_untraced = suite.frontier_seconds(untraced)
    # traced passes take no speed probes: compare wall seconds, less the
    # probes' pauses on the untraced side
    t_traced = suite.frontier_seconds(traced, "wall_seconds")
    t_untraced_work = suite.frontier_seconds(untraced, "work_seconds")
    ip_calls = lay("ipsolve.weighted_sum", "calls") + lay("ipsolve.econstraint", "calls")
    ip_lps = (lay("ipsolve.weighted_sum", "lps_below")
              + lay("ipsolve.econstraint", "lps_below"))
    ip_truncated = lay("ipsolve.weighted_sum", "notes") + lay("ipsolve.econstraint", "notes")
    metrics = {
        "lp.refine.calls": (lay("lp.refine", "calls"), "count"),
        "lp.refine.self_s": (lay("lp.refine", "self_s"), "s"),
        "lp.refine.lps_per_plane": (frac(lay("lp.refine", "lps_below"),
                                         lay("lp.refine", "notes")), "ratio"),
        "lp.frontier.calls": (lay("lp.frontier", "calls"), "count"),
        "lp.frontier.self_s": (lay("lp.frontier", "self_s"), "s"),
        "lp.solve_lp.calls": (lay("lp.solve_lp", "calls"), "count"),
        "lp.solve_lp.s": (lay("lp.solve_lp", "s"), "s"),
        "lp.solve_lp.infeasible_frac": (frac(lay("lp.solve_lp", "notes"),
                                             lay("lp.solve_lp", "calls")), "frac"),
        "lp.solve_lp.calls_per_node": (frac(lay("lp.solve_lp", "calls"), nodes), "ratio"),
        "ipsolve.weighted_sum.calls": (lay("ipsolve.weighted_sum", "calls"), "count"),
        "ipsolve.weighted_sum.self_s": (lay("ipsolve.weighted_sum", "self_s"), "s"),
        "ipsolve.econstraint.calls": (lay("ipsolve.econstraint", "calls"), "count"),
        "ipsolve.econstraint.self_s": (lay("ipsolve.econstraint", "self_s"), "s"),
        "ipsolve.lp_calls": (ip_lps, "count"),
        "ipsolve.truncated_frac": (frac(ip_truncated, ip_calls), "frac"),
        "model.enumerate.calls": (lay("model.enumerate", "calls"), "count"),
        "model.enumerate.s": (lay("model.enumerate", "s"), "s"),
        "model.is_feasible.calls": (lay("model.is_feasible", "calls"), "count"),
        "bounds.surviving_mask.calls": (lay("bounds.surviving_mask", "calls"), "count"),
        "bounds.surviving_mask.s": (lay("bounds.surviving_mask", "s"), "s"),
        "bounds.gap_values.calls": (lay("bounds.gap_values", "calls"), "count"),
        "bounds.gap_values.s": (lay("bounds.gap_values", "s"), "s"),
        "bounds.lub_update.calls": (lay("bounds.lub_update", "calls"), "count"),
        "bounds.lub_update.s": (lay("bounds.lub_update", "s"), "s"),
        "bounds.lubs.final": (spans.final_lubs(tracer.spans) / k, "count"),
        "bounds.incumbent_update.calls": (lay("bounds.incumbent_update", "calls"), "count"),
        "bounds.incumbent_update.s": (lay("bounds.incumbent_update", "s"), "s"),
        "bounds.incumbent_update.accept_frac": (
            frac(lay("bounds.incumbent_update", "notes"),
                 lay("bounds.incumbent_update", "calls")), "frac"),
        "solver.nodes": (nodes, "count"),
        "solver.branched": (sum(c[1] for c in counts), "count"),
        "solver.fathomed.infeasibility": (fathomed.get("infeasibility", 0), "count"),
        "solver.fathomed.optimality": (fathomed.get("optimality", 0), "count"),
        "solver.fathomed.dominance": (fathomed.get("dominance", 0), "count"),
        "solver.fathomed.enumeration": (fathomed.get("enumeration", 0), "count"),
        "solver.ips": (sum(c[3] for c in counts), "count"),
        "solver.frontier_size": (sum(c[4] for c in counts), "count"),
        "solver.self_s": (lay("solver.process_node", "self_s"), "s"),
        "solver.nodes_per_s": (frac(nodes, t_untraced), "1/s"),
        "instances.generate_s": (setup_layers["instances.generate"]["s"], "s"),
        "instances.io_s": (setup_layers["instances.io"]["s"], "s"),
        "trace.frontier_s": (t_traced, "s"),
        "trace.overhead_s": (t_traced - t_untraced_work, "s"),
    }
    tracer.write(OUT / f"spans_{workload}_seed{seed}.jsonl")
    record = {"untraced_passes": len(untraced), "traced_passes": k,
              "untraced_frontier_s": t_untraced, "untraced_work_s": t_untraced_work,
              "counts": untraced[0].counts}
    return metrics, untraced + traced, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env: " + json.dumps(env))
    reference = suite.load_reference()
    w = suite.WORKLOADS[args.workload]
    setup_tracer = spans.Tracer()
    with setup_tracer.installed():
        instances = suite.build_instances(w.specs, w.copies, args.seed,
                                          OUT / f"{args.workload}-seed{args.seed}")
    for instance in suite.build_instances(w.warmup, 1, args.seed, OUT / "warmup"):
        mobb.solve(instance, suite.config(w.preset))   # untimed warm-up
        speed.probe()

    if args.trace:
        metrics, passes, record = per_layer(args.workload, args.seed, args.seconds,
                                            instances, reference, setup_tracer)
    else:
        metrics, passes, record = end_to_end(args.workload, args.seed, args.seconds,
                                             instances, reference)
    attempted = len(passes) * len(instances)
    failed = suite.failures(passes)
    for (k, i), reasons in sorted(failed.items()):
        for reason in reasons:
            print(f"FAILED pass {k} solve {i} {instances[i].name}: {reason}",
                  file=sys.stderr)
    values = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, failed_frac=len(failed) / attempted,
                  metrics=values)
    name = f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  preset {w.preset}  "
          f"attempted {attempted}  failed_frac {record['failed_frac']} frac")
    for m, (v, u) in metrics.items():
        print(f"  {m:40s} {v:.6g} {u}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": values}))
    return 0


if __name__ == "__main__":
    # the program is built from this checkout's source, never from an install
    if not (SRC / "mobb" / "__init__.py").is_file():
        print(f"no mobb source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mobb
    import spans
    import speed
    import suite
    sys.exit(main())
