"""Command line front end: solve, bench, profile, generate, oracle."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .instances import GeneratorSpec, ParseError, generate, read_instance, write_instance
from .model import DEFAULT_ENUM_CAP, ModelError, enumerate_nondominated
from .solver import SolverConfig, solve

BENCH_HEADER = ["approach", "instance", "nodes", "time_s", "ips", "solved", "frontier"]
PROFILE_HEADER = ["approach", "time_s", "proportion"]

# approach label -> the SolverConfig fields its feature stack sets
PRESETS = {
    "BB": dict(node_selection="depth"),
    "NS(LHG)": dict(node_selection="lhg"),
    "NS(HSZ)": dict(node_selection="hsz"),
    "WST": dict(node_selection="lhg", warmstart=True),
    "EC": dict(node_selection="lhg", warmstart=True, ec_enabled=True),
    "SLB": dict(node_selection="lhg", warmstart=True, ec_enabled=True,
                slb_enabled=True),
}

APPROACHES = list(PRESETS)


def approach_config(label: str, time_limit: float,
                    refine_max: int = SolverConfig.refine_max) -> SolverConfig:
    """Map a benchmark approach label, a preset with an optional ``+TE``
    suffix for terminal enumeration, to a solver configuration."""
    te = label.endswith("+TE")
    base = label[:-3] if te else label
    if base not in PRESETS:
        raise ModelError(f"unknown approach label {label!r}")
    return SolverConfig(**PRESETS[base], te_enabled=te, time_limit=time_limit,
                        refine_max=refine_max)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--strategy", choices=["depth", "breadth", "lhg", "hsz"],
                   default=SolverConfig.node_selection)
    p.add_argument("--branching", choices=["mof", "sor"],
                   default=SolverConfig.branching)
    p.add_argument("--warmstart", action="store_true")
    p.add_argument("--ec", action="store_true")
    p.add_argument("--slb", action="store_true")
    p.add_argument("--slb-level", type=int, default=SolverConfig.slb_level)
    p.add_argument("--te", action="store_true")
    p.add_argument("--te-threshold", type=int, default=SolverConfig.te_threshold)
    p.add_argument("--time-limit", type=float, default=SolverConfig.time_limit)
    p.add_argument("--refine-max", type=int, default=SolverConfig.refine_max)


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(node_selection=args.strategy, branching=args.branching,
                        warmstart=args.warmstart, ec_enabled=args.ec,
                        slb_enabled=args.slb, slb_level=args.slb_level,
                        te_enabled=args.te, te_threshold=args.te_threshold,
                        time_limit=args.time_limit, refine_max=args.refine_max)


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    config = _config_from_args(args)
    points, entries, stats = solve(instance, config)
    print(f"instance: {instance.name}")
    print(f"nondominated points: {len(points)}")
    for y in points:
        print("  " + " ".join(str(v) for v in y))
    print(f"nodes: {stats.nodes_explored}  ips: {stats.ips}  "
          f"time_s: {stats.wall_time:.3f}  solved: {stats.solved}")
    print("fathomed: " + "  ".join(f"{k}={v}" for k, v in stats.fathomed.items()))
    if args.out:
        doc = {"instance": instance.name,
               "points": [list(y) for y in points],
               "solutions": [list(s.x) for s in entries],
               "solved": stats.solved}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def _fixings(text: str) -> dict:
    """``--fix`` value: comma separated ``j=v`` pairs as {j: v}."""
    fixings = {}
    for part in text.split(","):
        j, _, v = part.partition("=")
        try:
            j, v = int(j), int(v)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma separated j=v pairs, got {part!r}") from None
        if j in fixings:
            raise argparse.ArgumentTypeError(f"index {j} fixed more than once")
        fixings[j] = v
    return fixings


def cmd_oracle(args) -> int:
    instance = read_instance(args.instance)
    sols = enumerate_nondominated(instance, args.fix, cap=args.cap)
    print(f"nondominated points: {len(sols)}")
    for s in sols:
        print("  " + " ".join(str(v) for v in s.image))
    return 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(family=args.family, p=args.p, seed=args.seed,
                         items=args.items, facilities=args.facilities,
                         customers=args.customers, agents=args.agents,
                         jobs=args.jobs)
    instance = generate(spec)
    out = args.out or f"{instance.name}.moip.json"
    write_instance(instance, out)
    print(f"wrote {out}  (p={instance.p} n={instance.n} m={instance.m})")
    return 0


def run_bench(instance_paths, approaches, time_limit,
              refine_max=SolverConfig.refine_max, report_wall_time=True):
    """One row per (approach, instance) plus per-approach aggregate rows."""
    rows = []
    for label in approaches:
        per = []
        for path in instance_paths:
            instance = read_instance(path)
            config = approach_config(label, time_limit, refine_max)
            try:
                points, _, stats = solve(instance, config)
                t = stats.wall_time if report_wall_time else 0.0
                row = [label, instance.name, stats.nodes_explored,
                       f"{t:.3f}", stats.ips,
                       "1" if stats.solved else "0", len(points)]
            except Exception as exc:  # record, keep going
                row = [label, instance.name, 0, "0.000", 0, "error:" + type(exc).__name__, 0]
            rows.append(row)
            per.append(row)
        good = [r for r in per if not str(r[5]).startswith("error")]
        n_solved = sum(1 for r in good if r[5] == "1")
        if per:
            mean = lambda vals: f"{sum(vals) / len(vals):.3f}" if vals else "0.000"
            rows.append([label, "aggregate",
                         mean([float(r[2]) for r in good]),
                         mean([float(r[3]) for r in good]),
                         mean([float(r[4]) for r in good]),
                         f"{n_solved}/{len(per)}",
                         mean([float(r[6]) for r in good])])
    return rows


def cmd_bench(args) -> int:
    root = Path(args.instances)
    paths = sorted(root.glob("*.moip.json")) if root.is_dir() else [root]
    if not paths:
        print(f"no instances found under {root}", file=sys.stderr)
        return 1
    approaches = args.approaches.split(",")
    rows = run_bench(paths, approaches, args.time_limit, args.refine_max,
                     report_wall_time=not args.no_wall_time)
    out = args.out or "bench.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(BENCH_HEADER)
        w.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def profile_rows(bench_rows):
    """Per-approach step function of the proportion of instances solved by time t."""
    by_approach = {}
    for row in bench_rows:
        if row["instance"] == "aggregate" or str(row["solved"]).startswith("error"):
            continue
        by_approach.setdefault(row["approach"], []).append(row)
    out = []
    for label in sorted(by_approach):
        rows = by_approach[label]
        total = len(rows)
        solved_times = sorted(float(r["time_s"]) for r in rows if r["solved"] == "1")
        done = 0
        for t in solved_times:
            done += 1
            out.append([label, f"{t:.3f}", f"{done / total:.6f}"])
    return out


def cmd_profile(args) -> int:
    try:
        with open(args.bench, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.bench}: {exc}") from None
    reader = csv.DictReader(lines)
    if reader.fieldnames != BENCH_HEADER:
        print(f"unexpected bench CSV header: {reader.fieldnames}", file=sys.stderr)
        return 1
    rows = []
    for row in reader:
        try:
            # DictReader files surplus fields under None and fills
            # missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"expected {len(BENCH_HEADER)} fields")
            float(row["time_s"])
        except ValueError as exc:
            print(f"bad bench CSV row at line {reader.line_num}: {exc}",
                  file=sys.stderr)
            return 1
        rows.append(row)
    out = args.out or "profile.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PROFILE_HEADER)
        w.writerows(profile_rows(rows))
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mobb",
                                     description="Multi-objective 0-1 branch and bound")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("instance")
    _add_config_flags(p_solve)
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force frontier")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--fix", type=_fixings, help="comma separated j=v fixings")
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                          help="refuse to enumerate more free variables than this "
                               "(default: %(default)s)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("generate", help="generate a benchmark instance")
    p_gen.add_argument("--family", choices=["KP", "UFLP", "CFLP", "GAP"], required=True)
    p_gen.add_argument("--p", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--items", type=int, default=0)
    p_gen.add_argument("--facilities", type=int, default=0)
    p_gen.add_argument("--customers", type=int, default=0)
    p_gen.add_argument("--agents", type=int, default=0)
    p_gen.add_argument("--jobs", type=int, default=0)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run a benchmark matrix to CSV")
    p_bench.add_argument("instances", help="instance file or directory")
    p_bench.add_argument("--approaches", default=",".join(APPROACHES))
    p_bench.add_argument("--time-limit", type=float, default=SolverConfig.time_limit)
    p_bench.add_argument("--refine-max", type=int, default=SolverConfig.refine_max)
    p_bench.add_argument("--no-wall-time", action="store_true",
                         help="write 0.000 for time_s (reproducible output)")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=cmd_bench)

    p_prof = sub.add_parser("profile", help="performance profile from a bench CSV")
    p_prof.add_argument("bench")
    p_prof.add_argument("--out")
    p_prof.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
