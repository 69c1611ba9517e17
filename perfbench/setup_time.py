"""Time one set-up as a fresh ``mobb solve FILE`` process pays it.

Imports mobb, generates the workload's instances from the seed and round-trips
them through write_instance/read_instance, then prints the seconds taken.
run.py starts this several times and reports the median as ``setup_s``.

    python3 perfbench/setup_time.py WORKLOAD SEED WORKDIR
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import suite  # noqa: E402  (imports mobb)


def main(argv):
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    w = suite.WORKLOADS[workload]
    suite.build_instances(w.specs, w.copies, seed, workdir)
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main(sys.argv[1:])
