#!/usr/bin/env python3
"""The repo's performance benchmark: one seeded, closed-loop harness.

    python3 benchmarks/perf/run.py                       # all workloads, ten rounds
    python3 benchmarks/perf/run.py --aa                  # two sets + agreement check
    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

The last form is one run of one workload in this process — what the driver
calls, and what the first two forms spawn.  Its last stdout line is the
result object.  See README.md next to this file.
"""

import time

_T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parents[1] / "src"
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_SRC))

from harness import host  # noqa: E402
from harness.spec import RUN_SECONDS, WORKLOADS  # noqa: E402


def main() -> int:
    # first of all: this may replace the process (see its docstring)
    host.steady_environment(sys.argv)
    names = [w.name for w in WORKLOADS]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="run this workload once, in this process; with "
                    "--rounds or --aa, restrict the suite to it")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed: same seed, same inputs")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="how long the timed phase of one run lasts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced round (per-layer metrics)")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)  # internal: set up, report, exit
    ap.add_argument("--rounds", type=int, default=None,
                    help="suite: rounds per set (default 10)")
    ap.add_argument("--aa", action="store_true",
                    help="suite: run two sets and check they agree")
    ap.add_argument("--output", type=Path,
                    default=_HERE / "out" / "results.json",
                    help="suite: where the results document goes")
    args = ap.parse_args()
    if not (_SRC / "repro").is_dir():
        print(f"{_SRC}/repro not found: the benchmark builds and drives the "
              "program from the repository's source tree", file=sys.stderr)
        return 2

    script = Path(__file__)
    suite_mode = args.aa or args.rounds is not None
    if args.workload is not None and not suite_mode:
        from harness.runner import run_once

        return run_once(script, _T_START, args.workload, args.seed,
                        args.seconds, bool(args.trace), args.probe_setup)
    from harness import suite

    if args.workload is not None:
        names = [args.workload]
    rounds = suite.ROUNDS if args.rounds is None else args.rounds
    return suite.run_suite(script, names, args.seed, rounds, args.aa,
                           args.output)


if __name__ == "__main__":
    sys.exit(main())
