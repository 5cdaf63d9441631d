"""Benchmark command for privcause.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-reference

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The exit code is 0
only when every output check passed.  Workloads, metrics and reasons
are listed in BENCHMARK.json at the root.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference/<workload>.csv at the default seed with jobs=1")
    args = parser.parse_args(argv)
    if not (SRC / "privcause" / "__init__.py").is_file():
        print(f"perfbench: no privcause package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(harness.WORKLOADS)}")
    if args.record_reference:
        harness.OUT.mkdir(exist_ok=True)
        print(harness.record_reference(harness.WORKLOADS[args.workload], harness.OUT))
        return 0
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
