"""Benchmark entry point; run it from the root of a checkout.

    python3 benchmarks/run.py --workload build --seed 1 --seconds 15 --trace 0

Imports seqcode from the checkout's own ``src/`` and refuses to run
without it.  Prints a few human-readable lines, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seqcode", "__init__.py")):
        print(f"error: no seqcode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import seqcode

    if os.path.dirname(os.path.dirname(os.path.abspath(seqcode.__file__))) != SRC:
        print(f"error: seqcode was imported from {seqcode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.workloads.WORKLOADS)}")
    result, lines = harness.run(args.workload, args.seed, args.seconds, args.trace, ROOT)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
