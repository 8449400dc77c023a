#!/usr/bin/env python3
"""Run the randomized property suites at configurable scale.

Covers structural admissibility (weakening/contraction/cut), the
disjunction property, the interpolation contract, model-theoretic
soundness, hereditariness, and the lattice inclusion checks.

Usage: python3 scripts/run_fuzz.py [--seed N] [--count N] [--logics WM,WK]
"""

import argparse
import sys
import time

from wmodal import suites
from wmodal.logics import LOGICS
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=50,
                    help="per-suite, per-logic iteration count")
    ap.add_argument("--logics", default=None,
                    help="comma-separated subset (default: all 28)")
    ap.add_argument("--inclusions", action="store_true",
                    help="also run the lattice inclusion suites")
    args = ap.parse_args()
    if args.count < 0:
        ap.error("--count must be 0 or more")
    names = args.logics.split(",") if args.logics else sorted(LOGICS)
    unknown = [name for name in names if name not in LOGICS]
    if unknown:
        ap.error("unknown logic %r" % unknown[0])
    t0 = time.monotonic()
    violations = suites.fuzz(args.seed, args.count, names)
    if args.inclusions:
        violations += suites.inclusion_suite(CLASSICAL, args.count, args.seed)
        violations += suites.inclusion_suite(CONSTRUCTIVE, args.count,
                                             args.seed)
        violations += suites.constructive_to_classical_suite(args.count,
                                                             args.seed)
    for v in violations:
        print("VIOLATION:", v)
    print("seed=%d count=%d logics=%d: %d violations in %.1fs"
          % (args.seed, args.count, len(names), len(violations),
             time.monotonic() - t0))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
