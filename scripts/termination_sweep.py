#!/usr/bin/env python3
"""Exhaustive decidability sweep.

Decides every formula up to a given AST size (over a small atom
alphabet) in every logic.  Per logic it reports the theorems, how many
decisions the store shared by the logics of a mode answered without
search, the nodes and loop blocks of the searches, the sequents refuted
through their classical twin, the commits to modus ponens, and the
time; at the end, the sizes of the caches (`prover.cache_sizes`).  A
goal refuted through its twin also reports 0 nodes, but is not counted
as answered from the store.
This is the operational check that backward search halts on the whole
small-formula space without hitting budgets.

Usage: python3 scripts/termination_sweep.py [--max-size 7] [--num-atoms 2]
       [--logics WK,K,...]
"""

import argparse
import sys
import time

from wmodal import prover, sampling
from wmodal.logics import LOGICS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=7)
    ap.add_argument("--num-atoms", type=int, default=2)
    ap.add_argument("--logics", default=None,
                    help="comma-separated subset (default: all 28)")
    ap.add_argument("--max-nodes", type=int, default=prover.DEFAULT_MAX_NODES)
    ap.add_argument("--timeout-secs", type=float,
                    default=prover.DEFAULT_TIMEOUT_SECS)
    args = ap.parse_args()
    if args.max_size < 1:
        ap.error("--max-size must be 1 or more")
    if args.num_atoms < 0:
        ap.error("--num-atoms must be 0 or more")

    try:
        budget = prover.Budget(args.max_nodes, args.timeout_secs)
    except ValueError as e:
        ap.error(str(e))
    names = args.logics.split(",") if args.logics else sorted(LOGICS)
    unknown = [name for name in names if name not in LOGICS]
    if unknown:
        ap.error("unknown logic %r" % unknown[0])
    space = sampling.formulas_up_to_size(args.max_size, args.num_atoms)
    print("sweeping %d formulas (size <= %d, %d atoms) over %d logics"
          % (len(space), args.max_size, args.num_atoms, len(names)))

    overruns = 0
    grand_start = time.monotonic()
    for name in names:
        logic = LOGICS[name]
        theorems = stored = nodes = blocks = twins = mps = 0
        t0 = time.monotonic()
        for f in space:
            try:
                res = prover.prove(logic, prover.goal(logic, f), budget)
                stats = res.stats
                theorems += res.proved
                stored += stats.nodes == 0 and not stats.twin_refutations
                nodes += stats.nodes
                blocks += stats.loop_blocks
                twins += stats.twin_refutations
                mps += stats.mp_commits
            except prover.BudgetExceeded as e:
                overruns += 1
                print("  BUDGET EXCEEDED %s: %s" % (name, e))
        print("%-4s %6d theorems  %6d from store  %8d nodes  %6d loop blocks"
              "  %6d twin refutations  %6d mp commits  %6.2fs"
              % (name, theorems, stored, nodes, blocks, twins, mps,
                 time.monotonic() - t0))
    print("total %.1fs, %d budget overruns" % (time.monotonic() - grand_start,
                                               overruns))
    print("caches: " + ", ".join("%s %d" % kv
                                 for kv in prover.cache_sizes().items()))
    return 1 if overruns else 0


if __name__ == "__main__":
    sys.exit(main())
