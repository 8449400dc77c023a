#!/usr/bin/env python3
"""Exhaustive agreement sweep: prover against countermodels.

Decides every formula up to a given AST size (over a small atom
alphabet) in every logic and searches each for a countermodel of at most
--max-worlds worlds.  Per logic it reports the theorems, the
non-theorems refuted at each number of worlds (by the smallest
countermodel), the disagreements, the time and, of that time, the time
spent in countermodel search.  A disagreement is a theorem with a
countermodel, a non-theorem with none of at most --max-worlds worlds,
or a countermodel that `semantics.is_countermodel` rejects (it checks a
preorder with a hereditary valuation, discrete in a classical model; the
conditions of the logic's class; f refuted at the world).  This is the
operational check of the paper's claim that the calculi and the
semantics give the same logics, on the small-formula space.

Exit status 1 on any disagreement or budget overrun, else 0.

Usage: python3 scripts/countermodel_sweep.py [--max-size 5] [--num-atoms 2]
       [--max-worlds 3] [--logics WK,K,...]
"""

import argparse
import sys
import time

from wmodal import prover, sampling, semantics, syntax
from wmodal.logics import LOGICS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=5)
    ap.add_argument("--num-atoms", type=int, default=2)
    ap.add_argument("--max-worlds", type=int, default=3)
    ap.add_argument("--logics", default=None,
                    help="comma-separated subset (default: all 28)")
    args = ap.parse_args()
    if args.max_size < 1:
        ap.error("--max-size must be 1 or more")
    if args.num_atoms < 0:
        ap.error("--num-atoms must be 0 or more")
    if not 1 <= args.max_worlds <= semantics.MAX_WORLDS:
        ap.error("--max-worlds must be 1 to %d" % semantics.MAX_WORLDS)

    names = args.logics.split(",") if args.logics else sorted(LOGICS)
    unknown = [name for name in names if name not in LOGICS]
    if unknown:
        ap.error("unknown logic %r" % unknown[0])
    space = sampling.formulas_up_to_size(args.max_size, args.num_atoms)
    worlds = range(1, args.max_worlds + 1)
    print("sweeping %d formulas (size <= %d, %d atoms) over %d logics, "
          "countermodels of at most %d worlds"
          % (len(space), args.max_size, args.num_atoms, len(names),
             args.max_worlds))

    failures = 0
    grand_start = time.monotonic()
    for name in names:
        logic = LOGICS[name]
        theorems, disagreements = 0, 0
        refuted = dict.fromkeys(worlds, 0)
        t0, search = time.monotonic(), 0.0
        for f in space:
            try:
                theorem = prover.decide(logic, f)
                t1 = time.monotonic()
                hit = semantics.enumerate_countermodel(logic, f,
                                                       args.max_worlds)
                search += time.monotonic() - t1
            except prover.BudgetExceeded as e:
                failures += 1
                print("  BUDGET EXCEEDED %s %s: %s"
                      % (name, syntax.render(f), e))
                continue
            theorems += theorem
            if hit is None:
                wrong = None if theorem else "non-theorem without countermodel"
            else:
                model, world = hit
                refuted[model.n] += 1
                if theorem:
                    wrong = "theorem with a countermodel"
                elif not semantics.is_countermodel(logic, f, model, world):
                    wrong = "countermodel does not verify"
                else:
                    wrong = None
            if wrong:
                disagreements += 1
                print("  DISAGREEMENT %s %s: %s"
                      % (name, syntax.render(f), wrong))
        failures += disagreements
        print("%-4s %6d theorems  %s  %d disagreements  %6.2fs  "
              "%6.2fs countermodel search"
              % (name, theorems,
                 "  ".join("%6d at %d world%s" % (refuted[n], n,
                                                  "s" if n > 1 else "")
                           for n in worlds),
                 disagreements, time.monotonic() - t0, search))
    print("total %.1fs, %d disagreements or overruns"
          % (time.monotonic() - grand_start, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
