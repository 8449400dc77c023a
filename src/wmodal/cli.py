"""Command-line front end.

Exit codes: 0 success, 1 negative answer (not derivable / no
countermodel / violations found), 2 budget exhausted, 64 usage or parse
errors, 70 internal error (any other exception, a proof that fails
`prover.check` or a countermodel that fails `semantics.is_countermodel`:
one line on stderr, no traceback, never read as a negative answer), 74
standard output closed by its reader (nothing printed).  `--format
structured` emits line-delimited JSON with a version field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# `interpolation`, `semantics` and `suites` are imported by the commands
# that run them, so that a one-shot call loads only what it runs.
from . import prover, syntax
from .logics import LOGICS, get_logic
from .prover import Budget, BudgetExceeded
from .sequents import parse_sequent
from .syntax import ParseError

EX_OK = 0
EX_NEGATIVE = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74

FORMAT_VERSION = 2


class _Out:
    def __init__(self, structured: bool):
        self.structured = structured

    def emit(self, record, text):
        """Print record, or text; either may be a function that makes it."""
        shown = record if self.structured else text
        shown = shown() if callable(shown) else shown
        if self.structured:
            shown = json.dumps({"version": FORMAT_VERSION, **shown},
                               sort_keys=True)
        print(shown)


def _stats_doc(stats):
    """The search counts of a prove or decide record: every field of
    `SearchStats` but the time."""
    return {k: v for k, v in stats._asdict().items() if k != "elapsed"}


def _derivation_doc(d):
    """The derivation as nested records.  A shared subderivation appears
    in full once, with an "id", and later as {"ref": id, "sequent": ...}."""
    root = None
    open_premises = []      # premises list of the open record at each depth
    for depth, node, label, first in d.walk():
        if first:
            doc = {"rule": node.rule, "sequent": str(node.conclusion),
                   "premises": []}
            if label is not None:
                doc["id"] = label
        else:
            doc = {"ref": label, "sequent": str(node.conclusion)}
        del open_premises[depth:]
        if depth:
            open_premises[depth - 1].append(doc)
        else:
            root = doc
        open_premises.append(doc.get("premises"))
    return root


def _checked(logic, d):
    """d once forward `check` accepts it; a derivation it rejects is an
    internal error, raised before anything of it is printed."""
    if not prover.check(logic, d):
        raise RuntimeError("derivation of %s fails check" % d.conclusion)
    return d


def _budget(args) -> Budget:
    return Budget(max_nodes=args.max_nodes, timeout_secs=args.timeout_secs)


def _parse_goal(logic, text):
    if "|-" in text:
        return parse_sequent(text, logic.mode)
    return prover.goal(logic, syntax.parse(text))


def cmd_prove(args, out):
    logic = get_logic(args.logic)
    seq = _parse_goal(logic, args.input)
    res = prover.prove(logic, seq, _budget(args))
    if res.proved:
        d = _checked(logic, res.derivation)
        out.emit(lambda: {"command": "prove", "logic": logic.name,
                          "status": "proved", **_stats_doc(res.stats),
                          "derivation": _derivation_doc(d)}, d.pretty)
        return EX_OK
    out.emit({"command": "prove", "logic": logic.name,
              "status": "not-derivable", **_stats_doc(res.stats)},
             "not derivable (%d nodes explored)" % res.stats.nodes)
    return EX_NEGATIVE


def cmd_decide(args, out):
    logic = get_logic(args.logic)
    f = syntax.parse(args.input)
    res = prover.prove(logic, prover.goal(logic, f), _budget(args))
    theorem = res.proved
    out.emit({"command": "decide", "logic": logic.name,
              "formula": syntax.render(f),
              "status": "theorem" if theorem else "non-theorem",
              **_stats_doc(res.stats)},
             "theorem" if theorem else "non-theorem")
    return EX_OK if theorem else EX_NEGATIVE


def cmd_interpolate(args, out):
    from . import interpolation
    logic = get_logic(args.logic)
    a, b = syntax.parse_all(args.a, args.b)
    try:
        res = interpolation.craig(logic, a, b, _budget(args))
    except interpolation.NotATheoremError as e:
        out.emit({"command": "interpolate", "logic": logic.name,
                  "status": "not-a-theorem"}, str(e))
        return EX_NEGATIVE
    c = syntax.render(res.interpolant)
    left = _checked(logic, res.left_certificate)
    right = _checked(logic, res.right_certificate)
    out.emit(lambda: {"command": "interpolate", "logic": logic.name,
                      "status": "ok", "interpolant": c,
                      "left_certificate": _derivation_doc(left),
                      "right_certificate": _derivation_doc(right)},
             lambda: "interpolant: %s\nleft certificate:\n%s\nright "
                     "certificate:\n%s" % (c, left.pretty(), right.pretty()))
    return EX_OK


def cmd_countermodel(args, out):
    from . import semantics
    logic = get_logic(args.logic)
    f = syntax.parse(args.input)
    found = semantics.enumerate_countermodel(logic, f, args.max_worlds,
                                             args.timeout_secs)
    if found is None:
        out.emit({"command": "countermodel", "logic": logic.name,
                  "status": "none", "max_worlds": args.max_worlds},
                 "none up to size %d" % args.max_worlds)
        return EX_NEGATIVE
    model, world = found
    if not semantics.is_countermodel(logic, f, model, world):
        raise RuntimeError("countermodel of %s fails its check"
                           % syntax.render(f))
    doc = semantics.model_to_json(model)
    out.emit({"command": "countermodel", "logic": logic.name, "status": "found",
              "world": world, "model": json.loads(doc)},
             "refuting world: %d\nmodel: %s" % (world, doc))
    return EX_OK


def cmd_check_model(args, out):
    from . import semantics
    logic = get_logic(args.logic)
    with open(args.model_file) as fh:
        model = semantics.model_from_json(fh.read())
    if model.kind != logic.mode:
        out.emit({"command": "check-model", "status": "wrong-kind"},
                 "model kind %s does not fit logic %s" % (model.kind, logic.name))
        return EX_NEGATIVE
    report = semantics.check_conditions(model, logic)
    detail = {c: report.status[c] for c in report.required}
    ok = report.ok
    valid = None
    if args.input:
        f = syntax.parse(args.input)
        valid = semantics.valid_in_model(model, f)
        ok = ok and valid
    out.emit({"command": "check-model", "logic": logic.name,
              "conditions": detail,
              "witnesses": {k: list(v) for k, v in report.witnesses.items()},
              "formula_valid": valid,
              "status": "ok" if ok else "failed"},
             "conditions: %s%s" % (detail,
                                   "" if valid is None
                                   else "; formula valid: %s" % valid))
    return EX_OK if ok else EX_NEGATIVE


def cmd_selftest(args, out):
    from . import suites
    rows, ok = suites.selftest(_budget(args))
    for r in rows:
        out.emit({"command": "selftest", "logic": r.logic, "schema": r.schema,
                  "expected": r.expected, "got": r.got, "ok": r.ok},
                 "%-6s %-28s expected=%-5s got=%-5s %s"
                 % (r.logic, r.schema, r.expected, r.got,
                    "ok" if r.ok else "MISMATCH"))
    out.emit({"command": "selftest", "status": "ok" if ok else "failed"},
             "selftest: %s" % ("ok" if ok else "FAILED"))
    return EX_OK if ok else EX_NEGATIVE


def cmd_fuzz(args, out):
    from . import suites
    violations = suites.fuzz(args.seed, args.count,
                             [args.logic] if args.logic else None)
    for v in violations:
        out.emit({"command": "fuzz", "violation": v}, "VIOLATION: %s" % v)
    out.emit({"command": "fuzz", "seed": args.seed,
              "violations": len(violations),
              "status": "ok" if not violations else "failed"},
             "fuzz (seed=%d): %d violations" % (args.seed, len(violations)))
    return EX_OK if not violations else EX_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wmodal",
        description="Decision procedures, interpolation and countermodels "
                    "for 28 constructive/classical non-normal modal logics.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, logic=True,
                budget=("max_nodes", "timeout_secs")):
        """A subcommand with --format, --logic unless logic is None
        (required when logic is True), and the named budget options."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        if logic is not None:
            p.add_argument("--logic", required=logic,
                           choices=sorted(LOGICS), metavar="LOGIC")
        if "max_nodes" in budget:
            p.add_argument("--max-nodes", type=int,
                           default=prover.DEFAULT_MAX_NODES)
        if "timeout_secs" in budget:
            p.add_argument("--timeout-secs", type=float,
                           default=prover.DEFAULT_TIMEOUT_SECS)
        return p

    p = command("prove", cmd_prove, "decide a sequent or formula, print proof")
    p.add_argument("input")

    p = command("decide", cmd_decide, "theorem / non-theorem")
    p.add_argument("input")

    p = command("interpolate", cmd_interpolate, "Craig interpolant for A -> B")
    p.add_argument("a")
    p.add_argument("b")

    p = command("countermodel", cmd_countermodel,
                "exhaustive countermodel search", budget=("timeout_secs",))
    p.add_argument("input")
    p.add_argument("--max-worlds", type=int, default=3)

    p = command("check-model", cmd_check_model, "check a serialized model",
                budget=())
    p.add_argument("model_file")
    p.add_argument("input", nargs="?", default=None,
                   help="optional formula to evaluate")

    command("selftest", cmd_selftest, "axiom and negative matrices",
            logic=None)

    p = command("fuzz", cmd_fuzz, "randomized property suites", logic=False,
                budget=())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None,
                   help="iterations of every suite (default: each "
                        "suite's own)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    out = _Out(args.format == "structured")
    try:
        code = args.fn(args, out)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: point stdout at /dev/null so that the
        # interpreter's last flush of what is still buffered says nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except (ParseError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EX_USAGE
    except BudgetExceeded as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return EX_BUDGET
    except Exception as e:
        print("internal error: %r" % (e,), file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
