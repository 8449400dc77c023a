#!/usr/bin/env python3
"""One measured run of one workload, in a fresh interpreter.

Started by run.py, once per measured run and once per set-up probe, so
that the engine caches and the formula intern table start cold:

    python3 bench/worker.py --workload sweep --inputs FILE --seconds 16
        [--setup-only] [--trace FILE] [--probes]

It prints `ready` when set-up is done and, unless --setup-only, the
result as one JSON object on the last line of standard output.  With
--probes it runs only the layer probes, in their own fresh process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

QUERY_CAP_S = 0.05     # wall-clock cap per `queries` request
CHECK_CAP_S = 5.0      # per untimed oracle call (proof check, re-search)
CLI_CAP_S = 2.0        # per one-shot CLI invocation
MEMORY_LIMIT = 3 << 30
INF = math.inf
perf = time.perf_counter


class OverCap(Exception):
    pass


def _alarm(signum, frame):
    raise OverCap()


def capped(seconds, fn, *args):
    """fn(*args), interrupted with OverCap after seconds of wall time."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return INF
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def timing(lat, cap=None):
    """Percentiles of per-operation seconds, in ms; failed operations are
    INF, and a percentile that lands on one reads as the cap.  A tail
    percentile is given only when at least ten samples lie beyond it."""
    lat = sorted(lat)
    out = {"samples": len(lat)}
    for p in (50, 90, 95, 99):
        if p == 50 or len(lat) * (100 - p) >= 1000:
            x = percentile(lat, p)
            if x == INF:
                x = cap if cap is not None else x
            out["p%d_ms" % p] = 1e3 * x
    return out


def measured(meter, cap=None):
    """Operation counts and timings of a run, scaled to the reference
    speed (calib.py), and as measured under `wall`."""
    meter.flush()
    return {"attempted": len(meter.raw),
            "ops": sum(1 for x in meter.raw if x != INF),
            "op_time_s": meter.busy_scaled, "wall_op_time_s": meter.busy,
            "ref_scale": meter.scale(), "ref_samples": len(meter.samples),
            **timing(meter.scaled, cap), "wall": timing(meter.raw, cap)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up: import wmodal, build the catalogue, parse the inputs.

def setup(workload, inp, T):
    if workload == "oneshot":
        import wmodal.cli  # noqa: F401
        return inp
    from wmodal import logics, sequents, syntax
    cat = {name: logics.get_logic(name) for name in gen.LOGICS}
    parse = syntax.parse
    if workload == "sweep":
        fs = [T("syntax.parse", parse, t) for t in inp["formulas"]]
        bounds = {}
        for i, f in enumerate(fs):
            bounds[f.size] = i + 1
        return {"formulas": fs, "logics": [cat[n] for n in inp["logics"]],
                "bounds": bounds, "seed": inp["seed"]}
    if workload == "queries":
        reqs = []
        for r in inp["requests"]:
            logic = cat[r["logic"]]
            if r["kind"] == "axiom":
                parsed = T("syntax.parse", parse, r["text"])
            elif r["kind"] == "boxseq":
                parsed = T("sequents.parse_sequent", sequents.parse_sequent,
                           r["text"], logic.mode)
            else:
                parsed = (T("syntax.parse", parse, r["a"]),
                          T("syntax.parse", parse, r["b"]))
            reqs.append((r, logic, parsed))
        return {"requests": reqs, "seed": inp["seed"]}
    if workload == "countermodel":
        def load(pairs, worlds, kind):
            return [(cat[l], T("syntax.parse", parse, t), t, worlds, kind)
                    for l, t in pairs]
        texts = inp["formulas"]
        fs = [T("syntax.parse", parse, t) for t in texts]
        return {"heavy": load(inp["heavy3"], 3, "heavy"),
                "light": load(inp["light3"], 3, "light"),
                "stream": [(cat[l], fs[i], texts[i], 2, "stream")
                           for l, i in inp["stream"]]}
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# Shared oracles

def verify_witness(v, logic, f, text, hit, T):
    """A countermodel must satisfy the logic's conditions and refute f,
    by wmodal's own checks and by the benchmark's evaluator."""
    from wmodal import semantics
    model, world = hit
    ok = (T("semantics.check_conditions", semantics.check_conditions,
            model, logic).ok
          and not T("semantics.forces", semantics.forces, model, world, f))
    doc = json.loads(semantics.model_to_json(model))
    if not (ok and oracle.witness_ok(doc, logic.name, text, world)):
        v.wrong_answer(("refuted witness", logic.name, text))
        return False
    return True


def cross_check(v, logic, f, text, theorem, T):
    """Search for a 2-world countermodel of a decided formula.  Returns
    True when the verdict is confirmed, False when it is merely not
    refuted (a non-theorem whose countermodels are all larger)."""
    from wmodal import semantics
    try:
        hit = capped(CHECK_CAP_S, T, "semantics.enumerate_countermodel",
                     semantics.enumerate_countermodel, logic, f, 2)
    except OverCap:
        v.failure(("cross-check over cap", logic.name, text))
        return False
    if hit is None:
        return theorem
    if verify_witness(v, logic, f, text, hit, T) and theorem:
        v.wrong_answer(("countermodel to a theorem", logic.name, text))
    return not theorem


def check_proof(v, logic, d, what, T):
    from wmodal import prover
    try:
        if not capped(CHECK_CAP_S, T, "prover.check", prover.check, logic, d):
            v.wrong_answer(("proof rejected by check", logic.name, what))
    except OverCap:
        v.failure(("check over cap", logic.name, what))


# ---------------------------------------------------------------------------
# sweep: decide the whole size <= 6 space in every logic, cold caches
# shared within a pass.

def run_sweep(ctx, seconds, T, whole=True):
    from wmodal import prover, syntax
    fs, logics, bounds = ctx["formulas"], ctx["logics"], ctx["bounds"]
    v = oracle.Verdicts()
    meter = calib.Meter()
    digest = {}
    passes = 0
    budget = seconds
    while True:
        table = {lg.name: {} for lg in logics}
        proofs = []
        i = 0
        seg_start = perf()
        stop = seg_start + budget
        # A measured run decides whole passes only: it finishes the pass in
        # progress when its time is up, so every run times the same
        # decisions.  (A partial pass from cold caches is all small
        # formulas, and moved the median by a fifth.)
        while i < len(fs) and (whole or perf() < stop):
            f = fs[i]
            for logic in logics:
                t0 = perf()
                try:
                    res = T("prover.prove", prover.prove, logic,
                            prover.goal(logic, f))
                except prover.BudgetExceeded:
                    meter.add(perf() - t0, False)
                    v.failure(("budget", logic.name, syntax.render(f)))
                    continue
                meter.add(perf() - t0)
                table[logic.name][i] = res.proved
                if res.proved:
                    proofs.append((logic, res.derivation, i))
            i += 1
        budget -= perf() - seg_start
        meter.flush()
        # Untimed oracles for this pass.
        for logic, d, j in proofs:
            check_proof(v, logic, d, syntax.render(fs[j]), T)
        for bad in oracle.lattice_violations(table):
            v.wrong_answer(("lattice", bad[0], bad[1], syntax.render(fs[bad[2]])))
        for size, golden in oracle.GOLDEN.items():
            if bounds.get(size) and i >= bounds[size]:
                counts = {n: sum(1 for j, th in t.items() if th and j < bounds[size])
                          for n, t in table.items()}
                digest["size<=%d" % size] = counts
                for n, c in counts.items():
                    if c != golden[n]:
                        v.wrong_answer(("digest", n, size, c, golden[n]))
        if not passes:
            # Peak RSS of the first pass with its oracles: a later pass
            # grows the caches again in a fragmented heap, and whether one
            # runs depends on the speed of the machine.
            first_rss = peak_rss_mb()
        prover.clear_caches()
        if i < len(fs):
            break
        passes += 1
        if budget <= 0:
            break
    # The caches are cleared before the tally below, so that its lists do
    # not add to the peak RSS of the workload itself.
    digest["decided_prefix"] = {n: sum(t.values()) for n, t in table.items()}
    # Seeded cross-check of 200 non-theorem and 100 theorem verdicts
    # against 2-world countermodels.  Cells are drawn one at a time: a list
    # of all of them would add tens of MB to the peak RSS being measured.
    rng = random.Random(ctx["seed"])
    want = {False: 200, True: 100}
    picked = {}
    for _ in range(20000 if i else 0):
        if not any(want.values()):
            break
        logic = rng.choice(logics)
        j = rng.randrange(i)
        th = table[logic.name].get(j)
        if th is not None and want[th] and (logic.name, j) not in picked:
            picked[logic.name, j] = (logic, th)
            want[th] -= 1
    unconfirmed = 0
    for (_, j), (logic, th) in picked.items():
        if not cross_check(v, logic, fs[j], bracketed(fs[j]), th, T) and not th:
            unconfirmed += 1
    return {"failed": v.failed, "correct": v.correct,
            "wrong": v.wrong[:20], "failures": v.failures[:20],
            "passes": passes, "unconfirmed": unconfirmed, "digest": digest,
            "formulas_decided": i, "peak_rss_mb": first_rss,
            **measured(meter)}


# ---------------------------------------------------------------------------
# queries: one certified request at a time from cold caches.

def do_request(v, req, logic, parsed, T):
    from wmodal import interpolation, prover, syntax
    kind = req["kind"]
    if kind == "craig":
        a, b = parsed
        try:
            res = T("interpolation.craig", interpolation.craig, logic, a, b)
        except (interpolation.NotATheoremError,
                interpolation.CertificateError) as e:
            v.wrong_answer(("craig", req["id"], repr(e)))
            return False, None
        for d in (res.left_certificate, res.right_certificate):
            if not T("prover.check", prover.check, logic, d):
                v.wrong_answer(("certificate rejected", req["id"]))
                return False, None
        c = res.interpolant
        if not syntax.var_set(c) <= syntax.var_set(a) & syntax.var_set(b):
            v.wrong_answer(("variable condition", req["id"], syntax.render(c)))
            return False, None
        return True, None
    seq = prover.goal(logic, parsed) if kind == "axiom" else parsed
    res = T("prover.prove", prover.prove, logic, seq)
    if res.proved:
        if not T("prover.check", prover.check, logic, res.derivation):
            v.wrong_answer(("proof rejected by check", req["id"]))
            return False, None
    elif req["expect"]:
        v.wrong_answer(("axiom instance not derivable", req["id"]))
        return False, None
    return True, (res.proved, seq)


def run_queries(ctx, seconds, T, tracer, whole=True):
    from wmodal import prover, sequents
    reqs = ctx["requests"]
    block = len(gen.query_strata())
    v = oracle.Verdicts()
    over_cap = []
    decided = []
    meter = calib.Meter()
    k = 0
    end = perf() + seconds
    # A measured run serves whole blocks of the stratified mix, so that
    # every stratum has the same share in every run.
    while perf() < end or (whole and k % block):
        req, logic, parsed = reqs[k % len(reqs)]
        k += 1
        if tracer:
            tracer.request = k
        prover.clear_caches()
        t0 = perf()
        try:
            ok, out = capped(QUERY_CAP_S, T, "bench.request",
                             do_request, v, req, logic, parsed, T)
        except OverCap:
            # Not a failure: the answer was still being computed or checked.
            # These are the DAG-as-tree walks of NOTES.md; the request misses
            # every percentile, its time counts against the throughput, and
            # it is counted in `over_cap`.
            ok = False
            over_cap.append(req["id"])
        except prover.BudgetExceeded:
            ok = False
            v.failure(("budget", req["id"]))
        meter.add(perf() - t0, ok)
        if ok and out is not None and len(decided) < 2000:
            decided.append((logic, out[0], out[1], req["id"]))
    meter.flush()
    # Seeded cross-check of verdicts against 2-world countermodels.
    rng = random.Random(ctx["seed"])
    rng.shuffle(decided)
    non = [d for d in decided if not d[1]][:30]
    thm = [d for d in decided if d[1]][:30]
    unconfirmed = 0
    for logic, th, seq, rid in non + thm:
        f = sequents.interpret(seq)
        if not cross_check(v, logic, f, bracketed(f), th, T) and not th:
            unconfirmed += 1
    return {"failed": v.failed, "correct": v.correct,
            "wrong": v.wrong[:20], "failures": v.failures[:50],
            "over_cap": len(over_cap), "over_cap_ids": over_cap[:50],
            "cap_s": QUERY_CAP_S, "unconfirmed": unconfirmed,
            **measured(meter, QUERY_CAP_S)}


def bracketed(f):
    """f in the generator's fully bracketed syntax, for `oracle.read`."""
    from wmodal import syntax
    if f.kind == syntax.ATOM:
        return "p%d" % f.index
    if f.kind == syntax.BOT:
        return "bot"
    if f.kind == syntax.BOX:
        return "[]" + bracketed(f.left)
    if f.kind == syntax.DIA:
        return "<>" + bracketed(f.left)
    op = {syntax.AND: "&", syntax.OR: "|", syntax.IMP: "->"}[f.kind]
    return "(%s %s %s)" % (bracketed(f.left), op, bracketed(f.right))


# ---------------------------------------------------------------------------
# countermodel: exhaustive small-model search.

def run_countermodel(ctx, seconds, T, whole=True):
    from wmodal import prover, semantics
    v = oracle.Verdicts()
    by_class = {}
    unconfirmed = 0
    exhaustive = 0
    meter = calib.Meter()
    end = perf() + seconds
    # A pass is the 3-world searches, then the whole 2-world space in
    # seeded order.  A measured run searches whole passes, so every run
    # times the same searches, and the 2 s heavy search has the same share
    # of the run however many passes fit.
    unit = ctx["heavy"] + ctx["light"] + ctx["stream"]
    first_rss = None
    k = 0
    while perf() < end or (whole and k % len(unit)):
        logic, f, text, worlds, kind = unit[k % len(unit)]
        k += 1
        t0 = perf()
        hit = T("semantics.enumerate_countermodel",
                semantics.enumerate_countermodel, logic, f, worlds)
        dt = perf() - t0
        meter.add(dt)
        by_class.setdefault("w%d.%s" % (worlds, logic.mode), []).append(dt)
        theorem = T("prover.decide", prover.decide, logic, f)
        if hit is None:
            exhaustive += 1
            if kind == "heavy" and not theorem:
                v.wrong_answer(("known theorem not derivable", logic.name, text))
            elif not theorem:
                unconfirmed += 1
        elif verify_witness(v, logic, f, text, hit, T) and theorem:
            v.wrong_answer(("countermodel to a theorem", logic.name, text))
        if k == len(unit):
            first_rss = peak_rss_mb()   # as on `sweep`
    meter.flush()
    return {"failed": v.failed, "correct": v.correct,
            "wrong": v.wrong[:20], "failures": v.failures[:20],
            "unconfirmed": unconfirmed, "exhaustive": exhaustive,
            "peak_rss_mb": first_rss or peak_rss_mb(),
            "by_class_ms": {c: 1e3 * sorted(x)[len(x) // 2]
                            for c, x in by_class.items()},
            **measured(meter)}


# ---------------------------------------------------------------------------
# oneshot: fresh `python -m wmodal.cli` invocations.

def _cli_argv(c, workdir):
    r = c["request"]
    argv = ["--format", c["format"]]
    cmd = c["command"]
    if cmd == "interpolate":
        return ["interpolate", "--logic", r["logic"]] + argv + [r["a"], r["b"]]
    if cmd == "check-model":
        path = os.path.join(workdir, "model-%d.json" % c["id"])
        with open(path, "w") as fh:
            json.dump(c["model"], fh)
        return ["check-model", "--logic", r["logic"]] + argv + [path, r["text"]]
    if cmd == "countermodel":
        argv += ["--max-worlds", "2"]
    return [cmd, "--logic", r["logic"]] + argv + [r["text"]]


def _expectation(c):
    """Exit code the CLI must give (None: either 0 or 1 is acceptable)
    and the in-process verdict, computed before the timed call."""
    from wmodal import prover, sequents, syntax
    from wmodal.logics import get_logic
    r = c["request"]
    logic = get_logic(r["logic"])
    cmd = c["command"]
    if cmd == "interpolate":
        return 0, True
    if cmd == "check-model":
        return oracle.expected_check_model(c["model"], r["logic"], r["text"]), None
    try:
        if r["kind"] == "boxseq":
            seq = sequents.parse_sequent(r["text"], logic.mode)
        else:
            seq = prover.goal(logic, syntax.parse(r["text"]))
        theorem = capped(CLI_CAP_S, lambda: prover.prove(logic, seq).proved)
    except (OverCap, prover.BudgetExceeded):
        theorem = r["expect"]
    if theorem is None:
        return None, None
    if cmd == "countermodel":
        return (1 if theorem else None), theorem
    return (0 if theorem else 1), theorem


def _spawn(argv, out_path, err_path, env):
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    return os.posix_spawn(sys.executable, [sys.executable, "-m", "wmodal.cli"]
                          + argv, env, file_actions=actions)


def run_cli(argv, workdir, env):
    """Run one CLI call; returns (exit code or None on cap, seconds,
    maxrss MB, stdout)."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    t0 = perf()
    pid = _spawn(argv, out_path, err_path, env)
    try:
        _, status, ru = capped(CLI_CAP_S, os.wait4, pid, 0)
    except OverCap:
        os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
        return None, perf() - t0, ru.ru_maxrss / 1024.0, ""
    dt = perf() - t0
    with open(out_path) as fh:
        out = fh.read(1 << 20)
    return os.waitstatus_to_exitcode(status), dt, ru.ru_maxrss / 1024.0, out


def output_ok(c, code, out):
    """A CLI countermodel must refute the formula in a model of the
    logic's class; an interpolant may only use atoms common to A and B."""
    r = c["request"]
    if c["command"] == "countermodel" and code == 0:
        doc = json.loads(out.splitlines()[-1])
        return oracle.witness_ok(doc["model"], r["logic"], r["text"],
                                 doc["world"])
    if c["command"] == "interpolate":
        # Structured records have sorted keys, so the interpolant comes
        # before the certificates, which may be cut off at 1 MiB.
        if c["format"] == "structured":
            itp = re.search(r'"interpolant": "([^"]*)"', out).group(1)
        else:
            itp = out.splitlines()[0].partition(":")[2]
        return oracle.atoms_in(itp) <= (oracle.atoms_in(r["a"])
                                        & oracle.atoms_in(r["b"]))
    return True


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_oneshot(ctx, seconds, T, workdir, whole=True):
    cmds = ctx["commands"]
    env = cli_env()
    v = oracle.Verdicts()
    rss, over_cap = [], []
    meter = calib.Meter()
    unconfirmed = 0
    k = 0
    busy = 0.0
    # A measured run makes whole passes over the 100 commands, so that ten
    # calls lie beyond p90 and every run times the same calls.
    while busy < seconds or (whole and k % len(cmds)):
        c = cmds[k % len(cmds)]
        k += 1
        expected, theorem = _expectation(c)
        argv = _cli_argv(c, workdir)
        code, dt, mb, out = T("cli.subprocess", run_cli, argv, workdir, env)
        busy += dt
        rss.append(mb)
        if code is None:
            # Killed at the cap: a proof rendered as a tree (NOTES.md).
            over_cap.append(c["id"])
            meter.add(dt, False)
            continue
        good = code in (0, 1) and (expected is None or code == expected)
        if code == 1 and c["command"] == "countermodel" and theorem is False:
            unconfirmed += 1
        try:
            good = good and output_ok(c, code, out)
        except (ValueError, KeyError, IndexError, AttributeError):
            good = False
        if not good:
            v.wrong_answer(("cli", c["command"], c["id"], code, expected))
        meter.add(dt, good)
    rss.sort()
    return {"failed": v.failed, "correct": v.correct,
            "wrong": v.wrong[:20], "failures": v.failures[:20],
            "over_cap": len(over_cap), "over_cap_ids": over_cap[:20],
            "cap_s": CLI_CAP_S, "unconfirmed": unconfirmed,
            "peak_rss_mb": rss[len(rss) // 2] if rss else 0.0,
            "cli_rss_max_mb": rss[-1] if rss else 0.0,
            **measured(meter, CLI_CAP_S)}


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here")
    ap.add_argument("--probes", action="store_true",
                    help="run the layer probes instead of the workload")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--partial", action="store_true",
                    help="stop at --seconds, not at the end of a pass or "
                         "block (traced runs, tests)")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    # One core for the run, its reference samples and the CLI processes it
    # starts, so that the samples see the speed of the core the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    with open(args.inputs) as fh:
        inp = json.load(fh)
    if args.probes:
        import probes
        tracer = tracing.Tracer()
        print(json.dumps({"layers": probes.run_all(inp["seed"], tracer,
                                                   args.workdir)}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    T = tracer.call if tracer else tracing.direct
    ctx = setup(args.workload, inp, T)
    print("ready", flush=True)
    if args.setup_only:
        # Reference samples of this process's speed, to scale its set-up
        # time (calib.py); taken after `ready`, so they add nothing to it.
        print(json.dumps([calib.reference() for _ in range(3)]))
        return 0
    wl = args.workload
    t0 = perf()
    if wl == "sweep":
        out = run_sweep(ctx, args.seconds, T, not args.partial)
    elif wl == "queries":
        out = run_queries(ctx, args.seconds, T, tracer, not args.partial)
    elif wl == "countermodel":
        out = run_countermodel(ctx, args.seconds, T, not args.partial)
    else:
        out = run_oneshot(ctx, args.seconds, T, args.workdir, not args.partial)
    out["wall_s"] = perf() - t0
    out.setdefault("peak_rss_mb", peak_rss_mb())
    if tracer:
        out["self_s"] = tracer.self_times()
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # Run through the importable module, so that probes.py, which imports
    # `worker`, sees the same OverCap class as the alarm handler.
    import worker
    sys.exit(worker.main())
