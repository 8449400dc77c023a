"""Layer probes of the traced run.

Every traced run, whatever its workload, ends with these probes, so each
per-layer metric is measured on the same kind of seeded input in every
run.  Each probe calls one module's public functions, inside spans.
NOTES.md says which end-to-end metric each probe should move.
"""

from __future__ import annotations

import io
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

import gen
import worker
from worker import OverCap, capped, perf

PROBE_CAP_S = worker.QUERY_CAP_S

# Inputs that expose the DAG-as-tree walks (see NOTES.md).  They are
# part of every traced run and are never filtered out.
DEFECT_SEQUENTS = [
    ("WKT", "[]<>p3, []<>[]p2, [](bot -> p1), [](p3 | p3), [](p1 | p1), "
            "[]p1, [](p2 | p3), <>p1 |- [](bot -> bot)"),
    ("MCT", "[]<>bot, []p1, []<>p2, [](bot -> p2), [](p1 | p1), [](p1 | p2), "
            "[](p3 | p1), <><>p1 |- <>[]<>p1"),
    ("KT", "[](p2 | p1), [][]p2, [](p3 | p2), [](p2 -> p1), [](p1 | p1), "
           "[]p1, [](p2 | bot), <><>p2 |- []p2"),
    ("MNT", "|- ([]((<>bot -> <>(p3 & p3)) -> ([]p1 | <>p2)) -> "
            "([](<>bot -> <>(p3 & p3)) -> []([]p1 | <>p2)))"),
]
# craig on this WKT theorem (the antecedents of the first sequent, as one
# conjunction, imply []top) does not stop within a minute, whatever the
# prover budget.
DEFECT_CRAIG = ("WKT", "([]<>p3) & ([]<>[]p2) & ([](bot -> p1)) & ([](p3 | p3)) "
                       "& ([](p1 | p1)) & ([]p1) & ([](p2 | p3)) & (<>p1)",
                "[](bot -> bot)")


def dag_tree(d):
    """(distinct nodes, nodes of the tree unfolding) of a derivation,
    by a memoised walk."""
    memo = {}
    stack = [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if expanded:
            memo[id(node)] = 1 + sum(memo[id(c)] for c in node.children)
            continue
        stack.append((node, True))
        stack.extend((c, False) for c in node.children if id(c) not in memo)
    return len(memo), memo[id(d)]


def per_call(T, name, fn, args_list, repeat=3):
    """Median over repeats of the mean seconds per call of fn(*args)."""
    means = []
    out = None
    for _ in range(repeat):
        t0 = perf()
        out = [T(name, fn, *a) for a in args_list]
        means.append((perf() - t0) / max(1, len(args_list)))
    return statistics.median(means), out


UNITS = {
    "syntax.parse_us": "us",
    "sequents.normalize_us": "us", "sequents.hash_us": "us",
    "calculus.match_us": "us", "calculus.instances_per_seq": "count",
    "calculus.check_step_us": "us",
    "prover.nodes": "count", "prover.loop_blocks": "count",
    "prover.nodes_per_s": "1/s", "prover.cache_proved": "count",
    "prover.cache_failed": "count", "prover.warm_decide_us": "us",
    "prover.prove_ms": "ms", "prover.check_ms": "ms",
    "prover.check_over_cap": "count", "prover.proof_dag_nodes": "count",
    "prover.proof_tree_nodes": "count",
    "interpolation.craig_ms": "ms", "interpolation.certificate_share": "share",
    "interpolation.interpolant_dag_nodes": "count",
    "interpolation.interpolant_tree_size": "count",
    "interpolation.craig_over_cap": "count",
    "semantics.enumerate_ms.w2.classical": "ms",
    "semantics.enumerate_ms.w2.constructive": "ms",
    "semantics.enumerate_ms.w3.classical": "ms",
    "semantics.enumerate_ms.w3.constructive": "ms",
    "semantics.enumerate_ms.w3.theorem": "ms",
    "semantics.exhaustive_share": "share", "semantics.extension_us": "us",
    "semantics.witness_check_us": "us",
    "cli.import_ms": "ms", "cli.main_ms": "ms",
}


def run_all(seed, tracer, workdir):
    """Every layer metric as {name: {"value", "unit"}}."""
    from wmodal import prover
    T = tracer.call
    rng = random.Random(seed)
    m = {}
    prover.clear_caches()
    m.update(probe_syntax(rng, T))
    layer, harvested = probe_prover_queries(rng, T)
    m.update(layer)
    m.update(probe_sequents_calculus(harvested, T))
    m.update(probe_prover_sweep(rng, T))
    m.update(probe_interpolation(rng, T))
    m.update(probe_semantics(rng, T))
    m.update(probe_cli(rng, T, workdir))
    prover.clear_caches()
    return {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()}


def probe_syntax(rng, T):
    from wmodal import syntax
    texts = [gen.random_formula(rng, rng.randint(3, 12), 3) for _ in range(2000)]
    t0 = perf()
    for t in texts:
        T("syntax.parse", syntax.parse, t)
    return {"syntax.parse_us": 1e6 * (perf() - t0) / len(texts)}


def probe_prover_queries(rng, T):
    """Cold prove + check of seeded `queries` requests, three (a) and two
    (b) per logic, plus the defect sequents; returns the metrics and
    (logic, proof, tree size) triples for later probes."""
    from wmodal import prover, sequents, syntax
    from wmodal.logics import get_logic
    reqs = []
    strata = [("axiom", lg, rng.choice(sorted(gen.SCHEMAS)))
              for lg in gen.LOGICS for _ in range(3)]
    strata += [("boxseq", lg, None) for lg in gen.LOGICS for _ in range(2)]
    for i, stratum in enumerate(strata):
        r = gen.query_request(rng, i, *stratum)
        logic = get_logic(r["logic"])
        if r["kind"] == "axiom":
            seq = prover.goal(logic, syntax.parse(r["text"]))
        else:
            seq = sequents.parse_sequent(r["text"], logic.mode)
        reqs.append((logic, seq))
    for name, text in DEFECT_SEQUENTS:
        logic = get_logic(name)
        reqs.append((logic, sequents.parse_sequent(text, logic.mode)))
    prove_s, check_s = [], []
    over = nodes_dag = nodes_tree = 0
    harvested = []
    for logic, seq in reqs:
        prover.clear_caches()
        t0 = perf()
        try:
            res = capped(worker.CHECK_CAP_S, T, "prover.prove", prover.prove,
                         logic, seq)
        except OverCap:
            res = None
        prove_s.append(perf() - t0)
        if res is None or not res.proved:
            continue
        dn, tn = dag_tree(res.derivation)
        nodes_dag += dn
        nodes_tree += tn
        t0 = perf()
        try:
            capped(PROBE_CAP_S, T, "prover.check", prover.check, logic,
                   res.derivation)
            check_s.append(perf() - t0)
            harvested.append((logic, res.derivation, tn))
        except OverCap:
            over += 1
            check_s.append(PROBE_CAP_S)
    return {"prover.prove_ms": 1e3 * statistics.median(prove_s),
            "prover.check_ms": 1e3 * statistics.median(check_s),
            "prover.check_over_cap": over,
            "prover.proof_dag_nodes": nodes_dag,
            "prover.proof_tree_nodes": nodes_tree}, harvested


def probe_sequents_calculus(harvested, T):
    from wmodal import calculus, prover
    from wmodal.sequents import Sequent
    seqs = {}
    for logic, d, _ in harvested:
        stack = [d]
        while stack:
            node = stack.pop()
            key = (logic.name, node.conclusion)
            if key not in seqs:
                seqs[key] = logic
                stack.extend(node.children)
    pairs = [(lg, s) for (_, s), lg in seqs.items()][:3000]
    raw = [(s.ant[::-1], s.suc, s.mode) for _, s in pairs]
    norm_s, _ = per_call(T, "sequents.normalized", Sequent.normalized,
                         [(Sequent(*r),) for r in raw])
    hash_s, _ = per_call(T, "sequents.hash", hash, [(Sequent(*r),) for r in raw])
    match_s, inst = per_call(T, "calculus.backward_applications",
                             calculus.backward_applications, pairs)
    small = [(lg, d) for lg, d, tn in harvested if tn <= 20000]
    steps = sum(dag_tree(d)[1] for _, d in small)
    t0 = perf()
    for lg, d in small:
        T("prover.check", prover.check, lg, d)
    check_s = perf() - t0
    return {"sequents.normalize_us": 1e6 * norm_s,
            "sequents.hash_us": 1e6 * hash_s,
            "calculus.match_us": 1e6 * match_s,
            "calculus.instances_per_seq": sum(map(len, inst)) / max(1, len(inst)),
            "calculus.check_step_us": 1e6 * check_s / max(1, steps)}


def probe_prover_sweep(rng, T):
    """A cold, then a warm decide pass over a seeded slice of the sweep
    space, smallest first, in all 28 logics."""
    from wmodal import prover, syntax
    from wmodal.logics import get_logic
    space = [t for cls in gen.space_by_size(6, 2) for t in cls]
    picked = sorted(rng.sample(range(len(space)), 300))
    fs = [syntax.parse(space[i]) for i in picked]
    logics = [get_logic(n) for n in gen.LOGICS]
    prover.clear_caches()
    nodes = blocks = 0
    t0 = perf()
    for lg in logics:
        for f in fs:
            st = T("prover.prove", prover.prove, lg, prover.goal(lg, f)).stats
            nodes += st.nodes
            blocks += st.loop_blocks
    cold = perf() - t0
    proved = sum(len(prover.engine_for(lg).proved) for lg in logics)
    failed = sum(len(prover.engine_for(lg).failed) for lg in logics)
    t0 = perf()
    for lg in logics:
        for f in fs:
            T("prover.decide", prover.decide, lg, f)
    warm = perf() - t0
    prover.clear_caches()
    return {"prover.nodes": nodes, "prover.loop_blocks": blocks,
            "prover.nodes_per_s": nodes / cold,
            "prover.cache_proved": proved, "prover.cache_failed": failed,
            "prover.warm_decide_us": 1e6 * warm / (len(fs) * len(logics))}


def probe_interpolation(rng, T):
    from wmodal import interpolation, prover, syntax
    from wmodal.logics import get_logic
    from wmodal.sequents import CONSTRUCTIVE, Sequent
    craig_s = prove_s = 0.0
    times, dag, tree = [], 0, 0
    for i in range(80):
        logic = get_logic(rng.choice(gen.W_LOGICS))
        a, b = (syntax.parse(t) for t in gen.craig_request(rng, logic.name))
        prover.clear_caches()
        t0 = perf()
        T("prover.prove", prover.prove, logic, Sequent((a,), (b,), CONSTRUCTIVE))
        prove_s += perf() - t0
        prover.clear_caches()
        t0 = perf()
        try:
            res = capped(worker.CHECK_CAP_S, T, "interpolation.craig",
                         interpolation.craig, logic, a, b)
        except OverCap:
            res = None
        dt = perf() - t0
        craig_s += dt
        times.append(dt)
        if res is not None:
            dag += len(syntax.subformulas(res.interpolant))
            tree += res.interpolant.size
    name, a, b = DEFECT_CRAIG
    prover.clear_caches()
    over = 0
    try:
        capped(PROBE_CAP_S, T, "interpolation.craig", interpolation.craig,
               get_logic(name), syntax.parse(a), syntax.parse(b),
               prover.Budget(timeout_secs=PROBE_CAP_S))
    except OverCap:
        over = 1
    return {"interpolation.craig_ms": 1e3 * statistics.median(times),
            "interpolation.certificate_share": (craig_s - prove_s) / craig_s,
            "interpolation.interpolant_dag_nodes": dag,
            "interpolation.interpolant_tree_size": tree,
            "interpolation.craig_over_cap": over}


def probe_semantics(rng, T):
    from wmodal import semantics, syntax
    from wmodal.logics import get_logic
    space2 = [t for cls in gen.space_by_size(5, 2) for t in cls]
    space1 = [t for cls in gen.space_by_size(3, 1) for t in cls]
    out = {}
    found, none = [], 0
    for worlds, space, count in ((2, space2, 150), (3, space1, 30)):
        for mode, names in (("classical", gen.CLASSICAL_BASES),
                            ("constructive", gen.W_LOGICS)):
            times = []
            for _ in range(count):
                logic = get_logic(rng.choice(names))
                f = syntax.parse(rng.choice(space))
                t0 = perf()
                hit = T("semantics.enumerate_countermodel",
                        semantics.enumerate_countermodel, logic, f, worlds)
                times.append(perf() - t0)
                if hit is None:
                    none += 1
                else:
                    found.append((logic, f, hit))
            out["semantics.enumerate_ms.w%d.%s" % (worlds, mode)] = \
                1e3 * statistics.median(times)
    out["semantics.exhaustive_share"] = none / (none + len(found))
    # One full 3-world enumeration: a constructive theorem has no
    # countermodel, so every model of the class is visited.
    t0 = perf()
    T("semantics.enumerate_countermodel", semantics.enumerate_countermodel,
      get_logic("WKD"), syntax.parse("([]p1 -> []p1)"), 3)
    out["semantics.enumerate_ms.w3.theorem"] = 1e3 * (perf() - t0)
    t0 = perf()
    for logic, f, (model, world) in found:
        T("semantics.check_conditions", semantics.check_conditions, model, logic)
        T("semantics.forces", semantics.forces, model, world, f)
    out["semantics.witness_check_us"] = 1e6 * (perf() - t0) / max(1, len(found))
    models = [semantics.random_model(get_logic(rng.choice(gen.LOGICS)), 3,
                                     rng.randrange(1 << 30)) for _ in range(40)]
    fs = [syntax.parse(gen.random_formula(rng, rng.randint(3, 9), 3))
          for _ in range(25)]
    t0 = perf()
    for model in models:
        for f in fs:
            T("semantics.extension", semantics.extension, model, f)
    out["semantics.extension_us"] = 1e6 * (perf() - t0) / (len(models) * len(fs))
    return out


def probe_cli(rng, T, workdir):
    from wmodal import cli
    env = worker.cli_env()

    def launch(code):
        t0 = perf()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return perf() - t0
    bare = statistics.median(T("bench.python", launch, "pass") for _ in range(5))
    imp = statistics.median(T("cli.import", launch, "import wmodal.cli")
                            for _ in range(5))
    cmds = [c for c in gen.oneshot_inputs(rng.randrange(1 << 30), 2)["commands"]
            if c["command"] in ("decide", "prove", "interpolate")][:20]
    times = []
    for c in cmds:
        argv = worker._cli_argv(c, workdir)
        buf = io.StringIO()
        t0 = perf()
        try:
            with redirect_stdout(buf):
                capped(PROBE_CAP_S * 10, T, "cli.main", cli.main, argv)
        except OverCap:
            pass
        times.append(perf() - t0)
    return {"cli.import_ms": 1e3 * (imp - bare),
            "cli.main_ms": 1e3 * statistics.median(times)}
