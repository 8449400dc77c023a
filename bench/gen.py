"""Seeded input generator for the benchmark.

Everything here is plain text and stdlib: the generator never imports
wmodal (in particular not `wmodal.sampling`), so a change to the program
cannot change the workloads.  The same seed always gives the same inputs.

Formulas are written fully parenthesised over the primitive connectives
`&`, `|`, `->`, `[]`, `<>`, atoms `p<i>` and `bot`, so that every text
parses to one distinct formula.
"""

from __future__ import annotations

import random

CLASSICAL_BASES = ["M", "MN", "MC", "K", "MP", "MNP", "MD",
                   "MND", "MCD", "KD", "MT", "MNT", "MCT", "KT"]
LOGICS = [n for b in CLASSICAL_BASES for n in (b, "W" + b)]
W_LOGICS = ["W" + b for b in CLASSICAL_BASES]

# Feature letters of each lattice point: n, c, d, p, t strength.
FEATURES = {
    "M": "", "MN": "n", "MC": "c", "K": "cn",
    "MP": "p", "MNP": "np", "MD": "dp", "MND": "ndp",
    "MCD": "cdp", "KD": "cndp", "MT": "t", "MNT": "nt",
    "MCT": "ct", "KT": "cnt",
}

# Inclusion edges of the 14-point lattice (theorems of src are theorems
# of dst), shared by both families.
LATTICE_EDGES = [
    ("M", "MN"), ("M", "MC"), ("MN", "K"), ("MC", "K"),
    ("M", "MP"), ("MP", "MNP"), ("MN", "MNP"),
    ("MP", "MD"), ("MNP", "MND"), ("MD", "MND"),
    ("MD", "MCD"), ("MND", "KD"), ("MCD", "KD"), ("K", "KD"),
    ("MD", "MT"), ("MND", "MNT"), ("MCD", "MCT"), ("KD", "KT"),
    ("MT", "MNT"), ("MT", "MCT"), ("MNT", "KT"), ("MCT", "KT"),
]

# Frame conditions required by each lattice point.  (D) implies (P), so
# "DP" and "D" describe the same class.
CONDITIONS = {
    "M": "", "MN": "N", "MC": "C", "K": "CN",
    "MP": "P", "MNP": "NP", "MD": "DP", "MND": "ND",
    "MCD": "CDP", "KD": "CND", "MT": "T", "MNT": "NT",
    "MCT": "CT", "KT": "CNT",
}


def base_of(logic: str) -> str:
    return logic[1:] if logic.startswith("W") else logic


def conditions_of(logic: str) -> str:
    return CONDITIONS[base_of(logic)]


# Axiom schemata as text templates over A and B.
SCHEMAS = {
    "K_box": "([](A -> B) -> ([]A -> []B))",
    "K_dia": "([](A -> B) -> (<>A -> <>B))",
    "C_box": "(([]A & []B) -> [](A & B))",
    "C_dia": "(<>(A | B) -> (<>A | <>B))",
    "N_box": "[](bot -> bot)",
    "N_dia": "(<>bot -> bot)",
    "T_box": "([]A -> A)",
    "T_dia": "(A -> <>A)",
    "D": "([]A -> <>A)",
    "P_box": "([]bot -> bot)",
    "P_dia": "<>(bot -> bot)",
    "dual_and": "(([]A & <>(A -> bot)) -> bot)",
    "dual_or": "([]A | <>(A -> bot))",
}


def schema_valid(logic: str, schema: str) -> bool:
    """Whether every instance of schema is a theorem of logic.

    This is the axiom matrix of the source paper, written out
    independently of `wmodal.logics`.
    """
    f = FEATURES[base_of(logic)]
    constructive = logic.startswith("W")
    table = {
        "dual_and": True,
        "dual_or": not constructive,
        "K_box": "c" in f, "K_dia": "c" in f,
        "C_box": "c" in f, "C_dia": "c" in f and not constructive,
        "N_box": "n" in f, "N_dia": "n" in f,
        "T_box": "t" in f, "T_dia": "t" in f,
        "D": "d" in f or "t" in f,
        "P_box": "p" in f or "d" in f or "t" in f,
        "P_dia": "p" in f or "d" in f or "t" in f,
    }
    return table[schema]


def subst(template: str, a: str, b: str) -> str:
    return template.replace("A", a).replace("B", b)


# ---------------------------------------------------------------------------
# Formulas

def leaves(num_atoms: int):
    return ["p%d" % i for i in range(1, num_atoms + 1)] + ["bot"]


def space_by_size(max_size: int, num_atoms: int):
    """Every formula text with at most max_size nodes, grouped by size."""
    by_size = {1: leaves(num_atoms)}
    for s in range(2, max_size + 1):
        out = []
        for f in by_size[s - 1]:
            out.append("[]" + f)
            out.append("<>" + f)
        for ls in range(1, s - 1):
            for a in by_size[ls]:
                for b in by_size[s - 1 - ls]:
                    out.append("(%s & %s)" % (a, b))
                    out.append("(%s | %s)" % (a, b))
                    out.append("(%s -> %s)" % (a, b))
        by_size[s] = out
    return [by_size[s] for s in range(1, max_size + 1)]


def random_formula(rng: random.Random, size: int, num_atoms: int) -> str:
    """A random formula text with exactly size nodes."""
    if size <= 1:
        return rng.choice(leaves(num_atoms))
    if size == 2 or rng.random() < 0.35:
        op = rng.choice(("[]", "<>"))
        return op + random_formula(rng, size - 1, num_atoms)
    ls = rng.randint(1, size - 2)
    a = random_formula(rng, ls, num_atoms)
    b = random_formula(rng, size - 1 - ls, num_atoms)
    return "(%s %s %s)" % (a, rng.choice(("&", "|", "->")), b)


# ---------------------------------------------------------------------------
# Workload inputs

def sweep_inputs(seed: int, max_size: int = 6, num_atoms: int = 2):
    """The whole size <= max_size space, smallest first, each size class
    shuffled by seed; and a seeded order of the 28 logics."""
    rng = random.Random(seed)
    texts = []
    for cls in space_by_size(max_size, num_atoms):
        cls = list(cls)
        rng.shuffle(cls)
        texts.extend(cls)
    logics = list(LOGICS)
    rng.shuffle(logics)
    return {"formulas": texts, "logics": logics}


# Theorem templates A -> B for the constructive logics; the feature a
# template needs is given with it ("" = every W-logic).
CRAIG_TEMPLATES = [
    ("", "(A & B)", "(A | C)"),
    ("", "(A & (A -> B))", "(B | C)"),
    ("", "[](A & B)", "[]A"),
    ("", "<>(A & B)", "<>(A | C)"),
    ("", "([]A & <>(A -> bot))", "bot"),
    ("", "([](A & C) & <>B)", "[](A | B)"),
    ("c", "([]A & []B)", "[](A & B)"),
    ("c", "[](A -> B)", "([]A -> []B)"),
    ("c", "([](A -> B) & <>A)", "<>B"),
    ("n", "<>bot", "bot"),
    ("t", "[]A", "A"),
    ("t", "A", "<>A"),
    ("d", "[]A", "<>A"),
]


def craig_request(rng, logic):
    """(A, B) texts of a theorem A -> B of the W-logic."""
    f = FEATURES[base_of(logic)]
    usable = [t for t in CRAIG_TEMPLATES
              if not t[0] or t[0] in f or (t[0] == "d" and "t" in f)]
    _, ta, tb = rng.choice(usable)
    fills = {v: random_formula(rng, rng.randint(1, 3), 3) for v in "ABC"}

    def fill(t):
        return "".join(fills.get(ch, ch) if ch in "ABC" else ch for ch in t)
    return fill(ta), fill(tb)


def query_request(rng: random.Random, i: int, kind: str, logic: str,
                  schema: str = None) -> dict:
    """One request of the `queries` mix."""
    if kind == "axiom":
        a = random_formula(rng, rng.randint(3, 7), 3)
        b = random_formula(rng, rng.randint(3, 7), 3)
        return {"id": i, "kind": "axiom", "logic": logic, "schema": schema,
                "text": subst(SCHEMAS[schema], a, b),
                "expect": True if schema_valid(logic, schema) else None}
    if kind == "boxseq":
        ant = ["[]" + random_formula(rng, rng.randint(1, 3), 3)
               for _ in range(rng.randint(3, 7))]
        ant.append("<>" + random_formula(rng, rng.randint(1, 3), 3))
        rng.shuffle(ant)
        suc = rng.choice(("[]", "<>")) + random_formula(rng, rng.randint(1, 3), 3)
        return {"id": i, "kind": "boxseq", "logic": logic,
                "text": "%s |- %s" % (", ".join(ant), suc), "expect": None}
    a, b = craig_request(rng, logic)
    return {"id": i, "kind": "craig", "logic": logic, "a": a, "b": b,
            "expect": True}


def query_strata():
    """One block of the mix: every (logic, schema) pair once (a), ten box
    sequents per logic (b) and twelve interpolation requests per W-logic
    (c), which is 45% / 34% / 21%."""
    strata = []
    for logic in LOGICS:
        strata += [("axiom", logic, s) for s in sorted(SCHEMAS)]
        strata += [("boxseq", logic, None)] * 10
    strata += [("craig", logic, None) for logic in W_LOGICS for _ in range(12)]
    return strata


def queries_inputs(seed: int, blocks: int = 8):
    """Blocks of the stratified mix, each block in a seeded order, so the
    share of every stratum is the same in every run whatever the seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        strata = query_strata()
        rng.shuffle(strata)
        for s in strata:
            out.append(query_request(rng, len(out), *s))
    return {"requests": out}


def random_model_doc(rng: random.Random, logic: str, num_atoms: int = 3):
    """A random model of logic's class as a `check-model` JSON document.

    (N), (T) and (C) are repaired; a draw violating (D) or (P) is redrawn.
    """
    conds = conditions_of(logic)
    constructive = logic.startswith("W")
    while True:
        n = rng.randint(1, 3)
        full = (1 << n) - 1
        succ = [1 << w for w in range(n)]
        if constructive:
            for w in range(n):
                for v in range(n):
                    if rng.random() < 0.3:
                        succ[w] |= 1 << v
            for _ in range(n):          # transitive closure
                for w in range(n):
                    for v in range(n):
                        if succ[w] >> v & 1:
                            succ[w] |= succ[v]
        neigh = []
        for w in range(n):
            fam = {rng.randint(0, full) for _ in range(rng.randint(0, 3))}
            if "N" in conds and not fam:
                fam = {1 << rng.randrange(n)}
            if "T" in conds:
                fam = {a | 1 << w for a in fam}
            if "C" in conds:
                while True:
                    extra = {a & b for a in fam for b in fam} - fam
                    if not extra:
                        break
                    fam |= extra
            neigh.append(sorted(fam))
        if "P" in conds and any(0 in fam for fam in neigh):
            continue
        if "D" in conds and any(not a & b for fam in neigh
                                for a in fam for b in fam):
            continue
        break
    bits = lambda m: [w for w in range(n) if m >> w & 1]  # noqa: E731
    val = {}
    for a in range(1, num_atoms + 1):
        m = rng.randint(0, full)
        if constructive:
            for w in bits(m):
                m |= succ[w]
        val["p%d" % a] = bits(m)
    doc = {"version": 1, "kind": "constructive" if constructive else "classical",
           "worlds": list(range(n)),
           "neighbourhoods": {str(w): [bits(a) for a in neigh[w]]
                              for w in range(n)},
           "valuation": val}
    if constructive:
        doc["order"] = [[w, v] for w in range(n) for v in bits(succ[w])]
    return doc


def countermodel_inputs(seed: int, max_size: int = 5, light3: int = 60):
    """Countermodel searches.

    - `heavy3`: a fixed 1-atom constructive theorem of WK searched with 3
      worlds.  It admits no countermodel, so it forces the full
      enumeration; it is the same in every run so that its share of the
      run does not depend on the seed;
    - `light3`: seeded 1-atom formulas of size <= 3 with 3 worlds;
    - `stream`: every (logic, formula) pair of the size <= max_size, 2-atom
      space (`formulas`, by index) with at most 2 worlds, in seeded order.
      A sample of the space would change the mix, and with it the
      searches per second, from seed to seed.
    """
    rng = random.Random(seed)
    space2 = [t for cls in space_by_size(max_size, 2) for t in cls]
    space1 = [t for cls in space_by_size(3, 1) for t in cls]
    stream = [(logic, i) for logic in LOGICS for i in range(len(space2))]
    rng.shuffle(stream)
    light = [(rng.choice(LOGICS), rng.choice(space1)) for _ in range(light3)]
    return {"formulas": space2, "stream": stream, "light3": light,
            "heavy3": HEAVY3}


# A constructive theorem whose 3-world enumeration takes about 2 s on a
# 2-core x86 box with Python 3.11, about a sixth of the searching time of
# a run; a seeded choice of such searches would move `ops_per_s`.
HEAVY3 = [("WK", "(<>p1 -> <>p1)")]


# One block of `oneshot` calls: the command of each call and the kind of
# `queries` request it is drawn from, 20% / 35% / 45% as in that mix.  The
# mix of commands, which sets the tail, is the same in every run whatever
# the seed.
ONESHOT_BLOCK = ([("interpolate", "craig")] * 4 + [("prove", "boxseq")] * 7
                 + [("decide", "axiom")] * 3 + [("prove", "axiom")] * 2
                 + [("countermodel", "axiom")] * 2
                 + [("check-model", "axiom")] * 2)


def oneshot_inputs(seed: int, blocks: int = 5):
    """CLI invocations drawn from the `queries` generator: box sequents go
    to `prove`, interpolation requests to `interpolate`, and axiom
    instances to `decide`, `prove`, `countermodel --max-worlds 2` or
    `check-model` against a random model of the logic's class.  Text and
    structured output alternate; `countermodel` is always structured."""
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        block = list(ONESHOT_BLOCK)
        rng.shuffle(block)
        for j, (cmd, kind) in enumerate(block):
            i = len(out)
            if kind == "craig":
                r = query_request(rng, i, kind, rng.choice(W_LOGICS))
            else:
                r = query_request(rng, i, kind, rng.choice(LOGICS),
                                  rng.choice(sorted(SCHEMAS)))
            fmt = "structured" if cmd == "countermodel" or (b + j) % 2 else "text"
            entry = {"id": i, "command": cmd, "format": fmt, "request": r}
            if cmd == "check-model":
                entry["model"] = random_model_doc(rng, r["logic"])
            out.append(entry)
    return {"commands": out}


def inputs(workload: str, seed: int):
    return {"sweep": sweep_inputs, "queries": queries_inputs,
            "countermodel": countermodel_inputs,
            "oneshot": oneshot_inputs}[workload](seed)
