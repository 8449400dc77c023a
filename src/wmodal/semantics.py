"""Finite neighbourhood models, classical and constructive.

Worlds are 0..n-1; sets of worlds are bitmasks.  A constructive model
has a preorder, given as the successor mask of each world, a family of
neighbourhoods per world and a hereditary valuation.  A classical model
is the constructive model on the discrete order, where each world is its
own only successor.  So one evaluator, `_run`, serves both: the clauses
for implication, box and diamond are read locally and then cut down to
the worlds all of whose successors satisfy them, which on the discrete
order changes nothing.  Each frame condition is stated once, in
`_violation`, for checking models and for generating them.

Countermodel enumeration ranges over neighbourhood families that are
antichains under inclusion (closed under intersection when the logic
requires (C)).  Forcing only depends on the inclusion-minimal
neighbourhoods, so this is exhaustive up to forcing equivalence while
keeping the n=3 search space tractable.

The enumeration evaluates many neighbourhood choices at once.  Under a
fixed preorder and valuation, one int holds a set of worlds for every
choice, choice c's (its lane) at bits c*n ... c*n+n-1.  Conjunction,
disjunction and bot are then plain bit operations, `_lane_up` is up in
every lane by shifts and masks, and `_lane_local` reads box and diamond
locally in every lane from, for each neighbourhood a, the lane mask of
the worlds whose family holds a.  `_run` is still the only place with
forcing clauses: it runs over one lane for `extension` and over many for
the enumeration.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .logics import Logic
from .prover import Budget, BudgetExceeded
from .sequents import CLASSICAL, CONSTRUCTIVE
from .syntax import AND, ATOM, BOT, BOX, DIA, IMP, OR, Formula, subformulas

CONDITION_NAMES = ("C", "N", "D", "T", "P")

# Enumeration stops here: at five worlds there are 7,581 antichain
# families per world and 2^20 candidate orders, at six 7.8 million
# families.
MAX_WORLDS = 4


def _bits(mask: int) -> List[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


def _mask(worlds: Iterable[int]) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


def _discrete(n: int) -> Tuple[int, ...]:
    """The discrete order on 0..n-1: each world is its only successor."""
    return tuple(1 << w for w in range(n))


def _intransitive(succ) -> Optional[Tuple[int, int]]:
    """A pair w <= v where v has a successor that w lacks, or None."""
    for w, s in enumerate(succ):
        for v in _bits(s):
            if succ[v] & ~s:
                return w, v
    return None


@dataclass(frozen=True)
class NeighModel:
    """Classical neighbourhood model: a constructive one on the discrete
    order."""
    n: int
    neigh: Tuple[Tuple[int, ...], ...]   # per world: sorted neighbourhood masks
    val: Tuple[Tuple[int, int], ...]     # (atom index, extension mask), sorted

    kind = CLASSICAL

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @property
    def succ(self) -> Tuple[int, ...]:
        return _discrete(self.n)


@dataclass(frozen=True)
class ConstructiveNeighModel:
    """Constructive neighbourhood model: preorder + hereditary valuation."""
    n: int
    succ: Tuple[int, ...]                # succ[w] = mask of v with w <= v
    neigh: Tuple[Tuple[int, ...], ...]
    val: Tuple[Tuple[int, int], ...]

    kind = CONSTRUCTIVE

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def validate(self):
        for w in range(self.n):
            if not self.succ[w] & (1 << w):
                raise ValueError("order not reflexive at %d" % w)
        bad = _intransitive(self.succ)
        if bad is not None:
            raise ValueError("order not transitive at %d<=%d" % bad)
        for a, m in self.val:
            for w in _bits(m):
                if self.succ[w] & ~m:
                    raise ValueError("valuation of p%d not hereditary" % a)


# ---------------------------------------------------------------------------
# Forcing

def _up(succ, m: int) -> int:
    """Worlds all of whose successors lie in m."""
    return _mask(w for w, s in enumerate(succ) if not s & ~m)


def _lane_up(succ, one: int):
    """up for _run over lanes: the worlds of each lane all of whose
    successors lie in the argument's lane.  Each shift d moves the bit
    of world w + d onto world w in every lane at once; only the worlds
    that have w + d as a successor are kept from it."""
    full = (1 << len(succ)) - 1
    kept: Dict[int, int] = {}       # shift -> the worlds it serves
    for w, s in enumerate(succ):
        for v in _bits(s & ~(1 << w)):
            kept[v - w] = kept.get(v - w, 0) | 1 << w
    steps = [(d, (full ^ ws) * one) for d, ws in kept.items()]

    def up(m):
        out = m
        for d, rest in steps:
            out &= (m >> d if d > 0 else m << -d) | rest
        return out
    return up


def _lane_local(full: int, one: int, tests) -> dict:
    """local for _run over lanes: the worlds of each lane where a box (some
    neighbourhood of the world's family lies inside b) or a diamond (every
    one meets b) over a formula of extension b holds locally.  tests has,
    for each neighbourhood a that some family holds, a, a in every lane
    (a * one), a's worlds and the lane mask of the worlds whose family
    holds a; full is the set of all worlds of one lane."""
    every = full * one

    def box(b):
        out = 0
        b0 = b & full
        if b == b0 * one:           # the same set in every lane
            for a, _, _, m in tests:
                if not a & ~b0:
                    out |= m
            return out
        outside = ~b
        for _, a, bits, m in tests:
            miss = a & outside      # a's worlds that b lacks, in each lane
            fold = 0
            for j in bits:
                fold |= miss >> j   # lane c's bit j onto its bit 0
            out |= m & ~((fold & one) * full)
        return out

    def dia(b):
        # every neighbourhood meets b: none lies inside b's complement
        return every ^ box(every ^ b)
    return {BOX: box, DIA: dia}


# Holds, for instance, all 1,416 formulas of size <= 5 over two atoms; a
# thousand programs of that size take about 0.5 MB.
@lru_cache(maxsize=4096)
def _program(f: Formula):
    """Compile f into instructions over a list of extensions, one slot
    per subformula: the atoms first, by index, then the other subformulas
    in complexity order, so that children come before parents and f comes
    last.  Returns the atoms' indices and the instructions (slot, kind,
    left slot, right slot), split into those whose extension does not
    depend on the neighbourhoods and those whose extension does; each
    part is in slot order, and the first never reads the second."""
    order = sorted(subformulas(f),
                   key=lambda g: (g.kind != ATOM, g.complexity, g.index))
    slot = {g: i for i, g in enumerate(order)}
    atoms = tuple(g.index for g in order if g.kind == ATOM)
    static, dynamic, modal = [], [], set()
    for g in order[len(atoms):]:
        i, l, r = slot[g], slot.get(g.left), slot.get(g.right)
        if g.kind in (BOX, DIA) or l in modal or r in modal:
            modal.add(i)
            dynamic.append((i, g.kind, l, r))
        else:
            static.append((i, g.kind, l, r))
    return atoms, tuple(static), tuple(dynamic)


def _run(program, ext: list, full: int, up, local) -> list:
    """Fill in ext, whose first slots hold the atoms' extensions, along
    program.

    These are the only forcing clauses.  up(m) is the set of worlds all
    of whose successors lie in m, and local[kind](b) the set of worlds
    where a box or diamond over a formula of extension b holds locally;
    full is the set of all worlds.  Over lanes, each set holds one set of
    worlds per lane and the clauses apply to every lane at once.
    """
    for i, k, l, r in program:
        if k == AND:
            ext[i] = ext[l] & ext[r]
        elif k == OR:
            ext[i] = ext[l] | ext[r]
        elif k == IMP:
            ext[i] = up(full & ~(ext[l] & ~ext[r]))
        elif k == BOT:
            ext[i] = 0
        else:
            ext[i] = up(local[k](ext[l]))
    return ext


def extension(model, f: Formula) -> int:
    """Mask of worlds forcing f: _run over a single lane."""
    atoms, static, dynamic = _program(f)
    val = dict(model.val)
    ext = [val.get(a, 0) for a in atoms] + [0] * (len(static) + len(dynamic))
    mem: Dict[int, int] = {}
    for w, fam in enumerate(model.neigh):
        for a in fam:
            mem[a] = mem.get(a, 0) | 1 << w
    tests = [(a, a, _bits(a), m) for a, m in mem.items()]
    return _run(static + dynamic, ext, model.full, _lane_up(model.succ, 1),
                _lane_local(model.full, 1, tests))[-1]


def forces(model, world: int, f: Formula) -> bool:
    if not 0 <= world < model.n:
        raise ValueError("world %d not in model" % world)
    return bool(extension(model, f) & (1 << world))


def valid_in_model(model, f: Formula) -> bool:
    return extension(model, f) == model.full


# ---------------------------------------------------------------------------
# Conditions

@dataclass
class ConditionReport:
    required: Tuple[str, ...]
    status: Dict[str, bool]
    witnesses: Dict[str, tuple]

    @property
    def ok(self) -> bool:
        return all(self.status.values())


def _violation(cond: str, w: int, fam) -> Optional[tuple]:
    """A witness that the family fam of world w breaks cond, or None."""
    if cond == "N":
        return None if fam else (w,)
    if cond == "P":
        return (w, 0) if 0 in fam else None
    if cond == "T":
        return next(((w, a) for a in fam if not a & (1 << w)), None)
    if cond == "C":
        return next(((w, a, b) for a in fam for b in fam
                     if (a & b) not in fam), None)
    if cond == "D":
        return next(((w, a, b) for a in fam for b in fam if not a & b), None)
    raise ValueError("unknown condition %r" % cond)


def _check_condition(model, cond: str):
    """Returns (holds, witness or None)."""
    for w, fam in enumerate(model.neigh):
        wit = _violation(cond, w, fam)
        if wit is not None:
            return False, wit
    return True, None


def check_conditions(model, logic: Logic) -> ConditionReport:
    required = tuple(c for c in CONDITION_NAMES if c in logic.conditions)
    status, witnesses = {}, {}
    for c in required:
        ok, wit = _check_condition(model, c)
        status[c] = ok
        if wit is not None:
            witnesses[c] = wit
    return ConditionReport(required, status, witnesses)


def conditions_hold(model, conds: Iterable[str]) -> bool:
    return all(_check_condition(model, c)[0] for c in conds)


# ---------------------------------------------------------------------------
# Random models

class ResamplingExhausted(RuntimeError):
    pass


_RANDOM_MODEL_TRIES = 500


def random_model(logic: Logic, max_worlds: int, seed: int):
    """Random model of logic's class over p1, p2, p3: repair (N)/(T)/(C),
    resample on (D)/(P) up to _RANDOM_MODEL_TRIES times."""
    rng = random.Random(seed)
    conds = logic.conditions
    for _ in range(_RANDOM_MODEL_TRIES):
        n = rng.randint(1, max_worlds)
        full = (1 << n) - 1
        succ = list(_discrete(n))
        if logic.mode == CONSTRUCTIVE:
            base = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
            succ = [ (1 << w) | _mask(v for v in range(n) if base[w][v])
                     for w in range(n) ]
            # transitive closure
            while (bad := _intransitive(succ)) is not None:
                w, v = bad
                succ[w] |= succ[v]
        neigh = []
        for w in range(n):
            k = rng.randint(0, 3)
            fam = {rng.randint(0, full) for _ in range(k)}
            if "N" in conds and not fam:
                fam = {1 << rng.randint(0, n - 1)}
            if "T" in conds:
                fam = {a | (1 << w) for a in fam}
            if "C" in conds:
                fam = set(_close_intersection(fam))
            neigh.append(tuple(sorted(fam)))
        val = []
        for a in (1, 2, 3):
            m = rng.randint(0, full)
            # upward closure keeps the valuation hereditary
            for w in _bits(m):
                m |= succ[w]
            val.append((a, m))
        model = _assemble(logic, n, tuple(succ), tuple(neigh), tuple(val))
        if conditions_hold(model, conds):
            return model
    raise ResamplingExhausted("no %s-model found in %d tries"
                              % (logic.name, _RANDOM_MODEL_TRIES))


# ---------------------------------------------------------------------------
# Exhaustive countermodel search

@cache
def _antichains(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All inclusion-antichains of subsets of 0..n-1, in bitmask order."""
    out = [()]
    for m in range(1 << n):
        # each member a is a smaller mask than m, so only a inside m can
        # make the two comparable
        out += [fam + (m,) for fam in out if all(a & m != a for a in fam)]
    return tuple(sorted(out, key=lambda fam: sum(1 << a for a in fam)))


def _close_intersection(fam) -> Tuple[int, ...]:
    out = set(fam)
    while True:
        extra = {a & b for a in out for b in out} - out
        if not extra:
            return tuple(sorted(out))
        out |= extra


@cache
def _families(n: int, conds, w: int) -> Tuple[Tuple[int, ...], ...]:
    """Candidate neighbourhood families for world w under conds."""
    fams = (_close_intersection(a) if "C" in conds else a
            for a in _antichains(n))
    # closure can identify distinct antichains' families
    return tuple(dict.fromkeys(
        fam for fam in fams
        if all(_violation(c, w, fam) is None for c in conds)))


@cache
def _preorders(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All preorders on 0..n-1 as successor-mask tuples."""
    pairs = [(w, v) for w in range(n) for v in range(n) if w != v]
    out = []
    for bits in range(1 << len(pairs)):
        succ = list(_discrete(n))
        for i, (w, v) in enumerate(pairs):
            if bits >> i & 1:
                succ[w] |= 1 << v
        if _intransitive(succ) is None:
            out.append(tuple(succ))
    return tuple(out)


@cache
def _up_table(succ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """up as a table over every set of worlds, and the up-sets: the sets
    a hereditary valuation may give an atom."""
    up = tuple(_up(succ, m) for m in range(1 << len(succ)))
    return up, tuple(m for m, u in enumerate(up) if u == m)


class _Slices:
    """The neighbourhood choices over n worlds, cut into slices that one
    run of _run covers, one choice per lane.  A slice is every choice for
    the worlds from k on, in product order, under one choice for the
    worlds before k (its prefix).  Without modal slots the neighbourhoods
    do not matter, and the first choice stands for them all."""

    def __init__(self, n: int, conds, modal: bool):
        fams = [_families(n, conds, w) for w in range(n)]
        if modal:
            k = max(n - 2, 0)       # the last two worlds: 168^2 lanes at 4
        else:
            k, fams = 0, [fs[:1] for fs in fams]
        self.full = (1 << n) - 1
        self.prefixes = tuple(itertools.product(*fams[:k]))
        self.choices = tuple(itertools.product(*fams[k:]))
        self.one = ((1 << n * len(self.choices)) - 1) // self.full
        # per neighbourhood a: a's worlds, a in every lane, a's members
        self.spread = [(a, a * self.one, _bits(a))
                       for a in range(self.full + 1)]
        lanes: Dict[int, List[int]] = defaultdict(
            lambda: [0] * len(self.choices))
        for c, choice in enumerate(self.choices):
            for w, fam in enumerate(choice, k):
                for a in fam:
                    lanes[a][c] |= 1 << w
        # per neighbourhood a: the worlds from k on whose family holds a
        self.sliced = {a: _pack(v, n) for a, v in lanes.items()}
        self.fixed = None
        if not k:                   # one slice: its local never changes
            self.fixed = self.local(())

    def local(self, prefix) -> dict:
        """local for _run over the slice under prefix."""
        if self.fixed is not None:
            return self.fixed
        mem = dict(self.sliced)
        for w, fam in enumerate(prefix):
            for a in fam:
                mem[a] = mem.get(a, 0) | self.one << w
        return _lane_local(self.full, self.one,
                           [(*self.spread[a], m) for a, m in mem.items()])


# Kept below MAX_WORLDS worlds only: at 4 worlds a slicing holds about
# 4 MB and takes 0.1 s to build, little beside the 28,224 runs of _run
# that each valuation takes there.
_kept_slices = cache(_Slices)


def _slices(n: int, conds, modal: bool) -> _Slices:
    return (_kept_slices if n < MAX_WORLDS else _Slices)(n, conds, modal)


def _pack(values: List[int], n: int) -> int:
    """The int whose lane c (bits c*n ... c*n+n-1) holds values[c]."""
    digits = [format(v, "0%db" % n) for v in range(1 << n)]
    return int("".join(map(digits.__getitem__, reversed(values))), 2)


def enumerate_countermodel(logic: Logic, f: Formula, max_worlds: int = 3,
                           budget: Budget = Budget()):
    """First (model, world) refuting f among all models of logic's class
    with at most max_worlds worlds, up to forcing equivalence; else None.

    Models are tried by size, preorder, valuation and then neighbourhood
    choice in product order.  One run of _run covers a slice of the
    choices (see _Slices); the lowest bit of the worlds it refutes is the
    first refuting choice of the slice and its least world.

    Raises BudgetExceeded, counting each model tried as a node, when
    budget's time runs out or when the search would have to go past
    MAX_WORLDS worlds.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1, not %d" % max_worlds)
    start = time.monotonic()
    deadline = start + budget.timeout_secs
    tried = 0

    def exceeded(reason):
        return BudgetExceeded(reason, tried, time.monotonic() - start)

    atoms, static, dynamic = _program(f)
    rest = [0] * (len(static) + len(dynamic))   # the slots after the atoms
    for n in range(1, max_worlds + 1):
        if n > MAX_WORLDS:
            raise exceeded("more than %d worlds" % MAX_WORLDS)
        full = (1 << n) - 1
        sl = _slices(n, logic.conditions, bool(dynamic))
        one, every, lanes = sl.one, full * sl.one, len(sl.choices)
        orders = (_preorders(n) if logic.mode == CONSTRUCTIVE
                  else (_discrete(n),))
        for succ in orders:
            up, upsets = _up_table(succ)
            lane_up = _lane_up(succ, one)
            for vals in itertools.product(upsets, repeat=len(atoms)):
                ext = _run(static, [*vals, *rest], full, up.__getitem__, None)
                ext = [m * one for m in ext]
                for prefix in sl.prefixes:
                    if time.monotonic() > deadline:
                        raise exceeded("timeout")
                    m = _run(dynamic, ext, every, lane_up, sl.local(prefix))[-1]
                    if m != every:
                        bad = every & ~m
                        c, world = divmod((bad & -bad).bit_length() - 1, n)
                        model = _assemble(logic, n, succ,
                                          prefix + sl.choices[c],
                                          tuple(zip(atoms, vals)))
                        return model, world
                    tried += lanes
    return None


def _assemble(logic, n, succ, neigh, val):
    if logic.mode == CONSTRUCTIVE:
        return ConstructiveNeighModel(n, succ, neigh, val)
    return NeighModel(n, neigh, val)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents, bit-exact round-trip.

def model_to_json(model) -> str:
    doc = {
        "version": 1,
        "kind": model.kind,
        "worlds": list(range(model.n)),
        "neighbourhoods": {str(w): [_bits(a) for a in model.neigh[w]]
                           for w in range(model.n)},
        "valuation": {"p%d" % a: _bits(m) for a, m in model.val},
    }
    if model.kind == CONSTRUCTIVE:
        doc["order"] = [[w, v] for w in range(model.n)
                        for v in _bits(model.succ[w])]
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str):
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError("unsupported model document version")
    n = len(doc["worlds"])
    if sorted(doc["worlds"]) != list(range(n)) or n == 0:
        raise ValueError("worlds must be 0..n-1, nonempty")
    neigh = []
    for w in range(n):
        fams = doc["neighbourhoods"].get(str(w), [])
        masks = []
        for a in fams:
            m = _mask(a)
            if m > (1 << n) - 1 or any(x >= n or x < 0 for x in a):
                raise ValueError("neighbourhood out of range at world %d" % w)
            masks.append(m)
        neigh.append(tuple(sorted(set(masks))))
    val = []
    for key, ws in sorted(doc.get("valuation", {}).items()):
        if not key.startswith("p"):
            raise ValueError("bad atom key %r" % key)
        if any(x >= n or x < 0 for x in ws):
            raise ValueError("valuation out of range for %s" % key)
        val.append((int(key[1:]), _mask(ws)))
    if doc["kind"] == CONSTRUCTIVE:
        succ = [1 << w for w in range(n)]
        for w, v in doc.get("order", []):
            if not (0 <= w < n and 0 <= v < n):
                raise ValueError("order pair out of range")
            succ[w] |= 1 << v
        model = ConstructiveNeighModel(n, tuple(succ), tuple(neigh), tuple(val))
        model.validate()
        return model
    if doc["kind"] == CLASSICAL:
        return NeighModel(n, tuple(neigh), tuple(val))
    raise ValueError("unknown model kind %r" % doc["kind"])
