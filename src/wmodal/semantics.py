"""Finite neighbourhood models, classical and constructive.

Worlds are 0..n-1; sets of worlds are bitmasks.  A model has a preorder,
given as the successor mask of each world, a family of neighbourhoods
per world and a hereditary valuation.  There is one model type, `Model`,
for both kinds: a classical model is the constructive model on the
discrete order, where each world is its own only successor, and its
`kind` says which logics it serves.  So one evaluator, `_run`, serves
both: the clauses for implication, box and diamond are read locally and
then cut down to the worlds all of whose successors satisfy them, which
on the discrete order changes nothing.  Each frame condition is stated
once, in `_violation`, which checks models and, through `_families`,
picks the families that countermodel search and `random_model` use.

Countermodel enumeration ranges over neighbourhood families that are
antichains under inclusion (closed under intersection when the logic
requires (C)).  Forcing only depends on the inclusion-minimal
neighbourhoods, so this is exhaustive up to forcing equivalence while
keeping the n=3 search space tractable.

The enumeration evaluates many neighbourhood choices at once.  Under a
fixed preorder and valuation, one int holds a set of worlds for every
choice, choice c's (its lane) at bits c*n ... c*n+n-1.  Conjunction,
disjunction and bot are then plain bit operations, `_lane_up` is up in
every lane by shifts and masks (the builtin `(0).__or__` on an order
without proper successors, classical or of 1 world, where up is the
identity), and `_lane_local` reads box and diamond locally in every lane
from, for each neighbourhood a, the lane mask of the worlds whose family
holds a.  A formula compiles into one program that `_run` runs over one
lane for `extension` and over many for the enumeration, where on small
frames the lanes also hold a block per valuation of the last atoms.
A run covers a slice of the choices: every choice of the last worlds,
for the fewest other worlds that leave at most 8,000 choices, but of no
fewer than the last two worlds (see _Slices).

Each frame class (frame conditions and a world count) is set up once
for both kinds of model (a _Plan), and kept below 4 worlds, so a search
costs little beside its runs of `_run`, usually one per order.  Its
orders are `_preorders(n)`, the discrete order first: a constructive
search runs them all, and a classical search, being the constructive
one on the discrete order, runs the first alone.  An order is set up
when a search first reaches it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import time
from collections import defaultdict
from functools import cache, lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .logics import Logic
from .prover import DEFAULT_TIMEOUT_SECS, BudgetExceeded
from .sequents import CLASSICAL, CONSTRUCTIVE
from .syntax import AND, ATOM, BOT, BOX, DIA, IMP, OR, Formula, subformulas

CONDITION_NAMES = ("C", "N", "D", "T", "P")

# Enumeration stops here: at five worlds there are 7,581 antichain
# families per world and 2^20 candidate orders, at six 7.8 million
# families.
MAX_WORLDS = 4


def _bits(mask: int) -> List[int]:
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


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


class Model(NamedTuple):
    """Neighbourhood model; a classical one has the discrete order."""
    kind: str                            # CLASSICAL or CONSTRUCTIVE
    n: int
    succ: Tuple[int, ...]                # succ[w] = mask of v with w <= v
    neigh: Tuple[Tuple[int, ...], ...]   # per world: sorted neighbourhood masks
    val: Tuple[Tuple[int, int], ...]     # (atom index, extension mask), sorted

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def validate(self):
        """ValueError unless the order is a preorder, the discrete one in a
        classical model, and the valuation is hereditary."""
        for w in range(self.n):
            if not self.succ[w] & (1 << w):
                raise ValueError("order not reflexive at %d" % w)
        bad = _intransitive(self.succ)
        if bad is not None:
            raise ValueError("order not transitive at %d<=%d" % bad)
        if self.kind == CLASSICAL and self.succ != _discrete(self.n):
            raise ValueError("order of a classical model not discrete")
        for a, m in self.val:
            for w in _bits(m):
                if self.succ[w] & ~m:
                    raise ValueError("valuation of p%d not hereditary" % a)


# ---------------------------------------------------------------------------
# Forcing

def _lane_up(succ, one: int):
    """up for _run: the worlds of each lane all of whose successors lie
    in the argument's lane.  Each shift d moves the bit of world w + d
    onto world w in every lane at once; only the worlds that have w + d
    as a successor are kept from it."""
    full = (1 << len(succ)) - 1
    kept: Dict[int, int] = {}       # shift -> the worlds it serves
    for w, s in enumerate(succ):
        for v in _bits(s & ~(1 << w)):
            kept[v - w] = kept.get(v - w, 0) | 1 << w
    if not kept:  # up is the identity
        return (0).__or__
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


# Holds, for instance, all 8,532 formulas of size <= 6 over two atoms, so
# a pass over that space one logic at a time compiles each formula once;
# those programs and the cache's entries take about 5 MB (tracemalloc).
@lru_cache(maxsize=16384)
def _program(f: Formula):
    """Compile f into instructions over a list of extensions, one slot
    per subformula in `Formula.key` order: atoms first, by index, children
    before parents, f last.  Returns the atoms' indices, the instructions
    (slot, kind, left slot, right slot) in slot order, and whether f has
    a modal subformula."""
    order = sorted(subformulas(f), key=lambda g: g.key)
    slot = {g: i for i, g in enumerate(order)}
    atoms = tuple(g.index for g in order if g.kind == ATOM)
    program = tuple((slot[g], g.kind, slot.get(g.left), slot.get(g.right))
                    for g in order[len(atoms):])
    return atoms, program, any(k in (BOX, DIA) for _, k, _, _ in program)


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


def _holders(neigh, one: int, mem=()) -> dict:
    """Per neighbourhood, the lane mask of the worlds whose family holds
    it: those of mem, and worlds 0, 1, ... of each lane of one, whose
    families are neigh."""
    mem = dict(mem)
    for w, fam in enumerate(neigh):
        for a in fam:
            mem[a] = mem.get(a, 0) | one << w
    return mem


def extension(model, f: Formula) -> int:
    """Mask of worlds forcing f: _run over a single lane."""
    atoms, program, modal = _program(f)
    val = dict(model.val)
    ext = [val.get(a, 0) for a in atoms] + [0] * len(program)
    local = _lane_local(model.full, 1, [
        (a, a, _bits(a), m) for a, m in _holders(model.neigh, 1).items()
    ]) if modal else None
    return _run(program, ext, model.full, _lane_up(model.succ, 1), local)[-1]


def forces(model, world: int, f: Formula) -> bool:
    if not 0 <= world < model.n:
        raise ValueError("world %d not in model" % world)
    return bool(extension(model, f) & (1 << world))


def valid_in_model(model, f: Formula) -> bool:
    return extension(model, f) == model.full


# ---------------------------------------------------------------------------
# Conditions

class ConditionReport(NamedTuple):
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


def check_conditions(model, logic: Logic) -> ConditionReport:
    required = tuple(c for c in CONDITION_NAMES if c in logic.conditions)
    status, witnesses = {}, {}
    for c in required:
        for w, fam in enumerate(model.neigh):
            wit = _violation(c, w, fam)
            if wit is not None:
                witnesses[c] = wit
                break
        status[c] = c not in witnesses
    return ConditionReport(required, status, witnesses)


def is_countermodel(logic: Logic, f: Formula, model, world: int) -> bool:
    """Whether (model, world) is a checked countermodel of f in logic: the
    model passes `Model.validate` and `check_conditions`, and world is one
    of its worlds that does not force f."""
    try:
        model.validate()
        return check_conditions(model, logic).ok and not forces(model, world, f)
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Random models

def random_model(logic: Logic, max_worlds: int, seed: int):
    """Random model of logic's class over p1, p2, p3, drawn from the frames
    enumerate_countermodel searches: a world count in 1..max_worlds, then
    an order, a family per world and a value per atom, each uniformly
    from the enumeration's tables.  ValueError unless max_worlds is in
    1..MAX_WORLDS."""
    if not 1 <= max_worlds <= MAX_WORLDS:
        raise ValueError("max_worlds must be in 1..%d, not %d"
                         % (MAX_WORLDS, max_worlds))
    rng = random.Random(seed)
    n = rng.randint(1, max_worlds)
    succ = rng.choice(_preorders(n)[:1 if logic.mode == CLASSICAL else None])
    neigh = tuple(rng.choice(_families(n, logic.conditions, w))
                  for w in range(n))
    val = tuple((a, rng.choice(_upsets(succ))) for a in (1, 2, 3))
    return Model(logic.mode, n, succ, neigh, val)


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
    """All preorders on 0..n-1 as successor-mask tuples, the discrete
    order first."""
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
def _upsets(succ) -> Tuple[int, ...]:
    """The up-sets of the order, the sets a hereditary valuation may give
    an atom, in bitmask order."""
    up = _lane_up(succ, 1)
    return tuple(m for m in range(1 << len(succ)) if up(m) == m)


# The lanes of the largest 3-world slice (20^3 choices): a run fills at
# most this many with valuation blocks times choices, and a slice of
# more worlds holds at most this many choices unless it holds only two.
_LANES = 8000


class _Slices:
    """The neighbourhood choices over n worlds, cut into slices that one
    run of _run covers, one choice per lane.  A slice is every choice for
    the worlds from k on, in product order, under one choice for the
    worlds before k (its prefix).  k is the fewest prefix worlds that
    leave at most _LANES choices in a slice, but never more than n - 2:
    so 0 below 4 worlds, where a world has at most 20 families, and at 4
    worlds 1 for the T-logics (19 or 20 families a world) and 2 for the
    rest.  Without a modal subformula the neighbourhoods do not matter,
    and the first choice stands for them all."""

    def __init__(self, n: int, conds, modal: bool):
        fams = [_families(n, conds, w)[:None if modal else 1]
                for w in range(n)]
        k = 0
        while k < n - 2 and math.prod(map(len, fams[k:])) > _LANES:
            k += 1
        self.full = (1 << n) - 1
        self.prefixes = tuple(itertools.product(*fams[:k]))
        self.choices = tuple(itertools.product(*fams[k:]))
        self.one = _repeat(n, len(self.choices))
        self.width = n * len(self.choices)
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
        self.tables: Dict[int, dict] = {}   # with one slice: per block count

    def local(self, prefix, blocks: int = 1) -> dict:
        """local for _run over the slice under prefix.  One slice (prefix
        ()) may fill blocks of lanes side by side, each a copy of it; its
        table is kept, one per block count."""
        table = self.tables.get(blocks)     # filled only when prefix is ()
        if table is None:
            tests = [(*self.spread[a], m) for a, m in
                     _holders(prefix, self.one, self.sliced).items()]
            one = self.one
            if blocks > 1:
                rep = _repeat(self.width, blocks)
                one *= rep
                tests = [(a, at * rep, bits, m * rep)
                         for a, at, bits, m in tests]
            table = _lane_local(self.full, one, tests)
            if not prefix:
                self.tables[blocks] = table
        return table


# Kept below MAX_WORLDS worlds only: a 4-world slicing of M holds about 4 MB
# and takes 0.1 s to build, little beside a valuation's 28,224 runs of _run.
_kept_slices = cache(_Slices)


def _pack(values: List[int], n: int) -> int:
    """The int whose lane c (bits c*n ... c*n+n-1) holds values[c]."""
    digits = [format(v, "0%db" % n) for v in range(1 << n)]
    return int("".join(map(digits.__getitem__, reversed(values))), 2)


def _repeat(width: int, count: int) -> int:
    """Bits 0, width, ..., (count - 1) * width: times it, a value below
    2^width fills count places of that width side by side."""
    return ((1 << width * count) - 1) // ((1 << width) - 1)


class _Unset:
    """An order of a plan not set up yet.  Unpacking it sets the order up
    and puts it in its place, so the first search that reaches the order
    pays for it, and the plan's orders stay a list a search iterates."""

    def __init__(self, plan, i: int, succ):
        self.plan, self.i, self.succ = plan, i, succ

    def __iter__(self):
        order = self.plan.orders[self.i] = self.plan._order(self.succ)
        return iter(order)


class _Plan:
    """What enumerate_countermodel sets up for a frame class, given its
    slices over n worlds, and k atoms: the slices and, per order of
    `_preorders(n)` in turn, (succ, its up-sets, the lanes of a run and
    their `one`, up over them, local with one slice or else None, the
    lane masks of the last j atoms' values), an _Unset until a search
    first reaches it.  A classical model is the constructive model on
    the discrete order, the first, so one plan serves both kinds: a
    constructive search runs every order, a classical one the first
    alone.  So a class that only classical logics search sets up its
    discrete order and no other.

    With one slice, the values of the last j atoms are spread over the
    lanes too: block i of the lanes holds the slice under the i-th
    valuation of those atoms in product order, for the largest j <= k
    with blocks x choices <= _LANES.  k itself is lowered to the most
    atoms any order of the class fits."""

    def __init__(self, slices: _Slices, n: int, k: int):
        self.slices = slices
        # the fewest up-sets: 2 where every world sees every other
        self.k = self._fit(2, k)
        self.orders = [_Unset(self, i, succ)
                       for i, succ in enumerate(_preorders(n))]

    def _fit(self, upsets: int, k: int) -> int:
        """How many of k atoms of upsets values each fit in the lanes:
        none beside several slices."""
        sl, j = self.slices, 0
        while (j < k and len(sl.prefixes) == 1
               and len(sl.choices) * upsets ** (j + 1) <= _LANES):
            j += 1
        return j

    def _order(self, succ):
        sl, n, upsets = self.slices, len(succ), _upsets(succ)
        lanes, spread = len(sl.choices), []
        for _ in range(self._fit(len(upsets), self.k)):
            ones = _repeat(n, lanes)
            # one atom more, in front, as it changes slowest: its i-th
            # value fills the i-th copy of the lanes so far, and the
            # masks of the atoms after it repeat once per copy
            spread = [sum(v * ones << i * n * lanes
                          for i, v in enumerate(upsets))] + \
                [s * _repeat(n * lanes, len(upsets)) for s in spread]
            lanes *= len(upsets)
        one = _repeat(n, lanes)
        local = sl.local((), lanes // len(sl.choices)) \
            if len(sl.prefixes) == 1 else None
        return succ, upsets, lanes, one, _lane_up(succ, one), local, spread


# Kept below MAX_WORLDS worlds only.  A 4-world plan lives for one search
# (setting up WM's 355 orders takes 0.05 s).
@cache
def _kept_plan(conds, n: int, modal: bool, k: int) -> _Plan:
    plan = _Plan(_kept_slices(n, conds, modal), n, k)
    if plan.k < k:                  # one plan for every k past those that fit
        return _kept_plan(conds, n, modal, plan.k)
    return plan


def enumerate_countermodel(logic: Logic, f: Formula, max_worlds: int = 3,
                           timeout_secs: float = DEFAULT_TIMEOUT_SECS):
    """First (model, world) refuting f among all models of logic's class
    with at most max_worlds worlds, up to forcing equivalence; else None.

    Models are tried by size, preorder, valuation and then neighbourhood
    choice in product order.  One run of _run covers a slice of the
    choices (see _Slices), and on small frames every valuation of the
    last atoms as well, in blocks of lanes (see _Plan); the lowest bit of
    the worlds it refutes is the first refuting valuation and choice of
    the run and their least world.

    Raises BudgetExceeded, whose nodes counts the models tried, when
    timeout_secs run out or when the search would have to go past
    MAX_WORLDS worlds.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be at least 1, not %d" % max_worlds)
    start = time.monotonic()
    deadline = start + timeout_secs
    tried = 0
    atoms, program, modal = _program(f)
    k = len(atoms)
    rest = [0] * len(program)       # the slots after the atoms
    for n in range(1, max_worlds + 1):
        if n > MAX_WORLDS:
            raise BudgetExceeded("more than %d worlds" % MAX_WORLDS, tried,
                                 time.monotonic() - start)
        plan = _kept_plan(logic.conditions, n, modal, k) if n < MAX_WORLDS \
            else _Plan(_Slices(n, logic.conditions, modal), n, k)
        sl = plan.slices
        for succ, upsets, lanes, one, up, local, spread in plan.orders:
            every = sl.full * one
            exts = ([v * one for v in vals] + spread + rest for vals in
                    itertools.product(upsets, repeat=k - len(spread))
                    ) if len(spread) < k else (spread + rest,)
            for ext in exts:
                for prefix in sl.prefixes:
                    if time.monotonic() > deadline:
                        raise BudgetExceeded("timeout", tried,
                                             time.monotonic() - start)
                    m = _run(program, ext, every, up,
                             local or sl.local(prefix))[-1]
                    if m != every:  # every: bits 0 to lanes*n-1
                        lane, world = divmod((m ^ (m + 1)).bit_length() - 1, n)
                        val = tuple([(a, ext[i] >> lane * n & sl.full)
                                     for i, a in enumerate(atoms)])
                        return Model(logic.mode, n, succ, prefix + sl.choices[
                            lane % len(sl.choices)], val), world
                    tried += lanes
            if logic.mode == CLASSICAL:     # the discrete order alone
                break
    return None


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


def _typed(value, kind, what: str):
    if not isinstance(value, kind):
        raise ValueError("%s must be a JSON %s"
                         % (what, "array" if kind is list else "object"))
    return value


def _world_set(ws, n: int, what: str) -> int:
    if not all(type(w) is int and 0 <= w < n for w in _typed(ws, list, what)):
        raise ValueError("%s must hold worlds 0..%d only" % (what, n - 1))
    return sum({1 << w for w in ws})


# A model document nests no deeper than neighbourhoods -> world -> family
# -> set.
_MAX_NESTING = 4
_JSON_TOKEN = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[{]|[\]}]')
# An atom as model_to_json writes it: no sign, space, underscore, leading
# zero or non-ASCII digit, so that no two keys name one atom.
_ATOM_KEY = re.compile(r"p[1-9][0-9]*")
# A world as model_to_json writes it, so that every family is read.
_WORLD_KEY = re.compile(r"0|[1-9][0-9]*")


def _check_nesting(text: str):
    """ValueError when text nests arrays and objects deeper than a model
    document; `json.loads` would recurse once per level, and under the
    recursion limit `prover` sets a deep document overflows the C stack."""
    depth = 0
    for token in _JSON_TOKEN.finditer(text):
        c = token[0]
        if c == "[" or c == "{":
            depth += 1
            if depth > _MAX_NESTING:
                raise ValueError("document nests deeper than %d levels"
                                 % _MAX_NESTING)
        elif c == "]" or c == "}":
            depth -= 1


def _unique_keys(pairs) -> dict:
    """The JSON object of pairs; ValueError on a repeated key, which
    `json.loads` would read as its last value alone."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %r" % key)
        obj[key] = value
    return obj


def model_from_json(text: str):
    """The model of a document model_to_json wrote; ValueError for any
    document that is not one."""
    _check_nesting(text)
    doc = json.loads(text, object_pairs_hook=_unique_keys)
    # By value alone, 1.0 and true would pass.
    if not (isinstance(doc, dict) and type(doc.get("version")) is int
            and doc["version"] == 1):
        raise ValueError("not a version 1 model document")
    if (kind := doc.get("kind")) not in (CLASSICAL, CONSTRUCTIVE):
        raise ValueError("unknown model kind %r" % kind)
    n = len(worlds := _typed(doc.get("worlds"), list, "worlds"))
    if n == 0 or _world_set(worlds, n, "worlds") != (1 << n) - 1:
        raise ValueError("worlds must be 0..n-1, nonempty")
    fams = _typed(doc.get("neighbourhoods"), dict, "neighbourhoods")
    for key in fams:
        if not (_WORLD_KEY.fullmatch(key) and int(key) < n):
            raise ValueError("bad world key %r" % key)
    neigh = []
    for w in range(n):
        fam = _typed(fams.get(str(w), []), list, "the family of world %d" % w)
        where = "a neighbourhood of world %d" % w
        neigh.append(tuple(sorted({_world_set(a, n, where) for a in fam})))
    val = []
    for key, ws in sorted(_typed(doc.get("valuation", {}), dict,
                                 "valuation").items()):
        if not _ATOM_KEY.fullmatch(key):
            raise ValueError("bad atom key %r" % key)
        val.append((int(key[1:]), _world_set(ws, n, "the valuation of " + key)))
    succ = list(_discrete(n))       # the order when the document has none
    for pair in _typed(doc.get("order", []), list, "order"):
        _world_set(pair, n, "an order pair")
        if len(pair) != 2:
            raise ValueError("an order pair has two worlds")
        w, v = pair
        succ[w] |= 1 << v
    model = Model(kind, n, tuple(succ), tuple(neigh), tuple(val))
    model.validate()
    return model
