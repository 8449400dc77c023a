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
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from functools import cache, partial
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

# Enumeration keeps the local tables of this many neighbourhood choices
# for the next valuation: every 3-world product (at most 20^3 choices),
# and a bounded part of the 4-world ones.
_KEPT_CHOICES = 1 << 14


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


def _locally(kind: str, neigh, b: int) -> int:
    """Worlds where a box (some neighbourhood lies inside b) or a
    diamond (every neighbourhood meets b) over a formula of extension b
    holds locally."""
    if kind == BOX:
        return _mask(w for w, fam in enumerate(neigh)
                     if any(not a & ~b for a in fam))
    return _mask(w for w, fam in enumerate(neigh) if all(a & b for a in fam))


class _Lazy(dict):
    """The table m -> fn(m), each entry computed on first use, so that a
    model with many worlds pays only for the masks a formula reaches."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, m):
        v = self[m] = self.fn(m)
        return v


def _program(f: Formula):
    """Compile f into instructions over a list of extensions, one slot
    per subformula: the atoms first, by index, then the other subformulas
    in complexity order, so that children come before parents and f comes
    last.  Returns the atoms' indices, the instructions (slot, kind, left
    slot, right slot) and the set of slots whose extension depends on the
    neighbourhoods."""
    order = sorted(subformulas(f),
                   key=lambda g: (g.kind != ATOM, g.complexity, g.index))
    slot = {g: i for i, g in enumerate(order)}
    atoms = [g.index for g in order if g.kind == ATOM]
    program, modal = [], set()
    for g in order[len(atoms):]:
        i, l, r = slot[g], slot.get(g.left), slot.get(g.right)
        if g.kind in (BOX, DIA) or l in modal or r in modal:
            modal.add(i)
        program.append((i, g.kind, l, r))
    return atoms, program, modal


def _run(program, ext: list, full: int, up, local) -> list:
    """Fill in ext, whose first slots hold the atoms' extensions, along
    program.

    These are the only forcing clauses.  up[m] is the set of worlds all
    of whose successors lie in m, and local[kind][b] the set of worlds
    where a box or diamond over a formula of extension b holds locally.
    """
    for i, k, l, r in program:
        if k == AND:
            ext[i] = ext[l] & ext[r]
        elif k == OR:
            ext[i] = ext[l] | ext[r]
        elif k == IMP:
            ext[i] = up[full & ~(ext[l] & ~ext[r])]
        elif k == BOT:
            ext[i] = 0
        else:
            ext[i] = up[local[k][ext[l]]]
    return ext


def extension(model, f: Formula) -> int:
    """Mask of worlds forcing f."""
    atoms, program, _ = _program(f)
    val = dict(model.val)
    ext = [val.get(a, 0) for a in atoms] + [0] * len(program)
    up = _Lazy(partial(_up, model.succ))
    local = {k: _Lazy(partial(_locally, k, model.neigh)) for k in (BOX, DIA)}
    return _run(program, ext, model.full, up, local)[-1]


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


def random_model(logic: Logic, max_worlds: int, seed: int,
                 num_atoms: int = 3, tries: int = 500):
    """Random model of logic's class: repair (N)/(T)/(C), resample on (D)/(P)."""
    rng = random.Random(seed)
    conds = logic.conditions
    for _ in range(tries):
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
        for a in range(1, num_atoms + 1):
            m = rng.randint(0, full)
            # upward closure keeps the valuation hereditary
            for w in _bits(m):
                m |= succ[w]
            val.append((a, m))
        model = _assemble(logic, n, tuple(succ), tuple(neigh), tuple(val))
        if conditions_hold(model, conds):
            return model
    raise ResamplingExhausted("no %s-model found in %d tries" % (logic.name, tries))


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
def _column(kind: str, fam, w: int, n: int) -> Tuple[int, ...]:
    """For every extension b over n worlds, world w's bit of
    local[kind][b] when w has the family fam."""
    return tuple(_locally(kind, (fam,), b) << w for b in range(1 << n))


def _local_table(neigh, n: int) -> dict:
    """local for _run, in full, for worlds 0..n-1 with the families
    neigh.  The worlds' bits are disjoint, so their sum is their union."""
    table = {}
    for k in (BOX, DIA):
        columns = [_column(k, fam, w, n) for w, fam in enumerate(neigh)]
        table[k] = [sum(bits) for bits in zip(*columns)]
    return table


def enumerate_countermodel(logic: Logic, f: Formula, max_worlds: int = 3,
                           budget: Budget = Budget()):
    """First (model, world) refuting f among all models of logic's class
    with at most max_worlds worlds, up to forcing equivalence; else None.

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

    atoms, program, modal = _program(f)
    static = [ins for ins in program if ins[0] not in modal]
    dynamic = [ins for ins in program if ins[0] in modal]
    rest = [0] * len(program)       # the slots after the atoms
    for n in range(1, max_worlds + 1):
        if n > MAX_WORLDS:
            raise exceeded("more than %d worlds" % MAX_WORLDS)
        full = (1 << n) - 1
        fams = [_families(n, logic.conditions, w) for w in range(n)]
        first = tuple(fs[0] for fs in fams)
        tables = []     # local of each neighbourhood choice, by position
        orders = (_preorders(n) if logic.mode == CONSTRUCTIVE
                  else (_discrete(n),))
        for succ in orders:
            up = [_up(succ, m) for m in range(full + 1)]
            upsets = [m for m in range(full + 1) if up[m] == m]
            for vals in itertools.product(upsets, repeat=len(atoms)):
                if time.monotonic() > deadline:
                    raise exceeded("timeout")
                ext = _run(static, [*vals, *rest], full, up, None)
                choices = itertools.product(*fams) if dynamic else [first]
                for i, neigh in enumerate(choices):
                    if i < len(tables):
                        local = tables[i]
                    else:
                        local = _local_table(neigh, n)
                        if i < _KEPT_CHOICES:
                            tables.append(local)
                    m = _run(dynamic, ext, full, up, local)[-1]
                    if m != full:
                        model = _assemble(logic, n, succ, neigh,
                                          tuple(zip(atoms, vals)))
                        return model, _bits(full & ~m)[0]
                    if i & 0xFFF == 0xFFF and time.monotonic() > deadline:
                        tried += i
                        raise exceeded("timeout")
                tried += i + 1
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
