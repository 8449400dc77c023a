"""Finite neighbourhood models, classical and constructive.

Worlds are 0..n-1; sets of worlds are bitmasks.  A classical model is
(W, N, V); a constructive model adds a preorder, represented by the
successor mask of each world, and keeps valuations hereditary.  Forcing,
condition checking, random generation with condition repair, and
exhaustive countermodel enumeration all live here.

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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .logics import Logic
from .sequents import CLASSICAL, CONSTRUCTIVE
from .syntax import AND, ATOM, BOT, BOX, DIA, IMP, OR, Formula

CONDITION_NAMES = ("C", "N", "D", "T", "P")


def _bits(mask: int) -> List[int]:
    out = []
    w = 0
    while mask:
        if mask & 1:
            out.append(w)
        mask >>= 1
        w += 1
    return out


def _mask(worlds: Iterable[int]) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


@dataclass(frozen=True)
class NeighModel:
    """Classical neighbourhood model."""
    n: int
    neigh: Tuple[Tuple[int, ...], ...]   # per world: sorted neighbourhood masks
    val: Tuple[Tuple[int, int], ...]     # (atom index, extension mask), sorted

    kind = CLASSICAL

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def valuation(self) -> Dict[int, int]:
        return dict(self.val)


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

    def valuation(self) -> Dict[int, int]:
        return dict(self.val)

    def validate(self):
        for w in range(self.n):
            if not self.succ[w] & (1 << w):
                raise ValueError("order not reflexive at %d" % w)
            for v in _bits(self.succ[w]):
                if self.succ[v] & ~self.succ[w]:
                    raise ValueError("order not transitive at %d<=%d" % (w, v))
        for a, m in self.val:
            for w in _bits(m):
                if self.succ[w] & ~m:
                    raise ValueError("valuation of p%d not hereditary" % a)


Model = (NeighModel, ConstructiveNeighModel)


# ---------------------------------------------------------------------------
# Forcing

def extension(model, f: Formula, memo: Optional[dict] = None) -> int:
    """Mask of worlds forcing f."""
    if memo is None:
        memo = {}
    m = memo.get(f)
    if m is not None:
        return m
    full = model.full
    k = f.kind
    if k == BOT:
        m = 0
    elif k == ATOM:
        m = model.valuation().get(f.index, 0)
    elif k == AND:
        m = extension(model, f.left, memo) & extension(model, f.right, memo)
    elif k == OR:
        m = extension(model, f.left, memo) | extension(model, f.right, memo)
    elif k == IMP:
        a = extension(model, f.left, memo)
        b = extension(model, f.right, memo)
        if model.kind == CLASSICAL:
            m = (~a | b) & full
        else:
            bad = a & ~b    # worlds where the implication fails locally
            m = 0
            for w in range(model.n):
                if not model.succ[w] & bad:
                    m |= 1 << w
    elif k in (BOX, DIA):
        b = extension(model, f.left, memo)
        if model.kind == CLASSICAL:
            m = 0
            for w in range(model.n):
                fam = model.neigh[w]
                if k == BOX:
                    ok = any(not a & ~b for a in fam)
                else:
                    ok = all(a & b for a in fam)
                if ok:
                    m |= 1 << w
        else:
            local = 0
            for w in range(model.n):
                fam = model.neigh[w]
                if k == BOX:
                    ok = any(not a & ~b for a in fam)
                else:
                    ok = all(a & b for a in fam)
                if ok:
                    local |= 1 << w
            m = 0
            for w in range(model.n):
                if not model.succ[w] & ~local:
                    m |= 1 << w
    else:
        raise ValueError("unknown formula kind %r" % k)
    memo[f] = m
    return m


def forces(model, world: int, f: Formula, memo: Optional[dict] = None) -> bool:
    if not 0 <= world < model.n:
        raise ValueError("world %d not in model" % world)
    return bool(extension(model, f, memo) & (1 << world))


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


def _check_condition(model, cond: str):
    """Returns (holds, witness or None)."""
    for w in range(model.n):
        fam = model.neigh[w]
        if cond == "N":
            if not fam:
                return False, (w,)
        elif cond == "P":
            if 0 in fam:
                return False, (w, 0)
        elif cond == "T":
            for a in fam:
                if not a & (1 << w):
                    return False, (w, a)
        elif cond == "C":
            for a in fam:
                for b in fam:
                    if (a & b) not in fam:
                        return False, (w, a, b)
        elif cond == "D":
            for a in fam:
                for b in fam:
                    if not a & b:
                        return False, (w, a, b)
        else:
            raise ValueError("unknown condition %r" % cond)
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
        if logic.mode == CONSTRUCTIVE:
            base = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
            succ = [ (1 << w) | _mask(v for v in range(n) if base[w][v])
                     for w in range(n) ]
            # transitive closure
            changed = True
            while changed:
                changed = False
                for w in range(n):
                    m = succ[w]
                    for v in _bits(m):
                        m |= succ[v]
                    if m != succ[w]:
                        succ[w] = m
                        changed = True
        neigh = []
        for w in range(n):
            k = rng.randint(0, 3)
            fam = {rng.randint(0, full) for _ in range(k)}
            if "N" in conds and not fam:
                fam = {1 << rng.randint(0, n - 1)}
            if "T" in conds:
                fam = {a | (1 << w) for a in fam}
            if "C" in conds:
                while True:
                    extra = {a & b for a in fam for b in fam} - fam
                    if not extra:
                        break
                    fam |= extra
            neigh.append(tuple(sorted(fam)))
        val = []
        for a in range(1, num_atoms + 1):
            m = rng.randint(0, full)
            if logic.mode == CONSTRUCTIVE:
                # upward closure keeps the valuation hereditary
                for w in list(_bits(m)):
                    m |= succ[w]
            val.append((a, m))
        if logic.mode == CONSTRUCTIVE:
            model = ConstructiveNeighModel(n, tuple(succ), tuple(neigh), tuple(val))
        else:
            model = NeighModel(n, tuple(neigh), tuple(val))
        if conditions_hold(model, conds):
            return model
    raise ResamplingExhausted("no %s-model found in %d tries" % (logic.name, tries))


# ---------------------------------------------------------------------------
# Exhaustive countermodel search

def _antichains(n: int) -> List[Tuple[int, ...]]:
    """All inclusion-antichains of subsets of 0..n-1, in bitmask order."""
    masks = list(range(1 << n))
    out = []
    for fam_bits in range(1 << len(masks)):
        fam = [m for m in masks if fam_bits >> m & 1]
        ok = True
        for i, a in enumerate(fam):
            for b in fam[i + 1:]:
                if a & b == a or a & b == b:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(fam))
    return out


def _close_intersection(fam: Tuple[int, ...]) -> Tuple[int, ...]:
    out = set(fam)
    while True:
        extra = {a & b for a in out for b in out} - out
        if not extra:
            return tuple(sorted(out))
        out |= extra


def _families(n: int, conds, w: int) -> List[Tuple[int, ...]]:
    """Candidate neighbourhood families for world w under conds."""
    out = []
    for fam in _antichains(n):
        final = _close_intersection(fam) if "C" in conds else fam
        ok = True
        for c in conds:
            if c == "N":
                ok = bool(final)
            elif c == "P":
                ok = 0 not in final
            elif c == "T":
                ok = all(a >> w & 1 for a in final)
            elif c == "D":
                ok = all(a & b for a in final for b in final)
            elif c == "C":
                ok = True  # by closure
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(final)))
    # closure can identify distinct antichains' families
    seen = set()
    uniq = []
    for fam in out:
        if fam not in seen:
            seen.add(fam)
            uniq.append(fam)
    return uniq


def _preorders(n: int) -> List[Tuple[int, ...]]:
    """All preorders on 0..n-1 as successor-mask tuples."""
    pairs = [(w, v) for w in range(n) for v in range(n) if w != v]
    out = []
    for bits in range(1 << len(pairs)):
        succ = [1 << w for w in range(n)]
        for i, (w, v) in enumerate(pairs):
            if bits >> i & 1:
                succ[w] |= 1 << v
        ok = True
        for w in range(n):
            for v in _bits(succ[w]):
                if succ[v] & ~succ[w]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(succ))
    return out


def _upclosed_masks(n: int, succ) -> List[int]:
    out = []
    for m in range(1 << n):
        if all(not succ[w] & ~m for w in _bits(m)):
            out.append(m)
    return out


def _topo_order(f: Formula):
    """Subformulas, children before parents, with a modal-dependence flag."""
    order = []
    seen = {}

    def visit(g):
        if g in seen:
            return seen[g]
        modal = g.kind in (BOX, DIA)
        if g.left is not None:
            modal |= visit(g.left)
        if g.right is not None:
            modal |= visit(g.right)
        seen[g] = modal
        order.append(g)
        return modal

    visit(f)
    return order, seen


def _fam_tables(fams, n):
    """Per family: for each candidate extension b, whether the box/dia
    clause holds locally."""
    tabs = {}
    for fam in fams:
        if fam in tabs:
            continue
        boxtab = []
        diatab = []
        for b in range(1 << n):
            boxtab.append(any(not a & ~b for a in fam))
            diatab.append(all(a & b for a in fam))
        tabs[fam] = (tuple(boxtab), tuple(diatab))
    return tabs


def enumerate_countermodel(logic: Logic, f: Formula, max_worlds: int = 3):
    """First (model, world) refuting f among all models of logic's class
    with at most max_worlds worlds, up to forcing equivalence; else None."""
    atoms = sorted(g.index for g in _subformulas(f) if g.kind == ATOM)
    constructive = logic.mode == CONSTRUCTIVE
    conds = logic.conditions
    order_list, modal_flag = _topo_order(f)
    static_part = [g for g in order_list if not modal_flag[g]]
    modal_part = [g for g in order_list if modal_flag[g]]
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        fams_per_world = [_families(n, conds, w) for w in range(n)]
        tabs = _fam_tables({fam for fams in fams_per_world for fam in fams}, n)
        neigh_choices = list(itertools.product(*fams_per_world))
        orders = _preorders(n) if constructive else [None]
        for succ in orders:
            if constructive:
                vmasks = _upclosed_masks(n, succ)
                # up[m] = worlds all of whose successors lie inside m
                up = [0] * (1 << n)
                for m in range(1 << n):
                    x = 0
                    for w in range(n):
                        if not succ[w] & ~m:
                            x |= 1 << w
                    up[m] = x
            else:
                vmasks = list(range(1 << n))
                up = None
            for vals in itertools.product(vmasks, repeat=len(atoms)):
                ext = {}
                base = dict(zip(atoms, vals))
                for g in static_part:
                    k = g.kind
                    if k == BOT:
                        ext[g] = 0
                    elif k == ATOM:
                        ext[g] = base.get(g.index, 0)
                    elif k == AND:
                        ext[g] = ext[g.left] & ext[g.right]
                    elif k == OR:
                        ext[g] = ext[g.left] | ext[g.right]
                    else:  # IMP
                        bad = ext[g.left] & ~ext[g.right]
                        ext[g] = up[~bad & full] if constructive else (~bad & full)
                if not modal_part:
                    m = ext[f]
                    if m != full:
                        model = _assemble(logic, n, succ, neigh_choices[0], atoms, vals)
                        return model, _bits(full & ~m)[0]
                    continue
                for neigh in neigh_choices:
                    wtabs = [tabs[fam] for fam in neigh]
                    for g in modal_part:
                        k = g.kind
                        if k == AND:
                            ext[g] = ext[g.left] & ext[g.right]
                        elif k == OR:
                            ext[g] = ext[g.left] | ext[g.right]
                        elif k == IMP:
                            bad = ext[g.left] & ~ext[g.right]
                            ext[g] = up[~bad & full] if constructive else (~bad & full)
                        else:
                            b = ext[g.left]
                            idx = 0 if k == BOX else 1
                            local = 0
                            for w in range(n):
                                if wtabs[w][idx][b]:
                                    local |= 1 << w
                            ext[g] = up[local] if constructive else local
                    m = ext[f]
                    if m != full:
                        model = _assemble(logic, n, succ, neigh, atoms, vals)
                        return model, _bits(full & ~m)[0]
    return None


def _assemble(logic, n, succ, neigh, atoms, vals):
    val = tuple(zip(atoms, vals))
    if logic.mode == CONSTRUCTIVE:
        return ConstructiveNeighModel(n, succ, neigh, val)
    return NeighModel(n, neigh, val)


def _subformulas(f):
    from .syntax import subformulas
    return subformulas(f)


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
