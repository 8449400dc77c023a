"""One rule table for the 28 sequent calculi, serving backward search and
forward step checking.

Each rule is written once, as a `Rule` in `RULES`.  Its builder reads a
sequent classified once (`Shape`) and yields every instance of the
rule's schema with that conclusion: premises and principal formulas.
Each rule also declares the formula kinds its principal formulas have,
per side (`Rule.needs`: Mbox needs a [] on both sides, Rimp a -> in the
succedent, CD none).  That is a necessary condition only: a conclusion
without those kinds has no instance, so search and
`backward_applications` skip the rule there without starting its
builder, but one with them may still have none, which the builder
decides.  `fitting` gives the rules that fit a conclusion, those whose
needs it holds, as a set of `BITS` looked up by its kinds.

Eleven modal rules without context (Mbox, Mdia, D, dualandM, dualorM,
Dbox, Ddia, Nbox, Ndia, Pbox, Pdia) strip their principals' outer
modality: the one premise holds each principal's subformula on its
principal's side.  They share one builder, `_stripping`, whose row names
the `Shape` lists it strips, in one of three shapes: one principal; one
from each of two lists; two from one list, each pair once.

The constructive calculi WM ... WKT are the single-succedent restriction
of the classical calculi M ... KT, and their modal rules are derived
from the classical ones by `constructive`; the comment on its exception
map says where a constructive rule is not the classical rule renamed.
Of the propositional rules only Limp and Ror differ by mode.  A
constructive modal rule without context lists its succedent principal
first, and has one exactly when its premise has a succedent formula;
the one modal case of interpolation reads its principals so.  The
schemata follow Lavendhomme & Lucas (Studia Logica 2000) and Orlandelli
(Logic and Logical Philosophy 2021).

Proof search treats sequent sides as duplicate-free sets: contraction is
height-preserving admissible in every calculus here, so a set-based
derivation converts to a literal multiset derivation and back.  Backward
application of the box-absorbing rules uses every boxed formula of the
relevant side at once ("use all boxes"); admissible weakening makes the
partial-selection instances redundant.

`check_step`, in contrast, accepts any instance of the rule schema up
to contraction: it rebuilds the premises from the conclusion as
`Sequent`s, whose sides are sets, and compares them with the given
premises as a multiset, in any order.  The premises must have the
conclusion's mode, and the instance a principal formula.  The
propositional and T rules keep the whole conclusion as
context.  The other modal rules keep none, so the conclusion may hold
any other formulas: their premises are rebuilt from the conclusion cut
down to the formulas []A and <>A whose A occurs in a premise on the same
side.  That accepts partial selections of boxes and succedent diamonds,
and a principal both boxed and diamonded.  Each formula of the cut-down
conclusion is listed twice, so that one formula may fill two principal
positions by contraction, as in Dbox from A |- to []A |-.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable,
                    Iterator, List, NamedTuple, Tuple)

from .sequents import CLASSICAL, CONSTRUCTIVE, Sequent, norm_side
from .syntax import AND, ATOM, BOT, BOX, DIA, IMP, OR, Formula, bot

if TYPE_CHECKING:
    from .logics import Logic


class RuleInstance(NamedTuple):
    rule: str
    conclusion: Sequent
    premises: Tuple[Sequent, ...]
    principal: Tuple[Formula, ...]


_kind = attrgetter("kind")


class Shape:
    """A sequent classified once for every rule: the formula kinds on each
    side, as frozensets, and its boxes and diamonds."""

    __slots__ = ("mode", "ant", "suc", "ant_set", "ant_kinds", "suc_kinds",
                 "boxes", "dias", "sboxes", "sdias", "box_subs", "sdia_subs")

    def __init__(self, mode: str, ant, suc):
        self.mode, self.ant, self.suc = mode, ant, suc
        self.ant_set = set(ant)
        self.ant_kinds = ak = frozenset(map(_kind, ant))
        self.suc_kinds = sk = frozenset(map(_kind, suc))
        self.boxes = [f for f in ant if f.kind == BOX] if BOX in ak else []
        self.dias = [f for f in ant if f.kind == DIA] if DIA in ak else []
        self.sboxes = [f for f in suc if f.kind == BOX] if BOX in sk else []
        self.sdias = [f for f in suc if f.kind == DIA] if DIA in sk else []
        self.box_subs = [f.left for f in self.boxes]
        self.sdia_subs = [f.left for f in self.sdias]

    def antecedent(self) -> "Shape":
        """The same sequent with its succedent weakened away."""
        return Shape(self.mode, self.ant, ())


# A builder yields (premises, principal) pairs, each premise an
# (antecedent, succedent) pair of formula sequences, which `Sequent`
# normalizes.
Builder = Callable[[Shape], Iterator[Tuple[list, tuple]]]


class Rule(NamedTuple):
    name: str
    build: Builder
    # The modes in which the rule is height-preserving invertible, so that
    # search may commit to its first unblocked instance.
    invertible: Tuple[str, ...] = ()
    # The premises keep the conclusion's side formulas as context.
    contextual: bool = False
    # The formula kinds, on the antecedent and on the succedent, that the
    # conclusion of every instance with a principal formula holds.  A
    # contextual rule's principal lies on the side it names: needs[0] is
    # non-empty exactly for the antecedent rules (and init, on both).
    needs: Tuple[FrozenSet[str], FrozenSet[str]] = (frozenset(), frozenset())


def _needs(ant=(), suc=()):
    return frozenset(ant), frozenset(suc)


def _without(side, f):
    return tuple(g for g in side if g is not f)


# --- closure and propositional rules -------------------------------------

def _lbot(c):
    if bot in c.ant_set:
        yield [], (bot,)


def _init(c):
    for f in c.suc:
        if f.kind == ATOM and f in c.ant_set:
            yield [], (f,)


def _land(c):
    for f in c.ant:
        if f.kind == AND:
            yield [(_without(c.ant, f) + (f.left, f.right), c.suc)], (f,)


def _lor(c):
    for f in c.ant:
        if f.kind == OR:
            rest = _without(c.ant, f)
            yield [(rest + (f.left,), c.suc), (rest + (f.right,), c.suc)], (f,)


def _limp(c):
    for f in c.ant:
        if f.kind == IMP:
            rest = _without(c.ant, f)
            if c.mode == CONSTRUCTIVE:
                # The principal stays in the left premise.
                left = (c.ant, (f.left,))
            else:
                left = (rest, c.suc + (f.left,))
            yield [left, (rest + (f.right,), c.suc)], (f,)


def _rand(c):
    for f in c.suc:
        if f.kind == AND:
            rest = _without(c.suc, f)
            yield [(c.ant, rest + (f.left,)), (c.ant, rest + (f.right,))], (f,)


def _ror(c):
    for f in c.suc:
        if f.kind == OR:
            if c.mode == CONSTRUCTIVE:
                # One instance per disjunct; a genuine choice point.
                yield [(c.ant, (f.left,))], (f, f.left)
                yield [(c.ant, (f.right,))], (f, f.right)
            else:
                yield [(c.ant, _without(c.suc, f) + (f.left, f.right))], (f,)


def _rimp(c):
    for f in c.suc:
        if f.kind == IMP:
            yield [(c.ant + (f.left,), _without(c.suc, f) + (f.right,))], (f,)


# --- T rules: the premise is the conclusion plus a copy -----------------

def _tbox(c):
    for f in c.boxes:
        yield [(c.ant + (f.left,), c.suc)], (f,)


def _tdia(c):
    for t in c.sdias:
        yield [(c.ant, c.suc + (t.left,))], (t,)


def _itdia(c):
    for t in c.sdias:
        yield [(c.ant, (t.left,))], (t,)


# --- stripping rules: the premise is the principals' subformulas --------

# The `Shape` lists of succedent formulas; boxes and dias are antecedent.
_SUCCEDENT = ("sboxes", "sdias")


def _stripping(outer: str, inner: str = "", pairs: bool = False) -> Builder:
    """The builder of a stripping rule.  Its principals are one formula of
    the `Shape` list outer; or one of outer and one of inner, outer's loop
    outermost; or, with pairs, two of outer, each pair once.  The k
    succedent principals come first, and the premise holds their
    subformulas in its succedent, those of the rest in its antecedent."""
    lists = (outer, inner) if inner else (outer,) * (1 + pairs)
    k = sum(name in _SUCCEDENT for name in lists)
    get_outer = attrgetter(outer)
    if pairs:
        def build(c):
            fs = get_outer(c)
            for i, f in enumerate(fs):
                for g in fs[i + 1:]:
                    subs = f.left, g.left
                    yield [(subs[k:], subs[:k])], (f, g)
    elif inner:
        get_inner = attrgetter(inner)
        # outer in the antecedent, inner in the succedent: inner's first.
        flip = k == 1 and inner in _SUCCEDENT

        def build(c):
            for f in get_outer(c):
                for g in get_inner(c):
                    pr = (g, f) if flip else (f, g)
                    subs = pr[0].left, pr[1].left
                    yield [(subs[k:], subs[:k])], pr
    else:
        def build(c):
            for f in get_outer(c):
                subs = f.left,
                yield [(subs[k:], subs[:k])], (f,)
    return build


# --- box-absorbing rules: all antecedent boxes, succedent diamonds ------

def _kbox(c):
    for t in c.sboxes:
        yield [(c.box_subs, [t.left] + c.sdia_subs)], (t, *c.boxes, *c.sdias)


def _cbox(c):
    if c.boxes:
        yield from _kbox(c)


def _kdia(c):
    for f in c.dias:
        yield [(c.box_subs + [f.left], c.sdia_subs)], (*c.sdias, f, *c.boxes)


def _cdia(c):
    for f in c.dias:
        for t in c.sdias:
            others = [g for g in c.sdias if g is not t]
            yield [(c.box_subs + [f.left], c.sdia_subs)], (t, f, *c.boxes, *others)


def _dualand_c(c):
    if c.boxes:
        yield from _kdia(c.antecedent())


def _dualor_c(c):
    for tb in c.sboxes:
        for td in c.sdias:
            others = [g for g in c.sdias if g is not td]
            yield [((), [tb.left] + c.sdia_subs)], (tb, td, *others)


def _cd(c):
    yield [(c.box_subs, c.sdia_subs)], (*c.sdias, *c.boxes)


# --- constructive restrictions of classical rules ------------------------

def _with_succedent(build: Builder) -> Builder:
    """The instances of build whose premise has a succedent formula."""
    def restricted(c):
        for prems, principal in build(c):
            if prems[0][1]:
                yield prems, principal
    return restricted


def _antecedent_only(build: Builder) -> Builder:
    """build at the conclusion with its succedent weakened away."""
    return lambda c: build(c.antecedent())


_ALL = (CLASSICAL, CONSTRUCTIVE)

# The constructive rules of each classical modal rule, where they are not
# the classical rule renamed with a leading "i".  On a conclusion with at
# most one succedent formula a classical modal rule yields premises with
# at most one, so renaming suffices except that
# - iTdia replaces its principal by the subformula, where Tdia adds it;
# - Kdia and CD split in two (`_SPLIT`): iKdia and iCD keep the instances
#   whose premise has a succedent formula, and idualandK and iCDbox apply
#   them at the conclusion with its succedent weakened away, iCDbox
#   needing a box.  Both narrow the classical rule, so they keep its needs;
# - dualorM, dualorC and Ddia need two succedent formulas.
_CONSTRUCTIVE = {
    "Tdia": (Rule("iTdia", _itdia, contextual=True, needs=_needs(suc=[DIA])),),
    "dualorM": (), "dualorC": (), "Ddia": (),
}
_SPLIT = {"Kdia": "idualandK", "CD": "iCDbox"}


def constructive(rule: Rule) -> Tuple[Rule, ...]:
    """The constructive rules derived from the classical modal rule."""
    antecedent_name = _SPLIT.get(rule.name)
    if antecedent_name:
        return (rule._replace(name="i" + rule.name,
                              build=_with_succedent(rule.build)),
                rule._replace(name=antecedent_name,
                              build=_antecedent_only(rule.build)))
    return _CONSTRUCTIVE.get(rule.name, (rule._replace(name="i" + rule.name),))


_MODAL = (
    Rule("Tbox", _tbox, _ALL, contextual=True, needs=_needs(ant=[BOX])),
    Rule("Tdia", _tdia, _ALL, contextual=True, needs=_needs(suc=[DIA])),
    Rule("Mbox", _stripping("boxes", "sboxes"), needs=_needs(ant=[BOX], suc=[BOX])),
    Rule("Mdia", _stripping("dias", "sdias"), needs=_needs(ant=[DIA], suc=[DIA])),
    Rule("D", _stripping("boxes", "sdias"), needs=_needs(ant=[BOX], suc=[DIA])),
    Rule("dualandM", _stripping("boxes", "dias"), needs=_needs(ant=[BOX, DIA])),
    Rule("dualorM", _stripping("sboxes", "sdias"), needs=_needs(suc=[BOX, DIA])),
    Rule("Dbox", _stripping("boxes", pairs=True), needs=_needs(ant=[BOX])),
    Rule("Ddia", _stripping("sdias", pairs=True), needs=_needs(suc=[DIA])),
    Rule("Nbox", _stripping("sboxes"), needs=_needs(suc=[BOX])),
    Rule("Ndia", _stripping("dias"), needs=_needs(ant=[DIA])),
    Rule("Pbox", _stripping("boxes"), needs=_needs(ant=[BOX])),
    Rule("Pdia", _stripping("sdias"), needs=_needs(suc=[DIA])),
    Rule("Kbox", _kbox, needs=_needs(suc=[BOX])),
    Rule("Cbox", _cbox, needs=_needs(ant=[BOX], suc=[BOX])),
    Rule("Kdia", _kdia, needs=_needs(ant=[DIA])),
    Rule("Cdia", _cdia, needs=_needs(ant=[DIA], suc=[DIA])),
    Rule("dualandC", _dualand_c, needs=_needs(ant=[BOX, DIA])),
    Rule("dualorC", _dualor_c, needs=_needs(suc=[BOX, DIA])),
    # A box in the antecedent or a diamond in the succedent: no one kind.
    Rule("CD", _cd),
)

# Search tries the invertible rules in table order, closure first.  Each
# classical modal rule is followed by its constructive rules.
_TABLE = (
    Rule("Lbot", _lbot, _ALL, contextual=True, needs=_needs(ant=[BOT])),
    Rule("init", _init, _ALL, contextual=True,
         needs=_needs(ant=[ATOM], suc=[ATOM])),
    Rule("Land", _land, _ALL, contextual=True, needs=_needs(ant=[AND])),
    Rule("Lor", _lor, _ALL, contextual=True, needs=_needs(ant=[OR])),
    Rule("Limp", _limp, (CLASSICAL,), contextual=True,
         needs=_needs(ant=[IMP])),
    Rule("Rand", _rand, _ALL, contextual=True, needs=_needs(suc=[AND])),
    Rule("Ror", _ror, (CLASSICAL,), contextual=True, needs=_needs(suc=[OR])),
    Rule("Rimp", _rimp, _ALL, contextual=True, needs=_needs(suc=[IMP])),
) + tuple(r for rule in _MODAL for r in (rule,) + constructive(rule))
RULES = {r.name: r for r in _TABLE}
# A bit for each rule, so that a set of rules is an int.
BITS = {name: 1 << i for i, name in enumerate(RULES)}


def mask(names: Iterable[str]) -> int:
    """The set of the named rules as an int of their `BITS`."""
    m = 0
    for name in names:
        m |= BITS[name]
    return m


# The rules whose needs on the antecedent, and on the succedent, a set of
# kinds holds, by that set: at most 2**7 entries each, filled as search
# meets them.
_ANT_MEETS: Dict[FrozenSet[str], int] = {}
_SUC_MEETS: Dict[FrozenSet[str], int] = {}


def _meets(side: int, kinds: FrozenSet[str]) -> int:
    return mask(r.name for r in RULES.values() if r.needs[side] <= kinds)


def fitting(c: Shape) -> int:
    """The rules of the table whose needs c holds, as a `mask`."""
    a = _ANT_MEETS.get(c.ant_kinds)
    if a is None:
        a = _ANT_MEETS[c.ant_kinds] = _meets(0, c.ant_kinds)
    s = _SUC_MEETS.get(c.suc_kinds)
    if s is None:
        s = _SUC_MEETS[c.suc_kinds] = _meets(1, c.suc_kinds)
    return a & s


def instances(rule: Rule, c: Shape, seq: Sequent):
    """The (premises, principal) instances of rule at c that have a
    principal formula, with the premises as `Sequent`s.  seq is the
    sequent of this epoch that c classifies: backward search skips the
    instance with seq as its only premise (a T rule whose copy is already
    there), which makes no progress; `check_step` accepts it.
    """
    for prems, principal in rule.build(c):
        if principal:
            prems = tuple(Sequent(a, s, c.mode) for a, s in prems)
            if len(prems) != 1 or prems[0] is not seq:
                yield prems, principal


def backward_applications(logic: Logic, seq: Sequent) -> List[RuleInstance]:
    """All backward instances of logic's rules at seq, in a fixed order."""
    if seq.mode != logic.mode:
        raise ValueError("sequent mode %r does not match logic %s" % (seq.mode, logic))
    # Of this epoch, for the T-rule skip of `instances`.
    seq = Sequent(seq.ant, seq.suc, seq.mode)
    c = Shape(seq.mode, seq.ant, seq.suc)
    fits = fitting(c)
    return [RuleInstance(name, seq, prems, principal)
            for name in logic.rules if BITS[name] & fits
            for prems, principal in instances(RULES[name], c, seq)]


# --- forward checking ------------------------------------------------------

def check_step(logic: Logic, inst: RuleInstance) -> bool:
    """Whether inst is an instance of its rule's schema in logic: the
    premises rebuilt from its conclusion equal its premises as a multiset
    of sequents, all in the conclusion's mode.  The rebuilt premises are
    compared as normalized sides, so checking interns no sequent."""
    concl = inst.conclusion
    if (inst.rule not in logic.rules or concl.mode != logic.mode
            or any(p.mode != concl.mode for p in inst.premises)):
        return False
    rule = RULES[inst.rule]
    given = [(p.ant, p.suc) for p in inst.premises]
    if rule.contextual:
        c = Shape(concl.mode, concl.ant, concl.suc)
    else:
        c = Shape(concl.mode,
                  _candidates(concl.ant, {f for ant, _ in given for f in ant}),
                  _candidates(concl.suc, {f for _, suc in given for f in suc}))
    for prems, principal in rule.build(c):
        if principal and len(prems) == len(given):
            prems = [(norm_side(ant), norm_side(suc)) for ant, suc in prems]
            if all(prems.count(p) == given.count(p) for p in prems):
                return True
    return False


def _candidates(side, subs):
    """The formulas []A and <>A of side with A in subs, each listed twice."""
    return [f for f in side if f.kind in (BOX, DIA) and f.left in subs] * 2
