"""Terminating backward proof search over the sequent calculi.

The engine explores set-normalized sequents depth-first.  Invertible
rules are applied eagerly with commitment; the remaining rules are
choice points explored with backtracking, one Python frame per branch
level.  Loops are cut by `Sequent.on_branch`, which marks the nodes of
the current branch: an instance with a marked premise is blocked.
Threads share the interned sequents, so one search runs at a time, under
`_lock`, as `clear_caches` does; scans of the sequents (`clear_caches`,
`cache_sizes`, `proved`, `failed`) need the other threads idle.  The
rules tried at a node are looked up by the formula kinds of its sides
(`calculus.fitting`).

Two steps commit at once, and certify with the paper's rules alone:

- identity: a node, in either mode, whose succedent formula D is
  compound and also in its antecedent is closed by a derivation built in
  place, not searched: one loop over pairs of a sequent and a formula g
  it holds on both sides, from the node and D, closes an atom by init,
  bot by Lbot, a propositional g by its rule on each side, the first on
  g at the sequent and the second on g in each premise, whose premises
  each hold a component of g on both sides, and []A or <>A at the
  sequent itself, which the rule takes as any context, by the logic's
  first rule without context whose instance at g |- g has the one
  premise A |- A.  Every logic of the catalogue has one for each
  modality: Mbox and Mdia, Cbox and Cdia, or Kbox and Kdia, and their
  constructive rules.  Each sequent the loop meets, of a pair, a first
  rule's premise or A |- A, is looked up first (`_stored`), and each
  node it builds is kept on its sequent, like any derivation, until
  `clear_caches`; so a proof has one node per sequent.  Where nothing
  stored is reused, the node's derivation is D |- D's weakened to the
  node: the same rule on the same principal at each step, with the
  node's context kept in every premise of a contextual rule.  The step
  closes only derivable nodes, with a derivation, and changes no
  verdict;
- modus ponens: a constructive node S = G |- D whose antecedent holds
  A -> B and A commits to constructive Limp on A -> B, once Lbot, init,
  Land and Lor do not apply, and before the succedent's rules would
  split D.  Its left premise G |- A is closed by A's identity (init for
  an atom), and only its right premise R, G with B for A -> B, is
  searched.  This is complete because constructive Limp is
  height-preserving invertible in its right premise in every
  constructive calculus here: from G', A -> B |- D derived in height h,
  G', B |- D is derived in height at most h.  By induction on h: where
  A -> B is the last rule's principal, its right premise is that
  sequent; the other propositional rules and iTbox, iTdia keep A -> B
  in each premise's antecedent (Limp keeps its whole antecedent in the
  left premise), so replace it there and apply the same rule; init and
  Lbot stay axioms; and a rule without context has modal principals and
  takes any context.  So S derivable in a logic makes R derivable there,
  and a failure of R refutes S: it is stored with Limp's bit in C, as
  any commit's failure.  An instance whose R is on the branch is
  blocked; search tries the next, and backtracks over Limp as before
  once none is left.  Searching
  the left premise instead is incomplete (the search meets S again as a
  loop block), and committing only for an atomic A (Dyckhoff,
  "Contraction-free sequent calculi for intuitionistic logic", JSL 1992)
  leaves large consequents to the backtracking.  For the inversion see
  Troelstra & Schwichtenberg, "Basic Proof Theory" (2nd ed. 2000), the
  G3ip inversion lemmas.

The classical T rules keep their principal, so Tbox and Tdia would fire
again once the copy they added has been decomposed.  Search applies
each at most once per principal on a segment of the branch, the nodes
below the last rule without context: the history, the principals of
Tbox and Tdia applied in the segment, goes down the branch, and an
instance on one of them is skipped (Heuerding, Seyfried & Zimmermann,
"Efficient loop-check for backward proof search in some non-classical
propositional logics", TABLEAUX 1996).  A skip loses no derivation.
Every classical propositional and T rule keeps its context and is
height-preserving invertible, and contraction is height-preserving
admissible.  Let Tbox on []A be applied in the segment above a node S.
Each rule between keeps A or, with A as principal, puts its components
in the premise on the branch, and so on down; S holds the branch residue
of A, the formulas A was so decomposed into.  Inverting those rules
turns a derivation of S plus A in the antecedent into one of S, no
higher.  So the skipped instance, whose premise is S plus A, ends no
derivation of S of least height.  Tdia on <>A is the dual case, with A
in the succedent.  That is a property of S, in every classical logic
and on every branch: a failure found under a history is as pure as one
found without.

iTbox goes into the history too, by the antecedent half of that
argument.  Each constructive contextual rule keeps its conclusion's
antecedent in its premises, or replaces its principal there by
components through a premise for which it is height-preserving
invertible: Land, Lor, and Limp's right premise; Limp's left premise
keeps the whole antecedent.  So if iTbox on []A was applied in the
segment above S, S's antecedent holds the branch residue of A, and
inverting those rules turns a derivation of S with A added to its
antecedent into one of S, no higher.  iTdia stays out: it drops <>A
from the succedent, where the constructive rules are not invertible.

The 14 logics of a mode share the results search keeps on each sequent
(`Sequent.found`), sets of rules being ints of `calculus.BITS`:

- a derivation records the rules it uses, and serves every logic that
  has them all;
- a pure failure, one established without any ancestor block, found by
  logic L records F, every rule that fits some node of the failed
  subtree, and C, the invertible rules L committed to.  It serves L''
  when rules(L'') & F <= rules(L) and C <= rules(L'').

By induction over the failed subtree, no node of it is derivable in
L''.  Suppose one were, and take a derivation of it in L'' of least
height.  Where L did not commit, the derivation's last rule fits the
node, so L has it.  L tried each instance of that rule, finding a
failed premise in each, but for those it skipped as T instances on a
principal of the history; by the argument above, in L'' as in any
logic of the mode, none of those ends a derivation of least height.
Where L committed, the rule is invertible in L'' too, or, for modus
ponens, Limp in its right premise, so the failed premise would be
derivable.  A failure that reuses another takes the union of
their F and C, and a derivation built on another the union of their
rules, so reuse composes.  A failure below a loop block is not stored:
another branch context may permit a derivation there.

A constructive logic WL is the single-succedent restriction of its base
L = `LOGICS[WL.base]`, so a derivation of a sequent in WL becomes one of
the same sequent in L once weakening and contraction, both admissible
in L, are added.  Each rule of WL maps to one of L:

- the renamed modal rules (iMbox, iTbox, ...), iKdia and iCD: on a
  conclusion with at most one succedent formula the classical rule has
  the same premises;
- idualandK and iCDbox: Kdia and CD, whose premise also holds the
  subformulas of the succedent diamonds; weaken them in;
- iTdia and constructive Ror: Tdia and classical Ror, whose premise is
  the constructive one weakened by the principal or the other disjunct;
- constructive Limp, with premises G, A->B |- A and G, B |- D: invert
  classical Limp in the first (height-preserving) to G |- A, A, contract
  to G |- A and weaken to G |- D, A, classical Limp's left premise;
- the other propositional rules are the same in both modes.

So a failure on the classical twin of a sequent S, the sequent of this
epoch with S's sides, that serves a logic refutes S in that logic's
constructive counterpart.  A constructive rule corresponds to a classical
rule when, over the 14 pairs of a logic and its constructive
counterpart, the classical rule is in the one exactly when the
constructive rule is in the other: iMbox, iMdia and idualandM to each of
Mbox, Mdia, dualandM and dualorM, iTbox and iTdia to Tbox and Tdia, every
propositional rule to every other.  A classical rule without one would
correspond to every rule.  After S's own results miss, search looks the
twin up (`sequents.interned`, which interns nothing); if a failure
(F, X, C) kept there serves L, S fails at once with (F', X', C'), F' = X'
the rules corresponding to those of X and C' those corresponding to
those of C.  No rule of X is in L, so none of X' is in WL, and WL's
`_fail` keeps X' as it is.  Let (F', X', C') serve W'' with base B''.  A
rule of X in B'' would put its corresponding rules, in X', in W''; a
rule of C outside B'' would keep its corresponding rules, in C', out of
W''.  So (F, X, C) serves B'', the twin is underivable in B'', and S in
W''.  (Were X' or C' every rule, the failure would serve only logics
whose rules are all WL's, or none.)  That is all the induction above
asks of a failed premise, so the triple composes with its parents.  A
twin refutation is counted apart (`SearchStats.twin_refutations`), not
as a node: it costs no budget and never marks S on the branch.
"""

from __future__ import annotations

import _thread
import sys
import time
from collections import Counter
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

from . import calculus, sequents, syntax
from .calculus import RULES, RuleInstance, Shape
from .logics import LOGICS, Logic
from .sequents import CLASSICAL, CONSTRUCTIVE, Sequent
from .syntax import AND, ATOM, BOT, IMP, OR, Formula

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

DEFAULT_MAX_NODES = 1_000_000
DEFAULT_TIMEOUT_SECS = 30.0


class _Budget(NamedTuple):
    max_nodes: int = DEFAULT_MAX_NODES
    timeout_secs: float = DEFAULT_TIMEOUT_SECS


class Budget(_Budget):
    __slots__ = ()

    def __new__(cls, max_nodes: int = DEFAULT_MAX_NODES,
                timeout_secs: float = DEFAULT_TIMEOUT_SECS):
        # `not x >= 0` also rejects NaN
        for name, value in (("max_nodes", max_nodes),
                            ("timeout_secs", timeout_secs)):
            if not value >= 0:
                raise ValueError("%s must be 0 or more: %r" % (name, value))
        return super().__new__(cls, max_nodes, timeout_secs)


class BudgetExceeded(Exception):
    def __init__(self, reason: str, nodes: int, elapsed: float):
        super().__init__("budget exceeded (%s) after %d nodes, %.2fs"
                         % (reason, nodes, elapsed))
        self.reason = reason
        self.nodes = nodes
        self.elapsed = elapsed


class Derivation:
    """A derivation tree; its conclusions are `Sequent`s, whose sides are
    normalized when they are built.  mask holds the bit
    (`calculus.BITS`) of every rule it uses."""

    __slots__ = ("rule", "conclusion", "principal", "children", "mask")

    def __init__(self, rule: str, conclusion: Sequent,
                 principal: Tuple[Formula, ...] = (),
                 children: Tuple["Derivation", ...] = ()):
        self.rule = rule
        self.conclusion = conclusion
        self.principal = principal
        self.children = children
        mask = calculus.BITS.get(rule, 0)
        for c in children:
            mask |= c.mask
        self.mask = mask

    def __repr__(self):
        return "Derivation(%s; %s)" % (self.rule, self.conclusion)

    def steps(self):
        """Each distinct node once, in pre-order of first occurrence.

        Search shares subderivations, so a derivation is a DAG whose tree
        unfolding can be exponentially larger.
        """
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            stack.extend(reversed(node.children))

    def walk(self):
        """Yield (depth, node, label, first) for every occurrence of a
        node in the pre-order walk of the proof tree, where each distinct
        node is entered only at its first occurrence (first is True).
        label is k for the k-th node, in that order, that is a premise
        more than once, and None for the others."""
        refs = Counter(c for node in self.steps() for c in node.children)
        labels = {}
        for node in self.steps():
            if refs[node] > 1:
                labels[node] = len(labels) + 1
        done = set()
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            first = node not in done
            yield depth, node, labels.get(node), first
            if first:
                done.add(node)
                stack.extend((depth + 1, c) for c in reversed(node.children))

    def pretty(self) -> str:
        """One sequent per line, premises indented under their conclusion.
        A shared subderivation is printed once, tagged #k; later
        occurrences refer to it as [see #k]."""
        lines = []
        for depth, node, label, first in self.walk():
            pad = "  " * depth
            if first:
                tag = "" if label is None else "   #%d" % label
                lines.append("%s%s   [%s]%s" % (pad, node.conclusion,
                                                node.rule, tag))
            else:
                lines.append("%s%s   [see #%d]" % (pad, node.conclusion, label))
        return "\n".join(lines)


class SearchStats(NamedTuple):
    nodes: int = 0
    loop_blocks: int = 0
    elapsed: float = 0.0
    twin_refutations: int = 0
    mp_commits: int = 0


class ProofResult(NamedTuple):
    proved: bool
    derivation: Optional[Derivation]
    stats: SearchStats


# The stats of a goal that its results answer without search, the result
# when they answer with a failure, and when a failure kept on the goal's
# classical twin refutes it.
_UNSEARCHED = SearchStats()
_REFUTED = ProofResult(False, None, _UNSEARCHED)
_TWIN_REFUTED = ProofResult(False, None, SearchStats(twin_refutations=1))


# A pure failure, as `Sequent.found` keeps it: (F, X, C), where F holds
# the rules that fit some node of the failed subtree, X those of F that
# the failing logic lacks, and C the invertible rules it committed to.
Failure = Tuple[int, int, int]

# Few distinct failures and `found` tuples occur: keep one of each.
_shared: Dict[tuple, tuple] = {}
_set = object.__setattr__

# The history of a goal, and of the premise of a rule without context.
_NO_HISTORY: frozenset = frozenset()
_lock = _thread.allocate_lock()     # one search at a time

_EVERY_RULE = calculus.mask(RULES)

# The rule that closes a sequent holding an atom, or bot, on both sides.
_AXIOM = {ATOM: "init", BOT: "Lbot"}
# D |- D for a propositional D: the first rule on D, then the second on D
# in each premise, whose premises each hold a component of D on both sides.
_ID_RULES = {AND: ("Land", "Rand"), OR: ("Lor", "Ror"), IMP: ("Rimp", "Limp")}


def _instance(name: str, seq: Sequent, g: Formula,
              keep: Optional[Formula] = None):
    """The premises and the principal of the named rule's instance at seq
    on g; of constructive Ror's, which name the disjunct they keep, the
    one that keeps keep."""
    for prems, p in RULES[name].build(Shape(seq.mode, seq.ant, seq.suc)):
        if p[0] is g and p[1:] in ((), (keep,)):
            return [Sequent(a, s, seq.mode) for a, s in prems], p
    raise ValueError("%s has no instance on %r" % (name, g))


def _correspondence() -> Dict[int, int]:
    """The bit of each classical rule, mapped to the constructive rules
    that correspond to it (module docstring), or to every rule if none
    does."""
    # The catalogue pairs, by their constructive logic, whose classical
    # or constructive logic has each rule.
    classical: Dict[str, set] = {}
    constructive: Dict[str, set] = {}
    for w in LOGICS.values():
        if w.mode == CONSTRUCTIVE:
            for name in LOGICS[w.base].rules:
                classical.setdefault(name, set()).add(w.name)
            for name in w.rules:
                constructive.setdefault(name, set()).add(w.name)
    by_pairs: Dict[frozenset, int] = {}
    for name, where in constructive.items():
        key = frozenset(where)
        by_pairs[key] = by_pairs.get(key, 0) | calculus.BITS[name]
    return {calculus.BITS[name]: by_pairs.get(frozenset(where), _EVERY_RULE)
            for name, where in classical.items()}


_CORRESPONDING = _correspondence()
# Few distinct X and C of failures on twins occur: translate each once.
_translations: Dict[Tuple[int, int], Tuple[int, int]] = {}


def _translated(x: int, c: int) -> Tuple[int, int]:
    """The rules corresponding to those of x, and to those of c."""
    t = _translations.get((x, c))
    if t is None:
        tx = tc = 0
        for bit, rules in _CORRESPONDING.items():
            if bit & x:
                tx |= rules
            if bit & c:
                tc |= rules
        t = _translations[x, c] = tx, tc
    return t


class Engine:
    """Search engine of one logic over the results of its mode."""

    def __init__(self, logic: Logic):
        self.logic = logic
        mode = logic.mode
        # (rule, bit, commit) in the order search tries them: the
        # invertible rules in table order, closure first, committing to
        # their first unblocked instance; then the others, backtracking.
        rules = (
            [(r, True) for r in RULES.values()
             if r.name in logic.rules and mode in r.invertible]
            + [(RULES[name], False) for name in logic.rules
               if mode not in RULES[name].invertible])
        if mode == CONSTRUCTIVE:
            # Modus ponens after Land and Lor, the invertible rules on the
            # antecedent, before those on the succedent (module docstring).
            rules.insert(rules.index((RULES["Lor"], True)) + 1,
                         (RULES["Limp"]._replace(build=self._modus_ponens),
                          True))
        self.rules = [(r, calculus.BITS[r.name], commit)
                      for r, commit in rules]
        self.mask = calculus.mask(logic.rules)
        # A constructive logic's base, whose failures on a classical twin
        # refute (module docstring); 0 in a classical logic.
        self._twin_mask = (calculus.mask(LOGICS[logic.base].rules)
                           if mode == CONSTRUCTIVE else 0)
        # The rules whose principals go into the history: the classical
        # T rules, which keep their principal, and iTbox.
        self._t_rules = calculus.mask(("Tbox", "Tdia", "iTbox")) & self.mask
        # The rule without context that strips the modality of a modal
        # identity, with the length of its principal, by kind: the first
        # whose instance at m |- m, m = []A or <>A, has the one premise
        # A |- A.  Which rule that is does not depend on A, here bot, and
        # the instance's principals are all m.  Read off the rule table,
        # it interns no sequent.
        self._strips: Dict[str, Tuple[str, int]] = {m.kind: next(
            (name, len(principal)) for name in logic.rules
            if not RULES[name].contextual
            for prems, principal in RULES[name].build(Shape(mode, (m,), (m,)))
            if [tuple(map(tuple, p)) for p in prems] == [((m.left,),) * 2])
            for m in (syntax.box(syntax.bot), syntax.dia(syntax.bot))}
        # `_steps` by the rules of this logic that fit a conclusion, filled
        # as search meets them; it holds no search result.
        self._table: Dict[int, tuple] = {}

    # -- public -----------------------------------------------------------
    # The interned sequents whose derivation, or failure, serves this logic.
    proved = property(lambda self: self._served(0))
    failed = property(lambda self: self._served(1))

    def prove(self, seq: Sequent, budget: Budget = Budget()) -> ProofResult:
        # A kept goal is the only retired sequent that can reach search.
        if seq.found is None:
            seq = Sequent(seq.ant, seq.suc, seq.mode)
        found = self._stored(seq)
        if found is not None:
            d = found[0]
            return _REFUTED if d is None else ProofResult(True, d, _UNSEARCHED)
        with _lock:
            # A twin refutation at the root needs none of search's set-up.
            if self._twin_mask and self._twin_failure(seq) is not None:
                return _TWIN_REFUTED
            self._nodes = self._blocks = self._twins = self._mps = 0
            self._max_nodes = budget.max_nodes
            self._start = time.monotonic()
            self._deadline = self._start + budget.timeout_secs
            deriv, _ = self._search(seq, _NO_HISTORY)
            stats = SearchStats(self._nodes, self._blocks,
                                time.monotonic() - self._start, self._twins,
                                self._mps)
        return ProofResult(deriv is not None, deriv, stats)

    # -- internals --------------------------------------------------------
    def _stored(self, seq: Sequent, mask: int = 0):
        """(derivation, None) or (None, failure) for an entry of seq.found
        that serves this logic, or the logic of the rules in mask: a
        derivation when the logic has all its rules, a failure when it has
        none of X and all of C; never both kinds.  Else None."""
        mask = mask or self.mask
        for x in seq.found:
            if x.__class__ is Derivation:
                if not x.mask & ~mask:
                    return x, None
            elif not (x[1] & mask or x[2] & ~mask):
                return None, x
        return None

    def _twin_failure(self, seq: Sequent) -> Optional[Failure]:
        """When a failure kept on seq's classical twin serves the base
        logic, which refutes seq in this one (module docstring), the
        failure then stored on seq; else None."""
        twin = sequents.interned(seq.ant, seq.suc, CLASSICAL)
        if twin is not None:
            found = self._stored(twin, self._twin_mask)
            if found is not None and found[0] is None:
                e = found[1]
                return self._fail(seq, *_translated(e[1], e[2]))
        return None

    def _served(self, i: int) -> set:
        mode = self.logic.mode
        return {seq for seq in sequents._intern.values()
                if seq.mode == mode and (self._stored(seq) or (None, None))[i]}

    def _tick(self):
        self._nodes += 1
        if self._nodes > self._max_nodes:
            raise BudgetExceeded("max-nodes", self._nodes,
                                 time.monotonic() - self._start)
        if self._nodes % 64 == 0 and time.monotonic() > self._deadline:
            raise BudgetExceeded("timeout", self._nodes,
                                 time.monotonic() - self._start)

    def _steps(self, fits: int) -> tuple:
        """This logic's (rule, bit, commit) whose rule is in fits."""
        fits &= self.mask
        steps = self._table.get(fits)
        if steps is None:
            steps = self._table[fits] = tuple(s for s in self.rules
                                              if s[1] & fits)
        return steps

    def _search(self, seq: Sequent, history: frozenset):
        """Returns (derivation, None), or (None, failure) for a pure
        failure, one established without any ancestor block, which may
        be stored, or (None, None) for any other failure.  history holds
        the principals of the classical T rules applied since the last
        rule without context above seq: an instance of Tbox or Tdia on
        one of them is skipped, which neither blocks nor makes the
        failure impure (module docstring).  seq is marked `on_branch`
        from `_tick` until it returns or raises."""
        found = self._stored(seq)
        if found is not None:
            return found
        if self._twin_mask:
            e = self._twin_failure(seq)
            if e is not None:
                self._twins += 1
                return None, e
        self._tick()
        try:
            _set(seq, "on_branch", True)
            c = Shape(seq.mode, seq.ant, seq.suc)
            # Identity: a compound succedent formula in the antecedent.
            if seq.ant:
                for f in seq.suc:
                    if f.kind not in _AXIOM and f in c.ant_set:
                        return self._closed(seq, f), None
            fits = calculus.fitting(c)
            # The union of the failed premises' F and C, for a pure failure.
            f_all, c_all = fits, 0
            pure = True
            for rule, bit, commit in self._steps(fits):
                # A rule without context starts a new segment.
                below = history if rule.contextual else _NO_HISTORY
                for prems, principal in calculus.instances(rule, c, seq):
                    if bit & self._t_rules:
                        t = principal[0]
                        if t in history:
                            continue
                        below = history | {t}
                    if any(p.on_branch for p in prems):
                        pure = False
                        self._blocks += 1
                        continue
                    kids = []
                    for p in prems:
                        d, e = self._search(p, below)
                        if d is None:
                            break
                        kids.append(d)
                    else:
                        return self._derive(rule.name, seq, principal,
                                            tuple(kids)), None
                    if commit:
                        # Committing to an unblocked instance of an
                        # invertible rule is complete; a pure failure of its
                        # premises refutes the conclusion whatever was blocked.
                        if e is None:
                            return None, None
                        return None, self._fail(seq, fits | e[0], bit | e[2])
                    if e is None:
                        pure = False
                    elif pure:
                        f_all |= e[0]
                        c_all |= e[2]
            if pure:
                return None, self._fail(seq, f_all, c_all)
            return None, None
        finally:
            # A mark left behind would block instances in later searches.
            _set(seq, "on_branch", False)

    def _modus_ponens(self, c: Shape):
        """The builder of the modus-ponens step: the instances of
        constructive Limp on an A -> B whose A is in c's antecedent.
        Their left premise holds A on both sides, so the identity step,
        or init for an atom, closes it at once."""
        for prems, principal in RULES["Limp"].build(c):
            if principal[0].left in c.ant_set:
                self._mps += 1
                yield prems, principal

    def _closed(self, seq: Sequent, f: Formula) -> Derivation:
        """A derivation of seq, which holds f, compound, on both sides.  It
        is built in place in one loop over pairs of a sequent and a formula
        g it holds on both sides, children before parents, so a deep f
        takes no deep recursion (module docstring).  Each sequent the loop
        meets is looked up first (`_stored`), and each node it builds is
        kept on its conclusion, so a proof has one node per sequent.  A
        derivable sequent keeps no failure that serves this logic."""
        proof = lambda q: (self._stored(q) or (None,))[0]
        todo = [(seq, f)]
        while todo:
            q, g = todo.pop()
            if proof(q) is not None:
                continue
            wait = []               # the pairs to close before q
            if g.kind in _AXIOM:
                self._derive(_AXIOM[g.kind], q, (g,))
            elif g.kind in _ID_RULES:
                first, second = _ID_RULES[g.kind]
                parts = g.left, g.right
                kids = []
                for i, p in enumerate(_instance(first, q, g)[0]):
                    d = proof(p)
                    if d is None:
                        prems, pr = _instance(second, p, g, parts[i])
                        subs = tuple(map(proof, prems))
                        # One of i and j is 0: one rule has one premise.
                        wait += [(r, parts[i + j]) for j, r in enumerate(prems)
                                 if subs[j] is None]
                        if not wait:
                            d = self._derive(second, p, pr, subs)
                    kids.append(d)
                if not wait:
                    self._derive(first, q, (g,), tuple(kids))
            else:
                a = Sequent((g.left,), (g.left,), q.mode)
                d = proof(a)
                if d is None:
                    wait.append((a, g.left))
                else:
                    # A rule without context takes any context.
                    name, n = self._strips[g.kind]
                    self._derive(name, q, (g,) * n, (d,))
            if wait:
                todo += [(q, g)] + wait
        return proof(seq)

    def _derive(self, rule: str, seq: Sequent, principal: Tuple[Formula, ...],
                kids: Tuple[Derivation, ...] = ()) -> Derivation:
        """A derivation of seq by rule from kids, kept on seq."""
        d = Derivation(rule, seq, principal, kids)
        _set(seq, "found", seq.found + (d,))
        return d

    def _fail(self, seq: Sequent, fitted: int, committed: int) -> Failure:
        share = _shared.setdefault
        e = (fitted, fitted & ~self.mask, committed)
        e = share(e, e)
        found = seq.found + (e,)
        _set(seq, "found", share(found, found))
        return e


_engines: Dict[str, Engine] = {}


def engine_for(logic: Logic) -> Engine:
    eng = _engines.get(logic.name)
    if eng is None:
        eng = _engines[logic.name] = Engine(logic)
    return eng


def prove(logic: Logic, seq: Sequent, budget: Budget = Budget()) -> ProofResult:
    """Decide derivability of seq in logic's calculus.

    Raises BudgetExceeded when the search budget runs out; a returned
    result is definitive either way.  A goal whose results already
    answer for logic is returned without search, with zero stats,
    whatever the budget.
    """
    if (seq.mode == CONSTRUCTIVE) != (logic.mode == CONSTRUCTIVE):
        raise ValueError("sequent mode %r does not match logic %s"
                         % (seq.mode, logic.name))
    return engine_for(logic).prove(seq, budget)


def goal(logic: Logic, f: Formula) -> Sequent:
    return Sequent((), (f,), logic.mode)


def decide(logic: Logic, f: Formula, budget: Budget = Budget()) -> bool:
    """True when f is a theorem of logic."""
    return prove(logic, goal(logic, f), budget).proved


def prove_from(logic: Logic, assumptions: Iterable[Formula], f: Formula,
               budget: Budget = Budget()) -> ProofResult:
    return prove(logic, Sequent(assumptions, (f,), logic.mode), budget)


def check(logic: Logic, d: Derivation) -> bool:
    """Forward-check every step of d against logic's calculus.

    Each distinct node of the DAG is checked once, and no sequent is
    interned.
    """
    for node in d.steps():
        inst = RuleInstance(node.rule, node.conclusion,
                            tuple(c.conclusion for c in node.children),
                            node.principal)
        if not calculus.check_step(logic, inst):
            return False
    return True


def clear_caches():
    """Forget every derivation and failure found so far, and every
    interned sequent: a new epoch begins (`sequents.new_epoch`).  A
    sequent or derivation kept from an earlier epoch stays valid; its
    sequents equal, but are not, those built after, and a kept goal is
    searched again."""
    with _lock:
        sequents.new_epoch()
        _shared.clear()


def cache_sizes() -> Dict[str, int]:
    """The entries each cache holds: interned formulas, which live for
    the process, sequents interned since the last `clear_caches()`, the
    derivations and failures found for them, by mode, and the engines,
    one per logic searched, which live for the process too."""
    sizes = {"formulas": len(syntax._intern),
             "sequents": len(sequents._intern)}
    for mode in (CLASSICAL, CONSTRUCTIVE):
        sizes[mode + ".proved"] = sizes[mode + ".failed"] = 0
    for seq in sequents._intern.values():
        for x in seq.found:
            kind = ".proved" if x.__class__ is Derivation else ".failed"
            sizes[seq.mode + kind] += 1
    sizes["engines"] = len(_engines)
    return sizes
