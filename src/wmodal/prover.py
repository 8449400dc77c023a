"""Terminating backward proof search over the sequent calculi.

The engine explores set-normalized sequents depth-first.  Invertible
rules are applied eagerly with commitment; the remaining rules are
choice points explored with backtracking.  Loops are cut by blocking any
rule instance whose premise already occurs on the current branch; only
failures established without such blocks are memoized globally, so the
failure cache never hides a derivation that a different branch context
would permit.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Dict, Iterable, NamedTuple, Optional, Set, Tuple

from . import calculus
from .calculus import RULES, RuleInstance, Shape
from .logics import Logic
from .sequents import CONSTRUCTIVE, Sequent
from .syntax import Formula

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
    normalized when they are built."""

    __slots__ = ("rule", "conclusion", "principal", "children", "height")

    def __init__(self, rule: str, conclusion: Sequent,
                 principal: Tuple[Formula, ...] = (),
                 children: Tuple["Derivation", ...] = ()):
        self.rule = rule
        self.conclusion = conclusion
        self.principal = principal
        self.children = children
        self.height = 1 + max((c.height for c in children), default=-1)

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
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children))

    def walk(self):
        """Yield (depth, node, label, first) for every occurrence of a
        node in the pre-order walk of the proof tree, where each distinct
        node is entered only at its first occurrence (first is True).
        label is k for the k-th node, in that order, that is a premise
        more than once, and None for the others."""
        refs = Counter(id(c) for node in self.steps() for c in node.children)
        labels = {}
        for node in self.steps():
            if refs[id(node)] > 1:
                labels[id(node)] = len(labels) + 1
        done = set()
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            first = id(node) not in done
            yield depth, node, labels.get(id(node)), first
            if first:
                done.add(id(node))
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


class ProofResult(NamedTuple):
    proved: bool
    derivation: Optional[Derivation]
    stats: SearchStats


class Engine:
    """Per-logic search engine with persistent success/failure caches."""

    def __init__(self, logic: Logic):
        self.logic = logic
        mode = logic.mode
        # (rule, commit) in the order search tries them: the invertible
        # rules in table order, closure first, committing to their first
        # unblocked instance; then the others, backtracking.
        self.rules = (
            [(r, True) for r in RULES.values()
             if r.name in logic.rules and mode in r.invertible]
            + [(RULES[name], False) for name in logic.rules
               if mode not in RULES[name].invertible])
        self.proved: Dict[Sequent, Derivation] = {}
        self.failed: Set[Sequent] = set()

    # -- public -----------------------------------------------------------
    def prove(self, seq: Sequent, budget: Budget = Budget()) -> ProofResult:
        self._nodes = 0
        self._blocks = 0
        self._max_nodes = budget.max_nodes
        self._start = time.monotonic()
        self._deadline = self._start + budget.timeout_secs
        try:
            deriv, _ = self._search(seq, set())
        finally:
            elapsed = time.monotonic() - self._start
        stats = SearchStats(self._nodes, self._blocks, elapsed)
        return ProofResult(deriv is not None, deriv, stats)

    # -- internals --------------------------------------------------------
    def _tick(self):
        self._nodes += 1
        if self._nodes > self._max_nodes:
            raise BudgetExceeded("max-nodes", self._nodes,
                                 time.monotonic() - self._start)
        if self._nodes % 64 == 0 and time.monotonic() > self._deadline:
            raise BudgetExceeded("timeout", self._nodes,
                                 time.monotonic() - self._start)

    def _search(self, seq: Sequent, anc: set):
        """Returns (derivation or None, pure).

        pure means the failure (if any) was established without any
        ancestor block, so it may be cached unconditionally.
        """
        hit = self.proved.get(seq)
        if hit is not None:
            return hit, True
        if seq in self.failed:
            return None, True
        self._tick()
        anc.add(seq)
        try:
            return self._expand(seq, anc)
        finally:
            anc.discard(seq)

    def _expand(self, seq: Sequent, anc: set):
        c = Shape(seq.mode, seq.ant, seq.suc)
        ant_kinds, suc_kinds = c.ant_kinds, c.suc_kinds
        pure = True
        for rule, commit in self.rules:
            ant_needs, suc_needs = rule.needs
            if not (ant_needs <= ant_kinds and suc_needs <= suc_kinds):
                # No principal formula here, so no instance: `Rule.fits`,
                # inlined in this loop over every rule at every node.
                continue
            for prems, principal in calculus.instances(rule, c, seq):
                if any(p in anc for p in prems):
                    pure = False
                    self._blocks += 1
                    continue
                kids = []
                kids_pure = True
                for p in prems:
                    d, p_pure = self._search(p, anc)
                    kids_pure = kids_pure and p_pure
                    if d is None:
                        break
                    kids.append(d)
                else:
                    d = Derivation(rule.name, seq, principal, tuple(kids))
                    self.proved[seq] = d
                    return d, True
                if commit:
                    # Committing to any unblocked instance of an invertible
                    # rule is complete, and a pure failure of its premises
                    # refutes the conclusion regardless of blocks among
                    # skipped instances.
                    if kids_pure:
                        self.failed.add(seq)
                    return None, kids_pure
                pure = pure and kids_pure
        if pure:
            self.failed.add(seq)
        return None, pure


_engines: Dict[str, Engine] = {}


def engine_for(logic: Logic) -> Engine:
    eng = _engines.get(logic.name)
    if eng is None:
        eng = _engines[logic.name] = Engine(logic)
    return eng


def prove(logic: Logic, seq: Sequent, budget: Budget = Budget()) -> ProofResult:
    """Decide derivability of seq in logic's calculus.

    Raises BudgetExceeded when the search budget runs out; a returned
    result is definitive either way.
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

    Each distinct node of the DAG is checked once.
    """
    for node in d.steps():
        inst = RuleInstance(node.rule, node.conclusion,
                            tuple(c.conclusion for c in node.children),
                            node.principal)
        if not calculus.check_step(logic, inst):
            return False
    return True


def clear_caches():
    _engines.clear()
