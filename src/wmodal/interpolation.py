"""Maehara-style Craig interpolation over the constructive calculi.

Given a cut-free derivation of Γ₁,Γ₂ ⇒ Δ, the extractor computes C with
Γ₁ ⇒ C and C,Γ₂ ⇒ Δ derivable and var(C) ⊆ var(Γ₁) ∩ var(Γ₂,Δ).  The
succedent always stays with the right part.

Three cases, read off the rule table of `calculus` (Troelstra &
Schwichtenberg, Basic Proof Theory, §4.4).  A closure gives its
principal if that is in the left part, else top.  A contextual rule's
premise keeps each formula of the conclusion on its side, so a
component already in the right part stays there; the formulas it adds
go to the left part if the principal is an antecedent formula
(`Rule.needs`) of the left part, else to the right.  Two premise
interpolants are joined by ∨ under a left principal, by ∧ otherwise,
except that Limp with a left principal swaps the partition for its
first premise, D, and gives D → C.  All context-free modal rules share
one case (Orlandelli, Logic and Logical Philosophy 2021).  Premise
interpolants are combined with top and bot absorbed, so the interpolant
certified is built free of constants wherever it can be.

Certificates are produced by re-running the prover on the two contract
sequents, never by transforming the input derivation, so an error in
any case surfaces as a certificate failure rather than a wrong answer.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Tuple

from . import prover, syntax
from .calculus import RULES
from .logics import Logic
from .prover import Budget, Derivation
from .sequents import CONSTRUCTIVE, Sequent
from .syntax import (DIA, Formula, bot, box, conj, dia, disj, imp, top,
                     var_set, var_set_all)


class NotATheoremError(ValueError):
    pass


class CertificateError(RuntimeError):
    """An extracted interpolant failed its own contract; this indicates a
    bug in the interpolation cases, not bad input."""


class Partition(NamedTuple):
    left: Tuple[Formula, ...]
    right: Tuple[Formula, ...]


class InterpolationResult(NamedTuple):
    interpolant: Formula
    left_certificate: Derivation
    right_certificate: Derivation


def interpolate_derivation(logic: Logic, d: Derivation, part: Partition,
                           budget: Budget = Budget()) -> InterpolationResult:
    if logic.mode != CONSTRUCTIVE:
        raise ValueError("interpolation is defined for the constructive logics")
    concl = d.conclusion
    left = frozenset(part.left)
    right = frozenset(part.right)
    if left | right != set(concl.ant) or left & right:
        raise ValueError("partition does not split the conclusion antecedent")
    c = _interp(d, left)
    return _certify(logic, c, left, right, concl.suc, budget)


def craig(logic: Logic, a: Formula, b: Formula,
          budget: Budget = Budget()) -> InterpolationResult:
    """Interpolant for the theorem a -> b."""
    if logic.mode != CONSTRUCTIVE:
        raise ValueError("interpolation is defined for the constructive logics")
    res = prover.prove(logic, Sequent((a,), (b,), CONSTRUCTIVE), budget)
    if not res.proved:
        raise NotATheoremError("%s -> %s is not a theorem of %s"
                               % (syntax.render(a), syntax.render(b), logic.name))
    return interpolate_derivation(logic, res.derivation, Partition((a,), ()),
                                  budget)


def _certify(logic, c, left, right, suc, budget) -> InterpolationResult:
    lseq = Sequent(left, (c,), CONSTRUCTIVE)
    rseq = Sequent((*right, c), suc, CONSTRUCTIVE)
    lres = prover.prove(logic, lseq, budget)
    rres = prover.prove(logic, rseq, budget)
    if not (lres.proved and rres.proved):
        raise CertificateError("certificate re-proof failed for interpolant %s"
                               % syntax.render(c))
    if not var_set(c) <= var_set_all(left) & var_set_all((*right, *suc)):
        raise CertificateError("variable condition failed for interpolant %s"
                               % syntax.render(c))
    return InterpolationResult(c, lres.derivation, rres.derivation)


def _interp(d: Derivation, left: FrozenSet[Formula]) -> Formula:
    """The interpolant of d for the antecedent part left.

    Search shares subderivations, so d is a DAG whose tree unfolding can
    be exponentially larger.  A case is a function of the node and its
    left part alone, so each such pair is computed once.  The cases sit
    in the recursion itself, which takes one Python frame per level, as
    search does.
    """
    memo = {}

    def interp(d, left):
        k = (d, left)
        c = memo.get(k)
        if c is not None:
            return c
        pr = d.principal
        kids = d.children
        rule = RULES[d.rule]
        if not kids:
            # init and Lbot: the principal is the atom, or bot, that closes.
            c = pr[0] if pr[0] in left else top
        elif rule.contextual:
            # The formulas a premise adds go with an antecedent principal
            # of the left part; every other formula keeps its side.
            own = bool(rule.needs[0]) and pr[0] in left
            ant = d.conclusion.ant
            parts = [frozenset(g for g in kid.conclusion.ant
                               if g in left or own and g not in ant)
                     for kid in kids]
            if own and d.rule == "Limp":
                # The first premise proves the principal's antecedent: it
                # is interpolated with the partition swapped.
                parts[0] = frozenset(kids[0].conclusion.ant) - parts[0]
                join = _imp
            else:
                join = _or if own else _and
            c = interp(kids[0], parts[0])
            if len(kids) > 1:
                c = join(c, interp(kids[1], parts[1]))
        else:
            # Context-free modal rules.  The succedent principal comes
            # first, present exactly when the one premise has a succedent
            # formula (see `calculus`).
            premise = kids[0]
            ant = pr[1:] if premise.conclusion.suc else pr
            own = [f for f in ant if f in left]
            if not own:
                c = top
            elif not premise.conclusion.suc and len(own) == len(ant):
                c = bot
            else:
                c = interp(premise, frozenset([f.left for f in own]))
                c = dia(c) if any(f.kind == DIA for f in own) else box(c)
        memo[k] = c
        return c

    return interp(d, left)


# The connectives that combine premise interpolants absorb top and bot, so
# an interpolant is built free of constants wherever it can be.

def _and(a: Formula, b: Formula) -> Formula:
    if a is top:
        return b
    if b is top:
        return a
    if a is bot or b is bot:
        return bot
    return conj(a, b)


def _or(a: Formula, b: Formula) -> Formula:
    if a is bot:
        return b
    if b is bot:
        return a
    if a is top or b is top:
        return top
    return disj(a, b)


def _imp(a: Formula, b: Formula) -> Formula:
    if a is bot or b is top:
        return top
    if a is top:
        return b
    return imp(a, b)
