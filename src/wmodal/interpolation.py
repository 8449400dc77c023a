"""Maehara-style Craig interpolation over the constructive calculi.

Given a cut-free derivation of Γ₁,Γ₂ ⇒ Δ, the extractor computes C with
Γ₁ ⇒ C and C,Γ₂ ⇒ Δ derivable and var(C) ⊆ var(Γ₁) ∩ var(Γ₂,Δ).  The
succedent always stays with the right part.

The case table is read off the rule table of `calculus`: the closure,
propositional and T rules have a case each, and all context-free modal
rules share one (Orlandelli, Logic and Logical Philosophy 2021).
Premise interpolants are combined with top and bot absorbed, so the
interpolant certified is built free of constants wherever it can be.

Certificates are produced by re-running the prover on the two contract
sequents, never by transforming the input derivation, so an error
anywhere in the case table surfaces as a certificate failure rather than
a wrong answer.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Tuple

from . import prover, syntax
from .calculus import RULES
from .logics import Logic
from .prover import Budget, Derivation
from .sequents import CONSTRUCTIVE, Sequent
from .syntax import (DIA, Formula, bot, box, conj, dia, disj, imp, top,
                     var_set_all)


class NotATheoremError(ValueError):
    pass


class CertificateError(RuntimeError):
    """An extracted interpolant failed its own contract; this indicates a
    bug in the case table, not bad input."""


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
    if left | right != set(concl.ant):
        raise ValueError("partition does not split the conclusion antecedent")
    c = _interp(d, left)
    return _certify(logic, c, left, set(concl.ant) - left, concl.suc, budget)


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
    rseq = Sequent(set(right) | {c}, suc, CONSTRUCTIVE)
    lres = prover.prove(logic, lseq, budget)
    rres = prover.prove(logic, rseq, budget)
    if not (lres.proved and rres.proved):
        raise CertificateError("certificate re-proof failed for interpolant %s"
                               % syntax.render(c))
    if not var_set_all([c]) <= (var_set_all(left)
                                & var_set_all(list(right) + list(suc))):
        raise CertificateError("variable condition failed for interpolant %s"
                               % syntax.render(c))
    return InterpolationResult(c, lres.derivation, rres.derivation)


def _interp(d: Derivation, left: FrozenSet[Formula]) -> Formula:
    """The interpolant of d for the antecedent part left.

    Search shares subderivations, so d is a DAG whose tree unfolding can
    be exponentially larger.  The case table is a function of the node
    and its left part alone, so each such pair is computed once.
    """
    memo = {}

    def interp(node, part):
        k = (id(node), part)
        c = memo.get(k)
        if c is None:
            c = memo[k] = _case(node, part, interp)
        return c

    return interp(d, left)


# ---------------------------------------------------------------------------
# The case table.  `left` is the Γ₁ part of the node's antecedent; `interp`
# interpolates a premise.

def _case(d: Derivation, left: FrozenSet[Formula], interp) -> Formula:
    rule = d.rule
    pr = d.principal
    kids = d.children

    def sub(child, newleft):
        return interp(child, frozenset(newleft) & set(child.conclusion.ant))

    # -- closures ---------------------------------------------------------
    if rule == "init":
        return pr[0] if pr[0] in left else top
    if rule == "Lbot":
        return bot if bot in left else top

    # -- propositional ----------------------------------------------------
    if rule == "Land":
        f = pr[0]
        nl = (left - {f}) | ({f.left, f.right} if f in left else set())
        return sub(kids[0], nl)
    if rule == "Lor":
        f = pr[0]
        c1 = sub(kids[0], (left - {f}) | ({f.left} if f in left else set()))
        c2 = sub(kids[1], (left - {f}) | ({f.right} if f in left else set()))
        return _or(c1, c2) if f in left else _and(c1, c2)
    if rule == "Limp":
        f = pr[0]
        if f not in left:
            c1 = sub(kids[0], left)
            c2 = sub(kids[1], left)
            return _and(c1, c2)
        # Left-sided principal: interpolate the first premise with the
        # partition swapped, then implication-combine.
        swapped = set(kids[0].conclusion.ant) - left
        dd = sub(kids[0], swapped)
        c2 = sub(kids[1], (left - {f}) | {f.right})
        return _imp(dd, c2)
    if rule == "Rand":
        return _and(sub(kids[0], left), sub(kids[1], left))
    if rule == "Ror":
        return sub(kids[0], left)
    if rule == "Rimp":
        return sub(kids[0], left)   # the new antecedent member stays right

    # -- T rules ----------------------------------------------------------
    if rule == "iTbox":
        f = pr[0]
        nl = left | ({f.left} if f in left else set())
        return sub(kids[0], nl)
    if rule == "iTdia":
        return sub(kids[0], left)

    # -- context-free modal rules: one case for all -----------------------
    # The succedent principal comes first, present exactly when the one
    # premise has a succedent formula (see `calculus`).
    if not RULES[rule].contextual:
        premise = kids[0]
        ant = pr[1:] if premise.conclusion.suc else pr
        own = [f for f in ant if f in left]
        if not own:
            return top
        if not premise.conclusion.suc and len(own) == len(ant):
            return bot
        c = sub(premise, {f.left for f in own})
        return dia(c) if any(f.kind == DIA for f in own) else box(c)

    raise CertificateError("no interpolation case for rule %r" % rule)


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
