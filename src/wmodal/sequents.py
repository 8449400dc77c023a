"""Sequents over the bimodal language.

A sequent is a pair of finite multisets ant |- suc.  Constructive-mode
sequents keep at most one succedent formula; classical-mode sequents are
unrestricted.  Since weakening and contraction are admissible in every
calculus used here, a `Sequent` stores its sides normalized when it is
built: duplicate-free and in canonical order (`norm_side`).  Two sequents
with the same sets of formulas on each side are therefore equal, which
search caches, loop checks, step checking and certificates rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Tuple

from . import syntax
from .syntax import Formula

CLASSICAL = "classical"
CONSTRUCTIVE = "constructive"


_order = attrgetter("key")


def norm_side(fs: Iterable[Formula]) -> Tuple[Formula, ...]:
    """Duplicate-free side in a deterministic canonical order."""
    fs = tuple(fs)
    if len(fs) < 2:
        # Normalized already, as most sides built in search are.
        return fs
    return tuple(sorted(set(fs), key=_order))


@dataclass(frozen=True, slots=True)
class Sequent:
    """ant |- suc in mode.  Either side may be given as any iterable of
    formulas; it is stored normalized by `norm_side`."""

    ant: Tuple[Formula, ...]
    suc: Tuple[Formula, ...]
    mode: str
    # Search hashes every sequent it meets several times; hash it once.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (CLASSICAL, CONSTRUCTIVE):
            raise ValueError("unknown mode %r" % self.mode)
        ant, suc = norm_side(self.ant), norm_side(self.suc)
        if self.mode == CONSTRUCTIVE and len(suc) > 1:
            raise ValueError("constructive sequents have at most one succedent")
        object.__setattr__(self, "ant", ant)
        object.__setattr__(self, "suc", suc)
        object.__setattr__(self, "_hash", hash((ant, suc, self.mode)))

    def __hash__(self):
        return self._hash

    def normalized(self) -> "Sequent":
        """The sequent itself: its sides are normalized when it is built."""
        return self

    def __str__(self):
        left = ", ".join(syntax.render(f) for f in self.ant)
        right = ", ".join(syntax.render(f) for f in self.suc)
        return "%s |- %s" % (left, right)


def interpret(seq: Sequent) -> Formula:
    """Formula reading of a sequent: conj(ant) -> disj(suc).

    The empty disjunction is bot; an empty antecedent contributes no
    implication.  Both folds follow the canonical side order.
    """
    suc = seq.suc
    if not suc:
        rhs = syntax.bot
    else:
        rhs = suc[0]
        for f in suc[1:]:
            rhs = syntax.disj(rhs, f)
    ant = seq.ant
    if not ant:
        return rhs
    lhs = ant[0]
    for f in ant[1:]:
        lhs = syntax.conj(lhs, f)
    return syntax.imp(lhs, rhs)


def parse_sequent(text: str, mode: str) -> Sequent:
    """Parse "A1, A2 |- B" (either side may be empty) in the given mode."""
    ant, suc = syntax.parse_sides(text)
    return Sequent(ant, suc, mode)
