"""Sequents over the bimodal language.

A sequent is a pair of finite multisets ant |- suc.  Constructive-mode
sequents keep at most one succedent formula; classical-mode sequents are
unrestricted.  Since weakening and contraction are admissible in every
calculus used here, a `Sequent` stores its sides normalized when it is
built: duplicate-free and in canonical order (`norm_side`).  Two sequents
with the same sets of formulas on each side are therefore equal, which
search caches, loop checks, step checking and certificates rely on.

Sequents are hash-consed per epoch, as formulas are for good: building
a sequent equal to one built since the last `prover.clear_caches()`
returns that object, which search finds by identity and whose `found`
field keeps what search found about it (Filliâtre & Conchon, "Type-safe
modular hash-consing", ML 2006).  `new_epoch` retires every interned
sequent and empties the table.  Equality stays structural, so a retired
sequent still equals, and finds as a key, its twin of this epoch.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter
from typing import Iterable, Optional, Tuple

from . import syntax
from .syntax import Formula

CLASSICAL = "classical"
CONSTRUCTIVE = "constructive"


_order = attrgetter("key")
_set = object.__setattr__


def norm_side(fs: Iterable[Formula]) -> Tuple[Formula, ...]:
    """Duplicate-free side in a deterministic canonical order."""
    fs = tuple(fs)
    if len(fs) < 2:
        # Normalized already, as most sides built in search are.
        return fs
    return tuple(sorted(set(fs), key=_order))


# The sequents built in this epoch, by (ant, suc, mode) with normalized
# sides; `new_epoch` retires them and empties it.
_intern: dict = {}


class Sequent:
    """ant |- suc in mode.  Either side may be given as any iterable of
    formulas; it is stored normalized by `norm_side`.  Equal only to a
    `Sequent` with the same sides and mode.  Interned until the next
    `prover.clear_caches()`: within an epoch, equal sequents are the same
    object.  Immutable but for `found`, the derivations and failures
    search found for it this epoch, in that order, or None once retired,
    and `on_branch`, true while it is on search's current branch; only
    `prover` writes them, and equality, hashing and pickling ignore them."""

    # No stored hash: `__hash__` reads the fields; search hashes no sequent.
    __slots__ = ("ant", "suc", "mode", "found", "on_branch")

    def __new__(cls, ant: Iterable[Formula], suc: Iterable[Formula],
                mode: str):
        ant, suc = norm_side(ant), norm_side(suc)
        key = (ant, suc, mode)
        seq = _intern.get(key)
        if seq is not None:
            return seq
        # Only a valid sequent enters the table, so a hit needs no check.
        if mode not in (CLASSICAL, CONSTRUCTIVE):
            raise ValueError("unknown mode %r" % mode)
        if mode == CONSTRUCTIVE and len(suc) > 1:
            raise ValueError("constructive sequents have at most one succedent")
        seq = object.__new__(cls)
        _set(seq, "ant", ant)
        _set(seq, "suc", suc)
        _set(seq, "mode", mode)
        _set(seq, "found", ())
        _set(seq, "on_branch", False)
        # Atomic, as the key hashes in C: threads get one object.
        return _intern.setdefault(key, seq)

    def __setattr__(self, name, value=None):
        # Imported here: `dataclasses` loads `inspect` and `ast`, which
        # would cost every one-shot CLI call more than `sequents` itself.
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    # Structural, for a sequent that outlives a `prover.clear_caches()`;
    # within an epoch, dict and set lookups match by identity first.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ant == other.ant and self.suc == other.suc
                and self.mode == other.mode)

    def __hash__(self):
        return hash((self.ant, self.suc, self.mode))

    def __reduce__(self):
        return Sequent, (self.ant, self.suc, self.mode)

    def __repr__(self):
        return "Sequent(ant=%r, suc=%r, mode=%r)" % (self.ant, self.suc,
                                                     self.mode)

    def normalized(self) -> "Sequent":
        """The sequent itself: its sides are normalized when it is built."""
        return self

    def __str__(self):
        left = ", ".join(syntax.render(f) for f in self.ant)
        right = ", ".join(syntax.render(f) for f in self.suc)
        return "%s |- %s" % (left, right)


def interned(ant: Tuple[Formula, ...], suc: Tuple[Formula, ...],
             mode: str) -> Optional[Sequent]:
    """The sequent of this epoch with the normalized sides ant and suc in
    mode, or None; unlike `Sequent`, it builds none."""
    return _intern.get((ant, suc, mode))


def new_epoch():
    """Retire every interned sequent (`found` None); empty the table."""
    for seq in _intern.values():
        _set(seq, "found", None)
    _intern.clear()


def interpret(seq: Sequent) -> Formula:
    """Formula reading of a sequent: conj(ant) -> disj(suc).

    The empty disjunction is bot; an empty antecedent contributes no
    implication.  Both folds follow the canonical side order.
    """
    rhs = reduce(syntax.disj, seq.suc) if seq.suc else syntax.bot
    if not seq.ant:
        return rhs
    return syntax.imp(reduce(syntax.conj, seq.ant), rhs)


def parse_sequent(text: str, mode: str) -> Sequent:
    """Parse "A1, A2 |- B" (either side may be empty) in the given mode."""
    ant, suc = syntax.parse_sides(text)
    return Sequent(ant, suc, mode)
