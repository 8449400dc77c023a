"""Random formulas, theorems and derivable sequents for property suites.

Theorem sampling mixes instantiated axiom-catalogue schemata, theorem
combinators (t1∧t2, t∨B, B→t, ...), and rejection-sampled random
formulas, so pools are varied but generation terminates quickly.  Every
emitted theorem/derivable sequent is confirmed by the prover.
"""

from __future__ import annotations

import random
from typing import List, Optional

from . import prover, syntax
from .logics import Logic, instantiate_axiom
from .sequents import CONSTRUCTIVE, Sequent
from .syntax import Formula, atom, bot, box, conj, dia, disj, imp


def random_formula(rng: random.Random, size: int, num_atoms: int = 3) -> Formula:
    """Random formula with at most `size` connective/leaf nodes."""
    if size <= 1:
        leaves = [atom(i) for i in range(1, num_atoms + 1)] + [bot]
        return rng.choice(leaves)
    k = rng.randrange(5)
    if k == 3:
        return box(random_formula(rng, size - 1, num_atoms))
    if k == 4:
        return dia(random_formula(rng, size - 1, num_atoms))
    ls = rng.randint(1, size - 2) if size > 2 else 1
    op = (conj, disj, imp)[k]
    return op(random_formula(rng, ls, num_atoms),
              random_formula(rng, size - 1 - ls, num_atoms))


def sample_theorem(logic: Logic, rng: random.Random, size: int = 5,
                   num_atoms: int = 3, shape: Optional[str] = None) -> Formula:
    """One prover-confirmed theorem; shape can force 'or' or 'imp' roots."""
    while True:
        f = _candidate(logic, rng, size, num_atoms, shape)
        if shape == "or" and f.kind != syntax.OR:
            continue
        if shape == "imp" and f.kind != syntax.IMP:
            continue
        try:
            if prover.decide(logic, f):
                return f
        except prover.BudgetExceeded:
            continue


def _candidate(logic, rng, size, num_atoms, shape):
    r = rng.random()
    rf = lambda: random_formula(rng, rng.randint(1, size), num_atoms)
    if r < 0.30:
        ax = rng.choice(logic.axioms)
        return instantiate_axiom(ax, rf(), rf())
    if r < 0.45:
        # B -> t for a known theorem t
        t = sample_theorem(logic, rng, max(2, size - 2), num_atoms)
        return imp(rf(), t)
    if r < 0.55:
        a = rf()
        return imp(a, a) if shape != "or" else disj(imp(a, a), rf())
    if r < 0.70:
        t = sample_theorem(logic, rng, max(2, size - 2), num_atoms)
        return disj(t, rf()) if rng.random() < 0.5 else disj(rf(), t)
    if r < 0.80:
        a, b = rf(), rf()
        return imp(conj(a, b), a if rng.random() < 0.5 else b)
    return rf()


def sample_derivable_sequent(logic: Logic, rng: random.Random,
                             size: int = 4, num_atoms: int = 3,
                             max_side: int = 4) -> Sequent:
    """One prover-confirmed derivable sequent with random sides."""
    mode = logic.mode
    while True:
        ant = [random_formula(rng, rng.randint(1, size), num_atoms)
               for _ in range(rng.randint(0, max_side))]
        if mode == CONSTRUCTIVE:
            suc = ([random_formula(rng, rng.randint(1, size), num_atoms)]
                   if rng.random() < 0.85 else [])
        else:
            suc = [random_formula(rng, rng.randint(1, size), num_atoms)
                   for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.4 and not any(f is bot for f in ant):
            # seed derivability: repeat an antecedent formula in the succedent
            if ant and (mode != CONSTRUCTIVE or not suc):
                pick = rng.choice(ant)
                suc = [pick] if mode == CONSTRUCTIVE else suc + [pick]
        seq = Sequent(ant, suc, mode)
        try:
            if prover.prove(logic, seq).proved:
                return seq
        except prover.BudgetExceeded:
            continue


def formulas_up_to_size(max_size: int, num_atoms: int = 2) -> List[Formula]:
    """Every formula with at most max_size AST nodes over p1..p_k and bot."""
    leaves = [atom(i) for i in range(1, num_atoms + 1)] + [bot]
    by_size = {1: list(leaves)}
    for s in range(2, max_size + 1):
        fs = []
        for f in by_size[s - 1]:
            fs.append(box(f))
            fs.append(dia(f))
        for ls in range(1, s - 1):
            for a in by_size[ls]:
                for b in by_size[s - 1 - ls]:
                    fs.append(conj(a, b))
                    fs.append(disj(a, b))
                    fs.append(imp(a, b))
        by_size[s] = fs
    return [f for s in range(1, max_size + 1) for f in by_size[s]]
