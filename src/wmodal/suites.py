"""Self-test matrices and randomized property suites.

These back the `selftest` and `fuzz` CLI subcommands and the acceptance
tests.  Every suite returns a list of violation records (empty = pass);
each record carries enough detail (logic, seed, formula) to reproduce.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import interpolation, prover, sampling, semantics, syntax
from .logics import (AXIOM_SCHEMAS, BASE_NAMES, LOGICS, Logic,
                     expected_axiom_status, instantiate_axiom, lattice_edges)
from .prover import Budget
from .sequents import CLASSICAL, CONSTRUCTIVE, Sequent
from .syntax import atom, parse


# ---------------------------------------------------------------------------
# Self-test: axiom matrix + fixed negative suite.

class MatrixRow(NamedTuple):
    logic: str
    schema: str
    expected: bool
    got: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.got


def axiom_matrix(budget: Budget = Budget()) -> List[MatrixRow]:
    a, b = atom(1), atom(2)
    rows = []
    for logic in LOGICS.values():
        for schema in sorted(AXIOM_SCHEMAS):
            f = instantiate_axiom(schema, a, b)
            got = prover.decide(logic, f, budget)
            rows.append(MatrixRow(logic.name, schema,
                                  expected_axiom_status(logic, schema), got))
    return rows


# Fixed non-theorems (and their classical counterparts) used by the
# negative matrix and countermodel cross-checks.
NEGATIVE_SUITE: List[Tuple[str, str, bool]] = (
    [("W" + b, "p | ~p", False) for b in BASE_NAMES]
    + [("W" + b, "[]p | <>~p", False) for b in BASE_NAMES]
    + [("WMC", "<>(p|q) -> <>p | <>q", False),
       ("WK", "<>(p|q) -> <>p | <>q", False),
       ("WM", "[]p & []q -> [](p & q)", False),
       ("K", "[]p | <>~p", True),
       ("K", "<>(p|q) -> <>p | <>q", True),
       ("M", "p | ~p", True),
       ("K", "p | ~p", True),
       ("KT", "p | ~p", True)]
)


def negative_matrix(budget: Budget = Budget()) -> List[MatrixRow]:
    rows = []
    for name, text, expected in NEGATIVE_SUITE:
        logic = LOGICS[name]
        got = prover.decide(logic, parse(text), budget)
        rows.append(MatrixRow(name, text, expected, got))
    return rows


def selftest(budget: Budget = Budget()) -> Tuple[List[MatrixRow], bool]:
    rows = axiom_matrix(budget) + negative_matrix(budget)
    return rows, all(r.ok for r in rows)


# ---------------------------------------------------------------------------
# Structural admissibility probes: weakening, contraction, cut.

def structural_suite(logic: Logic, count: int, seed: int,
                     size: int = 4, num_atoms: int = 3) -> List[str]:
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        seq = sampling.sample_derivable_sequent(logic, rng, size, num_atoms)
        # weakening: extend either side with a fresh random formula
        extra = sampling.random_formula(rng, rng.randint(1, size), num_atoms)
        wk_ant = Sequent(seq.ant + (extra,), seq.suc, seq.mode)
        if not prover.prove(logic, wk_ant).proved:
            bad.append("weakening-left failed: %s + %s [%s seed=%d#%d]"
                       % (seq, syntax.render(extra), logic.name, seed, i))
        if logic.mode == CLASSICAL:
            wk_suc = Sequent(seq.ant, seq.suc + (extra,), seq.mode)
            if not prover.prove(logic, wk_suc).proved:
                bad.append("weakening-right failed: %s [%s seed=%d#%d]"
                           % (seq, logic.name, seed, i))
        if not seq.ant:
            continue
        # contraction: A & A in place of an antecedent formula A, so that
        # Land's premise holds A twice (a `Sequent` would drop a plain copy)
        a = rng.choice(seq.ant)
        dup = Sequent(tuple(syntax.conj(a, a) if f is a else f
                            for f in seq.ant), seq.suc, seq.mode)
        if not prover.prove(logic, dup).proved:
            bad.append("contraction failed: %s [%s seed=%d#%d]"
                       % (dup, logic.name, seed, i))
        # cut on the same A: from Γ, A ⇒ Δ and Γ ⇒ A (Γ ⇒ Δ, A in
        # classical mode) conclude Γ ⇒ Δ
        rest = tuple(f for f in seq.ant if f is not a)
        left = Sequent(rest, (a, *seq.suc) if logic.mode == CLASSICAL
                       else (a,), seq.mode)
        if prover.prove(logic, left).proved:
            cut = Sequent(rest, seq.suc, seq.mode)
            if not prover.prove(logic, cut).proved:
                bad.append("cut failed: %s and %s | %s [%s seed=%d#%d]"
                           % (seq, left, cut, logic.name, seed, i))
    return bad


# ---------------------------------------------------------------------------
# Disjunction property.

def disjunction_suite(logic: Logic, count: int, seed: int) -> List[str]:
    assert logic.mode == CONSTRUCTIVE
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        f = sampling.sample_theorem(logic, rng, shape="or")
        if not (prover.decide(logic, f.left) or prover.decide(logic, f.right)):
            bad.append("disjunction property failed: %s [%s seed=%d#%d]"
                       % (syntax.render(f), logic.name, seed, i))
    return bad


# ---------------------------------------------------------------------------
# Interpolation contract.

def interpolation_suite(logic: Logic, count: int, seed: int) -> List[str]:
    assert logic.mode == CONSTRUCTIVE
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        f = sampling.sample_theorem(logic, rng, shape="imp")
        try:
            interpolation.craig(logic, f.left, f.right)
        except Exception as e:  # contract violations surface as exceptions
            bad.append("interpolation failed on %s: %s [%s seed=%d#%d]"
                       % (syntax.render(f), e, logic.name, seed, i))
    return bad


# ---------------------------------------------------------------------------
# Soundness fuzz: theorems valid in random models of the logic's class.

def soundness_suite(logic: Logic, count: int, seed: int) -> List[str]:
    """count random models of logic's class, each against the next of 40
    sampled theorems in turn."""
    if count < 1:
        return []   # no model to check, so sample no theorems
    rng = random.Random(seed)
    pool = [sampling.sample_theorem(logic, rng) for _ in range(40)]
    bad = []
    for i in range(count):
        model = semantics.random_model(logic, 4, rng.getrandbits(32))
        f = pool[i % len(pool)]
        if not semantics.valid_in_model(model, f):
            bad.append("soundness failed: %s refuted in %s [%s seed=%d#%d]"
                       % (syntax.render(f), semantics.model_to_json(model),
                          logic.name, seed, i))
    return bad


# ---------------------------------------------------------------------------
# Hereditariness fuzz: forcing is monotone along <= in random CNMs.

def hereditariness_suite(count: int, seed: int) -> List[str]:
    rng = random.Random(seed)
    names = [l.name for l in LOGICS.values() if l.mode == CONSTRUCTIVE]
    bad = []
    for i in range(count):
        logic = LOGICS[rng.choice(names)]
        model = semantics.random_model(logic, 4, rng.getrandbits(32))
        f = sampling.random_formula(rng, rng.randint(1, 6))
        ext = semantics.extension(model, f)
        for w in range(model.n):
            if ext >> w & 1 and model.succ[w] & ~ext:
                bad.append("hereditariness failed: %s at world %d of %s "
                           "[seed=%d#%d]" % (syntax.render(f), w,
                                             semantics.model_to_json(model),
                                             seed, i))
                break
    return bad


# ---------------------------------------------------------------------------
# Lattice inclusions.

def inclusion_suite(mode: str, per_edge: int, seed: int) -> List[str]:
    rng = random.Random(seed)
    bad = []
    for src_name, dst_name in lattice_edges(mode):
        src, dst = LOGICS[src_name], LOGICS[dst_name]
        for i in range(per_edge):
            f = sampling.sample_theorem(src, rng)
            # Within a mode dst reuses src's proofs: from cleared caches,
            # dst proves f on its own.
            prover.clear_caches()
            if not prover.decide(dst, f):
                bad.append("inclusion failed %s->%s on %s [seed=%d#%d]"
                           % (src_name, dst_name, syntax.render(f), seed, i))
    return bad


def constructive_to_classical_suite(per_logic: int, seed: int) -> List[str]:
    rng = random.Random(seed)
    bad = []
    for logic in LOGICS.values():
        if logic.mode != CONSTRUCTIVE:
            continue
        classical = LOGICS[logic.base]
        for i in range(per_logic):
            # A classical failure kept in the epoch refutes a constructive
            # candidate through its twin: sampled from cleared caches, a
            # W theorem that the inclusion loses is reported, not skipped.
            prover.clear_caches()
            f = sampling.sample_theorem(logic, rng)
            if not prover.decide(classical, f):
                bad.append("W-to-classical failed %s->%s on %s [seed=%d#%d]"
                           % (logic.name, classical.name, syntax.render(f),
                              seed, i))
    return bad


# ---------------------------------------------------------------------------
# Full fuzz entry point for the CLI.

def fuzz(seed: int, count: Optional[int] = None,
         logics: Optional[Sequence[str]] = None) -> List[str]:
    """The property suites over the named logics (default all 28), each
    run count times, or its own number of times when count is None."""
    if count is not None and count < 0:
        raise ValueError("count must be 0 or more: %d" % count)

    def times(default):
        return default if count is None else count

    violations: List[str] = []
    for name in logics or LOGICS:
        logic = LOGICS[name]
        violations += structural_suite(logic, times(25), seed)
        violations += soundness_suite(logic, times(100), seed)
        if logic.mode == CONSTRUCTIVE:
            violations += disjunction_suite(logic, times(25), seed)
            violations += interpolation_suite(logic, times(15), seed)
    violations += hereditariness_suite(times(200), seed)
    return violations
