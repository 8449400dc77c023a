"""Acceptance criteria: matrix-, property-, and termination-based gates.

Each test exercises one numbered criterion at its stated scale and
tolerance and records a single pass/fail line (echoed in the terminal
summary by conftest).  Failures carry the underlying violation records.
"""

import time

from conftest import record_criterion

from wmodal import prover, sampling, semantics, suites
from wmodal.logics import LOGICS, instantiate_axiom
from wmodal.prover import BudgetExceeded
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE
from wmodal.syntax import atom, parse

W_NAMES = sorted(n for n in LOGICS if LOGICS[n].mode == CONSTRUCTIVE)
ALL_NAMES = sorted(LOGICS)

SEED = 2026


def test_criterion_01_axiom_matrix():
    t0 = time.monotonic()
    p, q = atom(1), atom(2)
    failures = []
    for name in W_NAMES:
        logic = LOGICS[name]
        for ax in logic.axioms:
            if not prover.decide(logic, instantiate_axiom(ax, p, q)):
                failures.append((name, ax))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    record_criterion(1, "axiom matrix", ok, "%.2fs" % elapsed)
    assert not failures, failures
    assert elapsed < 10.0, "axiom matrix took %.1fs (budget 10s)" % elapsed


def test_criterion_02_negative_matrix():
    t0 = time.monotonic()
    rows = suites.negative_matrix()
    mismatches = [(r.logic, r.schema, r.expected, r.got)
                  for r in rows if not r.ok]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 30.0
    record_criterion(2, "negative matrix", ok, "%.2fs" % elapsed)
    assert not mismatches, mismatches
    assert elapsed < 30.0, "negative matrix took %.1fs (budget 30s)" % elapsed


def test_criterion_03_structural_admissibility():
    violations = []
    for name in ALL_NAMES:
        violations += suites.structural_suite(
            LOGICS[name], 500, seed=SEED, size=6, num_atoms=3)
    record_criterion(3, "structural admissibility", not violations,
                     "500 sequents x %d logics" % len(ALL_NAMES))
    assert not violations, violations[:10]


def test_criterion_04_disjunction_property():
    violations = []
    for name in W_NAMES:
        violations += suites.disjunction_suite(LOGICS[name], 200, seed=SEED)
    record_criterion(4, "disjunction property", not violations,
                     "200 theorems x %d logics" % len(W_NAMES))
    assert not violations, violations[:10]


def test_criterion_05_interpolation_contract():
    violations = []
    for name in W_NAMES:
        violations += suites.interpolation_suite(LOGICS[name], 100, seed=SEED)
    record_criterion(5, "interpolation contract", not violations,
                     "100 theorems x %d logics" % len(W_NAMES))
    assert not violations, violations[:10]


def test_criterion_06_soundness_fuzz():
    violations = []
    for name in ALL_NAMES:
        violations += suites.soundness_suite(LOGICS[name], 1000, seed=SEED)
    record_criterion(6, "soundness fuzz", not violations,
                     "1000 pairs x %d logics" % len(ALL_NAMES))
    assert not violations, violations[:10]


def test_criterion_07_hereditariness_fuzz():
    violations = suites.hereditariness_suite(1000, seed=SEED)
    record_criterion(7, "hereditariness fuzz", not violations, "1000 checks")
    assert not violations, violations[:10]


def test_criterion_08_termination():
    t0 = time.monotonic()
    space = sampling.formulas_up_to_size(7, num_atoms=2)
    overruns = []
    for name in ALL_NAMES:
        logic = LOGICS[name]
        for f in space:
            try:
                prover.decide(logic, f)
            except BudgetExceeded as e:
                overruns.append((name, f, str(e)))
    elapsed = time.monotonic() - t0
    ok = not overruns and elapsed < 600.0
    record_criterion(8, "termination sweep", ok,
                     "%d formulas x %d logics, %.1fs"
                     % (len(space), len(ALL_NAMES), elapsed))
    assert not overruns, overruns[:10]
    assert elapsed < 600.0, "sweep took %.1fs (budget 600s)" % elapsed


def test_criterion_09_inclusions():
    violations = suites.inclusion_suite(CLASSICAL, 100, seed=SEED)
    violations += suites.inclusion_suite(CONSTRUCTIVE, 100, seed=SEED)
    violations += suites.constructive_to_classical_suite(100, seed=SEED)
    record_criterion(9, "lattice inclusions", not violations,
                     "100 theorems per arrow")
    assert not violations, violations[:10]


def test_criterion_10_countermodel_cross_check():
    problems = []
    found = 0
    non_theorems = [(name, text) for name, text, expected
                    in suites.NEGATIVE_SUITE if not expected]
    for name, text in non_theorems:
        logic = LOGICS[name]
        f = parse(text)
        hit = semantics.enumerate_countermodel(logic, f, 4)
        if hit is None:
            problems.append((name, text, "no countermodel of at most 4 worlds"))
            continue
        found += 1
        model, world = hit
        try:
            model.validate()
        except ValueError as e:
            problems.append((name, text, "witness malformed: %s" % e))
        if not semantics.check_conditions(model, logic).ok:
            problems.append((name, text, "witness violates frame conditions"))
        if semantics.forces(model, world, f):
            problems.append((name, text, "witness does not refute"))
        if prover.decide(logic, f):
            problems.append((name, text,
                             "countermodel found for a prover theorem"))
    ok = not problems and found == len(non_theorems) > 0
    record_criterion(10, "countermodel cross-check", ok,
                     "%d witnesses verified" % found)
    assert not problems, problems
    assert found == len(non_theorems) > 0, "no negative-suite non-theorems"
