"""Rule catalogues, axiom instantiation, backward matching, step checking."""

import random
import zlib

import pytest
from test_interpolation import RULE_CONCLUSIONS

from wmodal import calculus, prover, sampling, suites
from wmodal.calculus import (RuleInstance, Shape, backward_applications,
                             check_step)
from wmodal.logics import (AXIOM_SCHEMAS, LOGICS, expected_axiom_status,
                           get_logic, instantiate_axiom)
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE, Sequent, parse_sequent
from wmodal.syntax import (atom, bot, box, conj, dia, disj, imp, neg, parse,
                           subformulas, top)

p, q, r = atom(1), atom(2), atom(3)

PROP = {"init", "Lbot", "Land", "Lor", "Limp", "Rand", "Ror", "Rimp"}


# ---------------------------------------------------------------------------
# rules_for (the per-logic rule sets)

def test_rules_wk():
    assert set(get_logic("WK").rules) == PROP | {"iKbox", "iKdia", "idualandK"}


def test_rules_wmnd_extends_wmn():
    wmn = set(get_logic("WMN").rules)
    wmnd = set(get_logic("WMND").rules)
    assert wmnd == wmn | {"iD", "iDbox", "iPbox", "iPdia"}


def test_rules_classical_k():
    assert set(get_logic("K").rules) == PROP | {"Kbox", "Kdia"}


def test_rules_wmd():
    assert set(get_logic("WMD").rules) == PROP | {
        "iMbox", "iMdia", "idualandM", "iD", "iDbox", "iPbox", "iPdia"}


def test_rules_wkt():
    assert set(get_logic("WKT").rules) == PROP | {
        "iKbox", "iKdia", "idualandK", "iTbox", "iTdia"}


# The order of logic.rules sets which derivation search finds, so the
# whole catalogue is locked here: the modal rules of each logic, after
# the propositional rules.
MODAL_RULE_ORDER = {
    "M": "Mbox Mdia dualandM dualorM",
    "WM": "iMbox iMdia idualandM",
    "MN": "Mbox Mdia dualandM dualorM Nbox Ndia",
    "WMN": "iMbox iMdia idualandM iNbox iNdia",
    "MC": "Cbox Cdia dualandC dualorC",
    "WMC": "iCbox iCdia idualandC",
    "K": "Kbox Kdia",
    "WK": "iKbox iKdia idualandK",
    "MP": "Mbox Mdia dualandM dualorM Pbox Pdia",
    "WMP": "iMbox iMdia idualandM iPbox iPdia",
    "MNP": "Mbox Mdia dualandM dualorM Nbox Ndia Pbox Pdia",
    "WMNP": "iMbox iMdia idualandM iNbox iNdia iPbox iPdia",
    "MD": "Mbox Mdia dualandM dualorM D Dbox Ddia Pbox Pdia",
    "WMD": "iMbox iMdia idualandM iD iDbox iPbox iPdia",
    "MND": "Mbox Mdia dualandM dualorM Nbox Ndia D Dbox Ddia Pbox Pdia",
    "WMND": "iMbox iMdia idualandM iNbox iNdia iD iDbox iPbox iPdia",
    "MCD": "Cbox Cdia dualandC dualorC CD",
    "WMCD": "iCbox iCdia idualandC iCD iCDbox",
    "KD": "Kbox Kdia CD",
    "WKD": "iKbox iKdia idualandK iCD iCDbox",
    "MT": "Mbox Mdia dualandM dualorM Tbox Tdia",
    "WMT": "iMbox iMdia idualandM iTbox iTdia",
    "MNT": "Mbox Mdia dualandM dualorM Nbox Ndia Tbox Tdia",
    "WMNT": "iMbox iMdia idualandM iNbox iNdia iTbox iTdia",
    "MCT": "Cbox Cdia dualandC dualorC Tbox Tdia",
    "WMCT": "iCbox iCdia idualandC iTbox iTdia",
    "KT": "Kbox Kdia Tbox Tdia",
    "WKT": "iKbox iKdia idualandK iTbox iTdia",
}


def test_rule_order_of_every_logic():
    prop = ("init", "Lbot", "Land", "Lor", "Limp", "Rand", "Ror", "Rimp")
    assert [(name, logic.rules) for name, logic in LOGICS.items()] == [
        (name, prop + tuple(modal.split()))
        for name, modal in MODAL_RULE_ORDER.items()]


def test_rule_table_matches_catalogue():
    names = [rule.name for rule in calculus._TABLE]
    assert len(names) == len(set(names)) == len(calculus.RULES)
    used = {name for logic in LOGICS.values() for name in logic.rules}
    assert used == set(names)


# name, modes in which it is invertible, contextual, needs on the
# antecedent and on the succedent; - is none.
RULE_TABLE = """
Lbot       classical,constructive yes   bot      -
init       classical,constructive yes   atom     atom
Land       classical,constructive yes   and      -
Lor        classical,constructive yes   or       -
Limp       classical              yes   imp      -
Rand       classical,constructive yes   -        and
Ror        classical              yes   -        or
Rimp       classical,constructive yes   -        imp
Tbox       classical,constructive yes   box      -
iTbox      classical,constructive yes   box      -
Tdia       classical,constructive yes   -        dia
iTdia      -                      yes   -        dia
Mbox       -                      no    box      box
iMbox      -                      no    box      box
Mdia       -                      no    dia      dia
iMdia      -                      no    dia      dia
D          -                      no    box      dia
iD         -                      no    box      dia
dualandM   -                      no    box,dia  -
idualandM  -                      no    box,dia  -
dualorM    -                      no    -        box,dia
Dbox       -                      no    box      -
iDbox      -                      no    box      -
Ddia       -                      no    -        dia
Nbox       -                      no    -        box
iNbox      -                      no    -        box
Ndia       -                      no    dia      -
iNdia      -                      no    dia      -
Pbox       -                      no    box      -
iPbox      -                      no    box      -
Pdia       -                      no    -        dia
iPdia      -                      no    -        dia
Kbox       -                      no    -        box
iKbox      -                      no    -        box
Cbox       -                      no    box      box
iCbox      -                      no    box      box
Kdia       -                      no    dia      -
iKdia      -                      no    dia      -
idualandK  -                      no    dia      -
Cdia       -                      no    dia      dia
iCdia      -                      no    dia      dia
dualandC   -                      no    box,dia  -
idualandC  -                      no    box,dia  -
dualorC    -                      no    -        box,dia
CD         -                      no    -        -
iCD        -                      no    -        -
iCDbox     -                      no    -        -
"""


def test_rule_table_fields():
    def cell(xs):
        return ",".join(xs) or "-"

    assert [(r.name, cell(r.invertible), "yes" if r.contextual else "no",
             cell(sorted(r.needs[0])), cell(sorted(r.needs[1])))
            for r in calculus.RULES.values()] == [
        tuple(line.split()) for line in RULE_TABLE.strip().splitlines()]


# Expected status of each schema, in sorted schema order (C_box C_dia D
# K_box K_dia N_box N_dia P_box P_dia T_box T_dia dual dual_and dual_or):
# 1 a theorem, . not.
AXIOM_STATUS = {
    "M": "...........111",
    "WM": "............1.",
    "MN": ".....11....111",
    "WMN": ".....11.....1.",
    "MC": "11.11......111",
    "WMC": "1..11.......1.",
    "K": "11.1111....111",
    "WK": "1..1111.....1.",
    "MP": ".......11..111",
    "WMP": ".......11...1.",
    "MNP": ".....1111..111",
    "WMNP": ".....1111...1.",
    "MD": "..1....11..111",
    "WMD": "..1....11...1.",
    "MND": "..1..1111..111",
    "WMND": "..1..1111...1.",
    "MCD": "11111..11..111",
    "WMCD": "1.111..11...1.",
    "KD": "111111111..111",
    "WKD": "1.1111111...1.",
    "MT": "..1....1111111",
    "WMT": "..1....1111.1.",
    "MNT": "..1..111111111",
    "WMNT": "..1..111111.1.",
    "MCT": "11111..1111111",
    "WMCT": "1.111..1111.1.",
    "KT": "11111111111111",
    "WKT": "1.111111111.1.",
}


def test_expected_axiom_status_of_every_cell():
    schemas = sorted(AXIOM_SCHEMAS)
    assert {name: "".join("1" if expected_axiom_status(logic, s) else "."
                          for s in schemas)
            for name, logic in LOGICS.items()} == AXIOM_STATUS


def test_negative_suite():
    bases = ["M", "MN", "MC", "K", "MP", "MNP", "MD", "MND", "MCD", "KD",
             "MT", "MNT", "MCT", "KT"]
    assert suites.NEGATIVE_SUITE == (
        [("W" + b, "p | ~p", False) for b in bases]
        + [("W" + b, "[]p | <>~p", False) for b in bases]
        + [("WMC", "<>(p|q) -> <>p | <>q", False),
           ("WK", "<>(p|q) -> <>p | <>q", False),
           ("WM", "[]p & []q -> [](p & q)", False),
           ("K", "[]p | <>~p", True),
           ("K", "<>(p|q) -> <>p | <>q", True),
           ("M", "p | ~p", True),
           ("K", "p | ~p", True),
           ("KT", "p | ~p", True)])


# ---------------------------------------------------------------------------
# instantiate_axiom

def test_instantiate_c_box():
    assert instantiate_axiom("C_box", p, q) is \
        imp(conj(box(p), box(q)), box(conj(p, q)))


def test_instantiate_n_dia():
    assert instantiate_axiom("N_dia", p, q) is neg(dia(bot))


def test_instantiate_t_dia():
    assert instantiate_axiom("T_dia", p) is imp(p, dia(p))


def test_instantiate_k_box():
    assert instantiate_axiom("K_box", p, q) is \
        imp(box(imp(p, q)), imp(box(p), box(q)))


def test_instantiate_unknown_schema():
    with pytest.raises(KeyError):
        instantiate_axiom("Five", p, q)


# ---------------------------------------------------------------------------
# backward_applications

def test_backward_wk_boxes_and_diamond():
    wk = get_logic("WK")
    goal = Sequent((box(p), dia(q)), (dia(r),), CONSTRUCTIVE)
    insts = backward_applications(wk, goal)
    kdia = [i for i in insts if i.rule == "iKdia"]
    dand = [i for i in insts if i.rule == "idualandK"]
    assert len(insts) == 2
    assert len(kdia) == 1
    assert kdia[0].premises == (Sequent((p, q), (r,), CONSTRUCTIVE),)
    assert len(dand) == 1
    assert dand[0].premises == (Sequent((p, q), (), CONSTRUCTIVE),)


def test_backward_rand():
    wm = get_logic("WM")
    goal = Sequent((r,), (conj(p, q),), CONSTRUCTIVE)
    insts = backward_applications(wm, goal)
    assert [i.rule for i in insts] == ["Rand"]
    assert insts[0].premises == (Sequent((r,), (p,), CONSTRUCTIVE),
                                 Sequent((r,), (q,), CONSTRUCTIVE))


def test_backward_nbox_without_boxed_antecedent():
    wmn = get_logic("WMN")
    goal = Sequent((), (box(top),), CONSTRUCTIVE)
    insts = backward_applications(wmn, goal)
    assert any(i.rule == "iNbox"
               and i.premises == (Sequent((), (top,), CONSTRUCTIVE),)
               for i in insts)
    assert not any(i.rule == "iMbox" for i in insts)


def test_backward_ror_one_instance_per_disjunct():
    wm = get_logic("WM")
    goal = Sequent((), (disj(p, q),), CONSTRUCTIVE)
    insts = [i for i in backward_applications(wm, goal) if i.rule == "Ror"]
    assert len(insts) == 2
    assert {i.premises[0].suc[0] for i in insts} == {p, q}


@pytest.mark.parametrize("name, rule", [("MT", "Tbox"), ("WMT", "iTbox")])
def test_backward_skips_the_t_rule_self_loop(name, rule):
    # At []p1, p1 |- p2 the one T instance has its conclusion as premise;
    # a sequent kept from before clear_caches is skipped alike.
    logic = get_logic(name)
    kept = parse_sequent("[]p1, p1 |- p2", logic.mode)
    prover.clear_caches()
    for seq in (kept, parse_sequent("[]p1, p1 |- p2", logic.mode)):
        assert backward_applications(logic, seq) == []
    insts = backward_applications(logic,
                                  parse_sequent("[]p1 |- p2", logic.mode))
    assert [i.rule for i in insts] == [rule]


def test_backward_premises_in_subformula_closure():
    wk = get_logic("WK")
    goal = Sequent((box(imp(p, q)), dia(p)), (dia(q),), CONSTRUCTIVE)
    closure = set()
    for f in goal.ant + goal.suc:
        closure |= subformulas(f)
    for inst in backward_applications(wk, goal):
        for prem in inst.premises:
            for f in prem.ant + prem.suc:
                assert f in closure


# Every instance of the eleven stripping rules (Mbox ... Pdia) at one
# conclusion, in order: (rule, premise, principals).  MND holds all
# eleven, WMND their constructive rules.
_STRIP_ANT = "[]p1, []p2, <>p1, <>p2 |- "
STRIPPING_INSTANCES = [
    ("MND", "[]p3, []p1, <>p3, <>p2", [
        ("Mbox", "p1 |- p1", "[]p1, []p1"),
        ("Mbox", "p1 |- p3", "[]p3, []p1"),
        ("Mbox", "p2 |- p1", "[]p1, []p2"),
        ("Mbox", "p2 |- p3", "[]p3, []p2"),
        ("Mdia", "p1 |- p2", "<>p2, <>p1"),
        ("Mdia", "p1 |- p3", "<>p3, <>p1"),
        ("Mdia", "p2 |- p2", "<>p2, <>p2"),
        ("Mdia", "p2 |- p3", "<>p3, <>p2"),
        ("dualandM", "p1 |-", "[]p1, <>p1"),
        ("dualandM", "p1, p2 |-", "[]p1, <>p2"),
        ("dualandM", "p1, p2 |-", "[]p2, <>p1"),
        ("dualandM", "p2 |-", "[]p2, <>p2"),
        ("dualorM", "|- p1, p2", "[]p1, <>p2"),
        ("dualorM", "|- p1, p3", "[]p1, <>p3"),
        ("dualorM", "|- p2, p3", "[]p3, <>p2"),
        ("dualorM", "|- p3", "[]p3, <>p3"),
        ("Nbox", "|- p1", "[]p1"),
        ("Nbox", "|- p3", "[]p3"),
        ("Ndia", "p1 |-", "<>p1"),
        ("Ndia", "p2 |-", "<>p2"),
        ("D", "p1 |- p2", "<>p2, []p1"),
        ("D", "p1 |- p3", "<>p3, []p1"),
        ("D", "p2 |- p2", "<>p2, []p2"),
        ("D", "p2 |- p3", "<>p3, []p2"),
        ("Dbox", "p1, p2 |-", "[]p1, []p2"),
        ("Ddia", "|- p2, p3", "<>p2, <>p3"),
        ("Pbox", "p1 |-", "[]p1"),
        ("Pbox", "p2 |-", "[]p2"),
        ("Pdia", "|- p2", "<>p2"),
        ("Pdia", "|- p3", "<>p3"),
    ]),
    ("WMND", "[]p3", [
        ("iMbox", "p1 |- p3", "[]p3, []p1"),
        ("iMbox", "p2 |- p3", "[]p3, []p2"),
        ("idualandM", "p1 |-", "[]p1, <>p1"),
        ("idualandM", "p1, p2 |-", "[]p1, <>p2"),
        ("idualandM", "p1, p2 |-", "[]p2, <>p1"),
        ("idualandM", "p2 |-", "[]p2, <>p2"),
        ("iNbox", "|- p3", "[]p3"),
        ("iNdia", "p1 |-", "<>p1"),
        ("iNdia", "p2 |-", "<>p2"),
        ("iDbox", "p1, p2 |-", "[]p1, []p2"),
        ("iPbox", "p1 |-", "[]p1"),
        ("iPbox", "p2 |-", "[]p2"),
    ]),
    ("WMND", "<>p3", [
        ("iMdia", "p1 |- p3", "<>p3, <>p1"),
        ("iMdia", "p2 |- p3", "<>p3, <>p2"),
        ("idualandM", "p1 |-", "[]p1, <>p1"),
        ("idualandM", "p1, p2 |-", "[]p1, <>p2"),
        ("idualandM", "p1, p2 |-", "[]p2, <>p1"),
        ("idualandM", "p2 |-", "[]p2, <>p2"),
        ("iNdia", "p1 |-", "<>p1"),
        ("iNdia", "p2 |-", "<>p2"),
        ("iD", "p1 |- p3", "<>p3, []p1"),
        ("iD", "p2 |- p3", "<>p3, []p2"),
        ("iDbox", "p1, p2 |-", "[]p1, []p2"),
        ("iPbox", "p1 |-", "[]p1"),
        ("iPbox", "p2 |-", "[]p2"),
        ("iPdia", "|- p3", "<>p3"),
    ]),
]


@pytest.mark.parametrize("name,suc,expected", STRIPPING_INSTANCES,
                         ids=["MND", "WMND-box", "WMND-dia"])
def test_stripping_rule_instances_pinned(name, suc, expected):
    logic = get_logic(name)
    insts = backward_applications(logic,
                                  parse_sequent(_STRIP_ANT + suc, logic.mode))
    assert [(i.rule, i.premises, i.principal) for i in insts] == [
        (rule, (parse_sequent(prem, logic.mode),),
         tuple(parse(f) for f in principal.split(", ")))
        for rule, prem, principal in expected]


# ---------------------------------------------------------------------------
# check_step

def test_check_step_ikbox():
    wk = get_logic("WK")
    inst = RuleInstance("iKbox",
                        Sequent((box(p),), (box(p),), CONSTRUCTIVE),
                        (Sequent((p,), (p,), CONSTRUCTIVE),),
                        (box(p), box(p)))
    assert check_step(wk, inst)


def test_check_step_icbox_needs_boxed_antecedent():
    wmc = get_logic("WMC")
    inst = RuleInstance("iCbox",
                        Sequent((), (box(top),), CONSTRUCTIVE),
                        (Sequent((), (top,), CONSTRUCTIVE),),
                        ())
    assert not check_step(wmc, inst)


def test_check_step_classical_mbox_premise_context_free():
    m = get_logic("M")
    good = RuleInstance("Mbox",
                        Sequent((box(p),), (box(q), r), CLASSICAL),
                        (Sequent((p,), (q,), CLASSICAL),),
                        ())
    bad = RuleInstance("Mbox",
                       Sequent((box(p), r), (box(q),), CLASSICAL),
                       (Sequent((p, r), (q,), CLASSICAL),),
                       ())
    assert check_step(m, good)
    assert not check_step(m, bad)


def test_check_step_rejects_rule_outside_logic():
    wm = get_logic("WM")
    inst = RuleInstance("iKbox",
                        Sequent((box(p),), (box(p),), CONSTRUCTIVE),
                        (Sequent((p,), (p,), CONSTRUCTIVE),),
                        ())
    assert not check_step(wm, inst)


def test_check_step_rejects_wrong_mode():
    wk = get_logic("WK")
    inst = RuleInstance("Rimp",
                        Sequent((), (imp(p, q),), CLASSICAL),
                        (Sequent((p,), (q,), CLASSICAL),),
                        ())
    assert not check_step(wk, inst)


# check_step on partial box and succedent-diamond selections, a principal
# both boxed and diamonded, a T-box copy absorbed by normalization, the
# side conditions of the C and D rules, a premise in the wrong mode and an
# instance without a principal formula.  The principal field is left
# empty: check_step must not read it.  A premise is parsed in the logic's
# mode unless given as a (text, mode) pair.
CHECK_STEP_CASES = [
    ("iKbox", "WK", "[]p1, []p2 |- []p3", ["p1 |- p3"], True),
    ("iKbox", "WK", "[]p1, p3 |- []p2", ["p1, p3 |- p2"], False),
    ("iKdia", "WK", "[]p1, []p2, <>p4 |- <>p3", ["p1, p4 |- p3"], True),
    ("idualandK", "WK", "[]p1, <>p2 |- p3", ["p2 |-"], True),
    ("idualandC", "WMC", "[]p1, <>p2 |- p3", ["p2 |-"], False),
    ("idualandC", "WMC", "[]p1, <>p1 |-", ["p1 |-"], True),
    ("idualandM", "WM", "[]p1, <>p1 |-", ["p1 |-"], True),
    ("iTbox", "WMT", "[]p1, p1 |- p2", ["[]p1, p1 |- p2"], True),
    ("Kbox", "K", "[]p1, []p2 |- []p3, <>p4", ["p1 |- p3"], True),
    ("Cdia", "MC", "[]p1, <>p2 |- <>p3", ["p1, p2 |-"], False),
    ("Cdia", "MC", "[]p1, <>p2 |- <>p3, <>p4", ["p2 |- p4"], True),
    ("CD", "MCD", "[]p1, []p2 |- <>p3, <>p4", ["p1 |- p4"], True),
    ("iCDbox", "WKD", "[]p1, []p2 |- p3", ["p2 |-"], True),
    ("iCDbox", "WKD", "|- p3", ["|-"], False),
    ("Rimp", "WK", "|- p1 -> p2", [("p1 |- p2", CLASSICAL)], False),
    ("CD", "MCD", "p1 |- p2", ["|-"], False),
]


@pytest.mark.parametrize("rule,name,concl,prems,verdict", CHECK_STEP_CASES)
def test_check_step_verdicts(rule, name, concl, prems, verdict):
    logic = get_logic(name)
    inst = RuleInstance(rule, parse_sequent(concl, logic.mode),
                        tuple(parse_sequent(*t) if isinstance(t, tuple)
                              else parse_sequent(t, logic.mode)
                              for t in prems), ())
    assert check_step(logic, inst) is verdict


# ---------------------------------------------------------------------------
# mutual consistency: every emitted backward instance passes check_step

def _random_sequent(rng, mode):
    ant = tuple(sampling.random_formula(rng, rng.randint(1, 4))
                for _ in range(rng.randint(0, 3)))
    if mode == CONSTRUCTIVE:
        suc = ((sampling.random_formula(rng, rng.randint(1, 4)),)
               if rng.random() < 0.8 else ())
    else:
        suc = tuple(sampling.random_formula(rng, rng.randint(1, 4))
                    for _ in range(rng.randint(0, 2)))
    return Sequent(ant, suc, mode)


@pytest.mark.parametrize("name", sorted(LOGICS))
def test_backward_instances_pass_check_step(name):
    logic = LOGICS[name]
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(40):
        seq = _random_sequent(rng, logic.mode)
        for inst in backward_applications(logic, seq):
            assert check_step(logic, inst), \
                "emitted %s instance fails check_step at %s" % (inst.rule, seq)


@pytest.mark.parametrize("name", sorted(n for n in LOGICS
                                        if LOGICS[n].mode == CONSTRUCTIVE))
def test_context_free_principals_list_succedent_first(name):
    # The modal case of interpolation reads the principals of a rule
    # without context so.
    logic = LOGICS[name]
    rng = random.Random(zlib.crc32(name.encode()))
    seen = set()
    for _ in range(300):
        seq = _random_sequent(rng, logic.mode)
        for inst in backward_applications(logic, seq):
            if calculus.RULES[inst.rule].contextual:
                continue
            seen.add(inst.rule)
            pr = inst.principal
            if inst.premises[0].suc:
                assert pr[0] in seq.suc, inst
                pr = pr[1:]
            assert all(f in seq.ant for f in pr), inst
    assert seen == {n for n in logic.rules
                    if not calculus.RULES[n].contextual}


# ---------------------------------------------------------------------------
# declared kinds: search skips a rule whose kinds a conclusion lacks, so
# every instance's conclusion must hold them

def test_declared_kinds_never_hide_an_instance():
    rng = random.Random(9)
    samples = [_random_sequent(rng, mode)
               for mode in (CLASSICAL, CONSTRUCTIVE) for _ in range(300)]
    samples += [parse_sequent(t, CONSTRUCTIVE) for t in RULE_CONCLUSIONS]
    fired = set()
    for seq in samples:
        c = Shape(seq.mode, seq.ant, seq.suc)
        for rule in calculus.RULES.values():
            # The raw builder, whatever the kinds of c.
            if any(principal for _, principal in rule.build(c)):
                fired.add(rule.name)
                assert calculus.fitting(c) & calculus.BITS[rule.name], \
                    "%s fires at %s" % (rule.name, seq)
    assert len(calculus.RULES) == 47
    assert fired >= {r.name for r in calculus.RULES.values() if any(r.needs)}
