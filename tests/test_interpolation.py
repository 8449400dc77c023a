"""Craig interpolation: case table, certificates, variable condition."""

import itertools
import random
import time
import zlib

import pytest

from wmodal import interpolation, prover, sampling
from wmodal.calculus import backward_applications
from wmodal.interpolation import (NotATheoremError, Partition, craig,
                                  interpolate_derivation)
from wmodal.logics import LOGICS, get_logic
from wmodal.prover import Derivation, decide, prove
from wmodal.sequents import CONSTRUCTIVE, Sequent, parse_sequent
from wmodal.syntax import (AND, IMP, OR, atom, bot, box, conj, dia, disj, imp,
                           parse, top, var_set, var_set_all)

p, q, r = atom(1), atom(2), atom(3)

W_LOGICS = sorted(n for n in LOGICS if n.startswith("W"))


def _contract_ok(res, left, right_and_suc):
    return var_set_all([res.interpolant]) <= (
        var_set_all(left) & var_set_all(right_and_suc))


def _constants_absorbed(f):
    """No ∧ or ∨ node of f has a top or bot operand, and no → node has a
    top operand or a bot antecedent.  top itself, bot → bot, is a leaf."""
    stack = [f]
    while stack:
        g = stack.pop()
        if g is top or g.left is None:
            continue
        if g.kind in (AND, OR) and {g.left, g.right} & {top, bot}:
            return False
        if g.kind == IMP and (top in (g.left, g.right) or g.left is bot):
            return False
        stack.extend(h for h in (g.left, g.right) if h is not None)
    return True


def _interpolate_every_partition(logic, d):
    """Interpolate d at every partition of its antecedent: each
    certificate re-proves, and the interpolant meets the variable
    condition and has its constants absorbed."""
    ant = d.conclusion.ant
    for k in range(len(ant) + 1):
        for left in itertools.combinations(ant, k):
            right = tuple(f for f in ant if f not in left)
            res = interpolate_derivation(logic, d, Partition(left, right))
            assert _contract_ok(res, left, right + d.conclusion.suc)
            assert _constants_absorbed(res.interpolant), (d, left)


# ---------------------------------------------------------------------------
# interpolate_derivation

def test_split_conjunction_goal():
    wm = get_logic("WM")
    d = prove(wm, Sequent((p, q), (conj(p, q),), CONSTRUCTIVE)).derivation
    res = interpolate_derivation(wm, d, Partition((p,), (q,)))
    assert res.interpolant is p
    assert _contract_ok(res, [p], [q, conj(p, q)])


def test_empty_left_part_gives_top_strength():
    wm = get_logic("WM")
    seq = Sequent((p, q), (conj(p, q),), CONSTRUCTIVE)
    d = prove(wm, seq).derivation
    res = interpolate_derivation(wm, d, Partition((), (p, q)))
    # the left certificate derives the interpolant from nothing
    assert decide(wm, res.interpolant)


def test_bot_on_the_left():
    wm = get_logic("WM")
    d = prove(wm, Sequent((bot,), (q,), CONSTRUCTIVE)).derivation
    res = interpolate_derivation(wm, d, Partition((bot,), ()))
    assert res.interpolant is bot


def test_partition_must_split_antecedent():
    wm = get_logic("WM")
    d = prove(wm, Sequent((p,), (p,), CONSTRUCTIVE)).derivation
    with pytest.raises(ValueError):
        interpolate_derivation(wm, d, Partition((q,), ()))
    # The parts overlap: p2 would stand on both sides.
    d = prove(wm, Sequent((p, q), (p,), CONSTRUCTIVE)).derivation
    with pytest.raises(ValueError):
        interpolate_derivation(wm, d, Partition((p, q), (q,)))


def test_classical_logic_rejected():
    k = get_logic("K")
    with pytest.raises(ValueError):
        craig(k, p, p)


# ---------------------------------------------------------------------------
# craig

def test_craig_wk_conjunction_disjunction():
    res = craig(get_logic("WK"), conj(p, q), disj(p, r))
    assert var_set(res.interpolant) <= {bot, p}


def test_craig_identity():
    res = craig(get_logic("WM"), p, p)
    assert var_set(res.interpolant) <= {bot, p}


def test_craig_wmt_box_to_dia():
    res = craig(get_logic("WMT"), box(p), dia(p))
    assert var_set(res.interpolant) <= {bot, p}


def test_craig_bot_implies_anything():
    res = craig(get_logic("WM"), bot, q)
    assert res.interpolant is bot


def test_craig_modal_k_example():
    res = craig(get_logic("WK"), conj(box(p), box(imp(p, q))), box(q))
    assert var_set(res.interpolant) <= {bot, p, q}
    assert decide(get_logic("WK"),
                  imp(conj(box(p), box(imp(p, q))), res.interpolant))


def test_craig_not_a_theorem():
    with pytest.raises(NotATheoremError):
        craig(get_logic("WM"), p, q)


def test_certificates_pass_check():
    wk = get_logic("WK")
    res = craig(wk, conj(p, q), disj(p, r))
    assert prover.check(wk, res.left_certificate)
    assert prover.check(wk, res.right_certificate)


def test_craig_walks_a_shared_proof_once_per_node():
    # A WKT theorem whose proof DAG unfolds to an exponentially larger
    # tree: its interpolant has 1,486,847 nodes as a tree, too many to
    # render.  Interpolating the unfolding would not finish.
    wkt = get_logic("WKT")
    a = parse("([]<>p3) & ([]<>[]p2) & ([](bot -> p1)) & ([](p3 | p3)) "
              "& ([](p1 | p1)) & ([]p1) & ([](p2 | p3)) & (<>p1)")
    b = parse("[](bot -> bot)")
    prover.clear_caches()
    start = time.monotonic()
    res = craig(wkt, a, b)
    assert time.monotonic() - start < 5
    assert prover.check(wkt, res.left_certificate)
    assert prover.check(wkt, res.right_certificate)


def test_craig_on_a_deep_chain():
    # One Python frame per derivation level, as search takes.
    wm = get_logic("WM")
    a = parse("[]" * 60000 + "p1")
    res = craig(wm, a, a)
    assert prover.check(wm, res.left_certificate)
    assert prover.check(wm, res.right_certificate)


# ---------------------------------------------------------------------------
# partition exhaustiveness over random derivable sequents

@pytest.mark.parametrize("name", W_LOGICS)
def test_all_partitions_interpolate(name):
    logic = LOGICS[name]
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(8):
        seq = sampling.sample_derivable_sequent(logic, rng, size=4,
                                                max_side=4)
        _interpolate_every_partition(logic, prove(logic, seq).derivation)


# ---------------------------------------------------------------------------
# one derivation step per rule, every partition

# Between them these conclusions have an instance with provable premises
# of every rule of every W-logic, with side formulas and with several
# antecedent principals.
RULE_CONCLUSIONS = (
    "p1, p2 |- p1", "bot, p1 |- p2", "p1 & p2 |- p2",
    "p1 | p2, p2 -> p1 |- p1", "p1, p1 -> p2 |- p2", "p1, p2 |- p1 & p2",
    "p1 |- p2 | p1", "p2 |- p1 -> p2", "[]p1, p1 -> p2 |- p2", "p1 |- <>p1",
    "p2, []p1, [](p1 -> p2) |- []p2", "p2, []p1, []p2 |- []p1",
    "[]p1, <>(p1 -> p2) |- <>p2", "[]p1, <>p1 |- <>p1",
    "p2, []p1, []p2, <>~p1 |-", "[]p1, []~p1 |-",
    "[]p1, [](p1 -> p2) |- <>p2", "p1 |- [](p2 -> p2)",
    "p1 |- <>(p2 -> p2)", "p1, <>bot |-", "p1, []bot |-",
    # A principal that also stands on the other side.
    "p1 -> p2 |- p1 -> p2", "p1 & p2 |- p1 & p2",
    # A component that the antecedent already holds.
    "p1 & p2, p2 |- p2", "p1 | p2, p1, p2 -> p1 |- p1", "[]p1, p1 |- p1",
    "p1, p1 -> p2, p2 |- p2",
)


@pytest.mark.parametrize("name", W_LOGICS)
def test_every_rule_step_interpolates(name):
    logic = LOGICS[name]
    covered = set()
    for text in RULE_CONCLUSIONS:
        for inst in backward_applications(logic,
                                          parse_sequent(text, CONSTRUCTIVE)):
            results = [prove(logic, prem) for prem in inst.premises]
            if not all(r.proved for r in results):
                continue
            covered.add(inst.rule)
            _interpolate_every_partition(logic, Derivation(
                inst.rule, inst.conclusion, inst.principal,
                tuple(r.derivation for r in results)))
    assert covered == set(logic.rules)
