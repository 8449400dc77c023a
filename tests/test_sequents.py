"""Sequents, the single-succedent restriction, and formula readings."""

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys

import pytest

import wmodal
from wmodal import prover, sampling, sequents
from wmodal.logics import get_logic
from wmodal.sequents import (CLASSICAL, CONSTRUCTIVE, Sequent, interpret,
                             norm_side, parse_sequent)
from wmodal.syntax import (AND, ATOM, BOT, BOX, DIA, IMP, OR, ParseError, atom,
                           bot, box, conj, disj, imp, neg, parse, render)

p1, p2, q = atom(1), atom(2), atom(3)


# ---------------------------------------------------------------------------
# interpret

def test_interpret_conjoined_antecedent():
    s = Sequent((p1, p2), (q,), CONSTRUCTIVE)
    assert interpret(s) is imp(conj(p1, p2), q)


def test_interpret_empty_empty_is_bot():
    assert interpret(Sequent((), (), CONSTRUCTIVE)) is bot


def test_interpret_empty_succedent_is_negation():
    assert interpret(Sequent((p1,), (), CONSTRUCTIVE)) is neg(p1)


def test_interpret_empty_antecedent_is_disjunction():
    assert interpret(Sequent((), (p1,), CONSTRUCTIVE)) is p1
    assert interpret(Sequent((), (p1, p2), CLASSICAL)) is disj(p1, p2)


def test_interpret_order_insensitive():
    assert (interpret(Sequent((p1, p2), (q,), CONSTRUCTIVE))
            is interpret(Sequent((p2, p1), (q,), CONSTRUCTIVE)))


# ---------------------------------------------------------------------------
# keys and normalization: a Sequent, the key of search caches, is built
# normalized

def test_key_collapses_duplicates():
    a = Sequent((p1, p1), (q,), CLASSICAL)
    b = Sequent((p1,), (q,), CLASSICAL)
    assert a == b and hash(a) == hash(b)


def test_key_order_insensitive():
    a = Sequent((p1, p2), (q,), CONSTRUCTIVE)
    b = Sequent((p2, p1), (q,), CONSTRUCTIVE)
    assert a == b and hash(a) == hash(b)


def test_key_empty():
    s = Sequent([], iter(()), CLASSICAL)
    assert (s.ant, s.suc) == ((), ())
    assert s == Sequent((), (), CLASSICAL)


def test_normalized_dedups_and_sorts():
    s = Sequent((p2, p1, p2), (q,), CLASSICAL)
    assert s.ant == (p1, p2)
    assert s.normalized() is s
    assert norm_side((p2, p1, p2)) == (p1, p2)


def _reference_key(f):
    """The order key recomputed recursively from the formula's structure."""
    if f.kind == ATOM:
        return (f.complexity, 0, f.index)
    if f.kind == BOT:
        return (f.complexity, 1)
    rank = 2 + (AND, OR, IMP, BOX, DIA).index(f.kind)
    if f.kind in (BOX, DIA):
        return (f.complexity, rank, _reference_key(f.left))
    return (f.complexity, rank, _reference_key(f.left),
            _reference_key(f.right))


def _formulas_with_sharing(rng, n):
    """Random formulas, a third of them built from earlier ones."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.35:
            a, b = rng.choice(out), rng.choice(out)
            out.append(rng.choice([conj(a, b), imp(a, box(b)), disj(b, a)]))
        else:
            out.append(sampling.random_formula(rng, rng.randint(1, 9)))
    return out


def test_norm_side_order_matches_reference_key():
    rng = random.Random(7)
    for _ in range(200):
        fs = _formulas_with_sharing(rng, rng.randint(1, 12))
        for f in fs:
            assert f.key == _reference_key(f)
        side = fs * 2
        rng.shuffle(side)
        assert norm_side(side) == tuple(sorted(set(fs), key=_reference_key))


_RENDER_SIDE = """
import json, sys
from wmodal.sequents import norm_side
from wmodal.syntax import parse, render
texts = json.load(sys.stdin)
fs = [parse(t) for t in texts]
print(json.dumps([render(f) for f in norm_side(fs)]))
"""


def test_norm_side_is_the_same_in_every_process():
    # Interning in opposite orders puts the formulas at other addresses,
    # and hence gives other hashes and set orders, in the two processes.
    texts = [render(f) for f in _formulas_with_sharing(random.Random(11), 60)]
    src = os.path.dirname(os.path.dirname(wmodal.__file__))
    outs = []
    for seed, order in (("1", texts), ("2", texts[::-1])):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _RENDER_SIDE],
                             input=json.dumps(order), capture_output=True,
                             text=True, env=env, timeout=60, check=True)
        outs.append(json.loads(run.stdout))
    assert outs[0] == outs[1]
    assert outs[0] == [render(f) for f in norm_side(parse(t) for t in texts)]


_SHOWN = """
import json, sys
from wmodal import interpolation, prover, semantics
from wmodal.logics import get_logic
from wmodal.sequents import norm_side
from wmodal.syntax import conj, disj, imp, parse, render, subformulas
texts = json.load(sys.stdin)
if sys.argv[1] == "moved":
    junk = [[i] * (i % 9) for i in range(100_000)]
    fs = [parse(t) for t in texts[::-1]][::-1]
else:
    fs = [parse(t) for t in texts]
subs = set().union(*map(subformulas, fs))
out = {"set": [render(f) for f in subs],
       "norm_side": [render(f) for f in norm_side(subs)],
       "program": [repr(semantics._program(f)) for f in fs],
       "proofs": [], "craig": [], "countermodels": []}
for name in ("WK", "K", "WKT", "MCT"):
    logic = get_logic(name)
    for f in fs:
        res = prover.prove(logic, prover.goal(logic, f))
        if res.proved:
            out["proofs"].append(res.derivation.pretty())
        elif name in ("WK", "K"):
            found = semantics.enumerate_countermodel(logic, f, 2)
            if found:
                out["countermodels"].append(semantics.model_to_json(found[0]))
wkt = get_logic("WKT")
for a, b, c in zip(fs, fs[1:], fs[2:]):
    res = interpolation.craig(wkt, conj(a, imp(a, b)), disj(b, c))
    out["craig"].append(render(res.interpolant))
print(json.dumps(out))
"""


def test_output_does_not_depend_on_memory_addresses():
    # Formulas hash by identity, so a set of them iterates in an order
    # that follows their addresses.  The second interpreter allocates
    # 100,000 objects first and interns the formulas in reverse order.
    rng = random.Random(5)
    texts = [render(sampling.random_formula(rng, rng.randint(2, 7)))
             for _ in range(40)]
    src = os.path.dirname(os.path.dirname(wmodal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    outs = []
    for how in ("plain", "moved"):
        run = subprocess.run([sys.executable, "-c", _SHOWN, how],
                             input=json.dumps(texts), capture_output=True,
                             text=True, env=env, timeout=60, check=True)
        outs.append(json.loads(run.stdout))
    assert outs[0].pop("set") != outs[1].pop("set")
    assert outs[0] == outs[1]
    assert all(outs[0].values())


def test_sequent_contract():
    a = Sequent((p1, p2), (q,), CONSTRUCTIVE)
    b = Sequent((p1, p2), (q,), CONSTRUCTIVE)
    assert a == b and hash(a) == hash(b)
    assert a != Sequent((p1, p2), (q,), CLASSICAL)
    assert {a: 1}[b] == 1
    assert repr(a) == ("Sequent(ant=(Formula(p1), Formula(p2)), "
                       "suc=(Formula(p3),), mode='constructive')")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.ant = ()
    assert not hasattr(a, "__dict__")


def test_sequent_is_a_record_not_a_tuple():
    a = Sequent((p2, p1, p1), (q,), CONSTRUCTIVE)
    b = Sequent((p1, p2), (q, q), CONSTRUCTIVE)
    assert a == b and hash(a) == hash(b)
    assert a != (a.ant, a.suc, a.mode) and (a.ant, a.suc, a.mode) != a
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.mode
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        c = pickle.loads(pickle.dumps(a, protocol))
        assert c == a and hash(c) == hash(a) and c.ant[0] is p1


# ---------------------------------------------------------------------------
# interning: equal sequents are one object until prover.clear_caches()

def test_equal_sequents_of_one_epoch_are_one_object():
    a = Sequent((p2, p1, p2), (q, q), CONSTRUCTIVE)
    assert Sequent([p1, p1, p2], iter((q,)), CONSTRUCTIVE) is a
    assert Sequent((p1, p2), (q,), CLASSICAL) is not a


def test_sequent_built_before_clear_caches_equals_its_twin_after():
    old = Sequent((p2, p1), (q,), CONSTRUCTIVE)
    prover.clear_caches()
    new = Sequent((p1, p2), (q,), CONSTRUCTIVE)
    assert new is not old
    assert new == old and old == new and hash(new) == hash(old)
    assert {new: 1}[old] == 1 and {old: 1}[new] == 1
    assert Sequent((p1, p2), (q,), CONSTRUCTIVE) is new


def test_check_accepts_a_derivation_found_before_clear_caches():
    # check rebuilds each step's premises, in the new epoch.
    wk = get_logic("WK")
    d = prover.prove(wk, prover.goal(wk, parse("[](p1 -> p2) -> []p1 -> []p2"))
                     ).derivation
    assert len(list(d.steps())) == 6   # Rimp, Rimp, iKbox, Limp, init, init
    prover.clear_caches()
    assert prover.check(wk, d)


def test_pickle_returns_the_interned_sequent():
    a = Sequent((p2, p1), (q,), CONSTRUCTIVE)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) is a


# ---------------------------------------------------------------------------
# modes: an invalid sequent raises each time it is built and is not interned

def test_constructive_single_succedent_enforced():
    size = len(sequents._intern)
    for _ in range(2):
        with pytest.raises(ValueError):
            Sequent((), (p1, p2), CONSTRUCTIVE)
    assert len(sequents._intern) == size


def test_constructive_duplicate_succedent_allowed():
    # duplicates of a single formula still denote one succedent formula
    s = Sequent((), (p1, p1), CONSTRUCTIVE)
    assert s.suc == (p1,)


def test_unknown_mode_rejected():
    size = len(sequents._intern)
    for _ in range(2):
        with pytest.raises(ValueError):
            Sequent((), (), "modal")
    assert len(sequents._intern) == size


# ---------------------------------------------------------------------------
# parsing

def test_parse_sequent_basic():
    s = parse_sequent("p1, p2 |- p1 & p2", CONSTRUCTIVE)
    assert s == Sequent((p1, p2), (conj(p1, p2),), CONSTRUCTIVE)


def test_parse_sequent_empty_sides():
    assert parse_sequent("p1 |-", CONSTRUCTIVE) == \
        Sequent((p1,), (), CONSTRUCTIVE)
    assert parse_sequent("|- p1", CONSTRUCTIVE) == \
        Sequent((), (p1,), CONSTRUCTIVE)


def test_parse_sequent_shares_name_table_across_formulas():
    # the same bare identifier denotes the same atom on both sides
    s = parse_sequent("a, b |- a", CONSTRUCTIVE)
    assert s.ant[0] is s.suc[0]
    assert s.ant[0] is not s.ant[1]


def test_parse_sequent_reserves_explicit_atoms_globally():
    # p2 on the right reserves index 2 even for identifiers on the left
    s = parse_sequent("a |- p2", CONSTRUCTIVE)
    assert s.ant == (atom(1),)
    assert s.suc == (atom(2),)


def test_parse_sequent_commas_inside_parens():
    s = parse_sequent("(p1 & p2) |- p1", CONSTRUCTIVE)
    assert s.ant == (conj(p1, p2),)


def test_parse_sequent_requires_turnstile():
    with pytest.raises(ValueError):
        parse_sequent("p1, p2", CONSTRUCTIVE)


@pytest.mark.parametrize("text, found, pos", [
    ("p1, p2 |- p1 & $", "'$'", 15),
    ("p1, p2, (p3 |- p1", "'|-'", 12),
])
def test_parse_sequent_error_position_in_whole_text(text, found, pos):
    with pytest.raises(ParseError) as e:
        parse_sequent(text, CONSTRUCTIVE)
    assert e.value.pos == pos and found in str(e.value)
