"""Neighbourhood models: forcing, conditions, generation, countermodels."""

import collections
import functools
import hashlib
import itertools
import random
import types

import pytest

from wmodal import prover, sampling, semantics, syntax
from wmodal.logics import LOGICS, get_logic
from wmodal.prover import BudgetExceeded
from wmodal.semantics import (Model, check_conditions,
                              enumerate_countermodel, extension, forces,
                              model_from_json, model_to_json, random_model,
                              valid_in_model)
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE
from wmodal.syntax import AND, ATOM, BOT, BOX, DIA, IMP, OR, atom, bot, box, \
    dia, neg, parse, top

p = atom(1)

EMPTY_CLASSICAL = Model(CLASSICAL, 1, (1,), ((),), ())
EMPTY_CNM = Model(CONSTRUCTIVE, 1, (1,), ((),), ())


# ---------------------------------------------------------------------------
# forcing

def test_empty_neighbourhoods_force_dia_bot():
    assert forces(EMPTY_CLASSICAL, 0, dia(bot))
    assert forces(EMPTY_CNM, 0, dia(bot))


def test_empty_neighbourhoods_refute_box_top():
    assert not forces(EMPTY_CLASSICAL, 0, box(top))
    assert not forces(EMPTY_CNM, 0, box(top))


def test_singleton_neighbourhood_forces_box_p():
    classical = Model(CLASSICAL, 1, (1,), ((1,),), ((1, 1),))
    constructive = Model(CONSTRUCTIVE, 1, (1,), ((1,),), ((1, 1),))
    assert forces(classical, 0, box(p))
    assert forces(constructive, 0, box(p))


def test_constructive_implication_quantifies_over_successors():
    # w0 <= w1; p holds only at w1, q nowhere: p -> q fails at w0 because
    # the successor w1 refutes it locally.
    m = Model(CONSTRUCTIVE, 2, (3, 2), ((), ()), ((1, 2),))
    assert not forces(m, 0, parse("p1 -> p2"))
    assert forces(m, 0, neg(p)) is False  # p is forced at the successor


def reference_extension(model, f, memo=None):
    """Forcing clause by clause, recursively: the evaluator that the
    single compiled one replaced, kept as the reference."""
    if memo is None:
        memo = {}
    m = memo.get(f)
    if m is not None:
        return m
    full = model.full
    k = f.kind
    if k == BOT:
        m = 0
    elif k == ATOM:
        m = dict(model.val).get(f.index, 0)
    elif k == AND:
        m = reference_extension(model, f.left, memo) & \
            reference_extension(model, f.right, memo)
    elif k == OR:
        m = reference_extension(model, f.left, memo) | \
            reference_extension(model, f.right, memo)
    elif k == IMP:
        a = reference_extension(model, f.left, memo)
        b = reference_extension(model, f.right, memo)
        if model.kind == CLASSICAL:
            m = (~a | b) & full
        else:
            bad = a & ~b    # worlds where the implication fails locally
            m = 0
            for w in range(model.n):
                if not model.succ[w] & bad:
                    m |= 1 << w
    else:
        b = reference_extension(model, f.left, memo)
        local = 0
        for w in range(model.n):
            fam = model.neigh[w]
            if k == BOX:
                ok = any(not a & ~b for a in fam)
            else:
                ok = all(a & b for a in fam)
            if ok:
                local |= 1 << w
        m = local
        if model.kind != CLASSICAL:
            m = 0
            for w in range(model.n):
                if not model.succ[w] & ~local:
                    m |= 1 << w
    memo[f] = m
    return m


def test_extension_matches_reference():
    rng = random.Random(29)
    names = sorted(LOGICS)
    for _ in range(300):
        model = random_model(LOGICS[rng.choice(names)], 4, rng.getrandbits(32))
        # Random models hold antichain families only, but a model document
        # may give any family: widened by the full set, each family that
        # holds another set is no antichain.
        wide = model._replace(neigh=tuple(tuple(sorted({*fam, model.full}))
                                          for fam in model.neigh))
        for _ in range(8):
            f = sampling.random_formula(rng, rng.randint(1, 9))
            for m in (model, wide):
                assert extension(m, f) == reference_extension(m, f), \
                    (model_to_json(m), syntax.render(f))


def test_extension_without_modal_part_builds_no_local_table(monkeypatch):
    # Only box and diamond read the neighbourhoods.
    def no_table(*args):
        raise AssertionError("local table built")
    monkeypatch.setattr(semantics, "_lane_local", no_table)
    rng = random.Random(37)
    names = sorted(LOGICS)
    plain = [f for f in sampling.formulas_up_to_size(5, 3)
             if not semantics._program(f)[2]]
    proper = 0
    for _ in range(200):
        model = random_model(LOGICS[rng.choice(names)], 3, rng.getrandbits(32))
        proper += model.succ != semantics._discrete(model.n)
        for f in rng.sample(plain, 10):
            assert extension(model, f) == reference_extension(model, f), \
                (model_to_json(model), syntax.render(f))
    assert proper >= 30


def test_program_cache_holds_the_size6_space():
    # A pass over the space one logic at a time, as the countermodel
    # sweep makes, finds every formula compiled by the pass before.
    space = sampling.formulas_up_to_size(6, 2)
    semantics._program.cache_clear()
    for f in space:
        semantics._program(f)
    semantics._program(space[0])
    assert semantics._program.cache_info().hits == 1


def test_classical_model_is_discrete_constructive_model():
    rng = random.Random(31)
    for _ in range(200):
        m = random_model(get_logic(rng.choice(["M", "MC", "MN", "K", "KT"])),
                         4, rng.getrandbits(32))
        assert m.succ == tuple(1 << w for w in range(m.n))
        c = m._replace(kind=CONSTRUCTIVE)
        c.validate()
        for _ in range(5):
            f = sampling.random_formula(rng, rng.randint(1, 9))
            assert extension(m, f) == extension(c, f)


def test_world_out_of_range():
    with pytest.raises(ValueError):
        forces(EMPTY_CLASSICAL, 1, p)


# ---------------------------------------------------------------------------
# conditions

def test_condition_n_fails_on_empty_family():
    rep = check_conditions(EMPTY_CNM, get_logic("WMN"))
    assert rep.status["N"] is False
    assert rep.witnesses["N"] == (0,)
    assert not rep.ok


def test_condition_c_fails_on_missing_intersection():
    m = Model(CLASSICAL, 2, (1, 2), ((1, 2), ()), ())
    rep = check_conditions(m, get_logic("MC"))
    assert not rep.ok
    assert rep.status["C"] is False and rep.witnesses["C"] is not None


def test_condition_t_holds_when_worlds_in_their_neighbourhoods():
    m = Model(CLASSICAL, 2, (1, 2), ((1, 3), (2,)), ())
    assert check_conditions(m, get_logic("MT")).ok


def test_condition_d_includes_equal_pairs():
    # {a} with a nonempty intersects itself; the empty neighbourhood fails D
    md = get_logic("MD")
    assert check_conditions(Model(CLASSICAL, 1, (1,), ((1,),), ()), md).ok
    assert not check_conditions(Model(CLASSICAL, 1, (1,), ((0,),), ()), md).ok


# ---------------------------------------------------------------------------
# validity

def test_top_valid_everywhere():
    assert valid_in_model(EMPTY_CLASSICAL, top)
    assert valid_in_model(EMPTY_CNM, top)


def test_n_dia_fails_in_empty_model():
    assert not valid_in_model(EMPTY_CNM, neg(dia(bot)))


def test_box_top_valid_under_condition_n():
    m = random_model(get_logic("WMN"), 4, seed=11)
    assert valid_in_model(m, box(top))


# ---------------------------------------------------------------------------
# random models

@pytest.mark.parametrize("name",
                         ["WM", "WMN", "WKT", "WMND", "M", "K", "MD", "KT"])
def test_random_model_satisfies_conditions(name):
    logic = LOGICS[name]
    for seed in range(10):
        m = random_model(logic, 4, seed)
        assert check_conditions(m, logic).ok
        assert m.kind == logic.mode
        m.validate()


def test_random_model_single_world_wm():
    m = random_model(get_logic("WM"), 1, seed=0)
    assert m.n == 1


@pytest.mark.parametrize("name", ["WM", "WMN", "WKT", "M", "MD", "KT"])
def test_random_model_drawn_from_enumeration_tables(name):
    logic = LOGICS[name]
    for max_worlds in range(1, semantics.MAX_WORLDS + 1):
        for seed in range(25):
            m = random_model(logic, max_worlds, seed)
            n = m.n
            assert 1 <= n <= max_worlds
            assert m.succ in semantics._preorders(n)
            if logic.mode == CLASSICAL:
                assert m.succ == semantics._discrete(n)
            for w, fam in enumerate(m.neigh):
                assert fam in semantics._families(n, logic.conditions, w)
            assert [a for a, _ in m.val] == [1, 2, 3]
            for _, v in m.val:
                assert v in semantics._upsets(m.succ)


@pytest.mark.parametrize("max_worlds", [0, semantics.MAX_WORLDS + 1])
def test_random_model_rejects_world_counts_the_enumeration_lacks(max_worlds):
    with pytest.raises(ValueError, match="max_worlds must be in 1..%d"
                       % semantics.MAX_WORLDS):
        random_model(get_logic("WM"), max_worlds, seed=0)


# ---------------------------------------------------------------------------
# countermodel enumeration

def test_countermodel_wm_n_dia():
    found = enumerate_countermodel(get_logic("WM"), neg(dia(bot)), 1)
    assert found is not None
    model, world = found
    assert model.n == 1 and model.neigh[0] == ()
    assert not forces(model, world, neg(dia(bot)))


def test_countermodel_wk_dia_distribution():
    wk = get_logic("WK")
    f = parse("<>(p1|p2) -> <>p1 | <>p2")
    found = enumerate_countermodel(wk, f, 3)
    assert found is not None
    model, world = found
    assert check_conditions(model, wk).ok
    model.validate()
    assert not forces(model, world, f)
    # soundness contrapositive: a witness means the prover must refuse it
    assert not prover.decide(wk, f)


def test_countermodel_none_for_theorems():
    wk = get_logic("WK")
    f = parse("[](p1->p2) -> ([]p1 -> []p2)")
    assert enumerate_countermodel(wk, f, 2) is None
    wm = get_logic("WM")
    assert enumerate_countermodel(wm, parse("p1 -> p1"), 2) is None


def test_countermodel_wm_refutes_excluded_middle():
    wm = get_logic("WM")
    f = parse("p1 | ~p1")
    found = enumerate_countermodel(wm, f, 2)
    assert found is not None
    model, world = found
    assert not forces(model, world, f)


def test_countermodel_witnesses_unchanged():
    # Digest of the (model, world) found for every (logic, formula) pair
    # of the size <= 4 two-atom space at 2 worlds, as the recursive
    # evaluator with per-world clause loops found them.
    h = hashlib.sha256()
    for name in sorted(LOGICS):
        for f in sampling.formulas_up_to_size(4, 2):
            hit = enumerate_countermodel(LOGICS[name], f, 2)
            doc = "none" if hit is None else \
                "%s@%d" % (model_to_json(hit[0]), hit[1])
            h.update(("%s\t%s\t%s\n" % (name, syntax.render(f), doc)).encode())
    assert h.hexdigest() == \
        "93dee183899d0a32f1ed8768d002d03ae15935240d1bf17eb1643d6fc01399e7"


@functools.cache
def local_column(kind, fam, w, n):
    """World w's bit of the local box or diamond table, for every
    extension over n worlds, when w has the family fam."""
    if kind == BOX:
        return tuple(any(not a & ~b for a in fam) << w for b in range(1 << n))
    return tuple(all(a & b for a in fam) << w for b in range(1 << n))


def up_of(succ, m):
    """The worlds all of whose successors lie in m."""
    return sum(1 << w for w, s in enumerate(succ) if not s & ~m)


class TooLong(Exception):
    pass


def reference_countermodel(logic, f, max_worlds, limit):
    """The first (model, world) refuting f, trying one neighbourhood
    choice at a time, with a table of local forcing per choice: the loop
    that the lane-sliced search replaced.  Raises TooLong once it would
    try more than limit models."""
    atoms, program, modal = semantics._program(f)
    rest = [0] * len(program)
    tried = 0
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        choices = list(itertools.product(
            *(semantics._families(n, logic.conditions, w) for w in range(n))))
        if not modal:
            choices = choices[:1]
        tables = []
        orders = (semantics._preorders(n) if logic.mode == CONSTRUCTIVE
                  else (semantics._discrete(n),))
        for succ in orders:
            up = [up_of(succ, m) for m in range(full + 1)]
            upsets = [m for m in range(full + 1) if up[m] == m]
            for vals in itertools.product(upsets, repeat=len(atoms)):
                tried += len(choices)
                if tried > limit:
                    raise TooLong
                ext = [*vals, *rest]
                for i, neigh in enumerate(choices):
                    if i == len(tables):
                        tables.append({k: tuple(map(sum, zip(*(
                            local_column(k, fam, w, n)
                            for w, fam in enumerate(neigh))))).__getitem__
                            for k in (BOX, DIA)})
                    m = semantics._run(program, ext, full, up.__getitem__,
                                       tables[i])[-1]
                    if m != full:
                        model = Model(logic.mode, n, succ, neigh,
                                      tuple(zip(atoms, vals)))
                        return model, semantics._bits(full & ~m)[0]
    return None


# Forced at every world of a model with fewer than 3 worlds: refuting it
# at w takes a neighbourhood of w inside |~p8 | ~p9| that holds a world
# not forcing ~p8 (so forcing ~p9) and one not forcing ~p9; the two
# differ, and neither is w, which forces both.
NEEDS_3_WORLDS = parse("~(~p8 & ~p9 & [](~p8 | ~p9) & ~[]~p8 & ~[]~p9)")


def witness_doc(hit):
    return "none" if hit is None else "%s@%d" % (model_to_json(hit[0]), hit[1])


def test_countermodel_witnesses_unchanged_at_3_worlds():
    # As test_countermodel_witnesses_unchanged, for the size <= 5 one-atom
    # space at 3 worlds: 13,112 witnesses of 1 world, 400 of 2 and 2 of 3,
    # and 2,670 exhaustive searches.
    h = hashlib.sha256()
    sizes = collections.Counter()
    for name in sorted(LOGICS):
        for f in sampling.formulas_up_to_size(5, 1):
            hit = enumerate_countermodel(LOGICS[name], f, 3)
            sizes[0 if hit is None else hit[0].n] += 1
            h.update(("%s\t%s\t%s\n" % (name, syntax.render(f),
                                        witness_doc(hit))).encode())
    assert sizes == {1: 13_112, 2: 400, 3: 2, 0: 2_670}
    assert h.hexdigest() == \
        "e3e008e9bf707fb9a67eeb0dfb0bf27637318b398585af0f28803182152fb196"


# Refuted only at a world that has a neighbourhood, every one of which
# meets four pairwise disjoint sets of worlds: so in no model of fewer
# than 4 worlds.  In K it is ROADMAP item 2's 4-world example.
NEEDS_4_WORLDS = parse("[]top & <>(p1 & ~p2 & ~p3) & <>(p2 & ~p1 & ~p3)"
                       " & <>(p3 & ~p1 & ~p2) & <>(~p1 & ~p2 & ~p3) -> bot")
T_LOGICS = ["KT", "MCT", "MNT", "MT", "WKT", "WMCT", "WMNT", "WMT"]


def test_countermodel_witnesses_unchanged_at_4_worlds():
    # Digest of the witnesses of 4-world searches, from before one frame
    # class's plan served both kinds of model and the 4-world slices of
    # the T-logics grew from 2 worlds to 3: the K example in KT and WKT,
    # and in each T-logic a seeded non-theorem NEEDS_4_WORLDS | r.
    # Theorems are left out: their searches are exhaustive at 4 worlds.
    k_example = parse("<>(p1 & ~p2 & ~p3) & <>(p2 & ~p1 & ~p3)"
                      " & <>(p3 & ~p1 & ~p2) & <>(~p1 & ~p2 & ~p3) -> bot")
    searches = [("KT", k_example), ("WKT", k_example)]
    rng = random.Random(4)
    for name in T_LOGICS:
        while True:
            f = syntax.disj(NEEDS_4_WORLDS,
                            sampling.random_formula(rng, rng.randint(1, 5), 3))
            if not prover.decide(LOGICS[name], f):
                break
        searches.append((name, f))
    h = hashlib.sha256()
    for name, f in searches:
        hit = enumerate_countermodel(LOGICS[name], f, 4)
        assert hit is not None and hit[0].n == 4
        h.update(("%s\t%s\t%s\n" % (name, syntax.render(f),
                                    witness_doc(hit))).encode())
    assert h.hexdigest() == \
        "dfbb05536f64e09cf5bff7c32d34ea7ee701e6440862271a2343a7faee25fc77"


def test_discrete_order_up_is_the_identity():
    # Where no world has a proper successor, up over the lanes is a
    # builtin, so _run makes no Python call for it.
    for n in range(1, semantics.MAX_WORLDS + 1):
        discrete = semantics._discrete(n)
        for lanes in (1, 3):
            up = semantics._lane_up(discrete, semantics._repeat(n, lanes))
            assert not isinstance(up, types.FunctionType)
            assert all(up(m) == m for m in range(1 << n * lanes))
        assert semantics._upsets(discrete) == tuple(range(1 << n))
    # The chain w0 <= w1 keeps the shifting up: w0 needs w1 in each lane.
    chain = (0b11, 0b10)
    up = semantics._lane_up(chain, semantics._repeat(2, 2))
    assert isinstance(up, types.FunctionType)
    assert [up(m) for m in range(4)] == [up_of(chain, m) for m in range(4)] \
        == [0, 0, 2, 3]
    assert up(0b1101) == 0b1100     # lane 0 {w0}, lane 1 {w0, w1}


def test_countermodel_matches_per_choice_reference():
    # Seeded 3-world searches in every logic, each of which gets to 3
    # worlds, where one run covers every neighbourhood choice.  The
    # reference needs a full neighbourhood product per
    # valuation, so searches it cannot end within 100,000 models (those
    # that try many valuations) are left out of the comparison.
    rng = random.Random(61)
    compared = []
    for name in sorted(LOGICS):
        f = syntax.disj(NEEDS_3_WORLDS, sampling.random_formula(
            rng, rng.randint(1, 5), 2))
        try:
            want = reference_countermodel(LOGICS[name], f, 3, 100_000)
        except TooLong:
            continue
        got = enumerate_countermodel(LOGICS[name], f, 3)
        assert witness_doc(got) == witness_doc(want), (name, syntax.render(f))
        compared.append(want)
    assert len(compared) >= 20
    assert all(hit is None or hit[0].n == 3 for hit in compared)


def test_lanes_agree_with_recursive_forcing():
    # Each lane of one run over a slice of neighbourhood choices holds
    # the extension of f in that lane's model.
    rng = random.Random(67)
    names = sorted(LOGICS)
    for _ in range(80):
        logic = LOGICS[rng.choice(names)]
        f = sampling.random_formula(rng, rng.randint(2, 9), 2)
        atoms, program, modal = semantics._program(f)
        n = rng.randint(1, 3)
        full = (1 << n) - 1
        sl = semantics._kept_slices(n, logic.conditions, modal)
        succ = rng.choice(semantics._preorders(n)
                          if logic.mode == CONSTRUCTIVE
                          else [semantics._discrete(n)])
        vals = [rng.choice(semantics._upsets(succ)) for _ in atoms]
        prefix = rng.choice(sl.prefixes)
        ext = [v * sl.one for v in vals] + [0] * len(program)
        m = semantics._run(program, ext, full * sl.one,
                           semantics._lane_up(succ, sl.one),
                           sl.local(prefix))[-1]
        for c, choice in enumerate(sl.choices):
            model = Model(logic.mode, n, succ, prefix + choice,
                          tuple(zip(atoms, vals)))
            lane = m >> c * n & full
            assert lane == reference_extension(model, f), \
                (model_to_json(model), syntax.render(f))


@pytest.mark.parametrize("name", ["WM", "WMN", "M", "KT", "WKT", "WMT"])
def test_lanes_agree_with_recursive_forcing_at_4_worlds(name):
    # Only MAX_WORLDS worlds cut the choices into slices: one random
    # prefix of the first two worlds (of the first world in the
    # T-logics), 200 evenly spaced lanes of the other worlds' choices.
    rng = random.Random(name)
    logic = LOGICS[name]
    n = semantics.MAX_WORLDS
    full = (1 << n) - 1
    f = syntax.imp(box(sampling.random_formula(rng, 4, 2)),
                   dia(sampling.random_formula(rng, 4, 2)))
    atoms, program, modal = semantics._program(f)
    sl = semantics._Slices(n, logic.conditions, modal)
    assert len(sl.prefixes) > 1
    succ = rng.choice(semantics._preorders(n) if logic.mode == CONSTRUCTIVE
                      else [semantics._discrete(n)])
    vals = [rng.choice(semantics._upsets(succ)) for _ in atoms]
    prefix = rng.choice(sl.prefixes)
    ext = [v * sl.one for v in vals] + [0] * len(program)
    m = semantics._run(program, ext, full * sl.one,
                       semantics._lane_up(succ, sl.one),
                       sl.local(prefix))[-1]
    for c in range(0, len(sl.choices), len(sl.choices) // 200):
        model = Model(logic.mode, n, succ, prefix + sl.choices[c],
                      tuple(zip(atoms, vals)))
        lane = m >> c * n & full
        assert lane == reference_extension(model, f), \
            (model_to_json(model), syntax.render(f))


@pytest.mark.parametrize("name, n, text, spread", [
    # 8,000 choices at 3 worlds without conditions: no valuation blocks
    ("WM", 3, "[]p1 -> <>(p2 & p1)", "none"),
    # 36 choices at 2 worlds: 4^3 blocks of them under the discrete
    # order, 4 atoms' worth under the orders with fewer up-sets
    ("M", 2, "[](p1 -> p2) | <>(p3 & ~p4)", "some"),
    ("WM", 2, "[](p1 -> p2) | <>(p3 & ~p4)", "some"),
    ("K", 2, "[]p1 -> <>(p2 | ~p1)", "all"),
    ("WKT", 2, "[](p1 -> p2) -> <>p1", "all"),
])
def test_lanes_of_valuation_blocks_agree_with_recursive_forcing(
        name, n, text, spread):
    # After one run of an order of a frame class, lane c of block i
    # holds the extension of f in the model of choice c under the i-th
    # valuation of the atoms in the lanes, in product order.
    rng = random.Random(name + text)
    logic, f = LOGICS[name], parse(text)
    atoms, program, modal = semantics._program(f)
    plan = semantics._kept_plan(logic.conditions, n, modal, len(atoms))
    sl = plan.slices
    full = (1 << n) - 1
    kept = set()
    # A classical search runs the first order, the discrete one, alone.
    orders = plan.orders[:None if logic.mode == CONSTRUCTIVE else 1]
    orders = rng.sample(orders, min(4, len(orders)))
    for succ, upsets, lanes, one, up, local, masks in orders:
        j = len(masks)
        kept.add(j)
        assert lanes == len(upsets) ** j * len(sl.choices) <= 8000
        outer = [rng.choice(upsets) for _ in atoms[j:]]
        ext = [v * one for v in outer] + masks + [0] * len(program)
        m = semantics._run(program, ext, full * one, up, local)[-1]
        blocks = list(itertools.product(upsets, repeat=j))
        for lane in range(lanes):
            block, c = divmod(lane, len(sl.choices))
            model = Model(
                logic.mode, n, succ, sl.choices[c],
                tuple(zip(atoms, outer + list(blocks[block]))))
            value = m >> lane * n & full
            assert value == reference_extension(model, f), \
                (model_to_json(model), lane)
    assert {"none": {0}, "all": {len(atoms)}}.get(spread, kept) == kept
    if spread == "some":
        assert 0 < min(kept) < len(atoms)


def test_no_valuation_blocks_beside_several_slices():
    # KT has 19 families per world at MAX_WORLDS, so 19 prefixes of the
    # first world and 6,859 choices of the last three per slice; blocks
    # there would try a later prefix's choices before an earlier
    # valuation's.
    kt = LOGICS["KT"]
    n = semantics.MAX_WORLDS
    plan = semantics._Plan(semantics._Slices(n, kt.conditions, True), n, 2)
    assert (len(plan.slices.prefixes), len(plan.slices.choices)) == \
        (19, 6_859)
    assert plan.k == 0
    assert {len(spread) for *_, spread in plan.orders} == {0}


def test_classical_search_sets_up_the_discrete_order_alone():
    # No constructive logic has the frame class of MD or of MCD (WMD and
    # WMCD add P), so their plans set up only what classical searches
    # reach: the discrete order, first, though a theorem tries them all.
    semantics._kept_plan.cache_clear()
    for name in ("MD", "MCD"):
        logic = get_logic(name)
        for text in ("p1 -> p1", "[]p1 -> <>p1", "[](p1 & p2) -> []p1",
                     "[]p1 & []p2 -> [](p2 | p1)"):
            f = parse(text)
            assert enumerate_countermodel(logic, f, 3) is None
            atoms, _, modal = semantics._program(f)
            for n in (1, 2, 3):
                plan = semantics._kept_plan(logic.conditions, n, modal,
                                            len(atoms))
                first, *rest = plan.orders
                assert first.__class__ is tuple
                assert all(o.__class__ is semantics._Unset for o in rest)


def test_preorders_start_with_the_discrete_order():
    # So the first order of a plan is the one a classical search runs.
    for n in range(1, semantics.MAX_WORLDS + 1):
        assert semantics._preorders(n)[0] == semantics._discrete(n)


@pytest.mark.parametrize("name, prefix_worlds", [
    *((name, 2) for name in ["M", "MN", "MC", "K", "MD", "KD"]),
    *((name, 1) for name in T_LOGICS)])
def test_slices_leave_at_most_8000_choices_to_a_run(name, prefix_worlds):
    # A slice holds the last worlds for the fewest prefix worlds that
    # leave at most 8,000 choices, and never fewer than the last two.
    conds = LOGICS[name].conditions
    n = semantics.MAX_WORLDS
    for worlds in range(1, n):
        sl = semantics._kept_slices(worlds, conds, True)
        assert sl.prefixes == ((),) and len(sl.choices) <= 8000
    assert semantics._Slices(n, conds, False).prefixes == ((),)
    sl = semantics._Slices(n, conds, True)
    assert {len(prefix) for prefix in sl.prefixes} == {prefix_worlds}
    assert len(sl.choices) <= 8000 or prefix_worlds == n - 2


# Forced at every world of a 1-world model: refuting it takes two
# neighbourhoods, one inside |p4| and one inside |~p4|, neither empty.
NEEDS_2_WORLDS = parse("~([]p4 & []~p4 & ~[]bot)")


def test_countermodel_matches_per_choice_reference_with_valuation_blocks():
    # 2-world searches of 3- and 4-atom formulas in every logic, whose
    # runs hold several valuations each.
    rng = random.Random(71)
    compared = 0
    for name in sorted(LOGICS):
        for _ in range(2):
            while True:
                f = syntax.disj(NEEDS_2_WORLDS, sampling.random_formula(
                    rng, rng.randint(3, 7), 3))
                if len(semantics._program(f)[0]) >= 3:
                    break
            want = reference_countermodel(LOGICS[name], f, 2, 100_000)
            got = enumerate_countermodel(LOGICS[name], f, 2)
            assert witness_doc(got) == witness_doc(want), \
                (name, syntax.render(f))
            compared += want is not None and want[0].n == 2
    assert compared >= 10


def test_prover_and_countermodels_agree_on_size5_space():
    # The paper's claim on the size <= 5 two-atom space: a formula is a
    # theorem exactly when it has no countermodel of at most 3 worlds.
    disagree = []
    for name in sorted(LOGICS):
        logic = LOGICS[name]
        for f in sampling.formulas_up_to_size(5, 2):
            refuted = enumerate_countermodel(logic, f, 3) is not None
            if prover.decide(logic, f) == refuted:
                disagree.append((name, syntax.render(f)))
    assert disagree == []


@pytest.mark.parametrize("name", ["WK", "WMC"])
def test_countermodel_k_axiom_exhaustive_at_3_worlds(name):
    # Every 3-world model of the class is tried within 3 s.
    f = parse("[](p1 -> p2) -> ([]p1 -> []p2)")
    assert enumerate_countermodel(get_logic(name), f, 3,
                                  timeout_secs=3) is None


def test_countermodel_search_honours_timeout():
    # 168 families per world at 4 worlds: the product has 8e8 choices.
    with pytest.raises(BudgetExceeded) as e:
        enumerate_countermodel(get_logic("M"), parse("[]p1 -> []p1"), 4,
                               timeout_secs=0.2)
    assert e.value.reason == "timeout"


def test_countermodel_search_bounds_worlds():
    assert enumerate_countermodel(get_logic("M"), p, 9) is not None
    with pytest.raises(BudgetExceeded):
        enumerate_countermodel(get_logic("M"), parse("p1 -> p1"),
                               semantics.MAX_WORLDS + 1)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            enumerate_countermodel(get_logic("M"), p, bad)


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip_classical():
    m = random_model(get_logic("MD"), 4, seed=3)
    assert model_from_json(model_to_json(m)) == m


def test_json_roundtrip_constructive():
    m = random_model(get_logic("WKT"), 4, seed=4)
    assert model_from_json(model_to_json(m)) == m


def test_json_roundtrip_bit_exact_text():
    m = random_model(get_logic("WM"), 3, seed=5)
    text = model_to_json(m)
    assert model_to_json(model_from_json(text)) == text


@pytest.mark.parametrize("key", ["p0", "p-1", "p01", "p 1", "p1_0",
                                 "p１", "p", "q1", "p+1"])
def test_json_rejects_keys_that_name_no_atom_or_alias_one(key):
    # int() would read "p01" and "p１" (a full-width 1) as p1, and
    # "p1_0" as p10: two keys could give one atom two values.
    doc = ('{"version": 1, "kind": "classical", "worlds": [0], '
           '"neighbourhoods": {}, "valuation": {"p1": [0], "%s": []}}' % key)
    with pytest.raises(ValueError, match="bad atom key"):
        model_from_json(doc)


@pytest.mark.parametrize("key", ["00", "01", "2", "7", "-0", "+1", " 1",
                                 "1 ", "１", "", "w1"])
def test_json_rejects_keys_that_name_no_world(key):
    # The family under a key that names no world, such as "01" or "１"
    # (a full-width 1), both of which int() reads as 1, used to be
    # dropped without a word.
    doc = ('{"version": 1, "kind": "classical", "worlds": [0, 1], '
           '"neighbourhoods": {"0": [], "%s": [[0]]}}' % key)
    with pytest.raises(ValueError, match="bad world key"):
        model_from_json(doc)


@pytest.mark.parametrize("doc", [
    '{"version": 1, "kind": "classical", "kind": "constructive", '
    '"worlds": [0], "neighbourhoods": {}}',
    '{"version": 1, "kind": "classical", "worlds": [0], '
    '"neighbourhoods": {"0": [[0]], "0": []}}',
    '{"version": 1, "kind": "classical", "worlds": [0], '
    '"neighbourhoods": {}, "valuation": {"p1": [0], "p1": []}}',
], ids=["top-level", "neighbourhood", "valuation"])
def test_json_rejects_duplicate_keys(doc):
    # json.loads keeps a repeated key's last value, so the model loaded
    # would not be the one the document states first.
    with pytest.raises(ValueError, match="duplicate key"):
        model_from_json(doc)


def test_json_nesting_limit_skips_strings():
    m = random_model(get_logic("WMN"), 3, seed=2)
    text = model_to_json(m)
    # Brackets and escaped quotes inside a string do not nest.
    noted = text[:-1] + ', "note": "[[[[[ \\" {{{{"}'
    assert model_from_json(noted) == m
    with pytest.raises(ValueError, match="nests deeper than 4 levels"):
        model_from_json('{"version": 1, "worlds": [[[[0]]]]}')


# ---------------------------------------------------------------------------
# hereditariness

def test_forcing_hereditary_along_order():
    rng = random.Random(13)
    for i in range(150):
        logic = get_logic(rng.choice(["WM", "WMN", "WK", "WKT", "WMND"]))
        m = random_model(logic, 4, rng.getrandbits(32))
        f = sampling.random_formula(rng, rng.randint(1, 6))
        ext = extension(m, f)
        for w in range(m.n):
            if ext >> w & 1:
                assert not m.succ[w] & ~ext, \
                    "forcing not hereditary for %s" % f


# ---------------------------------------------------------------------------
# model invariants

def test_validate_rejects_irreflexive_order():
    with pytest.raises(ValueError):
        Model(CONSTRUCTIVE, 2, (1, 1), ((), ()), ()).validate()


def test_validate_rejects_classical_order_not_discrete():
    with pytest.raises(ValueError, match="not discrete"):
        Model(CLASSICAL, 2, (3, 2), ((), ()), ()).validate()


def test_validate_rejects_non_hereditary_valuation():
    with pytest.raises(ValueError):
        Model(CONSTRUCTIVE, 2, (3, 2), ((), ()), ((1, 1),)).validate()
