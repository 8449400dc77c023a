"""Proof search, proof objects, proof checking, deducibility."""

import hashlib
import random
import sys
import threading

import pytest

from wmodal import calculus, prover, sampling, sequents
from wmodal.logics import LOGICS, get_logic, instantiate_axiom
from wmodal.prover import Budget, BudgetExceeded, Derivation, check, decide, \
    prove, prove_from
from wmodal.sequents import CLASSICAL, CONSTRUCTIVE, Sequent, parse_sequent
from wmodal.syntax import atom, bot, box, conj, dia, disj, imp, neg, parse

from test_sequents import _formulas_with_sharing

p, q, r = atom(1), atom(2), atom(3)


# ---------------------------------------------------------------------------
# prove

def test_wk_proves_k_box():
    res = prove(get_logic("WK"),
                Sequent((), (parse("[](p1->p2) -> ([]p1 -> []p2)"),),
                        CONSTRUCTIVE))
    assert res.proved
    assert check(get_logic("WK"), res.derivation)


def test_wmc_does_not_prove_dia_distribution():
    res = prove(get_logic("WMC"),
                Sequent((), (parse("<>(p1|p2) -> <>p1 | <>p2"),),
                        CONSTRUCTIVE))
    assert not res.proved
    assert res.derivation is None
    assert res.stats.nodes > 0


def test_wm_proves_dual_and():
    assert decide(get_logic("WM"), parse("~([]p1 & <>~p1)"))


def test_wk_does_not_prove_excluded_middle():
    assert not decide(get_logic("WK"), parse("p1 | ~p1"))


def test_classical_k_proves_dual_or():
    assert decide(get_logic("K"), parse("[]p1 | <>~p1"))


# Searching every formula of size <= 5 over p1, p2 and bot (1,416) in all
# 28 logics in turn, from cleared caches, each logic reusing what the
# logics before it in its mode stored: the sha256 of each verdict, node
# and loop-block count and each proof's (rule, conclusion) steps.  A change
# to rule matching or search that keeps the calculi and what is stored
# keeps this digest.  Each base logic precedes its constructive logic, so
# the constructive logics read its failures through the classical twin.
SEARCH_DIGEST = "b1abfacc11903ac4b8c3c731b9a488b364c1de70f34325af30e53fe09257ee8d"


def test_search_results_of_size5_space_unchanged():
    fs = sampling.formulas_up_to_size(5, 2)
    assert len(fs) == 1416
    h = hashlib.sha256()
    prover.clear_caches()
    for logic in LOGICS.values():
        for f in fs:
            res = prove(logic, prover.goal(logic, f))
            h.update(("%s %d %d %d\n" % (logic.name, res.proved, res.stats.nodes,
                                         res.stats.loop_blocks)).encode())
            if res.proved:
                for node in res.derivation.steps():
                    h.update(("%s %s\n" % (node.rule, node.conclusion)).encode())
    prover.clear_caches()
    assert h.hexdigest() == SEARCH_DIGEST


# The same loop, hashing the verdicts alone: a change to what search
# caches or shares moves the node counts and proofs above, never these.
VERDICT_DIGEST = "8593680532e3f004760e3abd560ada7d4be5c8f8fca12d9d7e8d6942a14968b5"


def test_verdicts_of_size5_space_unchanged():
    fs = sampling.formulas_up_to_size(5, 2)
    h = hashlib.sha256()
    prover.clear_caches()
    for logic in LOGICS.values():
        for f in fs:
            res = prove(logic, prover.goal(logic, f))
            h.update(("%s %d\n" % (logic.name, res.proved)).encode())
    prover.clear_caches()
    assert h.hexdigest() == VERDICT_DIGEST


# ---------------------------------------------------------------------------
# decide

def test_wmn_proves_boxed_top():
    assert decide(get_logic("WMN"), parse("[]top"))


def test_wmn_proves_n_dia():
    assert decide(get_logic("WMN"), parse("~<>bot"))


def test_wm_does_not_prove_c_box():
    assert not decide(get_logic("WM"), parse("[]p1 & []p2 -> [](p1 & p2)"))


@pytest.mark.parametrize("name", sorted(n for n in LOGICS if n.startswith("W")))
def test_axiom_catalogue_is_derivable(name):
    logic = LOGICS[name]
    for ax in logic.axioms:
        assert decide(logic, instantiate_axiom(ax, p, q)), \
            "%s should derive %s" % (name, ax)


# ---------------------------------------------------------------------------
# prove_from

def test_prove_from_assumption():
    assert prove_from(get_logic("WM"), {p}, p).proved


def test_prove_from_k_premises():
    res = prove_from(get_logic("WK"), {box(p), box(imp(p, q))}, box(q))
    assert res.proved
    assert check(get_logic("WK"), res.derivation)


def test_prove_from_excluded_middle_assumption():
    em = disj(p, neg(p))
    assert prove_from(get_logic("WM"), {em}, em).proved


# ---------------------------------------------------------------------------
# check

def _tbox_derivation():
    # iT-box followed by init: |- []p1 => p1
    concl = Sequent((box(p),), (p,), CONSTRUCTIVE)
    leaf = Derivation("init", Sequent((box(p), p), (p,), CONSTRUCTIVE), (p,))
    return Derivation("iTbox", concl, (box(p),), (leaf,))


def test_check_hand_built_tbox():
    assert check(get_logic("WMT"), _tbox_derivation())


def test_check_rejects_tbox_outside_wmt():
    assert not check(get_logic("WM"), _tbox_derivation())


def test_check_rejects_non_closing_leaf():
    d = Derivation("iNbox", Sequent((), (box(imp(bot, bot)),), CONSTRUCTIVE))
    assert not check(get_logic("WMN"), d)


def _shared_leaf_derivation():
    leaf = Derivation("init", Sequent((p,), (p,), CONSTRUCTIVE))
    mid = Derivation("Rand", Sequent((p,), (conj(p, p),), CONSTRUCTIVE),
                     (), (leaf, leaf))
    root = Derivation("Rimp", Sequent((), (imp(p, conj(p, p)),), CONSTRUCTIVE),
                      (), (mid,))
    return root, mid, leaf


def test_steps_yields_each_node_once_in_preorder():
    root, mid, leaf = _shared_leaf_derivation()
    assert list(root.steps()) == [root, mid, leaf]


def test_pretty_prints_shared_subderivation_once():
    root, mid, leaf = _shared_leaf_derivation()
    assert root.pretty().splitlines() == [
        "%s   [Rimp]" % root.conclusion,
        "  %s   [Rand]" % mid.conclusion,
        "    %s   [init]   #1" % leaf.conclusion,
        "    %s   [see #1]" % leaf.conclusion,
    ]


def test_derivation_doc_refers_to_shared_subderivation():
    from wmodal.cli import _derivation_doc
    root, mid, leaf = _shared_leaf_derivation()
    s = str(leaf.conclusion)
    assert _derivation_doc(root) == {
        "rule": "Rimp", "sequent": str(root.conclusion), "premises": [
            {"rule": "Rand", "sequent": str(mid.conclusion), "premises": [
                {"rule": "init", "sequent": s, "premises": [], "id": 1},
                {"ref": 1, "sequent": s}]}]}


def test_check_visits_each_shared_node_once(monkeypatch):
    # An 81-node proof whose tree unfolding has about 900,000 nodes.
    wkt = get_logic("WKT")
    seq = parse_sequent("[]<>p3, []<>[]p2, [](bot -> p1), [](p3 | p3), "
                        "[](p1 | p1), []p1, [](p2 | p3), <>p1 |- [](bot -> bot)",
                        CONSTRUCTIVE)
    prover.clear_caches()
    try:
        d = prove(wkt, seq).derivation
    finally:
        prover.clear_caches()
    nodes, stack = set(), [d]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes.add(id(node))
            stack.extend(node.children)
    calls = []
    check_step = calculus.check_step

    def counting(logic, inst):
        calls.append(inst)
        return check_step(logic, inst)

    monkeypatch.setattr(calculus, "check_step", counting)
    assert check(wkt, d)
    assert 0 < len(calls) <= len(nodes)


def test_proved_results_pass_check_everywhere():
    rng = random.Random(7)
    for name in ("WM", "WK", "WMND", "WMT", "K", "MCD", "KT"):
        logic = LOGICS[name]
        for _ in range(10):
            seq = sampling.sample_derivable_sequent(logic, rng, size=4)
            res = prove(logic, seq)
            assert res.proved
            assert check(logic, res.derivation)
            assert res.derivation.conclusion == seq


# ---------------------------------------------------------------------------
# budgets and errors

def test_budget_node_limit_raises():
    prover.clear_caches()
    try:
        goal = Sequent((), (parse("[](p1->p2) -> ([]p1 -> []p2)"),),
                       CONSTRUCTIVE)
        with pytest.raises(BudgetExceeded):
            prove(get_logic("WK"), goal, Budget(max_nodes=2))
    finally:
        prover.clear_caches()


def test_budget_overrun_leaves_no_sequent_on_branch():
    # A loop-heavy WKT non-theorem (4,208 nodes and 2,966 loop blocks): a
    # mark left on the overrun branch would block instances in every
    # later search of this epoch.
    wkt = get_logic("WKT")
    text = ("[](p2 -> p1), [](<><>p1), [](p3 -> p1), []([]~p3), "
            "[](<>[]p1), [](~p3), <>p1 |- <><>[]p2")
    prover.clear_caches()
    try:
        with pytest.raises(BudgetExceeded):
            prove(wkt, parse_sequent(text, CONSTRUCTIVE), Budget(1000))
        assert not any(seq.on_branch for seq in sequents._intern.values())
        # as from cleared caches
        assert not prove(wkt, parse_sequent(text, CONSTRUCTIVE)).proved
    finally:
        prover.clear_caches()


def _prove_cold(name, text):
    """prove in the named logic from cleared caches; the sequent and
    result, with the caches left as the search left them."""
    logic = get_logic(name)
    prover.clear_caches()
    seq = (parse_sequent(text, logic.mode) if "|-" in text
           else prover.goal(logic, parse(text)))
    return seq, prove(logic, seq)


def test_t_rule_applies_once_per_principal_on_a_segment():
    # Tdia, Rand, Tdia, Rand used to reach an ancestor: a loop block, and
    # no failure stored.  Tdia now skips its principal on the segment.
    try:
        seq, res = _prove_cold("MT", "<>(p1 & p1)")
        assert not res.proved
        assert (res.stats.nodes, res.stats.loop_blocks) == (3, 0)
        # pure, so stored: it answers the goal again without search
        assert seq in prover.engine_for(get_logic("MT")).failed
    finally:
        prover.clear_caches()


def test_rule_without_context_starts_a_new_segment():
    # At the root, Tbox on []([]p1 & p2), Land and Tbox on []p1 put []p1
    # in the history.  Below Mbox, []p1, p2 |- p1 closes only by Tbox on
    # []p1 again.
    try:
        _, res = _prove_cold("MT", "[]([]p1 & p2) |- [](p1 & p2)")
        assert res.proved and check(get_logic("MT"), res.derivation)
        assert res.stats.loop_blocks == 0
    finally:
        prover.clear_caches()


def test_itbox_applies_once_per_principal_on_a_segment():
    # iTbox, Land, iTbox, Land used to reach an ancestor: a loop block,
    # and no failure stored.  iTbox now skips its principal on the segment.
    try:
        seq, res = _prove_cold("WMT", "[](p1 & p1) |- p2")
        assert not res.proved
        assert (res.stats.nodes, res.stats.loop_blocks) == (3, 0)
        assert seq in prover.engine_for(get_logic("WMT")).failed
    finally:
        prover.clear_caches()
    # A WKT non-theorem whose loops came from constructive Limp and from
    # iTbox firing again on its principals: 7,126 nodes and 5,212 loop
    # blocks without modus ponens and with iTbox outside the history.
    text = ("[](p2 -> p3), [](p3 -> p1), [](bot | p3), [](p2 | p2), "
            "[](bot -> bot), <>p2 |- <><>bot")
    try:
        _, res = _prove_cold("WKT", text)
        assert not res.proved
        assert (res.stats.nodes, res.stats.loop_blocks) == (64, 12)
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("kwargs", [
    {"max_nodes": -1}, {"timeout_secs": -0.5}, {"timeout_secs": float("nan")},
])
def test_budget_rejects_negative_or_nan(kwargs):
    with pytest.raises(ValueError, match="must be 0 or more"):
        Budget(**kwargs)


def test_budget_accepts_zero_and_infinity():
    assert Budget(0, 0.0) == Budget(max_nodes=0, timeout_secs=0)
    assert Budget(timeout_secs=float("inf")).timeout_secs == float("inf")


def test_verdicts_independent_of_cache_order():
    # The failure cache keeps only failures found without a loop block, so
    # what earlier goals left in the caches must not change a verdict.
    space = sampling.formulas_up_to_size(5, num_atoms=2)
    shuffled = list(space)
    random.Random(11).shuffle(shuffled)
    try:
        for name in sorted(LOGICS):
            logic = LOGICS[name]
            verdicts = []
            for order in (space, space[::-1], shuffled):
                prover.clear_caches()
                verdicts.append({f: decide(logic, f) for f in order})
            assert verdicts[0] == verdicts[1] == verdicts[2], name
    finally:
        prover.clear_caches()


def test_two_threads_give_the_single_threaded_verdicts():
    # Search marks its branch and stores its results on the interned
    # sequents that every thread shares; one search at a time keeps
    # another thread's branch from blocking this one's instances.
    space = sampling.formulas_up_to_size(5, num_atoms=2)
    pairs = (("WK", "K"), ("WKT", "KT"))
    expected = {}
    for names in pairs:
        prover.clear_caches()
        for name in names:
            expected[name] = [decide(get_logic(name), f) for f in space]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            prover.clear_caches()
            got = {}

            def run(names):
                for name in names:
                    got[name] = [decide(get_logic(name), f) for f in space]

            threads = [threading.Thread(target=run, args=(names,))
                       for names in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert got == expected
    finally:
        sys.setswitchinterval(interval)
        prover.clear_caches()


def test_shared_store_keeps_each_logics_verdicts():
    # Formula-major, each formula in all 28 logics in turn, the logics of
    # a mode reuse one another's proofs and failures; alone from cleared
    # caches, each logic reuses only its own.  The verdicts agree, and
    # every proof checks in the logic that returned it.
    space = sampling.formulas_up_to_size(4, num_atoms=2)
    try:
        alone = {}
        for name, logic in LOGICS.items():
            prover.clear_caches()
            for f in space:
                alone[name, f] = decide(logic, f)
        prover.clear_caches()
        for f in space:
            for name, logic in LOGICS.items():
                res = prove(logic, prover.goal(logic, f))
                assert res.proved == alone[name, f], (name, f)
                if res.proved:
                    assert check(logic, res.derivation), (name, f)
    finally:
        prover.clear_caches()


def test_cache_sizes_count_the_entries_each_logic_can_use():
    m, mn = get_logic("M"), get_logic("MN")
    seq = prover.goal(m, box(imp(bot, bot)))
    prover.clear_caches()
    try:
        # M has no rule for |- []top; MN proves it by Nbox, Rimp and Lbot.
        # M's failure does not serve MN, which lacked Nbox: MN searches.
        assert not prove(m, seq).proved
        res = prove(mn, seq)
        assert res.proved and res.stats.nodes > 0
        # It serves M, which is answered at once.
        assert prove(m, seq) == prover.ProofResult(False, None,
                                                   prover.SearchStats())
        em, emn = prover.engine_for(m), prover.engine_for(mn)
        assert seq in em.failed and seq not in emn.failed
        assert seq in emn.proved and seq not in em.proved
        assert (len(em.proved), len(em.failed)) == (2, 1)
        assert (len(emn.proved), len(emn.failed)) == (3, 0)
        prover.clear_caches()
        assert len(em.proved) == len(emn.failed) == 0
    finally:
        prover.clear_caches()


def test_clear_caches_empties_sequents_and_stores_but_keeps_formulas():
    prover.clear_caches()
    for name, text in (("WK", "p1 | ~p1"), ("WK", "[]p1 -> []p1"),
                       ("K", "[]p1 -> p1"), ("K", "p1 | ~p1")):
        decide(get_logic(name), parse(text))
    sizes = prover.cache_sizes()
    assert set(sizes) == {"formulas", "sequents", "classical.proved",
                          "classical.failed", "constructive.proved",
                          "constructive.failed", "engines"}
    assert min(sizes.values()) > 0, sizes
    assert sizes["engines"] == len(prover._engines) >= 2
    prover.clear_caches()
    after = prover.cache_sizes()
    assert after == dict.fromkeys(sizes, 0) | {"formulas": sizes["formulas"],
                                               "engines": sizes["engines"]}


def test_goal_kept_across_clear_caches_is_searched_again():
    # clear_caches retires the goal with its results: no stale entry of
    # the earlier epoch answers it.
    k = get_logic("K")
    seq = prover.goal(k, parse("[]p1 -> []p1"))
    prover.clear_caches()
    try:
        assert prove(k, seq).stats.nodes > 0
        assert seq in prover.engine_for(k).proved
        prover.clear_caches()
        assert seq.found is None
        assert seq not in prover.engine_for(k).proved
        res = prove(k, seq)
        assert res.proved and res.stats.nodes > 0
        assert seq in prover.engine_for(k).proved
    finally:
        prover.clear_caches()


def test_stored_proof_is_returned_without_search():
    # M's derivation uses Rimp, Mbox and init, which MN has: MN gets the
    # same object with zero stats, even with no node to spend.
    m, mn = get_logic("M"), get_logic("MN")
    seq = prover.goal(m, parse("[]p1 -> []p1"))
    prover.clear_caches()
    try:
        d = prove(m, seq).derivation
        assert d is not None
        for budget in (Budget(), Budget(max_nodes=0)):
            res = prove(mn, seq, budget)
            assert res.proved and res.derivation is d
            assert res.stats == prover.SearchStats()
    finally:
        prover.clear_caches()


def test_classical_failure_refutes_the_constructive_twin():
    # WM is the single-succedent restriction of M: M's failure on the
    # same sides refutes the goal in WM with no node searched.
    m, wm = get_logic("M"), get_logic("WM")
    f = parse("[]p1 -> p1")
    prover.clear_caches()
    try:
        assert not decide(m, f)
        res = prove(wm, prover.goal(wm, f))
        assert not res.proved
        assert (res.stats.nodes, res.stats.twin_refutations) == (0, 1)
    finally:
        prover.clear_caches()


def test_classical_proof_leaves_the_constructive_search_to_run():
    m, wm = get_logic("M"), get_logic("WM")
    f = parse("p1 | ~p1")
    prover.clear_caches()
    try:
        assert decide(m, f)
        res = prove(wm, prover.goal(wm, f))
        assert not res.proved and res.stats.nodes > 0
    finally:
        prover.clear_caches()


def test_twin_refutation_serves_the_logics_its_twin_failure_serves():
    # MN refutes []p1 -> p1 and WMN fails through the twin.  That failure
    # serves WM, a rule subset of WMN, and WMC, whose base MC MN's failure
    # serves too.  It does not serve WMT: MN's failure lacked Tbox, and
    # WMT has iTbox, which corresponds to it.  WMT proves the goal itself.
    mn, wmn, wmt = get_logic("MN"), get_logic("WMN"), get_logic("WMT")
    f = parse("[]p1 -> p1")
    prover.clear_caches()
    try:
        assert not decide(mn, f)
        res = prove(wmn, prover.goal(wmn, f))
        assert not res.proved and res.stats.twin_refutations == 1
        for name in ("WM", "WMC"):
            logic = get_logic(name)
            assert prove(logic, prover.goal(logic, f)) == prover.ProofResult(
                False, None, prover.SearchStats()), name
        res = prove(wmt, prover.goal(wmt, f))
        assert res.proved and check(wmt, res.derivation)
        assert res.stats.nodes > 0
    finally:
        prover.clear_caches()


def test_every_classical_rule_has_corresponding_constructive_rules():
    # Else a failure on a twin would serve only rule subsets of the
    # constructive logic that reads it.
    names = {bit: name for name, bit in calculus.BITS.items()}
    for bit, rules in prover._CORRESPONDING.items():
        assert rules != prover._EVERY_RULE, names[bit]
    corresponding = {names[b] for b in names if b & prover._CORRESPONDING[
        calculus.BITS["dualorM"]]}
    assert corresponding == {"iMbox", "iMdia", "idualandM"}


def test_constructive_search_interns_no_classical_sequent():
    k, wk = get_logic("K"), get_logic("WK")
    space = sampling.formulas_up_to_size(4, num_atoms=2)
    prover.clear_caches()
    try:
        for f in space:
            decide(k, f)
        before = set(sequents._intern.values())
        twins = 0
        for f in space:
            twins += prove(wk, prover.goal(wk, f)).stats.twin_refutations
        assert twins > 0
        assert all(s in before for s in sequents._intern.values()
                   if s.mode != CONSTRUCTIVE)
    finally:
        prover.clear_caches()


# ---------------------------------------------------------------------------
# identity and modus ponens

def test_modus_ponens_on_a_large_self_sharing_consequent():
    # Backtracking over Limp took more than 1,000,000 nodes in WK here.
    a = parse("((p1 -> p3) -> p3) -> bot & p1")
    b = _formulas_with_sharing(random.Random(5), 30)[18]
    assert b.size == 83
    for name in ("WK", "WKT"):
        logic = get_logic(name)
        prover.clear_caches()
        try:
            res = prove_from(logic, (a, imp(a, b)), b, Budget(2000))
            assert res.proved and check(logic, res.derivation)
            assert res.stats.mp_commits >= 1
        finally:
            prover.clear_caches()


def test_modus_ponens_decides_a_k_box_instance_with_compound_parts():
    # iKbox leaves A -> B, A |- B; it took 4,249 nodes before the commit.
    wkt = get_logic("WKT")
    f = instantiate_axiom("K_box", parse("<>bot -> p1 & p1"),
                          parse("[][][](<>p1 | p2)"))
    prover.clear_caches()
    try:
        res = prove(wkt, prover.goal(wkt, f), Budget(2000))
        assert res.proved and check(wkt, res.derivation)
        assert res.stats.mp_commits >= 1
    finally:
        prover.clear_caches()


def test_failure_under_modus_ponens_is_stored_with_limp_committed():
    wk = get_logic("WK")
    try:
        seq, res = _prove_cold("WK", "p1, p1 -> p2 |- p3")
        assert not res.proved
        assert (res.stats.nodes, res.stats.mp_commits) == (3, 1)
        assert seq in prover.engine_for(wk).failed
        (e,) = seq.found
        assert e[2] & calculus.BITS["Limp"]
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("name", sorted(LOGICS))
def test_identity_is_built_for_every_small_formula(name):
    # Each D |- D is closed at its root by the identity step, or by init
    # or Lbot, and the built derivation passes check.
    logic = LOGICS[name]
    prover.clear_caches()
    try:
        for f in sampling.formulas_up_to_size(4, 2):
            seq = Sequent((f,), (f,), logic.mode)
            res = prove(logic, seq, Budget(max_nodes=1))
            assert res.proved and res.derivation.conclusion == seq
            assert check(logic, res.derivation), f
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("name", ["K", "WK"])
def test_identity_of_a_left_nested_implication_is_built_once(name):
    # D = ((p1 -> p1) -> p1) -> ... -> p1 with n arrows.  Copying the
    # identity one level down into each level's context interned 15,148
    # sequents in WK at n = 100, for a proof of 3n + 1 distinct nodes.
    n = 100
    d = imp(p, p)
    for _ in range(n - 1):
        d = imp(d, p)
    logic = get_logic(name)
    prover.clear_caches()
    try:
        res = prove(logic, Sequent((d,), (d,), logic.mode),
                    Budget(max_nodes=1))
        assert prover.cache_sizes()["sequents"] <= 3 * n + 1
        assert res.proved and check(logic, res.derivation)
        assert len(list(res.derivation.steps())) <= 3 * n + 1
    finally:
        prover.clear_caches()


def _conclusions(d):
    """The distinct nodes of d, and their distinct conclusions."""
    nodes = list(d.steps())
    return len(nodes), len({node.conclusion for node in nodes})


def test_proofs_of_size5_space_have_one_node_per_sequent():
    # Each identity step keeps every node it builds on its sequent and
    # looks each sequent up first, so no two nodes share a conclusion:
    # 5,292 of these 45,152 proofs had two for some sequent.
    fs = sampling.formulas_up_to_size(5, 2)
    prover.clear_caches()
    try:
        repeated = []
        for logic in LOGICS.values():
            for f in fs:
                for seq in (prover.goal(logic, f),
                            Sequent((f,), (f,), logic.mode)):
                    res = prove(logic, seq)
                    if res.proved:
                        nodes, sequents = _conclusions(res.derivation)
                        if nodes != sequents:
                            repeated.append((logic.name, str(seq)))
        assert repeated == []
    finally:
        prover.clear_caches()


def test_identity_steps_of_one_search_share_their_nodes():
    # A later identity step rebuilt nodes an earlier one had built: the
    # proof had 24 distinct nodes for 22 sequents, from 15 search nodes.
    text = ("([]((p2 | (p2 -> p2)) -> (p2 | []p2)) -> "
            "([](p2 | (p2 -> p2)) -> [](p2 | []p2)))")
    try:
        _, res = _prove_cold("MCD", text)
        assert res.proved and check(get_logic("MCD"), res.derivation)
        assert _conclusions(res.derivation) == (22, 22)
        assert res.stats.nodes == 14
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("name", ["K", "WK"])
def test_check_interns_no_sequent(name):
    # check compares the premises it rebuilds as sides: it interned 196
    # sequents in WK, and 100 in K, that search never built.
    n = 100
    d = imp(p, p)
    for _ in range(n - 1):
        d = imp(d, p)
    logic = get_logic(name)
    prover.clear_caches()
    try:
        res = prove(logic, Sequent((d,), (d,), logic.mode))
        before = prover.cache_sizes()["sequents"]
        assert check(logic, res.derivation)
        assert prover.cache_sizes()["sequents"] == before
    finally:
        prover.clear_caches()


@pytest.mark.parametrize("name, text", [
    ("MC", "p2, <>p1, (p1 -> []p2) & <>(p1 | p2) |- "
           "[]p1, (p1 -> []p2) & <>(p1 | p2)"),
    ("WKT", "p2, <>p1 | p1, (p1 -> []p2) & <>(p1 | p2) |- "
            "(p1 -> []p2) & <>(p1 | p2)"),
])
def test_weakened_identity_passes_check(name, text):
    # The identity of the conjunction D, rebuilt with the context: the
    # same rules on the same principals, at conclusions that hold those
    # of D |- D, and the premises of its modal nodes as they were.
    logic = get_logic(name)
    try:
        seq, res = _prove_cold(name, text)
        assert res.proved and res.stats.nodes == 1
        d = res.derivation
        assert d.conclusion is seq and d.rule == "Land"
        assert check(logic, d)
        D = d.principal[0]
        ident = prove(logic, Sequent((D,), (D,), logic.mode)).derivation
        pairs = list(zip(d.steps(), ident.steps()))
        assert len(pairs) == len(list(d.steps())) == len(list(ident.steps()))
        for w, o in pairs:
            assert (w.rule, w.principal) == (o.rule, o.principal)
            assert set(o.conclusion.ant) <= set(w.conclusion.ant)
            assert set(o.conclusion.suc) <= set(w.conclusion.suc)
            if not calculus.RULES[w.rule].contextual:
                assert w.children == o.children
    finally:
        prover.clear_caches()


def test_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        prove(get_logic("K"), Sequent((), (p,), CONSTRUCTIVE))


# ---------------------------------------------------------------------------
# structural admissibility (small spot checks; the acceptance suite scales
# these to the full sampled matrix)

def test_weakening_contraction_cut_spot():
    from wmodal import suites
    assert suites.structural_suite(get_logic("WK"), 20, seed=3) == []


def test_contraction_probe_proves_a_doubled_conjunction(monkeypatch):
    # The probe replaces an antecedent formula A by A & A.  With every
    # such sequent made unprovable, only the probe can report a failure:
    # the sampled sequents, proved first, never hold one.
    from wmodal import suites
    real = prover.prove

    def no_doubled(logic, seq, *args):
        res = real(logic, seq, *args)
        if any(f.kind == "and" and f.left is f.right for f in seq.ant):
            return prover.ProofResult(False, None, res.stats)
        return res

    monkeypatch.setattr(prover, "prove", no_doubled)
    bad = suites.structural_suite(get_logic("WK"), 5, seed=3)
    assert any(b.startswith("contraction failed") for b in bad)


@pytest.mark.parametrize("name", ["WK", "K"])
def test_cut_probe_cuts_an_antecedent_formula(monkeypatch, name):
    # For a sampled derivable Γ, A ⇒ Δ the probe proves Γ ⇒ A (Γ ⇒ Δ, A
    # classically) and, where that holds, the cut's conclusion Γ ⇒ Δ.
    from wmodal import suites
    sampled, proved = [], {}
    real_sample, real_prove = sampling.sample_derivable_sequent, prover.prove

    def sample(*args):
        sampled.append(real_sample(*args))
        return sampled[-1]

    def prove(logic, seq, *args):
        res = real_prove(logic, seq, *args)
        proved[seq] = res.proved
        return res

    monkeypatch.setattr(sampling, "sample_derivable_sequent", sample)
    monkeypatch.setattr(prover, "prove", prove)
    logic = get_logic(name)
    assert suites.structural_suite(logic, 30, seed=3) == []
    cuts = 0
    for seq in sampled:
        for a in seq.ant:
            rest = [f for f in seq.ant if f is not a]
            left = Sequent(rest, (a, *seq.suc) if logic.mode == CLASSICAL
                           else (a,), seq.mode)
            cut = Sequent(rest, seq.suc, seq.mode)
            if proved.get(left) and cut in proved:
                assert proved[cut]
                cuts += 1
    assert cuts >= 10


def test_disjunction_property_spot():
    from wmodal import suites
    assert suites.disjunction_suite(get_logic("WM"), 15, seed=5) == []


def test_inclusion_suite_decides_each_target_from_cleared_caches(
        monkeypatch):
    # On a nested edge such as M -> MN the source's proof of the sampled
    # theorem would serve the target from the shared store.
    from wmodal import suites
    stored = []

    class Prover:
        def __getattr__(self, name):
            return getattr(prover, name)

        def decide(self, logic, f, *args):
            stored.append(len(prover.engine_for(logic).proved))
            return prover.decide(logic, f, *args)

    monkeypatch.setattr(suites, "prover", Prover())
    try:
        assert suites.inclusion_suite("classical", 1, seed=3) == []
    finally:
        prover.clear_caches()
    assert len(stored) == 22 and not any(stored)


def test_w_to_classical_suite_samples_each_theorem_from_cleared_caches(
        monkeypatch):
    # A classical failure kept in the epoch would refute a candidate
    # through its twin, so a broken inclusion would lose the W theorem
    # instead of reporting it.
    from wmodal import suites
    sizes = []

    class Sampling:
        def __getattr__(self, name):
            return getattr(sampling, name)

        def sample_theorem(self, logic, rng, *args, **kwargs):
            sizes.append(prover.cache_sizes()["sequents"])
            return sampling.sample_theorem(logic, rng, *args, **kwargs)

    monkeypatch.setattr(suites, "sampling", Sampling())
    try:
        assert suites.constructive_to_classical_suite(2, seed=2026) == []
    finally:
        prover.clear_caches()
    assert len(sizes) == 28 and not any(sizes)
