"""Formula construction, parsing, printing and syntactic measures."""

import pytest
from hypothesis import given, strategies as st

from wmodal import syntax
from wmodal.syntax import (ParseError, atom, bot, box, conj, dia, disj, imp,
                           neg, parse, render, subformulas, top, var_set)

p1, p2, p3 = atom(1), atom(2), atom(3)


# ---------------------------------------------------------------------------
# Parsing

def test_parse_imp_dia():
    assert parse("p1 -> <>p2") is imp(p1, dia(p2))


def test_parse_negation_normalizes():
    assert parse("~p1") is imp(p1, bot)


def test_parse_top_normalizes():
    assert parse("top") is imp(bot, bot)


def test_parse_iff_normalizes():
    assert parse("p1 <-> p2") is conj(imp(p1, p2), imp(p2, p1))


def test_imp_right_associative():
    assert parse("p1 -> p2 -> p3") is imp(p1, imp(p2, p3))


def test_precedence_and_binds_tighter_than_or():
    assert parse("p1 | p2 & p3") is disj(p1, conj(p2, p3))


def test_precedence_unary_tightest():
    assert parse("~p1 & []p2") is conj(neg(p1), box(p2))


def test_unicode_aliases():
    assert parse("□p1 ∧ ◇p2") is conj(box(p1), dia(p2))
    assert parse("¬p1 → ⊥") is imp(neg(p1), bot)
    assert parse("⊤ ∨ p1") is disj(top, p1)
    assert parse("p1 ↔ p2") is parse("p1 <-> p2")


def test_parse_error_position_counts_unicode_characters():
    with pytest.raises(ParseError) as e:
        parse("□p1 ∧ $")
    assert e.value.pos == 6


def test_bare_identifiers_get_fresh_indices():
    # q and r allocate fresh indices in first-occurrence order, skipping
    # the explicitly reserved p2.
    f = parse("q & p2 & r")
    assert f is conj(conj(atom(1), atom(2)), atom(3))


def test_same_identifier_same_index():
    f = parse("q -> q")
    assert f is imp(atom(1), atom(1))


@pytest.mark.parametrize("bad", ["p1 ->", "p0", "(p1", "p1 p2", "& p1", "$"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("read, text, message", [
    (parse, "p1 ->", "expected a formula, found end of input (at position 5)"),
    (parse, "(p1", "expected ')', found end of input (at position 3)"),
    (syntax.parse_sides, "p1, p2",
     "expected '|-', found end of input (at position 6)"),
])
def test_parse_error_names_end_of_input(read, text, message):
    with pytest.raises(ParseError) as e:
        read(text)
    assert str(e.value) == message


def test_parse_error_has_position():
    try:
        parse("p1 -> )")
    except ParseError as e:
        assert e.pos in (5, 6)  # start of the offending token (± whitespace)
    else:
        pytest.fail("expected ParseError")


@pytest.mark.parametrize("read, text, message, pos", [
    # An unexpected character anywhere is reported before any other error.
    (parse, "p1 & $", "unexpected character '$'", 5),
    (parse, "◇p2 → 5", "unexpected character '5'", 6),
    (parse, "(p1 $ p2", "unexpected character '$'", 4),
    (parse, "p1 | (p2 & ) $", "unexpected character '$'", 13),
    (parse, "p1 <- p2", "unexpected character '<'", 3),
    (parse, "p1 p2", "trailing input 'p2'", 3),
    (parse, "p1 )", "trailing input ')'", 3),
    (parse, "p1 ⊤", "trailing input 'top'", 3),
    (parse, "p1 <-> p2 <-> p3", "trailing input '<->'", 10),
    (parse, "p1 -> p2 <-> p3 -> p1", "trailing input '->'", 16),
    (parse, "(p1 p2", "expected ')', found 'p2'", 4),
    (parse, "(p1 ∧ ⊤ ⊥", "expected ')', found 'bot'", 8),
    (parse, "(p1 <-> p2 -> p3)", "expected ')', found '->'", 11),
    (parse, "((p1)", "expected ')', found end of input", 5),
    (parse, "& p1", "expected a formula, found '&'", 0),
    (parse, "()", "expected a formula, found ')'", 1),
    (parse, "p1 ∧", "expected a formula, found end of input", 4),
    (parse, "p0", "atom indices start at 1", 0),
    (parse, "[]p00", "atom indices start at 1", 2),
    (syntax.parse_sides, "p1 p2 |- p3", "expected '|-', found 'p2'", 3),
    (syntax.parse_sides, "p1 |- p2 |- p3", "trailing input '|-'", 9),
    (syntax.parse_sides, "p1 |- p2, ", "expected a formula, found end of input",
     10),
    (syntax.parse_sides, ", p1 |-", "expected a formula, found ','", 0),
    (syntax.parse_sides, "p1 |- )", "expected a formula, found ')'", 6),
    (syntax.parse_sides, "p1 |- p2 $", "unexpected character '$'", 9),
])
def test_parse_error_message_and_position(read, text, message, pos):
    with pytest.raises(ParseError) as e:
        read(text)
    assert (str(e.value), e.value.pos) == (
        "%s (at position %d)" % (message, pos), pos)


def test_unexpected_character_in_any_text_comes_first():
    # parse_all reads every text's characters before any formula.
    with pytest.raises(ParseError) as e:
        syntax.parse_all("q ->", "p2 & $")
    assert (str(e.value), e.value.pos) == (
        "unexpected character '$' (at position 5)", 5)


@pytest.mark.parametrize("texts, pos", [
    # Past CPython's 4,300-digit limit on int() of a string: read as the
    # formula's own atom, and in the reservation of p<k> indices that a
    # bare name in either text sets off.
    (("p" + "1" * 5000,), 0),
    (("q", "p" + "1" * 5000), 0),
    (("p1 & q", "p2 | p" + "1" * 5000), 5),
])
def test_oversized_atom_index_is_a_parse_error(texts, pos):
    with pytest.raises(ParseError) as e:
        syntax.parse_all(*texts)
    assert (str(e.value), e.value.pos) == (
        "atom index too long (at position %d)" % pos, pos)


def test_leading_zeros_name_the_same_atom():
    assert parse("p01 & p1") is conj(p1, p1)


def test_parse_sides_shares_the_name_table():
    assert syntax.parse_sides("q, p1 |- r") == ((atom(2), p1), (atom(3),))
    assert syntax.parse_sides("|-") == ((), ())


def test_reserved_indices_span_every_text():
    # p1 and p2 are written out in the two texts, so q is atom 3 in both.
    assert syntax.parse_all("q -> p1", "p2 & q") == (imp(atom(3), p1),
                                                    conj(p2, atom(3)))


# ---------------------------------------------------------------------------
# Printing

def test_render_examples():
    assert render(imp(p1, dia(p2))) == "p1 -> <>p2"
    assert render(bot) == "bot"
    assert render(box(conj(p1, p2))) == "[](p1 & p2)"
    assert render(top) == "top"
    assert render(neg(p1)) == "~p1"


def test_render_minimal_parens():
    assert render(disj(p1, conj(p2, p3))) == "p1 | p2 & p3"
    assert render(conj(disj(p1, p2), p3)) == "(p1 | p2) & p3"
    assert render(imp(imp(p1, p2), p3)) == "(p1 -> p2) -> p3"
    assert render(imp(p1, imp(p2, p3))) == "p1 -> p2 -> p3"


def formulas(max_leaves=8):
    leaf = st.sampled_from([p1, p2, p3, bot])
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(conj, sub, sub), st.builds(disj, sub, sub),
            st.builds(imp, sub, sub), st.builds(box, sub),
            st.builds(dia, sub)),
        max_leaves=max_leaves)


@given(formulas())
def test_parse_render_roundtrip(f):
    assert parse(render(f)) is f


# The tokens of the surface syntax, their unicode aliases, sequent
# punctuation, and characters that start no token.
_PIECES = ["p1", "p2", "p0", "p01", "q", "r", "bot", "top", "&", "|", "->",
           "<->", "~", "[]", "<>", "(", ")", ",", "|-", "⊥", "⊤", "¬", "∧",
           "∨", "→", "↔", "□", "◇", " ", "\t", "$", "5", "<", "-", "[", "]"]


@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_any_text_parses_or_raises_a_parse_error(text):
    try:
        f = parse(text)
    except ParseError as e:
        assert 0 <= e.pos <= len(text)
    else:
        assert parse(render(f)) is f


def _nest(step, n):
    f = p1
    for _ in range(n):
        f = step(f)
    return f


@pytest.mark.parametrize("text, expected", [
    ("(" * 100_000 + "p1" + ")" * 100_000, lambda: p1),
    ("[]" * 100_000 + "p1", lambda: _nest(box, 100_000)),
    (" -> ".join(["p1"] * 100_000), lambda: _nest(lambda f: imp(p1, f), 99_999)),
], ids=["parentheses", "boxes", "arrows"])
def test_deep_nesting_parses_without_recursion(text, expected):
    # Compared apart, so that a failure does not print 100,000 levels.
    same = parse(text) is expected()
    assert same


# ---------------------------------------------------------------------------
# Measures

def test_var_set_examples():
    assert var_set(conj(box(p1), dia(p2))) == frozenset({bot, p1, p2})
    assert var_set(top) == frozenset({bot})
    assert var_set(p1) == frozenset({bot, p1})


def test_complexity_examples():
    assert p1.complexity == 0
    assert bot.complexity == 0
    assert box(imp(p1, p2)).complexity == 2


def test_subformula_closure_examples():
    assert subformulas(box(p1)) == frozenset({box(p1), p1})
    assert subformulas(imp(p1, p2)) == frozenset({imp(p1, p2), p1, p2})
    assert subformulas(bot) == frozenset({bot})


@given(formulas())
def test_complexity_decreases_to_subformulas(f):
    for g in (f.left, f.right):
        if g is not None:
            assert g.complexity < f.complexity


@given(formulas())
def test_vars_monotone_under_subformulas(f):
    for g in subformulas(f):
        assert var_set(g) <= var_set(f)


def test_hash_consing_identity():
    assert parse("[]p1 -> <>(p1 & p2)") is parse("[]p1 -> <>(p1 & p2)")
    assert conj(p1, p2) is conj(p1, p2)
    assert conj(p1, p2) is not conj(p2, p1)


def test_atom_indices_start_at_one():
    with pytest.raises(ValueError):
        atom(0)
