"""Bimodal propositional formulas: hash-consed ASTs, parsing and printing.

The connective set is atoms, bot, &, |, ->, [] and <>.  Derived forms
(top, ~, <->) normalize at construction time, so the rest of the code
only ever sees the seven primitive constructors.

A text is parsed in one regex pass, which lists its tokens, and one loop
over them, with no recursion (operator-precedence parsing: Dijkstra's
shunting-yard, 1961; Pratt, "Top down operator precedence", POPL 1973).
The loop keeps the prefixes, open parentheses and binary operators still
waiting for their right operand on a stack, so nesting is bounded by
memory alone.  Token positions are worked out only to report an error.
"""

from __future__ import annotations

import re
from typing import Iterable, Tuple

ATOM = "atom"
BOT = "bot"
AND = "and"
OR = "or"
IMP = "imp"
BOX = "box"
DIA = "dia"


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class Formula:
    """Immutable, interned formula node.

    Formulas are hash-consed: structurally equal formulas are the same
    object, so equality, hashing and interning go by identity.

    `key` orders formulas canonically: complexity first, then a
    structural comparison.  It is built once, at interning, from the
    children's keys, so equal subformulas share one key object and it is
    the same in every process.  Identity hashes follow memory addresses,
    so every order that output shows is by `key`, never a set's order.
    """

    __slots__ = ("kind", "left", "right", "index", "complexity", "size", "key")

    def __init__(self, kind, left, right, index, complexity, size, key):
        self.kind = kind
        self.left = left
        self.right = right
        self.index = index
        self.complexity = complexity
        self.size = size
        self.key = key

    def __repr__(self):
        return "Formula(%s)" % render(self)

    def __reduce__(self):
        # Unpickling interns, so equality stays identity.
        return _mk, (self.kind, self.left, self.right, self.index)


# An order key is (complexity, rank, the children's keys); atoms rank 0
# and add their index, bot ranks 1.
_RANK = {AND: 2, OR: 3, IMP: 4, BOX: 5, DIA: 6}

_intern: dict = {}


def _mk(kind, left=None, right=None, index=0):
    key = (kind, left, right, index)
    f = _intern.get(key)
    if f is not None:
        return f
    if left is None:
        cplx, size = 0, 1
        order = (0, 0, index) if kind == ATOM else (0, 1)
    elif right is None:
        cplx, size = 1 + left.complexity, 1 + left.size
        order = (cplx, _RANK[kind], left.key)
    else:
        cplx = 1 + left.complexity + right.complexity
        size = 1 + left.size + right.size
        order = (cplx, _RANK[kind], left.key, right.key)
    # Atomic, as the key hashes in C: threads get one object.
    return _intern.setdefault(key, Formula(kind, left, right, index, cplx,
                                           size, order))


bot = _mk(BOT)


def atom(i: int) -> Formula:
    if i < 1:
        raise ValueError("atom indices start at 1")
    return _mk(ATOM, index=i)


def conj(a: Formula, b: Formula) -> Formula:
    return _mk(AND, a, b)


def disj(a: Formula, b: Formula) -> Formula:
    return _mk(OR, a, b)


def imp(a: Formula, b: Formula) -> Formula:
    return _mk(IMP, a, b)


def box(a: Formula) -> Formula:
    return _mk(BOX, a)


def dia(a: Formula) -> Formula:
    return _mk(DIA, a)


top = imp(bot, bot)


def neg(a: Formula) -> Formula:
    return imp(a, bot)


def iff(a: Formula, b: Formula) -> Formula:
    return conj(imp(a, b), imp(b, a))


def subformulas(f: Formula) -> frozenset:
    """Smallest set containing f and closed under immediate subformulas."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if g.left is not None:
            stack.append(g.left)
        if g.right is not None:
            stack.append(g.right)
    return frozenset(seen)


def var_set(f: Formula) -> frozenset:
    """The variable set of f: always contains bot, plus every atom in f."""
    out = {bot}
    for g in subformulas(f):
        if g.kind == ATOM:
            out.add(g)
    return frozenset(out)


def var_set_all(fs: Iterable[Formula]) -> frozenset:
    out = {bot}
    for f in fs:
        out |= var_set(f)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Parsing

# A unicode alias is a token of its own, read as its ASCII form, so that
# error positions count the characters of the text as given.
_UNICODE = {
    "⊥": "bot", "⊤": "top", "¬": "~", "∧": "&", "∨": "|",
    "→": "->", "↔": "<->", "□": "[]", "◇": "<>", "⋄": "<>",
}

# "|-" and "," only occur in sequents; "|-" is never part of a formula.
_TOKEN = (r"<->|->|\|-|\[\]|<>|[&|~(),%s]|[A-Za-z_][A-Za-z0-9_]*"
          % "".join(_UNICODE))
# Every token of a text in one pass: "\S" takes a character that starts
# no token, which fails the parse as an unexpected character.
_TOKEN_RE = re.compile(r"\s*(%s|\S)" % _TOKEN)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The stack entries of `_formula`: (level, constructor, left operand).
# A binary operator, (level, threshold, constructor) in _INFIX, pops the
# entries of at least its threshold level before it is pushed: & and |
# are left-associative, -> is right-associative, and <-> binds loosest.
# The right side of <-> is an or-level, so neither -> nor <-> follows a
# pending <->: either ends the formula there.
_IFF, _OPEN, _PREFIX_LEVEL = 0, -1, 4
_BOTTOM = (-2, None, None)
_INFIX = {"&": (3, 3, conj), "|": (2, 2, disj), "->": (1, 2, imp),
          "<->": (_IFF, 2, iff)}
# What a token in operand position pushes: a prefix, or "(".
_PREFIX = {"[]": (_PREFIX_LEVEL, box, None), "<>": (_PREFIX_LEVEL, dia, None),
           "~": (_PREFIX_LEVEL, neg, None), "(": (_OPEN, None, None)}
_CONST = {"bot": bot, "top": top}
for _alias, _tok in _UNICODE.items():
    for _table in (_INFIX, _PREFIX, _CONST):
        if _tok in _table:
            _table[_alias] = _table[_tok]


def _index(name: str, texts, names: dict) -> int:
    """The atom index of a bare name in the texts parsed together.  names
    maps each bare name met so far to its index, and each index taken to
    itself: the indices written p<k> in any of the texts, entered when the
    first bare name appears, and those of the names."""
    i = names.get(name)
    if i is None:
        if not names:
            for t, text in enumerate(texts):
                for j, tok in enumerate(_TOKEN_RE.findall(text)):
                    if tok[0] == "p" and tok[1:].isdigit():
                        n = _atom_index(tok, texts, t, j)
                        names[n] = n
        i = 1
        while i in names:
            i += 1
        names[name] = names[i] = i
    return i


def _atom_index(tok: str, texts, k: int, j: int) -> int:
    """The index of the atom written tok, token j of texts[k]."""
    try:
        return int(tok[1:])
    except ValueError:          # past CPython's limit on int() of a string
        _fail(texts, k, j, "atom index too long")


def _fail(texts, k: int, j: int, message: str):
    """Raise message, a %s in it naming token j of text k, at that token;
    but first any unexpected character of the texts."""
    for text in texts:
        for m in _TOKEN_RE.finditer(text):
            if not re.fullmatch(_TOKEN, m.group(1)):
                raise ParseError("unexpected character %r" % m.group(1),
                                 m.start(1))
    text = texts[k]
    tok, at = ([(m.group(1), m.start(1)) for m in _TOKEN_RE.finditer(text)]
               + [(None, len(text))])[j]
    if "%s" in message:
        message %= ("end of input" if tok is None
                    else repr(_UNICODE.get(tok, tok)))
    raise ParseError(message, at)


def _formula(tokens: list, i: int, texts, k: int, names: dict):
    """The formula that starts at token i of tokens, those of texts[k]
    ending in None, and the index of the token after it.  One loop reads
    the tokens in turn, keeping the operators whose right operand is still
    open on a stack.  names is the table of `_index`."""
    stack = [_BOTTOM]
    while True:
        # An operand: prefixes and open parentheses, then an atom or a
        # constant.
        tok = tokens[i]
        i += 1
        entry = _PREFIX.get(tok)
        if entry is not None:
            stack.append(entry)
            continue
        f = _CONST.get(tok)
        if f is None:
            if tok is None or tok[0] not in _NAME_START:
                _fail(texts, k, i - 1, "expected a formula, found %s")
            if tok[0] == "p" and tok[1:].isdigit():
                n = _atom_index(tok, texts, k, i - 1)
                if n < 1:
                    _fail(texts, k, i - 1, "atom indices start at 1")
                f = atom(n)
            else:
                f = atom(_index(tok, texts, names))
        # After an operand: close what it completes, up to the next
        # binary operator, which is pushed, or the end of the formula.
        while True:
            top = stack[-1]
            while top[0] == _PREFIX_LEVEL:
                stack.pop()
                f = top[1](f)
                top = stack[-1]
            tok = tokens[i]
            op = _INFIX.get(tok)
            if op is not None:
                level, threshold, make = op
                while top[0] >= threshold:
                    stack.pop()
                    f = top[1](top[2], f)
                    top = stack[-1]
                if level > 1 or top[0] != _IFF:
                    stack.append((level, make, f))
                    i += 1
                    break
            while top[0] >= 0:
                stack.pop()
                f = top[1](top[2], f)
                top = stack[-1]
            if top[0] != _OPEN:
                return f, i
            if tok != ")":
                _fail(texts, k, i, "expected ')', found %s")
            stack.pop()
            i += 1


def parse_all(*texts: str) -> Tuple[Formula, ...]:
    """Parse formulas that share one name table: a bare identifier is the
    same atom in each of them, and p<k> anywhere reserves index k."""
    names: dict = {}
    out = []
    for k, text in enumerate(texts):
        tokens = _TOKEN_RE.findall(text)
        tokens.append(None)
        f, i = _formula(tokens, 0, texts, k, names)
        if tokens[i] is not None:
            _fail(texts, k, i, "trailing input %s")
        out.append(f)
    return tuple(out)


def parse(text: str) -> Formula:
    """Parse a formula from its ASCII (or unicode-aliased) surface syntax."""
    return parse_all(text)[0]


def parse_sides(text: str) -> Tuple[Tuple[Formula, ...], Tuple[Formula, ...]]:
    """The two sides of "A1, A2 |- B" (either may be empty), parsed with
    one name table as in `parse_all`."""
    texts, names = (text,), {}
    tokens = _TOKEN_RE.findall(text)
    tokens.append(None)
    sides = ([], [])
    i = 0
    for side, stop, message in ((sides[0], "|-", "expected '|-', found %s"),
                                (sides[1], None, "trailing input %s")):
        if tokens[i] not in ("|-", None):
            f, i = _formula(tokens, i, texts, 0, names)
            side.append(f)
            while tokens[i] == ",":
                f, i = _formula(tokens, i + 1, texts, 0, names)
                side.append(f)
        if tokens[i] != stop:
            _fail(texts, 0, i, message)
        i += 1
    return tuple(sides[0]), tuple(sides[1])


# ---------------------------------------------------------------------------
# Printing

_PREC = {IMP: 1, OR: 2, AND: 3}


def render(f: Formula) -> str:
    """Minimal-parenthesization printer; parse(render(f)) == f."""
    return _render(f, 0)


def _render(f: Formula, ctx: int) -> str:
    if f.kind == ATOM:
        return "p%d" % f.index
    if f.kind == BOT:
        return "bot"
    if f is top:
        return "top"
    if f.kind == IMP and f.right is bot:
        return "~" + _render(f.left, 4)
    if f.kind == BOX:
        return "[]" + _render(f.left, 4)
    if f.kind == DIA:
        return "<>" + _render(f.left, 4)
    prec = _PREC[f.kind]
    op = {IMP: " -> ", OR: " | ", AND: " & "}[f.kind]
    if f.kind == IMP:
        s = _render(f.left, prec + 1) + op + _render(f.right, prec)
    else:
        s = _render(f.left, prec) + op + _render(f.right, prec + 1)
    if prec < ctx:
        return "(" + s + ")"
    return s
