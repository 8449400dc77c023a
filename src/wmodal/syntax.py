"""Bimodal propositional formulas: hash-consed ASTs, parsing and printing.

The connective set is atoms, bot, &, |, ->, [] and <>.  Derived forms
(top, ~, <->) normalize at construction time, so the rest of the code
only ever sees the seven primitive constructors.
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
_TOKEN_RE = re.compile(r"\s*(<->|->|\|-|\[\]|<>|[&|~(),%s]|[A-Za-z_][A-Za-z0-9_]*)"
                       % "".join(_UNICODE))
_INDEXED = re.compile(r"p[0-9]+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            rest = text[i:].lstrip()
            if rest == "":
                break
            raise ParseError("unexpected character %r" % rest[0],
                             len(text) - len(rest))
        tok = m.group(1)
        tokens.append((_UNICODE.get(tok, tok), m.start(1)))
        i = m.end()
    tokens.append((None, len(text)))
    return tokens


def _reserved(token_lists) -> set:
    """The indices k written explicitly as p<k> in the token lists."""
    return {int(t[1:]) for tokens in token_lists for t, _ in tokens
            if t and _INDEXED.fullmatch(t)}


class _Parser:
    """Recursive descent over one token list.

    Bare identifiers map to fresh indices in first-occurrence order, in
    the name table names, skipping the indices in reserved.
    """

    def __init__(self, tokens, names: dict, reserved: set):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.reserved = reserved

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok):
        got, at = self.next()
        if got != tok:
            raise ParseError("expected %r, found %s" % (tok, _shown(got)), at)

    def end(self):
        tok, at = self.next()
        if tok is not None:
            raise ParseError("trailing input %r" % tok, at)

    def fresh_index(self, name):
        if name in self.names:
            return self.names[name]
        i = 1
        taken = self.reserved | set(self.names.values())
        while i in taken:
            i += 1
        self.names[name] = i
        return i

    def side(self) -> tuple:
        """A comma-separated, possibly empty, list of formulas."""
        if self.peek() in ("|-", None):
            return ()
        fs = [self.formula()]
        while self.peek() == ",":
            self.next()
            fs.append(self.formula())
        return tuple(fs)

    def formula(self) -> Formula:
        lhs = self.or_level()
        if self.peek() == "->":
            self.next()
            return imp(lhs, self.formula())
        if self.peek() == "<->":
            self.next()
            return iff(lhs, self.or_level())
        return lhs

    def or_level(self) -> Formula:
        f = self.and_level()
        while self.peek() == "|":
            self.next()
            f = disj(f, self.and_level())
        return f

    def and_level(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.next()
            f = conj(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok, at = self.next()
        if tok == "[]":
            return box(self.unary())
        if tok == "<>":
            return dia(self.unary())
        if tok == "~":
            return neg(self.unary())
        if tok == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok == "bot":
            return bot
        if tok == "top":
            return top
        if tok is not None and _INDEXED.fullmatch(tok):
            i = int(tok[1:])
            if i < 1:
                raise ParseError("atom indices start at 1", at)
            return atom(i)
        if tok is not None and _NAME.fullmatch(tok):
            return atom(self.fresh_index(tok))
        raise ParseError("expected a formula, found %s" % _shown(tok), at)


def _shown(tok) -> str:
    """A token as error messages name it; None ends every token list."""
    return "end of input" if tok is None else repr(tok)


def parse_all(*texts: str) -> Tuple[Formula, ...]:
    """Parse formulas that share one name table: a bare identifier is the
    same atom in each of them, and p<k> anywhere reserves index k."""
    token_lists = [_tokenize(t) for t in texts]
    names: dict = {}
    reserved = _reserved(token_lists)
    out = []
    for tokens in token_lists:
        p = _Parser(tokens, names, reserved)
        out.append(p.formula())
        p.end()
    return tuple(out)


def parse(text: str) -> Formula:
    """Parse a formula from its ASCII (or unicode-aliased) surface syntax."""
    return parse_all(text)[0]


def parse_sides(text: str) -> Tuple[Tuple[Formula, ...], Tuple[Formula, ...]]:
    """The two sides of "A1, A2 |- B" (either may be empty), parsed with
    one name table as in `parse_all`."""
    tokens = _tokenize(text)
    p = _Parser(tokens, {}, _reserved([tokens]))
    ant = p.side()
    p.expect("|-")
    suc = p.side()
    p.end()
    return ant, suc


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
