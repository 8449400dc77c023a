"""Correctness oracles that do not trust the program under test.

This module re-implements, from the definitions, the parts needed to
judge wmodal's answers: a reader for the generator's formula texts,
forcing in classical and constructive neighbourhood models given as the
CLI's JSON documents, the frame conditions, and the known theorem counts
of the sweep space.  It never imports wmodal.
"""

from __future__ import annotations

import re

import gen

# Theorems among all formulas of size <= 5 and <= 6 over p1, p2 and bot,
# per logic.  Theoremhood is a property of the logic, so any correct
# decision procedure reproduces these counts exactly.
GOLDEN_SIZE5 = {"M": 152, "WM": 144, "MN": 180, "WMN": 172, "MC": 152, "WMC": 144, "K": 180, "WK": 172, "MP": 180, "WMP": 172, "MNP": 230, "WMNP": 222, "MD": 182, "WMD": 174, "MND": 232, "WMND": 224, "MCD": 182, "WMCD": 174, "KD": 232, "WKD": 224, "MT": 209, "WMT": 189, "MNT": 252, "WMNT": 240, "MCT": 209, "WMCT": 189, "KT": 252, "WKT": 240}  # noqa: E501
GOLDEN_SIZE6 = {"M": 644, "WM": 612, "MN": 971, "WMN": 931, "MC": 644, "WMC": 612, "K": 971, "WK": 931, "MP": 971, "WMP": 931, "MNP": 1428, "WMNP": 1380, "MD": 975, "WMD": 935, "MND": 1434, "WMND": 1386, "MCD": 975, "WMCD": 935, "KD": 1434, "WKD": 1386, "MT": 1217, "WMT": 1101, "MNT": 1642, "WMNT": 1554, "MCT": 1217, "WMCT": 1101, "KT": 1642, "WKT": 1554}  # noqa: E501
GOLDEN = {5: GOLDEN_SIZE5, 6: GOLDEN_SIZE6}


class Verdicts:
    """Collects wrong answers (which make a run incorrect) and other
    failures (which only count against `failed`)."""

    def __init__(self):
        self.wrong = []
        self.failures = []

    def wrong_answer(self, what):
        self.wrong.append(what)

    def failure(self, what):
        self.failures.append(what)

    @property
    def failed(self):
        return len(self.wrong) + len(self.failures)

    @property
    def correct(self):
        return not self.wrong


# ---------------------------------------------------------------------------
# Formula texts

_TOKEN = re.compile(r"\s*(\[\]|<>|->|[&|()]|p[0-9]+|bot)")


def read(text: str):
    """Parse a generator text into nested tuples."""
    toks = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError("cannot read %r at %d" % (text, pos))
        toks.append(m.group(1))
        pos = m.end()
    out, rest = _read(toks, 0)
    if rest != len(toks):
        raise ValueError("trailing input in %r" % text)
    return out


def _read(toks, i):
    t = toks[i]
    if t == "[]" or t == "<>":
        sub, j = _read(toks, i + 1)
        return ("box" if t == "[]" else "dia", sub), j
    if t == "(":
        a, j = _read(toks, i + 1)
        op = {"&": "and", "|": "or", "->": "imp"}[toks[j]]
        b, k = _read(toks, j + 1)
        if toks[k] != ")":
            raise ValueError("expected )")
        return (op, a, b), k + 1
    if t == "bot":
        return ("bot",), i + 1
    return ("atom", int(t[1:])), i + 1


def atoms_in(text: str):
    """Atom indices named in any formula text, including wmodal's own
    rendering."""
    return {int(m) for m in re.findall(r"\bp([0-9]+)\b", text)}


# ---------------------------------------------------------------------------
# Models as JSON documents (the format of `wmodal check-model`)

class Model:
    def __init__(self, doc):
        self.n = len(doc["worlds"])
        self.full = (1 << self.n) - 1
        self.constructive = doc["kind"] == "constructive"
        self.neigh = [[_mask(a) for a in doc["neighbourhoods"].get(str(w), [])]
                      for w in range(self.n)]
        self.val = {int(k[1:]): _mask(v) for k, v in doc["valuation"].items()}
        self.succ = [1 << w for w in range(self.n)]
        for w, v in doc.get("order", []):
            self.succ[w] |= 1 << v

    def well_formed(self):
        """Preorder and hereditary valuation (constructive models)."""
        if not self.constructive:
            return True
        for w in range(self.n):
            for v in range(self.n):
                if self.succ[w] >> v & 1 and self.succ[v] & ~self.succ[w]:
                    return False
        for m in self.val.values():
            for w in range(self.n):
                if m >> w & 1 and self.succ[w] & ~m:
                    return False
        return True

    def conditions_hold(self, conds: str):
        for w in range(self.n):
            fam = self.neigh[w]
            if "N" in conds and not fam:
                return False
            if "P" in conds and 0 in fam:
                return False
            if "T" in conds and any(not a >> w & 1 for a in fam):
                return False
            if "C" in conds and any(a & b not in fam for a in fam for b in fam):
                return False
            if "D" in conds and any(not a & b for a in fam for b in fam):
                return False
        return True

    def _up(self, local):
        """Worlds all of whose successors lie in local."""
        if not self.constructive:
            return local
        return sum(1 << w for w in range(self.n) if not self.succ[w] & ~local)

    def ext(self, f):
        k = f[0]
        if k == "bot":
            return 0
        if k == "atom":
            return self.val.get(f[1], 0)
        if k in ("box", "dia"):
            b = self.ext(f[1])
            local = 0
            for w in range(self.n):
                fam = self.neigh[w]
                if k == "box":
                    ok = any(not a & ~b for a in fam)
                else:
                    ok = all(a & b for a in fam)
                local |= ok << w
            return self._up(local)
        a, b = self.ext(f[1]), self.ext(f[2])
        if k == "and":
            return a & b
        if k == "or":
            return a | b
        return self._up(~(a & ~b) & self.full)

    def refutes(self, f, world):
        return 0 <= world < self.n and not self.ext(f) >> world & 1


def _mask(ws):
    m = 0
    for w in ws:
        m |= 1 << w
    return m


def witness_ok(doc, logic: str, formula_text: str, world: int) -> bool:
    """A claimed countermodel: well formed, of logic's class, refuting."""
    m = Model(doc)
    if m.constructive != logic.startswith("W"):
        return False
    return (m.well_formed() and m.conditions_hold(gen.conditions_of(logic))
            and m.refutes(read(formula_text), world))


def expected_check_model(doc, logic: str, formula_text: str) -> int:
    """Exit code `wmodal check-model` must give for this model/formula."""
    m = Model(doc)
    if m.constructive != logic.startswith("W"):
        return 1
    ok = m.conditions_hold(gen.conditions_of(logic))
    return 0 if ok and m.ext(read(formula_text)) == m.full else 1


# ---------------------------------------------------------------------------
# Sweep verdict tables

def lattice_violations(verdicts):
    """verdicts: {logic: {formula index: bool}}.  Theorems must persist
    along every lattice edge and from each W-logic to its classical
    counterpart."""
    bad = []
    pairs = []
    for a, b in gen.LATTICE_EDGES:
        pairs += [(a, b), ("W" + a, "W" + b)]
    pairs += [("W" + b, b) for b in gen.CLASSICAL_BASES]
    for lo, hi in pairs:
        vl, vh = verdicts.get(lo, {}), verdicts.get(hi, {})
        for i, th in vl.items():
            if th and vh.get(i) is False:
                bad.append((lo, hi, i))
    return bad
