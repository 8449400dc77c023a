"""The 28-logic catalogue: axiom schemata, Hilbert axioms, rule sets.

Fourteen classical non-normal modal logics (M through KT) and their
fourteen constructive counterparts (WM through WKT).  Each logic carries
its Hilbert-style axiom catalogue, the rule set of its cut-free sequent
calculus, and the frame-condition set used by the semantics module.
The constructive rule sets are the classical ones under
`calculus.constructive`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from . import calculus, syntax
from .syntax import Formula, box, bot, conj, dia, disj, imp, neg, top
from .sequents import CLASSICAL, CONSTRUCTIVE

# ---------------------------------------------------------------------------
# Axiom schemata.  Every schema is binary for uniformity; unary/nullary
# schemata ignore the extra arguments.

AXIOM_SCHEMAS = {
    "K_box": lambda a, b: imp(box(imp(a, b)), imp(box(a), box(b))),
    "K_dia": lambda a, b: imp(box(imp(a, b)), imp(dia(a), dia(b))),
    "C_box": lambda a, b: imp(conj(box(a), box(b)), box(conj(a, b))),
    "C_dia": lambda a, b: imp(dia(disj(a, b)), disj(dia(a), dia(b))),
    "N_box": lambda a, b: box(top),
    "N_dia": lambda a, b: neg(dia(bot)),
    "T_box": lambda a, b: imp(box(a), a),
    "T_dia": lambda a, b: imp(a, dia(a)),
    "D": lambda a, b: imp(box(a), dia(a)),
    "P_box": lambda a, b: neg(box(bot)),
    "P_dia": lambda a, b: dia(top),
    "dual": lambda a, b: syntax.iff(box(a), neg(dia(neg(a)))),
    "dual_and": lambda a, b: neg(conj(box(a), dia(neg(a)))),
    "dual_or": lambda a, b: disj(box(a), dia(neg(a))),
}


def instantiate_axiom(name: str, a: Formula, b: Formula = None) -> Formula:
    if name not in AXIOM_SCHEMAS:
        raise KeyError("unknown axiom schema %r" % name)
    return AXIOM_SCHEMAS[name](a, b if b is not None else a)


# ---------------------------------------------------------------------------
# The 14-point lattice shared by both families.

BASE_NAMES = [
    "M", "MN", "MC", "K", "MP", "MNP", "MD",
    "MND", "MCD", "KD", "MT", "MNT", "MCT", "KT",
]

# Extension edges of the lattice (src included in dst).
LATTICE_EDGES = [
    ("M", "MN"), ("M", "MC"), ("MN", "K"), ("MC", "K"),
    ("M", "MP"), ("MP", "MNP"), ("MN", "MNP"),
    ("MP", "MD"), ("MNP", "MND"), ("MD", "MND"),
    ("MD", "MCD"), ("MND", "KD"), ("MCD", "KD"), ("K", "KD"),
    ("MD", "MT"), ("MND", "MNT"), ("MCD", "MCT"), ("KD", "KT"),
    ("MT", "MNT"), ("MT", "MCT"), ("MNT", "KT"), ("MCT", "KT"),
]

# Hilbert axiom catalogues.  The classical systems extend M = dual + mon;
# the constructive systems extend WM = dual_and + mon_box + mon_dia.
_CLASSICAL_AXIOMS = {
    "M": ["dual"],
    "MN": ["dual", "N_box"],
    "MC": ["dual", "C_box"],
    "K": ["dual", "C_box", "N_box"],
    "MP": ["dual", "P_box"],
    "MNP": ["dual", "N_box", "P_box"],
    "MD": ["dual", "D"],
    "MND": ["dual", "N_box", "D"],
    "MCD": ["dual", "C_box", "D"],
    "KD": ["dual", "C_box", "N_box", "D"],
    "MT": ["dual", "T_box"],
    "MNT": ["dual", "N_box", "T_box"],
    "MCT": ["dual", "C_box", "T_box"],
    "KT": ["dual", "C_box", "N_box", "T_box"],
}

_CONSTRUCTIVE_AXIOMS = {
    "M": ["dual_and"],
    "MN": ["dual_and", "N_box"],
    "MC": ["dual_and", "C_box", "K_dia"],
    "K": ["dual_and", "C_box", "K_dia", "N_box"],
    "MP": ["dual_and", "P_dia"],
    "MNP": ["dual_and", "N_box", "P_dia"],
    "MD": ["dual_and", "D", "P_dia"],
    "MND": ["dual_and", "N_box", "D"],
    "MCD": ["dual_and", "C_box", "K_dia", "D", "P_dia"],
    "KD": ["dual_and", "C_box", "K_dia", "N_box", "D"],
    "MT": ["dual_and", "T_box", "T_dia"],
    "MNT": ["dual_and", "N_box", "T_box", "T_dia"],
    "MCT": ["dual_and", "C_box", "K_dia", "T_box", "T_dia"],
    "KT": ["dual_and", "C_box", "K_dia", "N_box", "T_box", "T_dia"],
}

# Frame conditions are read off the axiom catalogue.
_AXIOM_CONDITION = {
    "C_box": "C", "N_box": "N", "T_box": "T",
    "D": "D", "P_box": "P", "P_dia": "P",
}

# ---------------------------------------------------------------------------
# Sequent-calculus rule sets.  Their order is the order in which
# `calculus.backward_applications` lists instances and search tries the
# rules that are not invertible; search tries the invertible ones in
# `calculus` table order.

_PROPOSITIONAL = ["init", "Lbot", "Land", "Lor", "Limp", "Rand", "Ror", "Rimp"]

_CLASSICAL_MODAL = {
    "M": ["Mbox", "Mdia", "dualandM", "dualorM"],
    "MN": ["Mbox", "Mdia", "dualandM", "dualorM", "Nbox", "Ndia"],
    "MC": ["Cbox", "Cdia", "dualandC", "dualorC"],
    "K": ["Kbox", "Kdia"],
    "MP": ["Mbox", "Mdia", "dualandM", "dualorM", "Pbox", "Pdia"],
    "MNP": ["Mbox", "Mdia", "dualandM", "dualorM", "Nbox", "Ndia", "Pbox", "Pdia"],
    "MD": ["Mbox", "Mdia", "dualandM", "dualorM", "D", "Dbox", "Ddia", "Pbox", "Pdia"],
    "MND": ["Mbox", "Mdia", "dualandM", "dualorM", "Nbox", "Ndia",
            "D", "Dbox", "Ddia", "Pbox", "Pdia"],
    "MCD": ["Cbox", "Cdia", "dualandC", "dualorC", "CD"],
    "KD": ["Kbox", "Kdia", "CD"],
    "MT": ["Mbox", "Mdia", "dualandM", "dualorM", "Tbox", "Tdia"],
    "MNT": ["Mbox", "Mdia", "dualandM", "dualorM", "Nbox", "Ndia", "Tbox", "Tdia"],
    "MCT": ["Cbox", "Cdia", "dualandC", "dualorC", "Tbox", "Tdia"],
    "KT": ["Kbox", "Kdia", "Tbox", "Tdia"],
}


class Logic(NamedTuple):
    name: str
    base: str              # point in the 14-element lattice
    mode: str              # classical | constructive
    axioms: Tuple[str, ...]
    rules: Tuple[str, ...]
    conditions: FrozenSet[str]

    def __str__(self):
        return self.name


def _build() -> Dict[str, Logic]:
    out = {}
    for base in BASE_NAMES:
        classical = _CLASSICAL_MODAL[base]
        constructive = [r.name for name in classical
                        for r in calculus.constructive(calculus.RULES[name])]
        for name, mode, axs, modal in (
                (base, CLASSICAL, _CLASSICAL_AXIOMS[base], classical),
                ("W" + base, CONSTRUCTIVE, _CONSTRUCTIVE_AXIOMS[base],
                 constructive)):
            out[name] = Logic(
                name=name, base=base, mode=mode, axioms=tuple(axs),
                rules=tuple(_PROPOSITIONAL + modal),
                conditions=frozenset(
                    _AXIOM_CONDITION[a] for a in axs if a in _AXIOM_CONDITION),
            )
    return out


LOGICS: Dict[str, Logic] = _build()


def get_logic(name: str) -> Logic:
    if name not in LOGICS:
        raise KeyError(
            "unknown logic %r (expected one of %s)" % (name, ", ".join(LOGICS)))
    return LOGICS[name]


def lattice_edges(mode: str) -> List[Tuple[str, str]]:
    """Inclusion edges among the 14 logics of one family."""
    pre = "W" if mode == CONSTRUCTIVE else ""
    return [(pre + a, pre + b) for a, b in LATTICE_EDGES]


# ---------------------------------------------------------------------------
# Expected status of each axiom schema in each logic: the oracle for the
# axiom/negative matrices.  Classical logics validate the boolean duality
# schemata outright.  The constructive ones validate only dual_and of them
# and never C_dia; otherwise both families follow one table.

_CONSTRUCTIVE_NON_THEOREMS = ("dual", "dual_or", "C_dia")


def expected_axiom_status(logic: Logic, schema: str) -> bool:
    if logic.mode == CONSTRUCTIVE and schema in _CONSTRUCTIVE_NON_THEOREMS:
        return False
    c = logic.conditions
    table = {
        "dual": True, "dual_and": True, "dual_or": True,
        "K_box": "C" in c, "K_dia": "C" in c,
        "C_box": "C" in c, "C_dia": "C" in c,
        "N_box": "N" in c, "N_dia": "N" in c,
        "T_box": "T" in c, "T_dia": "T" in c,
        "D": "D" in c or "T" in c,
        "P_box": "P" in c or "D" in c or "T" in c,
        "P_dia": "P" in c or "D" in c or "T" in c,
    }
    return table[schema]
