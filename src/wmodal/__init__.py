"""Decision procedures, interpolation and countermodels for a family of
constructive (Wijesekera-style) and classical non-normal modal logics."""

from . import calculus, logics, prover, sequents, syntax
from .logics import LOGICS, Logic, get_logic, instantiate_axiom
from .prover import Budget, BudgetExceeded, Derivation, check, decide, prove, prove_from
from .sequents import Sequent, interpret, parse_sequent
from .syntax import Formula, ParseError, parse, render

__version__ = "0.1.0"
