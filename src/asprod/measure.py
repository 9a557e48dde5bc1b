"""Syntactic drift measure and the sufficient productivity criterion.

The measure of a term is the expected number of outputs produced minus
outputs consumed per unfolding, computed exactly over rationals.  Strict
positivity is sufficient for almost-sure productivity; zero or negative
values carry no information, so the verdict abstains there.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .terms import Choice, Cons, Definition, Left, Mk, RecVar, Right, Tail, Term


class Tier1(Enum):
    ASP = "asp"
    ABSTAIN = "abstain"


def measure_term(t: Term) -> Fraction:
    if isinstance(t, RecVar):
        return Fraction(0)
    if isinstance(t, Choice):
        return t.prob * measure_term(t.left) + (1 - t.prob) * measure_term(t.right)
    if isinstance(t, Cons):
        return measure_term(t.tail) + 1
    if isinstance(t, Mk):
        return min(measure_term(t.left), measure_term(t.right)) + 1
    if isinstance(t, (Tail, Left, Right)):
        return measure_term(t.arg) - 1
    raise TypeError(f"not a term: {t!r}")


def measure(d: Definition) -> Fraction:
    """Exact expected output drift of one unfolding of the definition."""
    return measure_term(d.body)


def tier1_verdict(drift: Fraction) -> Tier1:
    """ASP iff the drift is strictly positive; otherwise no information."""
    return Tier1.ASP if drift > 0 else Tier1.ABSTAIN
