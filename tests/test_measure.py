"""Drift measure values and the sufficient criterion."""

from fractions import Fraction

from hypothesis import given, settings

from asprod.measure import Tier1, measure, measure_term, tier1_verdict
from asprod.syntax import parse_definition
from asprod.terms import Choice, Cons, Left, Mk, Right, Tail, Term, children

from conftest import definitions, probabilities, stream_terms

CONSTRUCTORS = (Cons, Mk)
DESTRUCTORS = (Tail, Left, Right)


def count_nodes(t: Term, kinds: tuple[type, ...]) -> int:
    total = 1 if isinstance(t, kinds) else 0
    return total + sum(count_nodes(c, kinds) for c in children(t))


def drift_stream(p: Fraction):
    return parse_definition(f"stream s = (a : s) (+ {p}) tail(s)")


def test_drift_family_measure_is_2p_minus_1():
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        assert measure(drift_stream(p)) == 2 * p - 1
    assert measure(drift_stream(Fraction(3, 4))) == Fraction(1, 2)


def test_bare_recursion_has_zero_measure():
    assert measure(parse_definition("stream s = s")) == 0


def test_tree_examples():
    e1 = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, t)")
    e2 = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    assert measure(e1) == Fraction(1, 2)
    assert measure(e2) == Fraction(-1, 4)


def test_tier1_verdicts():
    assert tier1_verdict(measure(drift_stream(Fraction(3, 4)))) is Tier1.ASP
    assert tier1_verdict(measure(drift_stream(Fraction(1, 2)))) is Tier1.ABSTAIN
    e2 = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    assert tier1_verdict(measure(e2)) is Tier1.ABSTAIN


@settings(max_examples=200, deadline=None)
@given(definitions())
def test_measure_is_exact_and_bounded(d):
    m = measure(d)
    assert isinstance(m, Fraction)
    bound = count_nodes(d.body, CONSTRUCTORS) + count_nodes(d.body, DESTRUCTORS)
    assert abs(m) <= bound


@settings(max_examples=200, deadline=None)
@given(probabilities(), stream_terms(4), stream_terms(4))
def test_measure_linear_in_choice(p, left, right):
    assert measure_term(Choice(p, left, right)) == p * measure_term(left) + (
        1 - p
    ) * measure_term(right)


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_dyadic_probabilities_give_dyadic_measures(d):
    # replace every probability by a dyadic one and check the denominator
    from asprod.terms import Definition

    def dyadic(t):
        if isinstance(t, Choice):
            num = t.prob.numerator % 7 + 1
            return Choice(Fraction(num, 8), dyadic(t.left), dyadic(t.right))
        from asprod.terms import children
        kids = [dyadic(c) for c in children(t)]
        return type(t)(*([t.label] if hasattr(t, "label") else []), *kids) if kids else t

    body = dyadic(d.body)
    m = measure(Definition(d.name, d.kind, body).validate())
    den = m.denominator
    assert den & (den - 1) == 0  # a power of two
