"""Parser, validator, pretty-printer and subterm enumeration."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from asprod.syntax import ParseError, parse_definition, parse_file, pretty_print
from asprod.terms import (
    Choice,
    Cons,
    Definition,
    Kind,
    Left,
    Mk,
    RecVar,
    Tail,
    subterms,
)

from conftest import definitions


def test_parse_stream_choice():
    d = parse_definition("stream s = (a : s) (+ 3/4) tail(s)")
    assert d == Definition(
        "s",
        Kind.STREAM,
        Choice(Fraction(3, 4), Cons("a", RecVar()), Tail(RecVar())),
    )


def test_parse_tree_choice():
    d = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, t)")
    assert d == Definition(
        "t",
        Kind.TREE,
        Choice(Fraction(1, 4), Left(RecVar()), Mk("x", RecVar(), RecVar())),
    )


def test_parse_decimal_probability():
    d = parse_definition("stream s = (a : s) (+ 0.75) tail(s)")
    assert d.body.prob == Fraction(3, 4)


def test_probability_endpoints_normalize_away():
    assert parse_definition("stream s = (a : s) (+ 1) tail(s)").body == Cons(
        "a", RecVar()
    )
    assert parse_definition("stream s = (a : s) (+ 0) tail(s)").body == Tail(RecVar())
    assert parse_definition("stream s = (a : s) (+ 2/2) s").body == Cons("a", RecVar())


def test_probability_out_of_range():
    with pytest.raises(ParseError, match="probability out of range"):
        parse_file("stream s = (a : s) (+ 5/4) s")


def test_choice_is_right_associative():
    d = parse_definition("stream s = s (+ 1/2) s (+ 1/3) a : s")
    assert isinstance(d.body, Choice)
    assert d.body.prob == Fraction(1, 2)
    assert isinstance(d.body.right, Choice)
    assert d.body.right.prob == Fraction(1, 3)


def test_mixed_kind_rejected():
    with pytest.raises(ParseError, match="mixed-kind"):
        parse_file("stream s = left(s)")
    with pytest.raises(ParseError, match="mixed-kind"):
        parse_file("tree t = a : t")
    with pytest.raises(ParseError, match="mixed-kind"):
        parse_file("tree t = tail(t)")


def test_foreign_name_rejected():
    with pytest.raises(ParseError, match="another definition"):
        parse_file("stream s = a : t")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_file("stream s = s\nstream s = a : s")


def test_duplicate_name_error_points_at_the_duplicate_name():
    with pytest.raises(ParseError) as err:
        parse_file("stream s = a : s\nstream s = tail(s)\n")
    assert (err.value.line, err.value.col) == (2, 8)


def test_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_file("stream s = a :\nstream t = t")
    assert err.value.line == 2
    assert err.value.col == 1


def test_comments_and_multiple_definitions():
    defs = parse_file(
        "# a comment\nstream s = a : s  # trailing\n\ntree t = mk(x, t, t)\n"
    )
    assert [d.name for d in defs] == ["s", "t"]


def test_pretty_print_canonical_forms():
    assert pretty_print(parse_definition("stream s = (a : s)")) == "stream s = a : s"
    d = parse_definition("stream s = ((a : s) (+ 1/2) (tail(s)))")
    assert pretty_print(d) == "stream s = a : s (+ 1/2) tail(s)"


def test_pretty_print_parenthesizes_cons_of_choice():
    d = parse_definition("stream s = a : (s (+ 1/2) tail(s))")
    assert pretty_print(d) == "stream s = a : (s (+ 1/2) tail(s))"
    assert parse_file(pretty_print(d)) == [d]


def test_subterms_preorder_dedup():
    d = parse_definition("stream s = (a : s) (+ 3/4) tail(s)")
    assert subterms(d) == (
        d.body,
        Cons("a", RecVar()),
        RecVar(),
        Tail(RecVar()),
    )
    assert subterms(parse_definition("stream s = s")) == (RecVar(),)


def test_subterms_of_second_tree_example():
    d = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    terms = subterms(d)
    assert len(terms) == 4  # Choice, Left, Mk, RecVar; left(t) merged
    assert terms[0] == d.body
    assert RecVar() in terms


def test_subterms_closed_under_children():
    from asprod.terms import children

    d = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    ts = set(subterms(d))
    assert all(c in ts for t in ts for c in children(t))




@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="astream+/().:=0123456789 \n#", max_size=60))
def test_parser_totality_on_arbitrary_text(text):
    # parsing either fails with a located ParseError or yields only
    # definitions that satisfy every structural invariant
    try:
        defs = parse_file(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
        return
    for d in defs:
        assert d.validate() == d
