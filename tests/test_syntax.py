"""Parser, validator, pretty-printer and subterm enumeration."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from asprod.decide import decide_asp
from asprod.measure import measure
from asprod.ppda import translate
from asprod.semantics import SamplerLimitError
from asprod.simulate import CompiledDefinition
from asprod.syntax import (
    MAX_DIGITS,
    MAX_NESTING,
    ParseError,
    parse_definition,
    parse_file,
    pretty_print,
)
from asprod import terms
from asprod.terms import (
    Choice,
    Cons,
    Definition,
    Kind,
    Left,
    Mk,
    RecVar,
    Right,
    Tail,
    subterms,
    subterms_of,
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


# Every ParseError the parser raises, on malformed ASCII input, with the
# message and the line and column it reports.  Columns count characters, so
# a tab or a carriage return is one column; an unexpected character anywhere
# in the file is reported before any syntax error.
ERROR_TABLE = [
    ('stream s = a : s $', "unexpected character '$'", 1, 18),
    ('stream s = s\n  %', "unexpected character '%'", 2, 3),
    ('stream _s = s', "unexpected character '_'", 1, 8),
    ('stream s = .5', "unexpected character '.'", 1, 12),
    ('stream s = s (+ 0.5.) s', "unexpected character '.'", 1, 20),
    ('stream s = s (+ 1.) s', "unexpected character '.'", 1, 18),
    ('stream = s\n$', "unexpected character '$'", 2, 1),
    ('stream s = s\x0b', "unexpected character '\\x0b'", 1, 13),
    ('stream = s', "expected 'ident', found '='", 1, 8),
    ('tree t = mk(1, t, t)', "expected 'ident', found '1'", 1, 13),
    ('stream s s', "expected '=', found 's'", 1, 10),
    ('stream s = (s', "expected ')', found 'end of input'", 1, 14),
    ('stream s = tail(s s)', "expected ')', found 's'", 1, 19),
    ('stream s = tail s', "expected '(', found 's'", 1, 17),
    ('tree t = mk(a t, t)', "expected ',', found 't'", 1, 15),
    ('tree t = mk(a, t, t', "expected ')', found 'end of input'", 1, 20),
    ('stream s = s (+ 1/2 s', "expected ')', found 's'", 1, 21),
    ('stream s = s (+ 1/) s', "expected 'int', found ')'", 1, 19),
    ('stream s = s (+ 1/0.5) s', "expected 'int', found '0.5'", 1, 19),
    ('stream s = s (+ 1/0) s', 'zero denominator', 1, 19),
    ('stream s = s (+ 3/2) s', 'probability out of range', 1, 17),
    ('stream s = s (+ 2) s', 'probability out of range', 1, 17),
    ('stream s = s (+ 1.5) s', 'probability out of range', 1, 17),
    ('stream s = s (+ x) s', 'expected a probability', 1, 17),
    ('stream s = s (+ ) s', 'expected a probability', 1, 17),
    ('s = s', "expected 'stream' or 'tree'", 1, 1),
    ('= s', "expected 'stream' or 'tree'", 1, 1),
    ('stream s = s\nfoo', "expected 'stream' or 'tree'", 2, 1),
    ('stream s = s )', "expected 'stream' or 'tree'", 1, 14),
    ('stream tail = tail', "'tail' is reserved", 1, 8),
    ('stream stream = s', "'stream' is reserved", 1, 8),
    ('tree mk = mk', "'mk' is reserved", 1, 6),
    ('stream s = ', "expected a term, found 'end of input'", 1, 12),
    ('stream s = )', "expected a term, found ')'", 1, 12),
    ('stream s = 1', "expected a term, found '1'", 1, 12),
    ('stream s = a : s (+ 1/2)', "expected a term, found 'end of input'", 1, 25),
    ('stream s = a : stream', "'stream' is reserved", 1, 16),
    ('stream s = tree', "'tree' is reserved", 1, 12),
    ('tree t = mk(left, t, t)', "'left' is reserved", 1, 13),
    ('tree t = mk(tree, t, t)', "'tree' is reserved", 1, 13),
    ('stream s = left(s)', "mixed-kind term: 'left' is not allowed in a stream", 1, 12),
    ('stream s = right(s)', "mixed-kind term: 'right' is not allowed in a stream", 1, 12),
    ('stream s = mk(a, s, s)', "mixed-kind term: 'mk' is not allowed in a stream", 1, 12),
    ('tree t = a : t', "mixed-kind term: 'a' is not allowed in a tree", 1, 10),
    ('tree t = tail(t)', "mixed-kind term: 'tail' is not allowed in a tree", 1, 10),
    ('stream s = a : t', "reference to another definition's name 't' (only 's' may recur)", 1, 16),
    ('stream s = s\nstream s = a : s', "duplicate definition name 's'", 2, 8),
    ('stream\ts =\t\tleft(s)', "mixed-kind term: 'left' is not allowed in a stream", 1, 13),
    ('\tstream s = s\n\t\ttree t = tail(t)', "mixed-kind term: 'tail' is not allowed in a tree", 2, 12),
    ('stream s = s\r\nstream t = a :\r\n', "expected a term, found 'end of input'", 3, 1),
    ('stream s = s\r\nstream s = s\r\n', "duplicate definition name 's'", 2, 8),
    ('stream s =\n  a :\n  (s (+ 2/0) s)', 'zero denominator', 3, 11),
    ('# header\n\nstream s = a : # note\n  )', "expected a term, found ')'", 4, 3),
    # the end of input lies after the comment, not at its '#'
    ('stream s = a : s (+ 0#', "expected ')', found 'end of input'", 1, 23),
    ('stream s = a : s (+ 0# c\n', "expected ')', found 'end of input'", 2, 1),
    (
        "stream s = " + "(" * 202 + "s" + ")" * 202,
        f"term nested more than {MAX_NESTING} levels deep",
        1,
        12 + MAX_NESTING + 1,
    ),
]


@pytest.mark.parametrize("text,message,line,col", ERROR_TABLE)
def test_parse_error_table(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_file(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    assert str(err.value) == f"{line}:{col}: {message}"


def test_numbers_up_to_the_digit_limit_parse():
    nines = "9" * MAX_DIGITS
    d = parse_definition(f"stream s = s (+ 1/{nines}) a : s (+ 0.{nines[1:]}) tail(s)")
    assert d.body.prob == Fraction(1, int(nines))
    assert d.body.right.prob == Fraction(int(nines[1:]), 10 ** (MAX_DIGITS - 1))
    with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
        parse_file(f"stream s = s (+ 1/0{nines}) a : s")


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


def test_hand_built_terms_merge_by_structure():
    half = Fraction(1, 2)
    first = Choice(half, Tail(Cons("a", RecVar())), Tail(Cons("a", RecVar())))
    second = Choice(Fraction(2, 4), Tail(Cons("a", RecVar())), Tail(Cons("a", RecVar())))
    assert first == second and hash(first) == hash(second)
    assert first.left is not first.right
    assert subterms_of(first) == (first, first.left, first.left.arg, RecVar())
    assert first != Choice(half, Tail(Cons("b", RecVar())), Tail(Cons("a", RecVar())))
    assert Left(RecVar()) != Right(RecVar()) and Tail(RecVar()) != RecVar()


def test_subterms_of_a_deep_tail_chain_hashes_each_node_once(monkeypatch):
    computed = []
    structural_hash = terms._structural_hash

    def counting(node):
        computed.append(node)
        return structural_hash(node)

    monkeypatch.setattr(terms, "_structural_hash", counting)
    chain = RecVar()
    for _ in range(150):
        chain = Tail(chain)
    states = subterms_of(chain)
    assert len(states) == 151
    assert len(computed) == 151 and len(set(map(id, computed))) == 151
    subterms_of(chain)
    assert len(computed) == 151  # kept: a second walk computes none

    computed.clear()
    d = parse_definition("stream s = " + "tail(" * 150 + "s" + ")" * 150)
    translate(d)
    assert len(computed) == 151 and len(set(map(id, computed))) == 151


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


def _nested(depth: int) -> dict[str, str]:
    """Definitions whose deepest term sits `depth` levels down, one for each
    way of nesting."""
    half = depth // 2
    return {
        "cons": "stream s = " + "a : " * depth + "s",
        "parenthesized_cons": "stream s = " + "(a : " * half + "s" + ")" * half,
        "parentheses": "stream s = " + "(" * depth + "s" + ")" * depth,
        "tail": "stream s = " + "tail(" * depth + "s" + ")" * depth,
        "choice": "stream s = " + "a : s (+ 1/2) " * depth + "s",
        # equal halves, merged by a structural comparison as deep as they are
        "equal_choice": "stream s = {0} (+ 1/2) {0}".format(
            "tail(" * (depth - 1) + "s" + ")" * (depth - 1)
        ),
        "left": "tree t = " + "left(" * depth + "t" + ")" * depth,
        "mk": "tree t = " + "mk(a, t, " * depth + "t" + ")" * depth,
        "equal_mk": "tree t = mk(a, {0}, {0})".format(
            "left(" * (depth - 1) + "t" + ")" * (depth - 1)
        ),
    }


@pytest.mark.parametrize("shape", sorted(_nested(2)))
def test_every_stage_survives_the_deepest_accepted_term(shape):
    d = parse_definition(_nested(MAX_NESTING)[shape])
    measure(d)
    pretty_print(d)
    translate(d)
    try:
        CompiledDefinition(d)
    except SamplerLimitError:
        pass
    decide_asp(d)
    if shape != "parenthesized_cons":  # one more level is a lone "(a :"
        with pytest.raises(ParseError, match="nested more than"):
            parse_file(_nested(MAX_NESTING + 1)[shape])
