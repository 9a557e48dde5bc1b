"""Pushdown translation, configuration stepping, runs, cross-validation,
exports, and the closure-table simulator's exact agreement with step()."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from asprod.ppda import (
    Config,
    Move,
    Ppda,
    apply_move,
    cross_validate,
    export,
    translate,
)
from asprod.semantics import DepthLimitError, Out, OutNode, Unfold, step
from asprod.simulate import EV_OUT, CompiledDefinition
from asprod.syntax import parse_definition
from asprod.terms import Cons, Kind, Left, Mk, RecVar, Tail, subterms

from conftest import (
    CORPUS_TEXT,
    corpus,
    definitions,
    seeded_random_definitions,
    stream_definitions,
)
from test_simulate import READS_BOTH

S34 = parse_definition("stream s = (a : s) (+ 3/4) tail(s)")
T1 = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, t)")


def _moves(p, state_term, top):
    i = p.states.index(state_term)
    return {(p.states[m.target], m.push): m.prob for m in p.rows[(i, top)]}


def test_translate_states_are_subterms_in_order():
    p = translate(S34)
    assert p.states == subterms(S34)
    assert p.initial == 0
    assert p.alphabet == ("tl",)


def test_translate_choice_row_preserves_top():
    p = translate(S34)
    cons, tail = Cons("a", RecVar()), Tail(RecVar())
    assert _moves(p, S34.body, None) == {(cons, ()): Fraction(3, 4), (tail, ()): Fraction(1, 4)}
    assert _moves(p, S34.body, "tl") == {
        (cons, ("tl",)): Fraction(3, 4),
        (tail, ("tl",)): Fraction(1, 4),
    }


def test_translate_constructor_and_destructor_rows():
    p = translate(S34)
    cons, tail = Cons("a", RecVar()), Tail(RecVar())
    # constructor: keeps the empty stack (output move) or pops one symbol
    assert _moves(p, cons, None) == {(RecVar(), ()): Fraction(1)}
    assert _moves(p, cons, "tl") == {(RecVar(), ()): Fraction(1)}
    # destructor pushes over any top
    assert _moves(p, tail, None) == {(RecVar(), ("tl",)): Fraction(1)}
    assert _moves(p, tail, "tl") == {(RecVar(), ("tl", "tl")): Fraction(1)}
    # recursion re-pushes the read symbol and enters the body
    assert _moves(p, RecVar(), "tl") == {(S34.body, ("tl",)): Fraction(1)}


def test_translate_tree_rows():
    p = translate(T1)
    mk = Mk("x", RecVar(), RecVar())
    left = Left(RecVar())
    # equal children at the empty stack merge into a single move
    assert _moves(p, mk, None) == {(RecVar(), ()): Fraction(1)}
    assert _moves(p, mk, "lt") == {(RecVar(), ()): Fraction(1)}
    assert _moves(p, left, "rt") == {(RecVar(), ("lt", "rt")): Fraction(1)}


def test_translate_tree_distinct_children_split_evenly():
    t2 = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    p = translate(t2)
    mk = Mk("x", RecVar(), Left(RecVar()))
    assert _moves(p, mk, None) == {
        (RecVar(), ()): Fraction(1, 2),
        (Left(RecVar()), ()): Fraction(1, 2),
    }
    assert _moves(p, mk, "rt") == {(Left(RecVar()), ()): Fraction(1)}


def test_translate_self_loop():
    p = translate(parse_definition("stream s = s"))
    assert len(p.states) == 1
    assert p.rows[(0, None)] == (Move(Fraction(1), 0, ()),)
    assert p.rows[(0, "tl")] == (Move(Fraction(1), 0, ("tl",)),)


def ppda_step(p: Ppda, c: Config) -> dict[Config, Fraction]:
    """One-step distribution over successor configurations."""
    out: dict[Config, Fraction] = {}
    for m in p.rows[(c.state, c.top)]:
        succ = apply_move(c, m)
        out[succ] = out.get(succ, Fraction(0)) + m.prob
    return out


def is_outputting(p: Ppda, c: Config) -> bool:
    """True exactly on constructor states with an empty stack."""
    return p.is_constructor(c.state) and not c.stack


def test_ppda_step_applies_moves():
    p = translate(S34)
    cons = p.states.index(Cons("a", RecVar()))
    tail = p.states.index(Tail(RecVar()))
    rec = p.states.index(RecVar())
    assert ppda_step(p, Config(cons, ())) == {Config(rec, ()): Fraction(1)}
    assert ppda_step(p, Config(cons, ("tl",))) == {Config(rec, ()): Fraction(1)}
    assert ppda_step(p, Config(tail, ("tl",))) == {
        Config(rec, ("tl", "tl")): Fraction(1)
    }


def test_is_outputting_only_constructors_at_empty_stack():
    p = translate(S34)
    cons = p.states.index(Cons("a", RecVar()))
    tail = p.states.index(Tail(RecVar()))
    assert is_outputting(p, Config(cons, ()))
    assert not is_outputting(p, Config(cons, ("tl",)))
    assert not is_outputting(p, Config(tail, ()))


def test_stream_stack_is_unary_and_tree_height_changes_by_one():
    # a move replaces the read symbol by at most two, so the height changes
    # by at most one per step; stream moves push only `tl`
    for name, d in corpus().items():
        p = translate(d)
        for (_, top), moves in p.rows.items():
            for m in moves:
                assert len(m.push) <= 2, (name, top, m)
                if top is None:
                    assert len(m.push) <= 1, (name, m)
                if d.kind is Kind.STREAM:
                    assert set(m.push) <= {"tl"}, (name, m)


def test_stream_control_moves_do_not_depend_on_read_symbol():
    for name in ("s14", "s12", "s34", "scoin", "spure", "srec", "strap"):
        p = translate(corpus()[name])
        for i in range(len(p.states)):
            targets = {
                top: sorted((m.target, m.prob) for m in p.rows[(i, top)])
                for top in ("tl", None)
            }
            assert targets["tl"] == targets[None]


@settings(max_examples=200, deadline=None)
@given(definitions())
def test_rows_are_total_and_sum_to_one(d):
    p = translate(d)
    for (i, top), moves in p.rows.items():
        assert sum(m.prob for m in moves) == 1
        for m in moves:
            assert len(m.push) <= 2
            if len(m.push) == 2:
                assert top is not None and m.push[1] == top
    assert set(p.rows) == {
        (i, top) for i in range(len(p.states)) for top in (*p.alphabet, None)
    }


# ---------------------------------------------------------------------------
# cross-validation (finite-depth agreement with the term semantics)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXT))
def test_cross_validate_corpus_depth_8(name):
    report = cross_validate(corpus()[name], 8)
    assert report.equal, report.mismatches[:3]


def test_cross_validate_depth_bound():
    with pytest.raises(DepthLimitError):
        cross_validate(S34, 13)


@settings(max_examples=60, deadline=None)
@given(definitions(4))
def test_cross_validate_random_definitions(d):
    assert cross_validate(d, 5).equal


# ---------------------------------------------------------------------------
# export


def test_export_json_schema_and_content():
    p = translate(parse_definition("stream s = s"))
    doc = json.loads(export(p, "json"))
    assert set(doc) == {
        "name", "kind", "states", "alphabet", "transitions", "outputting", "initial",
    }
    assert doc["states"] == [{"id": 0, "term": "s"}]
    assert doc["outputting"] == []
    assert len(doc["transitions"]) == 2  # one row per top symbol (tl and empty)
    by_top = {t["top"]: t for t in doc["transitions"]}
    assert by_top[None]["moves"] == [{"prob": "1/1", "next": 0, "push": []}]
    assert by_top["tl"]["moves"] == [{"prob": "1/1", "next": 0, "push": ["tl"]}]


def test_export_graphviz_contains_output_move_label():
    p = translate(parse_definition("stream s = a : s"))
    dot = export(p, "graphviz")
    assert "⊥ / ε : 1" in dot  # the empty-stack output move
    assert dot.startswith('digraph "s"')


def test_export_is_deterministic():
    p = translate(corpus()["t2"])
    assert export(p, "json") == export(p, "json")
    assert export(p, "graphviz") == export(p, "graphviz")
    q = translate(corpus()["t2"])
    assert export(p, "json") == export(q, "json")


def test_export_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        export(translate(S34), "yaml")


def test_exported_outputting_states_are_constructors():
    p = translate(corpus()["t2"])
    doc = json.loads(export(p, "json"))
    from asprod.terms import Cons as ConsT, Mk as MkT

    expected = [i for i, t in enumerate(p.states) if isinstance(t, (ConsT, MkT))]
    assert doc["outputting"] == expected


# ---------------------------------------------------------------------------
# closure tables of the batch simulator agree exactly with step()


def _closure_distribution(d, compiled, row, stack_syms):
    """Exact closure row remapped into step() outcomes."""
    from asprod.semantics import _wrap

    codes = "T" if d.kind is Kind.STREAM else "LR"
    nodes = compiled.ppda.states
    dist = {}
    for weight, ev, na, nb, con, push in row:
        remaining = stack_syms[: len(stack_syms) - con] + list(push)
        ds = [codes[s] for s in remaining]
        if ev == 0:
            key = ("unf", _wrap(ds, d.body))
        elif d.kind is Kind.STREAM:
            key = ("out", nodes[na])
        else:
            key = ("out", nodes[na], nodes[nb])
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


def _step_distribution(d, term):
    dist = {}
    for outcome, p in step(d, term).items():
        if isinstance(outcome, Unfold):
            key = ("unf", outcome.term)
        elif isinstance(outcome, Out):
            key = ("out", outcome.tail)
        else:
            assert isinstance(outcome, OutNode)
            key = ("out", outcome.left, outcome.right)
        dist[key] = dist.get(key, Fraction(0)) + p
    return dist


CLOSURE_INPUTS = {
    **corpus(),
    **{f"seeded{i}": d for i, d in enumerate(seeded_random_definitions(24))},
    "reads_both": parse_definition(READS_BOTH),
    # only a constructor successor reads the entry stack, at the empty stack
    "successor_reads": parse_definition("stream s = tail(tail(a : b : s))"),
    # successor walks pass a choice before their pending destructors cancel,
    # and then share the walks of the states they reach
    "shared_tail": parse_definition("stream s = a : tail((b : s) (+ 1/3) (c : tail(d : s)))"),
    "shared_child": parse_definition(
        "tree t = mk(a, left(mk(b, t, t) (+ 1/2) right(mk(c, t, left(t)))), t)"
    ),
}


@pytest.mark.parametrize("name", list(CLOSURE_INPUTS))
def test_closure_rows_match_step_distributions(name):
    from asprod.semantics import _wrap

    d = CLOSURE_INPUTS[name]
    compiled = CompiledDefinition(d)
    codes = "T" if d.kind is Kind.STREAM else "LR"
    m = compiled.n_syms
    _, classes, rows = compiled._closure()
    for row_id, row in rows.items():
        core, cls_id = divmod(row_id, len(classes))
        combo, exhausted = classes[cls_id]
        # unexhausted classes must be valid for any symbols further down
        pads = [()] if exhausted else [(0,), (m - 1, 0)]
        for pad in pads:
            stack_syms = list(pad) + list(reversed(combo))
            term = _wrap([codes[s] for s in stack_syms], compiled.ppda.states[core])
            expected = _step_distribution(d, term)
            actual = _closure_distribution(d, compiled, row, stack_syms)
            assert actual == expected, (name, core, combo, exhausted, pad)


@pytest.mark.parametrize("name", list(CLOSURE_INPUTS))
def test_closure_rows_are_closed_under_successors(name):
    compiled = CompiledDefinition(CLOSURE_INPUTS[name])
    depth, classes, rows = compiled._closure()
    assert depth == compiled.suffix_depth
    n = len(classes)
    assert list(rows) == sorted(rows)
    for row in rows.values():
        for _, ev, na, nb, _, _ in row:
            if ev == EV_OUT:
                assert na * n in rows and nb * n in rows
            else:
                assert all(c in rows for c in range(n))
    # the chosen depth is the least that suffices: some output consumed
    # depth - 1 entry symbols, so a suffix one shorter could not tell
    # whether the stack ends there
    if depth > 0:
        assert any(
            ev == EV_OUT and con == depth - 1
            for row in rows.values()
            for _, ev, _, _, con, _ in row
        )


@settings(max_examples=100, deadline=None)
@given(stream_definitions())
def test_stream_control_independence_property(d):
    # in every stream table row, the successor states and probabilities do
    # not depend on the read symbol (only the pushes do)
    p = translate(d)
    for i in range(len(p.states)):
        targets = {
            top: sorted((m.target, m.prob) for m in p.rows[(i, top)])
            for top in ("tl", None)
        }
        assert targets["tl"] == targets[None]


def test_observable_distribution_pure_emitter():
    from asprod.ppda import observable_distribution

    p = translate(parse_definition("stream s = a : s"))
    assert observable_distribution(p, 3) == {("a", None, "a"): Fraction(1)}
    q = translate(parse_definition("stream s = s"))
    assert observable_distribution(q, 4) == {(None,) * 4: Fraction(1)}
