"""Probabilistic pushdown automata for definitions, and the translation.

The control states are the distinct subterms of the definition's body; the
stack records pending destructors (a unary `tl` alphabet for streams, `lt`/
`rt` for trees).  A transition row is keyed by (state, top symbol), where the
top symbol None stands for the empty stack; a move consumes the read symbol
and pushes a replacement string (empty = pop, one symbol = keep or a push
onto the empty stack, two symbols = push over the re-pushed read symbol).

A configuration whose state is a constructor and whose stack is empty is an
outputting configuration: visiting it corresponds to emitting one output.
Tree constructors at the empty stack move to either child with probability
1/2, matching the uniform direction policy (`semantics.UNIFORM`).  The
reference term semantics in `tests/reference.py` checks the translation
against this automaton's observable events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import syntax
from .terms import Choice, Cons, Definition, Kind, Left, Mk, RecVar, Right, Tail, Term, subterms

TL = "tl"
LT = "lt"
RT = "rt"

TopSymbol = Optional[str]  # None reads the empty stack

ONE = Fraction(1)
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Move:
    prob: Fraction
    target: int
    push: tuple[str, ...]  # replaces the consumed top symbol; at most 2 long


@dataclass(frozen=True, eq=False)
class Ppda:
    name: str
    kind: Kind
    states: tuple[Term, ...]
    alphabet: tuple[str, ...]
    rows: dict[tuple[int, TopSymbol], tuple[Move, ...]]
    initial: int = 0
    state_names: tuple[str, ...] = field(default=())

    def is_constructor(self, i: int) -> bool:
        return isinstance(self.states[i], (Cons, Mk))

    def is_recvar(self, i: int) -> bool:
        return isinstance(self.states[i], RecVar)


def translate(d: Definition) -> Ppda:
    """Build the pushdown model of a definition.

    One row per (subterm, read symbol); moves with equal target and push are
    merged by summing their probabilities.
    """
    states = subterms(d)
    index = {t: i for i, t in enumerate(states)}
    alphabet = (TL,) if d.kind is Kind.STREAM else (LT, RT)
    rows: dict[tuple[int, TopSymbol], tuple[Move, ...]] = {}
    body = index[d.body]
    # the push that keeps the read symbol, per read symbol
    keep: dict[TopSymbol, tuple[str, ...]] = {top: (top,) for top in alphabet}
    keep[None] = ()

    for i, t in enumerate(states):
        if isinstance(t, Choice):
            rest = 1 - t.prob
        for top, kept in keep.items():
            if isinstance(t, RecVar):
                moves = (Move(ONE, body, kept),)
            elif isinstance(t, Choice):
                moves = _merge_moves(
                    Move(t.prob, index[t.left], kept), Move(rest, index[t.right], kept)
                )
            elif isinstance(t, Cons):
                # at the empty stack this is the outputting transition;
                # under tl it cancels one pending destructor (a pop)
                moves = (Move(ONE, index[t.tail], ()),)
            elif isinstance(t, Tail):
                moves = (Move(ONE, index[t.arg], (TL, *kept)),)
            elif isinstance(t, Mk):
                if top is None:
                    moves = _merge_moves(
                        Move(HALF, index[t.left], ()), Move(HALF, index[t.right], ())
                    )
                elif top == LT:
                    moves = (Move(ONE, index[t.left], ()),)
                else:
                    moves = (Move(ONE, index[t.right], ()),)
            elif isinstance(t, Left):
                moves = (Move(ONE, index[t.arg], (LT, *kept)),)
            else:  # Right
                moves = (Move(ONE, index[t.arg], (RT, *kept)),)
            rows[(i, top)] = moves

    names = tuple(syntax.format_term(t, d.name) for t in states)
    return Ppda(
        name=d.name,
        kind=d.kind,
        states=states,
        alphabet=alphabet,
        rows=rows,
        initial=body,
        state_names=names,
    )


def _merge_moves(first: Move, second: Move) -> tuple[Move, ...]:
    """The two moves of a row, or one move with their summed probability
    when they share target and push."""
    if first.target == second.target and first.push == second.push:
        return (Move(first.prob + second.prob, first.target, first.push),)
    return (first, second)


# ---------------------------------------------------------------------------
# export


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def export(p: Ppda, fmt: str) -> str:
    """Deterministic serialization; `fmt` is 'json' or 'graphviz'."""
    if fmt == "json":
        return _export_json(p)
    if fmt == "graphviz":
        return _export_graphviz(p)
    raise ValueError(f"unknown format {fmt!r}")


def _row_keys(p: Ppda):
    for i in range(len(p.states)):
        for top in (*p.alphabet, None):
            yield i, top


def json_doc(p: Ppda) -> dict:
    """The automaton as the JSON export's dict, before encoding."""
    return {
        "name": p.name,
        "kind": p.kind.value,
        "states": [{"id": i, "term": p.state_names[i]} for i in range(len(p.states))],
        "alphabet": list(p.alphabet),
        "transitions": [
            {
                "state": i,
                "top": top,
                "moves": [
                    {"prob": _frac_str(m.prob), "next": m.target, "push": list(m.push)}
                    for m in p.rows[(i, top)]
                ],
            }
            for i, top in _row_keys(p)
        ],
        "outputting": [i for i in range(len(p.states)) if p.is_constructor(i)],
        "initial": p.initial,
    }


def _export_json(p: Ppda) -> str:
    return json.dumps(json_doc(p), sort_keys=True, indent=2)


def _export_graphviz(p: Ppda) -> str:
    lines = [f'digraph "{p.name}" {{', "  rankdir=LR;"]
    for i in range(len(p.states)):
        shape = "doublecircle" if p.is_constructor(i) else "circle"
        style = ' style=bold' if i == p.initial else ""
        lines.append(f'  {i} [label="{p.state_names[i]}" shape={shape}{style}];')
    for i, top in _row_keys(p):
        top_str = top if top is not None else "⊥"
        for m in p.rows[(i, top)]:
            push_str = "·".join(m.push) if m.push else "ε"
            prob_str = str(m.prob)
            lines.append(
                f'  {i} -> {m.target} [label="{top_str} / {push_str} : {prob_str}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
