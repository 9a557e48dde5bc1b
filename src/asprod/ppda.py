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
from .terms import Choice, Cons, Definition, Kind, Left, Mk, RecVar, Tail, Term
from .terms import children, frac_str, fraction_str, subterms

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
    kids = [[index[c] for c in children(t)] for t in states]
    alphabet = (TL,) if d.kind is Kind.STREAM else (LT, RT)
    rows: dict[tuple[int, TopSymbol], tuple[Move, ...]] = {}
    body = index[d.body]
    # the push that keeps the read symbol, per read symbol
    keep: dict[TopSymbol, tuple[str, ...]] = {top: (top,) for top in alphabet}
    keep[None] = ()

    for i, t in enumerate(states):
        k = kids[i]
        if isinstance(t, RecVar):
            for top, kept in keep.items():
                rows[(i, top)] = (Move(ONE, body, kept),)
        elif isinstance(t, Choice):
            rest = 1 - t.prob
            for top, kept in keep.items():
                rows[(i, top)] = _merge_moves(Move(t.prob, k[0], kept), Move(rest, k[1], kept))
        elif isinstance(t, Cons):
            # at the empty stack this is the outputting transition; under tl
            # it cancels one pending destructor (a pop)
            for top in keep:
                rows[(i, top)] = (Move(ONE, k[0], ()),)
        elif isinstance(t, Mk):
            # under lt or rt a pop to that child; at the empty stack either
            # child, uniformly
            rows[(i, LT)] = (Move(ONE, k[0], ()),)
            rows[(i, RT)] = (Move(ONE, k[1], ()),)
            rows[(i, None)] = _merge_moves(Move(HALF, k[0], ()), Move(HALF, k[1], ()))
        else:  # a destructor pushes its symbol over the read one
            symbol = TL if isinstance(t, Tail) else LT if isinstance(t, Left) else RT
            for top, kept in keep.items():
                rows[(i, top)] = (Move(ONE, k[0], (symbol, *kept)),)

    return Ppda(
        name=d.name,
        kind=d.kind,
        states=states,
        alphabet=alphabet,
        rows=rows,
        initial=body,
        state_names=_state_names(states, kids, d.name),
    )


def _state_names(states: tuple[Term, ...], kids: list[list[int]], name: str) -> tuple[str, ...]:
    """`syntax.format_term` of every state, each written once from its
    children's texts, `kids` the children's state indices.  A child may come
    before or after its parent in `states`, so the texts are written in
    post-order, by a depth-first walk from the body (state 0) with an
    explicit stack: an entry ~i writes state i once its children are
    written."""
    names: list[Optional[str]] = [None] * len(states)
    stack = [0]
    while stack:
        i = stack.pop()
        if i >= 0:
            if names[i] is None:
                stack.append(~i)
                stack.extend(kids[i])
        elif names[~i] is None:
            i = ~i
            names[i] = syntax.format_node(states[i], name, list(map(names.__getitem__, kids[i])))
    return tuple(names)


def _merge_moves(first: Move, second: Move) -> tuple[Move, ...]:
    """The two moves of a row, or one move with their summed probability
    when they share target and push."""
    if first.target == second.target and first.push == second.push:
        return (Move(first.prob + second.prob, first.target, first.push),)
    return (first, second)


# ---------------------------------------------------------------------------
# export


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
                    {"prob": frac_str(m.prob), "next": m.target, "push": list(m.push)}
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
            prob_str = fraction_str(m.prob)
            lines.append(
                f'  {i} -> {m.target} [label="{top_str} / {push_str} : {prob_str}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
