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
1/2, matching the uniform direction policy of the term semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import syntax
from .terms import Choice, Cons, Definition, Kind, Left, Mk, RecVar, Right, Tail, Term, subterms
from .semantics import Event, DepthLimitError

TL = "tl"
LT = "lt"
RT = "rt"

TopSymbol = Optional[str]  # None reads the empty stack

CROSS_VALIDATE_MAX_DEPTH = 12


@dataclass(frozen=True)
class Move:
    prob: Fraction
    target: int
    push: tuple[str, ...]  # replaces the consumed top symbol; at most 2 long


@dataclass(frozen=True)
class Config:
    state: int
    stack: tuple[str, ...]  # top at index 0

    @property
    def top(self) -> TopSymbol:
        return self.stack[0] if self.stack else None


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

    def label(self, i: int) -> str:
        t = self.states[i]
        assert isinstance(t, (Cons, Mk))
        return t.label

    @property
    def initial_config(self) -> Config:
        return Config(self.initial, ())


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

    def keep(top: TopSymbol) -> tuple[str, ...]:
        return (top,) if top is not None else ()

    for i, t in enumerate(states):
        for top in (*alphabet, None):
            if isinstance(t, RecVar):
                moves = [Move(Fraction(1), body, keep(top))]
            elif isinstance(t, Choice):
                moves = [
                    Move(t.prob, index[t.left], keep(top)),
                    Move(1 - t.prob, index[t.right], keep(top)),
                ]
            elif isinstance(t, Cons):
                # at the empty stack this is the outputting transition;
                # under tl it cancels one pending destructor (a pop)
                moves = [Move(Fraction(1), index[t.tail], ())]
            elif isinstance(t, Tail):
                moves = [Move(Fraction(1), index[t.arg], (TL,) + keep(top))]
            elif isinstance(t, Mk):
                if top is None:
                    half = Fraction(1, 2)
                    moves = [Move(half, index[t.left], ()), Move(half, index[t.right], ())]
                elif top == LT:
                    moves = [Move(Fraction(1), index[t.left], ())]
                else:
                    moves = [Move(Fraction(1), index[t.right], ())]
            elif isinstance(t, Left):
                moves = [Move(Fraction(1), index[t.arg], (LT,) + keep(top))]
            else:  # Right
                moves = [Move(Fraction(1), index[t.arg], (RT,) + keep(top))]
            rows[(i, top)] = _merge_moves(moves)

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


def _merge_moves(moves: list[Move]) -> tuple[Move, ...]:
    merged: dict[tuple[int, tuple[str, ...]], Fraction] = {}
    order: list[tuple[int, tuple[str, ...]]] = []
    for m in moves:
        key = (m.target, m.push)
        if key not in merged:
            merged[key] = Fraction(0)
            order.append(key)
        merged[key] += m.prob
    return tuple(Move(merged[k], k[0], k[1]) for k in order)


def apply_move(c: Config, m: Move) -> Config:
    rest = c.stack[1:] if c.stack else ()
    return Config(m.target, m.push + rest)


# ---------------------------------------------------------------------------
# observable-layer expansion and cross-validation against the term semantics


def _observable_moves(
    p: Ppda, c: Config, memo: dict
) -> dict[tuple[Event, Config], Fraction]:
    """Distribution over the next observable event and the configuration
    reached by it.

    Output transitions (constructor state, empty stack) and unfold
    transitions (recursion-variable state) are observable; choice resolution
    and destructor bookkeeping are silent and are folded into the next
    observable event.  The silent chain always descends to strict subterms,
    so this recursion terminates.
    """
    cached = memo.get(c)
    if cached is not None:
        return cached
    out: dict[tuple[Event, Config], Fraction] = {}
    if p.is_constructor(c.state) and not c.stack:
        label = p.label(c.state)
        for m in p.rows[(c.state, None)]:
            key = (label, apply_move(c, m))
            out[key] = out.get(key, Fraction(0)) + m.prob
    elif p.is_recvar(c.state):
        for m in p.rows[(c.state, c.top)]:
            key = (None, apply_move(c, m))
            out[key] = out.get(key, Fraction(0)) + m.prob
    else:
        for m in p.rows[(c.state, c.top)]:
            for key, q in _observable_moves(p, apply_move(c, m), memo).items():
                out[key] = out.get(key, Fraction(0)) + m.prob * q
    memo[c] = out
    return out


def observable_distribution(p: Ppda, depth: int) -> dict[tuple[Event, ...], Fraction]:
    """Exact distribution over the first `depth` observable events of the
    automaton, starting at the initial configuration."""
    memo: dict = {}
    frontier: dict[tuple[Config, tuple[Event, ...]], Fraction] = {
        (p.initial_config, ()): Fraction(1)
    }
    for _ in range(depth):
        nxt: dict[tuple[Config, tuple[Event, ...]], Fraction] = {}
        for (c, seq), w in frontier.items():
            for (ev, c2), q in _observable_moves(p, c, memo).items():
                key = (c2, seq + (ev,))
                nxt[key] = nxt.get(key, Fraction(0)) + w * q
        frontier = nxt
    dist: dict[tuple[Event, ...], Fraction] = {}
    for (_, seq), w in frontier.items():
        dist[seq] = dist.get(seq, Fraction(0)) + w
    return dist


@dataclass(frozen=True)
class CrossValidation:
    equal: bool
    depth: int
    mismatches: tuple[tuple[tuple[Event, ...], Fraction, Fraction], ...]
    sequences: int


def cross_validate(d: Definition, depth: int) -> CrossValidation:
    """Compare the exact depth-k event distribution computed from the term
    semantics (uniform tree policy) against the one computed by expanding
    the translated automaton.  Exact rational equality is required."""
    if depth > CROSS_VALIDATE_MAX_DEPTH:
        raise DepthLimitError(
            f"depth {depth} exceeds bound {CROSS_VALIDATE_MAX_DEPTH}"
        )
    from .semantics import UNIFORM, prefix_distribution

    policy = UNIFORM if d.kind is Kind.TREE else None
    sem = prefix_distribution(d, depth, policy)
    aut = observable_distribution(translate(d), depth)
    mismatches = []
    for seq in sorted(set(sem) | set(aut), key=repr):
        a = sem.get(seq, Fraction(0))
        b = aut.get(seq, Fraction(0))
        if a != b:
            mismatches.append((seq, a, b))
    return CrossValidation(
        equal=not mismatches,
        depth=depth,
        mismatches=tuple(mismatches),
        sequences=len(set(sem) | set(aut)),
    )


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


def _export_json(p: Ppda) -> str:
    doc = {
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
    return json.dumps(doc, sort_keys=True, indent=2)


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
