"""Shared corpus and hypothesis strategies."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest

from asprod.terms import Choice, Cons, Definition, Kind, Left, Mk, RecVar, Right, Tail
from asprod.syntax import parse_definition

# The nine-definition corpus used across the suite: the drift family at three
# biases, the degenerate loop, the zero-drift trap, the retry loop, the
# deterministic emitter, and the two trees.
CORPUS_TEXT = {
    "s14": "stream s14 = (a : s14) (+ 1/4) tail(s14)",
    "s12": "stream s12 = (a : s12) (+ 1/2) tail(s12)",
    "s34": "stream s34 = (a : s34) (+ 3/4) tail(s34)",
    "srec": "stream srec = srec",
    "strap": "stream strap = tail(a : strap)",
    "scoin": "stream scoin = (a : scoin) (+ 1/2) scoin",
    "spure": "stream spure = a : spure",
    "t1": "tree t1 = left(t1) (+ 1/4) mk(x, t1, t1)",
    "t2": "tree t2 = left(t2) (+ 1/4) mk(x, t2, left(t2))",
}

EXPECTED_VERDICT = {
    "s14": "not_asp",
    "s12": "asp",
    "s34": "asp",
    "srec": "not_asp",
    "strap": "not_asp",
    "scoin": "asp",
    "spure": "asp",
    "t1": "asp",
    "t2": "asp",
}


def corpus() -> dict[str, Definition]:
    return {name: parse_definition(text) for name, text in CORPUS_TEXT.items()}


@pytest.fixture(scope="session")
def corpus_defs() -> dict[str, Definition]:
    return corpus()


def certified_multi_exit_text(name: str = "m") -> str:
    """g14 of `bench/workloads.stratified(60, 7, budget=20, leaf_prob=0.15)`,
    its recursion variable named `name`.  The block pass leaves its one
    two-exit head, and the single-exit heads that read it, undecided, so
    they are SubReturn only through a certificate."""
    body = f"(a : {name} (+ 2/3) {name}) (+ 5/12) a : {name}"
    return f"stream {name} = tail(({name} (+ 3/4) b : ({body})))\n"


# g2 of `bench/workloads.stratified(40, 9, budget=40, leaf_prob=0.15)`, with
# drift -169/144.  Its one certificate candidate fails F(c) <= c only at a
# coordinate capped at one, so six of its heads are certified sub-one only
# because a capped coordinate is not checked.
CAPPED_AT_ONE_TEXT = (
    "stream g2 = b : b : tail(tail(((a : tail((b : a : g2 (+ 1/6) a : (g2 (+ 1/12) g2)))"
    " (+ 1/4) tail(tail(tail(b : g2)))) (+ 5/6) b : tail(tail((g2 (+ 5/6)"
    " (a : tail(g2) (+ 2/3) (g2 (+ 1/12) g2))))))))\n"
)


# ---------------------------------------------------------------------------
# random definitions (bounded depth 6 via bounded leaves and wrapper chains)

LABELS = ("a", "b")


def probabilities() -> st.SearchStrategy[Fraction]:
    return st.integers(2, 12).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
    )


def _bounded(strategy: st.SearchStrategy, max_leaves: int) -> st.SearchStrategy:
    return st.recursive(st.just(RecVar()), strategy, max_leaves=max_leaves)


def stream_terms(max_leaves: int = 6) -> st.SearchStrategy:
    return _bounded(
        lambda inner: st.one_of(
            st.builds(Cons, st.sampled_from(LABELS), inner),
            st.builds(Tail, inner),
            st.builds(Choice, probabilities(), inner, inner),
        ),
        max_leaves,
    )


def tree_terms(max_leaves: int = 6) -> st.SearchStrategy:
    return _bounded(
        lambda inner: st.one_of(
            st.builds(Mk, st.sampled_from(LABELS), inner, inner),
            st.builds(Left, inner),
            st.builds(Right, inner),
            st.builds(Choice, probabilities(), inner, inner),
        ),
        max_leaves,
    )


def stream_definitions(max_leaves: int = 6) -> st.SearchStrategy:
    return stream_terms(max_leaves).map(
        lambda body: Definition("s", Kind.STREAM, body).validate()
    )


def tree_definitions(max_leaves: int = 6) -> st.SearchStrategy:
    return tree_terms(max_leaves).map(
        lambda body: Definition("t", Kind.TREE, body).validate()
    )


def definitions(max_leaves: int = 6) -> st.SearchStrategy:
    return st.one_of(stream_definitions(max_leaves), tree_definitions(max_leaves))


def seeded_random_definitions(count: int, seed: int = 2026) -> list[Definition]:
    """Fixed pseudo-random corpus, independent of hypothesis, for
    deterministic end-to-end checks."""
    import random

    rng = random.Random(seed)

    def gen(kind: Kind, budget: int):
        if budget <= 1 or rng.random() < 0.3:
            return RecVar()
        roll = rng.random()
        p = Fraction(rng.randint(1, 11), 12)
        half = budget // 2
        if kind is Kind.STREAM:
            if roll < 0.35:
                return Cons(rng.choice("ab"), gen(kind, budget - 1))
            if roll < 0.6:
                return Tail(gen(kind, budget - 1))
            return Choice(p, gen(kind, half), gen(kind, half))
        if roll < 0.35:
            return Mk(rng.choice("ab"), gen(kind, half), gen(kind, half))
        if roll < 0.5:
            return Left(gen(kind, budget - 1))
        if roll < 0.65:
            return Right(gen(kind, budget - 1))
        return Choice(p, gen(kind, half), gen(kind, half))

    out = []
    for i in range(count):
        kind = Kind.STREAM if i % 2 == 0 else Kind.TREE
        out.append(Definition("d", kind, gen(kind, 10)).validate())
    return out
