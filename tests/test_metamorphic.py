"""Metamorphic relations: rewrites of a definition that must keep its verdict.

- swap: `l (+ p) r` becomes `r (+ 1-p) l` everywhere, the same
  distribution over the same terms;
- mirror (trees): the children of every `mk` are exchanged and `left`
  becomes `right` and back, so every path is read in its mirror image;
- unfold: every recursive occurrence in the body is replaced by the body,
  once, so the rewritten definition only skips silent unfold steps.

Each relation is first checked against the term semantics of
`reference.prefix_distribution`, so the suite tests the program and not an
assumed law.  On fixed definitions the verdict and the deciding tier must
both stay; on generated ones the exact tier may move between a decided
verdict and Unknown (the rewritten system orders its variables
differently), but ASP and NotASP must never trade places.
The `metamorphic` check of `scripts/invariants.py` runs the same relations
on larger generated batches.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from asprod.decide import AspResult, decide_asp
from asprod.semantics import UNIFORM, PeriodicWord
from asprod.terms import Choice, Cons, Kind, Left, Mk, RecVar, Right, Tail

from conftest import corpus, definitions, seeded_random_definitions
from reference import prefix_distribution


def swap(t):
    if isinstance(t, Choice):
        return Choice(1 - t.prob, swap(t.right), swap(t.left))
    if isinstance(t, Cons):
        return Cons(t.label, swap(t.tail))
    if isinstance(t, Mk):
        return Mk(t.label, swap(t.left), swap(t.right))
    if isinstance(t, (Tail, Left, Right)):
        return type(t)(swap(t.arg))
    assert isinstance(t, RecVar)
    return t


def mirror(t):
    if isinstance(t, Choice):
        return Choice(t.prob, mirror(t.left), mirror(t.right))
    if isinstance(t, Mk):
        return Mk(t.label, mirror(t.right), mirror(t.left))
    if isinstance(t, Left):
        return Right(mirror(t.arg))
    if isinstance(t, Right):
        return Left(mirror(t.arg))
    assert isinstance(t, RecVar)
    return t


def unfold(t, body):
    """`t` with every recursive occurrence replaced by `body`."""
    if isinstance(t, RecVar):
        return body
    if isinstance(t, Choice):
        return Choice(t.prob, unfold(t.left, body), unfold(t.right, body))
    if isinstance(t, Cons):
        return Cons(t.label, unfold(t.tail, body))
    if isinstance(t, Mk):
        return Mk(t.label, unfold(t.left, body), unfold(t.right, body))
    assert isinstance(t, (Tail, Left, Right))
    return type(t)(unfold(t.arg, body))


def rewrites(d):
    """Each relation that applies to `d`, with `d` rewritten by it."""
    out = [
        ("swap", replace(d, body=swap(d.body)).validate()),
        ("unfold", replace(d, body=unfold(d.body, d.body)).validate()),
    ]
    if d.kind is Kind.TREE:
        out.append(("mirror", replace(d, body=mirror(d.body)).validate()))
    return out


# ---------------------------------------------------------------------------
# the relations against the term semantics


def uniform_if_tree(d):
    return UNIFORM if d.kind is Kind.TREE else None


def test_swap_keeps_the_prefix_distribution():
    for name, d in corpus().items():
        e = replace(d, body=swap(d.body)).validate()
        policy = uniform_if_tree(d)
        assert prefix_distribution(e, 6, policy) == prefix_distribution(d, 6, policy), name


def exchanged(word):
    flip = str.maketrans("LR", "RL")
    return PeriodicWord(word.period.translate(flip), word.prefix.translate(flip))


@pytest.mark.parametrize(
    "word",
    [UNIFORM, PeriodicWord("L"), PeriodicWord("LR"), PeriodicWord("LRL", "RR")],
    ids=["uniform", "L", "LR", "RR|LRL"],
)
def test_mirror_reads_the_word_with_l_and_r_exchanged(word):
    trees = [d for d in corpus().values() if d.kind is Kind.TREE]
    assert trees
    for d in trees:
        e = replace(d, body=mirror(d.body)).validate()
        original = word if word is UNIFORM else exchanged(word)
        assert prefix_distribution(e, 6, word) == prefix_distribution(d, 6, original), d


def reaching(dist):
    """P(w): the probability that the outputs of the steps `dist` covers,
    silent steps dropped, begin with w, for every w they can begin with."""
    words: dict = {}
    for events, pr in dist.items():
        seen = tuple(e for e in events if e is not None)
        words[seen] = words.get(seen, Fraction(0)) + pr
    out: dict = {}
    for seen, pr in words.items():
        for k in range(len(seen) + 1):
            out[seen[:k]] = out.get(seen[:k], Fraction(0)) + pr
    return out


def test_unfold_only_drops_silent_steps():
    # every step of the unfolded definition is one of the original's, less
    # at most one silent unfold before it: P_D(w) <= P'_D(w) <= P_2D(w)
    depth = 5
    faster = 0
    for name, d in corpus().items():
        e = replace(d, body=unfold(d.body, d.body)).validate()
        policy = uniform_if_tree(d)
        low = reaching(prefix_distribution(d, depth, policy))
        mid = reaching(prefix_distribution(e, depth, policy))
        high = reaching(prefix_distribution(d, 2 * depth, policy))
        for w in low.keys() | mid.keys():
            assert low.get(w, 0) <= mid.get(w, 0) <= high.get(w, 0), (name, w)
        faster += mid != low
    assert faster  # some unfolding outputs sooner: the bounds are not all equalities


def test_relations_keep_verdict_and_tier():
    defs = [
        *corpus().values(),
        *seeded_random_definitions(48, seed=2026),
        *seeded_random_definitions(48, seed=7),
    ]
    pairs = 0
    for d in defs:
        v = decide_asp(d)
        for relation, e in rewrites(d):
            w = decide_asp(e)
            assert (w.result, w.tier) == (v.result, v.tier), (relation, d)
            pairs += 1
    assert pairs == 260  # every definition swapped and unfolded, every tree mirrored


@settings(max_examples=100, deadline=None)
@given(definitions())
def test_relations_never_flip_a_decided_verdict(d):
    decided = {AspResult.ASP, AspResult.NOT_ASP}
    v = decide_asp(d)
    for relation, e in rewrites(d):
        w = decide_asp(e)
        if {v.result, w.result} <= decided:
            assert w.result is v.result, (relation, d)
