"""Metamorphic relations: rewrites of a definition that must keep its verdict.

- swap: `l (+ p) r` becomes `r (+ 1-p) l` everywhere, the same
  distribution over the same terms;
- mirror (trees): the children of every `mk` are exchanged and `left`
  becomes `right` and back, so every path is read in its mirror image.

On fixed definitions the verdict and the deciding tier must both stay; on
generated ones the exact tier may move between a decided verdict and
Unknown (the rewritten system orders its variables differently), but ASP
and NotASP must never trade places.
"""

from dataclasses import replace

from hypothesis import given, settings

from asprod.decide import AspResult, decide_asp
from asprod.terms import Choice, Cons, Kind, Left, Mk, RecVar, Right, Tail

from conftest import corpus, definitions, seeded_random_definitions


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


def rewrites(d):
    """Each relation that applies to `d`, with `d` rewritten by it."""
    out = [("swap", replace(d, body=swap(d.body)).validate())]
    if d.kind is Kind.TREE:
        out.append(("mirror", replace(d, body=mirror(d.body)).validate()))
    return out


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
    assert pairs == 155  # every definition swapped, every tree mirrored


@settings(max_examples=100, deadline=None)
@given(definitions())
def test_relations_never_flip_a_decided_verdict(d):
    decided = {AspResult.ASP, AspResult.NOT_ASP}
    v = decide_asp(d)
    for relation, e in rewrites(d):
        w = decide_asp(e)
        if {v.result, w.result} <= decided:
            assert w.result is v.result, (relation, d)
