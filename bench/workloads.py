"""Seeded workload inputs for the benchmark, as `.defs` text.

Terms are plain tuples, built and rendered here without importing asprod, so
the inputs and the reference answers derived from them do not come from the
code under test:

    ("rec",)  ("cons", label, t)  ("tail", t)  ("choice", p, l, r)
    ("mk", label, l, r)  ("left", t)  ("right", t)

`random_definitions` draws from `random.Random` in exactly the order of
`tests/conftest.py:seeded_random_definitions`, so budget 10 with leaf
probability 0.3 reproduces that corpus definition for definition;
`stratified` draws the benchmark's generated inputs from the same generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

REC = ("rec",)

HALF = Fraction(1, 2)


def _choice(p, left, right):
    return ("choice", Fraction(p), left, right)


def _cons(t):
    return ("cons", "a", t)


# The nine-definition corpus with its hand-written verdicts (the same
# definitions and verdicts as tests/conftest.py: CORPUS_TEXT, EXPECTED_VERDICT).
CORPUS = {
    "s14": ("stream", _choice("1/4", _cons(REC), ("tail", REC)), "not_asp"),
    "s12": ("stream", _choice("1/2", _cons(REC), ("tail", REC)), "asp"),
    "s34": ("stream", _choice("3/4", _cons(REC), ("tail", REC)), "asp"),
    "srec": ("stream", REC, "not_asp"),
    "strap": ("stream", ("tail", _cons(REC)), "not_asp"),
    "scoin": ("stream", _choice("1/2", _cons(REC), REC), "asp"),
    "spure": ("stream", _cons(REC), "asp"),
    "t1": ("tree", _choice("1/4", ("left", REC), ("mk", "x", REC, REC)), "asp"),
    "t2": ("tree", _choice("1/4", ("left", REC), ("mk", "x", REC, ("left", REC))), "asp"),
}

# One-parameter families, swept over every reduced bias p = k/d with
# d <= SWEEP_MAX_DEN: (kind, body at bias p, closed-form ASP verdict at p).
# The drift and tree families are a +-1 walk on pending destructors, ASP
# exactly when the walk does not drift towards more destructors (the
# critical p = 1/2 is ASP, null-recurrent); the retry family always emits
# eventually.
FAMILIES = {
    "drift": ("stream", lambda p: _choice(p, _cons(REC), ("tail", REC)), lambda p: p >= HALF),
    "retry": ("stream", lambda p: _choice(p, _cons(REC), REC), lambda p: True),
    "walk": (
        "tree",
        lambda p: _choice(p, ("left", REC), ("mk", "x", REC, REC)),
        lambda p: p <= HALF,
    ),
}
SWEEP_MAX_DEN = 60


def random_term(rng: random.Random, stream: bool, budget: int, leaf_prob: float):
    if budget <= 1 or rng.random() < leaf_prob:
        return REC
    roll = rng.random()
    p = Fraction(rng.randint(1, 11), 12)
    half = budget // 2

    def sub(b):
        return random_term(rng, stream, b, leaf_prob)

    if stream:
        if roll < 0.35:
            label = rng.choice("ab")
            return ("cons", label, sub(budget - 1))
        if roll < 0.6:
            return ("tail", sub(budget - 1))
        left = sub(half)
        return ("choice", p, left, sub(half))
    if roll < 0.35:
        label = rng.choice("ab")
        left = sub(half)
        return ("mk", label, left, sub(half))
    if roll < 0.5:
        return ("left", sub(budget - 1))
    if roll < 0.65:
        return ("right", sub(budget - 1))
    left = sub(half)
    return ("choice", p, left, sub(half))


def random_definitions(
    count: int, seed: int, budget: int = 10, leaf_prob: float = 0.3
) -> list[tuple[str, object]]:
    """`count` (kind, term) pairs alternating stream and tree, seeded."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        stream = i % 2 == 0
        out.append(("stream" if stream else "tree", random_term(rng, stream, budget, leaf_prob)))
    return out


def render(term, name: str) -> str:
    """Concrete syntax with every choice parenthesised."""
    tag = term[0]
    if tag == "rec":
        return name
    if tag == "choice":
        return f"({render(term[2], name)} (+ {term[1]}) {render(term[3], name)})"
    if tag == "cons":
        return f"{term[1]} : {render(term[2], name)}"
    if tag == "mk":
        return f"mk({term[1]}, {render(term[2], name)}, {render(term[3], name)})"
    return f"{tag}({render(term[1], name)})"


def drift(term) -> Fraction:
    """Expected outputs minus consumptions per unfolding, exactly."""
    tag = term[0]
    if tag == "rec":
        return Fraction(0)
    if tag == "choice":
        return term[1] * drift(term[2]) + (1 - term[1]) * drift(term[3])
    if tag == "cons":
        return drift(term[2]) + 1
    if tag == "mk":
        return min(drift(term[2]), drift(term[3])) + 1
    return drift(term[1]) - 1


@dataclass(frozen=True)
class Def:
    name: str
    kind: str
    term: tuple
    expected: Optional[str] = None  # the true verdict, where known

    @property
    def text(self) -> str:
        return f"{self.kind} {self.name} = {render(self.term, self.name)}"

    @property
    def drift(self) -> Fraction:
        return drift(self.term)


def size(term) -> int:
    return 1 + sum(size(t) for t in term[1:] if isinstance(t, tuple))


# Analysis cost grows steeply with term size, so `count` plain draws make
# one batch cost a third more or less than the next.  `stratified` draws
# SPACING times as many terms per kind and keeps every SPACING-th size rank.
SPACING = 10


def stratified(count: int, seed: int, budget: int, leaf_prob: float) -> list[Def]:
    """`count` seeded definitions, alternating stream and tree, spread evenly
    over the generator's size distribution.

    Per kind, SPACING times as many terms are drawn, ranked by size, and
    every SPACING-th rank is kept (in draw order): every batch then has
    nearly the same size profile, that of the generator, whatever the seed.
    """
    rng = random.Random(seed)
    per_kind = []
    for stream in (True, False):
        pool = [random_term(rng, stream, budget, leaf_prob) for _ in range(count // 2 * SPACING)]
        ranked = sorted(range(len(pool)), key=lambda i: size(pool[i]))
        keep = sorted(ranked[SPACING // 2 :: SPACING])
        per_kind.append([pool[i] for i in keep])
    pairs = [(kind, t) for pair in zip(*per_kind) for kind, t in zip(("stream", "tree"), pair)]
    return [Def(f"g{i}", kind, term) for i, (kind, term) in enumerate(pairs)]


def corpus() -> list[Def]:
    return [Def(name, kind, term, verdict) for name, (kind, term, verdict) in CORPUS.items()]


def sweep_biases(max_den: int = SWEEP_MAX_DEN) -> list[Fraction]:
    """Every reduced p = k/d in (0, 1) with d <= max_den, ascending."""
    return sorted({Fraction(k, d) for d in range(2, max_den + 1) for k in range(1, d)})


def sweep(seed: int, max_den: int = SWEEP_MAX_DEN) -> list[Def]:
    """The corpus and every family member, in a seeded order."""
    defs = corpus()
    for family, (kind, body, is_asp) in FAMILIES.items():
        for p in sweep_biases(max_den):
            verdict = "asp" if is_asp(p) else "not_asp"
            defs.append(Def(f"{family}_{p.numerator}_{p.denominator}", kind, body(p), verdict))
    return shuffled(defs, seed)


def shuffled(defs: list[Def], seed: int) -> list[Def]:
    out = list(defs)
    random.Random(seed).shuffle(out)
    return out


def defs_text(defs: list[Def]) -> str:
    return "".join(d.text + "\n" for d in defs)
