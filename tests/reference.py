"""Reference semantics the package is checked against.

The exact small-step term semantics (`step`), its finite-depth trace
distributions (`prefix_distribution`), the same distributions read off the
translated pPDA (`observable_distribution`), their comparison
(`cross_validate`), a per-run term sampler (`sample_run`), positivity
cleaning by repeated full passes (`fixed_point_clean`), an equation's mass
at one as a `Fraction` sum (`mass_at_one`), and the spectral test by
Gaussian elimination over `Fraction`s (`fraction_contraction_feasible`).
None of it runs on a command of the package; it is slow, exact and
readable.

Each step of a definition either emits one output symbol or silently unfolds
the recursion; even when several constructors are exposed at once only the
head constructor is emitted and the rest persist in the term.  A term is
kept in (destructor-context, core) form: the context is the word of pending
destructors wrapping the core, and constructor/destructor pairs cancel
inside a single step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from asprod.eqsys import EqSystem, Equation, Monomial, VarKey
from asprod.ppda import Move, Ppda, translate
from asprod.semantics import UNIFORM, PeriodicWord, Policy
from asprod.terms import (
    Choice,
    Cons,
    Definition,
    InvalidDefinition,
    Kind,
    Left,
    Mk,
    RecVar,
    Right,
    Tail,
    Term,
)

# An observed event: the emitted label, or None for a silent unfold step.
Event = Optional[str]


def direction(word: PeriodicWord, n: int) -> str:
    """The direction `word` takes at its `n`-th output."""
    if n < len(word.prefix):
        return word.prefix[n]
    return word.period[(n - len(word.prefix)) % len(word.period)]


def canon(word: PeriodicWord, n: int) -> int:
    """Collapse a position into one period, so memo keys stay bounded."""
    if n < len(word.prefix):
        return n
    return len(word.prefix) + (n - len(word.prefix)) % len(word.period)


# ---------------------------------------------------------------------------
# one-step distributions


@dataclass(frozen=True)
class Out:
    """Stream output: emit `label`, continue as `tail`."""

    label: str
    tail: Term


@dataclass(frozen=True)
class OutNode:
    """Tree output: emit `label`, spawning two child terms."""

    label: str
    left: Term
    right: Term


@dataclass(frozen=True)
class Unfold:
    """Silent step: the recursion variable was replaced by the body."""

    term: Term


StepOutcome = Union[Out, OutNode, Unfold]
StepDist = dict  # StepOutcome -> Fraction, summing to exactly 1


def _split(t: Term) -> tuple[list[str], Term]:
    """Strip the destructor context; entries are 'T', 'L', 'R', outermost first."""
    ds: list[str] = []
    while True:
        if isinstance(t, Tail):
            ds.append("T")
            t = t.arg
        elif isinstance(t, Left):
            ds.append("L")
            t = t.arg
        elif isinstance(t, Right):
            ds.append("R")
            t = t.arg
        else:
            return ds, t


def _wrap(ds: list[str], t: Term) -> Term:
    for d in reversed(ds):
        t = Tail(t) if d == "T" else (Left(t) if d == "L" else Right(t))
    return t


def step(d: Definition, t: Term) -> StepDist:
    """Exact distribution over one-step outcomes of `t` under definition `d`.

    Choices mix the outcomes of their branches; a destructor applied to a
    constructor cancels against it within the same step; a bare constructor
    emits; everything else unfolds the recursion variable into the body.
    """
    try:
        Definition(d.name, d.kind, t).validate()
    except InvalidDefinition as exc:
        raise InvalidDefinition(f"kind mismatch: {exc}") from exc
    acc: StepDist = {}
    _step_term(d, [], t, Fraction(1), acc)
    return acc


def _step_term(d: Definition, ds: list[str], t: Term, w: Fraction, acc: StepDist) -> None:
    ds2, core = _split(t)
    _step_core(d, ds + ds2, core, w, acc)


def _step_core(d: Definition, ds: list[str], core: Term, w: Fraction, acc: StepDist) -> None:
    if isinstance(core, Choice):
        # the pending destructor context distributes over the choice
        _step_term(d, ds, core.left, w * core.prob, acc)
        _step_term(d, ds, core.right, w * (1 - core.prob), acc)
    elif isinstance(core, Cons):
        if ds:
            _step_term(d, ds[:-1], core.tail, w, acc)
        else:
            _add(acc, Out(core.label, core.tail), w)
    elif isinstance(core, Mk):
        if ds:
            child = core.left if ds[-1] == "L" else core.right
            _step_term(d, ds[:-1], child, w, acc)
        else:
            _add(acc, OutNode(core.label, core.left, core.right), w)
    else:  # RecVar
        _add(acc, Unfold(_wrap(ds, d.body)), w)


def _add(acc: StepDist, outcome: StepOutcome, w: Fraction) -> None:
    acc[outcome] = acc.get(outcome, Fraction(0)) + w


# ---------------------------------------------------------------------------
# exact finite-depth trace distributions of the term semantics


def prefix_distribution(
    d: Definition,
    depth: int,
    policy: Policy | None = None,
) -> dict[tuple[Event, ...], Fraction]:
    """Exact distribution over the first `depth` observed events.

    Keys are event tuples of length `depth` (labels and None for silent
    steps); values are exact rationals summing to 1.  Tree definitions
    require a direction policy.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if d.kind is Kind.TREE and policy is None:
        raise ValueError("a direction policy is required for tree definitions")

    memo: dict = {}

    def expand(t: Term, pol_state: int | None, k: int) -> dict[tuple[Event, ...], Fraction]:
        if k == 0:
            return {(): Fraction(1)}
        key = (t, pol_state, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        res: dict[tuple[Event, ...], Fraction] = {}
        for outcome, pr in step(d, t).items():
            if isinstance(outcome, Unfold):
                _merge(res, None, pr, expand(outcome.term, pol_state, k - 1))
            elif isinstance(outcome, Out):
                _merge(res, outcome.label, pr, expand(outcome.tail, pol_state, k - 1))
            else:
                if isinstance(policy, PeriodicWord):
                    child = (
                        outcome.left
                        if direction(policy, pol_state) == "L"
                        else outcome.right
                    )
                    nxt = canon(policy, pol_state + 1)
                    _merge(res, outcome.label, pr, expand(child, nxt, k - 1))
                else:  # uniform: split half-half over the children
                    half = pr / 2
                    _merge(res, outcome.label, half, expand(outcome.left, pol_state, k - 1))
                    _merge(res, outcome.label, half, expand(outcome.right, pol_state, k - 1))
        memo[key] = res
        return res

    start_state = 0 if isinstance(policy, PeriodicWord) else None
    return expand(d.body, start_state, depth)


def _merge(
    res: dict[tuple[Event, ...], Fraction],
    event: Event,
    pr: Fraction,
    sub: dict[tuple[Event, ...], Fraction],
) -> None:
    for seq, q in sub.items():
        key = (event,) + seq
        res[key] = res.get(key, Fraction(0)) + pr * q


# ---------------------------------------------------------------------------
# pPDA configurations, the observable layer, and cross-validation


@dataclass(frozen=True)
class Config:
    state: int
    stack: tuple[str, ...]  # top at index 0


def apply_move(c: Config, m: Move) -> Config:
    rest = c.stack[1:] if c.stack else ()
    return Config(m.target, m.push + rest)


def ppda_step(p: Ppda, c: Config) -> dict[Config, Fraction]:
    """One-step distribution over successor configurations."""
    out: dict[Config, Fraction] = {}
    for m in p.rows[(c.state, c.stack[0] if c.stack else None)]:
        succ = apply_move(c, m)
        out[succ] = out.get(succ, Fraction(0)) + m.prob
    return out


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
    if (p.is_constructor(c.state) and not c.stack) or p.is_recvar(c.state):
        event = None if p.is_recvar(c.state) else p.states[c.state].label
        for succ, q in ppda_step(p, c).items():
            out[(event, succ)] = out.get((event, succ), Fraction(0)) + q
    else:
        for succ, w in ppda_step(p, c).items():
            for key, q in _observable_moves(p, succ, memo).items():
                out[key] = out.get(key, Fraction(0)) + w * q
    memo[c] = out
    return out


def observable_distribution(p: Ppda, depth: int) -> dict[tuple[Event, ...], Fraction]:
    """Exact distribution over the first `depth` observable events of the
    automaton, starting at the initial configuration."""
    memo: dict = {}
    frontier: dict[tuple[Config, tuple[Event, ...]], Fraction] = {
        (Config(p.initial, ()), ()): Fraction(1)
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


def cross_validate(d: Definition, depth: int):
    """The exact depth-`depth` event distributions of the term semantics
    (uniform tree policy) and of the translated automaton, as a pair; the
    translation is right to that depth when they are equal."""
    policy = UNIFORM if d.kind is Kind.TREE else None
    return prefix_distribution(d, depth, policy), observable_distribution(translate(d), depth)


# ---------------------------------------------------------------------------
# seeded sampling: a per-run term-level reference for `monte_carlo`


@dataclass(frozen=True)
class Trace:
    """One sampled run: per-step events, and the directions consumed at tree
    outputs."""

    events: tuple[Event, ...]
    directions: tuple[str, ...] = ()

    @property
    def output_count(self) -> int:
        return sum(1 for e in self.events if e is not None)


def sample_run(
    d: Definition,
    horizon: int,
    seed: int,
    policy: Policy | None = None,
) -> Trace:
    """Deterministically sample `horizon` steps; trees default to UNIFORM."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if d.kind is Kind.TREE and policy is None:
        policy = UNIFORM
    rng = random.Random(seed)
    body_ds, body_core = _split(d.body)
    ds = list(body_ds)
    core = body_core
    events: list[Event] = []
    dirs: list[str] = []
    out_i = 0
    for _ in range(horizon):
        while True:
            if isinstance(core, Choice):
                # float < Fraction compares exactly
                branch = core.left if rng.random() < core.prob else core.right
                sub_ds, core = _split(branch)
                ds.extend(sub_ds)
            elif isinstance(core, Cons):
                if ds:
                    ds.pop()
                    sub_ds, core = _split(core.tail)
                    ds.extend(sub_ds)
                else:
                    events.append(core.label)
                    sub_ds, core = _split(core.tail)
                    ds.extend(sub_ds)
                    break
            elif isinstance(core, Mk):
                if ds:
                    child = core.left if ds.pop() == "L" else core.right
                    sub_ds, core = _split(child)
                    ds.extend(sub_ds)
                else:
                    if isinstance(policy, PeriodicWord):
                        turn = direction(policy, out_i)
                    else:
                        turn = "L" if rng.random() < 0.5 else "R"
                    dirs.append(turn)
                    out_i += 1
                    events.append(core.label)
                    child = core.left if turn == "L" else core.right
                    sub_ds, core = _split(child)
                    ds.extend(sub_ds)
                    break
            else:  # RecVar: unfold silently, keeping the pending context
                events.append(None)
                ds.extend(body_ds)
                core = body_core
                break
    return Trace(tuple(events), tuple(dirs))


# ---------------------------------------------------------------------------
# positivity cleaning


def fixed_point_clean(s: EqSystem) -> tuple[EqSystem, dict[VarKey, bool]]:
    """`eqsys.clean` by its definition: repeat full passes over every
    equation until no variable turns positive, where a variable is positive
    iff its constant is positive or some monomial has all factors positive;
    then drop the variables that stayed zero and the monomials that read
    them."""
    n = len(s.variables)
    positive = [eq.const > 0 for eq in s.equations]
    changed = True
    while changed:
        changed = False
        for i, eq in enumerate(s.equations):
            if positive[i]:
                continue
            for m in eq.monomials:
                if all(positive[f] for f in m.factors):
                    positive[i] = True
                    changed = True
                    break

    keep = [i for i in range(n) if positive[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_eqs = []
    for i in keep:
        eq = s.equations[i]
        monos = tuple(
            Monomial(m.coef, tuple(remap[f] for f in m.factors))
            for m in eq.monomials
            if all(positive[f] for f in m.factors)
        )
        new_eqs.append(Equation(eq.const, monos))
    cleaned = EqSystem(
        variables=tuple(s.variables[i] for i in keep),
        equations=tuple(new_eqs),
        heads=s.heads,
        state_names=s.state_names,
        alphabet=s.alphabet,
    )
    positivity = {s.variables[i]: positive[i] for i in range(n)}
    return cleaned, positivity


# ---------------------------------------------------------------------------
# the exact classifier's tests, in rational arithmetic


def mass_at_one(eq: Equation) -> Fraction:
    """The equation's value at the all-ones point: its constant plus the sum
    of its coefficients."""
    return eq.const + sum((m.coef for m in eq.monomials), Fraction(0))


def fraction_contraction_feasible(b) -> bool:
    """`eqsys.nonnegative_contraction_feasible` in `Fraction`s: Gaussian
    elimination without pivoting on I - B, where every pivot must be
    positive, or zero with nothing below it left to eliminate."""
    n = len(b)
    a = [
        [(Fraction(1) if i == j else Fraction(0)) - Fraction(x) for j, x in enumerate(row)]
        for i, row in enumerate(b)
    ]
    for k in range(n):
        pivot = a[k][k]
        below = [i for i in range(k + 1, n) if a[i][k]]
        if pivot < 0 or (pivot == 0 and below):
            return False
        for i in below:
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return True
