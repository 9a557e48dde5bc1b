"""Reference semantics the package is checked against.

The exact small-step term semantics (`step`), its finite-depth trace
distributions (`prefix_distribution`), the same distributions read off the
translated pPDA (`observable_distribution`), their comparison
(`cross_validate`), a per-run term sampler (`sample_run`), equation
systems in `Fraction`s (`FractionSystem`), scaled to the integer rows the
package's solvers read (`integer_system`) and read back from them
(`fraction_equation`), the full pop-probability system in that form with
its zero variables (`build_full_system`),
positivity cleaning by a worklist over its equations (`worklist_clean`) and
by repeated full passes (`fixed_point_clean`), an equation's mass
at one as a `Fraction` sum (`mass_at_one`), the spectral test by
Gaussian elimination over `Fraction`s (`fraction_contraction_feasible`),
decomposed Newton iterating every block, evaluated ones included
(`iterated_newton_solve`), why a head stays undecided by the block
pass of `classify_heads`, from its exits and blocks alone
(`expected_reason`), what breaks the contract that only those heads
search certificates (`certificate_faults`), and the wider certificate
search `eqsys` once ran, two bumps each refined by up to six applications
of F (`walk_certificates`).  None of it runs on a command of the package;
it is slow, exact and readable.

Each step of a definition either emits one output symbol or silently unfolds
the recursion; even when several constructors are exposed at once only the
head constructor is emitted and the rest persist in the term.  A term is
kept in (destructor-context, core) form: the context is the word of pending
destructors wrapping the core, and constructor/destructor pairs cancel
inside a single step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from asprod import eqsys
from asprod.eqsys import EqSystem, Head, IntegerEquation, NewtonValues, VarKey
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
# equation systems in Fractions


@dataclass(frozen=True)
class Monomial:
    coef: Fraction
    factors: tuple[int, ...]  # one or two variable indices


@dataclass(frozen=True)
class Equation:
    const: Fraction
    monomials: tuple[Monomial, ...]


@dataclass(frozen=True)
class FractionSystem:
    """An equation system with each equation in `Fraction`s: the fields of
    `eqsys.EqSystem`, whose equations are integer rows instead."""

    variables: tuple[VarKey, ...]
    equations: tuple[Equation, ...]
    heads: tuple[Head, ...]
    state_names: tuple[str, ...]


def integer_system(s: FractionSystem) -> EqSystem:
    """`s` as the package's solvers read it: each equation scaled by the
    lcm L of the denominators of its constant and coefficients to the
    integer row (L, L const, [(L a, factors)])."""
    rows = []
    for eq in s.equations:
        scale = math.lcm(eq.const.denominator, *(m.coef.denominator for m in eq.monomials))
        monos = [(int(m.coef * scale), m.factors) for m in eq.monomials]
        rows.append((scale, int(eq.const * scale), monos))
    return EqSystem(
        variables=s.variables,
        equations=tuple(rows),
        heads=s.heads,
        state_names=s.state_names,
    )


def fraction_equation(row: IntegerEquation) -> Equation:
    """An integer row (L, c, [(a, factors)]) read back as rationals, the
    constant c / L and each coefficient a / L.  L must be positive."""
    scale, const, monos = row
    if scale <= 0:
        raise ValueError(f"row scale {scale} is not positive")
    return Equation(
        Fraction(const, scale), tuple(Monomial(Fraction(a, scale), fs) for a, fs in monos)
    )


# ---------------------------------------------------------------------------
# the full system and positivity cleaning


def build_full_system(p: Ppda) -> FractionSystem:
    """The pop-probability system of every candidate variable, zero ones
    included: `eqsys.clean` builds only the positive ones, and its rows,
    read back by `fraction_equation`, must equal this system cleaned.

    Variables [q, X, q'] are created only for landing states q' that some
    pop on X can produce; all omitted variables are identically zero.
    """
    pop_targets: dict[str, list[int]] = {x: [] for x in p.alphabet}
    for x in p.alphabet:
        seen: set[int] = set()
        for q in range(len(p.states)):
            for m in p.rows[(q, x)]:
                if not m.push and m.target not in seen:
                    seen.add(m.target)
                    pop_targets[x].append(m.target)

    variables: list[VarKey] = []
    for q in range(len(p.states)):
        for x in p.alphabet:
            for q2 in pop_targets[x]:
                variables.append((q, x, q2))
    index = {v: i for i, v in enumerate(variables)}

    equations: list[Equation] = []
    for q, x, q2 in variables:
        const = Fraction(0)
        monomials: list[Monomial] = []
        for m in p.rows[(q, x)]:
            if not m.push:  # pop
                if m.target == q2:
                    const += m.prob
            elif len(m.push) == 1:  # keep: the read symbol is pushed back
                monomials.append(Monomial(m.prob, (index[(m.target, x, q2)],)))
            else:  # push over the re-pushed read symbol
                y = m.push[0]
                for s in pop_targets[y]:
                    monomials.append(
                        Monomial(m.prob, (index[(m.target, y, s)], index[(s, x, q2)]))
                    )
        equations.append(Equation(const, tuple(monomials)))

    heads = tuple((q, x) for q in range(len(p.states)) for x in p.alphabet)
    return FractionSystem(
        variables=tuple(variables),
        equations=tuple(equations),
        heads=heads,
        state_names=p.state_names,
    )


def _cleaned(
    s: FractionSystem, positive: list[bool]
) -> tuple[FractionSystem, dict[VarKey, bool]]:
    """Drop the variables that stayed zero and the monomials that read them."""
    keep = [i for i in range(len(s.variables)) if positive[i]]
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
    cleaned = FractionSystem(
        variables=tuple(s.variables[i] for i in keep),
        equations=tuple(new_eqs),
        heads=s.heads,
        state_names=s.state_names,
    )
    positivity = {v: positive[i] for i, v in enumerate(s.variables)}
    return cleaned, positivity


def worklist_clean(s: FractionSystem) -> tuple[FractionSystem, dict[VarKey, bool]]:
    """Remove the variables of a built system whose least-fixed-point value
    is zero, by a worklist over its equations: each monomial counts its
    distinct factors not yet known positive, and a variable that turns
    positive decrements every monomial waiting on it; a monomial reaching
    zero makes its equation's variable positive.  Each variable and each
    monomial is handled once."""
    n = len(s.variables)
    positive = [eq.const.numerator > 0 for eq in s.equations]
    owner: list[int] = []  # per monomial: the variable whose equation holds it
    waiting: list[int] = []  # per monomial: its distinct factors not yet positive
    watchers: list[list[int]] = [[] for _ in range(n)]  # per variable: monomials on it
    work: list[int] = []  # turned positive, monomials waiting on it not yet told
    for i, eq in enumerate(s.equations):
        if positive[i]:
            continue
        for m in eq.monomials:
            missing = {f for f in m.factors if not positive[f]}
            if not missing:
                positive[i] = True
                work.append(i)
                break
            for f in missing:
                watchers[f].append(len(owner))
            owner.append(i)
            waiting.append(len(missing))
    while work:
        for k in watchers[work.pop()]:
            waiting[k] -= 1
            i = owner[k]
            if not waiting[k] and not positive[i]:
                positive[i] = True
                work.append(i)
    return _cleaned(s, positive)


def fixed_point_clean(s: FractionSystem) -> tuple[FractionSystem, dict[VarKey, bool]]:
    """Positivity cleaning by its definition: repeat full passes over every
    equation until no variable turns positive, where a variable is positive
    iff its constant is positive or some monomial has all factors positive;
    then drop the variables that stayed zero and the monomials that read
    them."""
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
    return _cleaned(s, positive)


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


# ---------------------------------------------------------------------------
# Newton on every block


def iterated_newton_solve(
    s: EqSystem,
    epsilon: float = eqsys.DEFAULT_EPSILON,
    max_iter: int = eqsys.NEWTON_MAX_ITER,
) -> NewtonValues:
    """`eqsys.newton_solve` with every block iterated, a block that reads
    none of its own variables too: from zero, each step solves
    (I - J) dx = F(x) - x with `eqsys`'s own float form, factorization and
    solve, clips to [0, 1], and stops once max |dx| < epsilon or after
    `max_iter` steps; a singular or non-finite step ends the block at its
    last iterate, with direction one.  On a block that does not read
    itself, I - J is the identity, so the first step lands on the clipped
    value of F and every later step keeps it: `newton_solve`, which only
    evaluates such a block, must agree bit for bit."""
    n = len(s.variables)
    form = eqsys.float_form(s)
    values = [0.0] * n
    direction = [1.0] * n
    for comp in s.blocks:
        local = {v: k for k, v in enumerate(comp)}
        rows = eqsys._block_rows(form, comp, local, values)
        x = [0.0] * len(comp)
        lu = None
        for _ in range(max_iter):
            fx = eqsys._image(rows, x)
            factored = eqsys._factor(eqsys._newton_matrix(rows, x))
            dx = None if factored is None else eqsys._lu_solve(factored, [f - y for f, y in zip(fx, x)])
            if dx is None or not all(math.isfinite(d) for d in dx):
                lu = None
                break
            lu = factored
            x = [min(1.0, max(0.0, y + d)) for y, d in zip(x, dx)]
            if max(map(abs, dx)) < epsilon:
                break
        for v, value in zip(comp, x):
            values[v] = value
        for v, dv in zip(comp, eqsys._block_direction(form, comp, local, lu, values, direction)):
            direction[v] = dv
    top = max(direction, default=1.0)
    return NewtonValues(values, [d / top for d in direction])


def expected_reason(s: EqSystem, head) -> str:
    """Why `head` stays undecided, from `head_vars` and `blocks` alone: it
    is multi-exit, or the block of its one variable holds a multi-exit
    head's variable, or that block reads a variable from which the
    dependency graph reaches one; "" if none of these holds."""
    head_vars = s.head_vars
    if len(head_vars[head]) > 1:
        return "multi_exit"
    multi = {v for vs in head_vars.values() if len(vs) > 1 for v in vs}
    (var,) = head_vars[head]
    block = next(set(b) for b in s.blocks if var in b)
    if block & multi:
        return "shares_block"
    seen = {f for v in block for f in s.dependencies[v]} - block
    work = list(seen)
    while work:
        for f in s.dependencies[work.pop()]:
            if f not in seen:
                seen.add(f)
                work.append(f)
    return "reads_undecided" if seen & multi else ""


def certificate_faults(s: EqSystem) -> tuple[list[str], dict]:
    """Run `classify_heads` on `s` and list what breaks its certificate
    contract: a head the block pass decides (`expected_reason` is "") that
    carries a certificate, a certificate `certify_subreturn` rejects, or
    Newton solved though the pass decides every live head, or not solved
    though it leaves one undecided.  Returns the faults and the classes."""
    live = [h for h, vs in s.head_vars.items() if vs]
    undecided = {h for h in live if expected_reason(s, h)}
    classes = eqsys.classify_heads(s)
    faults = []
    if ("newton" in vars(s)) != bool(undecided):
        faults.append("Newton not solved" if undecided else "Newton solved")
    for h in live:
        cls = classes[h]
        if not isinstance(cls, eqsys.SubReturn) or cls.certificate is None:
            continue
        if h not in undecided:
            faults.append(f"decided head {h} carries a certificate")
        elif not eqsys.certify_subreturn(s, h, cls.certificate):
            faults.append(f"certificate of {h} fails")
    return faults, classes


# ---------------------------------------------------------------------------
# the certificate walk over several candidates

WALK_BUMPS = (Fraction(1, 2**20), Fraction(1, 2**10))
WALK_REFINE = 6


def _walk_step(s: EqSystem, n: list[int]) -> tuple[bool, list[int]]:
    """One application of F to the candidate c = n / GRID: whether c is a
    pre-fixed point, and the numerators of min(1, F(c)) rounded up to the
    grid.  T = L const GRID^2 + sum L a n_f GRID + sum L a n_f n_g equals
    L GRID^2 F(c)."""
    grid = eqsys.GRID
    pre_fixed = True
    image = []
    for (scale, const, monos), own in zip(s.equations, n):
        t = const * grid * grid
        for a, factors in monos:
            t += a * math.prod(n[f] for f in factors) * grid ** (2 - len(factors))
        unit = scale * grid
        if t > unit * own:
            pre_fixed = False
        image.append(min(grid, -(-t // unit)))
    return pre_fixed, image


def _walk_start(values: NewtonValues, bump: Fraction) -> list[int]:
    """The numerators of min(1, v + bump d) rounded up to the grid, exactly
    from the floating-point values v and their direction d."""
    grid = eqsys.GRID
    return [
        min(grid, math.ceil((Fraction(v) + bump * Fraction(d)) * grid))
        for v, d in zip(values, values.direction)
    ]


def walk_certificates(
    s: EqSystem, heads, newton_values: NewtonValues
) -> dict[Head, Optional[tuple[Fraction, ...]]]:
    """The certificate search over several candidates that
    `eqsys.subreturn_certificates` replaced by its one candidate.

    For each bump of WALK_BUMPS in turn, the start is the Newton values
    raised by the bump along their direction, rounded up to the 2^-64 grid
    and capped at one; it is then refined by up to WALK_REFINE applications
    of F, each image rounded up to the grid and capped at one.  A head gets
    the first pre-fixed candidate, in (bump, step) order, whose return
    mass at the head is below one, or None."""
    grid = eqsys.GRID
    head_vars = s.head_vars
    result: dict[Head, Optional[tuple[Fraction, ...]]] = dict.fromkeys(heads)
    pending = list(result)
    for bump in WALK_BUMPS:
        n = _walk_start(newton_values, bump)
        for _ in range(WALK_REFINE + 1):
            pre_fixed, image = _walk_step(s, n)
            if pre_fixed:
                still = []
                for h in pending:
                    if sum(n[i] for i in head_vars.get(h, ())) < grid:
                        result[h] = tuple(Fraction(x, grid) for x in n)
                    else:
                        still.append(h)
                pending = still
                if not pending:
                    return result
            n = image
    return result
