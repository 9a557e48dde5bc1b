"""Probabilistic small-step semantics: exact one-step distributions,
finite-depth trace distributions, and seeded Monte Carlo sampling.

Each step of a definition either emits one output symbol or silently unfolds
the recursion; even when several constructors are exposed at once only the
head constructor is emitted and the rest persist in the term.  Internally a
term is kept in (destructor-context, core) form: the context is the word of
pending destructors wrapping the core, and constructor/destructor pairs
cancel inside a single step.

Trees additionally need a direction policy saying which child to follow at
each output: `UNIFORM` flips a fair coin per output, `PeriodicWord` follows a
fixed ultimately-periodic word over {L, R}.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .terms import (
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
    check_kind,
)

# An observed event: the emitted label, or None for a silent unfold step.
Event = Optional[str]

MAX_PREFIX_DEPTH = 16


class DepthLimitError(ValueError):
    """Requested expansion depth exceeds the configured bound."""


class SamplerLimitError(RuntimeError):
    """The definition's closure table exceeds the Monte Carlo sampler's size
    limit."""


# ---------------------------------------------------------------------------
# direction policies for trees


class UniformPolicy:
    """Choose the next direction uniformly at each output."""

    def __repr__(self) -> str:
        return "UNIFORM"


UNIFORM = UniformPolicy()


@dataclass(frozen=True)
class PeriodicWord:
    """Ultimately periodic direction word: `prefix` then `period` repeated."""

    period: str
    prefix: str = ""

    def __post_init__(self) -> None:
        if not self.period or set(self.period + self.prefix) - {"L", "R"}:
            raise ValueError("direction words use the alphabet {L, R}, period nonempty")

    def direction(self, n: int) -> str:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def canon(self, n: int) -> int:
        """Collapse a position into one period, so memo keys stay bounded."""
        if n < len(self.prefix):
            return n
        return len(self.prefix) + (n - len(self.prefix)) % len(self.period)


Policy = Union[UniformPolicy, PeriodicWord]


def parse_policy(text: str) -> Policy:
    """Parse 'uniform', a period word like 'LR', or 'prefix|period'."""
    if text.lower() == "uniform":
        return UNIFORM
    if "|" in text:
        prefix, period = text.split("|", 1)
        return PeriodicWord(period=period, prefix=prefix)
    return PeriodicWord(period=text)


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
        check_kind(t, d.kind)
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
# exact finite-depth trace distributions


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
    if depth > MAX_PREFIX_DEPTH:
        raise DepthLimitError(f"depth {depth} exceeds bound {MAX_PREFIX_DEPTH}")
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
                        if policy.direction(pol_state) == "L"
                        else outcome.right
                    )
                    nxt = policy.canon(pol_state + 1)
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
# Monte Carlo falsifier

# Hint thresholds: the share of runs silent over the whole second half, and
# the least slope of the mean cumulative-output curve over that half.
TAIL_THRESHOLD = 0.05
SLOPE_THRESHOLD = 1e-3


class McHint(Enum):
    NO_EVIDENCE_AGAINST_ASP = "no_evidence_against_asp"
    EVIDENCE_AGAINST_ASP = "evidence_against_asp"


@dataclass(frozen=True)
class McReport:
    """Aggregate statistics over seeded runs.

    The hint is a falsifier only: EVIDENCE_AGAINST_ASP means outputs appear
    to dry up (some runs are silent over the whole second half, or the mean
    cumulative-output curve flattens), never a proof either way.
    """

    runs: int
    horizon: int
    seed: int
    output_counts: tuple[int, ...]
    mean_rate: float
    tail_silence: float
    cum_slope: float
    hint: McHint

    @classmethod
    def from_runs(
        cls,
        horizon: int,
        seed: int,
        output_counts: tuple[int, ...],
        silent_tails: int,
        step_totals,
    ) -> "McReport":
        """Summarize runs given per-run output counts, the number of runs
        silent over the second half, and per-step output totals."""
        runs = len(output_counts)
        mean_rate = sum(output_counts) / (runs * horizon)
        tail_silence = silent_tails / runs
        cum_slope = _tail_slope(step_totals, runs, horizon // 2)
        evidence = tail_silence > TAIL_THRESHOLD or cum_slope < SLOPE_THRESHOLD
        hint = McHint.EVIDENCE_AGAINST_ASP if evidence else McHint.NO_EVIDENCE_AGAINST_ASP
        return cls(runs, horizon, seed, output_counts, mean_rate, tail_silence, cum_slope, hint)


def monte_carlo(
    d: Definition,
    runs: int,
    horizon: int,
    seed: int,
    policy: Policy | None = None,
) -> McReport:
    """Run `runs` independent simulations of `horizon` steps each; trees
    follow `policy`, or uniform directions when it is None.

    All runs draw from one numpy generator seeded with `seed`, so reports
    are deterministic per seed.  Raises SamplerLimitError when the
    definition's closure table is too large to build.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if horizon < 100:
        raise ValueError("horizon must be at least 100")

    from .simulate import CompiledDefinition

    counts, tail_counts, step_totals = CompiledDefinition(d).run_batch(
        runs, horizon, seed, policy
    )
    return McReport.from_runs(
        horizon,
        seed,
        tuple(int(c) for c in counts),
        int((tail_counts == 0).sum()),
        step_totals,
    )


def _tail_slope(step_totals, runs: int, half: int) -> float:
    """Least-squares slope of the mean cumulative-output curve, second half."""
    import numpy as np

    curve = np.cumsum(np.asarray(step_totals, dtype=float) / runs)[half:]
    if curve.size < 2:
        return 0.0
    x = np.arange(curve.size, dtype=float)
    x -= x.mean()
    denom = float((x * x).sum())
    if denom == 0.0:
        return 0.0
    return float((x * (curve - curve.mean())).sum() / denom)
