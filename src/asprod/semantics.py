"""Sampling semantics: the tree direction policies, and the Monte Carlo
falsifier that `check`'s tier 3 and `simulate` report.

Trees need a direction policy saying which child to follow at each output:
`UNIFORM` flips a fair coin per output, `PeriodicWord` follows a fixed
ultimately-periodic word over {L, R}.  `monte_carlo` samples seeded runs of
one definition and summarizes them in an `McReport`, whose hint can only
speak against almost-sure productivity.  The CLI gets the same reports for
many definitions at once from `simulate.monte_carlo_jobs`; `decide` never
samples.

The exact small-step term semantics these samplers are checked against is
in `tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .terms import Definition


class SamplerLimitError(RuntimeError):
    """The definition's closure table exceeds the Monte Carlo sampler's size
    limit."""


# ---------------------------------------------------------------------------
# direction policies for trees


class UniformPolicy:
    """Choose the next direction uniformly at each output."""


UNIFORM = UniformPolicy()


@dataclass(frozen=True)
class PeriodicWord:
    """Ultimately periodic direction word: `prefix` then `period` repeated."""

    period: str
    prefix: str = ""

    def __post_init__(self) -> None:
        if not self.period or set(self.period + self.prefix) - {"L", "R"}:
            raise ValueError("direction words use the alphabet {L, R}, period nonempty")


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
    from .simulate import CompiledDefinition, monte_carlo_jobs

    return next(monte_carlo_jobs([(CompiledDefinition(d), seed)], runs, horizon, policy))


def _tail_slope(step_totals, runs: int, half: int) -> float:
    """Least-squares slope of the mean cumulative-output curve, second half."""
    import numpy as np

    curve = np.cumsum(np.asarray(step_totals, dtype=float) / runs)[half:]
    if curve.size < 2:
        return 0.0
    x = np.arange(curve.size, dtype=float)
    x -= x.mean()
    return float((x * (curve - curve.mean())).sum() / (x * x).sum())
