"""Verdict assembly: excursion ground chain, qualitative infinitely-often
analysis, and the three-tier decision procedure.

Outputs happen exactly at constructor states with an empty stack, and an
excursion that never re-empties the stack can never produce another output.
So the infinite-state question reduces to a finite chain over the states
reachable at empty stack: one-step empty-stack moves give direct edges, a
push is summarized by the landing states its excursion can return in, plus a
divergence sink D for excursion heads whose return probability is below one
(certified) or undetermined (tracked separately).  Almost-sure productivity
holds exactly when, with probability one, the chain visits output nodes
infinitely often.

Tier 1 is the syntactic drift criterion (sufficient only); Tier 2 is the
exact chain analysis; Tier 3 is Monte Carlo evidence and never decides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .eqsys import (
    EqSystem,
    Head,
    HeadClass,
    SubReturn,
    Unknown,
    VarKey,
    build_system,
    classify_heads,
    clean,
)
from .graphs import bottom_sccs, reachable
from .measure import Tier1, measure, tier1_verdict
from .ppda import Ppda, translate
from .semantics import McReport, Policy, monte_carlo
from .terms import Definition


class BuchiResult(Enum):
    ALMOST_SURE = "almost_sure"
    NOT_ALMOST_SURE = "not_almost_sure"
    UNKNOWN = "unknown"


class AspResult(Enum):
    ASP = "asp"
    NOT_ASP = "not_asp"
    UNKNOWN = "unknown"


class Tier(Enum):
    MEASURE = "measure"
    EXACT = "exact"
    STATISTICAL_ONLY = "statistical_only"


class Tier3Mode(Enum):
    NEVER = "never"
    WHEN_UNKNOWN = "when_unknown"
    ALWAYS = "always"


class InternalInconsistencyError(RuntimeError):
    """The sufficient criterion and the exact analysis disagreed (a bug trap,
    not a property of the input)."""


@dataclass(frozen=True, eq=False)
class GroundChain:
    """Qualitative chain over empty-stack states plus a divergence sink.

    The sink is implicit: `diverge_sub` lists nodes with a certified
    positive-probability divergence, `diverge_unknown` nodes whose
    divergence could not be ruled out.
    """

    nodes: tuple[int, ...]
    edges: dict[int, tuple[int, ...]]
    diverge_sub: frozenset[int]
    diverge_unknown: frozenset[int]
    output_nodes: frozenset[int]
    initial: int
    state_names: tuple[str, ...]


def ground_chain(
    p: Ppda,
    classes: dict[Head, HeadClass],
    positivity: dict[VarKey, bool],
) -> GroundChain:
    """Build the empty-stack chain reachable from the initial state."""
    succ: dict[int, list[int]] = {}
    d_sub: set[int] = set()
    d_unknown: set[int] = set()

    def expand(q: int) -> list[int]:
        out: list[int] = []
        for m in p.rows[(q, None)]:
            if not m.push:
                out.append(m.target)
            else:
                cls = classes[(m.target, m.push[0])]
                for s in range(len(p.states)):
                    if positivity.get((m.target, m.push[0], s)):
                        out.append(s)
                if isinstance(cls, SubReturn):
                    d_sub.add(q)
                elif isinstance(cls, Unknown):
                    d_unknown.add(q)
        return list(dict.fromkeys(out))  # deduplicated, first occurrence order

    nodes = [p.initial]
    seen = {p.initial}
    i = 0
    while i < len(nodes):
        q = nodes[i]
        i += 1
        succ[q] = expand(q)
        for t in succ[q]:
            if t not in seen:
                seen.add(t)
                nodes.append(t)

    return GroundChain(
        nodes=tuple(sorted(nodes)),
        edges={q: tuple(succ[q]) for q in nodes},
        diverge_sub=frozenset(d_sub),
        diverge_unknown=frozenset(d_unknown),
        output_nodes=frozenset(q for q in nodes if p.is_constructor(q)),
        initial=p.initial,
        state_names=p.state_names,
    )


def buchi_verdict(g: GroundChain) -> BuchiResult:
    """Qualitative check that output nodes are visited infinitely often
    almost surely.

    Divergence edges whose heads are merely Unknown are dropped in the
    optimistic reading and kept in the pessimistic one; a negative verdict
    needs only the optimistic graph (an actually diverging unknown head also
    ends all outputs), a positive verdict needs the pessimistic graph clean.
    """
    succs = lambda q: g.edges.get(q, ())
    reach = reachable(g.initial, succs)

    # optimistic reading: certified divergence is fatal wherever reachable
    if any(q in g.diverge_sub for q in reach):
        return BuchiResult.NOT_ALMOST_SURE
    for comp in bottom_sccs(sorted(reach), succs):
        if not any(q in g.output_nodes for q in comp):
            return BuchiResult.NOT_ALMOST_SURE

    # pessimistic reading: no reachable divergence of any kind, and every
    # reachable bottom component produces outputs
    if not any(q in g.diverge_unknown for q in reach):
        return BuchiResult.ALMOST_SURE
    return BuchiResult.UNKNOWN


# ---------------------------------------------------------------------------
# tiers


@dataclass(frozen=True)
class AnalyzerConfig:
    mc_runs: int = 200
    mc_horizon: int = 10_000
    seed: int = 0xA5F
    tier3: Tier3Mode = Tier3Mode.WHEN_UNKNOWN  # when to gather Monte Carlo evidence
    smt_solver: Optional[str] = None
    tree_policy: Optional[Policy] = None  # samplers default to uniform


def smt_solver_from_env() -> Optional[str]:
    return os.environ.get("ASP_SMT_SOLVER") or None


@dataclass(frozen=True, eq=False)
class ExactAnalysis:
    buchi: BuchiResult
    classes: dict[Head, HeadClass]
    chain: GroundChain
    system: EqSystem  # the cleaned system the classes were decided on
    positivity: dict[VarKey, bool]  # every variable of the built system


def exact_analysis(d: Definition, config: AnalyzerConfig | None = None) -> ExactAnalysis:
    """The full exact pipeline: translate, build and clean the equation
    system, classify heads, build the ground chain, and analyze it."""
    config = config or AnalyzerConfig()
    p = translate(d)
    system = build_system(p)
    cleaned, positivity = clean(system)
    classes = classify_heads(cleaned, smt_solver=config.smt_solver)
    chain = ground_chain(p, classes, positivity)
    return ExactAnalysis(buchi_verdict(chain), classes, chain, cleaned, positivity)


@dataclass(frozen=True, eq=False)
class Verdict:
    result: AspResult
    tier: Tier
    measure: Fraction
    tier1: Tier1
    tier2: ExactAnalysis
    mc: Optional[McReport]


def decide_asp(d: Definition, config: AnalyzerConfig | None = None) -> Verdict:
    """Three-tier decision.

    A strictly positive drift measure decides ASP outright; otherwise the
    exact chain analysis decides, and if it cannot, the verdict stays
    Unknown with Monte Carlo evidence attached.  The exact tier always runs,
    so a positive measure is cross-checked: a disagreement raises
    InternalInconsistencyError.
    """
    config = config or AnalyzerConfig()
    drift = measure(d)
    t1 = tier1_verdict(drift)
    tier2 = exact_analysis(d, config)

    if t1 is Tier1.ASP:
        if tier2.buchi is BuchiResult.NOT_ALMOST_SURE:
            raise InternalInconsistencyError(
                f"{d.name}: positive measure {drift} but the exact analysis "
                "refutes productivity"
            )
        result, tier = AspResult.ASP, Tier.MEASURE
    elif tier2.buchi is BuchiResult.ALMOST_SURE:
        result, tier = AspResult.ASP, Tier.EXACT
    elif tier2.buchi is BuchiResult.NOT_ALMOST_SURE:
        result, tier = AspResult.NOT_ASP, Tier.EXACT
    else:
        result, tier = AspResult.UNKNOWN, Tier.EXACT

    mc: Optional[McReport] = None
    unknown = result is AspResult.UNKNOWN
    if config.tier3 is Tier3Mode.ALWAYS or (unknown and config.tier3 is Tier3Mode.WHEN_UNKNOWN):
        mc = monte_carlo(
            d, config.mc_runs, config.mc_horizon, config.seed, policy=config.tree_policy
        )
        if unknown:
            tier = Tier.STATISTICAL_ONLY

    return Verdict(
        result=result,
        tier=tier,
        measure=drift,
        tier1=t1,
        tier2=tier2,
        mc=mc,
    )
