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
exact chain analysis.  Tier 3, Monte Carlo evidence, never decides, and
`check` (`cli`) gathers it, not this module.
"""

from __future__ import annotations

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
    build_system,
    classify_heads,
    clean,
)
from .graphs import bottom_sccs
from .measure import Tier1, measure, tier1_verdict
from .ppda import Ppda, translate
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


class InternalInconsistencyError(RuntimeError):
    """The sufficient criterion and the exact analysis disagreed (a bug trap,
    not a property of the input)."""


@dataclass(frozen=True, eq=False)
class GroundChain:
    """Qualitative chain over empty-stack states plus a divergence sink.

    `nodes` are exactly the states reachable from `initial` along `edges`,
    in ascending order; `edges` has an entry for every node, and every
    edge target, divergence node and output node is a node.  The sink is
    implicit: `diverge_sub` lists nodes with a certified
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


def ground_chain(p: Ppda, classes: dict[Head, HeadClass], system: EqSystem) -> GroundChain:
    """Build the empty-stack chain reachable from the initial state.

    A push leads to the exits of the pushed head in the cleaned `system`,
    the landing states of its surviving variables, in ascending order."""
    exits = system.head_vars
    succ: dict[int, list[int]] = {}
    d_sub: set[int] = set()
    d_unknown: set[int] = set()

    def expand(q: int) -> list[int]:
        out: list[int] = []
        for m in p.rows[(q, None)]:
            if not m.push:
                out.append(m.target)
            else:
                head = (m.target, m.push[0])
                cls = classes[head]
                out.extend(sorted(system.variables[i][2] for i in exits[head]))
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
    # optimistic reading: certified divergence is fatal, since every node
    # is reachable
    if g.diverge_sub:
        return BuchiResult.NOT_ALMOST_SURE
    for comp in bottom_sccs(g.nodes, g.edges.__getitem__):
        if g.output_nodes.isdisjoint(comp):
            return BuchiResult.NOT_ALMOST_SURE

    # pessimistic reading: no reachable divergence of any kind, and every
    # reachable bottom component produces outputs
    if not g.diverge_unknown:
        return BuchiResult.ALMOST_SURE
    return BuchiResult.UNKNOWN


# ---------------------------------------------------------------------------
# tiers


@dataclass(frozen=True, eq=False)
class ExactAnalysis:
    buchi: BuchiResult
    classes: dict[Head, HeadClass]
    chain: GroundChain
    system: EqSystem  # the cleaned system the classes were decided on
    built_variables: int  # how many variables the system had before cleaning


def exact_analysis(d: Definition, smt_solver: Optional[str] = None) -> ExactAnalysis:
    """The full exact pipeline: translate, build and clean the equation
    system, classify heads (`smt_solver` as in `classify_heads`), build the
    ground chain, and analyze it."""
    p = translate(d)
    system = build_system(p)
    cleaned, _ = clean(system)
    classes = classify_heads(cleaned, smt_solver=smt_solver)
    chain = ground_chain(p, classes, cleaned)
    return ExactAnalysis(buchi_verdict(chain), classes, chain, cleaned, len(system.variables))


@dataclass(frozen=True, eq=False)
class Verdict:
    result: AspResult
    tier: Tier
    measure: Fraction
    tier1: Tier1
    tier2: ExactAnalysis


def decide_asp(d: Definition, smt_solver: Optional[str] = None) -> Verdict:
    """The decision of tiers 1 and 2.

    A strictly positive drift measure decides ASP outright; otherwise the
    exact chain analysis decides, and if it cannot, the verdict is Unknown.
    The exact tier always runs, so a positive measure is cross-checked: a
    disagreement raises InternalInconsistencyError.
    """
    drift = measure(d)
    t1 = tier1_verdict(drift)
    tier2 = exact_analysis(d, smt_solver)

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
    return Verdict(result=result, tier=tier, measure=drift, tier1=t1, tier2=tier2)
