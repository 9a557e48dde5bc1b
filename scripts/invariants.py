#!/usr/bin/env python3
"""Check the exact tier against its test oracles on generated definitions.

One table names the inputs, each with the checks it runs: the benchmark's
exact-gen draw, the five tiers ROADMAP.md measures on, fresh draws that no
change was tuned on, and the `sweep-small` file, which runs only `newton`.
Each definition is translated, built and cleaned once, and `classify_heads`
runs on that system through `reference.certificate_faults` before anything
else reads its Newton values.  The checks:

- direct: the direct build equals `worklist_clean(build_full_system(p))`;
- newton: `classify_heads` keeps its certificate contract,
  `newton_solve` equals `iterated_newton_solve` bit for bit, and no
  Unknown head has a Newton return total below 1 - 1e-6 (such a head is
  numerically sub-one, so a certificate should have decided it);
- traffic: every head the wider `walk_certificates` search certifies, the
  one candidate certifies too;
- metamorphic: no swap, mirror or unfold rewrite trades ASP for NotASP;
- siblings: tree heads (q, lt) and (q, rt) that are both decided get the
  same class.

Prints one line per failure and per move of a verdict to or from Unknown
(reported, not failed), then one count line per input.  `decide_asp`
raising InternalInconsistencyError, tier 1 against tier 2, is a failure.
Exits 1 on any failure.  The inputs come from `bench/workloads`, the
oracles from `tests/`, so pytest and hypothesis must be installed.

Usage: PYTHONPATH=src python scripts/invariants.py
"""

import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import reference  # noqa: E402
import workloads  # noqa: E402
from test_metamorphic import rewrites  # noqa: E402

from asprod import AspResult, Definition, InternalInconsistencyError, decide_asp  # noqa: E402
from asprod import eqsys, parse_definition, translate  # noqa: E402
from asprod.eqsys import AlmostSureReturn, Candidates, EqSystem, SubReturn, Unknown  # noqa: E402
from asprod.ppda import LT, RT  # noqa: E402


class Analysis(NamedTuple):
    where: str  # input, definition and kind, for the report
    definition: Definition
    candidates: Candidates
    system: EqSystem
    positive: set
    classes: dict  # `classify_heads` of `system`
    faults: list[str]  # what `certificate_faults` found
    solved: bool  # whether `classify_heads` solved Newton


def analyse(where: str, d: Definition) -> Analysis:
    """Translate, build and clean `d` once, and classify its heads."""
    candidates = eqsys.build_system(translate(d))
    s, positive = eqsys.clean(candidates)
    faults, classes = reference.certificate_faults(s)  # the first to read s.newton
    return Analysis(where, d, candidates, s, positive, classes, faults, "newton" in vars(s))


def direct(a: Analysis, counts: Counter) -> list[str]:
    """The same variables, heads, names, equations (each integer row read
    back as rationals), positivity and candidate count as the oracle."""
    full = reference.build_full_system(a.candidates.ppda)
    expected, expected_positivity = reference.worklist_clean(full)
    s = a.system
    counts.update({"candidates": len(a.candidates.variables), "survive": len(s.variables)})
    out = []
    if len(a.candidates.variables) != len(full.variables):
        out.append(f"built count {len(a.candidates.variables)} != {len(full.variables)}")
    for field in ("variables", "heads", "state_names"):
        if getattr(s, field) != getattr(expected, field):
            out.append(field)
    if any(scale <= 0 for scale, _, _ in s.equations):
        out.append("row scale")
    elif tuple(map(reference.fraction_equation, s.equations)) != expected.equations:
        out.append("equations")
    if {v: v in a.positive for v in a.candidates.variables} != expected_positivity:
        out.append("positivity")
    return out


# An Unknown head's Newton return total may fall this far below one
UNKNOWN_SLACK = 1e-6


def newton(a: Analysis, counts: Counter) -> list[str]:
    """`certificate_faults`' findings, the values and direction of
    `newton_solve` that differ from `iterated_newton_solve` as hex, and the
    Unknown heads whose Newton return total is below 1 - UNKNOWN_SLACK."""
    s = a.system
    iterated = sum(eqsys._reads_itself(b, s.dependencies) for b in s.blocks)
    certified = sum(
        isinstance(c, SubReturn) and c.certificate is not None
        for h, c in a.classes.items()
        if s.head_vars.get(h)
    )
    counts.update(
        {
            "evaluated blocks": len(s.blocks) - iterated,
            "iterated blocks": iterated,
            "systems solve Newton": int(a.solved),
            "certified heads": certified,
        }
    )
    ours, ref = eqsys.newton_solve(s), reference.iterated_newton_solve(s)
    differ = [
        name
        for name, x, y in (("values", ours, ref), ("direction", ours.direction, ref.direction))
        if [v.hex() for v in x] != [v.hex() for v in y]
    ]
    unknown = [h for h, c in a.classes.items() if isinstance(c, Unknown)]
    totals = {h: sum(ours[i] for i in s.head_vars[h]) for h in unknown}
    short = [
        f"Unknown head {h} has Newton total {t!r}"
        for h, t in totals.items()
        if t < 1 - UNKNOWN_SLACK
    ]
    counts.update({"Unknown heads": len(unknown), "Unknown heads below one": len(short)})
    return a.faults + differ + short


def traffic(a: Analysis, counts: Counter) -> list[str]:
    """The heads the block pass leaves undecided that only the wider search
    certifies."""
    s = a.system
    heads = [h for h, vs in s.head_vars.items() if vs and reference.expected_reason(s, h)]
    ours = walk = {}
    if heads:
        ours = eqsys.subreturn_certificates(s, heads, s.newton)
        walk = reference.walk_certificates(s, heads, s.newton)
    missed = [h for h in heads if ours[h] is None and walk[h] is not None]
    counts.update(
        {
            "heads searched": len(heads),
            "certified by the one candidate": sum(ours[h] is not None for h in heads),
            "only by the walk": len(missed),
        }
    )
    return [f"only the walk certifies head {h}" for h in missed]


def metamorphic(a: Analysis, counts: Counter) -> list[str]:
    """The rewrites that trade ASP for NotASP or back; a move to or from
    Unknown is printed, not failed."""
    v = decide_asp(a.definition).result
    out = []
    for relation, e in rewrites(a.definition):
        w = decide_asp(e).result
        counts.update({f"{relation} pairs": 1, f"{relation} flips": 0, f"{relation} moves": 0})
        if v is w:
            continue
        kind = "move" if AspResult.UNKNOWN in (v, w) else "flip"
        counts[f"{relation} {kind}s"] += 1
        if kind == "move":
            print(f"move: {relation} {a.where}: {v.value} -> {w.value}")
        else:
            out.append(f"{relation} flips {v.value} -> {w.value}")
    return out


def siblings(a: Analysis, counts: Counter) -> list[str]:
    """The tree heads (q, lt) whose decided class differs from that of a
    decided (q, rt)."""
    decided = (AlmostSureReturn, SubReturn)
    pairs = [
        (q, c, a.classes[(q, RT)])
        for (q, x), c in a.classes.items()
        if x == LT and isinstance(c, decided) and isinstance(a.classes.get((q, RT)), decided)
    ]
    counts.update({"decided pairs": len(pairs)})
    return [
        f"head ({q}, lt) is {type(left).__name__}, ({q}, rt) {type(right).__name__}"
        for q, left, right in pairs
        if type(left) is not type(right)
    ]


# Each check reads one definition's analysis, adds to its own counts and
# returns its failures.
CHECKS = (direct, newton, traffic, metamorphic, siblings)


def stratified(count, seed, budget):
    return workloads.stratified(count, seed, budget=budget, leaf_prob=0.15)


# (name, definitions, checks).  The fresh draws were fixed before anything
# was measured on them: never re-seed or shrink them to hide a failure.
INPUTS = (
    ("exact-gen", stratified(30, 2026, 40), CHECKS),
    *(
        (f"({seed}, {budget})", stratified(60, seed, budget), CHECKS)
        for seed, budget in ((7, 20), (7, 40), (7, 80), (17, 20), (11, 120))
    ),
    *(
        (f"fresh ({seed}, {budget})", stratified(40, seed, budget), CHECKS)
        for seed in (1, 2, 3)
        for budget in (20, 40, 80)
    ),
    ("sweep-small", workloads.sweep(1), (newton,)),
)


def run_checks(name, definitions, checks) -> tuple[int, dict[str, Counter]]:
    """Run `checks` on each definition's one analysis, printing a line per
    failure; return the number of failures and each check's counts."""
    failures = 0
    counts = {check.__name__: Counter() for check in checks}
    for d in definitions:
        a = analyse(f"{name} {d.name} ({d.kind.value})", d)
        for check in checks:
            try:
                found = check(a, counts[check.__name__])
            except InternalInconsistencyError as exc:
                found = [f"tier 1 against tier 2: {exc}"]
            for message in found:
                print(f"fails: {a.where} {check.__name__}: {message}")
            failures += len(found)
    tallies = "; ".join(
        f"{check}: " + ", ".join(f"{n} {key}" for key, n in tally.items())
        for check, tally in counts.items()
    )
    print(f"{name}: {len(definitions)} definitions; {tallies}", flush=True)
    return failures, counts


def main() -> int:
    failures = 0
    for name, defs, checks in INPUTS:
        failures += run_checks(name, [parse_definition(g.text) for g in defs], checks)[0]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
