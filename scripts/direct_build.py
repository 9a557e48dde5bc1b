#!/usr/bin/env python3
"""Check that the direct build of the pop-probability system equals the
full system cleaned, on the benchmark's exact-gen draw and on the five
generated tiers.

For every definition, `clean(build_system(p))` (positivity saturated on the
automaton's rows, then only the positive equations built) must equal
`worklist_clean(build_full_system(p))` from `tests/reference.py`: the same
variables, the same equations monomial for monomial (each integer row of
`clean`, over a positive L, read back as rationals and compared with the
oracle's `Fraction` equation coefficient for coefficient, in order), the
same positivity map (each candidate mapped to whether `clean`'s positive
set holds it), and the same count of candidate variables.  Prints one line per
difference, then one count line per input.  Exits 1 on any difference.
The inputs come from `bench/workloads.stratified`.

Usage: PYTHONPATH=src python scripts/direct_build.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from reference import build_full_system, fraction_equation, worklist_clean  # noqa: E402

from asprod import build_system, clean, parse_definition, translate  # noqa: E402

LEAF_PROB = 0.15
# (name, count, generator seed, budget): the bench's exact-gen draw, then
# the tiers ROADMAP.md measures on
INPUTS = (
    ("exact-gen", 30, 2026, 40),
    ("(7, 20)", 60, 7, 20),
    ("(7, 40)", 60, 7, 40),
    ("(7, 80)", 60, 7, 80),
    ("(17, 20)", 60, 17, 20),
    ("(11, 120)", 60, 11, 120),
)


def differences(candidates, system, positivity) -> list[str]:
    """The fields in which the direct build differs from the oracle."""
    full = build_full_system(candidates.ppda)
    expected, expected_positivity = worklist_clean(full)
    out = []
    if len(candidates.variables) != len(full.variables):
        out.append(f"built count {len(candidates.variables)} != {len(full.variables)}")
    for field in ("variables", "heads", "state_names", "alphabet"):
        if getattr(system, field) != getattr(expected, field):
            out.append(field)
    if any(scale <= 0 for scale, _, _ in system.equations):
        out.append("row scale")
    elif tuple(map(fraction_equation, system.equations)) != expected.equations:
        out.append("equations")
    if positivity != expected_positivity:
        out.append("positivity")
    return out


def main() -> int:
    failed = 0
    for batch, count, seed, budget in INPUTS:
        built = survived = 0
        for g in workloads.stratified(count, seed, budget=budget, leaf_prob=LEAF_PROB):
            candidates = build_system(translate(parse_definition(g.text)))
            system, positive = clean(candidates)
            positivity = {v: v in positive for v in candidates.variables}
            built += len(candidates.variables)
            survived += len(system.variables)
            diff = differences(candidates, system, positivity)
            if diff:
                failed += 1
                print(f"differs: {batch} {candidates.ppda.name}: {', '.join(diff)}")
        print(f"{batch}: {count} definitions, {built} candidates, {survived} survive")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
