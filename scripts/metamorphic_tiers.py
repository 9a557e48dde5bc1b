#!/usr/bin/env python3
"""Run the metamorphic relations of tests/test_metamorphic.py (swap, mirror
and unfold) on the benchmark's exact-gen draw and on the five generated
tiers, and report how the verdicts move.

Every definition and each of its rewrites is decided by `decide_asp`, tiers
1 and 2 only.  Prints one line per move between a decided verdict and
Unknown, then one count line per relation.  Exits 1 if any rewrite trades
ASP for NotASP or back; moves to or from Unknown are reported, not failed.
The inputs come from `bench/workloads.stratified`, and the relations from
the test suite, so pytest and hypothesis must be installed.

Usage: PYTHONPATH=src python scripts/metamorphic_tiers.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from test_metamorphic import rewrites  # noqa: E402

from asprod import AspResult, decide_asp, parse_definition  # noqa: E402

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
RELATIONS = ("swap", "mirror", "unfold")


def main() -> int:
    counts = {r: {"pairs": 0, "flips": 0, "moves": 0} for r in RELATIONS}
    for batch, count, seed, budget in INPUTS:
        for g in workloads.stratified(count, seed, budget=budget, leaf_prob=LEAF_PROB):
            d = parse_definition(g.text)
            v = decide_asp(d).result
            for relation, e in rewrites(d):
                w = decide_asp(e).result
                tally = counts[relation]
                tally["pairs"] += 1
                if v is w:
                    continue
                kind = "move" if AspResult.UNKNOWN in (v, w) else "flip"
                tally[f"{kind}s"] += 1
                where = f"{batch} {d.name} ({d.kind.value})"
                print(f"{kind}: {relation} {where}: {v.value} -> {w.value}")
    for relation, tally in counts.items():
        print(f"{relation}: {tally['pairs']} pairs, {tally['flips']} flips, {tally['moves']} moves")
    return 1 if any(t["flips"] for t in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
