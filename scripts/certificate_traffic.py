#!/usr/bin/env python3
"""Count which certificate candidates certify heads, on the benchmark's
exact-gen draw and the five generated tiers.

`eqsys.subreturn_certificates` tries one candidate per system: the Newton
values bumped by 2^-20 along their direction and rounded up to the 2^-64
grid.  `reference.walk_certificates` in `tests/` is the wider search it
replaced: a second bump of 2^-10, and up to six applications of F after
each bump.  For every definition's cleaned system, both run on the heads
`classify_heads` searches certificates for, those its block pass leaves
undecided (`reference.expected_reason`).  Prints one line per head only
the wider search certifies, then one count line per input: systems, heads
searched, heads the one candidate certifies, and heads only the wider
search certifies.  Exits 1 if that last count is not 0 on some input.  The
inputs come from `bench/workloads`.

Usage: PYTHONPATH=src python scripts/certificate_traffic.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from reference import expected_reason, walk_certificates  # noqa: E402

from asprod import build_system, clean, parse_definition, translate  # noqa: E402
from asprod.eqsys import subreturn_certificates  # noqa: E402

LEAF_PROB = 0.15
# (name, definitions): the bench's exact-gen draw and the tiers ROADMAP.md
# measures on
INPUTS = (
    ("exact-gen", workloads.stratified(30, 2026, budget=40, leaf_prob=LEAF_PROB)),
    *(
        (f"({seed}, {budget})", workloads.stratified(60, seed, budget=budget, leaf_prob=LEAF_PROB))
        for seed, budget in ((7, 20), (7, 40), (7, 80), (17, 20), (11, 120))
    ),
)


def main() -> int:
    missed_anywhere = 0
    for batch, defs in INPUTS:
        searched = certified = missed = 0
        for g in defs:
            s = clean(build_system(translate(parse_definition(g.text))))[0]
            heads = [h for h, vs in s.head_vars.items() if vs and expected_reason(s, h)]
            if not heads:
                continue
            ours = subreturn_certificates(s, heads, s.newton)
            walk = walk_certificates(s, heads, s.newton)
            searched += len(heads)
            for h in heads:
                if ours[h] is not None:
                    certified += 1
                elif walk[h] is not None:
                    missed += 1
                    print(f"only the walk certifies: {batch} {g.name} head {h}")
        missed_anywhere += missed
        print(
            f"{batch}: {len(defs)} systems, {searched} heads searched, "
            f"{certified} certified by the one candidate, {missed} only by the walk"
        )
    return 1 if missed_anywhere else 0


if __name__ == "__main__":
    sys.exit(main())
