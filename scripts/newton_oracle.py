#!/usr/bin/env python3
"""Check that `newton_solve`, which only evaluates a dependency block that
reads none of its own variables, equals Newton iterating every block, bit
for bit, and that `classify_heads` searches certificates only for the heads
its block pass leaves undecided, on the benchmark's exact-gen draw, the five
generated tiers and the `sweep-small` file.

For every definition's cleaned system, the values and the certificate
direction of `newton_solve` must equal those of `iterated_newton_solve` from
`tests/reference.py`, compared as `float.hex` strings.  `classify_heads`
must keep the certificate contract `reference.certificate_faults` checks:
it solves Newton exactly when the block pass leaves some live head
undecided, gives no certificate to a head the pass decides, and every
certificate it gives passes `certify_subreturn`.  Prints one line per
difference, then one count line per input: systems, evaluated and iterated
blocks, systems whose classification solves Newton, and heads that carry a
certificate.  Exits 1 on any difference.  The inputs come from `bench/workloads`.

Usage: PYTHONPATH=src python scripts/newton_oracle.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from reference import certificate_faults, iterated_newton_solve  # noqa: E402

from asprod import (  # noqa: E402
    SubReturn,
    build_system,
    clean,
    eqsys,
    newton_solve,
    parse_definition,
    translate,
)

LEAF_PROB = 0.15
# (name, definitions): the bench's exact-gen draw, the tiers ROADMAP.md
# measures on, and the sweep-small file
INPUTS = (
    ("exact-gen", workloads.stratified(30, 2026, budget=40, leaf_prob=LEAF_PROB)),
    *(
        (f"({seed}, {budget})", workloads.stratified(60, seed, budget=budget, leaf_prob=LEAF_PROB))
        for seed, budget in ((7, 20), (7, 40), (7, 80), (17, 20), (11, 120))
    ),
    ("sweep-small", workloads.sweep(1)),
)


def hexed(xs) -> list[str]:
    return [x.hex() for x in xs]


def main() -> int:
    failed = 0
    for batch, defs in INPUTS:
        evaluated = iterated = solving = certified = 0
        for g in defs:
            s = clean(build_system(translate(parse_definition(g.text))))[0]
            faults, classes = certificate_faults(s)
            solving += "newton" in vars(s)
            certified += sum(
                isinstance(c, SubReturn) and c.certificate is not None
                for h, c in classes.items()
                if s.head_vars.get(h)
            )
            for comp in s.blocks:
                if eqsys._reads_itself(comp, s.dependencies):
                    iterated += 1
                else:
                    evaluated += 1
            ours, ref = newton_solve(s), iterated_newton_solve(s)
            diff = [
                name
                for name, a, b in (("values", ours, ref), ("direction", ours.direction, ref.direction))
                if hexed(a) != hexed(b)
            ]
            diff += faults
            if diff:
                failed += 1
                print(f"differs: {batch} {g.name}: {', '.join(diff)}")
        print(
            f"{batch}: {len(defs)} systems, {evaluated} evaluated blocks, "
            f"{iterated} iterated blocks, {solving} systems solve Newton, "
            f"{certified} certified heads"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
