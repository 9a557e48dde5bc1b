#!/usr/bin/env python3
"""Sweep the choice bias of the two one-parameter stream families and report
how the verdict, return probabilities and sampled output rates move.

The drift family `s = (a : s) (+ p) tail(s)` flips from not-ASP to ASP at
p = 1/2 (the boundary itself is ASP but only the exact tier sees it); the
retry family `s = (a : s) (+ p) s` is ASP for every bias.

Usage: python scripts/sweep_bias.py [--den 20] [--mc] [--csv out.csv]
"""

import argparse
import csv
import sys
from fractions import Fraction

from asprod import decide_asp, monte_carlo, parse_definition


def analyze(template: str, p: Fraction, use_mc: bool):
    d = parse_definition(template.format(p=p))
    v = decide_asp(d)
    # return mass of an excursion entered at the recursion state, read off
    # the Kleene values of the cleaned system the verdict was decided on
    system = v.tier2.system
    rec = system.state_names.index(d.name)
    values, _ = system.kleene
    ret = sum(values[i] for i in system.head_vars[(rec, "tl")])
    rate = None
    if use_mc:
        rate = monte_carlo(d, 100, 5000, seed=7).mean_rate
    return v, ret, rate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--den", type=int, default=20, help="bias denominator")
    parser.add_argument("--mc", action="store_true", help="sample output rates")
    parser.add_argument("--csv", default=None, help="also write rows to a CSV file")
    args = parser.parse_args()

    families = {
        "drift": "stream s = (a : s) (+ {p}) tail(s)",
        "retry": "stream s = (a : s) (+ {p}) s",
    }
    rows = []
    for family, template in families.items():
        for num in range(1, args.den):
            p = Fraction(num, args.den)
            verdict, ret, rate = analyze(template, p, args.mc)
            rows.append(
                {
                    "family": family,
                    "p": str(p),
                    "measure": str(verdict.measure),
                    "tier": verdict.tier.value,
                    "verdict": verdict.result.value,
                    "return_mass": f"{ret:.6f}",
                    "rate": "" if rate is None else f"{rate:.5f}",
                }
            )

    width = {k: max(len(k), max(len(r[k]) for r in rows)) for k in rows[0]}
    print("  ".join(k.ljust(width[k]) for k in rows[0]))
    for r in rows:
        print("  ".join(r[k].ljust(width[k]) for k in r))

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
