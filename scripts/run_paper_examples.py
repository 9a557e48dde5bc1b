#!/usr/bin/env python3
"""Analyze the bundled example definitions and print one row per definition.

Usage: python scripts/run_paper_examples.py [--tier3] [file ...]
"""

import argparse
import sys
import time
from pathlib import Path

from asprod import AnalyzerConfig, Tier3Mode, decide_asp, parse_file
from asprod.eqsys import AlmostSureReturn, SubReturn

DEFAULT_FILE = Path(__file__).resolve().parent.parent / "defs" / "paper_examples.defs"


def class_summary(analysis):
    if analysis is None:
        return "-"
    counts = {"as": 0, "sub": 0, "unk": 0}
    for cls in analysis.classes.values():
        if isinstance(cls, AlmostSureReturn):
            counts["as"] += 1
        elif isinstance(cls, SubReturn):
            counts["sub"] += 1
        else:
            counts["unk"] += 1
    return f"{counts['as']}as/{counts['sub']}sub/{counts['unk']}unk"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", default=[str(DEFAULT_FILE)])
    parser.add_argument("--tier3", action="store_true", help="attach Monte Carlo evidence")
    args = parser.parse_args()

    config = AnalyzerConfig(tier3=Tier3Mode.ALWAYS if args.tier3 else Tier3Mode.WHEN_UNKNOWN)
    header = f"{'name':10} {'kind':7} {'measure':>8} {'tier1':8} {'heads':14} {'exact':16} {'verdict':8} {'ms':>6}"
    print(header)
    print("-" * len(header))
    for path in args.files:
        for d in parse_file(Path(path).read_text()):
            start = time.perf_counter()
            v = decide_asp(d, config)
            ms = (time.perf_counter() - start) * 1000
            exact = v.tier2.buchi.value if v.tier2 else "-"
            line = (
                f"{d.name:10} {d.kind.value:7} {str(v.measure):>8} {v.tier1.value:8} "
                f"{class_summary(v.tier2):14} {exact:16} {v.result.value:8} {ms:6.1f}"
            )
            if v.mc is not None:
                line += f"  mc:{v.mc.hint.value} rate={v.mc.mean_rate:.4f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
