#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --workload exact-gen --seeds 1-10 [--out FILE]

For every workload and metric: the values, their median, first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median.  The JSON summary
also keeps every run's printed lines (per-process samples, extra figures)
under `logs`.  Runs happen one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args()

    summary = {"host": {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}, "logs": {}}
    ok = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            *log, last = proc.stdout.splitlines()
            result = json.loads(last)
            summary["logs"].setdefault(workload, []).append(log)
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "values": vals,
            }
            print(f"  {workload:<12} {name:<36} median={med:<12.6g} spread={spread:.4f} {units[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
