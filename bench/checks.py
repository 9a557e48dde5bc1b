"""Answer checkers for the benchmark's CLI outputs.

Each checker takes what one CLI invocation printed and its exit code, plus a
reference per definition name, and returns {name: reason} for every
definition whose answer is wrong.  An operation is one definition: a wrong
verdict or hint fails that definition; a crash, an unreadable report or an
input error (exit 3) fails every definition of the invocation; so does an
exit code that contradicts the verdicts.

References never come from the code under test: corpus verdicts are
hand-written, family verdicts are closed forms, drifts are computed by
`workloads.drift`, and pinned verdicts are a no-flip gate recorded at one
commit, not ground truth (Unknown -> decided is allowed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

VERDICTS = ("asp", "not_asp", "unknown")
HINT_FOR = {"asp": "no_evidence_against_asp", "not_asp": "evidence_against_asp"}
EXIT_INPUT_ERROR = 3


@dataclass(frozen=True)
class VerdictRef:
    drift: Fraction
    expected: Optional[str] = None  # the true verdict, when known
    pinned: Optional[str] = None  # verdict recorded earlier: no ASP<->NotASP flip


@dataclass(frozen=True)
class SimRef:
    hint: Optional[str] = None  # expected Monte Carlo hint, when reliable


def expected_exit(verdicts) -> int:
    verdicts = set(verdicts)
    if "not_asp" in verdicts:
        return 1
    if "unknown" in verdicts:
        return 2
    return 0


def _records(stdout: str, code: int, key: str, names) -> tuple[dict, dict]:
    """Records of a JSON report by name, or a failure for every name."""
    if code == EXIT_INPUT_ERROR:
        return {}, {n: "exit 3 (input error)" for n in names}
    try:
        doc = json.loads(stdout)
        return {r["name"]: r for r in doc[key]}, {}
    except (ValueError, KeyError, TypeError) as exc:
        return {}, {n: f"exit {code}, unreadable report ({type(exc).__name__})" for n in names}


def check_measures(stdout: str, code: int, drifts: dict[str, Fraction]) -> dict[str, str]:
    """Check `measure` output, one `name drift` line per definition."""
    if code != 0:
        return {n: f"exit {code}" for n in drifts}
    got = {}
    for line in stdout.splitlines():
        name, _, value = line.partition(" ")
        got[name] = value
    failed = {}
    for name, want in drifts.items():
        try:
            ok = Fraction(got[name]) == want
        except (KeyError, ValueError):
            ok = False
        if not ok:
            failed[name] = f"measure {got.get(name)!r}, drift is {want}"
    return failed


def check_verdicts(stdout: str, code: int, refs: dict[str, VerdictRef]) -> dict[str, str]:
    """Check a `check --json` report against per-definition references."""
    records, failed = _records(stdout, code, "definitions", refs)
    if failed:
        return failed
    for name, ref in refs.items():
        rec = records.get(name)
        if rec is None:
            failed[name] = "missing from the report"
            continue
        verdict = rec.get("verdict")
        if verdict not in VERDICTS:
            failed[name] = f"malformed verdict {verdict!r}"
        elif rec.get("measure") != f"{ref.drift.numerator}/{ref.drift.denominator}":
            failed[name] = f"measure {rec.get('measure')} != drift {ref.drift}"
        elif ref.drift > 0 and verdict != "asp":
            failed[name] = f"positive drift {ref.drift} but {verdict}"
        elif ref.expected is not None and verdict != ref.expected:
            failed[name] = f"{verdict}, expected {ref.expected}"
        elif ref.pinned in HINT_FOR and verdict in HINT_FOR and verdict != ref.pinned:
            failed[name] = f"{verdict} flips pinned {ref.pinned}"
    want = expected_exit(r.get("verdict") for r in records.values())
    if code != want:
        return {n: f"exit {code}, verdicts imply {want}" for n in refs}
    return failed


def check_simulations(
    stdout: str, code: int, refs: dict[str, SimRef], runs: int, horizon: int
) -> dict[str, str]:
    """Check a `simulate --json` report: shape, counts and expected hints."""
    records, failed = _records(stdout, code, "simulations", refs)
    if failed:
        return failed
    if code != 0:
        return {n: f"exit {code}" for n in refs}
    for name, ref in refs.items():
        rec = records.get(name)
        if rec is None:
            failed[name] = "missing from the report"
            continue
        total = rec.get("total_outputs")
        if rec.get("runs") != runs or rec.get("horizon") != horizon:
            failed[name] = f"ran {rec.get('runs')} x {rec.get('horizon')}"
        elif not isinstance(total, int) or not 0 <= total <= runs * horizon:
            failed[name] = f"total_outputs {total!r} out of range"
        elif abs(rec.get("mean_rate", -1) - total / (runs * horizon)) > 1e-12:
            failed[name] = f"mean_rate {rec.get('mean_rate')} != outputs / lane-steps"
        elif ref.hint is not None and rec.get("hint") != ref.hint:
            failed[name] = f"hint {rec.get('hint')}, expected {ref.hint}"
    return failed
