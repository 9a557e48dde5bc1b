"""`scripts/invariants.py`, CI's invariant sweep, on a small input: every
named check runs and passes, and a broken certificate search fails one."""

import importlib.util
import sys
from pathlib import Path

import pytest

from asprod import eqsys, parse_definition

from conftest import CAPPED_AT_ONE_TEXT, certified_multi_exit_text, corpus

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "invariants.py"


@pytest.fixture(scope="module")
def invariants():
    spec = importlib.util.spec_from_file_location("invariants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    path, written = sys.path[:], sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, written
    return module


def small_input():
    return [*corpus().values(), parse_definition(certified_multi_exit_text())]


def test_every_check_runs_and_passes_on_the_corpus(invariants, capsys):
    failures, counts = invariants.run_checks("corpus", small_input(), invariants.CHECKS)
    assert failures == 0, capsys.readouterr().out
    assert list(counts) == [check.__name__ for check in invariants.CHECKS]
    assert counts["direct"]["candidates"] > 0
    assert counts["newton"]["systems solve Newton"] > 0
    assert counts["traffic"]["certified by the one candidate"] > 0
    assert counts["metamorphic"]["mirror pairs"] > 0
    assert counts["siblings"]["decided pairs"] > 0


def test_traffic_fails_when_the_one_candidate_certifies_nothing(invariants, capsys, monkeypatch):
    def certify_nothing(s, heads, newton_values):
        return dict.fromkeys(heads)

    monkeypatch.setattr(eqsys, "subreturn_certificates", certify_nothing)
    failures, _ = invariants.run_checks("corpus", small_input(), [invariants.traffic])
    lines = capsys.readouterr().out.splitlines()
    assert failures > 0
    assert any(line.startswith("fails: corpus m (stream) traffic: ") for line in lines), lines


def test_newton_finds_no_unknown_head_below_one(invariants, capsys):
    """`g2`'s six numerically sub-one heads are certified, since their
    candidate fails F(c) <= c only at a coordinate capped at one; the five
    left Unknown are numerically at one."""
    failures, counts = invariants.run_checks(
        "g2", [parse_definition(CAPPED_AT_ONE_TEXT)], [invariants.newton]
    )
    assert failures == 0, capsys.readouterr().out
    assert counts["newton"]["Unknown heads"] == 5
    assert counts["newton"]["Unknown heads below one"] == 0
