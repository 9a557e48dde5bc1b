"""Byte-identity of `check --json --no-tier3` against reports recorded at
commit bf84c4b (the seeded batch re-recorded when the exact tier began to
decide single-exit blocks in systems that also hold multi-exit heads), and
of `simulate --json` against reports recorded at edf398e, so that a
refactor cannot change report bytes unnoticed.

The batch pins Unknown heads (with their `kleene_lower` floats) and
certified SubReturn heads (with their certificates), not only verdicts.
The simulation reports pin the sampler's draws for the uniform and for a
periodic tree policy.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from asprod.cli import main
from asprod.syntax import pretty_print

from conftest import seeded_random_definitions

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
BATCH_SIZE = 24


def batch_text() -> str:
    defs = seeded_random_definitions(BATCH_SIZE)
    return "".join(
        pretty_print(dataclasses.replace(d, name=f"d{i}")) + "\n" for i, d in enumerate(defs)
    )


def check_json(path, capsys) -> str:
    capsys.readouterr()
    main(["check", "--json", "--no-tier3", str(path)])
    return capsys.readouterr().out


def test_paper_examples_match_recorded_bytes(capsys):
    out = check_json(ROOT / "defs" / "paper_examples.defs", capsys)
    assert out == (GOLDEN / "paper_examples.check.json").read_text()


def test_seeded_batch_matches_recorded_bytes(tmp_path, capsys):
    path = tmp_path / "batch.defs"
    path.write_text(batch_text())
    assert check_json(path, capsys) == (GOLDEN / "seeded_batch.check.json").read_text()


def test_seeded_batch_pins_unknown_and_certified_heads():
    doc = json.loads((GOLDEN / "seeded_batch.check.json").read_text())
    heads = [h for d in doc["definitions"] if d["tier2"] for h in d["tier2"]["heads"]]
    assert any(h["class"] == "unknown" for h in heads)
    assert any(h["class"] == "sub_return" and h["certificate"] for h in heads)


@pytest.mark.parametrize(
    "policy,golden",
    [(None, "paper_examples.simulate.json"), ("RRL|LR", "paper_examples.simulate_rrl_lr.json")],
)
def test_paper_examples_simulation_matches_recorded_bytes(capsys, policy, golden):
    argv = ["simulate", "--json", "--mc-runs", "64", "--mc-horizon", "3000"]
    if policy:
        argv += ["--tree-policy", policy]
    capsys.readouterr()
    main([*argv, str(ROOT / "defs" / "paper_examples.defs")])
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
