"""Byte-identity of `check --json --no-tier3` against reports recorded at
commit bf84c4b (the seeded batch re-recorded when the exact tier began to
decide single-exit blocks in systems that also hold multi-exit heads) and
re-recorded by the commit that follows 2636dbe, when the certificate search
moved to the grid of multiples of 2^-64: only certificate strings changed,
their denominators now dividing 2^64, and every other byte of both reports
stayed the same.  The seeded batch was re-recorded once more when Unknown
heads began to carry the reason they stayed undecided in place of Kleene
values, after the reports before and after were found equal with every
Unknown head's fields dropped.  It also checks byte-identity of `simulate --json`
against reports recorded at edf398e (the paper examples) and at 52b8962
(the seeded batch), and of `ppda --format json` on the paper examples
against the export recorded at 57937b2, so that a refactor cannot change
report bytes unnoticed.

The batch pins Unknown heads (with their reasons) and
certified SubReturn heads (with their certificates), not only verdicts.
The simulation reports pin the sampler's draws for the uniform and for a
periodic tree policy.  The seeded batch's simulation was recorded while
`simulate` still sampled one definition at a time; it mixes streams and
trees at suffix depths 0 to 3, so it pins a mixed lane batch against the
per-definition sampler.

`solve` prints the head classes of the same exact analysis `check` reports,
so on both inputs the two commands must agree head for head.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from asprod import eqsys
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


def test_check_runs_no_kleene_iteration(tmp_path, capsys, monkeypatch):
    """No verdict or report of `check` reads a Kleene iterate, so none is
    computed, though the batch has Unknown heads."""
    calls = 0
    real = eqsys.kleene_solve

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(eqsys, "kleene_solve", counting)
    path = tmp_path / "batch.defs"
    path.write_text(batch_text())
    assert '"class": "unknown"' in check_json(path, capsys)
    assert calls == 0


def test_paper_examples_ppda_export_matches_recorded_bytes(capsys):
    capsys.readouterr()
    assert main(["ppda", "--format", "json", str(ROOT / "defs" / "paper_examples.defs")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "paper_examples.ppda.json").read_text()


def test_seeded_batch_pins_unknown_and_certified_heads():
    doc = json.loads((GOLDEN / "seeded_batch.check.json").read_text())
    heads = [h for d in doc["definitions"] if d["tier2"] for h in d["tier2"]["heads"]]
    assert any(h["class"] == "unknown" for h in heads)
    assert any(h["class"] == "sub_return" and h["certificate"] for h in heads)


def solve_text(cls: dict, variables: list[str], head: str) -> str:
    """The text `solve` prints for a head whose `check --json` entry is
    `cls`, given the names of the surviving variables in their order."""
    if cls["class"] == "almost_sure_return":
        return "AlmostSureReturn"
    if cls["class"] == "unknown":
        return f"Unknown ({cls['reason']})"
    cert = cls["certificate"]
    if cert is None:
        return "SubReturn (no certificate)"
    if not cert:
        return "SubReturn (return probability 0)"
    assert len(cert) == len(variables)
    total = sum(Fraction(c) for c, v in zip(cert, variables) if v.startswith(f"[{head}, "))
    return f"SubReturn (certificate sum {total.numerator}/{total.denominator})"


@pytest.mark.parametrize("batch", [False, True], ids=["paper-examples", "seeded-batch"])
def test_solve_prints_the_head_classes_check_reports(tmp_path, capsys, batch):
    path = ROOT / "defs" / "paper_examples.defs"
    if batch:
        path = tmp_path / "batch.defs"
        path.write_text(batch_text())
    definitions = json.loads(check_json(path, capsys))["definitions"]
    assert main(["solve", str(path)]) == 0
    printed = []  # per definition: its header, surviving variables and head lines
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith("  "):
            printed.append((line, [], []))
        elif line.startswith("  head ("):
            printed[-1][2].append(line[len("  head (") :])
        else:
            printed[-1][1].append(line[2:])
    assert len(printed) == len(definitions)
    for d, (header, variables, lines) in zip(definitions, printed):
        assert header.startswith(f"{d['name']}: ")
        heads = d["tier2"]["heads"]
        assert len(lines) == len(heads), d["name"]
        for cls, line in zip(heads, lines):
            head = f"{cls['state']}, {cls['symbol']}"
            assert line == f"{head}): {solve_text(cls, variables, head)}", d["name"]


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


def test_seeded_batch_simulation_matches_recorded_bytes(tmp_path, capsys):
    path = tmp_path / "batch.defs"
    path.write_text(batch_text())
    capsys.readouterr()
    main(["simulate", "--json", "--mc-runs", "64", "--mc-horizon", "3000", str(path)])
    assert capsys.readouterr().out == (GOLDEN / "seeded_batch.simulate.json").read_text()
