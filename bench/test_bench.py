"""Tests of the benchmark itself: generator, answer checkers, spans.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from asprod.measure import measure  # noqa: E402
from asprod.syntax import parse_definition  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# generator


def test_generator_is_deterministic_per_seed():
    a = workloads.stratified(60, 7, budget=40, leaf_prob=0.15)
    assert a == workloads.stratified(60, 7, budget=40, leaf_prob=0.15)
    assert a != workloads.stratified(60, 8, budget=40, leaf_prob=0.15)
    assert workloads.sweep(3) == workloads.sweep(3)
    assert {d.name for d in workloads.sweep(3)} == {d.name for d in workloads.sweep(4)}


def test_stratified_batches_share_a_size_profile():
    def profile(seed, kind):
        defs = workloads.stratified(60, seed, budget=40, leaf_prob=0.15)
        assert [d.kind for d in defs[:4]] == ["stream", "tree", "stream", "tree"]
        return sorted(workloads.size(d.term) for d in defs if d.kind == kind)

    for kind in ("stream", "tree"):
        a, b = profile(1, kind), profile(2, kind)
        assert len(a) == len(b) == 30
        assert sum(a) == pytest.approx(sum(b), rel=0.15)


@pytest.mark.parametrize("seed", [2026, 1])
def test_generator_reproduces_the_suite_generator(seed):
    reference = _conftest().seeded_random_definitions(120, seed)
    ours = workloads.random_definitions(120, seed, budget=10, leaf_prob=0.3)
    for ref, (kind, term) in zip(reference, ours, strict=True):
        d = workloads.Def("d", kind, term)
        parsed = parse_definition(d.text)
        assert (parsed.kind, parsed.body) == (ref.kind, ref.body), d.text
        assert d.drift == measure(ref)


def test_corpus_matches_the_suite_corpus():
    conftest = _conftest()
    for d in workloads.corpus():
        assert parse_definition(d.text) == parse_definition(conftest.CORPUS_TEXT[d.name])
        assert d.expected == conftest.EXPECTED_VERDICT[d.name]
    assert len(workloads.corpus()) == len(conftest.CORPUS_TEXT)


def test_sweep_covers_every_reduced_bias():
    biases = workloads.sweep_biases(6)
    assert Fraction(1, 2) in biases and Fraction(2, 4) == Fraction(1, 2)
    assert len(biases) == len(set(biases)) == 1 + 2 + 2 + 4 + 2
    drift = {d.name: d for d in workloads.sweep(0, max_den=6)}
    assert drift["drift_1_2"].expected == "asp" and drift["drift_2_5"].expected == "not_asp"
    assert drift["walk_1_2"].expected == "asp" and drift["walk_3_5"].expected == "not_asp"
    assert drift["drift_1_3"].drift == Fraction(-1, 3)


# ---------------------------------------------------------------------------
# answer checkers


def _report(records):
    return json.dumps({"definitions": records})


def _rec(name, verdict, drift):
    return {"name": name, "verdict": verdict, "measure": f"{drift.numerator}/{drift.denominator}"}


REFS = {
    "s14": checks.VerdictRef(Fraction(-1, 2), expected="not_asp"),
    "spure": checks.VerdictRef(Fraction(1), expected="asp"),
    "g0": checks.VerdictRef(Fraction(0), pinned="asp"),
}
GOOD = [_rec("s14", "not_asp", Fraction(-1, 2)), _rec("spure", "asp", Fraction(1)), _rec("g0", "asp", Fraction(0))]


def test_verdict_checker_accepts_right_answers():
    assert checks.check_verdicts(_report(GOOD), 1, REFS) == {}
    unknown = GOOD[:2] + [_rec("g0", "unknown", Fraction(0))]  # decided -> Unknown is no flip
    assert checks.check_verdicts(_report(unknown), 1, REFS) == {}


@pytest.mark.parametrize(
    "index, verdict, bad",
    [(0, "asp", "s14"), (1, "unknown", "spure"), (2, "not_asp", "g0")],
)
def test_verdict_checker_rejects_a_flipped_verdict(index, verdict, bad):
    records = [dict(r) for r in GOOD]
    records[index]["verdict"] = verdict
    code = checks.expected_exit(r["verdict"] for r in records)
    assert set(checks.check_verdicts(_report(records), code, REFS)) == {bad}


def test_verdict_checker_rejects_exit_3_and_wrong_exit_codes():
    assert set(checks.check_verdicts(_report(GOOD), 3, REFS)) == set(REFS)
    assert set(checks.check_verdicts(_report(GOOD), 0, REFS)) == set(REFS)
    assert set(checks.check_verdicts("Traceback", 1, REFS)) == set(REFS)
    wrong_measure = [_rec("s14", "not_asp", Fraction(1, 2))] + GOOD[1:]
    assert set(checks.check_verdicts(_report(wrong_measure), 1, REFS)) == {"s14"}


def test_simulation_checker_rejects_a_flipped_hint():
    refs = {"s14": checks.SimRef("evidence_against_asp"), "g1": checks.SimRef(None)}

    def sim(name, hint, total=1000):
        return {"name": name, "runs": 2, "horizon": 1000, "total_outputs": total,
                "mean_rate": total / 2000, "hint": hint}

    good = json.dumps({"simulations": [sim("s14", "evidence_against_asp"), sim("g1", "x")]})
    assert checks.check_simulations(good, 0, refs, 2, 1000) == {}
    flipped = json.dumps({"simulations": [sim("s14", "no_evidence_against_asp"), sim("g1", "x")]})
    assert set(checks.check_simulations(flipped, 0, refs, 2, 1000)) == {"s14"}
    assert set(checks.check_simulations(good, 3, refs, 2, 1000)) == set(refs)
    overfull = json.dumps({"simulations": [sim("s14", "evidence_against_asp"), sim("g1", "x", 5000)]})
    assert set(checks.check_simulations(overfull, 0, refs, 2, 1000)) == {"g1"}


def test_measure_checker():
    drifts = {"a": Fraction(1, 2), "b": Fraction(-1)}
    assert checks.check_measures("a 1/2\nb -1\n", 0, drifts) == {}
    assert set(checks.check_measures("a 1/2\nb 1\n", 0, drifts)) == {"b"}
    assert set(checks.check_measures("a 1/2\nb -1\n", 3, drifts)) == {"a", "b"}


def test_checker_accepts_the_program_on_the_corpus(tmp_path):
    from asprod.cli import main

    defs = workloads.corpus()
    path = tmp_path / "corpus.defs"
    path.write_text(workloads.defs_text(defs))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["check", "--json", "--no-tier3", str(path)])
    refs = {d.name: checks.VerdictRef(d.drift, expected=d.expected) for d in defs}
    assert checks.check_verdicts(buf.getvalue(), code, refs) == {}


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 3.0, parent=0),
        spans.Span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        spans.Span("c", 8.0, 12.0, parent=0),  # runs past the parent: clipped
        spans.Span("a1", 1.5, 2.5, parent=1),  # a grandchild of root
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 4 - 2, 1.0, 3.0, 4.0, 1.0])


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 61)]
    q, value = spans.tail_percentile(values)
    assert q == 75.0 and 45 <= value <= 46
    assert spans.tail_percentile([float(i) for i in range(1000)])[0] == 99.0
    assert spans.tail_percentile([3.0])[0] == 50.0
    assert spans.tail_percentile([]) == (0.0, 0.0)


def _traced(tmp_path, argv, recorder):
    path = tmp_path / "corpus.defs"
    path.write_text(workloads.defs_text(workloads.corpus()))
    with contextlib.redirect_stdout(io.StringIO()):
        return spans.run_main([*argv, str(path)], recorder)


def test_traced_run_records_spans_and_restores_the_program(tmp_path):
    import asprod.cli
    import asprod.decide

    original = asprod.cli.decide_asp, asprod.decide.classify_heads
    rec = spans.Recorder()
    assert _traced(tmp_path, ["check", "--json", "--no-tier3"], rec) == 1
    assert (asprod.cli.decide_asp, asprod.decide.classify_heads) == original

    requests = {s.request for s in rec.spans if s.name == "decide_asp"}
    assert len(requests) == 9
    for s in rec.spans:
        if s.name == "classify_heads":
            assert rec.spans[s.parent].name == "decide_asp"
            assert s.request == rec.spans[s.parent].request
    metrics = spans.layer_metrics(rec)
    assert metrics["decide.def_samples"][0] == 9
    assert sum(metrics[f"decide.verdict.stream.{v}"][0] for v in ("asp", "not_asp")) == 7
    assert metrics["decide.verdict.tree.asp"][0] == 2
    assert 0 < metrics["eqsys.heads_used_ratio"][0] <= 1
    assert metrics["simulate.run_batch_ms"][0] == 0


def test_a_removed_function_makes_its_metrics_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(spans.HOOKS, "kleene_solve", spans.Hook("asprod.eqsys", "no_such_function"))
    rec = spans.Recorder()
    _traced(tmp_path, ["check", "--json", "--no-tier3"], rec)
    metrics = spans.layer_metrics(rec)
    assert "eqsys.kleene_ms" not in metrics and "eqsys.fallback_share" not in metrics
    assert "eqsys.newton_ms" in metrics


# ---------------------------------------------------------------------------
# child processes


def test_peak_memory_is_the_childs_own(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    ballast = b"\x01" * (150 * 2**20)  # the parent's peak must not leak into the child's
    path = run.write_inputs(run.Inputs(workloads.corpus(), lambda out, code: {}))
    wall, peak, code, out = run.HostClock().run(["measure", str(path)], tmp_path / "measure.out")
    assert code == 0 and "s14 -1/2" in out and wall > 0
    assert 5 < peak < 100
    del ballast


def test_host_clock_pauses_and_resumes_the_child(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SEGMENT_S", 0.02)  # stop the child many times
    path = run.write_inputs(run.Inputs(workloads.corpus(), lambda out, code: {}))
    clock = run.HostClock()
    wall, peak, code, out = clock.run(["measure", str(path)], tmp_path / "measure.out")
    assert code == 0 and "s14 -1/2" in out and wall > 0 and peak is not None
    assert len(clock.scales) > 2
