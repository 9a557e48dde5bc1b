"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Everything is either exact rational arithmetic or fixed-seed sampling, so
the suite is deterministic.
"""

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from asprod.cli import main
from asprod.eqsys import (
    AlmostSureReturn,
    build_system,
    certify_subreturn,
    classify_heads,
    clean,
    kleene_solve,
    newton_solve,
)
from asprod.measure import measure
from asprod.ppda import translate
from asprod.semantics import McHint, UNIFORM, monte_carlo
from asprod.simulate import CompiledDefinition, monte_carlo_jobs
from asprod.syntax import parse_definition, parse_file, pretty_print
from asprod.terms import Kind

from conftest import CORPUS_TEXT, corpus, definitions
from reference import (
    build_full_system,
    cross_validate,
    integer_system,
    prefix_distribution,
    step,
)
from test_eqsys import CRITICAL, SUBCRITICAL

F = Fraction


def _pass(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


# -- criterion 1: measure exactness -----------------------------------------


def test_criterion_1_measure_exactness():
    for p in (F(1, 4), F(1, 2), F(3, 4)):
        d = parse_definition(f"stream s = (a : s) (+ {p}) tail(s)")
        assert measure(d) == 2 * p - 1
    e1 = parse_definition("tree e1 = left(e1) (+ 1/4) mk(x, e1, e1)")
    e2 = parse_definition("tree e2 = left(e2) (+ 1/4) mk(x, e2, left(e2))")
    assert measure(e1) == F(1, 2)
    assert measure(e2) == F(-1, 4)
    _pass("1", "drift measures 2p-1 and tree measures 1/2, -1/4, exactly")


# -- criterion 2: published verdicts through the CLI ------------------------


def test_criterion_2_reference_verdicts_via_cmd_check(tmp_path, capsys):
    path = tmp_path / "reference.defs"
    path.write_text(
        "\n".join(
            [
                "stream s34 = (a : s34) (+ 3/4) tail(s34)",
                "stream s12 = (a : s12) (+ 1/2) tail(s12)",
                "stream s14 = (a : s14) (+ 1/4) tail(s14)",
                "stream srec = srec",
                "stream retry10 = (a : retry10) (+ 1/10) retry10",
                "stream retry50 = (a : retry50) (+ 1/2) retry50",
                "stream retry90 = (a : retry90) (+ 9/10) retry90",
                "tree e1 = left(e1) (+ 1/4) mk(x, e1, e1)",
            ]
        )
        + "\n"
    )
    code = main(["check", str(path), "--no-tier3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    got = {e["name"]: e for e in doc["definitions"]}
    assert code == 1  # srec and s14 are not productive
    assert got["s34"]["verdict"] == "asp" and got["s34"]["tier"] == "measure"
    assert got["s12"]["verdict"] == "asp" and got["s12"]["tier"] == "exact"
    assert got["s12"]["tier1"] == "abstain"
    assert got["s14"]["verdict"] == "not_asp"
    assert got["srec"]["verdict"] == "not_asp"
    for name in ("retry10", "retry50", "retry90"):
        assert got[name]["verdict"] == "asp", name
    assert got["e1"]["verdict"] == "asp"
    _pass("2", "cmd_check reproduces all reference verdicts and tiers")


# -- criterion 3: the zero-drift trap ---------------------------------------


def test_criterion_3_trap_regression():
    d = parse_definition("stream s = tail(a : s)")
    assert measure(d) == 0
    code_input = pretty_print(d)
    from asprod.decide import AspResult, decide_asp

    v = decide_asp(parse_definition(code_input))
    assert v.result is AspResult.NOT_ASP
    mc = monte_carlo(d, 50, 2000, seed=11)
    assert sum(mc.output_counts) == 0  # simulation confirms: never an output
    _pass("3", "tail(a : s) rejected despite zero drift and returning excursions")


# -- criterion 4: derived tree verdict vs the sampling oracle ----------------


def test_criterion_4_tree_verdict_agrees_with_oracle():
    from asprod.decide import AspResult, decide_asp

    e2 = parse_definition("tree e2 = left(e2) (+ 1/4) mk(x, e2, left(e2))")
    verdict = decide_asp(e2)
    assert verdict.tier1.value == "abstain"
    assert verdict.result is AspResult.ASP  # decided by the exact tier
    seeds = (0xA5F, 1, 2)
    compiled = CompiledDefinition(e2)  # the three seeds run as one lane batch
    reports = monte_carlo_jobs([(compiled, seed) for seed in seeds], 500, 100_000)
    for seed, mc in zip(seeds, reports):
        assert mc.hint is McHint.NO_EVIDENCE_AGAINST_ASP, seed
    _pass("4", "e2: exact ASP verdict matches the 3-seed sampling oracle")


# -- criterion 5: solver numerics -------------------------------------------


def test_criterion_5_solver_numerics():
    kleene, _ = kleene_solve(SUBCRITICAL, 1e-9)
    assert abs(kleene[0] - 1 / 3) < 1e-9
    newton = newton_solve(SUBCRITICAL, epsilon=1e-13)
    assert abs(newton[0] - 1 / 3) < 1e-12
    critical, iters = kleene_solve(CRITICAL, 1e-12, max_iter=2000)
    assert iters <= 2000 and critical[0] > 0.99
    assert classify_heads(CRITICAL) == {(0, "tl"): AlmostSureReturn()}
    _pass("5", "kleene/newton hit 1/3; critical case passes the radius-one test")


# -- criterion 6: certificate soundness --------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**40 - 1))
def _certify_rejects_on_critical(n):
    assert not certify_subreturn(CRITICAL, (0, "tl"), [F(n, 2**40)])


def test_criterion_6_certificate_soundness():
    assert certify_subreturn(SUBCRITICAL, (0, "tl"), [F(17, 50)])
    _certify_rejects_on_critical()
    _pass("6", "17/50 verifies on the subcritical system; nothing below 1 "
               "verifies on the critical one (100 random candidates)")


# -- criterion 7: finite-depth semantics/automaton agreement -----------------


def test_criterion_7_cross_validation_depth_8():
    for name, d in corpus().items():
        term, automaton = cross_validate(d, 8)
        assert term == automaton, name
    _pass("7", f"exact depth-8 trace equality on all {len(CORPUS_TEXT)} corpus "
               "definitions")


# -- criterion 8: randomized invariant suites (>= 200 definitions each) ------


@settings(max_examples=200, deadline=None)
@given(definitions())
def _step_distributions_normalize(d):
    dist = step(d, d.body)
    assert sum(dist.values()) == 1
    assert all(p > 0 for p in dist.values())


@settings(max_examples=200, deadline=None)
@given(definitions(4), st.integers(1, 5))
def _kleene_monotone(d, budget):
    cleaned, _ = clean(build_system(translate(d)))
    lo, _ = kleene_solve(cleaned, 1e-300, max_iter=budget)
    hi, _ = kleene_solve(cleaned, 1e-300, max_iter=budget + 1)
    assert all(0.0 <= a <= b <= 1.0 for a, b in zip(lo, hi))


@settings(max_examples=200, deadline=None)
@given(definitions(4))
def _clean_preserves_least_fixed_point(d):
    p = translate(d)
    system = build_full_system(p)
    candidates = build_system(p)
    cleaned, positive = clean(candidates)
    positivity = {v: v in positive for v in candidates.variables}
    full, _ = kleene_solve(integer_system(system), 1e-9, max_iter=300)
    reduced, _ = kleene_solve(cleaned, 1e-9, max_iter=300)
    survivors = [i for i, v in enumerate(system.variables) if positivity[v]]
    assert [full[i] for i in survivors] == reduced
    assert all(
        full[i] == 0.0 for i, v in enumerate(system.variables) if not positivity[v]
    )


@settings(max_examples=200, deadline=None)
@given(definitions(4), st.integers(1, 4))
def _prefix_marginals_consistent(d, depth):
    policy = UNIFORM if d.kind is Kind.TREE else None
    deeper = prefix_distribution(d, depth + 1, policy)
    shallow = prefix_distribution(d, depth, policy)
    marginal = {}
    for seq, p in deeper.items():
        marginal[seq[:-1]] = marginal.get(seq[:-1], Fraction(0)) + p
    assert marginal == shallow


@settings(max_examples=200, deadline=None)
@given(definitions())
def _parser_round_trips(d):
    assert parse_file(pretty_print(d)) == [d]


@pytest.mark.parametrize(
    "suite",
    [
        _step_distributions_normalize,
        _kleene_monotone,
        _clean_preserves_least_fixed_point,
        _prefix_marginals_consistent,
        _parser_round_trips,
    ],
    ids=[
        "step_normalization",
        "kleene_monotonicity",
        "clean_preserves_lfp",
        "prefix_marginals",
        "parser_round_trip",
    ],
)
def test_criterion_8_invariant_suites(suite):
    suite()
    _pass("8", f"{suite.__name__.lstrip('_')} holds on 200 random definitions")
