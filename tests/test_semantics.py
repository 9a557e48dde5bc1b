"""One-step distributions, prefix distributions, samplers, Monte Carlo."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from asprod.measure import measure
from asprod.semantics import (
    McHint,
    McReport,
    PeriodicWord,
    UNIFORM,
    monte_carlo,
    parse_policy,
)
from asprod.syntax import parse_definition
from asprod.terms import (
    Choice,
    Cons,
    InvalidDefinition,
    Left,
    Mk,
    RecVar,
    Right,
    Tail,
    Term,
)

from conftest import corpus, stream_terms, tree_terms
from reference import (
    Out,
    Unfold,
    canon,
    direction,
    prefix_distribution,
    sample_run,
    step,
)

S12 = parse_definition("stream s = (a : s) (+ 1/2) tail(s)")
SREC = parse_definition("stream s = s")
SPURE = parse_definition("stream s = a : s")


def test_step_of_bare_constructor_is_dirac_output():
    assert step(SPURE, Cons("a", RecVar())) == {Out("a", RecVar()): Fraction(1)}


def test_step_of_bare_recursion_unfolds():
    assert step(SREC, RecVar()) == {Unfold(RecVar()): Fraction(1)}


def test_step_of_drift_body_mixes_output_and_unfold():
    dist = step(S12, S12.body)
    assert dist == {
        Out("a", RecVar()): Fraction(1, 2),
        Unfold(Tail(S12.body)): Fraction(1, 2),
    }


def test_step_cancellation_then_unfold():
    # one destructor cancels the constructor, then the recursion unfolds
    dist = step(S12, Tail(Cons("a", RecVar())))
    assert dist == {Unfold(S12.body): Fraction(1)}


def test_step_kind_mismatch():
    tree = parse_definition("tree t = mk(x, t, t)")
    with pytest.raises(InvalidDefinition):
        step(tree, Cons("a", RecVar()))


@settings(max_examples=150, deadline=None)
@given(stream_terms(4))
def test_stream_cancellation_soundness(e):
    # tail(a : e) steps exactly like e
    assert step(S12, Tail(Cons("a", e))) == step(S12, e)


@settings(max_examples=150, deadline=None)
@given(tree_terms(4), tree_terms(3))
def test_tree_cancellation_soundness(el, er):
    from asprod.terms import Left, Mk, Right

    tree = parse_definition("tree t = mk(x, t, t)")
    assert step(tree, Left(Mk("x", el, er))) == step(tree, el)
    assert step(tree, Right(Mk("x", el, er))) == step(tree, er)


# ---------------------------------------------------------------------------
# prefix distributions


def test_prefix_distribution_depth_one():
    dist = prefix_distribution(S12, 1)
    assert dist == {("a",): Fraction(1, 2), (None,): Fraction(1, 2)}


def test_prefix_distribution_silent_loop():
    dist = prefix_distribution(SREC, 5)
    assert dist == {(None,) * 5: Fraction(1)}


def test_prefix_distribution_pure_emitter_alternates():
    dist = prefix_distribution(SPURE, 3)
    assert dist == {("a", None, "a"): Fraction(1)}


def test_prefix_distribution_requires_tree_policy():
    t = parse_definition("tree t = mk(x, t, t)")
    with pytest.raises(ValueError, match="direction policy"):
        prefix_distribution(t, 2)
    assert sum(prefix_distribution(t, 2, UNIFORM).values()) == 1


def test_periodic_word_policy():
    w = parse_policy("LR")
    assert [direction(w, i) for i in range(5)] == ["L", "R", "L", "R", "L"]
    w2 = parse_policy("R|L")
    assert [direction(w2, i) for i in range(4)] == ["R", "L", "L", "L"]
    assert parse_policy("uniform") is UNIFORM


def test_prefix_distribution_fixed_word_tree():
    # t = mk(x, t, left(t)): following L stays in the plain child (emit,
    # unfold, emit); following R enters the consuming child, whose pending
    # destructor cancels the next constructor (emit, unfold, unfold)
    t = parse_definition("tree t = mk(x, t, left(t))")
    left_only = prefix_distribution(t, 3, parse_policy("L"))
    assert left_only == {("x", None, "x"): Fraction(1)}
    right_only = prefix_distribution(t, 3, parse_policy("R"))
    assert right_only == {("x", None, None): Fraction(1)}


# ---------------------------------------------------------------------------
# sampling


def test_sample_run_pure_emitter():
    trace = sample_run(SPURE, 4, seed=3)
    assert trace.events == ("a", None, "a", None)
    assert trace.output_count == 2


def test_sample_run_silent_loop():
    assert sample_run(SREC, 3, seed=0).events == (None, None, None)


def test_sample_run_deterministic_per_seed():
    d = corpus()["s12"]
    assert sample_run(d, 50, seed=42) == sample_run(d, 50, seed=42)
    t = corpus()["t2"]
    assert sample_run(t, 50, seed=42) == sample_run(t, 50, seed=42)


def test_sample_run_tree_directions_follow_word():
    t = corpus()["t1"]
    trace = sample_run(t, 40, seed=9, policy=parse_policy("LR"))
    assert trace.directions == tuple(
        "L" if i % 2 == 0 else "R" for i in range(len(trace.directions))
    )
    assert len(trace.directions) == trace.output_count


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_validates_parameters():
    with pytest.raises(ValueError):
        monte_carlo(SPURE, 0, 1000, 1)
    with pytest.raises(ValueError):
        monte_carlo(SPURE, 10, 99, 1)


def test_monte_carlo_silent_loop_is_flagged():
    mc = monte_carlo(SREC, 10, 100, seed=1)
    assert mc.tail_silence == 1.0
    assert mc.hint is McHint.EVIDENCE_AGAINST_ASP
    assert mc.output_counts == (0,) * 10


def test_monte_carlo_drift_definitions():
    c = corpus()
    up = monte_carlo(c["s34"], 200, 10_000, seed=0xA5F)
    assert up.hint is McHint.NO_EVIDENCE_AGAINST_ASP
    assert up.tail_silence == 0.0
    down = monte_carlo(c["s14"], 200, 10_000, seed=0xA5F)
    assert down.hint is McHint.EVIDENCE_AGAINST_ASP
    assert down.tail_silence > 0.9


def test_monte_carlo_deterministic_per_seed():
    d = corpus()["t2"]
    a = monte_carlo(d, 20, 500, seed=5)
    b = monte_carlo(d, 20, 500, seed=5)
    assert a == b


def reference_monte_carlo(d, runs, horizon, seed, policy=None):
    """Per-run reference for `monte_carlo`: run i is `sample_run` seeded
    with seed + i, summarized by the same statistics."""
    half = horizon // 2
    output_counts = []
    silent_tails = 0
    totals = [0.0] * horizon
    for i in range(runs):
        trace = sample_run(d, horizon, seed + i, policy)
        output_counts.append(trace.output_count)
        if all(e is None for e in trace.events[half:]):
            silent_tails += 1
        for j, e in enumerate(trace.events):
            if e is not None:
                totals[j] += 1.0
    return McReport.from_runs(horizon, seed, tuple(output_counts), silent_tails, totals)


def test_monte_carlo_backends_agree_statistically():
    for name in ("s34", "t2", "scoin"):
        d = corpus()[name]
        ref = reference_monte_carlo(d, 120, 800, seed=13)
        vec = monte_carlo(d, 120, 800, seed=13)
        assert abs(ref.mean_rate - vec.mean_rate) < 0.05
        assert ref.hint is vec.hint


def test_monte_carlo_backends_identical_on_deterministic_runs():
    for name in ("spure", "srec", "strap"):
        d = corpus()[name]
        ref = reference_monte_carlo(d, 10, 200, seed=3)
        vec = monte_carlo(d, 10, 200, seed=3)
        assert ref.output_counts == vec.output_counts
        assert ref.tail_silence == vec.tail_silence


def test_monte_carlo_respects_measure_direction_on_drift_family():
    # strictly positive drift keeps emitting; strictly negative dries up
    for p, expected in ((Fraction(3, 4), McHint.NO_EVIDENCE_AGAINST_ASP),
                        (Fraction(1, 4), McHint.EVIDENCE_AGAINST_ASP)):
        d = parse_definition(f"stream s = (a : s) (+ {p}) tail(s)")
        assert measure(d) == 2 * p - 1
        mc = monte_carlo(d, 100, 2000, seed=2)
        assert mc.hint is expected


def substitute(t: Term, replacement: Term) -> Term:
    """Replace every RecVar occurrence in `t` by `replacement`."""
    if isinstance(t, RecVar):
        return replacement
    if isinstance(t, Choice):
        return Choice(t.prob, substitute(t.left, replacement), substitute(t.right, replacement))
    if isinstance(t, Cons):
        return Cons(t.label, substitute(t.tail, replacement))
    if isinstance(t, Tail):
        return Tail(substitute(t.arg, replacement))
    if isinstance(t, Mk):
        return Mk(t.label, substitute(t.left, replacement), substitute(t.right, replacement))
    if isinstance(t, Left):
        return Left(substitute(t.arg, replacement))
    return Right(substitute(t.arg, replacement))


def test_unfold_is_substitution_of_the_body():
    # the silent step replaces the recursion variable under the pending
    # context, i.e. it is exactly capture-free substitution of the body
    term = Tail(Tail(RecVar()))
    dist = step(S12, term)
    assert dist == {Unfold(substitute(term, S12.body)): Fraction(1)}


def test_periodic_policy_canon_is_coherent():
    w = PeriodicWord(period="LR", prefix="RRL")
    for n in range(40):
        assert direction(w, canon(w, n)) == direction(w, n)
        assert canon(w, canon(w, n) + 1) == canon(w, n + 1)


def test_fixed_word_evidence_for_second_tree_example():
    # the tree verdict quantifies over all direction words; sample a few
    # ultimately periodic ones as additional falsification attempts
    t2 = corpus()["t2"]
    for word in ("L", "R", "LR", "RL"):
        mc = monte_carlo(t2, 100, 5000, seed=17, policy=parse_policy(word))
        assert mc.hint is McHint.NO_EVIDENCE_AGAINST_ASP, word
        assert mc.mean_rate > 0.1
