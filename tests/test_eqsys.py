"""Equation systems: construction, cleaning, solvers, certificates, exact
classification, spectral test, SMT export, simulation cross-checks."""

import dataclasses
import math
import os
import random
import stat
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from asprod import eqsys
from asprod.decide import AspResult, decide_asp, exact_analysis
from asprod.eqsys import (
    CERT_BUMP,
    AlmostSureReturn,
    EqSystem,
    NewtonValues,
    SubReturn,
    Unknown,
    build_system,
    certify_subreturn,
    classify_heads,
    clean,
    kleene_solve,
    newton_solve,
    run_smt_solver,
    smt_export,
    spectral_le_one,
    subreturn_candidate,
    subreturn_certificates,
)
from asprod.graphs import strongly_connected_components
from asprod.ppda import Ppda, translate
from asprod.syntax import parse_definition
from asprod.terms import Cons, Kind, Left, RecVar, Tail

from conftest import (
    CAPPED_AT_ONE_TEXT,
    certified_multi_exit_text,
    corpus,
    definitions,
    seeded_random_definitions,
)
from reference import (
    WALK_REFINE,
    Equation,
    FractionSystem,
    Monomial,
    build_full_system,
    certificate_faults,
    expected_reason,
    fixed_point_clean,
    fraction_contraction_feasible,
    fraction_equation,
    integer_system,
    iterated_newton_solve,
    mass_at_one,
    walk_certificates,
    worklist_clean,
)


F = Fraction


def rational_equations(s):
    """The integer rows of `s` read back as `Fraction` equations."""
    return tuple(fraction_equation(row) for row in s.equations)


def one_var(const, quad_coef, lin_coef=None):
    """z = const + quad_coef * z^2 (+ lin_coef * z)."""
    monos = [Monomial(F(quad_coef), (0, 0))]
    if lin_coef is not None:
        monos.append(Monomial(F(lin_coef), (0,)))
    return integer_system(
        FractionSystem(
            variables=((0, "tl", 0),),
            equations=(Equation(F(const), tuple(monos)),),
            heads=((0, "tl"),),
            state_names=("z",),
        )
    )


SUBCRITICAL = one_var("1/4", "3/4")  # least root 1/3, other root 1
CRITICAL = one_var("1/2", "1/2")  # double root 1


def positivity_map(candidates):
    """The cleaned system of `candidates`, and every candidate mapped to
    whether it lies in the positive set `clean` returns."""
    cleaned, positive = clean(candidates)
    return cleaned, {v: v in positive for v in candidates.variables}


def drift_system(p_str):
    d = parse_definition(f"stream s = (a : s) (+ {p_str}) tail(s)")
    cleaned, positivity = positivity_map(build_system(translate(d)))
    return d, cleaned, positivity


# ---------------------------------------------------------------------------
# build_system


def test_drift_system_equations():
    d, cleaned, _ = drift_system("1/4")
    names = {cleaned.variables[i]: i for i in range(len(cleaned.variables))}
    p = translate(d)
    choice = p.states.index(d.body)
    cons = p.states.index(Cons("a", RecVar()))
    tail = p.states.index(Tail(RecVar()))
    rec = p.states.index(RecVar())
    # only pops land in the recursion state, so only [., tl, rec] survive
    assert set(cleaned.variables) == {
        (choice, "tl", rec),
        (cons, "tl", rec),
        (tail, "tl", rec),
        (rec, "tl", rec),
    }
    # [rec] = [choice];  [choice] = 1/4 [cons] + 3/4 [tail]
    # [cons] = 1 (pop);  [tail] = [rec] * [rec]
    equations = rational_equations(cleaned)
    eq_rec = equations[names[(rec, "tl", rec)]]
    assert eq_rec.const == 0 and [m.factors for m in eq_rec.monomials] == [
        (names[(choice, "tl", rec)],)
    ]
    eq_cons = equations[names[(cons, "tl", rec)]]
    assert eq_cons.const == 1 and not eq_cons.monomials
    eq_tail = equations[names[(tail, "tl", rec)]]
    assert eq_tail.monomials == (
        Monomial(F(1), (names[(rec, "tl", rec)], names[(rec, "tl", rec)])),
    )
    eq_choice = equations[names[(choice, "tl", rec)]]
    assert mass_at_one(eq_choice) == 1
    assert {m.coef for m in eq_choice.monomials} == {F(1, 4), F(3, 4)}


def test_tree_system_reduces_to_quarter_quadratic():
    # e1: after substituting the deterministic chain, [rec, lt, rec] solves
    # a = 1/4 a^2 + 3/4; assert the raw components and the least fixed point
    d = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, t)")
    p = translate(d)
    cleaned, _ = clean(build_system(p))
    idx = {v: i for i, v in enumerate(cleaned.variables)}
    rec = p.states.index(RecVar())
    left = p.states.index(Left(RecVar()))
    mk = p.states.index(d.body.right)
    a = (rec, "lt", rec)
    equations = rational_equations(cleaned)
    eq_mk = equations[idx[(mk, "lt", rec)]]
    assert eq_mk.const == 1 and not eq_mk.monomials
    eq_left = equations[idx[(left, "lt", rec)]]
    assert eq_left.monomials == (Monomial(F(1), (idx[a], idx[a])),)
    eq_rec = equations[idx[a]]
    assert [m.factors for m in eq_rec.monomials] == [(idx[(0, "lt", rec)],)]
    eq_choice = equations[idx[(0, "lt", rec)]]
    assert {(m.coef, m.factors) for m in eq_choice.monomials} == {
        (F(1, 4), (idx[(left, "lt", rec)],)),
        (F(3, 4), (idx[(mk, "lt", rec)],)),
    }
    values = newton_solve(cleaned)
    assert abs(values[idx[a]] - 1.0) < 1e-9  # subcritical toward one: lfp is 1


def test_trap_system_keeps_only_the_pop_constant():
    d = parse_definition("stream s = tail(a : s)")
    system = build_system(translate(d))
    cleaned, positivity = positivity_map(system)
    p = translate(d)
    cons = p.states.index(Cons("a", RecVar()))
    rec = p.states.index(RecVar())
    tail = p.states.index(Tail(Cons("a", RecVar())))
    # the push head (tail-state, tl) has an all-zero least fixed point:
    # every variable reachable from it is removed, only the immediate-pop
    # constant [cons, tl, rec] = 1 survives
    assert cleaned.variables == ((cons, "tl", rec),)
    assert rational_equations(cleaned) == (Equation(F(1), ()),)
    assert positivity[(tail, "tl", rec)] is False
    assert positivity[(rec, "tl", rec)] is False


def test_clean_keeps_survivors_of_drift_system():
    _, cleaned, positivity = drift_system("1/2")
    # survivors are exactly the four variables landing in the recursion state
    assert all(key[2] == cleaned.variables[0][2] for key in cleaned.variables)
    assert len(cleaned.variables) == 4
    assert sum(positivity.values()) == 4


def test_clean_is_identity_on_constant_system():
    s = FractionSystem(
        variables=((0, "tl", 0),),
        equations=(Equation(F(1), ()),),
        heads=((0, "tl"),),
        state_names=("z",),
    )
    cleaned, positivity = worklist_clean(s)
    assert cleaned.variables == s.variables
    assert cleaned.equations == s.equations
    assert positivity == {(0, "tl", 0): True}


def assert_clean_matches_fixed_point(d):
    p = translate(d)
    cleaned, positivity = positivity_map(build_system(p))
    expected, expected_positivity = fixed_point_clean(build_full_system(p))
    assert cleaned.variables == expected.variables
    assert rational_equations(cleaned) == expected.equations
    assert positivity == expected_positivity


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_worklist_clean_matches_the_fixed_point(d):
    assert_clean_matches_fixed_point(d)


def test_worklist_clean_matches_the_fixed_point_on_the_seeded_batch():
    for d in seeded_random_definitions(48):
        assert_clean_matches_fixed_point(d)


def assert_direct_build_matches_the_oracle(d):
    p = translate(d)
    candidates = build_system(p)
    system, positivity = positivity_map(candidates)
    full = build_full_system(p)
    expected, expected_positivity = worklist_clean(full)
    assert len(candidates.variables) == len(full.variables)
    assert system.variables == expected.variables
    # per equation, as rationals over a positive L: the constant, then each
    # monomial's coefficient and factors, in order
    assert all(scale > 0 for scale, _, _ in system.equations)

    def terms(equations):
        return [(eq.const, [(m.coef, m.factors) for m in eq.monomials]) for eq in equations]

    assert terms(rational_equations(system)) == terms(expected.equations)
    assert (system.heads, system.state_names) == (expected.heads, expected.state_names)
    assert positivity == expected_positivity


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_direct_build_matches_the_cleaned_full_system(d):
    assert_direct_build_matches_the_oracle(d)


def test_direct_build_matches_the_cleaned_full_system_on_the_corpus_and_seeded_batch():
    for d in [*corpus().values(), *seeded_random_definitions(48)]:
        assert_direct_build_matches_the_oracle(d)


def test_exact_analysis_builds_only_surviving_equations(monkeypatch):
    built = 0  # integer rows `clean` writes
    real = eqsys._head_equations

    def counting(*args, **kwargs):
        nonlocal built
        rows = real(*args, **kwargs)
        built += len(rows)
        return rows

    monkeypatch.setattr(eqsys, "_head_equations", counting)
    pruned = 0
    for d in [*corpus().values(), *seeded_random_definitions(48)]:
        built = 0
        analysis = exact_analysis(d)
        assert built == len(analysis.system.variables), d
        pruned += analysis.built_variables - built
    assert pruned > 0  # some candidates are zero, and none of their equations is made


# ---------------------------------------------------------------------------
# numeric solvers


def test_kleene_reaches_least_root():
    values, iters = kleene_solve(SUBCRITICAL, 1e-9)
    assert abs(values[0] - 1 / 3) < 1e-9
    assert iters < 100


def test_kleene_critical_case_is_slow_but_converges_upward():
    values, iters = kleene_solve(CRITICAL, 1e-12, max_iter=2000)
    assert iters == 2000
    assert 0.99 < values[0] < 1.0


def test_kleene_empty_system():
    empty = EqSystem((), (), (), ())
    assert kleene_solve(empty) == ([], 1)


def test_newton_quadratic_convergence():
    values = newton_solve(SUBCRITICAL, epsilon=1e-13, max_iter=8)
    assert abs(values[0] - 1 / 3) < 1e-12


def test_newton_critical_case_within_budget():
    values = newton_solve(CRITICAL, epsilon=1e-16, max_iter=200)
    assert values[0] > 0.99


def test_newton_linear_system_exact():
    # z = 1/4 w + 3/4, w = 1
    s = integer_system(
        FractionSystem(
            variables=((0, "tl", 0), (1, "tl", 0)),
            equations=(
                Equation(F(3, 4), (Monomial(F(1, 4), (1,)),)),
                Equation(F(1), ()),
            ),
            heads=((0, "tl"), (1, "tl")),
            state_names=("z", "w"),
        )
    )
    values = newton_solve(s)
    assert values == [1.0, 1.0]


def test_newton_agrees_with_kleene_on_corpus():
    # at a critical fixed point Kleene converges like c/n, so within the
    # default iteration budget it stays ~1e-4 below the fixed point; the one
    # critical corpus member gets the correspondingly looser tolerance
    for name, d in corpus().items():
        tolerance = 1e-3 if name == "s12" else 1e-6
        cleaned, _ = clean(build_system(translate(d)))
        kleene, _ = kleene_solve(cleaned, 1e-10)
        newton = newton_solve(cleaned, 1e-12)
        assert all(abs(a - b) < tolerance for a, b in zip(kleene, newton)), name


def test_newton_dominates_kleene_at_equal_budgets():
    for budget in (2, 4, 8):
        for name in ("s14", "s12", "t2"):
            cleaned, _ = clean(build_system(translate(corpus()[name])))
            kl, _ = kleene_solve(cleaned, 1e-300, max_iter=budget)
            nw = newton_solve(cleaned, 1e-300, max_iter=budget)
            assert all(n >= k - 1e-12 for n, k in zip(nw, kl)), (name, budget)


def numpy_newton_solve(s, epsilon=eqsys.DEFAULT_EPSILON, max_iter=eqsys.NEWTON_MAX_ITER):
    """Reference decomposed Newton: each step is one `np.linalg.solve` on
    the block, with the same clip and stopping rule as `newton_solve`, and
    a singular or non-finite step ending the block at its last iterate."""
    n = len(s.variables)
    equations = rational_equations(s)
    deps = [{f for m in eq.monomials for f in m.factors} for eq in equations]
    values = [0.0] * n
    for comp in strongly_connected_components(list(range(n)), lambda v: deps[v]):
        local = {v: k for k, v in enumerate(comp)}

        def f_and_jac(xv):
            fv = np.zeros(len(comp))
            jac = np.zeros((len(comp), len(comp)))
            for v in comp:
                eq = equations[v]
                fv[local[v]] += float(eq.const)
                for m in eq.monomials:
                    vals = [xv[local[f]] if f in local else values[f] for f in m.factors]
                    fv[local[v]] += float(m.coef) * np.prod(vals)
                    for pos, f in enumerate(m.factors):
                        if f in local:
                            others = vals[:pos] + vals[pos + 1 :]
                            jac[local[v], local[f]] += float(m.coef) * np.prod(others)
            return fv, jac

        x = np.zeros(len(comp))
        for _ in range(max_iter):
            fv, jac = f_and_jac(x)
            try:
                dx = np.linalg.solve(np.eye(len(comp)) - jac, fv - x)
            except np.linalg.LinAlgError:
                dx = None
            if dx is None or not np.all(np.isfinite(dx)):
                break
            x = np.clip(x + dx, 0.0, 1.0)
            if float(np.max(np.abs(dx))) < epsilon:
                break
        for v in comp:
            values[v] = float(x[local[v]])
    return values


def cleaned_systems():
    return [
        clean(build_system(translate(d)))[0]
        for d in [*corpus().values(), *seeded_random_definitions(24)]
    ]


def test_newton_agrees_with_the_numpy_reference():
    for s in cleaned_systems():
        ours, ref = newton_solve(s), numpy_newton_solve(s)
        assert all(abs(a - b) < 1e-12 for a, b in zip(ours, ref)), s.state_names


def resolved_direction(s, values):
    """The certificate direction re-solved for plain `values`: per block,
    bottom-up, I - J at `values` factored afresh, d = (I - J)^-1 1 with the
    blocks read fixed at their d, and the whole scaled to max d = 1; a block
    whose solve is singular, not finite or not positive keeps d = 1.
    `newton_solve` solves it with each block's last factorization instead."""
    form = eqsys.float_form(s)
    direction = [1.0] * len(s.variables)
    for comp in s.blocks:
        local = {v: k for k, v in enumerate(comp)}
        x = [values[v] for v in comp]
        lu = eqsys._factor(eqsys._newton_matrix(eqsys._block_rows(form, comp, local, values), x))
        for v, dv in zip(comp, eqsys._block_direction(form, comp, local, lu, values, direction)):
            direction[v] = dv
    return eqsys._scaled(direction)


def test_certificate_direction_solves_the_newton_system():
    """d is (I - J)^-1 1 at the Newton values, scaled to max 1, whether it is
    carried by `newton_solve`'s result or solved afresh for plain values."""
    for s in cleaned_systems():
        values = newton_solve(s)
        n = len(values)
        if not n:
            continue
        jac = np.zeros((n, n))
        for i, eq in enumerate(rational_equations(s)):
            for m in eq.monomials:
                for pos, f in enumerate(m.factors):
                    others = m.factors[:pos] + m.factors[pos + 1 :]
                    jac[i, f] += float(m.coef) * np.prod([values[g] for g in others])
        d = np.linalg.solve(np.eye(n) - jac, np.ones(n))
        d /= d.max()
        fresh = resolved_direction(s, list(values))
        assert np.allclose(fresh, d, rtol=1e-9, atol=1e-12), s.state_names
        assert np.allclose(values.direction, d, rtol=1e-9, atol=1e-12), s.state_names


# ---------------------------------------------------------------------------
# certificates


def test_certify_accepts_the_classic_witness():
    assert certify_subreturn(SUBCRITICAL, (0, "tl"), [F(17, 50)])


def test_certify_exact_arithmetic_boundary():
    # F(17/50) = 1/4 + 3/4 * 289/2500 = 3367/10000 <= 17/50
    assert certify_subreturn(SUBCRITICAL, (0, "tl"), [F(3367, 10000)])
    assert not certify_subreturn(SUBCRITICAL, (0, "tl"), [F(33, 100)])  # below lfp


def test_certify_rejects_everything_below_one_on_critical():
    assert not certify_subreturn(CRITICAL, (0, "tl"), [F(99, 100)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30 - 1))
def test_certify_rejects_random_candidates_on_critical(n):
    # F(v) - v = (1 - v)^2 / 2 > 0 for every v < 1
    v = F(n, 2**30)
    assert not certify_subreturn(CRITICAL, (0, "tl"), [v])


def test_certify_all_ones_fails_on_head_mass():
    assert not certify_subreturn(CRITICAL, (0, "tl"), [F(1)])
    assert not certify_subreturn(SUBCRITICAL, (0, "tl"), [F(1)])


def test_certify_validates_range():
    with pytest.raises(ValueError):
        certify_subreturn(SUBCRITICAL, (0, "tl"), [F(3, 2)])


def test_subreturn_candidate_roundtrip():
    newton = newton_solve(SUBCRITICAL)
    cand = subreturn_candidate(SUBCRITICAL, (0, "tl"), newton)
    assert cand is not None
    assert certify_subreturn(SUBCRITICAL, (0, "tl"), cand)
    assert subreturn_candidate(CRITICAL, (0, "tl"), newton_solve(CRITICAL)) is None


# ---------------------------------------------------------------------------
# classification


def test_classify_critical_is_almost_sure():
    assert classify_heads(CRITICAL) == {(0, "tl"): AlmostSureReturn()}


CERTIFIED_MULTI_EXIT = parse_definition(certified_multi_exit_text())


def test_classify_subcritical_has_certificate():
    # the block pass decides the head sub-one (J(1) = 3/2), so classify
    # searches no certificate for it, though the search finds one
    s = one_var("1/4", "3/4")  # SUBCRITICAL, with no solution cached yet
    assert classify_heads(s) == {(0, "tl"): SubReturn(certificate=None)}
    assert "newton" not in vars(s)
    cert = subreturn_candidate(s, (0, "tl"), s.newton)
    assert cert is not None and certify_subreturn(s, (0, "tl"), cert)
    # a multi-exit head is left undecided by the block pass, and a
    # certificate still proves it sub-one
    cleaned, _ = clean(build_system(translate(CERTIFIED_MULTI_EXIT)))
    classes = classify_heads(cleaned)
    multi = [h for h, vs in cleaned.head_vars.items() if len(vs) > 1]
    assert multi
    for h in multi:
        assert isinstance(classes[h], SubReturn) and classes[h].certificate, h
        assert certify_subreturn(cleaned, h, classes[h].certificate), h


def test_classify_drift_family_heads():
    for p_str, expected in (("1/4", SubReturn), ("1/2", AlmostSureReturn), ("3/4", AlmostSureReturn)):
        d, cleaned, _ = drift_system(p_str)
        classes = classify_heads(cleaned)
        pp = translate(d)
        rec = pp.states.index(RecVar())
        assert isinstance(classes[(rec, "tl")], expected), p_str
        cons = pp.states.index(Cons("a", RecVar()))
        assert isinstance(classes[(cons, "tl")], AlmostSureReturn)


def test_classify_second_tree_example_all_almost_sure():
    d = parse_definition("tree t = left(t) (+ 1/4) mk(x, t, left(t))")
    p = translate(d)
    cleaned, _ = clean(build_system(p))
    classes = classify_heads(cleaned)
    rec = p.states.index(RecVar())
    left = p.states.index(Left(RecVar()))
    for head in ((rec, "lt"), (rec, "rt"), (left, "lt"), (left, "rt")):
        assert classes[head] == AlmostSureReturn(), head


def test_classify_zero_return_heads_get_trivial_certificates():
    d = parse_definition("stream s = tail(a : s)")
    p = translate(d)
    cleaned, _ = clean(build_system(p))
    classes = classify_heads(cleaned)
    tail_state = 0  # the body
    rec = p.states.index(RecVar())
    assert classes[(tail_state, "tl")] == SubReturn(certificate=())
    assert classes[(rec, "tl")] == SubReturn(certificate=())
    cons = p.states.index(Cons("a", RecVar()))
    assert classes[(cons, "tl")] == AlmostSureReturn()


@pytest.mark.parametrize("leak", [0, 1])
def test_classify_block_leaking_mass_in_any_variable_is_sub_return(leak):
    # x = y/2 + 1/4, y = x in either variable order: one row loses mass,
    # yet the Jacobian at one has spectral radius 1/sqrt(2), so the block is
    # sub-one only because every row's mass is tested
    leaky = Equation(F(1, 4), (Monomial(F(1, 2), (1 - leak,)),))
    whole = Equation(F(0), (Monomial(F(1), (leak,)),))
    s = integer_system(
        FractionSystem(
            variables=((0, "tl", 0), (1, "tl", 0)),
            equations=(leaky, whole) if leak == 0 else (whole, leaky),
            heads=((0, "tl"), (1, "tl")),
            state_names=("x", "y"),
        )
    )
    classes = classify_heads(s)
    assert all(isinstance(c, SubReturn) for c in classes.values()), classes


MULTI_EXIT = parse_definition(
    "stream u = (a : u) (+ 1/2) tail(tail(tail((a : b : u) (+ 1/2) c : d : u)))"
)


def test_classify_never_contradicts_certificates():
    named = [corpus()[name] for name in ("s14", "s12", "s34", "strap", "t1", "t2")]
    for d in [*named, MULTI_EXIT, *seeded_random_definitions(24)]:
        cleaned, _ = clean(build_system(translate(d)))
        classes = classify_heads(cleaned)
        as_heads = [h for h, c in classes.items() if isinstance(c, AlmostSureReturn)]
        certs = subreturn_certificates(cleaned, as_heads, newton_solve(cleaned))
        assert all(c is None for c in certs.values()), d


def on_grid(x):
    """`x` rounded up to a multiple of 2^-64, capped at one."""
    return min(F(1), F(math.ceil(x * 2**64), 2**64))


def reference_candidate(s, head, newton):
    """The certificate search run for one head on its own, in Fractions:
    the one candidate, the Newton values bumped along the certificate
    direction and rounded up to the 2^-64 grid, if `certify_subreturn`
    accepts it."""
    cand = [on_grid(F(v) + CERT_BUMP * F(d)) for v, d in zip(newton, newton.direction)]
    return tuple(cand) if certify_subreturn(s, head, cand) else None


def test_shared_certificate_search_matches_per_head_search():
    for d in [*corpus().values(), *seeded_random_definitions(24)]:
        cleaned, _ = clean(build_system(translate(d)))
        newton = newton_solve(cleaned)
        live = [h for h, vs in cleaned.head_vars.items() if vs]
        shared = subreturn_certificates(cleaned, live, newton)
        classes = classify_heads(cleaned)
        for head in live:
            cert = shared[head]
            assert cert == subreturn_candidate(cleaned, head, newton), (d, head)
            assert cert == reference_candidate(cleaned, head, newton), (d, head)
            if cert is not None:
                assert certify_subreturn(cleaned, head, cert), (d, head)
            # a head classify certifies gets the shared search's certificate
            cls = classes[head]
            if isinstance(cls, SubReturn) and cls.certificate is not None:
                assert cls.certificate == cert, (d, head)


CAPPED_AT_ONE = parse_definition(CAPPED_AT_ONE_TEXT)


def test_a_coordinate_capped_at_one_needs_no_check():
    """Pop probabilities never exceed one, so a candidate coordinate capped
    at one already bounds the least fixed point from above, and its
    equation is not checked.  Here the candidate's image exceeds it at one
    of the 39 equations, a capped one, and the candidate certifies six of
    the heads the block pass leaves undecided."""
    analysis = exact_analysis(CAPPED_AT_ONE)
    s, classes = analysis.system, analysis.classes
    certified = {
        h: c.certificate for h, c in classes.items() if isinstance(c, SubReturn) and c.certificate
    }
    assert len(certified) == 6
    (cert,) = set(certified.values())
    images = [
        eq.const + sum(m.coef * math.prod(cert[f] for f in m.factors) for m in eq.monomials)
        for eq in rational_equations(s)
    ]
    assert len(images) == 39
    assert [c for image, c in zip(images, cert) if image > c] == [1]
    for head in certified:
        assert certify_subreturn(s, head, cert), head
    assert sum(isinstance(c, Unknown) for c in classes.values()) == 5
    assert decide_asp(CAPPED_AT_ONE).result is AspResult.NOT_ASP


# Two seeded definitions (`bench/workloads.stratified(60, seed, budget=20,
# leaf_prob=0.15)`: g10 of seed 7, g47 of seed 17) whose certificates a
# uniform bump of the Newton values made hinge on their last bits.
ULP_FRAGILE = {
    "g10": "stream g10 = ((((g10 (+ 1/3) g10) (+ 1/4) g10) (+ 2/3) ((g10 (+ 2/3) g10) "
    "(+ 1/4) g10)) (+ 1/6) ((b : g10 (+ 1/3) (g10 (+ 11/12) g10)) (+ 1/3) tail(g10)))",
    "g47": "tree g47 = (mk(b, g47, (mk(b, g47, g47) (+ 5/12) (g47 (+ 5/12) g47))) (+ 1/12) "
    "(g47 (+ 5/6) right(mk(b, (g47 (+ 5/12) g47), left(g47)))))",
}


def test_the_wider_certificate_walk_certifies_no_head_the_one_candidate_misses():
    """`reference.walk_certificates`, the search over two bumps and up to
    WALK_REFINE applications of F each, certifies no live head that
    `subreturn_certificates`' one candidate leaves without a certificate."""
    defs = [*corpus().values(), MULTI_EXIT, CERTIFIED_MULTI_EXIT, *seeded_random_definitions(48)]
    defs += [parse_definition(text) for text in ULP_FRAGILE.values()]
    certified = 0
    for d in defs:
        s = clean(build_system(translate(d)))[0]
        live = [h for h, vs in s.head_vars.items() if vs]
        ours = subreturn_certificates(s, live, s.newton)
        walked = walk_certificates(s, live, s.newton)
        assert [h for h in live if ours[h] is None and walked[h] is not None] == [], d
        certified += sum(c is not None for c in ours.values())
    assert certified > 0


@pytest.mark.parametrize("name", sorted(ULP_FRAGILE))
def test_certificates_survive_lowering_every_newton_value_by_one_ulp(name):
    cleaned, _ = clean(build_system(translate(parse_definition(ULP_FRAGILE[name]))))
    newton = newton_solve(cleaned)
    live = [h for h, vs in cleaned.head_vars.items() if vs]
    certs = subreturn_certificates(cleaned, live, newton)
    certified = [h for h in live if certs[h] is not None]
    assert len(certified) >= 10
    lowered = [math.nextafter(v, 0.0) for v in newton]
    lowered = NewtonValues(lowered, resolved_direction(cleaned, lowered))
    after = subreturn_certificates(cleaned, certified, lowered)
    assert [h for h in certified if after[h] is None] == []


@pytest.mark.parametrize("fault", ["singular", "nan"])
def test_a_failed_newton_step_ends_its_block_at_the_last_iterate(monkeypatch, fault):
    """A singular Newton matrix (`_factor` returns None) or a step that is
    not finite, part-way through a block, ends that block's iteration: its
    values are the iterate the failed step started from, its direction is
    all ones, no block takes more than NEWTON_MAX_ITER steps, and every
    certificate found from such values passes the exact check."""

    def system():
        return clean(build_system(translate(parse_definition(ULP_FRAGILE["g10"]))))[0]

    s = system()
    comp = max(s.blocks, key=len)
    target = tuple(comp)
    at = 4  # the target block's factorization that fails; unfaulted, Newton takes 5
    log = {}
    block_rows, factor, lu_solve = eqsys._block_rows, eqsys._factor, eqsys._lu_solve
    image, block_direction = eqsys._image, eqsys._block_direction

    def reset():
        log.update(block=None, steps={}, factors={}, x=None)
        log.update(failed_x=None, nan=False, direction=None)

    def recording_rows(form, comp_, *args):
        # each iterated block builds its rows once, before its first step
        log["block"] = tuple(comp_)
        log["steps"][log["block"]] = 0
        log["factors"][log["block"]] = 0
        return block_rows(form, comp_, *args)

    def counting_image(rows, x):
        log["steps"][log["block"]] += 1
        log["x"] = list(x)
        return image(rows, x)

    def failing_factor(a):
        log["factors"][log["block"]] += 1
        lu = factor(a)
        if log["block"] == target and log["factors"][target] == at:
            log["failed_x"] = log["x"]
            if fault == "singular":
                return None
            log["nan"] = True
        return lu

    def failing_solve(lu, b):
        y = lu_solve(lu, b)
        if log["nan"]:
            log["nan"] = False
            y[len(y) // 2] = math.nan
        return y

    def recording_direction(form, comp_, *args):
        d = block_direction(form, comp_, *args)
        if comp_ == comp:
            log["direction"] = d
        return d

    unfaulted = s.newton
    monkeypatch.setattr(eqsys, "_block_rows", recording_rows)
    monkeypatch.setattr(eqsys, "_image", counting_image)
    monkeypatch.setattr(eqsys, "_factor", failing_factor)
    monkeypatch.setattr(eqsys, "_lu_solve", failing_solve)
    monkeypatch.setattr(eqsys, "_block_direction", recording_direction)

    reset()
    values = newton_solve(s)
    assert log["factors"][target] == log["steps"][target] == at
    assert max(log["steps"].values()) <= eqsys.NEWTON_MAX_ITER
    assert [values[v] for v in comp] == log["failed_x"]
    assert log["failed_x"] != [unfaulted[v] for v in comp]
    assert log["direction"] == [1.0] * len(comp)

    reset()
    s = system()
    live = [h for h, vs in s.head_vars.items() if vs]
    certs = subreturn_certificates(s, live, s.newton)
    assert log["failed_x"] is not None
    certified = 0
    for head, cert in certs.items():
        if cert is not None:
            certified += 1
            assert certify_subreturn(s, head, cert), head
    assert certified > 0


def reads_itself(s, comp):
    """Whether a dependency block reads one of its own variables: it has
    several, or its one variable's equation reads that variable.  Written
    out here, not imported from `eqsys`, so the factorization test checks
    `newton_solve`'s choice of blocks independently of its own test."""
    return len(comp) > 1 or comp[0] in s.dependencies[comp[0]]


NEWTON_SETTINGS = [
    (eqsys.DEFAULT_EPSILON, eqsys.NEWTON_MAX_ITER),
    (1e-300, 1),
    (1e-300, 4),
]


def assert_newton_matches_the_iterated_oracle(d):
    s = clean(build_system(translate(d)))[0]
    for epsilon, max_iter in NEWTON_SETTINGS:
        ours = newton_solve(s, epsilon, max_iter)
        ref = iterated_newton_solve(s, epsilon, max_iter)
        assert list(map(float.hex, ours)) == list(map(float.hex, ref)), (d, epsilon, max_iter)
        assert list(map(float.hex, ours.direction)) == list(map(float.hex, ref.direction)), (
            d,
            epsilon,
            max_iter,
        )


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_newton_matches_the_iterated_oracle_bit_for_bit(d):
    assert_newton_matches_the_iterated_oracle(d)


def test_newton_matches_the_iterated_oracle_on_the_corpus_and_seeded_batch():
    defs = [*corpus().values(), MULTI_EXIT, *seeded_random_definitions(48)]
    defs += [parse_definition(text) for text in ULP_FRAGILE.values()]
    for d in defs:
        assert_newton_matches_the_iterated_oracle(d)


def test_newton_factors_only_blocks_that_read_themselves(monkeypatch):
    """`newton_solve` evaluates a block that reads none of its own variables
    and factors the Newton matrix of the others alone: per block, it makes
    as many `_factor` calls as the iterated oracle makes there, and none on
    an evaluated block."""
    log = {"block": None, "calls": []}
    block_rows, factor = eqsys._block_rows, eqsys._factor

    def recording_rows(form, comp, *args):
        log["block"] = tuple(comp)
        return block_rows(form, comp, *args)

    def counting_factor(a):
        log["calls"].append(log["block"])
        return factor(a)

    monkeypatch.setattr(eqsys, "_block_rows", recording_rows)
    monkeypatch.setattr(eqsys, "_factor", counting_factor)
    evaluated = iterated = 0
    for d in [*corpus().values(), MULTI_EXIT, *seeded_random_definitions(48)]:
        s = clean(build_system(translate(d)))[0]
        log["calls"] = []
        iterated_newton_solve(s)
        oracle_calls = log["calls"]
        log["calls"] = []
        newton_solve(s)
        ours = log["calls"]
        for comp in s.blocks:
            key = tuple(comp)
            if reads_itself(s, comp):
                iterated += 1
                assert ours.count(key) == oracle_calls.count(key) > 0, (d, comp)
            else:
                evaluated += 1
                assert key not in ours and oracle_calls.count(key) > 0, (d, comp)
        assert all(reads_itself(s, list(key)) for key in ours), d
    assert evaluated > iterated > 0


def test_certificate_denominators_divide_two_to_the_64():
    defs = [*corpus().values(), MULTI_EXIT, *seeded_random_definitions(24)]
    defs += [parse_definition(text) for text in ULP_FRAGILE.values()]
    certified = 0
    for d in defs:
        cleaned, _ = clean(build_system(translate(d)))
        for cls in classify_heads(cleaned).values():
            if isinstance(cls, SubReturn) and cls.certificate:
                certified += 1
                assert all(2**64 % c.denominator == 0 for c in cls.certificate), d
    assert certified > 0


def subcritical_copies(count):
    """`count` independent copies of SUBCRITICAL, one head each."""
    return integer_system(
        FractionSystem(
            variables=tuple((k, "tl", k) for k in range(count)),
            equations=tuple(
                Equation(F(1, 4), (Monomial(F(3, 4), (k, k)),)) for k in range(count)
            ),
            heads=tuple((k, "tl") for k in range(count)),
            state_names=tuple(f"z{k}" for k in range(count)),
        )
    )


@pytest.mark.parametrize(
    "system,exits",
    [
        (subcritical_copies(20), 1),
        (clean(build_system(translate(CERTIFIED_MULTI_EXIT)))[0], 2),
    ],
    ids=["single-exit", "multi-exit"],
)
def test_certificate_search_cost_does_not_grow_with_heads(monkeypatch, system, exits):
    # `exits`: the most exits some certified head has
    calls = 0  # exact checks of F(c) <= c on a whole candidate
    pre_fixed = eqsys._pre_fixed

    def counting(s, n):
        nonlocal calls
        calls += 1
        return pre_fixed(s, n)

    live = [h for h, vs in system.head_vars.items() if vs]
    newton = system.newton
    monkeypatch.setattr(eqsys, "_pre_fixed", counting)
    certs = subreturn_certificates(system, live, newton)
    certified = [h for h, c in certs.items() if c is not None]
    assert len(certified) >= 4
    assert max(len(system.head_vars[h]) for h in certified) == exits
    assert calls == 1


def test_classify_multi_exit_falls_back_honestly():
    p = translate(MULTI_EXIT)
    cleaned, _ = clean(build_system(p))
    classes = classify_heads(cleaned)
    by_state = {p.state_names[q]: c for (q, _), c in classes.items()}
    # the constructor heads read no multi-exit head, so their blocks are
    # decided exactly; the two-exit head and every head reading it are not
    for name in ("a : u", "b : u", "d : u", "a : b : u", "c : d : u"):
        assert by_state[name] == AlmostSureReturn(), name
    two_exit = p.state_names.index("a : b : u (+ 1/2) c : d : u")
    assert len(cleaned.head_vars[(two_exit, "tl")]) == 2
    assert classes[(two_exit, "tl")] == Unknown("multi_exit")
    reasons = {c.reason for c in classes.values() if isinstance(c, Unknown)}
    assert reasons == {"multi_exit", "reads_undecided"}


def test_decided_sub_one_heads_past_the_certificate_reach_stay_uncertified():
    # x = x^2/2 + (1/2 - 2^-60) has mass below one, and the chain y_k = y_(k-1)
    # reads it, so every head is decided sub-one, and classify searches no
    # certificate for any of them.  x* lies within 2^-29 of one, so the
    # bumped candidate is one everywhere: a pre-fixed point with return
    # mass one at every head, which certifies none.  Refining it by F, as
    # the wider walk of `reference.walk_certificates` does, lowers the
    # chain by one link per step and certifies its first WALK_REFINE heads,
    # which the block pass decides anyway.
    n = WALK_REFINE + 3  # x, then y_1 ... y_(WALK_REFINE + 2)
    equations = [Equation(F(1, 2) - F(1, 2**60), (Monomial(F(1, 2), (0, 0)),))]
    equations += [Equation(F(0), (Monomial(F(1), (k - 1,)),)) for k in range(1, n)]
    system = integer_system(
        FractionSystem(
            variables=tuple((k, "tl", k) for k in range(n)),
            equations=tuple(equations),
            heads=tuple((k, "tl") for k in range(n)),
            state_names=tuple(f"y{k}" for k in range(n)),
        )
    )
    classes = classify_heads(system)
    assert classes == {h: SubReturn(certificate=None) for h in system.heads}
    assert "newton" not in vars(system)
    assert eqsys._grid_start(system.newton) == [eqsys.GRID] * n
    certs = subreturn_certificates(system, system.heads, system.newton)
    assert set(certs.values()) == {None}
    walked = walk_certificates(system, system.heads, system.newton)
    assert [h for h, c in walked.items() if c is not None] == list(system.heads[:WALK_REFINE])


def test_no_certificate_candidate_reaches_heads_within_2_pow_20_of_one():
    # drift -2 * 10^-30: the excursions return with probability within
    # 2^-20 of one, so every bumped candidate is capped at one, F(1) = 1,
    # and the search certifies no head; the block pass decides the
    # single-exit heads sub-one without it
    p = "499999999999999999999999999999/1000000000000000000000000000000"
    d = parse_definition(f"stream near = (a : near) (+ {p}) tail(near)")
    s = clean(build_system(translate(d)))[0]
    classes = classify_heads(s)
    assert sum(c == SubReturn(certificate=None) for c in classes.values()) == 3
    assert "newton" not in vars(s)
    live = [h for h, vs in s.head_vars.items() if vs]
    assert all(1 - x < 2**-20 for x in s.newton)
    assert set(subreturn_certificates(s, live, s.newton).values()) == {None}


def test_classify_heads_never_runs_kleene(monkeypatch):
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kleene_solve(*args, **kwargs)

    monkeypatch.setattr(eqsys, "kleene_solve", counting)
    cleaned, _ = clean(build_system(translate(MULTI_EXIT)))
    classes = classify_heads(cleaned)
    assert sum(isinstance(c, Unknown) for c in classes.values()) > 1
    assert calls == 0
    cleaned.newton  # the values `solve` prints
    assert calls == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@example(1)  # a head that reads an undecided block
@example(5)  # a head whose block holds a multi-exit head's variable
def test_unknown_reasons_follow_head_vars_and_blocks(seed):
    for d in seeded_random_definitions(8, seed):
        cleaned, _ = clean(build_system(translate(d)))
        live = cleaned.head_vars
        for h, cls in classify_heads(cleaned).items():
            if not live.get(h):
                continue
            why = expected_reason(cleaned, h)
            if isinstance(cls, Unknown):
                assert cls.reason == why, (d, h)
            else:
                # a head with no reason is decided exactly; one with a
                # reason is decided only by a certificate
                assert not why or (isinstance(cls, SubReturn) and cls.certificate), (d, h)


def assert_only_undecided_heads_search_certificates(d):
    """Check on one definition that `classify_heads` keeps the contract of
    `reference.certificate_faults`: a single-exit head the block pass
    decides sub-one carries no certificate, every certificate returned
    passes `certify_subreturn`, and Newton is solved exactly when the pass
    leaves some live head undecided.  Returns (heads decided sub-one, heads
    certified, 1 if Newton was not solved)."""
    s = clean(build_system(translate(d)))[0]
    faults, classes = certificate_faults(s)
    assert faults == [], d
    sub = [h for h, c in classes.items() if s.head_vars.get(h) and isinstance(c, SubReturn)]
    decided_sub = sum(not expected_reason(s, h) for h in sub)
    certified = sum(classes[h].certificate is not None for h in sub)
    return decided_sub, certified, int("newton" not in vars(s))


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_only_heads_the_block_pass_leaves_undecided_search_certificates(d):
    assert_only_undecided_heads_search_certificates(d)


def test_only_undecided_heads_search_certificates_on_the_corpus_and_seeded_batch():
    defs = [*corpus().values(), MULTI_EXIT, CERTIFIED_MULTI_EXIT, *seeded_random_definitions(48)]
    counts = [assert_only_undecided_heads_search_certificates(d) for d in defs]
    decided_sub, certified, without_newton = map(sum, zip(*counts))
    assert decided_sub > 0 and certified > 0 and 0 < without_newton < len(defs)


def rescaled(s, factors):
    """`s` with row i, (L, L const, [(L a, f)]), multiplied by factors[i]: the
    same equations over another common denominator."""
    rows = tuple(
        (k * scale, k * const, [(k * a, fs) for a, fs in monos])
        for k, (scale, const, monos) in zip(factors, s.equations)
    )
    return dataclasses.replace(s, equations=rows)


def assert_row_scale_changes_nothing(d, factors):
    """Classes, Newton values and direction bit for bit, certificates and SMT
    texts are the same when each row of the cleaned system of `d` is scaled
    by a positive integer.  Returns how many heads were certified."""
    s = clean(build_system(translate(d)))[0]
    t = rescaled(s, factors)
    assert classify_heads(t) == classify_heads(s), d
    ours, theirs = newton_solve(t), newton_solve(s)
    assert list(map(float.hex, ours)) == list(map(float.hex, theirs)), d
    assert list(map(float.hex, ours.direction)) == list(map(float.hex, theirs.direction)), d
    live = [h for h, vs in s.head_vars.items() if vs]
    certs = subreturn_certificates(s, live, theirs)
    assert subreturn_certificates(t, live, ours) == certs, d
    for h in live:
        assert smt_export(t, h) == smt_export(s, h), (d, h)
    return sum(c is not None for c in certs.values())


@settings(max_examples=100, deadline=None)
@given(definitions(), st.data())
def test_every_check_reads_a_row_only_through_its_ratios(d, data):
    n = len(clean(build_system(translate(d)))[0].variables)
    factors = data.draw(st.lists(st.integers(1, 2**80), min_size=n, max_size=n))
    assert_row_scale_changes_nothing(d, factors)


def test_every_check_reads_a_row_only_through_its_ratios_on_the_corpus():
    rng = random.Random(34)
    certified = 0
    for d in [*corpus().values(), MULTI_EXIT, CERTIFIED_MULTI_EXIT]:
        n = len(clean(build_system(translate(d)))[0].variables)
        certified += assert_row_scale_changes_nothing(d, [rng.randint(1, 2**80) for _ in range(n)])
    assert certified > 0


# ---------------------------------------------------------------------------
# spectral radius decisions


def test_spectral_simple_cases():
    assert spectral_le_one([[F(1)]])
    assert not spectral_le_one([[F(3, 2)]])
    assert spectral_le_one([[F(0), F(1)], [F(1), F(0)]])
    assert spectral_le_one([])


def test_spectral_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_le_one([[F(-1)]])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(1, 16), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_spectral_matches_numeric_radius(rows):
    b = [[F(x, 8) for x in row] for row in rows]  # strictly positive: irreducible
    radius = max(abs(np.linalg.eigvals(np.array(rows, dtype=float) / 8)))
    if abs(radius - 1.0) < 1e-2:
        return  # numeric boundary: the exact decision is the reference
    assert spectral_le_one(b) == (radius <= 1.0)


def irreducible_weights(n):
    """n x n nonnegative integer weights holding the cycle 0 -> 1 -> ... -> 0
    (a self-loop when n is 1), so every matrix drawn is irreducible."""
    def close_cycle(rows):
        return [[x + (j == (i + 1) % n) for j, x in enumerate(row)] for i, row in enumerate(rows)]

    row = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(close_cycle)


def scaled_stochastic(rows, c):
    """c times the rows normalized to sum one: spectral radius exactly c."""
    return [[c * F(x, sum(row)) for x in row] for row in rows]


TINY = F(1, 2**30)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(irreducible_weights))
def test_contraction_kernel_is_exact_at_radius_one(rows):
    assert spectral_le_one(scaled_stochastic(rows, F(1)))
    assert not spectral_le_one(scaled_stochastic(rows, 1 + TINY))
    assert spectral_le_one(scaled_stochastic(rows, 1 - TINY))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_contraction_kernel_true_bounds_the_radius_of_reducible_matrices(data):
    # block upper-triangular with diagonal blocks c * S, S stochastic and
    # irreducible, then rows and columns permuted alike: the spectral radius
    # is exactly the largest c.  Numeric eigenvalues confirm it only
    # loosely: those of a defective matrix err by about eps ** (1 / n).
    radii = (F(0), F(1, 2), 1 - TINY, F(1), 1 + TINY, F(2))
    blocks = data.draw(
        st.lists(st.tuples(st.integers(1, 3), st.sampled_from(radii)), min_size=1, max_size=3)
    )
    n = sum(size for size, _ in blocks)
    b = [[F(0)] * n for _ in range(n)]
    start = 0
    for size, c in blocks:
        block = scaled_stochastic(data.draw(irreducible_weights(size)), c)
        for i in range(size):
            b[start + i][start : start + size] = block[i]
            for j in range(start + size, n):
                b[start + i][j] = F(data.draw(st.integers(0, 3)), 2)
        start += size
    perm = data.draw(st.permutations(range(n)))
    b = [[b[i][j] for j in perm] for i in perm]
    radius = max(c for _, c in blocks)
    assert abs(max(abs(np.linalg.eigvals(np.array(b, dtype=float)))) - radius) < 1e-3
    answer = spectral_le_one(b)
    if answer:
        assert radius <= 1
    if radius < 1:
        assert answer


def test_contraction_kernel_on_the_jordan_block():
    # reducible, spectral radius one, and no v >= 1 with B v <= v: the
    # elimination still answers True, which bounds the radius correctly
    assert spectral_le_one([[F(1), F(1)], [F(0), F(1)]])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_integer_contraction_kernel_matches_the_fraction_oracle(data):
    n = data.draw(st.integers(0, 5))
    entry = st.builds(F, st.integers(0, 6), st.integers(1, 8))
    b = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n and data.draw(st.booleans()):
        # reducible: the rows past the cut read nothing before it, and maybe
        # the rows before it nothing past it, so an interior pivot can be
        # zero with a zero column below
        cut = data.draw(st.integers(1, n))
        diagonal = data.draw(st.booleans())
        for i in range(n):
            for j in range(n):
                if (i >= cut > j) or (diagonal and j >= cut > i):
                    b[i][j] = F(0)
    if data.draw(st.booleans()):
        # rows of unit sum, so the last pivot of a block may be zero
        b = [[x / sum(row) for x in row] if any(row) else row for row in b]
    assert spectral_le_one(b) == fraction_contraction_feasible(b)


@pytest.mark.parametrize(
    "b,expected",
    [
        ([[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]], True),  # last pivot zero
        ([[F(1), F(0)], [F(0), F(1, 2)]], True),  # zero pivot, zero column below
        ([[F(1), F(0)], [F(1, 2), F(1, 2)]], False),  # zero pivot, entry below
        ([[F(1, 2), F(1)], [F(1, 4), F(1, 2)]], True),  # radius exactly one
        ([[F(1, 2), F(1)], [F(1, 3), F(1, 2)]], False),
        ([[2, 0], [0, 0]], False),  # integer entries
    ],
)
def test_integer_contraction_kernel_on_zero_pivots(b, expected):
    assert spectral_le_one(b) == expected
    assert fraction_contraction_feasible(b) == expected


def test_integer_kernel_matches_the_oracle_on_every_block_classify_tests(monkeypatch):
    """On the corpus and the seeded batch, every row `classify_heads` hands
    the spectral test is L (I - J(1)) for its equation's scale L, J(1) the
    Jacobian at one summed over `Fraction` coefficients, and the integer
    kernel answers as the `Fraction` oracle does on J(1)."""
    seen = []
    contraction_rows = eqsys._contraction_rows
    kernel = eqsys.nonnegative_contraction_feasible

    def recording_rows(s, comp):
        rows = contraction_rows(s, comp)
        local = {v: k for k, v in enumerate(comp)}
        expected = [[F(0)] * len(comp) for _ in comp]
        for v in comp:
            for m in fraction_equation(s.equations[v]).monomials:
                for f in m.factors:
                    if f in local:
                        expected[local[v]][local[f]] += m.coef
        for k, (v, row) in enumerate(zip(comp, rows)):
            scale = s.equations[v][0]
            assert [F(x, scale) for x in row] == [(i == k) - e for i, e in enumerate(expected[k])]
        seen.append(expected)
        return rows

    def recording_kernel(a):
        answer = kernel(a)
        seen[-1] = (seen[-1], answer)
        return answer

    monkeypatch.setattr(eqsys, "_contraction_rows", recording_rows)
    monkeypatch.setattr(eqsys, "nonnegative_contraction_feasible", recording_kernel)
    for d in [*corpus().values(), *seeded_random_definitions(48)]:
        classify_heads(clean(build_system(translate(d)))[0])
    assert any(len(b) > 1 for b, _ in seen)
    for b, answer in seen:
        assert answer == fraction_contraction_feasible(b)


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_integer_mass_test_matches_the_fraction_sum(d):
    p = translate(d)
    full = build_full_system(p)
    for expected, s in (
        (full, integer_system(full)),
        (worklist_clean(full)[0], clean(build_system(p))[0]),
    ):
        assert len(s.equations) == len(expected.equations)
        for eq, row in zip(expected.equations, s.equations):
            scale, const, monos = row
            assert F(const, scale) == eq.const
            assert [(F(a, scale), fs) for a, fs in monos] == [
                (m.coef, m.factors) for m in eq.monomials
            ]
            assert eqsys._mass_below_one(row) == (mass_at_one(eq) < 1)


# ---------------------------------------------------------------------------
# SMT export and the optional solver subprocess


def test_smt_export_shape():
    text = smt_export(SUBCRITICAL, (0, "tl"))
    assert text.startswith("(set-logic QF_NRA)")
    assert "(declare-const v_0_tl_0 Real)" in text
    assert "(assert (= v_0_tl_0 (+ (/ 1 4) (* (/ 3 4) v_0_tl_0 v_0_tl_0))))" in text
    assert "(assert (< v_0_tl_0 1))" in text
    assert text.rstrip().endswith("(check-sat)")


def test_smt_export_refuses_empty_heads():
    d = parse_definition("stream s = tail(a : s)")
    cleaned, _ = clean(build_system(translate(d)))
    with pytest.raises(ValueError, match="no surviving variables"):
        smt_export(cleaned, (0, "tl"))


def _fake_solver(tmp_path, stdout):
    path = tmp_path / "solver.sh"
    path.write_text(f"#!/bin/sh\necho {stdout}\n")
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def test_run_smt_solver_parses_answers(tmp_path):
    script = smt_export(SUBCRITICAL, (0, "tl"))
    assert run_smt_solver(script, _fake_solver(tmp_path, "sat")) == "sat"
    assert run_smt_solver(script, _fake_solver(tmp_path, "unsat")) == "unsat"
    assert run_smt_solver(script, _fake_solver(tmp_path, "wibble")) == "unknown"
    assert run_smt_solver(script, str(tmp_path / "missing")) == "unknown"


def test_classify_consumes_smt_answers(tmp_path):
    cleaned, _ = clean(build_system(translate(MULTI_EXIT)))
    plain = classify_heads(cleaned)
    unknown_heads = [h for h, c in plain.items() if isinstance(c, Unknown)]
    assert unknown_heads
    with_sat = classify_heads(cleaned, smt_solver=_fake_solver(tmp_path, "sat"))
    with_unsat = classify_heads(cleaned, smt_solver=_fake_solver(tmp_path, "unsat"))
    with_unknown = classify_heads(cleaned, smt_solver=_fake_solver(tmp_path, "unknown"))
    for h in unknown_heads:
        assert with_sat[h] == SubReturn(certificate=None)
        assert with_unsat[h] == AlmostSureReturn()
        assert with_unknown[h] == Unknown("smt_unknown")


# ---------------------------------------------------------------------------
# simulation cross-check of head classifications


class CompiledPpda:
    """Flat transition tables of a translated automaton, for excursion runs."""

    def __init__(self, p: Ppda):
        self.kind = p.kind
        self.n_states = len(p.states)
        n_sym = len(p.alphabet)
        self.sym_index = {x: i for i, x in enumerate(p.alphabet)}
        # topclass 0 = empty stack, 1 + k = alphabet symbol k
        n_rows = self.n_states * (n_sym + 1)
        self.n_moves = np.zeros(n_rows, dtype=np.int8)
        self.prob1 = np.zeros(n_rows, dtype=np.float64)
        self.target = np.zeros((n_rows, 2), dtype=np.int32)
        # stack effect per move: -1 pop, 0 keep, 1 + k push symbol k
        self.effect = np.zeros((n_rows, 2), dtype=np.int8)

        for (q, top), moves in p.rows.items():
            tc = 0 if top is None else 1 + self.sym_index[top]
            row = q * (n_sym + 1) + tc
            if len(moves) > 2:
                raise ValueError("translated rows have at most two moves")
            self.n_moves[row] = len(moves)
            self.prob1[row] = float(moves[0].prob)
            for j, m in enumerate(moves):
                self.target[row, j] = m.target
                if not m.push:
                    self.effect[row, j] = -1 if top is not None else 0
                elif len(m.push) == 1 and top is not None:
                    self.effect[row, j] = 0  # keep: re-push the read symbol
                else:
                    self.effect[row, j] = 1 + self.sym_index[m.push[0]]

        self.n_topclass = n_sym + 1

    def excursion_batch(self, heads, trials: int, horizon: int, seed: int):
        """Run `trials` excursions from each (state, [symbol]) of `heads` for
        up to `horizon` steps, as one lane block on one generator; returns
        the returned masks, one row per head.  Each step draws `trials`
        numbers once, and every head's k-th lane reads the k-th, so each
        head's row is the one it gets run alone from `seed`."""
        rng = np.random.default_rng(seed)
        tree = self.kind is Kind.TREE
        lanes = np.arange(len(heads) * trials)
        state = np.repeat(np.array([q for q, _ in heads], dtype=np.int32), trials)
        height = np.ones(len(lanes), dtype=np.int64)
        stack = None
        if tree:
            stack = np.zeros((len(lanes), 4096), dtype=np.int8)
            stack[:, 0] = np.repeat([self.sym_index[x] for _, x in heads], trials)

        for _ in range(horizon):
            active = height > 0
            if not active.any():
                break
            if tree:
                top = stack[lanes, np.maximum(height - 1, 0)].astype(np.int32)
                tc = np.where(active, 1 + top, 0)
            else:
                tc = np.where(active, 1, 0).astype(np.int32)
            row = state * self.n_topclass + tc
            draw = np.tile(rng.random(trials), len(heads))
            pick2 = (self.n_moves[row] == 2) & (draw >= self.prob1[row])
            j = pick2.astype(np.int8)
            eff = self.effect[row, j]
            nxt = self.target[row, j]
            m_pop = active & (eff == -1)
            height[m_pop] -= 1
            m_push = active & (eff >= 1)
            if m_push.any():
                idx = np.nonzero(m_push)[0]
                h = height[idx]
                if tree:
                    if int(h.max()) >= stack.shape[1]:
                        stack = np.pad(stack, ((0, 0), (0, stack.shape[1])))
                    stack[idx, h] = (eff[idx] - 1).astype(np.int8)
                height[idx] = h + 1
            state = np.where(active, nxt, state)

        return (height == 0).reshape(len(heads), trials)


def test_head_classes_match_sampled_return_fractions():
    # a SubReturn head's return fraction stays below its certificate's mass
    # at the head, the certificate searched for every live head, since the
    # heads the block pass decides carry none
    bounded = 0
    for name, seed in (("s14", 101), ("s12", 102), ("strap", 103), ("t2", 104)):
        d = corpus()[name]
        p = translate(d)
        cleaned, _ = clean(build_system(p))
        classes = classify_heads(cleaned)
        live = [h for h, vs in cleaned.head_vars.items() if vs]
        certs = subreturn_certificates(cleaned, live, cleaned.newton)
        heads = sorted(classes)
        returned = CompiledPpda(p).excursion_batch(heads, 800, 30_000, seed)
        for head, row in zip(heads, returned):
            cls = classes[head]
            fraction = float(row.mean())
            if isinstance(cls, AlmostSureReturn):
                assert fraction >= 0.95, (name, head, fraction)
            elif isinstance(cls, SubReturn):
                if cls.certificate == ():
                    bound = 0.0
                elif certs[head] is None:
                    continue
                else:
                    assert certify_subreturn(cleaned, head, certs[head]), (name, head)
                    bound = float(sum(certs[head][i] for i in cleaned.head_vars[head]))
                    bounded += 1
                assert fraction <= bound + 0.05, (name, head, fraction, bound)
    assert bounded > 0


def test_solvers_stay_below_verified_certificates():
    # a verified pre-fixed point bounds both solvers from above; the
    # certificates are searched for every live head, since the heads the
    # block pass decides carry none
    compared = 0
    for d in (corpus()["s14"], corpus()["strap"], CERTIFIED_MULTI_EXIT):
        cleaned, _ = clean(build_system(translate(d)))
        newton = newton_solve(cleaned)
        kleene, _ = kleene_solve(cleaned)
        live = [h for h, vs in cleaned.head_vars.items() if vs]
        for head, cert in subreturn_certificates(cleaned, live, newton).items():
            if cert is None:
                continue
            assert certify_subreturn(cleaned, head, cert), (d, head)
            cert = [float(c) for c in cert]
            assert all(n <= c + 1e-12 for n, c in zip(newton, cert))
            assert all(k <= c + 1e-12 for k, c in zip(kleene, cert))
            compared += 1
    assert compared > 0


@settings(max_examples=150, deadline=None)
@given(definitions(5))
def test_built_systems_draw_coefficients_from_probability_rows(d):
    # per equation, the constant, the linear coefficients, and one
    # representative per pushed-head group (a push expands into one
    # quadratic monomial per inner landing state, all with the same
    # transition probability) sum to at most one
    system = build_full_system(translate(d))
    for eq in system.equations:
        assert eq.const >= 0
        assert all(m.coef > 0 and 1 <= len(m.factors) <= 2 for m in eq.monomials)
        mass = eq.const
        groups = {}
        for m in eq.monomials:
            if len(m.factors) == 1:
                mass += m.coef
            else:
                inner = system.variables[m.factors[0]]
                probs = groups.setdefault((inner[0], inner[1]), set())
                probs.add(m.coef)
        for probs in groups.values():
            assert len(probs) == 1  # one transition per pushed head
            mass += next(iter(probs))
        assert mass <= 1
    symbols = {x for _, x in system.heads}
    for key in system.variables:
        assert key[1] in symbols
