"""Equation systems: construction, cleaning, solvers, certificates, exact
classification, spectral test, SMT export, simulation cross-checks."""

import math
import os
import stat
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from asprod import eqsys
from asprod.eqsys import (
    CERT_BUMPS,
    CERT_REFINE,
    AlmostSureReturn,
    EqSystem,
    Equation,
    Monomial,
    SubReturn,
    Unknown,
    build_system,
    certify_subreturn,
    classify_heads,
    clean,
    evaluate,
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

from conftest import corpus, definitions, seeded_random_definitions
from reference import fixed_point_clean, fraction_contraction_feasible, mass_at_one


F = Fraction


def one_var(const, quad_coef, lin_coef=None):
    """z = const + quad_coef * z^2 (+ lin_coef * z)."""
    monos = [Monomial(F(quad_coef), (0, 0))]
    if lin_coef is not None:
        monos.append(Monomial(F(lin_coef), (0,)))
    return EqSystem(
        variables=((0, "tl", 0),),
        equations=(Equation(F(const), tuple(monos)),),
        heads=((0, "tl"),),
        state_names=("z",),
        alphabet=("tl",),
    )


SUBCRITICAL = one_var("1/4", "3/4")  # least root 1/3, other root 1
CRITICAL = one_var("1/2", "1/2")  # double root 1


def drift_system(p_str):
    d = parse_definition(f"stream s = (a : s) (+ {p_str}) tail(s)")
    cleaned, positivity = clean(build_system(translate(d)))
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
    eq_rec = cleaned.equations[names[(rec, "tl", rec)]]
    assert eq_rec.const == 0 and [m.factors for m in eq_rec.monomials] == [
        (names[(choice, "tl", rec)],)
    ]
    eq_cons = cleaned.equations[names[(cons, "tl", rec)]]
    assert eq_cons.const == 1 and not eq_cons.monomials
    eq_tail = cleaned.equations[names[(tail, "tl", rec)]]
    assert eq_tail.monomials == (
        Monomial(F(1), (names[(rec, "tl", rec)], names[(rec, "tl", rec)])),
    )
    eq_choice = cleaned.equations[names[(choice, "tl", rec)]]
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
    eq_mk = cleaned.equations[idx[(mk, "lt", rec)]]
    assert eq_mk.const == 1 and not eq_mk.monomials
    eq_left = cleaned.equations[idx[(left, "lt", rec)]]
    assert eq_left.monomials == (Monomial(F(1), (idx[a], idx[a])),)
    eq_rec = cleaned.equations[idx[a]]
    assert [m.factors for m in eq_rec.monomials] == [(idx[(0, "lt", rec)],)]
    eq_choice = cleaned.equations[idx[(0, "lt", rec)]]
    assert {(m.coef, m.factors) for m in eq_choice.monomials} == {
        (F(1, 4), (idx[(left, "lt", rec)],)),
        (F(3, 4), (idx[(mk, "lt", rec)],)),
    }
    values = newton_solve(cleaned)
    assert abs(values[idx[a]] - 1.0) < 1e-9  # subcritical toward one: lfp is 1


def test_trap_system_keeps_only_the_pop_constant():
    d = parse_definition("stream s = tail(a : s)")
    system = build_system(translate(d))
    cleaned, positivity = clean(system)
    p = translate(d)
    cons = p.states.index(Cons("a", RecVar()))
    rec = p.states.index(RecVar())
    tail = p.states.index(Tail(Cons("a", RecVar())))
    # the push head (tail-state, tl) has an all-zero least fixed point:
    # every variable reachable from it is removed, only the immediate-pop
    # constant [cons, tl, rec] = 1 survives
    assert cleaned.variables == ((cons, "tl", rec),)
    assert cleaned.equations[0] == Equation(F(1), ())
    assert positivity[(tail, "tl", rec)] is False
    assert positivity[(rec, "tl", rec)] is False


def test_clean_keeps_survivors_of_drift_system():
    _, cleaned, positivity = drift_system("1/2")
    # survivors are exactly the four variables landing in the recursion state
    assert all(key[2] == cleaned.variables[0][2] for key in cleaned.variables)
    assert len(cleaned.variables) == 4
    assert sum(positivity.values()) == 4


def test_clean_is_identity_on_constant_system():
    s = EqSystem(
        variables=((0, "tl", 0),),
        equations=(Equation(F(1), ()),),
        heads=((0, "tl"),),
        state_names=("z",),
        alphabet=("tl",),
    )
    cleaned, positivity = clean(s)
    assert cleaned.variables == s.variables
    assert cleaned.equations == s.equations
    assert positivity == {(0, "tl", 0): True}


def assert_clean_matches_fixed_point(d):
    system = build_system(translate(d))
    cleaned, positivity = clean(system)
    expected, expected_positivity = fixed_point_clean(system)
    assert cleaned.variables == expected.variables
    assert cleaned.equations == expected.equations
    assert positivity == expected_positivity


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_worklist_clean_matches_the_fixed_point(d):
    assert_clean_matches_fixed_point(d)


def test_worklist_clean_matches_the_fixed_point_on_the_seeded_batch():
    for d in seeded_random_definitions(48):
        assert_clean_matches_fixed_point(d)


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
    empty = EqSystem((), (), (), (), ("tl",))
    assert kleene_solve(empty) == ([], 1)


def test_newton_quadratic_convergence():
    values = newton_solve(SUBCRITICAL, epsilon=1e-13, max_iter=8)
    assert abs(values[0] - 1 / 3) < 1e-12


def test_newton_critical_case_within_budget():
    values = newton_solve(CRITICAL, epsilon=1e-16, max_iter=200)
    assert values[0] > 0.99


def test_newton_linear_system_exact():
    # z = 1/4 w + 3/4, w = 1
    s = EqSystem(
        variables=((0, "tl", 0), (1, "tl", 0)),
        equations=(
            Equation(F(3, 4), (Monomial(F(1, 4), (1,)),)),
            Equation(F(1), ()),
        ),
        heads=((0, "tl"), (1, "tl")),
        state_names=("z", "w"),
        alphabet=("tl",),
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
    the block, with the same clip, stopping rule and value-iteration
    fallback as `newton_solve`."""
    n = len(s.variables)
    deps = [{f for m in eq.monomials for f in m.factors} for eq in s.equations]
    values = [0.0] * n
    for comp in strongly_connected_components(list(range(n)), lambda v: deps[v]):
        local = {v: k for k, v in enumerate(comp)}

        def f_and_jac(xv):
            fv = np.zeros(len(comp))
            jac = np.zeros((len(comp), len(comp)))
            for v in comp:
                eq = s.equations[v]
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
                for _ in range(eqsys.DEFAULT_MAX_ITER):
                    fv, _ = f_and_jac(x)
                    step = float(np.max(np.abs(fv - x)))
                    x = np.clip(fv, 0.0, 1.0)
                    if step < epsilon:
                        break
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


def test_certificate_direction_solves_the_newton_system():
    """d is (I - J)^-1 1 at the Newton values, scaled to max 1, whether it is
    carried by `newton_solve`'s result or solved afresh for plain values."""
    for s in cleaned_systems():
        values = newton_solve(s)
        n = len(values)
        if not n:
            continue
        jac = np.zeros((n, n))
        for i, eq in enumerate(s.equations):
            for m in eq.monomials:
                for pos, f in enumerate(m.factors):
                    others = m.factors[:pos] + m.factors[pos + 1 :]
                    jac[i, f] += float(m.coef) * np.prod([values[g] for g in others])
        d = np.linalg.solve(np.eye(n) - jac, np.ones(n))
        d /= d.max()
        fresh = eqsys.certificate_direction(s, list(values))
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


def test_classify_subcritical_has_certificate():
    cls = classify_heads(SUBCRITICAL)[(0, "tl")]
    assert isinstance(cls, SubReturn)
    assert cls.certificate is not None
    assert certify_subreturn(SUBCRITICAL, (0, "tl"), cls.certificate)


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
    s = EqSystem(
        variables=((0, "tl", 0), (1, "tl", 0)),
        equations=(leaky, whole) if leak == 0 else (whole, leaky),
        heads=((0, "tl"), (1, "tl")),
        state_names=("x", "y"),
        alphabet=("tl",),
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
    the first (bump, step) candidate, bumped along the certificate
    direction and rounded up to the 2^-64 grid at every step, that
    `certify_subreturn` accepts."""
    direction = eqsys.certificate_direction(s, newton)
    for bump in CERT_BUMPS:
        cand = [on_grid(F(v) + bump * F(d)) for v, d in zip(newton, direction)]
        for _ in range(CERT_REFINE + 1):
            if certify_subreturn(s, head, cand):
                return tuple(cand)
            cand = [on_grid(evaluate(eq, cand)) for eq in s.equations]
    return None


def test_shared_certificate_search_matches_per_head_search():
    for d in [*corpus().values(), *seeded_random_definitions(24)]:
        cleaned, _ = clean(build_system(translate(d)))
        newton = newton_solve(cleaned)
        live = cleaned.head_vars
        for head, cls in classify_heads(cleaned).items():
            if not live.get(head):
                continue  # return probability zero: the trivial certificate
            cert = cls.certificate if isinstance(cls, SubReturn) else None
            assert cert == subreturn_candidate(cleaned, head, newton), (d, head)
            assert cert == reference_candidate(cleaned, head, newton), (d, head)
            if cert is not None:
                assert certify_subreturn(cleaned, head, cert), (d, head)


# Two seeded definitions (`bench/workloads.stratified(60, seed, budget=20,
# leaf_prob=0.15)`: g10 of seed 7, g47 of seed 17) whose certificates a
# uniform bump of the Newton values made hinge on their last bits.
ULP_FRAGILE = {
    "g10": "stream g10 = ((((g10 (+ 1/3) g10) (+ 1/4) g10) (+ 2/3) ((g10 (+ 2/3) g10) "
    "(+ 1/4) g10)) (+ 1/6) ((b : g10 (+ 1/3) (g10 (+ 11/12) g10)) (+ 1/3) tail(g10)))",
    "g47": "tree g47 = (mk(b, g47, (mk(b, g47, g47) (+ 5/12) (g47 (+ 5/12) g47))) (+ 1/12) "
    "(g47 (+ 5/6) right(mk(b, (g47 (+ 5/12) g47), left(g47)))))",
}


@pytest.mark.parametrize("name", sorted(ULP_FRAGILE))
def test_certificates_survive_lowering_every_newton_value_by_one_ulp(name):
    cleaned, _ = clean(build_system(translate(parse_definition(ULP_FRAGILE[name]))))
    newton = newton_solve(cleaned)
    live = [h for h, vs in cleaned.head_vars.items() if vs]
    certs = subreturn_certificates(cleaned, live, newton)
    certified = [h for h in live if certs[h] is not None]
    assert len(certified) >= 10
    lowered = [math.nextafter(v, 0.0) for v in newton]
    after = subreturn_certificates(cleaned, certified, lowered)
    assert [h for h in certified if after[h] is None] == []


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
    return EqSystem(
        variables=tuple((k, "tl", k) for k in range(count)),
        equations=tuple(
            Equation(F(1, 4), (Monomial(F(3, 4), (k, k)),)) for k in range(count)
        ),
        heads=tuple((k, "tl") for k in range(count)),
        state_names=tuple(f"z{k}" for k in range(count)),
        alphabet=("tl",),
    )


@pytest.mark.parametrize(
    "system",
    [
        subcritical_copies(20),
        clean(
            build_system(
                translate(parse_definition("tree d = left(right(d (+ 3/4) d (+ 3/4) mk(b, d, d)))"))
            )
        )[0],
    ],
    ids=["single-exit", "multi-exit"],
)
def test_certificate_search_cost_does_not_grow_with_heads(monkeypatch, system):
    calls = 0  # applications of F to a whole candidate, one per walk step
    step = eqsys._grid_step

    def counting(rows, n):
        nonlocal calls
        calls += 1
        return step(rows, n)

    monkeypatch.setattr(eqsys, "_grid_step", counting)
    classes = classify_heads(system)
    certified = [c for c in classes.values() if isinstance(c, SubReturn) and c.certificate]
    assert len(certified) >= 4
    assert 0 < calls <= len(CERT_BUMPS) * (CERT_REFINE + 1)


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
    # reads it, so every head is decided sub-one.  x* lies within 2^-29 of
    # one, so both bumps cap the candidate at one, and each refinement step
    # lowers the chain by one link only: heads beyond CERT_REFINE links keep
    # a candidate of one and get no certificate.
    n = CERT_REFINE + 3  # x, then y_1 ... y_(CERT_REFINE + 2)
    equations = [Equation(F(1, 2) - F(1, 2**60), (Monomial(F(1, 2), (0, 0)),))]
    equations += [Equation(F(0), (Monomial(F(1), (k - 1,)),)) for k in range(1, n)]
    system = EqSystem(
        variables=tuple((k, "tl", k) for k in range(n)),
        equations=tuple(equations),
        heads=tuple((k, "tl") for k in range(n)),
        state_names=tuple(f"y{k}" for k in range(n)),
        alphabet=("tl",),
    )
    classes = classify_heads(system)
    for k in range(CERT_REFINE):
        cert = classes[(k, "tl")].certificate
        assert cert and certify_subreturn(system, (k, "tl"), cert), k
        # found by refinement steps, whose images are rounded up to the grid
        assert cert == reference_candidate(system, (k, "tl"), system.newton), k
    for k in range(CERT_REFINE, n):
        assert classes[(k, "tl")] == SubReturn(certificate=None), k


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
    cleaned.kleene  # `solve` still reads the system's Kleene values
    assert calls == 1


def expected_reason(s: EqSystem, head) -> str:
    """Why `head` stays undecided, from `head_vars` and `blocks` alone: it
    is multi-exit, or the block of its one variable holds a multi-exit
    head's variable, or that block reads a variable from which the
    dependency graph reaches one; "" if none of these holds."""
    head_vars = s.head_vars
    if len(head_vars[head]) > 1:
        return "multi_exit"
    multi = {v for vs in head_vars.values() if len(vs) > 1 for v in vs}
    (var,) = head_vars[head]
    block = next(set(b) for b in s.blocks if var in b)
    if block & multi:
        return "shares_block"
    seen = {f for v in block for f in s.dependencies[v]} - block
    work = list(seen)
    while work:
        for f in s.dependencies[work.pop()]:
            if f not in seen:
                seen.add(f)
                work.append(f)
    return "reads_undecided" if seen & multi else ""


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
    assert eqsys.nonnegative_contraction_feasible(scaled_stochastic(rows, F(1)))
    assert not eqsys.nonnegative_contraction_feasible(scaled_stochastic(rows, 1 + TINY))
    assert eqsys.nonnegative_contraction_feasible(scaled_stochastic(rows, 1 - TINY))


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
    answer = eqsys.nonnegative_contraction_feasible(b)
    if answer:
        assert radius <= 1
    if radius < 1:
        assert answer


def test_contraction_kernel_on_the_jordan_block():
    # reducible, spectral radius one, and no v >= 1 with B v <= v: the
    # elimination still answers True, which bounds the radius correctly
    assert eqsys.nonnegative_contraction_feasible([[F(1), F(1)], [F(0), F(1)]])


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
    assert eqsys.nonnegative_contraction_feasible(b) == fraction_contraction_feasible(b)


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
    assert eqsys.nonnegative_contraction_feasible(b) == expected
    assert fraction_contraction_feasible(b) == expected


def test_integer_kernel_matches_the_oracle_on_every_block_classify_tests(monkeypatch):
    """On the corpus and the seeded batch, every Jacobian `classify_heads`
    hands the spectral test equals its sum over `Fraction` coefficients,
    and the integer kernel answers as the `Fraction` oracle does."""
    seen = []
    jacobian = eqsys._internal_jacobian_at_one
    kernel = eqsys.nonnegative_contraction_feasible

    def recording_jacobian(s, comp):
        jac = jacobian(s, comp)
        local = {v: k for k, v in enumerate(comp)}
        expected = [[F(0)] * len(comp) for _ in comp]
        for v in comp:
            for m in s.equations[v].monomials:
                for f in m.factors:
                    if f in local:
                        expected[local[v]][local[f]] += m.coef
        assert jac == expected
        return jac

    def recording_kernel(b):
        answer = kernel(b)
        seen.append((b, answer))
        return answer

    monkeypatch.setattr(eqsys, "_internal_jacobian_at_one", recording_jacobian)
    monkeypatch.setattr(eqsys, "nonnegative_contraction_feasible", recording_kernel)
    for d in [*corpus().values(), *seeded_random_definitions(48)]:
        classify_heads(clean(build_system(translate(d)))[0])
    assert any(len(b) > 1 for b, _ in seen)
    for b, answer in seen:
        assert answer == fraction_contraction_feasible(b)


@settings(max_examples=150, deadline=None)
@given(definitions())
def test_integer_mass_test_matches_the_fraction_sum(d):
    built = build_system(translate(d))
    for s in (built, clean(built)[0]):
        for eq, row in zip(s.equations, s.integer_form):
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

    def excursion_batch(self, head: tuple[int, str], trials: int, horizon: int, seed: int):
        """Run `trials` excursions from (state, [symbol]) for up to `horizon`
        steps; returns (returned mask, landing states with -1 for timeouts)."""
        rng = np.random.default_rng(seed)
        q0, x0 = head
        tree = self.kind is Kind.TREE
        state = np.full(trials, q0, dtype=np.int32)
        height = np.ones(trials, dtype=np.int64)
        lanes = np.arange(trials)
        stack = None
        if tree:
            stack = np.zeros((trials, 4096), dtype=np.int8)
            stack[:, 0] = self.sym_index[x0]

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
            pick2 = (self.n_moves[row] == 2) & (rng.random(trials) >= self.prob1[row])
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

        returned = height == 0
        landing = np.where(returned, state, -1)
        return returned, landing


def test_head_classes_match_sampled_return_fractions():
    for name, seed in (("s14", 101), ("s12", 102), ("strap", 103), ("t2", 104)):
        d = corpus()[name]
        p = translate(d)
        cleaned, _ = clean(build_system(p))
        classes = classify_heads(cleaned)
        compiled = CompiledPpda(p)
        for head, cls in sorted(classes.items()):
            returned, _ = compiled.excursion_batch(head, 800, 30_000, seed)
            fraction = float(returned.mean())
            if isinstance(cls, AlmostSureReturn):
                assert fraction >= 0.95, (name, head, fraction)
            elif isinstance(cls, SubReturn):
                if cls.certificate == ():
                    bound = 0.0
                elif cls.certificate is None:
                    continue
                else:
                    bound = float(
                        sum(
                            c
                            for c, key in zip(cls.certificate, cleaned.variables)
                            if (key[0], key[1]) == head
                        )
                    )
                assert fraction <= bound + 0.05, (name, head, fraction, bound)


def test_solvers_stay_below_verified_certificates():
    # a verified pre-fixed point bounds both solvers from above
    for name in ("s14", "strap"):
        cleaned, _ = clean(build_system(translate(corpus()[name])))
        newton = newton_solve(cleaned)
        kleene, _ = kleene_solve(cleaned)
        for head, cls in classify_heads(cleaned).items():
            if isinstance(cls, SubReturn) and cls.certificate:
                cert = [float(c) for c in cls.certificate]
                assert all(n <= c + 1e-12 for n, c in zip(newton, cert))
                assert all(k <= c + 1e-12 for k, c in zip(kleene, cert))


@settings(max_examples=150, deadline=None)
@given(definitions(5))
def test_built_systems_draw_coefficients_from_probability_rows(d):
    # per equation, the constant, the linear coefficients, and one
    # representative per pushed-head group (a push expands into one
    # quadratic monomial per inner landing state, all with the same
    # transition probability) sum to at most one
    system = build_system(translate(d))
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
    for key in system.variables:
        assert key[1] in system.alphabet
