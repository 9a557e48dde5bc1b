"""Ground chain, qualitative verdicts, and the tiered decision procedure."""

import json
from fractions import Fraction

from hypothesis import given, settings

from asprod.cli import main
from asprod.decide import (
    AspResult,
    BuchiResult,
    GroundChain,
    Tier,
    buchi_verdict,
    decide_asp,
    exact_analysis,
    ground_chain,
)
from asprod.eqsys import build_system, classify_heads, clean
from asprod.measure import Tier1
from asprod.ppda import translate
from asprod.semantics import McHint
from asprod.syntax import parse_definition
from asprod.terms import Cons, RecVar, Tail

from conftest import CORPUS_TEXT, EXPECTED_VERDICT, corpus, definitions, seeded_random_definitions


def _chain(name):
    d = corpus()[name]
    p = translate(d)
    cleaned, _ = clean(build_system(p))
    classes = classify_heads(cleaned)
    return p, ground_chain(p, classes, cleaned)


def test_ground_chain_critical_drift():
    p, g = _chain("s12")
    choice, cons, rec, tail = (
        0,
        p.states.index(Cons("a", RecVar())),
        p.states.index(RecVar()),
        p.states.index(Tail(RecVar())),
    )
    assert set(g.nodes) == {choice, cons, rec, tail}
    assert set(g.edges[choice]) == {cons, tail}
    assert g.edges[cons] == (rec,)
    assert g.edges[tail] == (rec,)  # excursion return of the pushed head
    assert g.edges[rec] == (choice,)
    assert g.output_nodes == {cons}
    assert not g.diverge_sub and not g.diverge_unknown


def test_ground_chain_subcritical_adds_divergence():
    p, g = _chain("s14")
    tail = p.states.index(Tail(RecVar()))
    assert g.diverge_sub == {tail}
    assert not g.diverge_unknown


def test_ground_chain_silent_loop():
    _, g = _chain("srec")
    assert g.nodes == (0,)
    assert g.edges[0] == (0,)
    assert g.output_nodes == frozenset()


def test_ground_chain_trap_has_no_reachable_output():
    p, g = _chain("strap")
    rec = p.states.index(RecVar())
    assert set(g.nodes) == {0, rec}  # the constructor never sits at empty stack
    assert g.output_nodes == frozenset()
    assert not g.diverge_sub  # its pushed head returns with probability one


def _probed_successors(p, positivity, q):
    """A node's successors derived without the head index: for each push,
    every state is probed in the positivity map of `clean`'s set as a
    landing state."""
    out = []
    for m in p.rows[(q, None)]:
        if not m.push:
            out.append(m.target)
        else:
            y = m.push[0]
            out.extend(s for s in range(len(p.states)) if positivity.get((m.target, y, s)))
    return tuple(dict.fromkeys(out))


def _walked(g):
    """The nodes a search along `g.edges` reaches from `g.initial`."""
    seen = {g.initial}
    todo = [g.initial]
    while todo:
        for t in g.edges[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _check_chain_against_oracles(d):
    p = translate(d)
    candidates = build_system(p)
    cleaned, positive = clean(candidates)
    positivity = {v: v in positive for v in candidates.variables}
    g = ground_chain(p, classify_heads(cleaned), cleaned)
    assert set(g.nodes) == _walked(g), d
    for q in g.nodes:
        assert g.edges[q] == _probed_successors(p, positivity, q), (d, q)


# a pushed head of this stream has its variables built out of landing-state
# order, so its chain edges hold only if the exits are read in ascending order
UNSORTED_EXITS = (
    "stream s = (b : tail(tail(s)) (+ 7/12) "
    "b : tail(a : tail(tail(b : a : (s (+ 3/4) b : tail(s))))))"
)


def test_chain_exits_and_nodes_match_oracles():
    defs = [*corpus().values(), *seeded_random_definitions(48), parse_definition(UNSORTED_EXITS)]
    for d in defs:
        _check_chain_against_oracles(d)


@settings(max_examples=100, deadline=None)
@given(definitions())
def test_chain_exits_and_nodes_match_oracles_fuzz(d):
    _check_chain_against_oracles(d)


def test_buchi_verdicts_on_corpus_chains():
    expected = {
        "s12": BuchiResult.ALMOST_SURE,
        "s14": BuchiResult.NOT_ALMOST_SURE,
        "srec": BuchiResult.NOT_ALMOST_SURE,
        "strap": BuchiResult.NOT_ALMOST_SURE,
        "t1": BuchiResult.ALMOST_SURE,
        "t2": BuchiResult.ALMOST_SURE,
    }
    for name, want in expected.items():
        _, g = _chain(name)
        assert buchi_verdict(g) is want, name


def _synthetic_chain(diverge_sub=(), diverge_unknown=(), outputs=(1,)):
    # 0 -> 1 -> 0 with optional divergence flags
    return GroundChain(
        nodes=(0, 1),
        edges={0: (1,), 1: (0,)},
        diverge_sub=frozenset(diverge_sub),
        diverge_unknown=frozenset(diverge_unknown),
        output_nodes=frozenset(outputs),
        initial=0,
        state_names=("n0", "n1"),
    )


def test_buchi_rules_on_synthetic_chains():
    assert buchi_verdict(_synthetic_chain()) is BuchiResult.ALMOST_SURE
    assert (
        buchi_verdict(_synthetic_chain(diverge_sub={1}))
        is BuchiResult.NOT_ALMOST_SURE
    )
    assert (
        buchi_verdict(_synthetic_chain(diverge_unknown={1}))
        is BuchiResult.UNKNOWN
    )
    assert (
        buchi_verdict(_synthetic_chain(outputs=()))
        is BuchiResult.NOT_ALMOST_SURE
    )


def test_buchi_is_antitone_in_pessimism():
    # adding unknown-marked divergence never upgrades a negative verdict
    for sub in (frozenset(), frozenset({1})):
        for outputs in ((), (1,)):
            base = _synthetic_chain(diverge_sub=sub, outputs=outputs)
            marked = _synthetic_chain(
                diverge_sub=sub, diverge_unknown={0}, outputs=outputs
            )
            order = {
                BuchiResult.NOT_ALMOST_SURE: 0,
                BuchiResult.UNKNOWN: 1,
                BuchiResult.ALMOST_SURE: 2,
            }
            assert order[buchi_verdict(marked)] <= order[buchi_verdict(base)]
            assert (buchi_verdict(base) is BuchiResult.NOT_ALMOST_SURE) == (
                buchi_verdict(marked) is BuchiResult.NOT_ALMOST_SURE
            )


# ---------------------------------------------------------------------------
# the decision procedure


def test_corpus_verdicts():
    for name, d in corpus().items():
        v = decide_asp(d)
        assert v.result.value == EXPECTED_VERDICT[name], name


def test_tier_attribution():
    c = corpus()
    v34 = decide_asp(c["s34"])
    assert v34.tier is Tier.MEASURE and v34.tier1 is Tier1.ASP
    assert v34.tier2 is not None and v34.tier2.buchi is BuchiResult.ALMOST_SURE
    v12 = decide_asp(c["s12"])
    assert v12.tier is Tier.EXACT and v12.tier1 is Tier1.ABSTAIN
    assert v12.result is AspResult.ASP


def test_retry_family_is_asp_for_all_biases():
    for p in ("1/10", "1/2", "9/10"):
        d = parse_definition(f"stream s = (a : s) (+ {p}) s")
        v = decide_asp(d)
        assert v.result is AspResult.ASP
        assert v.tier is Tier.MEASURE  # measure equals the bias, positive
        assert v.tier2.buchi is BuchiResult.ALMOST_SURE


def test_drift_family_boundary():
    for p, want in (
        ("1/10", AspResult.NOT_ASP),
        ("1/4", AspResult.NOT_ASP),
        ("2/5", AspResult.NOT_ASP),
        ("1/2", AspResult.ASP),
        ("3/5", AspResult.ASP),
        ("3/4", AspResult.ASP),
        ("9/10", AspResult.ASP),
    ):
        d = parse_definition(f"stream s = (a : s) (+ {p}) tail(s)")
        assert decide_asp(d).result is want, p


def test_trap_regression():
    # zero measure and an almost-surely-returning excursion, yet never
    # productive: the chain has no reachable output node
    v = decide_asp(corpus()["strap"])
    assert v.result is AspResult.NOT_ASP
    assert v.measure == 0


def test_second_tree_example_decided_exactly():
    v = decide_asp(corpus()["t2"])
    assert v.result is AspResult.ASP
    assert v.tier is Tier.EXACT
    assert v.measure == Fraction(-1, 4)


def test_tier1_tier2_agree_on_corpus():
    for name, d in corpus().items():
        v = decide_asp(d)  # the exact tier always runs: disagreement would raise
        if v.tier1 is Tier1.ASP:
            assert v.tier2.buchi is BuchiResult.ALMOST_SURE, name


def check_entry(tmp_path, capsys, text, *flags):
    """`check --json`'s exit code and one entry, for the definition `text`."""
    path = tmp_path / "d.defs"
    path.write_text(text + "\n")
    capsys.readouterr()
    code = main(["check", "--json", *flags, str(path)])
    [entry] = json.loads(capsys.readouterr().out)["definitions"]
    return code, entry


def test_unknown_verdict_runs_tier3(tmp_path, capsys):
    # `decide_asp` decides with tiers 1 and 2 alone; tier 3 is `check`'s
    text = "stream u = (a : u) (+ 1/2) tail(tail(tail((a : b : u) (+ 1/2) c : d : u)))"
    v = decide_asp(parse_definition(text))
    assert v.result is AspResult.UNKNOWN and v.tier is Tier.EXACT
    code, entry = check_entry(tmp_path, capsys, text, "--mc-runs", "40", "--mc-horizon", "2000")
    assert code == 2 and entry["verdict"] == "unknown"
    assert entry["tier"] == "statistical_only"
    assert entry["tier3"] is not None  # evidence attached, never a proof
    code, off = check_entry(tmp_path, capsys, text, "--no-tier3")
    assert code == 2 and off["verdict"] == "unknown"
    assert off["tier"] == "exact" and off["tier3"] is None


def test_force_tier3_attaches_evidence_to_decided_verdicts(tmp_path, capsys):
    flags = ("--force-tier3", "--mc-runs", "20", "--mc-horizon", "500")
    code, entry = check_entry(tmp_path, capsys, CORPUS_TEXT["spure"], *flags)
    assert code == 0 and entry["verdict"] == "asp" and entry["tier"] == "measure"
    assert entry["tier3"]["hint"] == McHint.NO_EVIDENCE_AGAINST_ASP.value


def test_verdicts_match_simulation_direction():
    # Monte Carlo evidence must not contradict decided verdicts on the
    # corpus, away from the critical boundary where the tail-silence
    # statistic is uninformative (ASP with null-recurrent output times)
    from asprod.simulate import CompiledDefinition, monte_carlo_jobs

    c = corpus()
    expected = dict.fromkeys(("s34", "scoin", "spure", "t1", "t2"), McHint.NO_EVIDENCE_AGAINST_ASP)
    expected |= dict.fromkeys(("s14", "srec", "strap"), McHint.EVIDENCE_AGAINST_ASP)
    # every (definition, seed) pair runs in one lane batch
    runs = [(name, seed) for name in expected for seed in (1, 2, 3)]
    compiled = {name: CompiledDefinition(c[name]) for name in expected}
    reports = monte_carlo_jobs([(compiled[name], seed) for name, seed in runs], 200, 10_000)
    for (name, seed), mc in zip(runs, reports):
        assert mc.hint is expected[name], (name, seed)


def test_exact_analysis_is_pure_per_definition():
    d = corpus()["t2"]
    a = exact_analysis(d)
    b = exact_analysis(d)
    assert a.buchi == b.buchi
    assert a.classes == b.classes
    assert a.chain.edges == b.chain.edges


@settings(max_examples=100, deadline=None)
@given(definitions(4))
def test_decide_fuzz_consistency(d):
    # end-to-end bug trap: tier disagreement raises inside decide_asp, the
    # ground chain stays total, and the verdict invariants hold
    v = decide_asp(d)
    if v.tier is Tier.MEASURE:
        assert v.measure > 0 and v.result is AspResult.ASP
    chain = v.tier2.chain if v.tier2 else None
    if chain is not None:
        for node in chain.nodes:
            has_successor = bool(chain.edges.get(node))
            diverges = node in chain.diverge_sub or node in chain.diverge_unknown
            assert has_successor or diverges
        assert chain.output_nodes <= set(chain.nodes)


def test_seeded_corpus_verdicts_match_gross_simulation_evidence():
    # deterministic end-to-end soundness check on a fixed pseudo-random
    # corpus: productive definitions must actually produce, and definitions
    # rejected with clearly negative drift must dry up in most runs
    from fractions import Fraction as F

    from conftest import seeded_random_definitions
    from asprod.semantics import monte_carlo

    for d in seeded_random_definitions(40):
        v = decide_asp(d)
        reports = [monte_carlo(d, 100, 3000, seed=s) for s in (5, 6)]
        if v.result is AspResult.ASP:
            assert sum(sum(m.output_counts) for m in reports) > 0, d
        elif v.result is AspResult.NOT_ASP and v.measure <= F(-1, 6):
            assert all(m.tail_silence > 0.5 for m in reports), d
