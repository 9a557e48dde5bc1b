"""The lane-batched sampler against the step loop it replaced.

`reference_run_batch` is the earlier `CompiledDefinition.run_batch`, kept
as it was: per-step `rng.random(runs)` draws, byte-matrix tree stacks, a
gather per suffix depth and a `searchsorted` pick over float keys, on
tables built from the closure rows as the compiler once built them.  The
batched sampler must give exactly the same (counts, tail counts, step
totals) for the same seed, whether a job runs alone or with others.
"""

from fractions import Fraction

import numpy as np
import pytest

from asprod import simulate
from asprod.semantics import PeriodicWord, parse_policy
from asprod.simulate import (
    DEFAULT_STACK_CAP,
    EV_OUT,
    CompiledDefinition,
    run_jobs,
)
from asprod.syntax import parse_definition
from asprod.terms import Kind

from conftest import CORPUS_TEXT, corpus, seeded_random_definitions


def _grow(stack: np.ndarray, needed: int) -> np.ndarray:
    """Extend a lane-stack matrix so at least `needed` columns exist."""
    new_cap = max(2 * stack.shape[1], needed)
    wider = np.zeros((stack.shape[0], new_cap), dtype=np.int8)
    wider[:, : stack.shape[1]] = stack
    return wider


def _policy_tables(policy):
    if policy is None or not isinstance(policy, PeriodicWord):
        return None
    word = policy.prefix + policy.period
    dirs = np.array([0 if c == "L" else 1 for c in word], dtype=np.int64)
    return len(policy.prefix), len(policy.period), dirs


class ReferenceTables:
    """The earlier per-outcome tables: the outcomes of the row with id r
    (state * number of classes + class) have keys r + their cumulative
    weight, in ascending order, and name successor states, not rows."""

    def __init__(self, compiled):
        _, classes, rows = compiled._closure()
        self.kind = compiled.kind
        self.suffix_depth = compiled.suffix_depth
        self.n_syms = compiled.n_syms
        self.n_classes = len(classes)
        self.max_push = compiled.max_push
        keys, ev, next_a, next_b, consumed, n_push, push = ([] for _ in range(7))
        for row_id, row in rows.items():
            total = Fraction(0)
            for k, (weight, e, na, nb, con, pushed) in enumerate(row):
                total += weight
                keys.append(row_id + (1.0 if k == len(row) - 1 else float(total)))
                ev.append(e)
                next_a.append(na)
                next_b.append(nb)
                consumed.append(con)
                n_push.append(len(pushed))
                push.append(pushed + (0,) * (self.max_push - len(pushed)))
        self._keys = np.array(keys, dtype=np.float64)
        self._ev = np.array(ev, dtype=np.int8)
        self._next_a = np.array(next_a, dtype=np.int32)
        self._next_b = np.array(next_b, dtype=np.int32)
        self._consumed = np.array(consumed, dtype=np.int64)
        self._n_push = np.array(n_push, dtype=np.int64)
        self._push = np.array(push, dtype=np.int8).reshape(len(push), self.max_push)


def reference_run_batch(compiled, runs, horizon, seed, policy=None):
    self = ReferenceTables(compiled)
    rng = np.random.default_rng(seed)
    tree = self.kind is Kind.TREE
    policy_tab = _policy_tables(policy) if tree else None
    depth = self.suffix_depth

    core = np.zeros(runs, dtype=np.int64)
    height = np.zeros(runs, dtype=np.int64)
    stack = np.zeros((runs, DEFAULT_STACK_CAP), dtype=np.int8) if tree else None
    lanes = np.arange(runs)
    counts = np.zeros(runs, dtype=np.int64)
    tail_counts = np.zeros(runs, dtype=np.int64)
    step_totals = np.zeros(horizon, dtype=np.float64)
    out_idx = np.zeros(runs, dtype=np.int64)
    half = horizon // 2
    cap_margin = 128 * max(self.max_push, 1)
    # the first class id of each known-suffix length: the classes of length
    # k < depth number n_syms ** k and come before the longer ones
    class_offset = np.zeros(depth + 1, dtype=np.int64)
    for length in range(1, depth + 1):
        class_offset[length] = class_offset[length - 1] + self.n_syms ** (length - 1)

    for step_i in range(horizon):
        # entry class: known suffix of min(height, depth) top symbols
        length = np.minimum(height, depth)
        cid = class_offset[length]
        if tree and depth > 0:
            for j in range(depth):
                pos = np.maximum(height - 1 - j, 0)
                s = stack[lanes, pos].astype(np.int64)
                cid = cid + np.where(height > j, s << j, 0)
        row = core * self.n_classes + cid

        pick = np.searchsorted(self._keys, row + rng.random(runs), side="right")
        is_out = self._ev[pick] == EV_OUT
        if tree:
            if policy_tab is None:
                go_right = is_out & (rng.random(runs) < 0.5)
            else:
                pre, per, dirs = policy_tab
                pos = np.where(out_idx < pre, out_idx, pre + (out_idx - pre) % per)
                go_right = is_out & (dirs[pos] == 1)
                out_idx += is_out
            core = np.where(go_right, self._next_b[pick], self._next_a[pick])
        else:
            core = self._next_a[pick]

        base = height - self._consumed[pick]
        n_push = self._n_push[pick]
        if tree:
            for j in range(self.max_push):
                mask = n_push > j
                if mask.any():
                    idx = np.nonzero(mask)[0]
                    stack[idx, base[idx] + j] = self._push[pick[idx], j]
        height = base + n_push

        counts += is_out
        step_totals[step_i] = is_out.sum()
        if step_i >= half:
            tail_counts += is_out
        if (
            tree
            and step_i % 128 == 0
            and int(height.max()) + cap_margin >= stack.shape[1]
        ):
            stack = _grow(stack, int(height.max()) + 2 * cap_margin)
    return counts, tail_counts, step_totals


def assert_same(compiled, runs, horizon, seed, policy):
    got = compiled.run_batch(runs, horizon, seed, policy)
    want = reference_run_batch(compiled, runs, horizon, seed, policy)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


POLICIES = [None, parse_policy("LR"), parse_policy("RRL|LR")]
SHAPES = [(1, 100), (7, 257), (200, 3000)]


# the constructor reached through a pending `left` and the one reached
# through a pending `right` behave differently, so every entry class counts
READS_BOTH = "tree lr = (left(lr) (+ 1/2) right(lr)) (+ 2/5) mk(a, mk(b, lr, right(lr)), lr)"
# the body's row at the empty class has cumulative weights 1/999000 and
# 1/999, both inside the first guide cell
SHARED_CELL = "stream s = (a : s (+ 1/1000) s) (+ 1/999) tail(s)"


def _compiled_inputs():
    defs = list(corpus().values()) + seeded_random_definitions(24)
    extra = [parse_definition(READS_BOTH), parse_definition(SHARED_CELL)]
    return [CompiledDefinition(d) for d in defs + extra]


@pytest.fixture(scope="module")
def compiled_inputs():
    return _compiled_inputs()


@pytest.mark.parametrize("runs,horizon", SHAPES)
def test_run_batch_matches_reference(compiled_inputs, runs, horizon):
    for i, compiled in enumerate(compiled_inputs):
        policies = POLICIES if compiled.kind is Kind.TREE else [None]
        if runs * horizon > 100_000:  # the widest shape takes one policy per tree, in turn
            policies = [policies[i % len(policies)]]
        for policy in policies:
            assert_same(compiled, runs, horizon, seed=100 + i, policy=policy)


def test_run_batch_matches_reference_past_stack_cap():
    # pushes a pending `left` on most steps, so the stack climbs past the
    # initial capacity well within the horizon
    d = parse_definition("tree up = left(up) (+ 9/10) mk(x, up, up)")
    compiled = CompiledDefinition(d)
    assert_same(compiled, 3, DEFAULT_STACK_CAP * 2, seed=5, policy=None)
    assert_same(compiled, 3, DEFAULT_STACK_CAP * 2, seed=5, policy=parse_policy("RL"))


def test_run_batch_matches_reference_with_wide_class_ids():
    # eight nested constructors consume up to eight entry symbols in a
    # step, so there are more classes than an 8-bit class cell holds
    inner = "deep"
    for _ in range(8):
        inner = f"mk(a, {inner}, deep)"
    d = parse_definition(f"tree deep = (left(deep) (+ 1/2) right(deep)) (+ 1/2) {inner}")
    compiled = CompiledDefinition(d)
    assert compiled.n_classes > 255
    assert compiled._push_class.dtype.itemsize > 1
    for policy in POLICIES:
        assert_same(compiled, 7, 600, seed=11, policy=policy)


def test_nested_mk_builds_only_reachable_rows():
    # twelve nested constructors need an entry suffix twelve symbols deep;
    # a lane holds the body under any class, but every other state only
    # under the empty class, so most of the row-id space is never built
    inner = "t"
    for _ in range(12):
        inner = f"mk(a, {inner}, t)"
    compiled = CompiledDefinition(parse_definition(f"tree t = left(left(t)) (+ 1/2) {inner}"))
    assert compiled.suffix_depth == 12
    assert len(compiled._cum) < 20_000
    for policy in POLICIES:
        assert_same(compiled, 7, 600, seed=11, policy=policy)


def _many_small(k):
    """A stream whose body emits into k distinct successors, tail^i(s) for
    i < k, each with weight 1/10000, and else consumes."""
    body = "tail(s)"
    for i in reversed(range(k)):
        body = f"(a : {'tail(' * i}s{')' * i}) (+ 1/{10000 - i}) ({body})"
    return f"stream s = {body}"


# forty cumulative weights inside the body row's first guide cell
MANY_SMALL = _many_small(40)


# a batch mixes both lane kinds, streams with a counter and trees with a
# class stack, and jobs at suffix depth 0 of either kind, which get no lanes
MIXED = [
    "stream strap = tail(a : strap)",
    "stream g6 = tail((tail(g6) (+ 7/12) g6))",
    "stream s14 = (a : s14) (+ 1/4) tail(s14)",
    "stream g0 = b : tail(a : b : (b : a : tail(tail(a : g0)) (+ 1/12) (a : g0 (+ 3/4) tail(g0))))",
    SHARED_CELL,
    "tree t2 = left(t2) (+ 1/4) mk(x, t2, left(t2))",
    READS_BOTH,
    "tree g3 = left((g3 (+ 11/12) right(left(right(g3)))))",
    "tree g7 = right(mk(a, mk(a, right(mk(b, g7, g7)), g7 (+ 1/4) g7), mk(b, right(g7), g7)))",
]


@pytest.mark.parametrize("policy", [None, parse_policy("RRL|LR")])
@pytest.mark.parametrize(
    "max_lanes,batch_outcomes",
    # at 20 lanes the jobs run two at a time; at 30 outcomes a batch closes
    # once its definitions hold 30, so the larger ones run alone
    [(simulate.MAX_LANES, simulate.BATCH_OUTCOMES), (20, simulate.BATCH_OUTCOMES), (90, 30)],
)
def test_batched_jobs_match_jobs_run_alone(monkeypatch, policy, max_lanes, batch_outcomes):
    monkeypatch.setattr(simulate, "MAX_LANES", max_lanes)
    monkeypatch.setattr(simulate, "BATCH_OUTCOMES", batch_outcomes)
    compiled = [CompiledDefinition(parse_definition(text)) for text in MIXED + [MANY_SMALL]]
    assert {(c.kind, c.suffix_depth > 0) for c in compiled} == {
        (Kind.STREAM, False),
        (Kind.STREAM, True),
        (Kind.TREE, False),
        (Kind.TREE, True),
    }
    # the tree kinds first, so the batch reorders its lanes by kind
    jobs = [(c, seed) for seed in (7, 8) for c in reversed(compiled)]
    taken = []

    def lazily():
        for job in jobs:
            taken.append(job)
            yield job

    batched = []
    for job, result in run_jobs(lazily(), 9, 700, policy):
        assert job == jobs[len(batched)]  # each result comes with its job, in job order
        batched.append(result)
        # no job is taken before its batch runs, and a batch is at most
        # `max_lanes` lanes
        assert len(taken) < len(batched) + max_lanes // 9
    assert len(batched) == len(jobs)
    for (c, seed), got in zip(jobs, batched):
        alone = c.run_batch(9, 700, seed, policy)
        for g, w in zip(got, alone):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    shared = compiled[MIXED.index(SHARED_CELL)]
    assert simulate._guide(shared._cum, shared._row_len)[2] >= 2
    assert_same(shared, 9, 700, seed=7, policy=None)
    # a pick in the first cell of the body's row bisects forty outcomes
    many = compiled[-1]
    assert simulate._guide(many._cum, many._row_len)[2] >= 32
    assert_same(many, 9, 700, seed=7, policy=None)


@pytest.mark.parametrize("policy", [None, parse_policy("RRL|LR")])
def test_jobs_that_cannot_output_get_no_generator(monkeypatch, policy):
    compiled = [CompiledDefinition(parse_definition(text)) for text in MIXED]
    jobs = [(c, seed) for seed, c in enumerate(compiled)]
    silent = [(c, seed) for c, seed in jobs if c.suffix_depth == 0]
    assert {(c.kind, c.suffix_depth > 0) for c in compiled} == {
        (Kind.STREAM, False),
        (Kind.STREAM, True),
        (Kind.TREE, False),
        (Kind.TREE, True),
    }
    # no built row of a definition at suffix depth 0 outputs
    assert not any(c._is_out.any() for c, _ in silent)
    want = {seed: reference_run_batch(c, 9, 300, seed, policy) for c, seed in silent}
    seeded = []
    default_rng = np.random.default_rng

    def recorded(seed):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(simulate.np.random, "default_rng", recorded)
    got = {seed: result for (_, seed), result in run_jobs(jobs, 9, 300, policy)}
    assert sorted(seeded) == [seed for c, seed in jobs if c.suffix_depth > 0]
    # a batch of such jobs alone runs no lanes at all
    alone = {seed: result for (_, seed), result in run_jobs(silent, 9, 300, policy)}
    assert len(seeded) == len(jobs) - len(silent)
    for results in (got, alone):
        for seed, w in want.items():
            for g, r in zip(results[seed], w):
                assert g.dtype == r.dtype
                np.testing.assert_array_equal(g, r)


def test_batches_close_at_the_lane_and_outcome_bounds(monkeypatch):
    monkeypatch.setattr(simulate, "MAX_LANES", 40)
    monkeypatch.setattr(simulate, "BATCH_OUTCOMES", 30)
    compiled = [CompiledDefinition(parse_definition(text)) for text in MIXED + [MANY_SMALL]]
    jobs = [(c, seed) for seed in (7, 8) for c in compiled]
    batches = [list(b) for b in simulate._batches(iter(jobs), 9)]
    assert [job for b in batches for job in b] == jobs
    for b in batches:
        outcomes = [len(c._cum) for c in {id(c): c for c, _ in b}.values()]
        # at most four jobs of nine lanes, closed by a fourth job or by
        # the definition that brought the batch to 30 outcomes
        assert len(b) <= 4
        assert sum(outcomes[:-1]) < 30
        if b is not batches[-1]:
            assert len(b) == 4 or sum(outcomes) >= 30
    assert any(len(b) == 4 for b in batches) and any(len(b) < 4 for b in batches[:-1])
    # a batch is emptied once the next is asked for, so its definitions can
    # be freed while the next batch is compiled
    taken = simulate._batches(iter(jobs), 9)
    first = next(taken)
    next(taken)
    assert first == []


@pytest.mark.parametrize("budget", [None, (1, 1)])
def test_guide_picks_the_first_outcome_above_the_draw(monkeypatch, budget):
    # the smallest budget leaves one cell per row, a search from the row's
    # first outcome
    if budget is not None:
        monkeypatch.setattr(simulate, "GUIDE_ENTRIES", budget[0])
        monkeypatch.setattr(simulate, "GUIDE_PER_OUTCOME", budget[1])
    texts = MIXED + [MANY_SMALL] + list(CORPUS_TEXT.values())
    for compiled in (CompiledDefinition(parse_definition(text)) for text in texts):
        cum, row_len = compiled._cum, compiled._row_len
        guide, cells, corrections = simulate._guide(cum, row_len)
        row_last = np.cumsum(row_len) - 1
        starts = row_last + 1 - row_len
        for r, (start, length) in enumerate(zip(starts, row_len)):
            row_cum = cum[start : start + length]
            edges = np.concatenate([np.arange(cells) / cells, row_cum])
            draws = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
            draws = draws[(draws >= 0) & (draws < 1)]
            rows = np.full(len(draws), r)
            picks = guide[(draws * cells).astype(np.int64) * len(row_len) + r]
            picks = simulate._search(picks, draws, cum, row_last, rows, corrections)
            want = start + np.searchsorted(row_cum, draws, side="right")
            np.testing.assert_array_equal(picks, want, err_msg=str(r))
    if budget is not None:
        assert cells == 1
        for compiled in _compiled_inputs():
            assert_same(compiled, 7, 257, seed=3, policy=parse_policy("RRL|LR"))


def _walk_calls(text):
    """Compile `text`, counting the calls of the closure walk."""
    calls = []
    walk = CompiledDefinition._walk

    def counted(self, *args):
        calls.append(None)
        return walk(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledDefinition, "_walk", counted)
        compiled = CompiledDefinition(parse_definition(text))
    return compiled, len(calls)


def test_compile_walks_the_body_once():
    # a chain of constructors reads one entry symbol per constructor, so
    # its suffix depth is its length; the walk still visits each node once
    chain, calls = _walk_calls("stream s = " + "a : " * 200 + "s")
    assert chain.suffix_depth == 200
    assert calls <= 1_000
    inner = "t"
    for _ in range(13):
        inner = f"mk(a, {inner}, t)"
    nested, calls = _walk_calls(f"tree t = left(left(t)) (+ 1/2) {inner}")
    assert nested.suffix_depth == 13
    assert calls <= 200
    # every constructor successor's walk cancels its way to the end of the
    # body; the walks share each state's walk at the empty stack
    shared, calls = _walk_calls("stream s = " + "a : tail(" * 100 + "s" + ")" * 100)
    assert shared.suffix_depth == 1
    assert calls <= 1_000


class _AlmostOne:
    """A generator stub whose every draw is the largest double below one."""

    def __init__(self, seed):
        pass

    def random(self, size):
        return np.full(size, 1 - 2**-53)


def _last_outcome_walk(compiled, horizon, policy):
    """One lane that always takes the last outcome of its own row, with
    rows located from the closure enumeration, not from the sampler's
    float keys; under the uniform policy a tree output turns left, as a
    coin draw of 0.5 or more does."""
    _, classes, rows = compiled._closure()
    index = {c: i for i, c in enumerate(classes)}
    word = None
    if compiled.kind is Kind.TREE and policy is not None:
        word = policy.prefix + policy.period
    core, stack, outputs, emitted = 0, [], [], 0
    for _ in range(horizon):
        length = min(len(stack), compiled.suffix_depth)
        known = tuple(reversed(stack[len(stack) - length :]))
        exhausted = length < compiled.suffix_depth
        _, ev, na, nb, consumed, pushed = rows[core * len(classes) + index[(known, exhausted)]][-1]
        right = False
        if word is not None and ev == EV_OUT:
            pre = len(policy.prefix)
            k = emitted if emitted < pre else pre + (emitted - pre) % len(policy.period)
            right = word[k] == "R"
        emitted += ev == EV_OUT
        core = nb if right else na
        if consumed:
            del stack[-consumed:]
        stack.extend(pushed)
        outputs.append(int(ev == EV_OUT))
    return outputs


@pytest.mark.parametrize("name", sorted(corpus()))
def test_picks_stay_in_their_row_when_a_draw_rounds_up(monkeypatch, name):
    compiled = CompiledDefinition(corpus()[name])
    monkeypatch.setattr(simulate.np.random, "default_rng", _AlmostOne)
    policies = POLICIES if compiled.kind is Kind.TREE else [None]
    for policy in policies:
        counts, tail_counts, step_totals = compiled.run_batch(3, 300, 0, policy)
        outputs = _last_outcome_walk(compiled, 300, policy)
        assert counts.tolist() == [sum(outputs)] * 3
        assert tail_counts.tolist() == [sum(outputs[150:])] * 3
        assert step_totals.tolist() == [3.0 * o for o in outputs]
