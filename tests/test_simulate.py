"""The lane-batched sampler against the step loop it replaced.

`reference_run_batch` is the earlier `CompiledDefinition.run_batch`, kept
as it was: per-step `rng.random(runs)` draws, byte-matrix tree stacks and a
gather per suffix depth.  The class-stack sampler must give exactly the same
(counts, tail counts, step totals) for the same seed.
"""

import numpy as np
import pytest

from asprod import simulate
from asprod.semantics import PeriodicWord, parse_policy
from asprod.simulate import DEFAULT_STACK_CAP, EV_OUT, CompiledDefinition
from asprod.syntax import parse_definition
from asprod.terms import Kind

from conftest import corpus, seeded_random_definitions


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


def reference_run_batch(compiled, runs, horizon, seed, policy=None):
    self = compiled
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


def _compiled_inputs():
    defs = list(corpus().values()) + seeded_random_definitions(24)
    return [CompiledDefinition(d) for d in defs + [parse_definition(READS_BOTH)]]


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
    assert len(compiled._keys) < 20_000
    for policy in POLICIES:
        assert_same(compiled, 7, 600, seed=11, policy=policy)


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
