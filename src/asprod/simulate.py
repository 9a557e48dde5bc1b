"""Lane-batched numpy samplers.

The per-run sampler in `semantics` is the readable reference; these compiled
simulators run many seeded lanes in lockstep so that long-horizon Monte
Carlo evidence stays cheap.

`CompiledDefinition` executes the term semantics one whole step per
categorical draw: for every rest core (the node a lane occupies between
events) and every class of entry-stack tops, the full within-step walk
(choice resolution, destructor bookkeeping, cancellations) is enumerated
ahead of time into a closure row whose outcomes record the observed event,
the successor core, how many entry symbols the step consumed and which
symbols it pushed.  A step then only classifies the stack top, samples a row
outcome, and applies the recorded stack delta.  Row probabilities are exact
rationals until the final float conversion.

Stream stacks are unary and kept as plain counters; tree stacks are byte
matrices that start at `DEFAULT_STACK_CAP` columns and grow on demand
(bounded by the horizon, since each step pushes a statically bounded number
of symbols).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .semantics import PeriodicWord, Policy, SamplerLimitError, UniformPolicy
from .terms import Choice, Cons, Definition, Kind, Mk, RecVar, Right, Term

OP_REC = 0
OP_CHOICE = 1
OP_EMIT = 2
OP_PUSH = 3

EV_SILENT = 0
EV_OUT = 1

DEFAULT_STACK_CAP = 4096
MAX_TABLE_OUTCOMES = 500_000


class _NeedDeeperSuffix(Exception):
    """A within-step walk consumed more entry symbols than the current class
    depth provides."""


def _grow(stack: np.ndarray, needed: int) -> np.ndarray:
    """Extend a lane-stack matrix so at least `needed` columns exist."""
    new_cap = max(2 * stack.shape[1], needed)
    wider = np.zeros((stack.shape[0], new_cap), dtype=np.int8)
    wider[:, : stack.shape[1]] = stack
    return wider


def _check_table_size(outcomes: int) -> None:
    if outcomes > MAX_TABLE_OUTCOMES:
        raise SamplerLimitError(
            f"closure table too large for the sampler (over {MAX_TABLE_OUTCOMES} outcomes)"
        )


def _policy_tables(policy: Policy | None):
    """Direction lookup for ultimately periodic words, vector form."""
    if policy is None or isinstance(policy, UniformPolicy):
        return None
    assert isinstance(policy, PeriodicWord)
    word = policy.prefix + policy.period
    dirs = np.array([0 if c == "L" else 1 for c in word], dtype=np.int64)
    return len(policy.prefix), len(policy.period), dirs


class CompiledDefinition:
    """Closure-table simulator for one definition."""

    def __init__(self, d: Definition):
        self.kind = d.kind
        self.n_syms = 1 if d.kind is Kind.STREAM else 2

        op: list[int] = []
        child_a: list[int] = []
        child_b: list[int] = []
        prob: list[Fraction] = []
        sym: list[int] = []
        terms: list[Term] = []

        def compile_node(t: Term) -> int:
            i = len(op)
            op.append(0)
            child_a.append(0)
            child_b.append(0)
            prob.append(Fraction(0))
            sym.append(0)
            terms.append(t)
            if isinstance(t, RecVar):
                op[i] = OP_REC
            elif isinstance(t, Choice):
                op[i] = OP_CHOICE
                prob[i] = t.prob
                child_a[i] = compile_node(t.left)
                child_b[i] = compile_node(t.right)
            elif isinstance(t, Cons):
                op[i] = OP_EMIT
                child_a[i] = compile_node(t.tail)
                child_b[i] = child_a[i]
            elif isinstance(t, Mk):
                op[i] = OP_EMIT
                child_a[i] = compile_node(t.left)
                child_b[i] = compile_node(t.right)
            else:
                op[i] = OP_PUSH
                sym[i] = 1 if isinstance(t, Right) else 0
                child_a[i] = compile_node(t.arg)
                child_b[i] = child_a[i]
            return i

        compile_node(d.body)
        self._op = op
        self._child_a = child_a
        self._child_b = child_b
        self._prob = prob
        self._sym = sym
        self.n_nodes = len(op)
        self._terms = terms
        self._build_tables()

    # -- closure construction ------------------------------------------------

    def _walk(self, i, known, exhausted, consumed, pushed, weight, out) -> None:
        k = self._op[i]
        if k == OP_REC:
            out.append((weight, EV_SILENT, 0, 0, consumed, tuple(pushed)))
        elif k == OP_CHOICE:
            p = self._prob[i]
            self._walk(self._child_a[i], known, exhausted, consumed, pushed, weight * p, out)
            self._walk(
                self._child_b[i], known, exhausted, consumed, pushed, weight * (1 - p), out
            )
        elif k == OP_PUSH:
            self._walk(
                self._child_a[i],
                known,
                exhausted,
                consumed,
                pushed + [self._sym[i]],
                weight,
                out,
            )
        else:  # OP_EMIT: cancel against pending destructors, else emit
            if pushed:
                s = pushed[-1]
                child = self._child_a[i] if s == 0 else self._child_b[i]
                self._walk(child, known, exhausted, consumed, pushed[:-1], weight, out)
            elif known:
                s = known[0]
                child = self._child_a[i] if s == 0 else self._child_b[i]
                self._walk(child, known[1:], exhausted, consumed + 1, pushed, weight, out)
            elif exhausted:
                out.append((weight, EV_OUT, self._child_a[i], self._child_b[i], consumed, ()))
            else:
                raise _NeedDeeperSuffix

    def _enumerate(self, depth: int):
        """Closure rows for entry classes of suffix depth `depth`."""
        m = self.n_syms
        classes: list[tuple[tuple[int, ...], bool]] = []
        for length in range(depth):
            for v in range(m**length):
                combo = tuple((v // m**j) % m for j in range(length))
                classes.append((combo, True))
        for v in range(m**depth):
            combo = tuple((v // m**j) % m for j in range(depth))
            classes.append((combo, False))

        rows = []
        for core in range(self.n_nodes):
            for combo, exhausted in classes:
                out: list = []
                self._walk(core, list(combo), exhausted, 0, [], Fraction(1), out)
                merged: dict = {}
                order = []
                for weight, ev, na, nb, con, push in out:
                    key = (ev, na, nb, con, push)
                    if key not in merged:
                        merged[key] = Fraction(0)
                        order.append(key)
                    merged[key] += weight
                rows.append([(merged[k], *k) for k in order])
        return classes, rows

    def _build_tables(self) -> None:
        depth = 0
        while True:
            # every row has at least one outcome, so the row count bounds
            # the table size before any row of this depth is built
            _check_table_size(self.n_nodes * sum(self.n_syms**k for k in range(depth + 1)))
            try:
                classes, rows = self._enumerate(depth)
                break
            except _NeedDeeperSuffix:
                depth += 1
                if depth > self.n_nodes + 1:
                    raise RuntimeError("entry-suffix depth failed to stabilize")
        _check_table_size(sum(len(r) for r in rows))
        self.suffix_depth = depth
        self.n_classes = len(classes)

        m = self.n_syms
        offsets = [0] * (depth + 1)
        for length in range(1, depth + 1):
            offsets[length] = offsets[length - 1] + m ** (length - 1)
        self._class_offset = np.array(offsets, dtype=np.int64)

        keys: list[float] = []
        ev: list[int] = []
        next_a: list[int] = []
        next_b: list[int] = []
        consumed: list[int] = []
        n_push: list[int] = []
        push_rows: list[tuple[int, ...]] = []
        self.max_push = max(
            (len(o[5]) for row in rows for o in row), default=0
        )
        for row_id, row in enumerate(rows):
            total = Fraction(0)
            for k, (weight, e, na, nb, con, push) in enumerate(row):
                total += weight
                cum = 1.0 if k == len(row) - 1 else float(total)
                keys.append(row_id + cum)
                ev.append(e)
                next_a.append(na)
                next_b.append(nb)
                consumed.append(con)
                n_push.append(len(push))
                push_rows.append(push + (0,) * (self.max_push - len(push)))
            assert total == 1, "closure row mass must be exactly one"
        self._keys = np.array(keys, dtype=np.float64)
        self._ev = np.array(ev, dtype=np.int8)
        self._next_a = np.array(next_a, dtype=np.int32)
        self._next_b = np.array(next_b, dtype=np.int32)
        self._consumed = np.array(consumed, dtype=np.int64)
        self._n_push = np.array(n_push, dtype=np.int64)
        self._push = np.array(push_rows, dtype=np.int8).reshape(
            len(push_rows), self.max_push
        )

    # -- batched execution ---------------------------------------------------

    def run_batch(self, runs: int, horizon: int, seed: int, policy: Policy | None = None):
        """Simulate `runs` lanes for `horizon` steps.

        Returns (per-lane output counts, per-lane outputs in the second half,
        per-step output totals).
        """
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

        for step_i in range(horizon):
            # entry class: known suffix of min(height, depth) top symbols
            length = np.minimum(height, depth)
            cid = self._class_offset[length]
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
