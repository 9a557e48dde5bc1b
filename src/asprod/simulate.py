"""Lane-batched numpy samplers.

The per-run sampler in `semantics` is the readable reference; these compiled
simulators run many seeded lanes in lockstep so that long-horizon Monte
Carlo evidence stays cheap.

`CompiledDefinition` samples a definition's pPDA (`ppda.translate`) one
whole term step per categorical draw.  The within-step walk over the
automaton's silent moves (choices, destructor pushes, constructors that
cancel a pending destructor or consume an entry symbol) is enumerated ahead
of time into closure rows, keyed by a pPDA state and an entry class (the
top symbols of the stack, up to the suffix depth).  A row's outcomes record
the observed event, the successor state, how many entry symbols the step
consumed and which symbols it pushed.  Only rows a lane can reach are
built: a silent step restarts at the body, state 0, under any entry class,
and an output consumes the whole entry stack, so it leads to a constructor
successor at the empty stack.  One walk of the body covers every entry
stack: where a constructor meets no pending destructor, the walk records an
output, as the stack may end there, and goes on under each symbol the stack
could hold next.  The suffix depth is one more than the deepest such read,
and each class's row is read off the outcomes whose entry symbols fit it.
Each constructor successor is walked once, at the empty stack.  A step then
only classifies the stack top, samples a row outcome, and applies the
recorded stack delta.  Row probabilities are exact rationals until the
final float conversion.

Randomness is drawn in blocks of `CHUNK` steps, `rng.random((chunk, draws,
runs))`, which yields the same numbers in the same order as one
`rng.random(runs)` call per draw per step, so reports do not depend on the
block size.  Stream stacks are unary and kept as plain counters.  Tree
stacks are class stacks: one flat, height-major array per batch whose cell
at height h holds the entry class of the lane's stack cut to height h (cell
0 is the empty class), so the entry class is a single gather and a push is
a lookup in a (class below, symbol) table.  Class stacks start at
`DEFAULT_STACK_CAP` heights and grow on demand (bounded by the horizon,
since each step pushes a statically bounded number of symbols).  Output
tallies are taken once per block.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ppda import translate
from .semantics import PeriodicWord, Policy, SamplerLimitError, UniformPolicy
from .terms import Definition, Kind

EV_SILENT = 0
EV_OUT = 1

DEFAULT_STACK_CAP = 4096
CHUNK = 256  # steps per block of random draws and of output tallies
MAX_TABLE_OUTCOMES = 500_000


def _grow(stack: np.ndarray, runs: int, needed: int) -> np.ndarray:
    """Extend a height-major class stack so at least `needed` heights exist."""
    wider = np.zeros(max(2 * len(stack), needed * runs), dtype=stack.dtype)
    wider[: len(stack)] = stack
    return wider


def _check_table_size(outcomes: int) -> None:
    if outcomes > MAX_TABLE_OUTCOMES:
        raise SamplerLimitError(
            f"closure table too large for the sampler (over {MAX_TABLE_OUTCOMES} outcomes)"
        )


def _merge(outcomes) -> list:
    """A closure row from (weight, outcome) pairs: equal outcomes merged,
    their weights summed, in order of first occurrence."""
    merged: dict = {}
    for weight, outcome in outcomes:
        merged[outcome] = merged.get(outcome, 0) + weight
    return [(w, *o) for o, w in merged.items()]


def _policy_tables(policy: Policy | None):
    """Direction lookup for ultimately periodic words, vector form."""
    if policy is None or isinstance(policy, UniformPolicy):
        return None
    assert isinstance(policy, PeriodicWord)
    word = policy.prefix + policy.period
    dirs = np.array([0 if c == "L" else 1 for c in word], dtype=np.int64)
    return len(policy.prefix), len(policy.period), dirs


class CompiledDefinition:
    """Closure-table simulator for one definition, compiled from its pPDA."""

    def __init__(self, d: Definition):
        self.kind = d.kind
        self.ppda = p = translate(d)
        self.n_syms = len(p.alphabet)
        self.n_states = len(p.states)
        # the states a constructor moves to, by the code of the symbol it
        # reads; at the empty stack these are an output's successors
        self._succ = {
            q: tuple(p.rows[(q, x)][0].target for x in p.alphabet)
            for q in range(self.n_states)
            if p.is_constructor(q)
        }
        self._build_tables()

    # -- closure construction ------------------------------------------------

    def _walk(self, q, read, pushed, weight, out, more) -> None:
        """Append each outcome of a within-step walk from state `q` to `out`
        with the entry symbols it read; `more` says whether the entry stack
        may go on where the walk finds it."""
        p = self.ppda
        if p.is_recvar(q):
            out.append((read, weight, (EV_SILENT, 0, 0, len(read), tuple(pushed))))
        elif q not in self._succ:  # a choice or a destructor
            for m in p.rows[(q, None)]:
                codes = [p.alphabet.index(x) for x in m.push]
                self._walk(m.target, read, pushed + codes, weight * m.prob, out, more)
        elif pushed:  # cancel the latest pending destructor
            self._walk(self._succ[q][pushed[-1]], read, pushed[:-1], weight, out, more)
        else:  # output if the entry stack ends here, else read its next symbol
            succ = self._succ[q]
            out.append((read, weight, (EV_OUT, succ[0], succ[-1], len(read), ())))
            if more:
                for s in range(self.n_syms):
                    self._walk(succ[s], read + (s,), pushed, weight, out, more)

    def _closure(self):
        """The suffix depth, the entry classes and the closure rows by row id
        (state * number of classes + class), ascending.  A class is a known
        suffix and whether the stack ends below it; its row holds, in walk
        order, the body's silent outcomes that read a prefix of the suffix
        and, if the stack ends, the outputs that read all of it."""
        m = self.n_syms
        body: list = []
        self._walk(0, (), [], Fraction(1), body, True)
        walks = {q: [] for q in sorted({q for succ in self._succ.values() for q in succ} - {0})}
        for q, out in walks.items():
            self._walk(q, (), [], Fraction(1), out, False)
        reads = [len(r) for out in (body, *walks.values()) for r, _, o in out if o[0] == EV_OUT]
        depth = max(reads, default=-1) + 1
        # the row-id space, which the dense per-row lookups span, is held to
        # the limit before any row is built
        _check_table_size(self.n_states * sum(m**k for k in range(depth + 1)))
        classes = [
            (tuple((v // m**j) % m for j in range(length)), length < depth)
            for length in range(depth + 1)
            for v in range(m**length)
        ]
        rows = {
            c: _merge(
                (w, o)
                for r, w, o in body
                if known[: len(r)] == r and (o[0] == EV_SILENT or ended and r == known)
            )
            for c, (known, ended) in enumerate(classes)
        }
        for q, out in walks.items():
            rows[q * len(classes)] = _merge((w, o) for _, w, o in out)
        return depth, classes, rows

    def _build_tables(self) -> None:
        m = self.n_syms
        depth, classes, rows = self._closure()
        _check_table_size(sum(len(r) for r in rows.values()))
        self.suffix_depth = depth
        self.n_classes = len(classes)

        keys: list[float] = []
        ev: list[int] = []
        next_a: list[int] = []
        next_b: list[int] = []
        consumed: list[int] = []
        n_push: list[int] = []
        push_rows: list[tuple[int, ...]] = []
        self.max_push = max(
            (len(o[5]) for row in rows.values() for o in row), default=0
        )
        for row_id, row in rows.items():
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

        # fused per-outcome lookups for run_batch
        self._is_out = self._ev == EV_OUT
        # successor row base of outcome k: entry k, or n_out + k for a
        # tree output that turns right
        next_core = np.concatenate([self._next_a, self._next_b]).astype(np.int64)
        self._next_row = next_core * self.n_classes
        # last outcome of each built row; other row ids are never held
        n_rows = self.n_states * self.n_classes
        self._row_last = np.zeros(n_rows, dtype=np.int64)
        self._row_last[list(rows)] = np.cumsum([len(r) for r in rows.values()]) - 1
        # below this draw, `row + u` stays below `row + 1` for every row id
        self._u_safe = 1.0 - float(np.spacing(float(n_rows)))
        # class of a stack after pushing symbol s onto one of class c, at
        # s * n_classes + c: s becomes the top of the known suffix, and at
        # full depth the deepest known symbol drops out; cells hold class
        # ids in the smallest dtype
        push_class = np.zeros((m, self.n_classes), dtype=np.min_scalar_type(self.n_classes - 1))
        index = {cls: c for c, cls in enumerate(classes)}
        for c, (known, ended) in enumerate(classes):
            for s in range(m):
                push_class[s, c] = index[((s,) + known)[:depth], ended and len(known) + 1 < depth]
        self._push_class = push_class.ravel()
        self._push_syms = [
            self._push[:, j].astype(np.int64) * self.n_classes for j in range(self.max_push)
        ]

    # -- batched execution ---------------------------------------------------

    def run_batch(self, runs: int, horizon: int, seed: int, policy: Policy | None = None):
        """Simulate `runs` lanes for `horizon` steps.

        Returns (per-lane output counts, per-lane outputs in the second half,
        per-step output totals).
        """
        rng = np.random.default_rng(seed)
        tree = self.kind is Kind.TREE
        word = _policy_tables(policy) if tree else None
        draws = 2 if tree and word is None else 1
        depth = self.suffix_depth
        n_out = len(self._keys)
        keys, is_out, next_row = self._keys, self._is_out, self._next_row

        row = np.zeros(runs, dtype=np.int64)  # closure row: state * n_classes + class
        if tree and word is not None:
            pre, per, dirs = word
            turn = dirs * n_out  # successor-table offset of each word letter
            advance = np.append(np.arange(1, pre + per), pre)  # next word position
            place = np.zeros(runs, dtype=np.int64)  # word position of each lane
        if depth > 0 and tree:
            # class stack, height-major: cell h * runs + lane holds the class
            # of that lane's stack cut to height h; cell 0 is the empty class
            stack = np.zeros(DEFAULT_STACK_CAP * runs, dtype=self._push_class.dtype)
            top = np.arange(runs)  # cell of each lane's top
            pops, pushes = self._consumed * runs, self._n_push * runs
            push_class, push_syms = self._push_class, self._push_syms
        elif depth > 0:
            height = np.zeros(runs, dtype=np.int64)
            delta = self._n_push - self._consumed

        counts = np.zeros(runs, dtype=np.int64)
        tail_counts = np.zeros(runs, dtype=np.int64)
        step_totals = np.zeros(horizon, dtype=np.float64)
        outs = np.empty((CHUNK, runs), dtype=bool)
        half = horizon // 2

        for first in range(0, horizon, CHUNK):
            n = min(CHUNK, horizon - first)
            # the same numbers, in the same order, as one rng.random(runs)
            # call per draw per step
            block = rng.random((n, draws, runs))
            # only a draw this close to one can round `row + u` up to the
            # next row's first key
            clamp = block[:, 0].max() >= self._u_safe
            if draws == 2:
                # a silent outcome has one successor, so its lane's coin
                # need not be masked
                turns = (block[:, 1] < 0.5) * n_out
            if depth > 0 and tree:
                needed = int(top.max()) // runs + (n + 1) * self.max_push + 1
                if needed * runs > len(stack):
                    stack = _grow(stack, runs, needed)

            for t in range(n):
                pick = keys.searchsorted(row + block[t, 0], side="right")
                if clamp:
                    pick = np.minimum(pick, self._row_last[row])
                out = is_out.take(pick, out=outs[t], mode="clip")
                if draws == 2:
                    pick_next = pick + turns[t]
                elif tree:
                    pick_next = pick + turn[place]
                    place = np.where(out, advance[place], place)
                else:
                    pick_next = pick
                row = next_row[pick_next]
                if depth == 0:
                    continue
                if tree:
                    base = top - pops[pick]
                    cls = stack[base]
                    # cells above the new top are dead until a push writes them
                    for j in range(self.max_push):
                        cls = push_class[cls + push_syms[j][pick]]
                        stack[base + (j + 1) * runs] = cls
                    top = base + pushes[pick]
                    row += stack[top]
                else:
                    height += delta[pick]
                    row += np.minimum(height, depth)

            done = outs[:n]
            step_totals[first : first + n] = done.sum(axis=1)
            counts += done.sum(axis=0)
            if first + n > half:
                tail_counts += done[max(half - first, 0) :].sum(axis=0)
        return counts, tail_counts, step_totals
