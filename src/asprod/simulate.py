"""Lane-batched numpy samplers.

The per-run term sampler `sample_run` in `tests/reference.py` is the
readable reference, and `reference_run_batch` in `tests/test_simulate.py`
the per-definition step loop these batches replaced; the compiled
simulators here run many seeded lanes in lockstep so that long-horizon
Monte Carlo evidence stays cheap.

`CompiledDefinition` samples a definition's pPDA (`ppda.translate`) one
whole term step per categorical draw.  The within-step walk over the
automaton's silent moves (choices, destructor pushes, constructors that
cancel a pending destructor or consume an entry symbol) is enumerated ahead
of time into closure rows, keyed by a pPDA state and an entry class (the
top symbols of the stack, up to the suffix depth).  A row's outcomes record
the observed event, the successor row, how many entry symbols the step
consumed and which symbols it pushed.  Only rows a lane can reach are
built: a silent step restarts at the body, state 0, under any entry class,
and an output consumes the whole entry stack, so it leads to a constructor
successor at the empty stack.  The built rows are numbered compactly: the
body's classes first, in class order, so a lane's row is its successor's
row plus the class of its stack, then one row per constructor successor.
One walk of the body covers every entry stack: where a constructor meets no
pending destructor, the walk records an output, as the stack may end there,
and goes on under each symbol the stack could hold next.  The suffix depth
is one more than the deepest such read.  A class's row holds, in walk
order, the silent outcomes that read a prefix of its known suffix (those
of the suffix one symbol shorter, and those that read all of it) and, if
the stack ends there, the outputs that read all of it; the outcomes are
grouped once by what they read, not filtered per class.  Each state's walk
at the empty stack is taken once: constructor successors, and successor
walks that reach a state with nothing pending, share it.  Row probabilities
are exact rationals until each row's cumulative sums, taken in integers
over the row's common denominator, are divided into floats.

`run_jobs` samples many jobs, each a (compiled definition, seed) pair, as
lockstep batches of lanes over the concatenated tables of their
definitions.  It takes the jobs as they come, and a batch is bounded in
lanes, jobs and table outcomes, so a caller that compiles its definitions
lazily holds the tables of about one batch at a time.  A job at suffix
depth 0 gets no lanes: no built row of its definition outputs, so its
result is all zeros.  Stream lanes keep their stack as a counter of pending
destructors, tree lanes as a class stack: one flat, height-major array for
the batch whose cell at height h holds the entry class of the lane's stack
cut to height h (cell 0 is the empty class), so the entry class is a
single gather and a push is a lookup in a (class below, symbol) table; the
cells hold class ids in the smallest dtype.  A step picks each
lane's outcome from its row's guide table (Chen & Asau, 1974): entry ⌊u·G⌋
of the row is the first outcome whose cumulative weight exceeds ⌊u·G⌋/G,
and a branchless bisection over the next few outcomes, at most as many as a
row of the batch has cumulative weights strictly inside one cell, reaches
the first outcome whose cumulative weight exceeds u (`_search`).  Each
row's last cumulative weight is exactly 1.0 and u < 1, so a pick never
leaves its row.  Under the uniform policy a tree lane's coin is drawn with
its guide cell: the guide and every table a pick reads hold each outcome
twice, the second copy being the outcome whose output turns right, so the
step adds no coin.

Jobs with lanes draw in blocks of steps, `rng.random((steps, draws,
runs))`, which yields the same numbers in the same order as one
`rng.random(runs)` call per draw per step.  A tree lane draws twice per
step under the uniform policy (its outcome and its coin), every other
lane once; jobs of one seed that draw as many numbers per step draw the
same ones, so a batch keeps one generator per distinct (seed, draws) and
copies each of its blocks into the lanes of every job it serves.  So a
job's results depend neither on the block size nor on the other jobs of
its batch: `CompiledDefinition.run_batch` is a batch of one job.  Blocks
hold about `BLOCK_LANE_STEPS` lane-steps, and class stacks start at
`DEFAULT_STACK_CAP` heights and grow on demand (bounded by the horizon,
since each step pushes a statically bounded number of symbols).  A step
leaves its picks in its row of the block's guide cells, which it no longer
needs, so outputs are read and tallied once per block.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import accumulate
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .ppda import translate
from .semantics import McReport, PeriodicWord, Policy, SamplerLimitError, UniformPolicy
from .terms import Definition, Kind

EV_SILENT = 0
EV_OUT = 1

DEFAULT_STACK_CAP = 4096
BLOCK_LANE_STEPS = 256 * 200  # lane-steps per block of random draws and of output tallies
MAX_LANES = 8192  # lanes per batch: more jobs run as several batches
# jobs per batch, above MAX_LANES // 200 so it binds only under fewer runs
# than the CLI's default, where lanes alone would let one batch (and the
# entries `check` holds for it) take thousands of jobs
MAX_JOBS = 64
BATCH_OUTCOMES = 1 << 14  # outcomes that close a batch, so its tables stay small
GUIDE_CELLS = 64  # most guide entries per row; cells are powers of two, so u * cells is exact
GUIDE_ENTRIES, GUIDE_PER_OUTCOME = 1 << 16, 4  # the guide table's size budget
MAX_TABLE_OUTCOMES = 500_000

_first = itemgetter(0)


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
        merged[outcome] = merged[outcome] + weight if outcome in merged else weight
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

    def _walk(self, q, read, pushed, weight, out, at_empty) -> None:
        """Append each outcome of a within-step walk from state `q` to `out`
        with the entry symbols it read.  `at_empty` is None while the entry
        stack may go on where the walk finds it; at the empty stack it holds
        the outcomes of the states walked there so far (`_walk_at_empty`)."""
        p = self.ppda
        if p.is_recvar(q):
            out.append((read, weight, (EV_SILENT, 0, 0, len(read), tuple(pushed))))
        elif q not in self._succ:  # a choice or a destructor
            for m in p.rows[(q, None)]:
                codes = [p.alphabet.index(x) for x in m.push]
                self._walk(m.target, read, pushed + codes, weight * m.prob, out, at_empty)
        elif pushed:  # cancel the latest pending destructor
            target = self._succ[q][pushed[-1]]
            if at_empty is not None and len(pushed) == 1:
                # nothing is pending any more: the rest is the target's walk
                rest = self._walk_at_empty(target, at_empty)
                out.extend((read, weight * w, o) for _, w, o in rest)
            else:
                self._walk(target, read, pushed[:-1], weight, out, at_empty)
        else:  # output if the entry stack ends here, else read its next symbol
            succ = self._succ[q]
            out.append((read, weight, (EV_OUT, succ[0], succ[-1], len(read), ())))
            if at_empty is None:
                for s in range(self.n_syms):
                    self._walk(succ[s], read + (s,), pushed, weight, out, None)

    def _walk_at_empty(self, q, at_empty: dict) -> list:
        """The outcomes of a walk from state `q` at the empty stack, walked
        once and kept in `at_empty`."""
        if q not in at_empty:
            at_empty[q] = out = []
            self._walk(q, (), [], Fraction(1), out, at_empty)
        return at_empty[q]

    def _closure(self):
        """The suffix depth, the entry classes and the closure rows by row id
        (state * number of classes + class), ascending.  A class is a known
        suffix and whether the stack ends below it; its row holds, in walk
        order, the body's silent outcomes that read a prefix of the suffix
        and, if the stack ends, the outputs that read all of it."""
        m = self.n_syms
        body: list = []
        self._walk(0, (), [], Fraction(1), body, None)
        at_empty: dict = {}
        walks = {
            q: self._walk_at_empty(q, at_empty)
            for q in sorted({q for succ in self._succ.values() for q in succ} - {0})
        }
        reads = [len(r) for out in (body, *walks.values()) for r, _, o in out if o[0] == EV_OUT]
        depth = max(reads, default=-1) + 1
        # the row-id space bounds the classes to enumerate; it is held to
        # the limit before any row is built, because that bound is what
        # keeps compiling cheap: the body's row is built under every class,
        # so without it nested mk trees 14, 15 and 16 deep took 1.2, 2.5
        # and 5.5 s and 65, 103 and 178 MB to compile (2-vCPU host), and a
        # deeper one would be refused by its built rows only once built
        _check_table_size(self.n_states * sum(m**k for k in range(depth + 1)))
        # the known suffixes of each length, top symbol first, in the order
        # of their base-m value with the top symbol as the lowest digit
        suffixes = [()]
        classes = [((), depth > 0)]
        for length in range(1, depth + 1):
            suffixes = [known + (s,) for s in range(m) for known in suffixes]
            classes += [(known, length < depth) for known in suffixes]
        # the body's outcomes by the entry symbols they read, with their
        # walk order; a class's silent outcomes are those of its known
        # suffix's prefixes, so each extends the list of the suffix one
        # symbol shorter, which classes of smaller length come before
        silent: dict = {}
        outputs: dict = {}
        for i, (r, w, o) in enumerate(body):
            (silent if o[0] == EV_SILENT else outputs).setdefault(r, []).append((i, w, o))
        fitting: dict = {(): silent.get((), [])}
        rows = {}
        for c, (known, ended) in enumerate(classes):
            if known:
                own = silent.get(known)
                shorter = fitting[known[:-1]]
                fitting[known] = sorted(shorter + own, key=_first) if own else shorter
            picked = fitting[known]
            if ended and known in outputs:
                picked = sorted(picked + outputs[known], key=_first)
            rows[c] = _merge((w, o) for _, w, o in picked)
        for q, out in walks.items():
            rows[q * len(classes)] = _merge((w, o) for _, w, o in out)
        return depth, classes, rows

    def _build_tables(self) -> None:
        m = self.n_syms
        depth, classes, rows = self._closure()
        _check_table_size(sum(len(r) for r in rows.values()))
        self.suffix_depth = depth
        self.n_classes = len(classes)
        # compact row of each built row id; a silent outcome moves to the
        # body at the empty class, compact row 0, and the class of the
        # lane's stack is added when the step is taken
        compact = {row_id: i for i, row_id in enumerate(rows)}

        cum: list[float] = []
        for row in rows.values():
            # the weights as integers over the row's common denominator:
            # int / int is correctly rounded, as float(Fraction) is
            den = math.lcm(*(o[0].denominator for o in row))
            sums = list(accumulate(o[0].numerator * (den // o[0].denominator) for o in row))
            assert sums[-1] == den, "closure row mass must be exactly one"
            cum += [total / den for total in sums[:-1]]
            cum.append(1.0)
        _, ev, next_a, next_b, consumed, push = zip(*(o for row in rows.values() for o in row))
        self.max_push = max(map(len, push))
        self._row_len = np.array([len(r) for r in rows.values()], dtype=np.int64)
        # cumulative weight within the row; each row's last is exactly 1.0
        self._cum = np.array(cum, dtype=np.float64)
        self._is_out = np.array(ev, dtype=np.int8) == EV_OUT
        # successor row of each outcome: a tree output that turns right
        # takes the second
        self._next_a = np.array([compact[q * self.n_classes] for q in next_a], dtype=np.int64)
        self._next_b = np.array([compact[q * self.n_classes] for q in next_b], dtype=np.int64)
        self._consumed = np.array(consumed, dtype=np.int64)
        self._n_push = np.array([len(p) for p in push], dtype=np.int64)
        self._push = np.array(
            [p + (0,) * (self.max_push - len(p)) for p in push], dtype=np.int8
        ).reshape(len(push), self.max_push)

        # class of a stack after pushing symbol s onto one of class c, at
        # s * n_classes + c: s becomes the top of the known suffix, and at
        # full depth the deepest known symbol drops out; cells hold class
        # ids in the smallest dtype
        push_class = np.zeros((m, self.n_classes), dtype=np.min_scalar_type(self.n_classes - 1))
        # a suffix of length k is class first[k] + its base-m value; at
        # depth 0 every push leaves the empty class
        first = np.cumsum([0] + [m**k for k in range(depth + 1)])
        for k in range(depth + 1 if depth else 0):
            longer = min(k + 1, depth)
            kept = np.arange(m**k) % m ** (longer - 1)  # the symbols that stay known
            for s in range(m):
                push_class[s, first[k] : first[k + 1]] = first[longer] + s + m * kept
        self._push_class = push_class.ravel()

    # -- batched execution ---------------------------------------------------

    def run_batch(self, runs: int, horizon: int, seed: int, policy: Policy | None = None):
        """Simulate `runs` lanes for `horizon` steps, as a batch of one job.

        Returns (per-lane output counts, per-lane outputs in the second half,
        per-step output totals).
        """
        return next(run_jobs([(self, seed)], runs, horizon, policy))[1]


def monte_carlo_jobs(
    jobs: Iterable, runs: int, horizon: int, policy: Policy | None = None
) -> Iterator[McReport]:
    """`semantics.monte_carlo` for each job, a (compiled definition, seed)
    pair, with the jobs sampled together (`run_jobs`).  Each report is the
    one its definition and seed get alone."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if horizon < 100:
        raise ValueError("horizon must be at least 100")
    return (
        McReport.from_runs(
            horizon,
            job[1],
            tuple(int(c) for c in counts),
            int((tail_counts == 0).sum()),
            step_totals,
        )
        for job, (counts, tail_counts, step_totals) in run_jobs(jobs, runs, horizon, policy)
    )


def run_jobs(jobs: Iterable, runs: int, horizon: int, policy: Policy | None = None):
    """Simulate `runs` lanes of each job, a (compiled definition, seed)
    pair, for `horizon` steps, in lockstep batches (`_batches`); trees
    follow `policy`.  Yields each job with what `run_batch` returns for it,
    in job order, so a caller that summarizes each result as it comes holds
    one job's step totals in floats at a time.  A job at suffix depth 0
    cannot output: it gets zeros, without lanes or a generator."""
    for batch in _batches(jobs, runs):
        # started by the first job with lanes, so a batch without any runs none
        sampled = _run_lanes([job for job in batch if job[0].suffix_depth], runs, horizon, policy)
        for job in batch:
            if job[0].suffix_depth:
                yield job, next(sampled)
            else:
                yield job, (np.zeros(runs, np.int64), np.zeros(runs, np.int64), np.zeros(horizon))


def _batches(jobs: Iterable, runs: int):
    """`jobs`, taken as they come, in batches of at most `MAX_LANES` lanes
    and `MAX_JOBS` jobs; a batch also closes once its distinct definitions
    hold `BATCH_OUTCOMES` outcomes.  A batch is emptied once its caller
    asks for the next, so a caller that compiles its jobs as they are taken
    holds the definitions of one batch at a time."""
    batch: list = []
    defs: set = set()
    outcomes = 0
    for c, seed in jobs:
        batch.append((c, seed))
        if id(c) not in defs:
            defs.add(id(c))
            outcomes += len(c._cum)
        full = runs * (len(batch) + 1) > MAX_LANES or len(batch) == MAX_JOBS
        if full or outcomes >= BATCH_OUTCOMES:
            yield batch
            batch.clear()  # drops the jobs for the caller too
            batch, defs, outcomes = [], set(), 0
    if batch:
        yield batch


def _guide(cum: np.ndarray, row_len: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The guide table of rows whose outcomes have cumulative weights `cum`:
    (table, cells per row, corrections a pick needs after its lookup).

    Rows get the most cells, a power of two up to `GUIDE_CELLS`, that keep
    the table within `GUIDE_ENTRIES` entries or `GUIDE_PER_OUTCOME` per
    outcome, whichever is more; so a table of many short rows, which need
    few cells, costs no more than its outcomes do.  The table is cell-major:
    entry j * rows + r is the first outcome of row r whose cumulative weight
    exceeds j / cells.  A draw u in cell j picks the first outcome whose
    weight exceeds u, which lies after the entry by at most the number of
    the row's cumulative weights strictly inside the cell; the corrections
    are the most of these over all cells.
    """
    n_rows = len(row_len)
    budget = max(GUIDE_ENTRIES, GUIDE_PER_OUTCOME * len(cum))
    cells = GUIDE_CELLS
    while cells > 1 and cells * n_rows > budget:
        cells //= 2
    scaled = cum * cells
    # outcome k's cumulative weight is at most j / cells from cell
    # j = ceil(scaled[k]) on; keyed by row, these ascend
    above = np.ceil(scaled)
    key = np.repeat(np.arange(n_rows, dtype=np.int64) * (cells + 1), row_len)
    key += above.astype(np.int64)
    first = np.arange(n_rows, dtype=np.int64) * (cells + 1)
    guide = np.empty(cells * n_rows, dtype=np.int64)
    for j in range(cells):
        guide[j * n_rows : (j + 1) * n_rows] = key.searchsorted(first + j, side="right")
    inside = key[scaled != above]
    return guide, cells, int(np.unique(inside, return_counts=True)[1].max(initial=0))


def _search(pick, draw, cum, row_last, corrections: int):
    """Move each guide entry `pick` to the first outcome of its row whose
    cumulative weight exceeds `draw`, which lies at most `corrections`
    outcomes further on; `row_last` holds the last outcome of each
    outcome's row.  A branchless bisection: strides halve from the largest
    power of two within `corrections`, a probe past the row is held at its
    last outcome, whose weight, 1.0, exceeds every draw, and the last
    stride, 1, needs no hold.  So a pick costs about log2(corrections)
    passes, however many outcomes share a cell."""
    strides = corrections.bit_length()
    if strides > 1:
        last = row_last.take(pick)
        for b in reversed(range(1, strides)):
            stride = 1 << b
            probe = np.minimum(pick + (stride - 1), last)
            pick += (cum.take(probe) <= draw) * stride
    if strides:
        pick += cum.take(pick) <= draw
    return pick


def _push_column(c: CompiledDefinition, j: int) -> np.ndarray:
    """Offset of push j's symbol in `c`'s class table, per outcome."""
    if j >= c.max_push:
        return np.zeros(len(c._cum), dtype=np.int64)
    return c._push[:, j].astype(np.int64) * c.n_classes


def _run_lanes(jobs, runs: int, horizon: int, policy: Policy | None):
    """One lockstep batch of `run_jobs`, over jobs at suffix depth 1 or
    more.  Stream lanes, which keep a counter, sit before tree lanes, which
    keep a class stack, each job's lanes together; tree lanes go by their
    definition's push count, most first, so push j runs on the prefix of
    tree lanes that can make it.  Every table is the concatenation of those
    of the batch's distinct definitions, with rows and outcomes renumbered."""

    def place(i: int):
        c = jobs[i][0]
        return (1, -c.max_push) if c.kind is Kind.TREE else (0, 0)

    order = sorted(range(len(jobs)), key=place)
    lane_jobs = [jobs[i] for i in order]
    defs = list({id(c): c for c, _ in lane_jobs}.values())
    row_at = dict(zip(map(id, defs), np.cumsum([0] + [len(c._row_len) for c in defs])))
    n_rows = sum(len(c._row_len) for c in defs)
    n_out = sum(len(c._cum) for c in defs)
    n_lanes = runs * len(jobs)
    tree_start = runs * sum(c.kind is Kind.STREAM for c, _ in jobs)
    n_trees = n_lanes - tree_start

    word = _policy_tables(policy) if n_trees else None
    # under the uniform policy a tree lane's coin is drawn with its guide
    # cell: outcome n_out + k is outcome k turning right, so the tables a
    # pick reads hold each outcome twice
    sides = 2 if n_trees and word is None else 1

    def outcomes(parts) -> np.ndarray:
        return np.tile(np.concatenate(parts), sides)

    cum = np.concatenate([c._cum for c in defs])
    row_len = np.concatenate([c._row_len for c in defs])
    guide, cells_per_row, corrections = _guide(cum, row_len)
    turned = len(guide)  # the guide of turned outcomes follows
    guide = np.concatenate([guide + side * n_out for side in range(sides)])
    # `cum[pick] <= u` is tested as cum * cells <= u * cells, the same test,
    # since the scaling is exact; u is scaled and its integer part is the
    # guide cell
    cum = outcomes([cum * cells_per_row])
    row_len = np.tile(row_len, sides)
    row_last = np.repeat(np.cumsum(row_len) - 1, row_len)  # per outcome
    is_out = outcomes([c._is_out for c in defs])
    # successor row of outcome k: entry k, or n_out + k for a tree output
    # that turns right
    next_row = np.concatenate(
        [c._next_a + row_at[id(c)] for c in defs] + [c._next_b + row_at[id(c)] for c in defs]
    )
    row = np.repeat([row_at[id(c)] for c, _ in lane_jobs], runs)

    if tree_start:
        height = np.zeros(tree_start, dtype=np.int64)
        depth = np.repeat([c.suffix_depth for c, _ in lane_jobs], runs)[:tree_start]
        delta = np.concatenate([c._n_push - c._consumed for c in defs])
        length = np.empty(tree_start, dtype=np.int64)  # each stream lane's entry class
    if n_trees:
        tree_defs = [c for c in defs if c.kind is Kind.TREE]
        table_at = dict(
            zip(map(id, tree_defs), np.cumsum([0] + [len(c._push_class) for c in tree_defs]))
        )
        dtype = np.min_scalar_type(max(c.n_classes for c in tree_defs) - 1)
        push_class = np.concatenate([c._push_class for c in tree_defs]).astype(dtype)
        max_push = max(c.max_push for c in tree_defs)
        # push j runs on the first makes[j] tree lanes: those whose
        # definition can push more than j symbols
        pushing = [c.max_push for c, _ in lane_jobs if c.kind is Kind.TREE]
        makes = [runs * sum(m > j for m in pushing) for j in range(max_push)]
        push_syms = [
            outcomes([table_at.get(id(c), 0) + _push_column(c, j) for c in defs])
            for j in range(max_push)
        ]
        pops = outcomes([c._consumed for c in defs]) * n_trees
        pushes = outcomes([c._n_push for c in defs]) * n_trees
        # class stack, height-major: cell h * n_trees + i holds the class of
        # tree lane i's stack cut to height h; cell 0 is the empty class
        stack = np.zeros(DEFAULT_STACK_CAP * n_trees, dtype=dtype)
        top = np.arange(n_trees)  # cell of each tree lane's top

    steps = max(1, BLOCK_LANE_STEPS // n_lanes)
    u = np.empty((steps, n_lanes), dtype=np.float64)  # the draws, scaled
    # each lane's guide cell, and once its step has run, its pick
    cells = np.empty((steps, n_lanes), dtype=np.int64)
    if word is not None:
        pre, per, dirs = word
        turn = dirs * n_out  # successor-table offset of each word letter
        advance = np.append(np.arange(1, pre + per), pre)  # next word position
        place = np.zeros(n_trees, dtype=np.int64)  # word position of each tree lane
        steer = np.zeros(n_lanes, dtype=np.int64)
    # jobs of one seed that draw as many numbers per step draw the same
    # ones, so each (seed, draws per step) gets one generator, and its
    # blocks are copied into the lanes of each of its jobs
    shared: dict = {}
    for j, (_, seed) in enumerate(lane_jobs):
        shared.setdefault((seed, sides if j * runs >= tree_start else 1), []).append(j)
    rngs = [(np.random.default_rng(seed), draws, js) for (seed, draws), js in shared.items()]

    counts = np.zeros(n_lanes, dtype=np.int64)
    tail_counts = np.zeros(n_lanes, dtype=np.int64)
    step_totals = np.zeros((len(jobs), horizon), dtype=np.min_scalar_type(runs))
    outs = np.empty((steps, n_lanes), dtype=bool)
    block_dtype = np.min_scalar_type(steps)
    half = horizon // 2

    for first in range(0, horizon, steps):
        n = min(steps, horizon - first)
        for rng, draws, js in rngs:
            # the same numbers, in the same order, as one rng.random(runs)
            # call per draw per step
            block = rng.random((n, draws, runs))
            scaled = block[:, 0] * cells_per_row
            cell = scaled.astype(np.int64)  # truncated: the guide cell
            cell *= n_rows
            if draws == 2:
                # a silent outcome has one successor, so its lane's coin
                # need not be masked
                cell += (block[:, 1] < 0.5) * turned
            for j in js:
                lanes = slice(j * runs, (j + 1) * runs)
                u[:n, lanes] = scaled
                cells[:n, lanes] = cell
        if n_trees:
            needed = int(top.max()) // n_trees + (n + 1) * max_push + 1
            if needed * n_trees > len(stack):
                stack = _grow(stack, n_trees, needed)

        for t in range(n):
            pick = _search(guide.take(row + cells[t]), u[t], cum, row_last, corrections)
            cells[t] = pick
            if word is None:
                row = next_row.take(pick)
            else:
                np.take(turn, place, out=steer[tree_start:])
                place = np.where(is_out.take(pick[tree_start:]), advance.take(place), place)
                row = next_row.take(pick + steer)
            if tree_start:
                height += delta.take(pick[:tree_start])
                row[:tree_start] += np.minimum(height, depth, out=length)
            if n_trees:
                mine = pick[tree_start:]
                base = top - pops.take(mine)
                cls = stack.take(base)
                # cells above the new top are dead until a push writes them
                for j, k in enumerate(makes):
                    cls = push_class.take(cls[:k] + push_syms[j].take(mine[:k]))
                    stack[(j + 1) * n_trees :][base[:k]] = cls
                top = base + pushes.take(mine)
                row[tree_start:] += stack.take(top)

        # sums of at most `runs` and `steps` outputs, in dtypes that hold
        # them: numpy sums bytes into bytes several times faster than into int64
        done = is_out.take(cells[:n], out=outs[:n]).view(np.uint8)
        totals = done.reshape(n, -1, runs).sum(axis=2, dtype=step_totals.dtype)
        step_totals[:, first : first + n] = totals.T
        block_counts = done.sum(axis=0, dtype=block_dtype)
        counts += block_counts
        if first >= half:
            tail_counts += block_counts
        elif first + n > half:
            tail_counts += done[half - first :].sum(axis=0, dtype=block_dtype)

    del u, cells, outs  # the blocks are not needed while the results are read
    for j in np.argsort(order):  # the lane place of each job, in job order
        lanes = slice(j * runs, (j + 1) * runs)
        yield counts[lanes], tail_counts[lanes], step_totals[j].astype(np.float64)
