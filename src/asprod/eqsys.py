"""Pop-probability equation systems of translated pushdown models.

For every control state q, stack symbol X and state q', the variable
[q, X, q'] denotes the probability that a run started in q with the single
symbol X on the stack eventually pops it, ending in q'.  These probabilities
form the least fixed point of a monotone polynomial system with positive
rational coefficients: pops contribute constants, symbol-preserving moves
linear terms, pushes quadratic products of an inner excursion and the
continuation.

The exact classification decides, per excursion head (q, X), whether the
return probability equals one (AlmostSureReturn), is provably below one
(SubReturn), or is not determined by the implemented criteria (Unknown,
with the reason it stayed undecided).  A bottom-up pass over the
dependency blocks decides every single-exit head whose block reads only
decided blocks, without numerics.  A machine-checked pre-fixed-point
certificate is searched only for the heads it leaves undecided, so a
system whose live heads the pass all decides never solves Newton.
Every verdict is checked in exact arithmetic, on integers: `clean` writes
each equation once as an integer row (L, L const, [(L a, factors)]), L the
lcm of the denominators of its automaton row's move probabilities, the mass
test is one integer comparison on that row, and the spectral test
eliminates the integer rows of I - J(1) without division.  Every reader
depends only on the ratios const / L and a / L, so any positive common
denominator L gives the same answers.  A system has one certificate
candidate: its Newton values bumped by 2^-20 along d = (I - J)^-1 1, which
gains slack in every equation at first order where a uniform bump gains
none on unit-mass equations, so which heads get a certificate does not
hinge on the last bits of those floating-point values.  The candidate lies
on the grid of multiples of 2^-64: it is a vector of integer numerators
over 2^64, read against the same integer row of each equation, and the
pre-fixed test is one exact integer comparison per equation, so no
certificate denominator exceeds 2^64.
Positivity is pop-reachability, saturated on the automaton's rows before
any equation exists: `build_system` only enumerates the candidate
variables, and `clean` builds the equations of the positive ones alone,
without their zero monomials.  Newton runs in plain Python
floats read from one `float_form` (this module never imports numpy), one
dependency block at a time: a block of one variable that does not read
itself is evaluated at the values below it, and only a block that reads
its own variables iterates.  A singular step, which only rounding at the
fixed point can cause (Etessami and Yannakakis, JACM 2009), ends its
block's iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import strongly_connected_components
from .ppda import Ppda

VarKey = tuple[int, str, int]  # (state, symbol, landing state)
Head = tuple[int, str]

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITER = 100_000
NEWTON_MAX_ITER = 200
CERT_BUMP = Fraction(1, 2**20)  # how far the certificate candidate lies above Newton
GRID = 2**64  # certificate values are multiples of 1 / GRID
SMT_TIMEOUT_S = 60.0


# An equation x = const + sum a prod(factors), each monomial reading one or
# two variable indices, in integers: (L, L const, [(L a, factors)]) with L a
# positive common denominator of its constant and coefficients.
IntegerEquation = tuple[int, int, list[tuple[int, tuple[int, ...]]]]
# An equation in floats: (const, [(a, factors)]), each the float of a ratio.
FloatEquation = tuple[float, list[tuple[float, tuple[int, ...]]]]


@dataclass(frozen=True, eq=False)
class EqSystem:
    variables: tuple[VarKey, ...]
    equations: tuple[IntegerEquation, ...]
    heads: tuple[Head, ...]
    state_names: tuple[str, ...]

    @cached_property
    def head_vars(self) -> dict[Head, list[int]]:
        """Each head's variables, in variable order, computed once per
        system; a head with none maps to the empty list.  In a cleaned
        system they are the head's exits: their landing states are exactly
        those its excursion returns in with positive probability."""
        out: dict[Head, list[int]] = {h: [] for h in self.heads}
        for i, (q, x, _) in enumerate(self.variables):
            out.setdefault((q, x), []).append(i)
        return out

    def var_name(self, i: int) -> str:
        q, x, q2 = self.variables[i]
        return f"[{self.state_names[q]}, {x}, {self.state_names[q2]}]"

    @cached_property
    def dependencies(self) -> list[set[int]]:
        """The variables each equation reads."""
        return [{f for _, fs in monos for f in fs} for _, _, monos in self.equations]

    @cached_property
    def blocks(self) -> list[list[int]]:
        """The strongly connected blocks of the dependency graph, bottom-up:
        every variable a block reads lies in it or in an earlier block.
        Computed once per system, for classification, Newton and the
        certificate direction alike."""
        deps = self.dependencies
        return strongly_connected_components(range(len(self.variables)), deps.__getitem__)

    @cached_property
    def newton(self) -> NewtonValues:
        """`newton_solve` at its defaults, computed once per system."""
        return newton_solve(self)


@dataclass(frozen=True, eq=False)
class Candidates:
    """The variables a translated automaton's system may have, before any
    equation exists: [q, X, q'] for every state q and every landing state q'
    that some pop on X produces, in order (state, symbol, landing state).
    Every other variable is identically zero."""

    ppda: Ppda
    variables: tuple[VarKey, ...]


def build_system(p: Ppda) -> Candidates:
    """Enumerate the candidate variables of the pop-probability system of a
    translated automaton; `clean` builds the equations of the positive
    ones."""
    states = range(len(p.states))
    pop_targets = {
        x: list(dict.fromkeys(m.target for q in states for m in p.rows[(q, x)] if not m.push))
        for x in p.alphabet
    }
    variables = tuple((q, x, r) for q in states for x in p.alphabet for r in pop_targets[x])
    return Candidates(p, variables)


# ---------------------------------------------------------------------------
# positivity and the surviving equations


def clean(c: Candidates) -> tuple[EqSystem, set[VarKey]]:
    """Build the system of the candidates whose least-fixed-point value is
    positive, and return it with the set of those candidates.

    Positivity is pushdown pop-reachability, saturated on the automaton's
    rows before any equation exists (Bouajjani, Esparza and Maler, CONCUR
    1997): a pop to r makes [q, X, r] positive; a keep move to t copies
    [t, X, r] to [q, X, r]; a push of Y over X into t joins [t, Y, s] with
    [s, X, r].  Once [t, Y, s] is positive, that push acts as a keep move
    to s, so each positive triple is handled once per move that reads it.
    Monomials with a zero factor are never built; the least fixed point of
    the positive variables is that of the full system.  Each equation is
    written once, as the integer row of `_head_equations`.
    """
    p = c.ppda
    positive: set[VarKey] = set()
    work: list[VarKey] = []  # turned positive, the moves reading it not yet told
    exits: dict[Head, list[int]] = {}  # per (t, X): r with [t, X, r] told
    keeps: dict[Head, set[int]] = {}  # per (t, X): q keeping X into t, by a move or a landed push
    pushes: dict[Head, list[Head]] = {}  # per (t, Y): (q, X) pushing Y over X into t

    def mark(v: VarKey) -> None:
        if v not in positive:
            positive.add(v)
            work.append(v)

    for q in range(len(p.states)):
        for x in p.alphabet:
            for m in p.rows[(q, x)]:
                if not m.push:
                    mark((q, x, m.target))
                elif len(m.push) == 1:
                    keeps.setdefault((m.target, x), set()).add(q)
                else:
                    pushes.setdefault((m.target, m.push[0]), []).append((q, x))
    while work:
        t, x, r = work.pop()
        exits.setdefault((t, x), []).append(r)
        for q in keeps.get((t, x), ()):
            mark((q, x, r))
        for q, z in pushes.get((t, x), ()):
            callers = keeps.setdefault((r, z), set())
            if q not in callers:
                callers.add(q)
                for r2 in exits.get((r, z), ()):
                    mark((q, z, r2))

    variables = [v for v in c.variables if v in positive]
    index = {v: i for i, v in enumerate(variables)}
    head_exits: dict[Head, list[int]] = {}  # landing states in candidate order
    for q, x, r in variables:
        head_exits.setdefault((q, x), []).append(r)
    equations: list[IntegerEquation] = []
    for (q, x), landings in head_exits.items():  # in variable order
        equations += _head_equations(p.rows[(q, x)], x, landings, index, head_exits)

    system = EqSystem(
        variables=tuple(variables),
        equations=tuple(equations),
        heads=tuple((q, x) for q in range(len(p.states)) for x in p.alphabet),
        state_names=p.state_names,
    )
    return system, positive


def _head_equations(
    moves, x: str, landings: list[int], index: dict[VarKey, int], head_exits: dict[Head, list[int]]
) -> list[IntegerEquation]:
    """The equations of [q, X, r] for each r in `landings`, the positive
    variables of a head (q, X) whose automaton row is `moves`, as integer
    rows over L, the lcm of the denominators of the row's move
    probabilities.  A monomial reading a variable outside `index` is zero
    and is not built."""
    scale = math.lcm(*(m.prob.denominator for m in moves))
    weighted = [(m, m.prob.numerator * (scale // m.prob.denominator)) for m in moves]
    rows = []
    for r in landings:
        const = 0
        monos: list[tuple[int, tuple[int, ...]]] = []
        for m, a in weighted:
            if not m.push:  # pop
                if m.target == r:
                    const += a
            elif len(m.push) == 1:  # keep: the read symbol is pushed back
                k = index.get((m.target, x, r))
                if k is not None:
                    monos.append((a, (k,)))
            else:  # push over the re-pushed read symbol
                y = m.push[0]
                for s in head_exits.get((m.target, y), ()):
                    k = index.get((s, x, r))
                    if k is not None:
                        monos.append((a, (index[(m.target, y, s)], k)))
        rows.append((scale, const, monos))
    return rows


# ---------------------------------------------------------------------------
# numeric solvers (Newton values seed the certificate candidate, which is
# then checked exactly; no command runs Kleene iteration)


def float_form(s: EqSystem) -> list[FloatEquation]:
    """Each equation once in floats, built once per solve and not kept.

    L a / L is a correctly rounded integer division, as `float` of the
    Fraction a is, so each float is the nearest to its ratio whatever L."""
    return [
        (const / scale, [(a / scale, factors) for a, factors in monos])
        for scale, const, monos in s.equations
    ]


def kleene_solve(
    s: EqSystem, epsilon: float = DEFAULT_EPSILON, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[list[float], int]:
    """Iterate x <- F(x) from zero; monotone nondecreasing lower bounds.

    No command runs it: the tests read it as an oracle that bounds the
    least fixed point from below, and the benchmark's traced runs wrap it
    by name."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eqs = float_form(s)
    x = [0.0] * len(eqs)
    for it in range(1, max_iter + 1):
        delta = 0.0
        y = x[:]
        for i, (const, monos) in enumerate(eqs):
            v = const
            for coef, factors in monos:
                t = coef
                for f in factors:
                    t *= x[f]
                v += t
            v = min(v, 1.0)
            if v - x[i] > delta:
                delta = v - x[i]
            y[i] = v
        x = y
        if delta < epsilon:
            return x, it
    return x, max_iter


class NewtonValues(list):
    """The values `newton_solve` returns, a list of floats, carrying the
    direction a certificate search bumps them along.

    It is d = (I - J)^-1 1, J the Jacobian, scaled to max d = 1 (d = 1 on a
    block whose solve fails).  At the least fixed point x*,
    F(x* + t d) - (x* + t d) = -t 1 + O(t^2) before scaling, so a bump
    along d gains slack in every equation at first order, where a uniform
    bump gains none on an equation of unit mass.
    """

    def __init__(self, values: list[float], direction: list[float]):
        super().__init__(values)
        self.direction = direction


def _block_rows(form: list[FloatEquation], comp: Sequence[int], local: dict[int, int], values):
    """The block's equations in floats, with every variable read outside the
    block fixed at its value: per variable, its constant, its linear terms
    (coef, j) and its quadratic terms (coef, j, k), over local indices."""
    rows = []
    for v in comp:
        const, monos = form[v]
        lin: list[tuple[float, int]] = []
        quad: list[tuple[float, int, int]] = []
        for coef, factors in monos:
            inner = []
            for f in factors:
                if f in local:
                    inner.append(local[f])
                else:
                    coef *= values[f]
            if not inner:
                const += coef
            elif len(inner) == 1:
                lin.append((coef, inner[0]))
            else:
                quad.append((coef, inner[0], inner[1]))
        rows.append((const, lin, quad))
    return rows


def _image(rows, x: list[float]) -> list[float]:
    out = []
    for const, lin, quad in rows:
        total = const
        for coef, j in lin:
            total += coef * x[j]
        for coef, j, k in quad:
            total += coef * x[j] * x[k]
        out.append(total)
    return out


def _newton_matrix(rows, x: list[float]) -> list[dict[int, float]]:
    """I - J(x), the Jacobian taken over the block's own variables, as one
    sparse row {column: entry} per variable."""
    a = []
    for r, (_, lin, quad) in enumerate(rows):
        row = {r: 1.0}
        for coef, j in lin:
            row[j] = row.get(j, 0.0) - coef
        for coef, j, k in quad:
            row[j] = row.get(j, 0.0) - coef * x[k]
            row[k] = row.get(k, 0.0) - coef * x[j]
        a.append(row)
    return a


_LU = list[tuple[int, list[tuple[int, float]], float, list[tuple[int, float]]]]


def _factor(a: list[dict[int, float]]) -> Optional[_LU]:
    """Sparse Gaussian elimination with partial pivoting, in place.

    Column k is eliminated at step k, with the pivot of largest magnitude
    among the rows not yet used (the lowest row on ties).  Returns, per
    step, the pivot row, its multipliers (column, factor), its pivot and its
    entries right of the pivot; or None if the matrix is singular.  The
    systems are sparse and fill in little, so the cost follows the nonzero
    entries, not the cube of the size.
    """
    n = len(a)
    rows_with: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(a):
        for j in row:
            rows_with[j].add(i)
    steps: _LU = []
    for k in range(n):
        candidates = rows_with[k]
        p, big = -1, 0.0
        for i in candidates:
            size = abs(a[i][k])
            if size > big or (size == big and size and i < p):
                p, big = i, size
        if p < 0:
            return None
        pivot_row = a[p]
        upper = [(j, y) for j, y in pivot_row.items() if j > k]
        for j, _ in upper:
            rows_with[j].discard(p)
        candidates.discard(p)
        pivot = pivot_row[k]
        for i in candidates:
            row = a[i]
            factor = row[k] / pivot
            row[k] = factor
            if factor:
                for j, y in upper:
                    if j not in row:
                        row[j] = 0.0
                        rows_with[j].add(i)
                    row[j] -= factor * y
        lower = [(j, y) for j, y in pivot_row.items() if j < k]
        steps.append((p, lower, pivot, upper))
    return steps


def _lu_solve(lu: _LU, b: Sequence[float]) -> list[float]:
    """Solve with a matrix factored by `_factor`."""
    y: list[float] = []
    for p, lower, _, _ in lu:
        total = b[p]
        for j, factor in lower:
            total -= factor * y[j]
        y.append(total)
    for k in range(len(lu) - 1, -1, -1):
        _, _, pivot, upper = lu[k]
        total = y[k]
        for j, entry in upper:
            total -= entry * y[j]
        y[k] = total / pivot
    return y


def _finite(xs: Sequence[float]) -> bool:
    return all(math.isfinite(x) for x in xs)


def _clip(xs) -> list[float]:
    return [min(1.0, max(0.0, x)) for x in xs]


def _direction_rhs(form, comp, local, values, direction) -> list[float]:
    """Per variable of the block, 1 plus its partial derivatives in the
    variables it reads outside the block times their part of the direction:
    the right-hand side of the block's part of (I - J) d = 1."""
    rhs = []
    for v in comp:
        total = 1.0
        for coef, fs in form[v][1]:
            for pos, f in enumerate(fs):
                if f not in local:
                    partial = coef
                    if len(fs) == 2:
                        partial *= values[fs[1 - pos]]
                    total += partial * direction[f]
        rhs.append(total)
    return rhs


def _positive(d: list[float]) -> list[float]:
    """`d` if it is finite and positive, else all ones."""
    if not _finite(d) or min(d) <= 0.0:
        return [1.0] * len(d)
    return d


def _block_direction(form, comp, local, lu, values, direction) -> list[float]:
    """The block's part of (I - J)^-1 1, given the parts of the blocks it
    reads in `direction`, or all ones if the solve fails.

    `lu` is I - J over the block's own variables, factored by `_factor`, or
    None if it was singular.
    """
    if lu is None:
        return [1.0] * len(comp)
    return _positive(_lu_solve(lu, _direction_rhs(form, comp, local, values, direction)))


def _reads_itself(comp: Sequence[int], deps: list[set[int]]) -> bool:
    """Whether a dependency block reads one of its own variables: it has
    several, or its one equation reads its own variable."""
    return len(comp) > 1 or comp[0] in deps[comp[0]]


def _scaled(direction: list[float]) -> list[float]:
    top = max(direction, default=1.0)
    return [x / top for x in direction]


def newton_solve(
    s: EqSystem,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = NEWTON_MAX_ITER,
) -> NewtonValues:
    """Decomposed Newton iteration, one strongly connected block at a time
    (Etessami, Yannakakis, JACM 2009, "EY09").

    Blocks are solved bottom-up in dependency order.  A block of one
    variable that does not read itself is evaluated: its value is F at the
    values below it, the constant of its `_block_rows` row, clipped to
    [0, 1], and its direction (I - J) d = 1 is its right-hand side, since
    I - J is the identity there.  That is exactly what a Newton step from
    zero gives it.  Only a block that reads its own variables iterates,
    from zero, so iterates approach the least fixed point from below: each
    step solves (I - J) dx = F(x) - x by Gaussian elimination with partial
    pivoting, clips to [0, 1], and stops once max |dx| < epsilon or after
    `max_iter` steps.  Below the least fixed
    point of a cleaned system the Newton matrix is nonsingular (EY09), so a
    singular or non-finite step comes from rounding at the fixed point: it
    ends the block at its last iterate, with direction one.  The result is
    a `NewtonValues`: its direction reuses each block's last factorization.
    """
    n = len(s.variables)
    form = float_form(s)
    deps = s.dependencies
    values = [0.0] * n
    direction = [1.0] * n
    for comp in s.blocks:
        local = {v: k for k, v in enumerate(comp)}
        rows = _block_rows(form, comp, local, values)
        if not _reads_itself(comp, deps):
            (v,) = comp
            values[v] = min(1.0, max(0.0, rows[0][0]))
            (direction[v],) = _positive(_direction_rhs(form, comp, local, values, direction))
            continue
        x = [0.0] * len(comp)
        lu = None
        for _ in range(max_iter):
            fx = _image(rows, x)
            factored = _factor(_newton_matrix(rows, x))
            dx = None if factored is None else _lu_solve(factored, [f - y for f, y in zip(fx, x)])
            if dx is None or not _finite(dx):
                lu = None  # float rounding at the fixed point: keep x
                break
            lu = factored
            x = _clip([y + d for y, d in zip(x, dx)])
            if max(map(abs, dx)) < epsilon:
                break
        for v, value in zip(comp, x):
            values[v] = value
        for v, dv in zip(comp, _block_direction(form, comp, local, lu, values, direction)):
            direction[v] = dv
    return NewtonValues(values, _scaled(direction))


# ---------------------------------------------------------------------------
# certificates


def certify_subreturn(s: EqSystem, head: Head, candidate: Sequence[Fraction]) -> bool:
    """Exact check that `candidate` witnesses a sub-one return probability.

    True iff F(candidate) <= candidate at every coordinate below one and
    the candidate's return mass at `head` is strictly below one; then the
    least fixed point x* lies below the candidate and the head is SubReturn.

    A coordinate equal to one needs no check, since pop probabilities never
    exceed one.  Let P be the coordinates at one and R the rest, so that
    F_R(c_R, 1_P) <= c_R.  By monotonicity c_R is pre-fixed for
    H(y) = F_R(y, x*_P), whose least fixed point is x*_R: x*_R is a fixed
    point of H, and (lfp H, x*_P) is pre-fixed for F, so lies above x*.
    Knaster-Tarski then gives c_R >= x*_R, and c_P = 1 >= x*_P.
    """
    cand = [Fraction(c) for c in candidate]
    if len(cand) != len(s.variables):
        raise ValueError("candidate length does not match the system")
    if any(not (0 <= c <= 1) for c in cand):
        raise ValueError("candidate must lie in [0, 1]^n")
    for (scale, const, monos), c in zip(s.equations, cand):
        if c == 1:
            continue  # at one, so already above x*
        if const + sum(a * math.prod(cand[f] for f in fs) for a, fs in monos) > scale * c:
            return False
    return sum(cand[i] for i in s.head_vars.get(head, ())) < 1


def subreturn_candidate(
    s: EqSystem,
    head: Head,
    newton_values: NewtonValues,
) -> Optional[tuple[Fraction, ...]]:
    """Round a Newton approximant up into a verifiable certificate for `head`.

    The per-head view of `subreturn_certificates`: the system's one
    candidate if it certifies `head`, or None.
    """
    return subreturn_certificates(s, [head], newton_values)[head]


def _grid_start(values: NewtonValues) -> list[int]:
    """The numerators of min(1, v + CERT_BUMP d), d the values' direction,
    rounded up to the grid, computed exactly from the floating-point v and d
    (the bump lies on the grid)."""
    lift = int(CERT_BUMP * GRID)
    out = []
    for v, d in zip(values, values.direction):
        p, q = v.as_integer_ratio()
        pd, qd = d.as_integer_ratio()
        # v GRID + d lift = (p GRID qd + pd lift q) / (q qd)
        out.append(min(GRID, -(-(p * GRID * qd + pd * lift * q) // (q * qd))))
    return out


def _pre_fixed(s: EqSystem, n: Sequence[int]) -> bool:
    """Whether the candidate c = n / GRID lies above the least fixed point
    x*: whether F(c) <= c at every coordinate below one, stopping at the
    first equation that fails.  A coordinate capped at one (n = GRID) is
    skipped, as `certify_subreturn` skips it: pop probabilities never
    exceed one, so it already bounds x* from above, and by Knaster-Tarski
    on H(y) = F_R(y, x*_P), P the capped coordinates and R the rest, the
    checked ones bound x*_R.  From the equation's integer row
    (L, L const, [(L a, f)]), T = L const GRID^2 + sum L a n_f GRID
    + sum L a n_f n_g equals L GRID^2 F(c), and F(c) <= c holds exactly
    when T <= L GRID n."""
    for (scale, const, monos), own in zip(s.equations, n):
        if own == GRID:
            continue  # capped at one
        t = const * GRID * GRID
        for a, factors in monos:
            if len(factors) == 1:
                t += a * n[factors[0]] * GRID
            else:
                t += a * n[factors[0]] * n[factors[1]]
        if t > scale * GRID * own:
            return False
    return True


def subreturn_certificates(
    s: EqSystem,
    heads: Sequence[Head],
    newton_values: NewtonValues,
) -> dict[Head, Optional[tuple[Fraction, ...]]]:
    """Certify `heads` with the system's one candidate, or map them to None.

    The candidate, from `_grid_start`, is the Newton values raised by
    CERT_BUMP along their `direction` (at most the bump, where the
    direction peaks), rounded up to the grid of multiples of
    1 / GRID = 2^-64 and capped at one: integer numerators over GRID.
    `_pre_fixed` checks F(c) <= c once, exactly.  If it holds, each head
    whose numerators sum below GRID, that is whose return mass is below
    one, gets the candidate as its certificate, so `certify_subreturn`
    accepts it: one tuple of Fractions, built once and shared.  Every other
    head maps to None.
    """
    result: dict[Head, Optional[tuple[Fraction, ...]]] = dict.fromkeys(heads)
    n = _grid_start(newton_values)
    if not _pre_fixed(s, n):
        return result
    head_vars = s.head_vars
    certificate = None
    for h in result:
        if sum(n[i] for i in head_vars.get(h, ())) < GRID:
            if certificate is None:
                certificate = tuple(Fraction(x, GRID) for x in n)
            result[h] = certificate
    return result


# ---------------------------------------------------------------------------
# exact head classification


@dataclass(frozen=True)
class AlmostSureReturn:
    """Return probability exactly one."""


@dataclass(frozen=True)
class SubReturn:
    """Return probability strictly below one.

    The certificate, when present, is a verified pre-fixed point of the
    cleaned system, the system's one candidate, given to a head the block
    pass of `classify_heads` left undecided; the empty tuple marks the
    trivial case of a head with no surviving variables (return probability
    zero).  None means the head was decided by the block pass (it reads a
    sub-one block or loses mass) or by the SMT solver, or that the
    candidate did not certify it.
    """

    certificate: Optional[tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class Unknown:
    """Not determined by the implemented exact criteria, for `reason`, one
    of:

    - "multi_exit": the head has several surviving variables;
    - "shares_block": its variable's block holds a multi-exit head's
      variable;
    - "reads_undecided": its block reads an undecided block;
    - "smt_unknown": an SMT solver ran and did not decide it.
    """

    reason: str


HeadClass = Union[AlmostSureReturn, SubReturn, Unknown]


def nonnegative_contraction_feasible(a: list[list[int]]) -> bool:
    """Decide whether a nonnegative rational matrix B has spectral radius at
    most one, that is, whether I - B is an M-matrix, from the rows of I - B
    in integers: row i of `a` is row i of I - B times a positive integer.
    For irreducible B this is the same as some v >= 1 satisfying B v <= v.

    Precondition: B is irreducible; then the answer is exact.  For any B,
    True still proves spectral radius at most one, but False may be wrong.
    Gaussian elimination without pivoting runs on I - B: every pivot must
    be positive, or zero with nothing below it left to eliminate.  For
    irreducible B this says that every pivot is positive except that the
    last may be zero (Berman & Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, ch. 6).

    The elimination runs in integers, without division, and in place on
    `a`: a row is eliminated as row_i <- pivot row_i - a_ik row_k with
    pivot > 0, and then divided by the gcd of its remaining entries.  Each
    row stays a positive multiple of the rational row exact elimination
    would hold, so every sign and zero test answers as it would in rational
    arithmetic.
    """
    n = len(a)
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        below = [i for i in range(k + 1, n) if a[i][k]]
        if pivot < 0 or (pivot == 0 and below):
            return False
        for i in below:
            row = a[i]
            factor = row[k]
            rest = [pivot * row[j] - factor * pivot_row[j] for j in range(k + 1, n)]
            g = math.gcd(*rest)
            if g > 1:
                rest = [x // g for x in rest]
            row[k + 1 :] = rest
    return True


def spectral_le_one(b: Sequence[Sequence[Fraction]]) -> bool:
    """Exactly decide whether a nonnegative rational matrix (entries
    Fractions or ints) has spectral radius at most one.

    Each row of I - B is scaled by the lcm of its denominators and decided
    by `nonnegative_contraction_feasible`, exact for irreducible B.
    Reducible inputs must be SCC-decomposed by the caller, otherwise only
    the True answer is conclusive.
    """
    a = []
    for i, row in enumerate(b):
        if any(entry < 0 for entry in row):
            raise ValueError("matrix must be nonnegative")
        scale = math.lcm(*(x.denominator for x in row))
        scaled = [-x.numerator * (scale // x.denominator) for x in row]
        scaled[i] += scale
        a.append(scaled)
    return nonnegative_contraction_feasible(a)


def _contraction_rows(s: EqSystem, comp: list[int]) -> list[list[int]]:
    """I - J(1) over the block's own variables, J the Jacobian at the
    all-ones point, in integers: row k is L (I - J(1)) for the equation of
    comp[k], read off its integer row (L, L const, [(L a, factors)]).  A
    monomial takes its L a from the column of each of its factors inside
    the block, twice for a squared factor."""
    local = {v: k for k, v in enumerate(comp)}
    rows = []
    for k, v in enumerate(comp):
        scale, _, monos = s.equations[v]
        row = [0] * len(comp)
        row[k] = scale
        for a, factors in monos:
            for f in factors:
                j = local.get(f)
                if j is not None:
                    row[j] -= a
        rows.append(row)
    return rows


def _mass_below_one(eq: IntegerEquation) -> bool:
    """Whether an equation's mass at one, const + sum a, is below one."""
    scale, const, monos = eq
    return const + sum(a for a, _ in monos) < scale


def classify_heads(s: EqSystem, smt_solver: Optional[str] = None) -> dict[Head, HeadClass]:
    """Three-valued, exact classification of every excursion head.

    Heads with no surviving variables return with probability zero.  The
    dependency blocks (`s.blocks`, shared with Newton and the certificate
    direction) are then visited bottom-up, and a block is decided
    exactly when each of its variables is the only surviving variable of its
    head and each variable it reads outside itself lies in a block already
    decided.  In such a block every push leaves one surviving monomial, so
    each equation has mass at most one.  The block is sub-one when it reads
    a sub-one block or one of its equations has mass below one; otherwise it
    is almost-sure exactly when it has no self-dependency or the Jacobian at
    the all-ones fixed point has spectral radius at most one.

    A head the pass decides is AlmostSureReturn, or SubReturn without a
    certificate.  The heads it leaves undecided share one
    `subreturn_certificates` search, a single candidate checked once, and
    each then gets the first of: SubReturn with that verified candidate as
    its certificate, the optional SMT query, and honest Unknown
    with the reason read off the same pass: the head is multi-exit, or the
    block of its one variable holds a multi-exit head's variable or reads
    an undecided block (see `Unknown`).

    The only numerics are the system's own `s.newton`, solved at the module
    defaults when the certificate search first needs them and kept for the
    next reader; a system whose live heads the pass all decides never
    solves it, and no fixed-point iterate is read.
    """
    head_vars = s.head_vars
    result: dict[Head, HeadClass] = {}
    live: list[Head] = []
    for h in s.heads:
        if head_vars.get(h):
            live.append(h)
        else:
            result[h] = SubReturn(certificate=())
    if not live:
        return result

    deps = s.dependencies
    sole = {vs[0] for vs in head_vars.values() if len(vs) == 1}
    almost_sure: list[Optional[bool]] = [None] * len(s.variables)  # None: not decided
    undecided: dict[int, str] = {}  # per variable of an undecided block: why
    for comp in s.blocks:
        members = set(comp)
        outside = {f for v in comp for f in deps[v] if f not in members}
        if not members <= sole:
            undecided.update(dict.fromkeys(comp, "shares_block"))
            continue
        if any(almost_sure[f] is None for f in outside):
            undecided.update(dict.fromkeys(comp, "reads_undecided"))
            continue
        if not all(almost_sure[f] for f in outside) or any(
            _mass_below_one(s.equations[v]) for v in comp
        ):
            verdict = False
        elif not _reads_itself(comp, deps):
            verdict = True  # no self-dependency: value is F(1) = 1
        else:
            verdict = nonnegative_contraction_feasible(_contraction_rows(s, comp))
        for v in comp:
            almost_sure[v] = verdict

    exact = {h: almost_sure[head_vars[h][0]] if len(head_vars[h]) == 1 else None for h in live}
    undecided_heads = [h for h in live if exact[h] is None]
    certs: dict[Head, Optional[tuple[Fraction, ...]]] = {}
    if undecided_heads:
        certs = subreturn_certificates(s, undecided_heads, s.newton)
    for h in live:
        if exact[h] is not None:
            result[h] = AlmostSureReturn() if exact[h] else SubReturn(certificate=None)
            continue
        if certs[h] is not None:
            result[h] = SubReturn(certificate=certs[h])
            continue
        if smt_solver:
            answer = run_smt_solver(smt_export(s, h), smt_solver)
            if answer == "sat":
                result[h] = SubReturn(certificate=None)
            elif answer == "unsat":
                result[h] = AlmostSureReturn()
            else:
                result[h] = Unknown("smt_unknown")
            continue
        vs = head_vars[h]
        result[h] = Unknown("multi_exit" if len(vs) > 1 else undecided[vs[0]])
    return result


# ---------------------------------------------------------------------------
# SMT export


def _smt_frac(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator) if x >= 0 else f"(- {-x.numerator})"
    return f"(/ {x.numerator} {x.denominator})"


def smt_var(key: VarKey) -> str:
    q, x, q2 = key
    return f"v_{q}_{x}_{q2}"


def smt_export(s: EqSystem, head: Head) -> str:
    """SMT-LIB2 sentence: some fixed point in [0,1]^n has return mass below
    one at `head`.  Satisfiable iff the head is SubReturn, because the least
    fixed point is bounded by every fixed point."""
    hv = s.head_vars.get(head)
    if not hv:
        raise ValueError(f"head {head} has no surviving variables; nothing to export")
    lines = ["(set-logic QF_NRA)"]
    names = [smt_var(v) for v in s.variables]
    for name in names:
        lines.append(f"(declare-const {name} Real)")
    for name in names:
        lines.append(f"(assert (and (>= {name} 0) (<= {name} 1)))")
    for i, (scale, const, monos) in enumerate(s.equations):
        terms = [_smt_frac(Fraction(const, scale))] if const else []
        for a, fs in monos:
            factors = " ".join(names[f] for f in fs)
            terms.append(f"(* {_smt_frac(Fraction(a, scale))} {factors})")
        if not terms:
            rhs = "0"
        elif len(terms) == 1:
            rhs = terms[0]
        else:
            rhs = f"(+ {' '.join(terms)})"
        lines.append(f"(assert (= {names[i]} {rhs}))")
    if len(hv) == 1:
        head_sum = names[hv[0]]
    else:
        head_sum = f"(+ {' '.join(names[i] for i in hv)})"
    lines.append(f"(assert (< {head_sum} 1))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_smt_solver(script: str, solver_cmd: str) -> str:
    """Invoke an external SMT-LIB2 solver; returns 'sat', 'unsat' or 'unknown'.

    Its modules are imported here, since SMT is off by default and every
    command would otherwise pay for `subprocess` at startup."""
    import subprocess
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "query.smt2"
        path.write_text(script, encoding="utf-8")
        try:
            proc = subprocess.run(
                [solver_cmd, str(path)],
                capture_output=True,
                text=True,
                timeout=SMT_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    for line in proc.stdout.splitlines():
        word = line.strip()
        if word in ("sat", "unsat"):
            return word
    return "unknown"
