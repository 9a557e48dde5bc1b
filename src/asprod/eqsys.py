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
(SubReturn, where possible with a machine-checked pre-fixed-point
certificate), or is not determined by the implemented criteria (Unknown,
with the reason it stayed undecided).  Every verdict is checked in
exact arithmetic, on integers: each equation is scaled once to integer
coefficients (`EqSystem.integer_form`), the mass test is one integer
comparison on that form, and the spectral test eliminates the integer
rows of I - J(1) without division.  The certificate candidates are Newton
values bumped along d = (I - J)^-1 1, which gains slack in every equation
at first order where a uniform bump gains none on unit-mass equations, so
which heads get a certificate no longer hinges on the last bits of those
floating-point values.  The candidates lie on the grid of multiples of
2^-64: each is a vector of integer numerators over 2^64, read against the
same integer form of each equation, and every comparison of the search is
one exact integer comparison, so no denominator grows past 2^64.
Positivity cleaning is a worklist over the monomials each variable
unblocks, linear in the size of the system.  Newton runs in plain Python
floats; this module never imports numpy.
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

ZERO = Fraction(0)

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_ITER = 100_000
NEWTON_MAX_ITER = 200
CERT_BUMPS = (Fraction(1, 2**20), Fraction(1, 2**10))
CERT_REFINE = 6
GRID = 2**64  # certificate values are multiples of 1 / GRID
SMT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Monomial:
    coef: Fraction
    factors: tuple[int, ...]  # one or two variable indices


@dataclass(frozen=True)
class Equation:
    const: Fraction
    monomials: tuple[Monomial, ...]


# An equation scaled to integers: (L, L const, [(L a, factors)]), with L the
# lcm of the denominators of its constant and coefficients.
IntegerEquation = tuple[int, int, list[tuple[int, tuple[int, ...]]]]


@dataclass(frozen=True, eq=False)
class EqSystem:
    variables: tuple[VarKey, ...]
    equations: tuple[Equation, ...]
    heads: tuple[Head, ...]
    state_names: tuple[str, ...]
    alphabet: tuple[str, ...]

    def head_vars(self) -> dict[Head, list[int]]:
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
        return [{f for m in eq.monomials for f in m.factors} for eq in self.equations]

    @cached_property
    def blocks(self) -> list[list[int]]:
        """The strongly connected blocks of the dependency graph, bottom-up:
        every variable a block reads lies in it or in an earlier block.
        Computed once per system, for classification, Newton and the
        certificate direction alike."""
        deps = self.dependencies
        return strongly_connected_components(range(len(self.variables)), deps.__getitem__)

    @cached_property
    def integer_form(self) -> list[IntegerEquation]:
        """Each equation once in integers, (L, L const, [(L a, factors)])
        with L the lcm of the denominators of its constant and
        coefficients: L x = L const + sum L a prod(factors) holds exactly.
        The mass test, the Jacobian at one and the certificate grid all
        read this one form."""
        out = []
        for eq in self.equations:
            c = eq.const
            scale = math.lcm(c.denominator, *(m.coef.denominator for m in eq.monomials))
            monos = [
                (m.coef.numerator * (scale // m.coef.denominator), m.factors)
                for m in eq.monomials
            ]
            out.append((scale, c.numerator * (scale // c.denominator), monos))
        return out

    @cached_property
    def newton(self) -> NewtonValues:
        """`newton_solve` at its defaults, computed once per system."""
        return newton_solve(self)

    @cached_property
    def kleene(self) -> tuple[list[float], int]:
        """`kleene_solve` at its defaults, (values, iterations), computed
        once per system."""
        return kleene_solve(self)


def build_system(p: Ppda) -> EqSystem:
    """Assemble the pop-probability system of a translated automaton.

    Variables [q, X, q'] are created only for landing states q' that some
    pop on X can produce; all omitted variables are identically zero.
    """
    pop_targets: dict[str, list[int]] = {x: [] for x in p.alphabet}
    for x in p.alphabet:
        seen: set[int] = set()
        for q in range(len(p.states)):
            for m in p.rows[(q, x)]:
                if not m.push and m.target not in seen:
                    seen.add(m.target)
                    pop_targets[x].append(m.target)

    variables: list[VarKey] = []
    for q in range(len(p.states)):
        for x in p.alphabet:
            for q2 in pop_targets[x]:
                variables.append((q, x, q2))
    index = {v: i for i, v in enumerate(variables)}

    equations: list[Equation] = []
    for q, x, q2 in variables:
        const = ZERO
        monomials: list[Monomial] = []
        for m in p.rows[(q, x)]:
            if not m.push:  # pop
                if m.target == q2:
                    const += m.prob
            elif len(m.push) == 1:  # keep: the read symbol is pushed back
                monomials.append(Monomial(m.prob, (index[(m.target, x, q2)],)))
            else:  # push over the re-pushed read symbol
                y = m.push[0]
                for s in pop_targets[y]:
                    monomials.append(
                        Monomial(m.prob, (index[(m.target, y, s)], index[(s, x, q2)]))
                    )
        equations.append(Equation(const, tuple(monomials)))

    heads = tuple((q, x) for q in range(len(p.states)) for x in p.alphabet)
    return EqSystem(
        variables=tuple(variables),
        equations=tuple(equations),
        heads=heads,
        state_names=p.state_names,
        alphabet=p.alphabet,
    )


# ---------------------------------------------------------------------------
# evaluation helpers


def evaluate(eq: Equation, values: Sequence) -> object:
    acc = eq.const
    for m in eq.monomials:
        term = m.coef
        for f in m.factors:
            term = term * values[f]
        acc = acc + term
    return acc


def _compiled(s: EqSystem):
    return [
        (float(eq.const), [(float(m.coef), m.factors) for m in eq.monomials])
        for eq in s.equations
    ]


# ---------------------------------------------------------------------------
# positivity cleaning


def clean(s: EqSystem) -> tuple[EqSystem, dict[VarKey, bool]]:
    """Remove variables whose least-fixed-point value is zero.

    Positivity is the least boolean fixed point: a variable is positive iff
    its constant is positive or some monomial has all factors positive.  It
    is computed by a worklist: each monomial counts its distinct factors not
    yet known positive, and a variable that turns positive decrements every
    monomial waiting on it; a monomial reaching zero makes its equation's
    variable positive.  Each variable and each monomial is handled once.
    Monomials mentioning removed variables are dropped; the least fixed
    point of the surviving variables is unchanged.
    """
    n = len(s.variables)
    positive = [eq.const.numerator > 0 for eq in s.equations]
    owner: list[int] = []  # per monomial: the variable whose equation holds it
    waiting: list[int] = []  # per monomial: its distinct factors not yet positive
    watchers: list[list[int]] = [[] for _ in range(n)]  # per variable: monomials on it
    work: list[int] = []  # turned positive, monomials waiting on it not yet told
    for i, eq in enumerate(s.equations):
        if positive[i]:
            continue
        for m in eq.monomials:
            missing = {f for f in m.factors if not positive[f]}
            if not missing:
                positive[i] = True
                work.append(i)
                break
            for f in missing:
                watchers[f].append(len(owner))
            owner.append(i)
            waiting.append(len(missing))
    while work:
        for k in watchers[work.pop()]:
            waiting[k] -= 1
            i = owner[k]
            if not waiting[k] and not positive[i]:
                positive[i] = True
                work.append(i)

    keep = [i for i in range(n) if positive[i]]
    remap = {old: new for new, old in enumerate(keep)}
    new_eqs = []
    for i in keep:
        eq = s.equations[i]
        monos = tuple(
            Monomial(m.coef, tuple(remap[f] for f in m.factors))
            for m in eq.monomials
            if all(positive[f] for f in m.factors)
        )
        new_eqs.append(Equation(eq.const, monos))
    cleaned = EqSystem(
        variables=tuple(s.variables[i] for i in keep),
        equations=tuple(new_eqs),
        heads=s.heads,
        state_names=s.state_names,
        alphabet=s.alphabet,
    )
    positivity = {s.variables[i]: positive[i] for i in range(n)}
    return cleaned, positivity


# ---------------------------------------------------------------------------
# numeric solvers (Kleene values are printed, never read by a verdict; Newton
# values seed the certificate candidates, each of which is then checked
# exactly)


def kleene_solve(
    s: EqSystem, epsilon: float = DEFAULT_EPSILON, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[list[float], int]:
    """Iterate x <- F(x) from zero; monotone nondecreasing lower bounds."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eqs = _compiled(s)
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
    direction a certificate search bumps them along (see
    `certificate_direction`), solved with each block's last Newton
    factorization."""

    def __init__(self, values: list[float], direction: list[float]):
        super().__init__(values)
        self.direction = direction


def _block_rows(s: EqSystem, comp: Sequence[int], local: dict[int, int], values):
    """The block's equations in floats, with every variable read outside the
    block fixed at its value: per variable, its constant, its linear terms
    (coef, j) and its quadratic terms (coef, j, k), over local indices."""
    rows = []
    for v in comp:
        eq = s.equations[v]
        const = float(eq.const)
        lin: list[tuple[float, int]] = []
        quad: list[tuple[float, int, int]] = []
        for m in eq.monomials:
            coef = float(m.coef)
            inner = []
            for f in m.factors:
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


def _block_direction(s, comp, local, lu, values, direction) -> list[float]:
    """The block's part of (I - J)^-1 1, given the parts of the blocks it
    reads in `direction`, or all ones if the solve fails.

    `lu` is I - J over the block's own variables, factored by `_factor`, or
    None if it was singular.
    """
    if lu is None:
        return [1.0] * len(comp)
    rhs = []
    for v in comp:
        total = 1.0
        for m in s.equations[v].monomials:
            fs = m.factors
            for pos, f in enumerate(fs):
                if f not in local:
                    partial = float(m.coef)
                    if len(fs) == 2:
                        partial *= values[fs[1 - pos]]
                    total += partial * direction[f]
        rhs.append(total)
    d = _lu_solve(lu, rhs)
    if not _finite(d) or min(d) <= 0.0:
        return [1.0] * len(comp)
    return d


def _scaled(direction: list[float]) -> list[float]:
    top = max(direction, default=1.0)
    return [x / top for x in direction]


def newton_solve(
    s: EqSystem,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = NEWTON_MAX_ITER,
) -> list[float]:
    """Decomposed Newton iteration, one strongly connected block at a time.

    Blocks are solved bottom-up in dependency order, starting from zero, so
    iterates approach the least fixed point from below.  Each step solves
    (I - J) dx = F(x) - x by Gaussian elimination with partial pivoting,
    clips to [0, 1], and stops once max |dx| < epsilon.  A singular Newton
    matrix or a step that is not finite falls back to plain value iteration
    for that block.  The result is a `NewtonValues`: its direction reuses
    each block's last factorization, one more back-substitution per block.
    """
    n = len(s.variables)
    values = [0.0] * n
    direction = [1.0] * n
    for comp in s.blocks:
        local = {v: k for k, v in enumerate(comp)}
        rows = _block_rows(s, comp, local, values)
        x = [0.0] * len(comp)
        lu = None
        for _ in range(max_iter):
            fx = _image(rows, x)
            factored = _factor(_newton_matrix(rows, x))
            dx = None if factored is None else _lu_solve(factored, [f - y for f, y in zip(fx, x)])
            if dx is None or not _finite(dx):
                # damping fallback: plain value iteration for this block
                lu = None
                for _ in range(DEFAULT_MAX_ITER):
                    fx = _image(rows, x)
                    step = max(abs(f - y) for f, y in zip(fx, x))
                    x = _clip(fx)
                    if step < epsilon:
                        break
                break
            lu = factored
            x = _clip([y + d for y, d in zip(x, dx)])
            if max(map(abs, dx)) < epsilon:
                break
        for v, value in zip(comp, x):
            values[v] = value
        for v, dv in zip(comp, _block_direction(s, comp, local, lu, values, direction)):
            direction[v] = dv
    return NewtonValues(values, _scaled(direction))


def certificate_direction(s: EqSystem, values: Sequence[float]) -> list[float]:
    """The direction a certificate search bumps `values` along.

    It is d = (I - J)^-1 1 with J the Jacobian at `values`, solved block by
    block bottom-up and scaled to max d = 1; a block whose solve is
    singular, not finite or not positive keeps d = 1.  On the least fixed
    point x*, F(x* + t d) - (x* + t d) = -t (I - J) d + O(t^2) = -t 1 + O(t^2)
    before scaling, so a small bump along d gains slack in every equation at
    first order, where a uniform bump gains none on a variable whose
    equation has unit mass.  Values from `newton_solve` carry their
    direction already.
    """
    if isinstance(values, NewtonValues):
        return values.direction
    direction = [1.0] * len(s.variables)
    for comp in s.blocks:
        local = {v: k for k, v in enumerate(comp)}
        x = [values[v] for v in comp]
        lu = _factor(_newton_matrix(_block_rows(s, comp, local, values), x))
        for v, dv in zip(comp, _block_direction(s, comp, local, lu, values, direction)):
            direction[v] = dv
    return _scaled(direction)


# ---------------------------------------------------------------------------
# certificates


def certify_subreturn(s: EqSystem, head: Head, candidate: Sequence[Fraction]) -> bool:
    """Exact check that `candidate` witnesses a sub-one return probability.

    True iff F(candidate) <= candidate componentwise and the candidate's
    return mass at `head` is strictly below one; then the least fixed point
    lies below the candidate and the head is SubReturn.
    """
    cand = [Fraction(c) for c in candidate]
    if len(cand) != len(s.variables):
        raise ValueError("candidate length does not match the system")
    if any(not (0 <= c <= 1) for c in cand):
        raise ValueError("candidate must lie in [0, 1]^n")
    for i, eq in enumerate(s.equations):
        if evaluate(eq, cand) > cand[i]:
            return False
    head_sum = sum(
        (cand[i] for i, (q, x, _) in enumerate(s.variables) if (q, x) == head), ZERO
    )
    return head_sum < 1


def subreturn_candidate(
    s: EqSystem,
    head: Head,
    newton_values: Sequence[float],
) -> Optional[tuple[Fraction, ...]]:
    """Round a Newton approximant up into a verifiable certificate for `head`.

    The per-head view of `subreturn_certificates`: the first candidate of
    the shared search whose return mass at `head` is below one, or None.
    """
    return subreturn_certificates(s, [head], newton_values)[head]


def _grid_rows(s: EqSystem) -> list[tuple[int, list, list, int]]:
    """Each equation scaled to integers on the certificate grid.

    From the equation's integer form `s.integer_form` (L the lcm of the
    denominators of its constant and coefficients), and a candidate
    c = N / GRID, the row is
    (L const GRID^2, [(L a GRID, f)], [(L a, f, g)], L GRID), so that
    T = L const GRID^2 + sum L a N_f GRID + sum L a N_f N_g equals
    L GRID^2 F(c) and F(c) <= c holds exactly when T <= L GRID N.
    """
    rows = []
    for scale, const, monos in s.integer_form:
        lin: list[tuple[int, int]] = []
        quad: list[tuple[int, int, int]] = []
        for a, factors in monos:
            if len(factors) == 1:
                lin.append((a * GRID, factors[0]))
            else:
                quad.append((a, *factors))
        rows.append((const * GRID * GRID, lin, quad, scale * GRID))
    return rows


def _grid_start(values: Sequence[float], direction: Sequence[float], bump: Fraction) -> list[int]:
    """The numerators of min(1, v + bump d) rounded up to the grid,
    computed exactly from the floating-point v and d (the bump lies on the
    grid)."""
    lift = int(bump * GRID)
    out = []
    for v, d in zip(values, direction):
        p, q = v.as_integer_ratio()
        pd, qd = d.as_integer_ratio()
        # v GRID + d lift = (p GRID qd + pd lift q) / (q qd)
        out.append(min(GRID, -(-(p * GRID * qd + pd * lift * q) // (q * qd))))
    return out


def _grid_step(rows, n: list[int]) -> tuple[bool, list[int]]:
    """One application of F on the grid: whether the candidate with
    numerators `n` is a pre-fixed point, and the numerators of
    min(1, F(c)) rounded up to the grid, min(GRID, ceil(T / (L GRID)))."""
    pre_fixed = True
    image = []
    for (const, lin, quad, unit), own in zip(rows, n):
        t = const
        for a, f in lin:
            t += a * n[f]
        for a, f, g in quad:
            t += a * n[f] * n[g]
        if t > unit * own:
            pre_fixed = False
        image.append(min(GRID, -(-t // unit)))
    return pre_fixed, image


def subreturn_certificates(
    s: EqSystem,
    heads: Sequence[Head],
    newton_values: Sequence[float],
) -> dict[Head, Optional[tuple[Fraction, ...]]]:
    """Search pre-fixed-point certificates for all `heads` in one walk.

    The walk runs on the grid of multiples of 1 / GRID = 2^-64, in plain
    integers: a candidate is a list of numerators N over GRID, each at most
    GRID.  For each bump, the start is the Newton approximant raised by the
    bump times `certificate_direction` (at most the bump, on the variables
    the direction peaks at), rounded up to the grid exactly from the
    floating-point values and capped at one.  It is then contracted by up to
    CERT_REFINE applications of the system map F (see `_grid_rows`), each
    result rounded up to the grid and capped at one.  Each step evaluates F
    once: F(c) <= c, one integer comparison per equation, makes c a
    pre-fixed point.  A head gets the first pre-fixed candidate, in (bump,
    step) order, whose numerators at the head sum below GRID, that is whose
    return mass is below one, so `certify_subreturn` accepts every
    certificate returned; heads no candidate serves map to None.  A
    certificate is a tuple of Fractions with denominators dividing 2^64,
    built only when some head takes its candidate.  The walk stops once
    every head has a certificate, and at most
    len(CERT_BUMPS) * (CERT_REFINE + 1) applications of F are made,
    however many heads there are.
    """
    head_vars = s.head_vars()
    direction = certificate_direction(s, newton_values)
    rows = _grid_rows(s)
    result: dict[Head, Optional[tuple[Fraction, ...]]] = dict.fromkeys(heads)
    pending = list(result)
    for bump in CERT_BUMPS:
        n = _grid_start(newton_values, direction, bump)
        for _ in range(CERT_REFINE + 1):
            pre_fixed, image = _grid_step(rows, n)
            if pre_fixed:
                frozen = None
                still = []
                for h in pending:
                    if sum(n[i] for i in head_vars.get(h, ())) < GRID:
                        if frozen is None:
                            frozen = tuple(Fraction(x, GRID) for x in n)
                        result[h] = frozen
                    else:
                        still.append(h)
                pending = still
                if not pending:
                    return result
            n = image
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
    cleaned system; the empty tuple marks the trivial case of a head with no
    surviving variables (return probability zero).
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


def nonnegative_contraction_feasible(b: Sequence[Sequence[Fraction]]) -> bool:
    """Decide whether the nonnegative rational matrix B (entries Fractions
    or ints) has spectral radius at most one, that is, whether I - B is an
    M-matrix.  For irreducible B this is the same as some v >= 1 satisfying
    B v <= v.

    Precondition: B is irreducible; then the answer is exact.  For any B,
    True still proves spectral radius at most one, but False may be wrong.
    Gaussian elimination without pivoting runs on I - B: every pivot must
    be positive, or zero with nothing below it left to eliminate.  For
    irreducible B this says that every pivot is positive except that the
    last may be zero (Berman & Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, ch. 6).

    The elimination runs in integers, without division: each row of I - B
    is scaled by the lcm of its denominators, a row is eliminated as
    row_i <- pivot row_i - a_ik row_k with pivot > 0, and then divided by
    the gcd of its remaining entries.  Each row stays a positive multiple
    of the rational row exact elimination would hold, so every sign and
    zero test answers as it would in rational arithmetic.
    """
    n = len(b)
    a = []
    for i, row in enumerate(b):
        scale = math.lcm(*(x.denominator for x in row))
        scaled = [-x.numerator * (scale // x.denominator) for x in row]
        scaled[i] += scale
        a.append(scaled)
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
    """Exactly decide whether a nonnegative rational matrix has spectral
    radius at most one.

    Decided by `nonnegative_contraction_feasible`, exact for irreducible B.
    Reducible inputs must be SCC-decomposed by the caller, otherwise only
    the True answer is conclusive.
    """
    for row in b:
        for entry in row:
            if entry < 0:
                raise ValueError("matrix must be nonnegative")
    return nonnegative_contraction_feasible(b)


def _internal_jacobian_at_one(
    s: EqSystem, comp: list[int]
) -> list[list[Fraction]]:
    """Jacobian of the block at the all-ones point, internal columns only.

    Each entry is summed in integers from the equation's integer form and
    divided by its L once: a monomial adds its coefficient to the column of
    each of its factors inside the block, twice for a squared factor."""
    local = {v: k for k, v in enumerate(comp)}
    jac = []
    for v in comp:
        scale, _, monos = s.integer_form[v]
        row = [0] * len(comp)
        for a, factors in monos:
            for f in factors:
                k = local.get(f)
                if k is not None:
                    row[k] += a
        jac.append([Fraction(x, scale) if x else ZERO for x in row])
    return jac


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

    Every head not decided almost-sure takes part in a single
    `subreturn_certificates` walk.  A head then gets the first of:
    AlmostSureReturn if decided almost-sure, SubReturn with a verified
    certificate, SubReturn without one if decided sub-one, the optional SMT
    query, and honest Unknown with the reason read off the same pass: the
    head is multi-exit, or the block of its one variable holds a multi-exit
    head's variable or reads an undecided block (see `Unknown`).

    The only numerics are the system's own `s.newton`, solved at the module
    defaults when a certificate search first needs them and kept for the
    next reader; no fixed-point iterate is read.
    """
    head_vars = s.head_vars()
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
            _mass_below_one(s.integer_form[v]) for v in comp
        ):
            verdict = False
        elif len(comp) == 1 and comp[0] not in deps[comp[0]]:
            verdict = True  # no self-dependency: value is F(1) = 1
        else:
            verdict = spectral_le_one(_internal_jacobian_at_one(s, comp))
        for v in comp:
            almost_sure[v] = verdict

    exact = {h: almost_sure[head_vars[h][0]] if len(head_vars[h]) == 1 else None for h in live}
    uncertain = [h for h in live if not exact[h]]
    certs: dict[Head, Optional[tuple[Fraction, ...]]] = {}
    if uncertain:
        certs = subreturn_certificates(s, uncertain, s.newton)
    for h in live:
        if exact[h]:
            result[h] = AlmostSureReturn()
            continue
        if certs[h] is not None:
            result[h] = SubReturn(certificate=certs[h])
            continue
        if exact[h] is False:
            result[h] = SubReturn(certificate=None)
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
    hv = [i for i, (q, x, _) in enumerate(s.variables) if (q, x) == head]
    if not hv:
        raise ValueError(f"head {head} has no surviving variables; nothing to export")
    lines = ["(set-logic QF_NRA)"]
    names = [smt_var(v) for v in s.variables]
    for name in names:
        lines.append(f"(declare-const {name} Real)")
    for name in names:
        lines.append(f"(assert (and (>= {name} 0) (<= {name} 1)))")
    for i, eq in enumerate(s.equations):
        terms = [_smt_frac(eq.const)] if eq.const != 0 else []
        for m in eq.monomials:
            factors = " ".join(names[f] for f in m.factors)
            terms.append(f"(* {_smt_frac(m.coef)} {factors})")
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
