"""AST for recursive probabilistic stream and tree definitions.

A definition binds a single name to a guardedness-free recursive term built
from probabilistic choice, output constructors and destructors.  Every leaf of
a term is an occurrence of the defined name, so recursion is global: a term
never refers to any other definition.

The module also reads and writes numbers in chunks (`read_int`, `int_str`,
`frac_str`, `fraction_str`), so a lowered int-string limit changes nothing:
the parser reads with them, and `validate` and every output write with them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Kind(Enum):
    STREAM = "stream"
    TREE = "tree"


def _structural_hash(node: "_Node") -> int:
    """The hash of a node's class name and fields, computed the first time
    the node is hashed, before it keeps anything else."""
    return hash((type(node).__name__, *vars(node).values()))


class _Node:
    """Base of the term nodes: a node computes its structural hash once and
    keeps it, so hashing a term costs one step per node, however often and
    however deep it is hashed.  Nodes are equal when they have the same
    class and equal fields, so terms built separately still merge."""

    _hash = None  # set on the first hash

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _structural_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return hash(self) == hash(other) and vars(self) == vars(other)


@dataclass(frozen=True, eq=False)
class RecVar(_Node):
    """Recursive occurrence of the definition's own name."""


@dataclass(frozen=True, eq=False)
class Choice(_Node):
    """Take `left` with probability `prob`, otherwise `right`; 0 < prob < 1."""

    prob: Fraction
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Cons(_Node):
    """Stream constructor: emit `label`, continue as `tail`."""

    label: str
    tail: "Term"


@dataclass(frozen=True, eq=False)
class Tail(_Node):
    """Stream destructor: drop the first element produced by `arg`."""

    arg: "Term"


@dataclass(frozen=True, eq=False)
class Mk(_Node):
    """Tree constructor: emit `label` at the root, with two child terms."""

    label: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Left(_Node):
    """Tree destructor: descend to the left child of `arg`."""

    arg: "Term"


@dataclass(frozen=True, eq=False)
class Right(_Node):
    """Tree destructor: descend to the right child of `arg`."""

    arg: "Term"


Term = Union[RecVar, Choice, Cons, Tail, Mk, Left, Right]

_STREAM_ONLY = (Cons, Tail)
_TREE_ONLY = (Mk, Left, Right)


class InvalidDefinition(ValueError):
    """A definition violates a structural invariant."""


@dataclass(frozen=True)
class Definition:
    """A named recursive equation `name = body` of the given kind."""

    name: str
    kind: Kind
    body: Term

    def validate(self) -> "Definition":
        """Raise InvalidDefinition unless the name and every label are
        identifiers, every choice probability lies strictly between 0 and 1,
        and the body uses only the connectives of its kind.  One walk that
        visits each node object once, so shared subterms cost nothing."""
        if not IDENT_RE.match(self.name):
            raise InvalidDefinition(f"invalid definition name {self.name!r}")
        banned = _TREE_ONLY if self.kind is Kind.STREAM else _STREAM_ONLY
        seen: set[int] = set()
        stack = [self.body]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            if isinstance(t, banned):
                raise InvalidDefinition(
                    f"mixed-kind term: {type(t).__name__} not allowed in a {self.kind.value}"
                )
            if isinstance(t, Choice) and not 0 < t.prob < 1:
                raise InvalidDefinition(
                    f"probability out of range in {self.name}: {fraction_str(t.prob)}"
                )
            if isinstance(t, (Cons, Mk)) and not IDENT_RE.match(t.label):
                raise InvalidDefinition(f"invalid label {t.label!r} in {self.name}")
            stack.extend(children(t))
        return self


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Choice):
        return (t.left, t.right)
    if isinstance(t, Cons):
        return (t.tail,)
    if isinstance(t, Mk):
        return (t.left, t.right)
    if isinstance(t, (Tail, Left, Right)):
        return (t.arg,)
    return ()


def subterms_of(t: Term) -> tuple[Term, ...]:
    """Distinct subterms of `t` in pre-order, merged by structural equality."""
    seen: dict[Term, None] = {}

    def walk(node: Term) -> None:
        if node not in seen:
            seen[node] = None
            for c in children(node):
                walk(c)

    walk(t)
    return tuple(seen)


def subterms(d: Definition) -> tuple[Term, ...]:
    """Distinct subterms of the body, pre-order; the body itself comes first."""
    return subterms_of(d.body)


# ---------------------------------------------------------------------------
# numbers past the int-string limit

_CHUNK_DIGITS = 600  # fewer than 640, the lowest int-string limit allowed
_CHUNK = 10**_CHUNK_DIGITS


def read_int(digits: str) -> int:
    """`int(digits)` for a string of decimal digits of any length, whatever
    `sys.set_int_max_str_digits` says: a longer string is read in chunks of
    600 digits."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    n = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i : i + _CHUNK_DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def int_str(n: int) -> str:
    """`str(n)` for an int of any size, whatever `sys.set_int_max_str_digits`
    says.  An int of more than 600 digits is written as the decimals of its
    two halves, each in turn by this function.  A drift multiplies the
    literals' denominators, so it can pass a limit that each literal
    respects."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of its decimal digits
    high, low = divmod(n, 10**half)
    return int_str(high) + int_str(low).zfill(half)


def frac_str(x: Fraction) -> str:
    """`x` as "num/den", the denominator written even when it is 1."""
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def fraction_str(x: Fraction) -> str:
    """`x` as `str(x)` writes it: "num/den", or "num" when den is 1."""
    return int_str(x.numerator) if x.denominator == 1 else frac_str(x)
