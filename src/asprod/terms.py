"""AST for recursive probabilistic stream and tree definitions.

A definition binds a single name to a guardedness-free recursive term built
from probabilistic choice, output constructors and destructors.  Every leaf of
a term is an occurrence of the defined name, so recursion is global: a term
never refers to any other definition.
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


@dataclass(frozen=True)
class RecVar:
    """Recursive occurrence of the definition's own name."""


@dataclass(frozen=True)
class Choice:
    """Take `left` with probability `prob`, otherwise `right`; 0 < prob < 1."""

    prob: Fraction
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Cons:
    """Stream constructor: emit `label`, continue as `tail`."""

    label: str
    tail: "Term"


@dataclass(frozen=True)
class Tail:
    """Stream destructor: drop the first element produced by `arg`."""

    arg: "Term"


@dataclass(frozen=True)
class Mk:
    """Tree constructor: emit `label` at the root, with two child terms."""

    label: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Left:
    """Tree destructor: descend to the left child of `arg`."""

    arg: "Term"


@dataclass(frozen=True)
class Right:
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
                raise InvalidDefinition(f"probability out of range in {self.name}: {t.prob}")
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
