"""Concrete syntax: scanner, recursive-descent parser, and pretty-printer.

Definition files contain one equation per `stream`/`tree` keyword::

    # line comments start with '#'
    stream s = (a : s) (+ 3/4) tail(s)
    tree   t = left(t) (+ 1/4) mk(x, t, t)

Choice `e1 (+ p) e2` is right-associative and binds loosest.  Probabilities
are rationals `num/den`, decimals, or the integer literals 0 and 1; the
endpoints are normalized away (p = 1 keeps the left branch, p = 0 the right),
so every Choice node carries an exact rational strictly between 0 and 1.

The grammar is ASCII: identifiers are `[A-Za-z][A-Za-z0-9_]*` and numbers
use the digits 0-9.  One regular expression cuts the text into tokens, kept
as plain strings; the parser indexes that list, and an error works out its
line and column only when it is reported, by scanning the text again up to
the failing token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .terms import (
    Choice,
    Cons,
    Definition,
    InvalidDefinition,
    Kind,
    Left,
    Mk,
    RecVar,
    Right,
    Tail,
    Term,
)

KEYWORDS = frozenset({"stream", "tree", "tail", "mk", "left", "right"})

# Deepest nesting a term may have.  Each parenthesis, constructor, destructor
# and choice opens one level.  Parsing, the drift measure, printing,
# translation and the sampler all recurse on the term.  At this depth each of
# them stays within the interpreter's default recursion limit of 1000 frames
# with 300 frames already on the caller's stack; at 300 levels, neither
# parsing nor translation's merge of two equal halves does.
MAX_NESTING = 200

# Most digits a number may have: a longer one exceeds the interpreter's
# default limit on converting a string to an int.
MAX_DIGITS = 4300

# One match per token: an identifier, an integer or decimal, a symbol, a
# comment, or any other character outside whitespace.  Such a character is
# one token long, no rule of the grammar accepts it, and it is reported as
# unexpected wherever it stands in the file.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+(?:\.[0-9]+)?|[=():,/+]|#[^\n]*|[^ \t\r\n]")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = frozenset("0123456789")
_STARTS = _LETTERS | _DIGITS | frozenset("=():,/+")
_END = ""  # the token after the last one; no match is empty


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _Failure(Exception):
    """A syntax error at token `index`, located only once it is reported."""

    def __init__(self, message: str, index: int):
        self.message = message
        self.index = index


def _tokens(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t[0] != "#"]
    tokens.append(_END)
    return tokens


def _located(text: str, message: str, index: int) -> ParseError:
    """`message` at token `index` of `text`, or at the end of the text when
    no token is left there; columns count characters."""
    matches = (m for m in _TOKEN.finditer(text) if m.group()[0] != "#")
    found = next(islice(matches, index, None), None)
    pos = len(text) if found is None else found.start()
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def _shown(tok: str) -> str:
    return repr(tok or "end of input")


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens  # ends with _END
        self.pos = 0

    def fail(self, message: str, index: int | None = None) -> _Failure:
        return _Failure(message, self.pos if index is None else index)

    def expect(self, symbol: str) -> None:
        tok = self.tokens[self.pos]
        if tok != symbol:
            raise self.fail(f"expected {symbol!r}, found {_shown(tok)}")
        self.pos += 1

    def ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _LETTERS:
            raise self.fail(f"expected 'ident', found {_shown(tok)}")
        if tok in KEYWORDS:
            raise self.fail(f"{tok!r} is reserved")
        self.pos += 1
        return tok

    # file := { def }
    def parse_file(self) -> list[Definition]:
        defs: list[Definition] = []
        names: set[str] = set()
        while self.tokens[self.pos] != _END:
            at = self.pos + 1  # the name, once parse_def accepts the header
            d = self.parse_def()
            if d.name in names:
                raise self.fail(f"duplicate definition name {d.name!r}", at)
            names.add(d.name)
            defs.append(d)
        return defs

    # def := ("stream" | "tree") ident "=" expr
    def parse_def(self) -> Definition:
        tok = self.tokens[self.pos]
        if tok != "stream" and tok != "tree":
            raise self.fail("expected 'stream' or 'tree'")
        self.pos += 1
        kind = Kind.STREAM if tok == "stream" else Kind.TREE
        at = self.pos
        name = self.ident()
        self.expect("=")
        body = self.parse_expr(name, kind, 0)
        try:
            return Definition(name, kind, body).validate()
        except InvalidDefinition as exc:
            raise self.fail(str(exc), at) from exc

    # choice := atom [ "(" "+" prob ")" choice ]   (right-associative)
    # `depth` counts the levels that enclose the term.
    def parse_expr(self, name: str, kind: Kind, depth: int) -> Term:
        left = self.parse_atom(name, kind, depth)
        tokens = self.tokens
        if tokens[self.pos] == "(" and tokens[self.pos + 1] == "+":
            self.pos += 2
            num, den = self.parse_prob()
            self.expect(")")
            right = self.parse_expr(name, kind, depth + 1)
            if num == den:
                return left
            if num == 0:
                return right
            return Choice(Fraction(num, den), left, right)
        return left

    def parse_prob(self) -> tuple[int, int]:
        """A probability as numerator and denominator, not reduced."""
        tokens = self.tokens
        at = self.pos
        tok = tokens[at]
        if tok[:1] not in _DIGITS:
            raise self.fail("expected a probability")
        self.take_number()
        if "." in tok:
            whole, digits = tok.split(".")
            num, den = int(whole + digits), 10 ** len(digits)
        elif tokens[self.pos] == "/":
            self.pos += 1
            tok = tokens[self.pos]
            if tok[:1] not in _DIGITS or "." in tok:
                raise self.fail(f"expected 'int', found {_shown(tok)}")
            self.take_number()
            num, den = int(tokens[at]), int(tok)
            if den == 0:
                raise self.fail("zero denominator", self.pos - 1)
        else:
            num, den = int(tok), 1
        if num > den:
            raise self.fail("probability out of range", at)
        return num, den

    def take_number(self) -> None:
        tok = self.tokens[self.pos]
        if len(tok) - ("." in tok) > MAX_DIGITS:
            raise self.fail(f"number with more than {MAX_DIGITS} digits")
        self.pos += 1

    def parse_atom(self, name: str, kind: Kind, depth: int) -> Term:
        if depth > MAX_NESTING:
            raise self.fail(f"term nested more than {MAX_NESTING} levels deep")
        tokens = self.tokens
        at = self.pos
        tok = tokens[at]
        if tok == "(":
            self.pos += 1
            inner = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return inner
        if tok[:1] not in _LETTERS:
            raise self.fail(f"expected a term, found {_shown(tok)}")
        if tok == "tail":
            self._require_kind(kind, Kind.STREAM)
            return Tail(self.argument(name, kind, depth))
        if tok == "left" or tok == "right":
            self._require_kind(kind, Kind.TREE)
            arg = self.argument(name, kind, depth)
            return Left(arg) if tok == "left" else Right(arg)
        if tok == "mk":
            self._require_kind(kind, Kind.TREE)
            self.pos += 1
            self.expect("(")
            label = self.ident()
            self.expect(",")
            left = self.parse_expr(name, kind, depth + 1)
            self.expect(",")
            right = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return Mk(label, left, right)
        if tok == "stream" or tok == "tree":
            raise self.fail(f"{tok!r} is reserved")
        # ident ":" atom is a stream constructor; a bare ident is the recursion
        # variable and must equal the definition's own name.
        if tokens[at + 1] == ":":
            self._require_kind(kind, Kind.STREAM)
            self.pos += 2
            return Cons(tok, self.parse_atom(name, kind, depth + 1))
        self.pos += 1
        if tok != name:
            raise self.fail(
                f"reference to another definition's name {tok!r} (only {name!r} may recur)",
                at,
            )
        return RecVar()

    def argument(self, name: str, kind: Kind, depth: int) -> Term:
        """The parenthesized argument of the destructor at the current token."""
        self.pos += 1
        self.expect("(")
        arg = self.parse_expr(name, kind, depth + 1)
        self.expect(")")
        return arg

    def _require_kind(self, declared: Kind, needed: Kind) -> None:
        if declared is not needed:
            tok = self.tokens[self.pos]
            raise self.fail(f"mixed-kind term: {tok!r} is not allowed in a {declared.value}")


def parse_file(text: str) -> list[Definition]:
    """Parse a definition file into validated definitions, in file order.

    The grammar is ASCII.  A character no token can hold is reported
    before any other error, wherever it stands in the file."""
    tokens = _tokens(text)
    try:
        return _Parser(tokens).parse_file()
    except _Failure as failure:
        for index, tok in enumerate(tokens):
            if tok and tok[0] not in _STARTS:
                raise _located(text, f"unexpected character {tok!r}", index) from None
        raise _located(text, failure.message, failure.index) from None


def parse_definition(text: str) -> Definition:
    """Parse a single definition (convenience wrapper)."""
    defs = parse_file(text)
    if len(defs) != 1:
        raise ValueError(f"expected exactly one definition, found {len(defs)}")
    return defs[0]


def format_term(t: Term, name: str) -> str:
    """Canonical concrete syntax for a term, with minimal parentheses."""
    if isinstance(t, RecVar):
        return name
    if isinstance(t, Choice):
        left = format_term(t.left, name)
        if isinstance(t.left, Choice):
            left = f"({left})"
        return f"{left} (+ {t.prob}) {format_term(t.right, name)}"
    if isinstance(t, Cons):
        tail = format_term(t.tail, name)
        if isinstance(t.tail, Choice):
            tail = f"({tail})"
        return f"{t.label} : {tail}"
    if isinstance(t, Tail):
        return f"tail({format_term(t.arg, name)})"
    if isinstance(t, Mk):
        return f"mk({t.label}, {format_term(t.left, name)}, {format_term(t.right, name)})"
    if isinstance(t, Left):
        return f"left({format_term(t.arg, name)})"
    return f"right({format_term(t.arg, name)})"


def pretty_print(d: Definition) -> str:
    """Canonical one-line form; parsing it back yields a structurally equal
    definition."""
    return f"{d.kind.value} {d.name} = {format_term(d.body, d.name)}"
