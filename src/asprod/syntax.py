"""Concrete syntax: lexer, recursive-descent parser, and pretty-printer.

Definition files contain one equation per `stream`/`tree` keyword::

    # line comments start with '#'
    stream s = (a : s) (+ 3/4) tail(s)
    tree   t = left(t) (+ 1/4) mk(x, t, t)

Choice `e1 (+ p) e2` is right-associative and binds loosest.  Probabilities
are rationals `num/den`, decimals, or the integer literals 0 and 1; the
endpoints are normalized away (p = 1 keeps the left branch, p = 0 the right),
so every Choice node carries an exact rational strictly between 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
_SYMBOLS = frozenset("=():,/+")

# Deepest nesting a term may have.  Each parenthesis, constructor, destructor
# and choice opens one level.  Parsing, validation, the drift measure,
# printing, translation and the sampler all recurse on the term.  At this
# depth each of them stays within the interpreter's default recursion limit
# of 1000 frames with 300 frames already on the caller's stack; at 300 levels,
# comparing two equal halves in validation does not.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "decimal", "eof", or a symbol character
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            kind = "int"
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                kind = "decimal"
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token(kind, text[i:j], line, col))
            col += j - i
            i = j
        elif c in _SYMBOLS:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    # file := { def }
    def parse_file(self) -> list[Definition]:
        defs: list[Definition] = []
        names: set[str] = set()
        while self.peek().kind != "eof":
            name_tok = self.peek(1)  # the name, once parse_def accepts the header
            d = self.parse_def()
            if d.name in names:
                raise self.error(f"duplicate definition name {d.name!r}", name_tok)
            names.add(d.name)
            defs.append(d)
        return defs

    # def := ("stream" | "tree") ident "=" expr
    def parse_def(self) -> Definition:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in ("stream", "tree"):
            raise self.error("expected 'stream' or 'tree'")
        self.next()
        kind = Kind.STREAM if tok.text == "stream" else Kind.TREE
        name_tok = self.expect("ident")
        if name_tok.text in KEYWORDS:
            raise self.error(f"{name_tok.text!r} is reserved", name_tok)
        self.expect("=")
        body = self.parse_expr(name_tok.text, kind, 0)
        try:
            return Definition(name_tok.text, kind, body).validate()
        except InvalidDefinition as exc:
            raise self.error(str(exc), name_tok) from exc

    # choice := atom [ "(" "+" prob ")" choice ]   (right-associative)
    # `depth` counts the levels that enclose the term.
    def parse_expr(self, name: str, kind: Kind, depth: int) -> Term:
        left = self.parse_atom(name, kind, depth)
        if self.peek().kind == "(" and self.peek(1).kind == "+":
            self.next()
            self.next()
            p = self.parse_prob()
            self.expect(")")
            right = self.parse_expr(name, kind, depth + 1)
            if p == 1:
                return left
            if p == 0:
                return right
            return Choice(p, left, right)
        return left

    def parse_prob(self) -> Fraction:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("int")
                if int(den_tok.text) == 0:
                    raise self.error("zero denominator", den_tok)
                value = Fraction(int(tok.text), int(den_tok.text))
        elif tok.kind == "decimal":
            self.next()
            value = Fraction(tok.text)
        else:
            raise self.error("expected a probability")
        if not 0 <= value <= 1:
            raise self.error("probability out of range", tok)
        return value

    def parse_atom(self, name: str, kind: Kind, depth: int) -> Term:
        tok = self.peek()
        if depth > MAX_NESTING:
            raise self.error(f"term nested more than {MAX_NESTING} levels deep")
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return inner
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise self.error(f"expected a term, found {shown!r}")
        word = tok.text
        if word == "tail":
            self._require_kind(kind, Kind.STREAM, tok)
            self.next()
            self.expect("(")
            arg = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return Tail(arg)
        if word in ("left", "right"):
            self._require_kind(kind, Kind.TREE, tok)
            self.next()
            self.expect("(")
            arg = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return Left(arg) if word == "left" else Right(arg)
        if word == "mk":
            self._require_kind(kind, Kind.TREE, tok)
            self.next()
            self.expect("(")
            label = self.expect("ident")
            if label.text in KEYWORDS:
                raise self.error(f"{label.text!r} is reserved", label)
            self.expect(",")
            left = self.parse_expr(name, kind, depth + 1)
            self.expect(",")
            right = self.parse_expr(name, kind, depth + 1)
            self.expect(")")
            return Mk(label.text, left, right)
        if word in ("stream", "tree"):
            raise self.error(f"{word!r} is reserved")
        # ident ":" atom is a stream constructor; a bare ident is the recursion
        # variable and must equal the definition's own name.
        if self.peek(1).kind == ":":
            self._require_kind(kind, Kind.STREAM, tok)
            self.next()
            self.next()
            tail = self.parse_atom(name, kind, depth + 1)
            return Cons(word, tail)
        self.next()
        if word != name:
            raise self.error(
                f"reference to another definition's name {word!r} (only {name!r} may recur)",
                tok,
            )
        return RecVar()

    def _require_kind(self, declared: Kind, needed: Kind, tok: Token) -> None:
        if declared is not needed:
            raise self.error(
                f"mixed-kind term: {tok.text!r} is not allowed in a {declared.value}",
                tok,
            )


def parse_file(text: str) -> list[Definition]:
    """Parse a definition file into validated definitions, in file order."""
    return _Parser(text).parse_file()


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
