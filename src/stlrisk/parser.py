"""Textual formula language: parsing and canonical pretty-printing.

Grammar (whitespace-insensitive between tokens)::

    formula  := disj
    disj     := conj ("|" conj)*
    conj     := until ("&" until)*
    until    := unary (("U" | "S") interval unary)?
    unary    := "!" unary
              | ("G" | "F" | "H" | "O") interval unary
              | atom
    atom     := "true" | identifier | "(" formula ")"
    interval := "[" integer "," (integer | "inf") "]"

``U``/``S`` are the future/past until, ``G``/``F`` always/eventually over
the future, ``H``/``O`` their past counterparts.  Precedence, tightest
first: ``!`` and the temporal unaries, then ``U``/``S``, then ``&``, then
``|``.  ``&`` and ``|`` associate left; until is non-associative, so chains
like ``a U[0,1] b U[0,2] c`` must be parenthesized.  Identifiers match
``[A-Za-z_][A-Za-z0-9_]*``; the operator letters and ``true`` are reserved
and cannot name predicates.

Each ``!``, temporal unary prefix and ``(`` opens a nesting level; text
nested deeper than 100 levels is a FormulaSyntaxError, so that parsing
stays within Python's recursion limit.  Printing keeps an explicit stack.
"""

from __future__ import annotations

import math
import re
import sys

from ._record import Record
from .errors import FormulaSyntaxError, IntervalError
from .formula import OPERATORS, TRUE, And, Formula, Not, Or, Predicate, TimeInterval, TrueFormula, Until, Window
from .trace import shortened

__all__ = ["SourceSpan", "parse", "format_formula"]

_MAX_DEPTH = 100
_BOUND_DIGITS = len(str(sys.maxsize))  # every bound TimeInterval accepts has at most these


class SourceSpan(Record):
    """Half-open character range [start, end) into the parsed text."""

    start: int
    end: int


_RESERVED = {"true", *OPERATORS}
_SYMBOLS = {op.symbol: op for op in (Not, And, Or, *OPERATORS.values())}  # each operator class by its symbol

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym>[()\[\],&|!-])
    """,
    re.VERBOSE,
)


class _Token:  # a plain class: a Record builds slower, and tokens are never compared
    __slots__ = ("kind", "text", "start", "end")  # kind: "ident", "int", "kw", a symbol character, or "eof"

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind, self.text, self.start, self.end = kind, text, start, end

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)

    @property
    def quoted(self) -> str:
        """The token as a refusal names it."""
        return "end of input" if self.kind == "eof" else shortened(repr(self.text))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(
                f"unexpected character {text[pos]!r}", SourceSpan(pos, pos + 1)
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        if m.lastgroup == "ident":
            kind = "kw" if value in _RESERVED else "ident"
        elif m.lastgroup == "int":
            kind = "int"
        else:
            kind = value
        tokens.append(_Token(kind, value, m.start(), m.end()))
    tokens.append(_Token("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def nest(self, tok: _Token, parse_inner):
        """parse_inner() one nesting level below tok."""
        if self.depth >= _MAX_DEPTH:
            raise FormulaSyntaxError(f"formula nests deeper than {_MAX_DEPTH} levels", tok.span)
        self.depth += 1
        inner = parse_inner()
        self.depth -= 1
        return inner

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(f"expected {what}, found {tok.quoted}", tok.span)
        return self.take()

    def parse(self) -> Formula:
        f = self.binary()
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing input {tok.quoted}", tok.span)
        return f

    def binary(self, level: int = Or.level) -> Formula:
        """Unaries joined by binary operators of ``level`` or more, by precedence
        climbing: a right operand binds one level tighter, so ``&`` and ``|`` associate left."""
        f = self.unary()
        while (op := self.operator(And, Or, Until)) is not None and op.level >= level:
            self.take()
            if issubclass(op, Until):
                interval = self.interval()
                f = op(f, self.unary(), interval)
                if self.operator(Until) is not None:
                    raise FormulaSyntaxError("until is non-associative; parenthesize the chain", self.peek().span)
            else:
                f = op(f, self.binary(op.level + 1))
        return f

    def operator(self, *bases: type):
        """The class whose symbol is the next token, if it derives from one of bases, else None."""
        op = _SYMBOLS.get(self.peek().text)  # no identifier: the letters are reserved
        return op if op is not None and issubclass(op, bases) else None

    def unary(self) -> Formula:
        tok = self.peek()
        op = self.operator(Not, Window)
        if op is None:
            return self.atom()
        self.take()
        if op is Not:
            return Not(self.nest(tok, self.unary))
        interval = self.interval()
        return op(self.nest(tok, self.unary), interval)

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "true":
            self.take()
            return TRUE
        if tok.kind == "ident":
            self.take()
            return Predicate(tok.text)
        if tok.kind == "(":
            self.take()
            f = self.nest(tok, self.binary)
            self.expect(")", "')'")
            return f
        raise FormulaSyntaxError(f"expected a formula, found {tok.quoted}", tok.span)

    def interval(self) -> TimeInterval:
        open_tok = self.expect("[", "'['")
        lo = self._bound(allow_inf=False)
        self.expect(",", "','")
        hi = self._bound(allow_inf=True)
        close_tok = self.expect("]", "']'")
        try:
            return TimeInterval(lo, hi)
        except IntervalError as exc:
            raise IntervalError(str(exc), SourceSpan(open_tok.start, close_tok.end)) from None

    def _bound(self, allow_inf: bool):
        tok = self.peek()
        if allow_inf and tok.kind == "ident" and tok.text == "inf":
            self.take()
            return math.inf
        negative = False
        if tok.kind == "-":
            self.take()
            negative = True
        num = self.expect("int", "an integer bound")
        # int() counts leading zeros, of any script, against its digit limit; float() has no
        # such limit and is 0 only if every digit is.  So the last digits hold every bound up
        # to sys.maxsize, and a nonzero digit before them puts the bound past it.
        head, tail = num.text[:-_BOUND_DIGITS], num.text[-_BOUND_DIGITS:]
        value = int(tail) if float(head or "0") == 0 else sys.maxsize + 1
        return -value if negative else value


def parse(text: str) -> Formula:
    """Parse formula text, raising FormulaSyntaxError or IntervalError."""
    return _Parser(text).parse()


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f.

    The walk keeps an explicit stack of pending text and (node, minimum
    precedence level) pairs, so any nesting depth and chain length is fine;
    a node whose ``level`` is below what its position needs (its parent's for
    a prefix or left ``&``/``|`` operand, else one more) is parenthesized.
    """
    out, stack = [], [(f, Or.level)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_level = item
        if not isinstance(node, Formula):
            raise TypeError(f"not a formula node: {node!r}")
        level = node.level
        if level < min_level:
            out.append("(")
            stack += [")", (node, Or.level)]
            continue
        match node:
            case TrueFormula():
                out.append("true")
            case Predicate(name):
                out.append(name)
            case Not(child):
                out.append(node.symbol)
                stack.append((child, level))
            case And(left, right) | Or(left, right):
                stack += [(right, level + 1), f" {node.symbol} ", (left, level)]
            case Until(left, right, interval):
                stack += [(right, level + 1), f" {node.symbol}{interval} ", (left, level + 1)]
            case Window(child, interval):
                # No space before an operand that gets parentheses; a non-node raises when popped.
                sep = "" if getattr(child, "level", level) < level else " "
                out.append(f"{node.symbol}{interval}{sep}")
                stack.append((child, level))
    return "".join(out)
