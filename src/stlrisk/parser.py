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
        f = self.disj()
        tok = self.peek()
        if tok.kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing input {tok.quoted}", tok.span)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "|":
            self.take()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.until()
        while self.peek().kind == "&":
            self.take()
            f = And(f, self.until())
        return f

    def operator(self, base: type):
        """The class whose letter is the next token, if it derives from base
        (``Until`` or ``Window``), else None."""
        tok = self.peek()
        op = OPERATORS.get(tok.text) if tok.kind == "kw" else None
        return op if op is not None and issubclass(op, base) else None

    def until(self) -> Formula:
        left = self.unary()
        op = self.operator(Until)
        if op is None:
            return left
        self.take()
        interval = self.interval()
        right = self.unary()
        if self.operator(Until) is not None:
            raise FormulaSyntaxError("until is non-associative; parenthesize the chain", self.peek().span)
        return op(left, right, interval)

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.take()
            return Not(self.nest(tok, self.unary))
        op = self.operator(Window)
        if op is not None:
            self.take()
            interval = self.interval()
            return op(self.nest(tok, self.unary), interval)
        return self.atom()

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
            f = self.nest(tok, self.disj)
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


# Precedence levels used for minimal parenthesization.
_LVL_OR, _LVL_AND, _LVL_UNTIL, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 4, 5


def _level(f: Formula) -> int:
    match f:
        case Or():
            return _LVL_OR
        case And():
            return _LVL_AND
        case Until():
            return _LVL_UNTIL
        case Not() | Window():
            return _LVL_UNARY
        case _:
            return _LVL_ATOM


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f.

    The walk keeps an explicit stack of pending text and (node, minimum
    precedence level) pairs, so any nesting depth and chain length is fine;
    a node below the level its position needs is parenthesized.
    """
    out, stack = [], [(f, _LVL_OR)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_level = item
        if _level(node) < min_level:
            out.append("(")
            stack += [")", (node, _LVL_OR)]
            continue
        match node:
            case TrueFormula():
                out.append("true")
            case Predicate(name):
                out.append(name)
            case Not(child):
                out.append("!")
                stack.append((child, _LVL_UNARY))
            case And(left, right):
                stack += [(right, _LVL_UNTIL), " & ", (left, _LVL_AND)]
            case Or(left, right):
                stack += [(right, _LVL_AND), " | ", (left, _LVL_OR)]
            case Until(left, right, interval):
                stack += [(right, _LVL_UNARY), f" {node.symbol}{interval} ", (left, _LVL_UNARY)]
            case Window(child, interval):
                # No space before an operand that gets parentheses.
                sep = "" if _level(child) < _LVL_UNARY else " "
                out.append(f"{node.symbol}{interval}{sep}")
                stack.append((child, _LVL_UNARY))
            case _:
                raise TypeError(f"not a formula node: {node!r}")
    return "".join(out)
