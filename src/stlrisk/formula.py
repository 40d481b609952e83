"""Formula syntax trees for discrete-time signal temporal logic.

Nodes are truth, named predicates, negation, conjunction, disjunction and
six temporal operators on two immutable ``Record`` bases: ``Until(left,
right, interval)`` for U and S, the future and past until, and ``Window(child,
interval)`` for F and G, eventually and always ahead, and O and H behind.
Each node base states its own operand reads (``reach``) and its precedence
``level``, from 1 for ``|`` to 5 for an atom; ``!``, ``&`` and ``|`` state
their ``symbol``.  An operator class inherits these and adds only its letter
``symbol``, ``past``, and for a window ``eventually`` (the best value in the
window, else the worst).  ``OPERATORS`` maps each letter to its class, and
parsing, printing, ``reach`` and evaluation read these class attributes, none
of them a field.  Formula values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from typing import ClassVar, Union

from ._record import Record
from .errors import IntervalError

__all__ = [
    "TimeInterval",
    "TrueFormula",
    "TRUE",
    "Predicate",
    "Not",
    "And",
    "Or",
    "Until",
    "Window",
    "UntilFuture",
    "UntilPast",
    "EventuallyFuture",
    "AlwaysFuture",
    "EventuallyPast",
    "AlwaysPast",
    "OPERATORS",
    "Formula",
    "Horizon",
    "horizon",
    "plan",
    "predicate_names",
    "reach",
]


class TimeInterval(Record):
    """Closed window [lo, hi] of integer time steps; ``hi`` may be math.inf.

    Unbounded windows are representable but rejected by evaluation on finite
    traces, since no finite trace can cover them.  A finite bound is at most
    ``sys.maxsize``, the length of the longest trace.
    """

    lo: int
    hi: Union[int, float]

    def __post_init__(self):
        if not isinstance(self.lo, int) or isinstance(self.lo, bool):
            raise IntervalError(f"interval lower bound must be an integer, got {self.lo!r}")
        if self.hi != math.inf and (not isinstance(self.hi, int) or isinstance(self.hi, bool)):
            raise IntervalError(f"interval upper bound must be an integer or inf, got {self.hi!r}")
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            # Before a message formats the bound: str() refuses an int past its digit limit.
            if bound != math.inf and abs(bound) > sys.maxsize:
                raise IntervalError(f"interval bound {name} is out of range: finite bounds are at most sys.maxsize = {sys.maxsize}")
            if bound < 0:
                raise IntervalError(f"interval bounds must be non-negative, got {name}={bound}")
        if self.lo > self.hi:
            raise IntervalError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def bounded(self) -> bool:
        return self.hi != math.inf

    def __str__(self) -> str:
        hi = "inf" if not self.bounded else str(self.hi)
        return f"[{self.lo},{hi}]"


class TrueFormula(Record):
    """The formula that every signal satisfies at every time."""

    level = 5

    def _reads(self) -> tuple:
        return ()


class Predicate(Record):
    """Reference to a named predicate, resolved against a predicate table."""

    name: str
    level = 5
    _reads = TrueFormula._reads


class Not(Record):
    child: "Formula"
    symbol, level = "!", 4

    def _reads(self) -> tuple:
        return ((self.child, 0, 0),)


class And(Record):
    left: "Formula"
    right: "Formula"
    symbol, level = "&", 2

    def _reads(self) -> tuple:
        return ((self.left, 0, 0), (self.right, 0, 0))


class Or(Record):
    left: "Formula"
    right: "Formula"
    symbol, level = "|", 1
    _reads = And._reads


class Until(Record):
    """Base of U and S: a subclass sets its letter ``symbol`` and ``past``."""

    left: "Formula"
    right: "Formula"
    interval: TimeInterval
    symbol: ClassVar[str]
    past: ClassVar[bool]
    level = 3

    def _reads(self) -> tuple:
        lo, hi = self.interval.lo, self.interval.hi
        if self.past:
            return ((self.left, 1 - hi, -1), (self.right, -hi, -lo))
        return ((self.left, 1, hi - 1), (self.right, lo, hi))


class Window(Record):
    """Base of F, G, O and H: a subclass sets ``symbol``, ``past`` and
    ``eventually``, true for F and O, which take the best value in the
    window; G and H take the worst."""

    child: "Formula"
    interval: TimeInterval
    symbol: ClassVar[str]
    past: ClassVar[bool]
    eventually: ClassVar[bool]
    level = 4

    def _reads(self) -> tuple:
        lo, hi = self.interval.lo, self.interval.hi
        return ((self.child, -hi, -lo),) if self.past else ((self.child, lo, hi),)


class UntilFuture(Until):
    symbol, past = "U", False


class UntilPast(Until):
    symbol, past = "S", True


class EventuallyFuture(Window):
    symbol, past, eventually = "F", False, True


class AlwaysFuture(Window):
    symbol, past, eventually = "G", False, False


class EventuallyPast(Window):
    symbol, past, eventually = "O", True, True


class AlwaysPast(Window):
    symbol, past, eventually = "H", True, False


# Each temporal operator by its letter in the formula language.
OPERATORS = {
    op.symbol: op for op in (UntilFuture, UntilPast, EventuallyFuture, AlwaysFuture, EventuallyPast, AlwaysPast)
}


Formula = Union[TrueFormula, Predicate, Not, And, Or, Until, Window]

TRUE = TrueFormula()


class Horizon(Record):
    """Temporal reach of a formula, in steps from the anchor time.

    Evaluating a formula at time t reads some subformula at every time in
    [t - past_depth, t + future_depth] and at no time outside it, so a call
    is admissible exactly when that range lies inside the trace.  Depths
    are math.inf when a subformula that is read carries an unbounded window.
    """

    future_depth: Union[int, float]
    past_depth: Union[int, float]


def reach(f: Formula) -> tuple:
    """(operand, lo, hi) for each direct subformula of f, left to right, as f's
    base states them: f at anchors a..b reads the operand at a+lo..b+hi, and
    at no step when lo > hi.  An until reads its left operand at 1..hi-1 (past:
    1-hi..-1), the steps before its last candidate: none under U[0,0] or U[0,1]."""
    try:
        reads = f._reads
    except AttributeError:
        raise TypeError(f"not a formula node: {f!r}") from None
    return reads()


def plan(f: Formula, t: int) -> tuple:
    """(order, span) for evaluating f at t, from one walk that calls
    ``reach`` once per node and looks each node's span up once.

    ``order`` lists each distinct node object of f once, after all of its
    operands, as a pair (node, reach(node)).  ``span`` is {id(node): (first,
    last)}: each node is read at anchors first..last, the hull of what its
    parents read through ``reach``.  A node read at no anchor, because every
    path down to it crosses an empty window, is left out of ``span``.

    The walk keeps an explicit stack, so any nesting depth is fine, and keys
    nodes by identity, so a subformula object shared by several parents is
    listed once.
    """
    order, seen, stack = [], set(), [(f, None)]
    while stack:
        node, reads = stack.pop()
        if reads is not None:
            order.append((node, reads))
        elif (key := id(node)) not in seen:
            seen.add(key)
            reads = reach(node)
            stack.append((node, reads))
            for child, _, _ in reversed(reads):
                stack.append((child, None))
    span = {id(f): (t, t)}
    for node, reads in reversed(order):  # every parent before its operands
        if reads and (ab := span.get(id(node))):
            a, b = ab
            for child, lo, hi in reads:
                if lo <= hi:
                    key, lo, hi = id(child), a + lo, b + hi
                    old = span.get(key)
                    if old is None:
                        span[key] = lo, hi
                    elif lo < old[0] or hi > old[1]:
                        span[key] = min(lo, old[0]), max(hi, old[1])
    return order, span


def horizon(f: Formula) -> Horizon:
    """The extent of ``plan``'s spans at anchor 0: how far the anchors that
    evaluation reads reach ahead of and behind the anchor."""
    reads = plan(f, 0)[1].values()
    return Horizon(max(last for _, last in reads), -min(first for first, _ in reads))


def predicate_names(f: Formula) -> frozenset:
    """All predicate names referenced anywhere in the formula."""
    return frozenset(node.name for node, _ in plan(f, 0)[0] if isinstance(node, Predicate))
