"""Formula syntax trees for discrete-time signal temporal logic.

The core connectives are truth, named predicates, negation, conjunction and
the two until operators (future and past), each until carrying an integer
time window.  Disjunction, eventually and always (future and past variants)
are provided as first-class nodes.  Formula values are immutable and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import IntervalError

__all__ = [
    "TimeInterval",
    "TrueFormula",
    "TRUE",
    "Predicate",
    "Not",
    "And",
    "Or",
    "UntilFuture",
    "UntilPast",
    "EventuallyFuture",
    "AlwaysFuture",
    "EventuallyPast",
    "AlwaysPast",
    "Formula",
    "Horizon",
    "horizon",
    "operands",
    "postorder",
    "postorder_horizon",
    "predicate_names",
    "reach",
]


@dataclass(frozen=True)
class TimeInterval:
    """Closed window [lo, hi] of integer time steps; ``hi`` may be math.inf.

    Unbounded windows are representable but rejected by evaluation on finite
    traces, since no finite trace can cover them.
    """

    lo: int
    hi: Union[int, float]

    def __post_init__(self):
        if not isinstance(self.lo, int) or isinstance(self.lo, bool):
            raise IntervalError(f"interval lower bound must be an integer, got {self.lo!r}")
        if self.lo < 0:
            raise IntervalError(f"interval bounds must be non-negative, got lo={self.lo}")
        if self.hi != math.inf:
            if not isinstance(self.hi, int) or isinstance(self.hi, bool):
                raise IntervalError(f"interval upper bound must be an integer or inf, got {self.hi!r}")
            if self.hi < 0:
                raise IntervalError(f"interval bounds must be non-negative, got hi={self.hi}")
        if self.lo > self.hi:
            raise IntervalError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def bounded(self) -> bool:
        return self.hi != math.inf

    def __str__(self) -> str:
        hi = "inf" if not self.bounded else str(self.hi)
        return f"[{self.lo},{hi}]"


@dataclass(frozen=True)
class TrueFormula:
    """The formula that every signal satisfies at every time."""


@dataclass(frozen=True)
class Predicate:
    """Reference to a named predicate, resolved against a predicate table."""

    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class UntilFuture:
    left: "Formula"
    right: "Formula"
    interval: TimeInterval


@dataclass(frozen=True)
class UntilPast:
    left: "Formula"
    right: "Formula"
    interval: TimeInterval


@dataclass(frozen=True)
class EventuallyFuture:
    child: "Formula"
    interval: TimeInterval


@dataclass(frozen=True)
class AlwaysFuture:
    child: "Formula"
    interval: TimeInterval


@dataclass(frozen=True)
class EventuallyPast:
    child: "Formula"
    interval: TimeInterval


@dataclass(frozen=True)
class AlwaysPast:
    child: "Formula"
    interval: TimeInterval


Formula = Union[
    TrueFormula,
    Predicate,
    Not,
    And,
    Or,
    UntilFuture,
    UntilPast,
    EventuallyFuture,
    AlwaysFuture,
    EventuallyPast,
    AlwaysPast,
]

TRUE = TrueFormula()


@dataclass(frozen=True)
class Horizon:
    """Maximal temporal reach of a formula, in steps from the anchor time.

    Evaluating a formula at time t touches only trace states in
    [t - past_depth, t + future_depth].  Depths are math.inf when the
    corresponding operators carry unbounded windows.
    """

    future_depth: Union[int, float]
    past_depth: Union[int, float]


def reach(f: Formula) -> tuple:
    """(operand, lo, hi) for each direct subformula of f, left to right: f at
    anchors a..b reads the operand at a+lo..b+hi, and at no step when
    lo > hi (the left operand of U[0,0] or S[0,0])."""
    match f:
        case TrueFormula() | Predicate():
            return ()
        case Not(child):
            return ((child, 0, 0),)
        case And(left, right) | Or(left, right):
            return ((left, 0, 0), (right, 0, 0))
        case EventuallyFuture(child, iv) | AlwaysFuture(child, iv):
            return ((child, iv.lo, iv.hi),)
        case EventuallyPast(child, iv) | AlwaysPast(child, iv):
            return ((child, -iv.hi, -iv.lo),)
        case UntilFuture(left, right, iv):
            return ((left, 1, iv.hi), (right, iv.lo, iv.hi))
        case UntilPast(left, right, iv):
            return ((left, -iv.hi, -1), (right, -iv.hi, -iv.lo))
    raise TypeError(f"not a formula node: {f!r}")


def operands(f: Formula) -> tuple:
    """The direct subformulas of f, left to right."""
    return tuple(child for child, _, _ in reach(f))


def postorder(f: Formula) -> list:
    """Each distinct node object of f once, after all of its operands.

    The walk keeps an explicit stack, so any nesting depth is fine, and keys
    nodes by identity, so a subformula object shared by several parents is
    listed once.
    """
    order, seen, stack = [], set(), [(f, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child, _, _ in reversed(reach(node)))
    return order


def horizon(f: Formula) -> Horizon:
    """Nesting sum of window upper bounds along the deepest syntactic path."""
    return postorder_horizon(postorder(f))


def postorder_horizon(order: list) -> Horizon:
    """``horizon`` of the formula whose ``postorder`` is ``order``: a node
    reaching an operand at offsets lo..hi adds max(hi, 0) to the operand's
    future depth and max(-lo, 0) to its past depth."""
    depth: dict = {}
    for node in order:
        future = past = 0
        for child, lo, hi in reach(node):
            child_future, child_past = depth[id(child)]
            future = max(future, max(hi, 0) + child_future)
            past = max(past, max(-lo, 0) + child_past)
        depth[id(node)] = (future, past)
    return Horizon(*depth[id(order[-1])])


def predicate_names(f: Formula) -> frozenset:
    """All predicate names referenced anywhere in the formula."""
    return frozenset(node.name for node in postorder(f) if isinstance(node, Predicate))
