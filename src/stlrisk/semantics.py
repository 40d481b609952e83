"""Boolean and quantitative (robust) evaluation of formulas over traces.

Both semantics follow the same inductive scheme.  The quantitative value of
truth is +inf, a predicate contributes its signed distance, negation flips
the sign, conjunction takes the minimum, and an until node takes the best
window candidate::

    until(left, right, [lo, hi]) at t
        = sup over t'' in the window of
            min(value(right, t''), inf over t' strictly between t and t'' of
                value(left, t'))

with sup of an empty set = -inf and inf of an empty set = +inf (False/True
for the Boolean reading).  Future windows are [t+lo, t+hi], past windows
[t-hi, t-lo]; the strict inner range lies between the anchor t and the
candidate t'' in either direction.

Evaluation refuses with InsufficientHorizonError whenever the formula's
horizon does not fit the trace around t, instead of silently clipping
windows: a window clipped at the trace end would weaken "always" and
strengthen "eventually".  Within an admissible call every window lies inside
the trace.

Both semantics, for one trace or a whole ensemble, run through one array
engine over an (N, T, d) stack of member states.  It walks the formula's
nodes once in postorder without recursion, gives each node the contiguous
range of anchor times its parents need, and computes each node bottom-up as
an (N, times) array: minimum and maximum for the connectives, sliding-window
minimum and maximum for always and eventually (Donze, Ferrere & Maler,
"Efficient Robust Monitoring for STL", CAV 2013), and the candidate scan
above, vectorized over members and anchors, for until.  The two semantics
differ only in the leaf map (margin or margin >= 0), the value of truth and
the negation.  The cost is O(formula size x N x anchors x window width).
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientHorizonError, UnknownPredicateError
from .formula import (
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Formula,
    Not,
    Or,
    Predicate,
    TrueFormula,
    UntilFuture,
    UntilPast,
    horizon,
    postorder,
    predicate_names,
)
from .predicates import PredicateDef, signed_distance
from .trace import Ensemble, Trace

__all__ = ["eval_boolean", "eval_robust", "eval_robust_ensemble"]

INF = math.inf


def _check_admissible(f: Formula, length: int, t: int, predicates: Mapping[str, PredicateDef]) -> None:
    missing = sorted(predicate_names(f) - set(predicates))
    if missing:
        raise UnknownPredicateError(f"formula references undefined predicates: {', '.join(missing)}")
    if not 0 <= t < length:
        raise InsufficientHorizonError(f"time {t} outside the trace index range [0, {length - 1}]")
    h = horizon(f)
    if t + h.future_depth > length - 1:
        raise InsufficientHorizonError(
            f"formula looks {h.future_depth} steps ahead but only "
            f"{length - 1 - t} remain after t={t}"
        )
    if t - h.past_depth < 0:
        raise InsufficientHorizonError(
            f"formula looks {h.past_depth} steps back but only {t} precede t={t}"
        )


def _needs(node: Formula) -> list:
    """(operand, lo, hi): the node at anchors a..b reads the operand at a+lo..b+hi."""
    match node:
        case Not(child):
            return [(child, 0, 0)]
        case And(left, right) | Or(left, right):
            return [(left, 0, 0), (right, 0, 0)]
        case EventuallyFuture(child, iv) | AlwaysFuture(child, iv):
            return [(child, iv.lo, iv.hi)]
        case EventuallyPast(child, iv) | AlwaysPast(child, iv):
            return [(child, -iv.hi, -iv.lo)]
        case UntilFuture(left, right, iv):
            return [(right, iv.lo, iv.hi)] + ([(left, 1, iv.hi)] if iv.hi >= 1 else [])
        case UntilPast(left, right, iv):
            return [(right, -iv.hi, -iv.lo)] + ([(left, -iv.hi, -1)] if iv.hi >= 1 else [])
    return []


def _evaluate(
    f: Formula, states: np.ndarray, t: int, predicates: Mapping[str, PredicateDef], leaf, top, neg
) -> np.ndarray:
    """Value of f at time t for every member of the (N, T, d) state stack.

    ``leaf`` maps predicate margins to values, ``top`` is the value of truth
    and ``neg`` negates; every other operation is a minimum or a maximum.
    """
    _check_admissible(f, states.shape[1], t, predicates)
    order = postorder(f)
    spans = {id(f): (t, t)}
    for node in reversed(order):  # every parent before its operands
        if id(node) not in spans:
            continue  # read at no time: only under the left operand of U[0,0] or S[0,0]
        a, b = spans[id(node)]
        for child, lo, hi in _needs(node):
            ca, cb = spans.get(id(child), (a + lo, b + hi))
            spans[id(child)] = (min(ca, a + lo), max(cb, b + hi))
    order = [node for node in order if id(node) in spans]
    values: dict = {}

    def at(g: Formula, lo: int, hi: int) -> np.ndarray:
        start = spans[id(g)][0]
        return values[id(g)][:, lo - start : hi - start + 1]

    # np.minimum/np.maximum keep their second operand on ties (0.0 against
    # -0.0), min/max their first; operands are passed swapped to match the
    # scalar definitions.
    for node in order:
        a, b = spans[id(node)]
        shape = (states.shape[0], b - a + 1)
        match node:
            case TrueFormula():
                value = np.full(shape, top)
            case Predicate(name):
                p = predicates[name]
                members = states[:, a : b + 1]  # as lists one member at a time, to bound memory
                value = leaf(np.array([[signed_distance(p, row) for row in m.tolist()] for m in members]))
            case Not(child):
                value = neg(at(child, a, b))
            case And(left, right):
                value = np.minimum(at(right, a, b), at(left, a, b))
            case Or(left, right):
                value = np.maximum(at(right, a, b), at(left, a, b))
            case EventuallyFuture() | AlwaysFuture() | EventuallyPast() | AlwaysPast():
                [(child, lo, hi)] = _needs(node)
                windows = sliding_window_view(at(child, a + lo, b + hi), hi - lo + 1, axis=-1)
                if isinstance(node, (EventuallyFuture, EventuallyPast)):
                    value = windows.max(axis=-1)
                else:
                    value = windows.min(axis=-1)
            case UntilFuture(left, right, iv) | UntilPast(left, right, iv):
                # Candidates at offsets k = 0..hi from each anchor, toward the
                # future or the past; inner holds the minimum of left strictly
                # between the anchor and the candidate.
                step = 1 if isinstance(node, UntilFuture) else -1
                best, inner = np.full(shape, neg(top)), np.full(shape, top)
                for k in range(iv.hi + 1):
                    s = step * k
                    if k >= iv.lo:
                        best = np.maximum(np.minimum(inner, at(right, a + s, b + s)), best)
                    if k > 0:
                        inner = np.minimum(at(left, a + s, b + s), inner)
                value = best
        values[id(node)] = value
    return values[id(f)][:, 0]


_ROBUST = (lambda margin: margin, INF, np.negative)
_BOOLEAN = (lambda margin: margin >= 0.0, True, np.logical_not)


def eval_boolean(f: Formula, trace: Trace, t: int, predicates: Mapping[str, PredicateDef]) -> bool:
    """Decide whether the trace satisfies the formula at time t."""
    return bool(_evaluate(f, trace.states[None], t, predicates, *_BOOLEAN)[0])


def eval_robust(f: Formula, trace: Trace, t: int, predicates: Mapping[str, PredicateDef]) -> float:
    """Satisfaction margin of the trace for the formula at time t.

    Positive margins imply Boolean satisfaction, negative margins imply
    violation; the value may be +/-inf for formulas such as plain truth.
    """
    return float(_evaluate(f, trace.states[None], t, predicates, *_ROBUST)[0])


def eval_robust_ensemble(
    f: Formula, ensemble: Ensemble, t: int, predicates: Mapping[str, PredicateDef]
) -> np.ndarray:
    """Negated robustness of every member trace, in ensemble order.

    Entry i is ``-eval_robust(f, trace_i, t)``: a sample of the cost "how
    close did realization i come to violating f".  Any member error aborts
    the whole evaluation.  The result may contain infinities; the risk
    estimators reject those at intake.
    """
    states = np.stack([trace.states for trace in ensemble.traces])
    return -_evaluate(f, states, t, predicates, *_ROBUST)
