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

Evaluation refuses with InsufficientHorizonError if and only if some
subformula would be evaluated at a time outside the trace, instead of
silently clipping windows: a window clipped at the trace end would weaken
"always" and strengthen "eventually".  Within an admissible call every
window lies inside the trace.

Both semantics, for one trace or a whole ensemble, run through one array
engine over (N, T, d) member states: an ensemble's ``states``, or a trace
as N = 1.  One ``formula.plan`` walk per call gives the nodes in postorder,
each node's operand reads and the anchors at which each node is read (which
also decide admissibility, so a subtree read at no anchor is neither charged
nor computed); the engine then computes each node bottom-up
as an (N, times) array: the array kernels ``predicates.margins`` for the
leaves, minimum and maximum for the connectives, for a ``formula.Window``
(F, G, O, H) the window maximum if it is an ``eventually`` and else the
window minimum (``_window``), and for a ``formula.Until`` (U, S) window
maxima over running minima of the left operand (see ``_until``).  A past
operator reads the mirror image of its future twin's window
(``formula.reach``).  A node read at one anchor, as every root is, reduces
its window in one pass: O(N x width).
A node read at several anchors takes its windows from a doubling table
(Donze, Ferrere & Maler, "Efficient Robust Monitoring for STL", CAV 2013):
O(N x (anchors + width) x log width), log squared for the until.  The two
semantics differ only in the leaf map (margin or margin >= 0), the value
of truth and the negation.

A robustness or cost of zero, on the boundary of the formula's set, is
returned as +0.0, whichever zero the min/max ties inside the engine kept.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import InsufficientHorizonError, UnknownPredicateError
from .formula import And, Formula, Not, Or, Predicate, TrueFormula, Until, Window, plan
from .predicates import PredicateDef, margins
from .trace import Ensemble, Trace, shortened

__all__ = ["eval_boolean", "eval_robust", "eval_robust_ensemble"]


def _check_admissible(order: list, span: dict, length: int, t: int, predicates: Mapping[str, PredicateDef]) -> None:
    """Refuse a formula, given as its ``plan`` at t, that names an undefined
    predicate or reads a subformula outside the trace."""
    missing = sorted({node.name for node, _ in order if isinstance(node, Predicate)} - set(predicates))
    if missing:
        raise UnknownPredicateError(f"formula references undefined predicates: {shortened(', '.join(missing))}")
    if not 0 <= t < length:
        shown = t if abs(t) <= 10**60 else f"{'below -' if t < 0 else 'above '}10**60"  # str() has a digit limit
        raise InsufficientHorizonError(f"time {shown} outside the trace index range [0, {length - 1}]")
    firsts, lasts = zip(*span.values())
    first, last = min(firsts), max(lasts)
    if last > length - 1:
        raise InsufficientHorizonError(
            f"formula looks {last - t} steps ahead but only {length - 1 - t} remain after t={t}"
        )
    if first < 0:
        raise InsufficientHorizonError(f"formula looks {t - first} steps back but only {t} precede t={t}")


def _levels(values: np.ndarray, count: int, pick):
    """(w, table) for w = 1, 2, 4, ... <= count, where table[:, x] is pick
    over values[:, x : x + w]; each table is two slices of the one before."""
    table, w = values, 1
    while w <= count:
        yield w, table
        if 2 * w <= count:
            table = pick(table[:, :-w], table[:, w:])
        w *= 2


def _window(values: np.ndarray, count: int, n: int, pick) -> np.ndarray:
    """pick (np.maximum or np.minimum) over values[:, i : i + count] for each
    of the first n columns i: one reduction when n = 1, else two overlapping
    blocks of the largest w."""
    if n == 1:
        # Over a time-major copy, each step is one pass over the members;
        # numpy reduces a row-major window row by row, slowly for many rows.
        return pick.reduce(np.ascontiguousarray(values[:, :count].T), axis=0)[:, None]
    for w, table in _levels(values, count, pick):
        pass
    return pick(table[:, :n], table[:, count - w : count - w + n])


def _until(node, reads: tuple, a: int, b: int, at) -> np.ndarray:
    """Until at anchors a..b, given its operand reads ``reach(node)``.

    Candidate k = lo..hi, k steps from the anchor, is the minimum of right
    there and of left at the k - 1 steps between (the windows of ``reads``);
    the value is the best candidate.  The past, reversed in time, is the
    future.  At one anchor, the running minimum of left gives every
    candidate in one pass: O(N x hi).

    Over several anchors, minima of left over w = 1, 2, 4, ... steps come
    from ``_levels``.  The k - 1 steps before candidate k, for k - 1 in
    [w, 2w), are the first w of them and the last w, so min(table[i],
    table[i + k - 1 - w]); the first term is the same for all these k, so
    each w takes one ``_window`` maximum over min(table, right):
    O(N x (anchors + hi) x log^2 hi) work in all.
    """
    lo, hi = node.interval.lo, node.interval.hi
    n = b - a + 1
    step = -1 if node.past else 1
    # right[:, i + k - lo] and left[:, i + j - 1] sit k and j steps from anchor i.
    (left, llo, lhi), (right, rlo, rhi) = reads
    right = at(right, a + rlo, b + rhi)[:, ::step]
    left = at(left, a + llo, b + lhi)[:, ::step] if llo <= lhi else None  # hi <= 1: no steps between

    if n == 1:
        value = right  # candidates k <= 1 take right alone
        if left is not None:
            k1 = max(lo, 2)  # candidate k >= 2: column k - 2 of left's running minimum
            tails = np.minimum(np.minimum.accumulate(left, axis=1)[:, k1 - 2 :], right[:, k1 - lo :])
            value = np.concatenate((right[:, : k1 - lo], tails), axis=1)
        return _window(value, hi - lo + 1, 1, np.maximum)

    value = _window(right, min(hi, 1) - lo + 1, n, np.maximum) if lo <= 1 else None
    for w, table in _levels(left, hi - 1, np.minimum):  # table[:, x]: min of left[:, x : x + w]
        k1, k2 = max(lo, w + 1), min(hi, 2 * w)
        if k1 <= k2:
            # Candidate k of anchor i: min(table[i], table[i + k - 1 - w], right at k).
            tails = np.minimum(table[:, k1 - 1 - w :], right[:, k1 - lo :])
            part = np.minimum(table[:, :n], _window(tails, k2 - k1 + 1, n, np.maximum))
            value = part if value is None else np.maximum(value, part, out=value)
    return value[:, ::step]


def _evaluate(
    f: Formula, states: np.ndarray, t: int, predicates: Mapping[str, PredicateDef], leaf, top, neg
) -> np.ndarray:
    """Value of f at time t for every member of the (N, T, d) state stack.

    ``leaf`` maps predicate margins to values, ``top`` is the value of truth
    and ``neg`` negates; every other operation is a minimum or a maximum.
    """
    order, span = plan(f, t)
    _check_admissible(order, span, states.shape[1], t, predicates)
    values: dict = {}

    def at(g: Formula, lo: int, hi: int) -> np.ndarray:
        start = span[id(g)][0]
        return values[id(g)][:, lo - start : hi - start + 1]

    for node, reads in order:
        if (ab := span.get(id(node))) is None:
            continue
        a, b = ab
        match node:
            case TrueFormula():
                value = np.full((states.shape[0], b - a + 1), top)
            case Predicate(name):
                value = leaf(margins(predicates[name], states[:, a : b + 1]))
            case Not(child):
                value = neg(at(child, a, b))
            case And(left, right):
                value = np.minimum(at(left, a, b), at(right, a, b))
            case Or(left, right):
                value = np.maximum(at(left, a, b), at(right, a, b))
            case Window():
                [(child, lo, hi)] = reads
                pick = np.maximum if node.eventually else np.minimum
                value = _window(at(child, a + lo, b + hi), hi - lo + 1, b - a + 1, pick)
            case Until():
                value = _until(node, reads, a, b, at)
        values[id(node)] = value
    return values[id(f)][:, 0]


_ROBUST = (lambda margin: margin, math.inf, np.negative)
_BOOLEAN = (lambda margin: margin >= 0.0, True, np.logical_not)


def eval_boolean(f: Formula, trace: Trace, t: int, predicates: Mapping[str, PredicateDef]) -> bool:
    """Decide whether the trace satisfies the formula at time t."""
    return bool(_evaluate(f, trace.states[None], t, predicates, *_BOOLEAN)[0])


def eval_robust(f: Formula, trace: Trace, t: int, predicates: Mapping[str, PredicateDef]) -> float:
    """Satisfaction margin of the trace for the formula at time t.

    Positive margins imply Boolean satisfaction, negative margins imply
    violation; the value may be +/-inf for formulas such as plain truth.
    """
    return float(_evaluate(f, trace.states[None], t, predicates, *_ROBUST)[0]) + 0.0


def eval_robust_ensemble(
    f: Formula, ensemble: Ensemble, t: int, predicates: Mapping[str, PredicateDef]
) -> np.ndarray:
    """Negated robustness of every member trace, in ensemble order.

    Entry i is ``-eval_robust(f, trace_i, t)`` (+0.0 for a zero): a sample
    of the cost "how close did realization i come to violating f".  Any
    member error aborts the whole evaluation.  The result may contain
    infinities; the risk estimators reject those at intake.
    """
    return 0.0 - _evaluate(f, ensemble.states, t, predicates, *_ROBUST)
