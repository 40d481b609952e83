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
nor computed); the engine then computes each node bottom-up as an
(N, times) array with the kernel of its class, looked up by ``type(node)``
in one table (``_KERNELS``) of the node bases and ``formula.OPERATORS``: the
array kernel ``predicates.margins`` for the leaves, minimum and maximum for
the connectives, for a ``formula.Window`` (F, G, O, H) the window maximum if
it is an ``eventually`` and else the window minimum (``_window``), and for a
``formula.Until`` (U, S) window maxima over running minima of the left
operand (see ``_until``).  An operator class declared elsewhere takes the
kernel of its base.  Each node's values are kept with the first anchor they
start at, so an operand read is one lookup and one slice.  A past operator
reads the mirror image of its future twin's window (``formula.reach``).  A
node read at one anchor, as every root is, reduces its window in one pass:
O(N x width).
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

from .errors import InfiniteRobustnessError, InsufficientHorizonError, UnknownPredicateError
from .formula import OPERATORS, And, Formula, Not, Or, Predicate, TrueFormula, Until, Window, plan
from .predicates import PredicateDef, margins
from .trace import Ensemble, Trace, shortened

__all__ = ["eval_boolean", "eval_robust", "eval_robust_ensemble"]


def _check_admissible(order: list, span: dict, length: int, t: int, predicates: Mapping[str, PredicateDef]) -> None:
    """Refuse a formula, given as its ``plan`` at t, that names an undefined
    predicate or reads a subformula outside the trace."""
    for node, _ in order:
        if isinstance(node, Predicate) and node.name not in predicates:
            missing = sorted({node.name for node, _ in order if isinstance(node, Predicate)} - set(predicates))
            raise UnknownPredicateError(f"formula references undefined predicates: {shortened(', '.join(missing))}")
    if not 0 <= t < length:
        shown = t if abs(t) <= 10**60 else f"{'below -' if t < 0 else 'above '}10**60"  # str() has a digit limit
        raise InsufficientHorizonError(f"time {shown} outside the trace index range [0, {length - 1}]")
    first = last = t
    for lo, hi in span.values():
        if lo < first:
            first = lo
        if hi > last:
            last = hi
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


def _until(node, reads: tuple, a: int, b: int, values: dict, env) -> np.ndarray:
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
    # right[:, i + k - lo] and left[:, i + j - 1] sit k and j steps from anchor i.
    (left, llo, lhi), (right, rlo, rhi) = reads
    first, value = values[id(right)]
    right = value[:, a + rlo - first : b + rhi - first + 1]
    if llo <= lhi:
        first, value = values[id(left)]
        left = value[:, a + llo - first : b + lhi - first + 1]
    else:
        left = None  # hi <= 1: no steps between
    if node.past:
        right = right[:, ::-1]
        left = None if left is None else left[:, ::-1]

    if n == 1:
        if left is not None:
            # Candidates k <= 1 take right alone, k >= 2 also column k - 2 of
            # left's running minimum.
            k1 = max(lo, 2)
            right = right.copy()
            tails = right[:, k1 - lo :]
            np.minimum(np.minimum.accumulate(left, axis=1)[:, k1 - 2 :], tails, out=tails)
        return _window(right, hi - lo + 1, 1, np.maximum)

    value = _window(right, min(hi, 1) - lo + 1, n, np.maximum) if lo <= 1 else None
    for w, table in _levels(left, hi - 1, np.minimum):  # table[:, x]: min of left[:, x : x + w]
        k1, k2 = max(lo, w + 1), min(hi, 2 * w)
        if k1 <= k2:
            # Candidate k of anchor i: min(table[i], table[i + k - 1 - w], right at k).
            tails = np.minimum(table[:, k1 - 1 - w :], right[:, k1 - lo :])
            part = np.minimum(table[:, :n], _window(tails, k2 - k1 + 1, n, np.maximum))
            value = part if value is None else np.maximum(value, part, out=value)
    return value[:, ::-1] if node.past else value


# The kernels, ``_until`` above among them: each maps a node read at anchors
# a..b to its (N, b - a + 1) values.  ``values`` holds each computed node's
# (first anchor, values) by id, so an operand read is one lookup and one
# slice; ``env`` is (states, predicates, leaf, top, neg) as ``_evaluate``
# describes them.


def _true(node, reads, a, b, values, env):
    states, _, _, top, _ = env
    return np.full((states.shape[0], b - a + 1), top)


def _predicate(node, reads, a, b, values, env):
    states, predicates, leaf, _, _ = env
    try:
        return leaf(margins(predicates[node.name], states[:, a : b + 1]))
    except FloatingPointError:  # raised by _evaluate's errstate
        raise InfiniteRobustnessError(f"predicate {shortened(repr(node.name))}: margin overflows the float range") from None


def _not(node, reads, a, b, values, env):
    _, _, _, _, neg = env
    first, value = values[id(node.child)]
    return neg(value[:, a - first : b - first + 1])


def _connective(pick):
    """The kernel of a binary connective: pick of its operands."""

    def kernel(node, reads, a, b, values, env):
        first, left = values[id(node.left)]
        left = left[:, a - first : b - first + 1]
        first, right = values[id(node.right)]
        return pick(left, right[:, a - first : b - first + 1])

    return kernel


def _windowed(node, reads, a, b, values, env):
    [(child, lo, hi)] = reads
    first, value = values[id(child)]
    pick = np.maximum if node.eventually else np.minimum
    return _window(value[:, a + lo - first : b + hi - first + 1], hi - lo + 1, b - a + 1, pick)


# The kernel of each node class, by class: the node bases and each operator
# of ``formula.OPERATORS``.  Another subclass of a base, such as an operator
# declared elsewhere, is added on its first evaluation (``_kernel``); a
# class's kernel never changes, so every caller may share the table.
_KERNELS = {
    TrueFormula: _true, Predicate: _predicate, Not: _not, And: _connective(np.minimum),
    Or: _connective(np.maximum), Window: _windowed, Until: _until,
}
_KERNELS.update({op: _KERNELS[op.__base__] for op in OPERATORS.values()})


def _kernel(cls):
    """The kernel of cls's nearest base in ``_KERNELS``, stored under cls."""
    for base in cls.__mro__:
        if base in _KERNELS:
            _KERNELS[cls] = _KERNELS[base]
            return _KERNELS[base]
    raise TypeError(f"not a formula node class: {cls.__qualname__}")


@np.errstate(over="raise")  # only margins do arithmetic; min, max and negation cannot overflow
def _evaluate(
    f: Formula, states: np.ndarray, t: int, predicates: Mapping[str, PredicateDef], leaf, top, neg
) -> np.ndarray:
    """Value of f at time t for every member of the (N, T, d) state stack.

    ``leaf`` maps predicate margins to values, ``top`` is the value of truth
    and ``neg`` negates; every other operation is a minimum or a maximum.
    """
    order, span = plan(f, t)
    _check_admissible(order, span, states.shape[1], t, predicates)
    env = (states, predicates, leaf, top, neg)
    values: dict = {}
    for node, reads in order:
        key = id(node)
        if key in span:
            a, b = span[key]
            try:
                kernel = _KERNELS[type(node)]
            except KeyError:
                kernel = _kernel(type(node))
            values[key] = a, kernel(node, reads, a, b, values, env)
    return values[id(f)][1][:, 0]


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
