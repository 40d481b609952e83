"""Shared test machinery: independent oracles and random-instance generators.

The evaluation oracles below deliberately re-derive the semantics as naive
nested loops over explicit time-index sets, with the extended inf/sup
conventions spelled out, so they share no code path with the memoized
evaluators they check.  Their predicate leaves come from
``signed_distance_oracle``, scalar code per predicate family that shares
nothing with the array kernel ``predicates.margins``.  Likewise the quantile
oracles scan the empirical CDF literally instead of indexing order
statistics, and the ingest oracle reads trace CSVs line by line and cell
by cell, matching each cell against the written grammar with its own
patterns.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from stlrisk.errors import DimensionError, EmptyError, FormatError, GapError, MismatchError

from stlrisk.formula import (
    TRUE,
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Not,
    Or,
    Predicate,
    TimeInterval,
    TrueFormula,
    UntilFuture,
    UntilPast,
    horizon,
)
from stlrisk.predicates import L2, Complement, Halfspace, NormBall, StateSlice
from stlrisk.trace import Trace

INF = math.inf


# ---------------------------------------------------------------------------
# Scalar predicate oracle: one state at a time, in plain Python floats


def _component(state, index: int) -> float:
    if index >= len(state):
        raise DimensionError(
            f"predicate needs state component {index}, state has dim {len(state)}"
        )
    return float(state[index])


def signed_distance_oracle(p, state) -> float:
    """Euclidean margin of ``state`` with respect to the predicate's set."""
    if isinstance(p, Halfspace):
        if len(state) != len(p.a):
            raise DimensionError(
                f"halfspace of dim {len(p.a)} applied to state of dim {len(state)}"
            )
        # Left to right from 0, not sum(), which compensates from Python 3.12.
        dot = 0
        for ai, si in zip(p.a, state):
            dot = dot + ai * float(si)
        return (dot + p.b) / math.hypot(*p.a)
    if isinstance(p, NormBall):
        point = [_component(state, i) for i in p.pos]
        if isinstance(p.center, StateSlice):
            center = [_component(state, i) for i in p.center.indices]
        else:
            center = list(p.center)
        diffs = [abs(x - c) for x, c in zip(point, center)]
        if p.norm == L2:
            return p.radius - math.hypot(*diffs)
        # Linf box: inside, the closest exit is through the nearest face;
        # outside, the closest boundary point clamps per coordinate.
        if max(diffs) <= p.radius:
            return min(p.radius - d for d in diffs)
        return -math.hypot(*(max(d - p.radius, 0.0) for d in diffs))
    if isinstance(p, Complement):
        return -signed_distance_oracle(p.inner, state)
    raise TypeError(f"not a predicate definition: {p!r}")


# ---------------------------------------------------------------------------
# Direct-expansion evaluation oracles


def rho_oracle(f, trace: Trace, t: int, predicates) -> float:
    """Quantitative semantics by literal expansion, no memoization."""
    L = len(trace.states)

    def rec(g, s):
        if isinstance(g, type(TRUE)):
            return INF
        if isinstance(g, Predicate):
            return signed_distance_oracle(predicates[g.name], trace.states[s])
        if isinstance(g, Not):
            return -rec(g.child, s)
        if isinstance(g, And):
            return min(rec(g.left, s), rec(g.right, s))
        if isinstance(g, Or):
            # by definition: not (not a and not b)
            return -min(-rec(g.left, s), -rec(g.right, s))
        if isinstance(g, EventuallyFuture):
            return rec(UntilFuture(TRUE, g.child, g.interval), s)
        if isinstance(g, AlwaysFuture):
            return -rec(UntilFuture(TRUE, Not(g.child), g.interval), s)
        if isinstance(g, EventuallyPast):
            return rec(UntilPast(TRUE, g.child, g.interval), s)
        if isinstance(g, AlwaysPast):
            return -rec(UntilPast(TRUE, Not(g.child), g.interval), s)
        if isinstance(g, (UntilFuture, UntilPast)):
            lo, hi = g.interval.lo, g.interval.hi
            if isinstance(g, UntilFuture):
                window = [c for c in range(s + lo, s + hi + 1) if 0 <= c <= L - 1]
            else:
                window = [c for c in range(s - hi, s - lo + 1) if 0 <= c <= L - 1]
            candidates = []
            for c in window:
                between = range(min(s, c) + 1, max(s, c))
                inner = [rec(g.left, u) for u in between]
                inner_val = min(inner) if inner else INF  # inf of the empty set
                candidates.append(min(rec(g.right, c), inner_val))
            return max(candidates) if candidates else -INF  # sup of the empty set
        raise TypeError(g)

    return rec(f, t)


def beta_oracle(f, trace: Trace, t: int, predicates) -> bool:
    """Boolean semantics by literal expansion."""
    L = len(trace.states)

    def rec(g, s):
        if isinstance(g, type(TRUE)):
            return True
        if isinstance(g, Predicate):
            return signed_distance_oracle(predicates[g.name], trace.states[s]) >= 0.0
        if isinstance(g, Not):
            return not rec(g.child, s)
        if isinstance(g, And):
            return min(rec(g.left, s), rec(g.right, s))
        if isinstance(g, Or):
            return not min(not rec(g.left, s), not rec(g.right, s))
        if isinstance(g, EventuallyFuture):
            return rec(UntilFuture(TRUE, g.child, g.interval), s)
        if isinstance(g, AlwaysFuture):
            return not rec(UntilFuture(TRUE, Not(g.child), g.interval), s)
        if isinstance(g, EventuallyPast):
            return rec(UntilPast(TRUE, g.child, g.interval), s)
        if isinstance(g, AlwaysPast):
            return not rec(UntilPast(TRUE, Not(g.child), g.interval), s)
        if isinstance(g, (UntilFuture, UntilPast)):
            lo, hi = g.interval.lo, g.interval.hi
            if isinstance(g, UntilFuture):
                window = [c for c in range(s + lo, s + hi + 1) if 0 <= c <= L - 1]
            else:
                window = [c for c in range(s - hi, s - lo + 1) if 0 <= c <= L - 1]
            candidates = []
            for c in window:
                between = range(min(s, c) + 1, max(s, c))
                inner = [rec(g.left, u) for u in between]
                inner_val = min(inner) if inner else True  # inf of the empty set
                candidates.append(min(rec(g.right, c), inner_val))
            return max(candidates) if candidates else False  # sup of the empty set
        raise TypeError(g)

    return bool(rec(f, t))


# ---------------------------------------------------------------------------
# Rewriting into the core connectives: the reference for the derived operators


def desugar(f):
    """Rewrite a formula into the core connectives only.

    Or(a, b)            -> Not(And(Not(a), Not(b)))
    EventuallyFuture(c) -> UntilFuture(TRUE, c)
    AlwaysFuture(c)     -> Not(UntilFuture(TRUE, Not(c)))
    and the past variants symmetrically.  The result evaluates identically
    to the input on every trace and time; desugar is idempotent.
    """
    match f:
        case TrueFormula() | Predicate():
            return f
        case Not(child):
            return Not(desugar(child))
        case And(left, right):
            return And(desugar(left), desugar(right))
        case Or(left, right):
            return Not(And(Not(desugar(left)), Not(desugar(right))))
        case UntilFuture(left, right, interval):
            return UntilFuture(desugar(left), desugar(right), interval)
        case UntilPast(left, right, interval):
            return UntilPast(desugar(left), desugar(right), interval)
        case EventuallyFuture(child, interval):
            return UntilFuture(TRUE, desugar(child), interval)
        case AlwaysFuture(child, interval):
            return Not(UntilFuture(TRUE, Not(desugar(child)), interval))
        case EventuallyPast(child, interval):
            return UntilPast(TRUE, desugar(child), interval)
        case AlwaysPast(child, interval):
            return Not(UntilPast(TRUE, Not(desugar(child)), interval))
    raise TypeError(f"not a formula node: {f!r}")


def anchors_by_node(f, t: int = 0) -> dict:
    """{id(g): anchors} for each node g that a literal expansion of the
    semantics of f at anchor t visits, as ``rho_oracle`` expands it: until
    candidate k visits the right operand at k and the left operand at the
    steps 1..k-1 between, and G/F/H/O visit every step of their window.  A
    node that no expansion visits has no entry.  Bounded windows only."""
    anchors = {id(f): {t}}
    stack = [(f, t)]
    while stack:
        g, s = stack.pop()
        reads = []
        match g:
            case Not(child):
                reads = [(child, s)]
            case And(left, right) | Or(left, right):
                reads = [(left, s), (right, s)]
            case EventuallyFuture(child, iv) | AlwaysFuture(child, iv):
                reads = [(child, s + k) for k in range(iv.lo, iv.hi + 1)]
            case EventuallyPast(child, iv) | AlwaysPast(child, iv):
                reads = [(child, s - k) for k in range(iv.lo, iv.hi + 1)]
            case UntilFuture(left, right, iv) | UntilPast(left, right, iv):
                sign = 1 if isinstance(g, UntilFuture) else -1
                for k in range(iv.lo, iv.hi + 1):
                    reads.append((right, s + sign * k))
                    reads.extend((left, s + sign * j) for j in range(1, k))
        for node, anchor in reads:
            seen = anchors.setdefault(id(node), set())
            if anchor not in seen:
                seen.add(anchor)
                stack.append((node, anchor))
    return anchors


def anchors_oracle(f) -> tuple:
    """(future, past) extent of the anchors that a literal expansion of the
    semantics of f at anchor 0 visits (``anchors_by_node``)."""
    anchors = set().union(*anchors_by_node(f).values())
    return (max(anchors), -min(anchors))


def random_shared_formula(rng: np.random.Generator, names, size: int, max_window: int = 3):
    """A random formula built bottom-up from a pool of nodes: each new node
    takes its operands from the pool, so one subformula object often sits
    under several parents.  Every operator class may appear, with windows
    such as U[0,0] and U[0,1] among them."""
    pool = [TRUE] + [Predicate(name) for name in names]
    ops = [Not, And, Or, UntilFuture, UntilPast, EventuallyFuture, AlwaysFuture, EventuallyPast, AlwaysPast]
    for _ in range(size):
        op = ops[int(rng.integers(len(ops)))]
        # Favour recent nodes, so that the formula nests deeply.
        operands = [pool[-min(int(rng.geometric(0.4)), len(pool))] for _ in range(2)]
        lo = int(rng.integers(0, max_window + 1))
        iv = TimeInterval(lo, int(rng.integers(lo, max_window + 1)))
        if op is Not:
            pool.append(Not(operands[0]))
        elif op in (And, Or):
            pool.append(op(*operands))
        elif op in (UntilFuture, UntilPast):
            pool.append(op(*operands, iv))
        else:
            pool.append(op(operands[0], iv))
    return pool[-1]


def horizon_oracle(f) -> tuple:
    """(future, past) nesting sum of window upper bounds in each direction,
    by recursion over the tree: an upper bound on the reach of f, which
    charges an until's left operand with the whole window."""
    match f:
        case TrueFormula() | Predicate():
            return (0, 0)
        case Not(child):
            return horizon_oracle(child)
        case And(left, right) | Or(left, right):
            (lf, lp), (rf, rp) = horizon_oracle(left), horizon_oracle(right)
            return (max(lf, rf), max(lp, rp))
        case UntilFuture(left, right, iv) | UntilPast(left, right, iv):
            (lf, lp), (rf, rp) = horizon_oracle(left), horizon_oracle(right)
            if isinstance(f, UntilFuture):
                return (iv.hi + max(lf, rf), max(lp, rp))
            return (max(lf, rf), iv.hi + max(lp, rp))
        case EventuallyFuture(child, iv) | AlwaysFuture(child, iv):
            future, past = horizon_oracle(child)
            return (iv.hi + future, past)
        case EventuallyPast(child, iv) | AlwaysPast(child, iv):
            future, past = horizon_oracle(child)
            return (future, iv.hi + past)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Literal-scan quantile oracles


def var_scan(values, beta: float) -> float:
    """inf{a : F(a) >= beta} scanned over the sample values."""
    z = list(values)
    n = len(z)
    hits = [a for a in z if sum(v <= a for v in z) / n >= beta]
    return min(hits)


def var_bounds_scan(values, beta: float, delta: float):
    """The shifted infimum sets of the confidence triple, scanned literally."""
    z = list(values)
    n = len(z)
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * n))

    def cdf(a):
        return sum(v <= a for v in z) / n

    upper_hits = [a for a in z if cdf(a) - eps >= beta]
    upper = min(upper_hits) if upper_hits else INF
    # F(-inf) = 0 already satisfies F + eps >= beta when beta <= eps.
    if 0.0 + eps >= beta:
        lower = -INF
    else:
        lower_hits = [a for a in z if cdf(a) + eps >= beta]
        lower = min(lower_hits) if lower_hits else INF
    return lower, var_scan(z, beta), upper


def cvar_scan(values, beta: float) -> float:
    """Evaluate the conditional-value-at-risk objective at every sample."""
    z = list(values)
    n = len(z)
    best = INF
    for a in z:
        g = a + sum(max(v - a, 0.0) for v in z) / ((1.0 - beta) * n)
        best = min(best, g)
    return best


def cvar_exact(values, beta: float) -> Fraction:
    """The conditional-value-at-risk objective's minimum over the samples, in
    exact rational arithmetic."""
    s = sorted(Fraction(v) for v in values)
    n = len(s)
    scale = (1 - Fraction(beta)) * n
    best, tail = None, Fraction(0)
    for i in range(n - 1, -1, -1):  # tail = sum of s[j] over j > i
        g = s[i] + (tail - (n - 1 - i) * s[i]) / scale
        best = g if best is None or g < best else best
        tail += s[i]
    return best


# ---------------------------------------------------------------------------
# Trace CSV ingest oracle: the grammar README states, one file at a time

_TIME_NUMBER = re.compile(r"[+-]?\d+")  # an integer of any script, sign and padding
_TIME_AS_WRITTEN = re.compile(r"0|[1-9][0-9]*")
_PLAIN_CELL = re.compile(r"[!-^`-~]+")  # printable ASCII but space and "_"


def _quoted(text: str) -> str:
    """Input text as error messages quote it: cut to 60 characters and its length."""
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


def _first_invalid_utf8(data: bytes) -> int:
    """The offset of the first byte that starts no UTF-8 character, found by
    decoding one character of 1 to 4 bytes at a time."""
    i = 0
    while i < len(data):
        for k in range(1, 5):
            try:
                if len(data[i : i + k].decode("utf-8")) == 1:
                    break
            except UnicodeDecodeError:
                pass
        else:
            return i
        i += k
    raise ValueError("valid UTF-8")


def _not_utf8(path: Path) -> FormatError:
    """The error naming the first byte of a file that is not UTF-8."""
    data = path.read_bytes()
    start = _first_invalid_utf8(data)
    return FormatError(f"{path}: not UTF-8: byte 0x{data[start]:02x} at offset {start}")


def _read_trace_oracle(path) -> tuple:
    """The (T, d) states of one trace CSV and its first fault of spelling
    alone (or None); a fault of content is raised, the first in reading
    order."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if text == "":
        raise EmptyError(f"{path}: empty file")
    # Each line but the last ends in LF, after which a CR before it belongs
    # to the line end; an empty last line is the end of the file.
    *ended, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in ended] + ([last] if last else [])
    table = [line.split(",") if line else [] for line in lines]
    header, spelling = table[0], []
    names = ["t"] + [f"x{j}" for j in range(1, len(header))]
    header_fault = FormatError(f"{path}: header must be t,x1,...,xn, got {_quoted(repr(header))}")
    if len(header) < 2 or [name.strip() for name in header] != names:
        raise header_fault
    if header != names:
        spelling.append(header_fault)
    dim = len(header) - 1
    if len(table) == 1:
        raise EmptyError(f"{path}: no data rows")
    states = np.empty((len(table) - 1, dim))
    for i, row in enumerate(table[1:]):
        if len(row) != dim + 1:
            raise FormatError(f"{path}: row {i}: expected {dim + 1} cells, got {len(row)}")
        time = row[0].strip()
        if not _TIME_NUMBER.fullmatch(time):
            raise FormatError(f"{path}: row {i}: time cell {_quoted(repr(time))} is not an integer")
        if float(time) != i:
            raise GapError(f"{path}: expected t={i}, got t={_quoted(time)} (times must be consecutive from 0)")
        if not _TIME_AS_WRITTEN.fullmatch(row[0]):
            spelling.append(GapError(f"{path}: expected t={i}, got t={_quoted(repr(row[0]))} (times are written 0, 1, ...)"))
        for j, cell in enumerate(row[1:], start=1):
            number = cell.strip()
            try:
                value = float(number)
            except ValueError:
                raise FormatError(f"{path}: row {i}: non-numeric x{j} cell {_quoted(repr(number))}") from None
            if not math.isfinite(value):
                raise FormatError(f"{path}: row {i}: non-finite x{j} value {_quoted(repr(number))}")
            if not _PLAIN_CELL.fullmatch(cell):
                spelling.append(FormatError(f"{path}: row {i}: x{j} cell {_quoted(repr(cell))} holds whitespace, '_' or non-ASCII"))
            states[i, j - 1] = value
    return states, (spelling or [None])[0]


def load_trace_csv_oracle(path) -> np.ndarray:
    """The (T, d) states of one trace CSV, read cell by cell: its first fault
    of content, else of spelling, is raised."""
    states, fault = _read_trace_oracle(path)
    if fault is not None:
        raise fault
    return states


def load_ensemble_oracle(path) -> np.ndarray:
    """The (N, T, d) states of an ensemble directory or manifest, each
    member read on its own, in order, before the shapes are compared and
    then the members' first fault of spelling is raised."""
    path = Path(path)
    if path.is_dir():
        files = sorted((p for p in path.iterdir() if p.suffix == ".csv"), key=lambda p: p.name)
        if not files:
            raise EmptyError(f"{path}: no trace CSVs in directory")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not a valid JSON manifest: {exc}") from None
        if not isinstance(manifest, dict) or "traces" not in manifest:
            raise FormatError(f'{path}: manifest must be an object with a "traces" list')
        listed = manifest["traces"]
        if not isinstance(listed, list) or not all(isinstance(p, str) and "\0" not in p for p in listed):
            raise FormatError(f'{path}: manifest "traces" must be a list of paths')
        if not listed:
            raise EmptyError(f"{path}: manifest lists no traces")
        files = [path.parent / p for p in listed]
    members, faults = zip(*map(_read_trace_oracle, files))
    length, dim = members[0].shape
    for i, m in enumerate(members):
        if m.shape != (length, dim):
            raise MismatchError(
                f"trace {i} has dim={m.shape[1]}, length={m.shape[0]}; "
                f"expected dim={dim}, length={length}"
            )
    for fault in faults:
        if fault is not None:
            raise fault
    return np.stack(members)


# ---------------------------------------------------------------------------
# Random instance generators


def random_predicates(rng: np.random.Generator, dim: int, count: int = 4) -> dict:
    table = {}
    for i in range(count):
        if rng.random() < 0.5:
            a = rng.normal(size=dim)
            while not np.any(a):
                a = rng.normal(size=dim)
            table[f"p{i}"] = Halfspace(tuple(a), float(rng.normal()))
        else:
            k = int(rng.integers(1, dim + 1))
            pos = tuple(int(v) for v in rng.choice(dim, size=k, replace=False))
            center = tuple(float(v) for v in rng.normal(size=k))
            norm = "l2" if rng.random() < 0.5 else "linf"
            table[f"p{i}"] = NormBall(pos, center, float(rng.uniform(0.2, 2.0)), norm)
    return table


def random_formula(
    rng: np.random.Generator,
    names,
    depth: int,
    max_window: int = 3,
    allow_not: bool = True,
    allow_past: bool = True,
    unbounded: float = 0.0,
):
    """A random formula tree; each window is [lo, inf] with probability
    ``unbounded`` (drawn only when it is positive, so that the default draws
    stay as they were)."""
    names = list(names)

    def interval():
        lo = int(rng.integers(0, max_window + 1))
        hi = int(rng.integers(lo, max_window + 1))
        if unbounded and rng.random() < unbounded:
            return TimeInterval(lo, INF)
        return TimeInterval(lo, hi)

    def leaf():
        if rng.random() < 0.06:
            return TRUE
        return Predicate(str(rng.choice(names)))

    def node(d):
        if d <= 0:
            return leaf()
        ops = ["leaf", "and", "or", "until_f", "ev_f", "alw_f"]
        if allow_not:
            ops.append("not")
        if allow_past:
            ops += ["until_p", "ev_p", "alw_p"]
        op = str(rng.choice(ops))
        if op == "leaf":
            return leaf()
        if op == "not":
            return Not(node(d - 1))
        if op == "and":
            return And(node(d - 1), node(d - 1))
        if op == "or":
            return Or(node(d - 1), node(d - 1))
        if op == "until_f":
            return UntilFuture(node(d - 1), node(d - 1), interval())
        if op == "until_p":
            return UntilPast(node(d - 1), node(d - 1), interval())
        if op == "ev_f":
            return EventuallyFuture(node(d - 1), interval())
        if op == "alw_f":
            return AlwaysFuture(node(d - 1), interval())
        if op == "ev_p":
            return EventuallyPast(node(d - 1), interval())
        return AlwaysPast(node(d - 1), interval())

    return node(depth)


def random_trace(rng: np.random.Generator, length: int, dim: int) -> Trace:
    return Trace(rng.normal(scale=2.0, size=(length, dim)))


def random_admissible_case(
    rng: np.random.Generator,
    max_depth: int = 4,
    max_length: int = 10,
    max_dim: int = 3,
    allow_not: bool = True,
    allow_past: bool = True,
    max_window: int = 3,
):
    """A (formula, trace, t, predicates) tuple whose horizon fits the trace."""
    while True:
        dim = int(rng.integers(1, max_dim + 1))
        length = int(rng.integers(1, max_length + 1))
        predicates = random_predicates(rng, dim)
        f = random_formula(
            rng,
            predicates,
            depth=int(rng.integers(0, max_depth + 1)),
            max_window=max_window,
            allow_not=allow_not,
            allow_past=allow_past,
        )
        h = horizon(f)
        t_min, t_max = h.past_depth, length - 1 - h.future_depth
        if t_min > t_max:
            continue
        t = int(rng.integers(t_min, t_max + 1))
        return f, random_trace(rng, length, dim), t, predicates


def random_formula_text(rng: np.random.Generator, depth: int = 3) -> str:
    """Formula text via the canonical printer over a random tree."""
    from stlrisk.parser import format_formula

    names = [f"sig{i}" for i in range(4)]
    return format_formula(random_formula(rng, names, depth))
