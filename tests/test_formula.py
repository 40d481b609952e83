import math
import sys

import numpy as np
import pytest

from stlrisk.errors import FormulaSyntaxError, InsufficientHorizonError, IntervalError
from stlrisk.formula import (
    OPERATORS,
    TRUE,
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Horizon,
    Not,
    Or,
    Predicate,
    TimeInterval,
    Until,
    UntilFuture,
    UntilPast,
    Window,
    horizon,
    plan,
    predicate_names,
    reach,
)
from stlrisk.parser import format_formula, parse
from stlrisk.predicates import Halfspace
from stlrisk.semantics import eval_boolean, eval_robust

from .helpers import (
    anchors_by_node,
    anchors_oracle,
    desugar,
    horizon_oracle,
    random_admissible_case,
    random_formula,
    random_shared_formula,
    random_trace,
)

P, Q = Predicate("p"), Predicate("q")


class TestTimeInterval:
    def test_rejects_inverted(self):
        with pytest.raises(IntervalError):
            TimeInterval(3, 1)

    def test_rejects_negative(self):
        with pytest.raises(IntervalError):
            TimeInterval(-1, 2)

    @pytest.mark.parametrize("lo, hi", [(1.5, 2), (True, 2), (0, "3")], ids=["float-lo", "bool-lo", "string-hi"])
    def test_rejects_a_bound_that_is_not_an_integer(self, lo, hi):
        with pytest.raises(IntervalError, match="must be an integer"):
            TimeInterval(lo, hi)

    def test_bounds_up_to_maxsize(self):
        assert TimeInterval(sys.maxsize, sys.maxsize).hi == sys.maxsize

    @pytest.mark.parametrize(
        "lo, hi",
        [(sys.maxsize + 1, math.inf), (0, sys.maxsize + 1), (0, 10**5000), (-(10**5000), 1)],
        ids=["lo", "hi", "hi-past-the-digit-limit", "negative-lo-past-the-digit-limit"],
    )
    def test_rejects_bound_past_maxsize_without_printing_it(self, lo, hi):
        name = "hi" if lo == 0 else "lo"
        with pytest.raises(IntervalError, match=f"^interval bound {name} is out of range: finite bounds are at most sys.maxsize = {sys.maxsize}$"):
            TimeInterval(lo, hi)

    def test_unbounded_upper(self):
        iv = TimeInterval(0, math.inf)
        assert not iv.bounded
        assert str(iv) == "[0,inf]"


class TestDesugar:
    def test_or_becomes_negated_and(self):
        assert desugar(Or(P, Q)) == Not(And(Not(P), Not(Q)))

    def test_true_unchanged(self):
        assert desugar(TRUE) == TRUE

    def test_always_future(self):
        iv = TimeInterval(0, 3)
        assert desugar(AlwaysFuture(P, iv)) == Not(UntilFuture(TRUE, Not(P), iv))

    def test_eventually_future(self):
        iv = TimeInterval(1, 2)
        assert desugar(EventuallyFuture(P, iv)) == UntilFuture(TRUE, P, iv)

    def test_idempotent_on_random_formulas(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            f, _, _, _ = random_admissible_case(rng)
            once = desugar(f)
            assert desugar(once) == once

    def test_preserves_semantics_on_random_cases(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            f, trace, t, preds = random_admissible_case(rng, max_depth=4, max_length=8)
            g = desugar(f)
            assert eval_boolean(f, trace, t, preds) == eval_boolean(g, trace, t, preds)
            assert eval_robust(f, trace, t, preds) == eval_robust(g, trace, t, preds)

    def test_preserves_horizon(self):
        rng = np.random.default_rng(303)
        for _ in range(300):
            f, _, _, _ = random_admissible_case(rng)
            assert horizon(desugar(f)) == horizon(f)


class TestHorizon:
    def test_predicate_has_no_reach(self):
        assert horizon(P) == Horizon(0, 0)

    def test_nested_future_windows_add(self):
        f = And(
            AlwaysFuture(And(Not(Predicate("c")), Not(Predicate("d"))), TimeInterval(0, 3)),
            EventuallyFuture(
                And(Predicate("a"), EventuallyFuture(Predicate("b"), TimeInterval(0, 1))),
                TimeInterval(1, 2),
            ),
        )
        assert horizon(f) == Horizon(3, 0)

    def test_past_until_reaches_back(self):
        assert horizon(UntilPast(P, Q, TimeInterval(1, 2))) == Horizon(0, 2)

    def test_unbounded_window_gives_infinite_depth(self):
        f = EventuallyFuture(P, TimeInterval(0, math.inf))
        assert horizon(f).future_depth == math.inf
        assert horizon(UntilFuture(P, Q, TimeInterval(0, math.inf))).future_depth == math.inf
        assert horizon(AlwaysPast(P, TimeInterval(2, math.inf))) == Horizon(0, math.inf)

    def test_unbounded_left_operand_of_a_short_until_is_not_read(self):
        f = UntilFuture(EventuallyFuture(P, TimeInterval(0, math.inf)), Q, TimeInterval(0, 1))
        assert horizon(f) == Horizon(1, 0)

    def test_until_left_operand_reaches_strictly_before_the_window_end(self):
        assert horizon(UntilFuture(AlwaysFuture(P, TimeInterval(0, 5)), Q, TimeInterval(0, 1))) == Horizon(1, 0)
        assert horizon(UntilFuture(AlwaysFuture(P, TimeInterval(0, 5)), Q, TimeInterval(0, 2))) == Horizon(6, 0)
        assert horizon(EventuallyFuture(EventuallyPast(P, TimeInterval(0, 1)), TimeInterval(2, 3))) == Horizon(3, 0)
        assert horizon(UntilPast(EventuallyPast(P, TimeInterval(0, 2)), Q, TimeInterval(1, 3))) == Horizon(0, 4)

    def test_matches_recursive_oracle_on_random_formulas(self):
        # horizon_oracle's nesting sum bounds the exact reach from above, so
        # no call that fits the nesting sum is refused; on bounded windows
        # the reach equals the literal expansion's.
        rng = np.random.default_rng(404)
        windows = set()
        for _ in range(1500):
            f = random_formula(rng, ["p", "q"], depth=int(rng.integers(0, 5)), unbounded=0.15)
            h, (future, past) = horizon(f), horizon_oracle(f)
            assert h.future_depth <= future and h.past_depth <= past
            intervals = [node.interval for node, _ in plan(f, 0)[0] if hasattr(node, "interval")]
            if all(iv.bounded for iv in intervals):
                assert h == Horizon(*anchors_oracle(f))
            for node, _ in plan(f, 0)[0]:
                if hasattr(node, "interval"):
                    lo, hi = node.interval.lo, node.interval.hi
                    kind = "inf" if hi == math.inf else "lo>0" if lo > 0 else "[0,0]" if hi == 0 else "[0,hi]"
                    windows.add((type(node).__name__, kind))
        for name in ("UntilFuture", "UntilPast"):
            assert {(name, "lo>0"), (name, "[0,0]"), (name, "inf")} <= windows
        assert {("EventuallyPast", "inf"), ("AlwaysPast", "inf")} <= windows

    def test_equals_literal_expansion_on_bounded_random_formulas(self):
        rng = np.random.default_rng(405)
        windows, tighter = set(), 0
        for _ in range(2000):
            f = random_formula(rng, ["p", "q"], depth=int(rng.integers(0, 5)))
            h, nested = horizon(f), Horizon(*horizon_oracle(f))
            assert h == Horizon(*anchors_oracle(f))
            assert h.future_depth <= nested.future_depth and h.past_depth <= nested.past_depth
            tighter += h != nested
            for node, _ in plan(f, 0)[0]:
                if hasattr(node, "interval"):
                    lo, hi = node.interval.lo, node.interval.hi
                    windows.add((type(node).__name__, "lo>0" if lo > 0 else f"[0,{min(hi, 2)}]"))
        for name in ("UntilFuture", "UntilPast"):
            assert {(name, "lo>0"), (name, "[0,0]"), (name, "[0,1]"), (name, "[0,2]")} <= windows
        assert {("EventuallyPast", "lo>0"), ("AlwaysPast", "lo>0")} <= windows
        assert tighter > 100


class TestReach:
    def test_offsets_of_future_and_past_operators(self):
        iv = TimeInterval(1, 3)
        assert reach(EventuallyFuture(P, iv)) == ((P, 1, 3),)
        assert reach(AlwaysPast(P, iv)) == ((P, -3, -1),)
        assert reach(UntilFuture(P, Q, iv)) == ((P, 1, 2), (Q, 1, 3))
        assert reach(UntilPast(P, Q, iv)) == ((P, -2, -1), (Q, -3, -1))
        assert reach(And(P, Q)) == ((P, 0, 0), (Q, 0, 0))
        assert reach(Not(P)) == ((P, 0, 0),) and reach(P) == ()

    def test_zero_window_until_reads_its_left_operand_at_no_step(self):
        for hi in (0, 1):
            for node, window in ((UntilFuture(P, Q, TimeInterval(0, hi)), (0, hi)), (UntilPast(P, Q, TimeInterval(0, hi)), (-hi, 0))):
                [(left, lo, lhi), (right, rlo, rhi)] = reach(node)
                assert (left, right) == (P, Q) and lo > lhi and (rlo, rhi) == window

    @pytest.mark.parametrize("value", [None, object(), "p", TimeInterval(0, 1), (P, 0, 0)])
    def test_refuses_what_is_not_a_formula_node(self, value):
        with pytest.raises(TypeError, match="not a formula node"):
            reach(value)


def operands(g) -> list:
    """g's direct subformulas, read from its fields, not through ``reach``."""
    return [getattr(g, name) for name in ("left", "right", "child") if hasattr(g, name)]


class TestPlan:
    def test_spans_and_order_match_the_literal_expansion(self):
        rng = np.random.default_rng(406)
        windows, shared, unread = set(), 0, 0
        for i in range(800):
            if i % 2:
                f = random_shared_formula(rng, ["p", "q"], size=int(rng.integers(0, 10)))
            else:
                f = random_formula(rng, ["p", "q"], depth=int(rng.integers(0, 5)))
            t = int(rng.integers(0, 6))
            order, span = plan(f, t)
            # Each node read at some anchor spans exactly the anchors the
            # expansion visits it at; a node never visited has no span.
            assert span == {key: (min(anchors), max(anchors)) for key, anchors in anchors_by_node(f, t).items()}
            nodes, stack = {}, [f]
            while stack:
                g = stack.pop()
                if id(g) not in nodes:
                    nodes[id(g)] = g
                    stack.extend(operands(g))
            position = {id(g): k for k, (g, _) in enumerate(order)}
            assert len(order) == len(nodes) and position.keys() == nodes.keys()
            for g, reads in order:
                assert reads == reach(g)
                assert all(position[id(child)] < position[id(g)] for child in operands(g))
            parents = [id(child) for g in nodes.values() for child in operands(g)]
            shared += len(parents) > len(set(parents))
            unread += len(span) < len(order)
            for g in nodes.values():
                if hasattr(g, "interval"):
                    lo, hi = g.interval.lo, g.interval.hi
                    windows.add((type(g).__name__, "lo>0" if lo > 0 else f"[0,{min(hi, 2)}]"))
        for name in ("UntilFuture", "UntilPast"):
            assert {(name, "lo>0"), (name, "[0,0]"), (name, "[0,1]"), (name, "[0,2]")} <= windows
        assert {(name, "lo>0") for name in ("EventuallyPast", "AlwaysPast", "EventuallyFuture", "AlwaysFuture")} <= windows
        assert shared > 100 and unread > 20


# Operators that this module declares with letters of its own: each sets
# only the class attributes, so its reads come from its base.
class UntilAgain(Until):
    symbol, past = "W", False


class SinceAgain(Until):
    symbol, past = "Z", True


class EventuallyAhead(Window):
    symbol, past, eventually = "E", False, True


class AlwaysBehind(Window):
    symbol, past, eventually = "A", True, False


BUILT_IN_TWIN = {UntilAgain: UntilFuture, SinceAgain: UntilPast, EventuallyAhead: EventuallyFuture, AlwaysBehind: AlwaysPast}


@pytest.mark.parametrize("op", BUILT_IN_TWIN, ids=lambda op: op.__name__)
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (1, 3), (2, 7), (0, math.inf)])
def test_operator_declared_elsewhere_reads_as_its_built_in_twin(op, lo, hi):
    assert op.symbol not in OPERATORS
    iv = TimeInterval(lo, hi)
    node, twin = operator_node(op, iv=iv), operator_node(BUILT_IN_TWIN[op], iv=iv)
    assert reach(node) == reach(twin)
    spans = [{key: value for key, value in plan(g, 9)[1].items() if key != id(g)} for g in (node, twin)]
    assert spans[0] == spans[1]


@pytest.mark.parametrize("op", BUILT_IN_TWIN, ids=lambda op: op.__name__)
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (1, 3), (2, 7), (0, math.inf)])
def test_operator_declared_elsewhere_evaluates_as_its_built_in_twin(op, lo, hi):
    # The engine finds such a class's kernel through its base.  Alone, the
    # node is read at one anchor; under F[0,3] at four, past or future.
    preds = {"p": Halfspace((1.0, 0.0), 0.0), "q": Halfspace((0.0, 2.0), -1.0)}
    trace = random_trace(np.random.default_rng(lo + 10 * (hi if hi != math.inf else 9)), 24, 2)
    iv = TimeInterval(lo, hi)
    shapes = (
        lambda cls: operator_node(cls, iv=iv),
        lambda cls: EventuallyFuture(And(operator_node(cls, Not(Q), Or(P, Q), iv), Q), TimeInterval(0, 3)),
    )
    for shape in shapes:
        node, twin = shape(op), shape(BUILT_IN_TWIN[op])
        if hi == math.inf:
            for f in (node, twin):
                with pytest.raises(InsufficientHorizonError):
                    eval_robust(f, trace, 12, preds)
            continue
        h = horizon(twin)
        anchors = range(h.past_depth, len(trace.states) - h.future_depth)
        assert len(anchors) >= 5
        for t in anchors:
            assert eval_robust(node, trace, t, preds).hex() == eval_robust(twin, trace, t, preds).hex(), t
            assert eval_boolean(node, trace, t, preds) is eval_boolean(twin, trace, t, preds), t


# Each past operator's future twin, written out apart from the classes.
FUTURE_TWIN = {"S": "U", "O": "F", "H": "G"}


def operator_node(op, left=P, right=Q, iv=TimeInterval(1, 3)):
    return op(left, right, iv) if issubclass(op, Until) else op(left, iv)


class TestOperators:
    def test_table_maps_each_letter_to_its_class(self):
        assert OPERATORS == {
            "U": UntilFuture, "S": UntilPast, "F": EventuallyFuture,
            "G": AlwaysFuture, "O": EventuallyPast, "H": AlwaysPast,
        }
        assert set(FUTURE_TWIN) | set(FUTURE_TWIN.values()) == set(OPERATORS)

    @pytest.mark.parametrize("letter", OPERATORS)
    def test_letter_is_refused_as_a_predicate_name(self, letter):
        for text in (letter, f"!{letter}", f"p & {letter}", f"F[0,1] {letter}", f"({letter})"):
            with pytest.raises(FormulaSyntaxError):
                parse(text)

    @pytest.mark.parametrize("letter", OPERATORS)
    def test_format_then_parse_round_trips(self, letter):
        op = OPERATORS[letter]
        for node in (operator_node(op), operator_node(op, And(P, Q), Not(Q), TimeInterval(0, math.inf))):
            text = format_formula(node)
            assert letter in text and parse(text) == node and type(parse(text)) is op
        assert format_formula(operator_node(op)) == (f"p {letter}[1,3] q" if issubclass(op, Until) else f"{letter}[1,3] p")

    @pytest.mark.parametrize("letter", OPERATORS)
    def test_operators_with_equal_operands_differ(self, letter):
        op = OPERATORS[letter]
        node = operator_node(op)
        assert node == operator_node(op) and hash(node) == hash(operator_node(op))
        assert repr(node).startswith(f"{op.__name__}(")
        for other in OPERATORS.values():
            if other is not op:
                assert node != operator_node(other) and operator_node(other) != node
                assert not isinstance(node, other)

    @pytest.mark.parametrize("letter", FUTURE_TWIN)
    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (1, 3), (2, 7), (0, math.inf)])
    def test_past_reach_mirrors_the_future_twin(self, letter, lo, hi):
        past, future = OPERATORS[letter], OPERATORS[FUTURE_TWIN[letter]]
        iv = TimeInterval(lo, hi)
        mirrored = tuple((g, -last, -first) for g, first, last in reach(operator_node(future, iv=iv)))
        assert reach(operator_node(past, iv=iv)) == mirrored


def test_predicate_names_collects_all():
    f = And(Or(P, Not(Q)), UntilFuture(P, Predicate("r"), TimeInterval(0, 1)))
    assert predicate_names(f) == frozenset({"p", "q", "r"})
