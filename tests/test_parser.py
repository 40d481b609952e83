import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlrisk.errors import FormulaSyntaxError, IntervalError
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
    UntilFuture,
    UntilPast,
)
from stlrisk.parser import SourceSpan, format_formula, parse

from .helpers import random_formula

P, Q, R = Predicate("p"), Predicate("q"), Predicate("r")


class TestParse:
    def test_case_study_formula(self):
        f = parse("G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)")
        expected = And(
            AlwaysFuture(And(Not(Predicate("inC")), Not(Predicate("inD"))), TimeInterval(0, 3)),
            EventuallyFuture(
                And(Predicate("inA"), EventuallyFuture(Predicate("inB"), TimeInterval(0, 1))),
                TimeInterval(1, 2),
            ),
        )
        assert f == expected

    def test_true_literal(self):
        assert parse("true") == TRUE

    def test_inverted_interval_is_interval_error(self):
        with pytest.raises(IntervalError) as exc:
            parse("p U[3,1] q")
        assert exc.value.span is not None

    def test_negative_bound_is_interval_error(self):
        with pytest.raises(IntervalError):
            parse("G[-1,2] p")

    @pytest.mark.parametrize(
        "text, lo, hi",
        [
            ("p U[3,1] q", 3, 1),
            ("G[-1,2] p", -1, 2),
            pytest.param(f"G[0,{sys.maxsize + 1}] p", 0, sys.maxsize + 1, id="hi-past-maxsize"),
            pytest.param("G[" + "9" * 5000 + ",1] p", 10**5000 - 1, 1, id="lo-past-the-digit-limit"),
            pytest.param("G[0,-" + "9" * 5000 + "] p", 0, 1 - 10**5000, id="negative-hi-past-the-digit-limit"),
        ],
    )
    def test_interval_error_is_time_intervals_at_the_bracket(self, text, lo, hi):
        with pytest.raises(IntervalError) as exc:
            parse(text)
        with pytest.raises(IntervalError) as direct:
            TimeInterval(lo, hi)
        assert str(exc.value) == str(direct.value)
        assert exc.value.span == SourceSpan(text.index("["), text.index("]") + 1)

    def test_zero_padded_bounds_past_the_digit_limit_keep_their_value(self):
        zeros = "0" * 5000
        assert parse(f"G[{zeros},{zeros}{sys.maxsize}] p") == AlwaysFuture(P, TimeInterval(0, sys.maxsize))

    @pytest.mark.parametrize("zero", ["0", "\u0660"], ids=["ascii", "arabic-indic"])
    def test_bounds_padded_with_zeros_of_any_script_keep_their_value(self, zero):
        pad = zero * 30
        assert parse(f"G[{pad}\u0663,{pad}{sys.maxsize}] p") == AlwaysFuture(P, TimeInterval(3, sys.maxsize))

    def test_unbounded_interval_parses(self):
        f = parse("F[2,inf] p")
        assert f == EventuallyFuture(P, TimeInterval(2, math.inf))

    def test_precedence_not_tighter_than_and(self):
        assert parse("!p & q") == And(Not(P), Q)

    def test_precedence_and_tighter_than_or(self):
        assert parse("p | q & r") == Or(P, And(Q, R))

    def test_until_between_unary_and_and(self):
        assert parse("p U[0,1] q & r") == And(UntilFuture(P, Q, TimeInterval(0, 1)), R)

    def test_past_operators(self):
        assert parse("p S[1,2] q") == UntilPast(P, Q, TimeInterval(1, 2))
        assert parse("H[0,2] p") == parse("H[0,2](p)")

    def test_until_chain_requires_parens(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p U[0,1] q U[0,2] r")
        assert parse("(p U[0,1] q) U[0,2] r") == UntilFuture(
            UntilFuture(P, Q, TimeInterval(0, 1)), R, TimeInterval(0, 2)
        )

    def test_whitespace_insensitive(self):
        assert parse(" G [ 0 , 3 ]\tp ") == parse("G[0,3]p")

    def test_reserved_words_cannot_be_predicates(self):
        with pytest.raises(FormulaSyntaxError):
            parse("G & p")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p q")

    def test_error_spans_lie_within_input(self):
        bad = ["p U[0", "(((", "p &", "", "G[0,3", "p | | q", "5p", "G[x,3] p"]
        for text in bad:
            with pytest.raises((FormulaSyntaxError, IntervalError)) as exc:
                parse(text)
            span = exc.value.span
            if span is not None:
                assert 0 <= span.start <= span.end <= len(text)


class TestNestingLimit:
    @pytest.mark.parametrize(
        "text",
        ["(" * 300 + "p" + ")" * 300, "!" * 1000 + "p", "G[0,1] " * 101 + "p", "!(" * 51 + "p" + ")" * 51],
    )
    def test_deeper_than_limit_is_syntax_error(self, text):
        with pytest.raises(FormulaSyntaxError, match="nests deeper than 100 levels") as info:
            parse(text)
        span = info.value.span
        assert 0 <= span.start < span.end <= len(text)

    @pytest.mark.parametrize(
        "text, printed",
        [
            ("(" * 100 + "p & q" + ")" * 100, "p & q"),
            ("!" * 100 + "p", "!" * 100 + "p"),
            ("F[0,1] (" * 50 + "p | q" + ")" * 50, "F[0,1] " * 49 + "F[0,1](p | q)"),
        ],
    )
    def test_exactly_100_levels_parse_and_print(self, text, printed):
        f = parse(text)
        assert format_formula(f) == printed
        assert parse(format_formula(f)) == f


class TestFormat:
    def test_single_negation(self):
        assert format_formula(Not(P)) == "!p"

    def test_parens_forced_by_precedence(self):
        assert format_formula(And(P, Or(Q, R))) == "p & (q | r)"

    def test_always_canonical(self):
        assert format_formula(AlwaysFuture(P, TimeInterval(0, 3))) == "G[0,3] p"

    def test_left_associative_chains_unparenthesized(self):
        assert format_formula(Or(Or(P, Q), R)) == "p | q | r"
        assert format_formula(Or(P, Or(Q, R))) == "p | (q | r)"

    def test_round_trip_random_formulas(self):
        rng = np.random.default_rng(404)
        names = ["a", "b_2", "x", "long_name"]
        for _ in range(1000):
            f = random_formula(rng, names, depth=int(rng.integers(0, 5)))
            assert parse(format_formula(f)) == f


IV = TimeInterval(1, 2)
C, D = Predicate("c"), Predicate("d")
WINDOWS = {"F": EventuallyFuture, "G": AlwaysFuture, "O": EventuallyPast, "H": AlwaysPast}
# Each child kind and its precedence level, stated here apart from the node
# classes: | 1, & 2, U and S 3, ! and the windows 4, atoms 5.
CHILD_LEVELS = [(TRUE, 5), (C, 5), (Not(C), 4), (And(C, D), 2), (Or(C, D), 1), (UntilFuture(C, D, IV), 3), (UntilPast(C, D, IV), 3)]
CHILD_LEVELS += [(op(C, IV), 4) for op in WINDOWS.values()]
# Each parent kind and operand slot: the lowest child level printed there
# without parentheses, the parent around a child x, and its text around the
# child's text s.  & and | associate left; until is non-associative.
SLOTS = [
    pytest.param(1, lambda x: Or(x, P), lambda s: f"{s} | p", id="|-left"),
    pytest.param(2, lambda x: Or(P, x), lambda s: f"p | {s}", id="|-right"),
    pytest.param(2, lambda x: And(x, P), lambda s: f"{s} & p", id="&-left"),
    pytest.param(3, lambda x: And(P, x), lambda s: f"p & {s}", id="&-right"),
    pytest.param(4, lambda x: UntilFuture(x, P, IV), lambda s: f"{s} U[1,2] p", id="U-left"),
    pytest.param(4, lambda x: UntilFuture(P, x, IV), lambda s: f"p U[1,2] {s}", id="U-right"),
    pytest.param(4, lambda x: UntilPast(x, P, IV), lambda s: f"{s} S[1,2] p", id="S-left"),
    pytest.param(4, lambda x: UntilPast(P, x, IV), lambda s: f"p S[1,2] {s}", id="S-right"),
    pytest.param(4, Not, lambda s: f"!{s}", id="!"),
]
# A window puts no space before an operand in parentheses.
SLOTS += [pytest.param(4, lambda x, op=op: op(x, IV), lambda s, k=k: f"{k}[1,2]{s if s[0] == '(' else ' ' + s}", id=k) for k, op in WINDOWS.items()]


@pytest.mark.parametrize("needs, parent, around", SLOTS)
def test_parentheses_exactly_where_the_child_binds_looser_than_its_slot(needs, parent, around):
    for child, level in CHILD_LEVELS:
        assert child.level == level
        text = format_formula(child)
        expected = around(f"({text})" if level < needs else text)
        assert format_formula(parent(child)) == expected
        assert parse(expected) == parent(child)


# Each node class, a node of it, its fields and its repr: precedence levels
# and symbols are class attributes, so none of them shows in a field, in ==,
# in hash or in repr.
NODE_CASES = [
    (TRUE, (), "TrueFormula()"),
    (P, ("name",), "Predicate(name='p')"),
    (Not(P), ("child",), "Not(child=Predicate(name='p'))"),
    (And(P, Q), ("left", "right"), "And(left=Predicate(name='p'), right=Predicate(name='q'))"),
    (Or(P, Q), ("left", "right"), "Or(left=Predicate(name='p'), right=Predicate(name='q'))"),
]
NODE_CASES += [
    (op(P, Q, IV), ("left", "right", "interval"), f"{op.__name__}(left=Predicate(name='p'), right=Predicate(name='q'), interval=TimeInterval(lo=1, hi=2))")
    for op in (UntilFuture, UntilPast)
]
NODE_CASES += [
    (op(P, IV), ("child", "interval"), f"{op.__name__}(child=Predicate(name='p'), interval=TimeInterval(lo=1, hi=2))")
    for op in WINDOWS.values()
]


@pytest.mark.parametrize("node, fields, text", NODE_CASES, ids=[type(node).__name__ for node, _, _ in NODE_CASES])
def test_level_and_symbol_are_not_fields(node, fields, text):
    cls = type(node)
    assert cls._fields == cls.__match_args__ == fields and repr(node) == text
    values = tuple(getattr(node, name) for name in fields)
    assert node == cls(*values) and hash(node) == hash(cls(*values)) == hash(values)
    assert "level" not in vars(node) and "symbol" not in vars(node) and isinstance(cls.level, int)


@pytest.mark.parametrize(
    "value",
    [3, "p", None, SimpleNamespace(level=0), And(P, 3), Not(object()), EventuallyFuture([], IV), UntilFuture(P, SimpleNamespace(level=5), IV)],
    ids=["int", "str", "None", "level-attribute", "and-operand", "not-operand", "window-operand", "until-operand"],
)
def test_format_refuses_what_is_not_a_node(value):
    with pytest.raises(TypeError, match="^not a formula node: "):
        format_formula(value)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_fuzz_never_crashes_unicode(text):
    try:
        parse(text)
    except (FormulaSyntaxError, IntervalError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="pqGFUSHO[](),&|!truein0123456789 -", max_size=40))
def test_fuzz_never_crashes_grammar_alphabet(text):
    try:
        parse(text)
    except (FormulaSyntaxError, IntervalError):
        pass
