import math

import numpy as np
import pytest

from stlrisk.errors import IntervalError
from stlrisk.formula import (
    TRUE,
    AlwaysFuture,
    And,
    EventuallyFuture,
    Horizon,
    Not,
    Or,
    Predicate,
    TimeInterval,
    UntilFuture,
    UntilPast,
    horizon,
    predicate_names,
)
from stlrisk.semantics import eval_boolean, eval_robust

from .helpers import desugar, random_admissible_case

P, Q = Predicate("p"), Predicate("q")


class TestTimeInterval:
    def test_rejects_inverted(self):
        with pytest.raises(IntervalError):
            TimeInterval(3, 1)

    def test_rejects_negative(self):
        with pytest.raises(IntervalError):
            TimeInterval(-1, 2)

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


def test_predicate_names_collects_all():
    f = And(Or(P, Not(Q)), UntilFuture(P, Predicate("r"), TimeInterval(0, 1)))
    assert predicate_names(f) == frozenset({"p", "q", "r"})
