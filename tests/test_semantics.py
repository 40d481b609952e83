import math

import numpy as np
import pytest

from stlrisk import semantics
from stlrisk.errors import InsufficientHorizonError, UnknownPredicateError
from stlrisk.formula import (
    TRUE,
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Not,
    Predicate,
    TimeInterval,
    UntilFuture,
    UntilPast,
    horizon,
    reach,
)
from stlrisk.predicates import Complement, Halfspace, NormBall, StateSlice
from stlrisk.semantics import _window, eval_boolean, eval_robust, eval_robust_ensemble
from stlrisk.trace import Ensemble, Trace

from .helpers import (
    beta_oracle,
    random_admissible_case,
    random_formula,
    random_predicates,
    random_shared_formula,
    random_trace,
    rho_oracle,
)

P = Predicate("p")
Q = Predicate("q")
PREDS = {
    "p": Halfspace((1.0,), 0.0),   # x >= 0
    "q": Halfspace((1.0,), -5.0),  # x >= 5
    "q2": Halfspace((1.0,), -2.0),  # x >= 2
}
TR312 = Trace(np.array([[3.0], [1.0], [2.0]]))
TR126 = Trace(np.array([[1.0], [2.0], [6.0]]))


class TestBooleanExamples:
    def test_predicate_at_zero(self):
        assert eval_boolean(P, TR312, 0, PREDS) is True

    def test_always_window(self):
        assert eval_boolean(AlwaysFuture(P, TimeInterval(0, 2)), TR312, 0, PREDS) is True
        assert eval_boolean(AlwaysFuture(Predicate("q2"), TimeInterval(0, 2)), TR312, 0, PREDS) is False

    def test_until_inner_window(self):
        f = UntilFuture(P, Q, TimeInterval(1, 2))
        assert eval_boolean(f, TR126, 0, PREDS) is True


class TestRobustExamples:
    def test_always_is_window_min(self):
        assert eval_robust(AlwaysFuture(P, TimeInterval(0, 2)), TR312, 0, PREDS) == 1.0

    def test_eventually_is_window_max(self):
        assert eval_robust(EventuallyFuture(P, TimeInterval(0, 2)), TR312, 0, PREDS) == 3.0

    def test_truth_is_infinite(self):
        assert eval_robust(TRUE, TR312, 0, PREDS) == math.inf

    def test_until_candidate_scan(self):
        # candidates: t''=1 gives min(q(1), empty-inf)= -3; t''=2 gives min(1, p(1)=2) = 1
        f = UntilFuture(P, Q, TimeInterval(1, 2))
        assert eval_robust(f, TR126, 0, PREDS) == 1.0

    def test_negation_flips_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            f, trace, t, preds = random_admissible_case(rng)
            assert eval_robust(Not(f), trace, t, preds) == -eval_robust(f, trace, t, preds)


class TestDeepNesting:
    def test_evaluation_does_not_recurse(self):
        f = P
        for _ in range(5000):
            f = Not(AlwaysFuture(f, TimeInterval(0, 0)))
        assert eval_robust(f, TR312, 0, PREDS) == 3.0
        assert eval_boolean(f, TR312, 0, PREDS) is True


class TestHorizonRefusal:
    def test_window_beyond_end(self):
        f = AlwaysFuture(P, TimeInterval(0, 2))
        with pytest.raises(InsufficientHorizonError):
            eval_robust(f, TR312, 1, PREDS)

    def test_exact_fit_accepted(self):
        f = AlwaysFuture(P, TimeInterval(0, 2))
        assert eval_robust(f, TR312, 0, PREDS) == 1.0

    def test_past_window_before_start(self):
        f = parse_helper("H[0,1] p")
        assert eval_boolean(f, TR312, 1, PREDS) is True
        with pytest.raises(InsufficientHorizonError):
            eval_boolean(f, TR312, 0, PREDS)

    def test_time_outside_trace(self):
        with pytest.raises(InsufficientHorizonError):
            eval_boolean(P, TR312, 3, PREDS)
        with pytest.raises(InsufficientHorizonError):
            eval_boolean(P, TR312, -1, PREDS)

    def test_unbounded_interval_always_refused(self):
        f = EventuallyFuture(P, TimeInterval(0, math.inf))
        with pytest.raises(InsufficientHorizonError):
            eval_robust(f, TR312, 0, PREDS)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicateError):
            eval_robust(Predicate("nope"), TR312, 0, PREDS)

    @pytest.mark.parametrize(
        "text, t, error, message",
        [
            ("G[0,2] p & (s | r)", 0, UnknownPredicateError, "formula references undefined predicates: r, s"),
            ("p", 3, InsufficientHorizonError, "time 3 outside the trace index range [0, 2]"),
            ("p", -1, InsufficientHorizonError, "time -1 outside the trace index range [0, 2]"),
            ("G[0,2] p", 1, InsufficientHorizonError, "formula looks 2 steps ahead but only 1 remain after t=1"),
            ("H[0,1] O[0,1] p", 1, InsufficientHorizonError, "formula looks 2 steps back but only 1 precede t=1"),
            ("F[0,inf] p", 0, InsufficientHorizonError, "formula looks inf steps ahead but only 2 remain after t=0"),
        ],
    )
    def test_refusal_messages(self, text, t, error, message):
        with pytest.raises(error) as info:
            eval_robust(parse_helper(text), TR312, t, PREDS)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "t, shown",
        [(10**60, str(10**60)), (-(10**60), str(-(10**60))), (10**3000, "above 10**60"), (10**5000, "above 10**60"), (-(10**5000), "below -10**60")],
        ids=["10**60", "-10**60", "10**3000", "10**5000", "-10**5000"],
    )
    def test_time_past_60_digits_is_described_not_quoted(self, t, shown):
        # Quoted whole, 10**3000 made a 3000-character message, and str()
        # of 10**5000 raised ValueError past int()'s digit limit.
        for evaluate in (
            lambda f: eval_robust(f, TR312, t, PREDS),
            lambda f: eval_boolean(f, TR312, t, PREDS),
            lambda f: eval_robust_ensemble(f, Ensemble((TR312, TR312)), t, PREDS),
        ):
            with pytest.raises(InsufficientHorizonError) as info:
                evaluate(parse_helper("G[0,2] p"))
            assert str(info.value) == f"time {shown} outside the trace index range [0, 2]"

    def test_formula_walked_once_per_evaluation(self, monkeypatch):
        import stlrisk.formula
        import stlrisk.semantics

        calls = []

        def counted(f, t, real=stlrisk.formula.plan):
            calls.append(f)
            return real(f, t)

        monkeypatch.setattr(stlrisk.formula, "plan", counted)
        monkeypatch.setattr(stlrisk.semantics, "plan", counted)
        f = parse_helper("G[0,1] p & (q U[0,1] p) & H[0,1] q")
        eval_robust(f, TR312, 1, PREDS)
        eval_boolean(f, TR312, 1, PREDS)
        eval_robust_ensemble(f, Ensemble((TR312, TR312)), 1, PREDS)
        assert len(calls) == 3

    def test_reach_runs_once_per_distinct_node_per_evaluation(self, monkeypatch):
        import stlrisk.formula

        calls = []

        def counted(node, real=stlrisk.formula.reach):
            calls.append(id(node))
            return real(node)

        # g is one object under three parents.
        g = AlwaysFuture(P, TimeInterval(0, 1))
        f = And(And(g, UntilFuture(Q, g, TimeInterval(0, 2))), EventuallyPast(Not(g), TimeInterval(1, 1)))
        distinct, stack = set(), [f]
        while stack:
            node = stack.pop()
            if id(node) not in distinct:
                distinct.add(id(node))
                stack.extend(getattr(node, name) for name in ("child", "left", "right") if hasattr(node, name))
        assert len(distinct) == 8
        monkeypatch.setattr(stlrisk.formula, "reach", counted)
        trace = Trace(np.array([[1.0], [-2.0], [6.0], [0.5], [3.0], [-1.0]]))
        for evaluate in (
            lambda: eval_robust(f, trace, 1, PREDS),
            lambda: eval_boolean(f, trace, 1, PREDS),
            lambda: eval_robust_ensemble(f, Ensemble((trace, trace)), 1, PREDS),
        ):
            calls.clear()
            evaluate()
            assert sorted(calls) == sorted(distinct)


    def test_engine_matches_oracles_at_both_edges_and_refuses_beyond(self):
        rng = np.random.default_rng(33)
        for _ in range(400):
            preds = random_predicates(rng, 2)
            f = random_formula(rng, preds, depth=int(rng.integers(0, 5)))
            h = horizon(f)
            trace = random_trace(rng, h.past_depth + h.future_depth + int(rng.integers(1, 4)), 2)
            for t in (h.past_depth, len(trace.states) - 1 - h.future_depth):
                assert eval_robust(f, trace, t, preds) == rho_oracle(f, trace, t, preds)
                assert eval_boolean(f, trace, t, preds) == beta_oracle(f, trace, t, preds)
            for t in (h.past_depth - 1, len(trace.states) - h.future_depth):
                with pytest.raises(InsufficientHorizonError):
                    eval_robust(f, trace, t, preds)

    def test_unread_left_operand_of_a_short_until_needs_no_trace(self, monkeypatch):
        import stlrisk.semantics

        table = {"p": Halfspace((1.0,), 0.0), "q": Halfspace((0.0, 1.0), 0.0)}
        read = []

        def counted(p, states, real=stlrisk.semantics.margins):
            read.append(p)
            return real(p, states)

        monkeypatch.setattr(stlrisk.semantics, "margins", counted)
        f = parse_helper("(G[0,5] p) U[0,1] q")
        trace = Trace(np.array([[1.5, 0.2], [-0.5, 0.5]]))
        assert eval_robust(f, trace, 0, table) == 0.5 == rho_oracle(f, trace, 0, table)
        assert eval_boolean(f, trace, 0, table) is True
        assert read == [table["q"]] * 2

    def test_past_operand_of_a_future_window_stays_inside_the_trace(self):
        f = parse_helper("F[2,3] O[0,1] p")
        for trace in (TR312, TR126):
            trace = Trace(np.vstack([trace.states, [[-4.0]]]))
            assert eval_robust(f, trace, 0, PREDS) == rho_oracle(f, trace, 0, PREDS)
            assert eval_boolean(f, trace, 0, PREDS) == beta_oracle(f, trace, 0, PREDS)


def parse_helper(text):
    from stlrisk.parser import parse

    return parse(text)


class TestOracleEquivalence:
    def test_robust_matches_direct_expansion(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            f, trace, t, preds = random_admissible_case(rng, max_depth=3, max_length=8)
            assert eval_robust(f, trace, t, preds) == rho_oracle(f, trace, t, preds)

    def test_boolean_matches_direct_expansion(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            f, trace, t, preds = random_admissible_case(rng, max_depth=3, max_length=8)
            assert eval_boolean(f, trace, t, preds) == beta_oracle(f, trace, t, preds)

    def test_ensemble_members_match_single_trace_bit_for_bit(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            f, trace, t, preds = random_admissible_case(rng, max_depth=3, max_length=8)
            others = tuple(random_trace(rng, *trace.states.shape) for _ in range(int(rng.integers(1, 5))))
            ensemble = Ensemble((trace,) + others)
            z = eval_robust_ensemble(f, ensemble, t, preds)
            for i, member in enumerate(ensemble.traces):
                assert z[i].tobytes() == np.float64(0.0 - eval_robust(f, member, t, preds)).tobytes()

    def test_shared_subformula_under_windows_of_different_reach(self):
        # One object g is read over different anchor ranges by its parents,
        # so its values must cover the hull of what they all need.
        g = EventuallyFuture(P, TimeInterval(0, 1))
        h = AlwaysPast(Q, TimeInterval(0, 1))
        formulas = [
            And(AlwaysFuture(g, TimeInterval(0, 2)), EventuallyPast(g, TimeInterval(1, 1))),
            UntilFuture(g, And(g, EventuallyPast(g, TimeInterval(0, 2))), TimeInterval(1, 2)),
            And(UntilPast(h, g, TimeInterval(0, 0)), UntilPast(P, h, TimeInterval(1, 3))),
        ]
        rng = np.random.default_rng(29)
        for _ in range(100):
            trace = Trace(rng.normal(scale=3.0, size=(int(rng.integers(7, 10)), 1)))
            for f in formulas:
                reach = horizon(f)
                for t in range(reach.past_depth, len(trace.states) - reach.future_depth):
                    assert eval_robust(f, trace, t, PREDS) == rho_oracle(f, trace, t, PREDS)
                    assert eval_boolean(f, trace, t, PREDS) == beta_oracle(f, trace, t, PREDS)


class TestEngineCoverage:
    def test_slice_centers_and_complements_match_oracles(self):
        table = {
            "near": NormBall((0, 1), StateSlice((2, 3)), 1.5, "l2"),
            "box": NormBall((0, 1), StateSlice((3, 2)), 1.0, "linf"),
            "away": Complement(NormBall((1,), StateSlice((3,)), 0.7, "linf")),
            "below": Complement(Halfspace((1.0, -1.0, 0.0, 0.5), 0.2)),
        }
        rng = np.random.default_rng(30)
        for _ in range(300):
            f = random_formula(rng, table, depth=int(rng.integers(0, 4)))
            h = horizon(f)
            length = h.future_depth + h.past_depth + int(rng.integers(1, 4))
            t = int(rng.integers(h.past_depth, length - h.future_depth))
            members = tuple(random_trace(rng, length, 4) for _ in range(3))
            z = eval_robust_ensemble(f, Ensemble(members), t, table)
            for i, trace in enumerate(members):
                rho = rho_oracle(f, trace, t, table)
                assert eval_robust(f, trace, t, table) == rho
                assert z[i].tobytes() == np.float64(0.0 - eval_robust(f, trace, t, table)).tobytes()
                assert eval_boolean(f, trace, t, table) == beta_oracle(f, trace, t, table)

    def test_until_over_many_anchors_matches_oracles(self):
        # Windows of 0..9 steps reach the first four levels of the until's
        # table of left minima, with lo below, inside and above each level;
        # 31..33 and 200 steps reach further.  The bare until is read at one
        # anchor, without the table; the outer operators read it at six.  The
        # oracles' cost grows as hi squared, so wide windows get one trace,
        # and over 200 steps only the bare until is checked.
        # Integer states put many margins at exactly 0.0 or -0.0 (under the
        # complement); whichever zero wins a tie inside, a zero robustness
        # comes out as +0.0, the oracle's value plus 0.0.
        table = {"p": Halfspace((1.0,), 0.0), "q": Complement(Halfspace((1.0,), -1.0))}
        p, q = Predicate("p"), Predicate("q")
        rng = np.random.default_rng(31)
        for lo in (0, 1, 2, 3, 5):
            for hi in (0, 1, 2, 3, 4, 5, 8, 9, 31, 32, 33, 200):
                if hi < lo:
                    continue
                iv = TimeInterval(lo, hi)
                for until in (UntilFuture(And(p, Not(q)), q, iv), UntilPast(Not(p), And(q, Not(p)), iv)):
                    outer = (AlwaysFuture(until, TimeInterval(0, 5)), UntilFuture(q, until, TimeInterval(0, 5)))
                    outer = (until,) if hi > 100 else (until, *outer)
                    for _ in range(12 if hi < 10 else 1):
                        trace = Trace(rng.integers(-2, 3, size=(16 + hi, 1)).astype(float))
                        for f in outer:
                            t = horizon(f).past_depth
                            rho, robust = rho_oracle(f, trace, t, table), eval_robust(f, trace, t, table)
                            assert robust == rho
                            assert np.float64(robust).tobytes() == np.float64(rho + 0.0).tobytes()
                            assert not (robust == 0 and np.signbit(robust))
                            assert eval_boolean(f, trace, t, table) == beta_oracle(f, trace, t, table)

    def test_a_zero_robustness_is_positive_zero(self):
        # Integer states put many margins, and so many robustness values and
        # costs, at exactly 0.0 or -0.0; both entry points return +0.0.
        table = {"p": Halfspace((1.0,), 0.0), "q": Complement(Halfspace((1.0,), -1.0))}
        rng = np.random.default_rng(32)
        zeros = 0
        for _ in range(300):
            f = random_formula(rng, table, depth=int(rng.integers(1, 4)))
            h = horizon(f)
            t = h.past_depth + int(rng.integers(0, 3))
            members = tuple(Trace(rng.integers(-2, 3, size=(t + h.future_depth + 1, 1)).astype(float)) for _ in range(3))
            z = eval_robust_ensemble(f, Ensemble(members), t, table)
            robust = np.array([eval_robust(f, m, t, table) for m in members])
            assert (z == -robust).all()
            assert not np.signbit(z[z == 0]).any() and not np.signbit(robust[robust == 0]).any()
            zeros += int((z == 0).sum())
        assert zeros > 100

    def test_each_kernel_gets_one_operand_per_read_as_reach_states_it(self, monkeypatch):
        # Every kernel is wrapped by a spy: a node read at anchors a..b gets, for each
        # (operand, lo, hi) of reach(node), None if lo > hi (an until's left
        # operand under [0,0] or [0,1]) and else the (N, b + hi - a - lo + 1)
        # slice, whichever semantics and entry point evaluate it.  Trees and
        # formulas that share subformulas alternate: a shared operand's values
        # span the hull of its parents' reads, so a slice too wide shows.
        calls = []

        def spy(kernel):
            def wrapped(node, operands, a, b, env):
                calls.append((node, [None if x is None else x.shape for x in operands], a, b, env[0].shape[0]))
                return kernel(node, operands, a, b, env)

            return wrapped

        monkeypatch.setattr(semantics, "_KERNELS", {cls: spy(kernel) for cls, kernel in semantics._KERNELS.items()})
        rng = np.random.default_rng(33)
        unread = 0
        for i in range(300):
            if i % 2:
                f, trace, t, preds = random_admissible_case(rng)
            else:
                f, preds = random_shared_formula(rng, ["p", "q"], size=int(rng.integers(0, 10))), PREDS
                h = horizon(f)
                t = h.past_depth
                trace = random_trace(rng, t + h.future_depth + int(rng.integers(1, 4)), 1)
            members = Ensemble((trace, random_trace(rng, *trace.states.shape)))
            calls.clear()
            eval_robust(f, trace, t, preds)
            eval_boolean(f, trace, t, preds)
            eval_robust_ensemble(f, members, t, preds)
            assert calls and calls[-1][0] is f
            for node, shapes, a, b, n in calls:
                reads = reach(node)
                assert len(shapes) == len(reads), node
                for shape, (_, lo, hi) in zip(shapes, reads):
                    assert shape == (None if lo > hi else (n, b + hi - a - lo + 1)), (node, lo, hi)
                    unread += lo > hi
        assert unread > 0


class TestWindowKernel:
    WIDTHS = range(1, 71)  # every power of two up to 64, and 2^k - 1, 2^k + 1
    # n = 1 is the one-reduction path; n >= 2 walks the doubling table.

    def naive(self, values, count, n, pick):
        reduce = np.max if pick is np.maximum else np.min
        return np.array([[reduce(row[i : i + count]) for i in range(n)] for row in values])

    def test_float_windows_match_a_per_anchor_reduction(self):
        rng = np.random.default_rng(40)
        pool = np.array([-math.inf, math.inf, 0.0, -0.0, -1.5, 2.0, 3.25])
        for count in self.WIDTHS:
            for members in (1, 3):
                for n in (1, int(rng.integers(2, 9))):
                    extra = int(rng.integers(0, 3))  # columns past the last window are ignored
                    values = rng.choice(pool, size=(members, n + count - 1 + extra))
                    for pick in (np.maximum, np.minimum):
                        got = _window(values, count, n, pick)
                        assert got.shape == (members, n)
                        assert (got == self.naive(values, count, n, pick)).all(), (count, members, n, pick)

    def test_bool_windows_match_a_per_anchor_reduction(self):
        rng = np.random.default_rng(41)
        for count in self.WIDTHS:
            for members in (1, 3):
                for n in (1, int(rng.integers(2, 9))):
                    extra = int(rng.integers(0, 3))
                    values = rng.random((members, n + count - 1 + extra)) < rng.choice((0.05, 0.5, 0.95))
                    for pick in (np.maximum, np.minimum):
                        got = _window(values, count, n, pick)
                        assert got.dtype == bool and got.shape == (members, n)
                        assert (got == self.naive(values, count, n, pick)).all(), (count, members, n, pick)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33])
    def test_windows_that_touch_both_ends_of_the_trace(self, width):
        # Each formula reads every step of a trace of `width` steps, future
        # windows from t = 0 and past windows from t = width - 1; the nested
        # ones split the trace between an outer and an inner window.
        rng = np.random.default_rng(width)
        last, inner = width - 1, (width - 1) // 2
        outer = last - inner
        cases = [
            (AlwaysFuture(P, TimeInterval(0, last)), 0),
            (EventuallyFuture(P, TimeInterval(0, last)), 0),
            (AlwaysPast(P, TimeInterval(0, last)), last),
            (EventuallyPast(P, TimeInterval(0, last)), last),
            (EventuallyFuture(AlwaysFuture(P, TimeInterval(0, inner)), TimeInterval(0, outer)), 0),
            (AlwaysPast(EventuallyPast(P, TimeInterval(0, inner)), TimeInterval(0, outer)), last),
            (AlwaysFuture(EventuallyPast(P, TimeInterval(0, inner)), TimeInterval(0, outer)), inner),
            (EventuallyPast(AlwaysFuture(P, TimeInterval(0, inner)), TimeInterval(0, outer)), outer),
        ]
        for _ in range(5):
            trace = Trace(rng.integers(-3, 4, size=(width, 1)).astype(float))
            for f, t in cases:
                assert eval_robust(f, trace, t, PREDS) == rho_oracle(f, trace, t, PREDS), (f, t)
                assert eval_boolean(f, trace, t, PREDS) == beta_oracle(f, trace, t, PREDS), (f, t)

    def test_one_anchor_builds_no_doubling_table(self, monkeypatch):
        # A node read at one anchor reduces its window in one pass; a spy on
        # the doubling table sees it only under a node read at several.
        tables = []

        def levels(values, count, pick):
            tables.append(count)
            return original(values, count, pick)

        original = semantics._levels
        monkeypatch.setattr(semantics, "_levels", levels)
        trace = Trace(np.random.default_rng(42).normal(2.0, 3.0, size=(501, 1)))
        cases = [
            (AlwaysFuture(P, TimeInterval(0, 500)), 0),
            (UntilFuture(P, Q, TimeInterval(0, 200)), 0),
            (AlwaysPast(P, TimeInterval(0, 100)), 100),
        ]
        for f, t in cases:
            assert eval_robust(f, trace, t, PREDS) == rho_oracle(f, trace, t, PREDS), f
            assert eval_boolean(f, trace, t, PREDS) == beta_oracle(f, trace, t, PREDS), f
        assert tables == []
        eval_robust(EventuallyFuture(AlwaysFuture(P, TimeInterval(0, 5)), TimeInterval(0, 3)), trace, 0, PREDS)
        assert tables == [6]

    @pytest.mark.parametrize("kind", [UntilFuture, UntilPast])
    @pytest.mark.parametrize("dtype", [float, bool])
    def test_one_anchor_until_equals_each_column_of_the_table_path(self, kind, dtype):
        # The until kernel read at each anchor alone (running minimum of
        # left) gives the columns of one read over several anchors (doubling
        # table), at every width up to 70 and lo = 0..3.  Ties of 0.0 and
        # -0.0 may pick either zero inside; the root adds 0.0 to its value.
        rng = np.random.default_rng(43)
        pool = np.array([-math.inf, math.inf, 0.0, -0.0, -1.5, 2.0, 3.25])

        def operands(node, values, a, b):  # as _evaluate slices them, per reach(node)
            return [None if lo > hi else values[id(g)][1][:, a + lo : b + hi + 1] for g, lo, hi in reach(node)]

        for hi in range(0, 71):
            for lo in range(0, min(hi, 3) + 1):
                node = kind(P, Q, TimeInterval(lo, hi))
                n = int(rng.integers(2, 7))
                a = hi  # the past until looks hi steps back from its first anchor
                length = a + n + hi
                # Each operand's values from anchor 0, as the engine keeps them.
                if dtype is bool:
                    values = {id(P): (0, rng.random((2, length)) < 0.7), id(Q): (0, rng.random((2, length)) < 0.2)}
                else:
                    values = {id(P): (0, rng.choice(pool, size=(2, length))), id(Q): (0, rng.choice(pool, size=(2, length)))}

                many = semantics._until(node, operands(node, values, a, a + n - 1), a, a + n - 1, None)
                assert many.shape == (2, n) and many.dtype == dtype
                for j in range(n):
                    one = semantics._until(node, operands(node, values, a + j, a + j), a + j, a + j, None)
                    assert one.shape == (2, 1) and one.dtype == dtype
                    assert (one == many[:, j : j + 1]).all(), (lo, hi, j)


class TestSoundness:
    def test_sign_of_margin_decides_satisfaction(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 2000:
            f, trace, t, preds = random_admissible_case(rng)
            rho = eval_robust(f, trace, t, preds)
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            beta = eval_boolean(f, trace, t, preds)
            if rho > 0:
                assert beta is True
            else:
                assert beta is False


class TestSugarEquivalence:
    def test_eventually_equals_true_until(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            f, trace, t, preds = random_admissible_case(rng, max_depth=2, max_length=9)
            iv = TimeInterval(0, 2)
            if len(trace.states) - 1 - t < 2 + _future(f):
                continue
            lhs = EventuallyFuture(f, iv)
            rhs = UntilFuture(TRUE, f, iv)
            assert eval_robust(lhs, trace, t, preds) == eval_robust(rhs, trace, t, preds)

    def test_always_equals_negated_eventually(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            f, trace, t, preds = random_admissible_case(rng, max_depth=2, max_length=9)
            iv = TimeInterval(0, 2)
            if len(trace.states) - 1 - t < 2 + _future(f):
                continue
            lhs = AlwaysFuture(f, iv)
            rhs = Not(EventuallyFuture(Not(f), iv))
            assert eval_robust(lhs, trace, t, preds) == eval_robust(rhs, trace, t, preds)


def _future(f):
    from stlrisk.formula import horizon

    return horizon(f).future_depth


class TestMonotonePredicateScaling:
    def test_inflating_radii_never_decreases_margin(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            base = {}
            for i in range(3):
                k = int(rng.integers(1, dim + 1))
                pos = tuple(int(v) for v in rng.choice(dim, size=k, replace=False))
                center = tuple(float(v) for v in rng.normal(size=k))
                norm = "l2" if rng.random() < 0.5 else "linf"
                base[f"p{i}"] = NormBall(pos, center, float(rng.uniform(0.2, 2.0)), norm)
            f = random_formula(rng, base, depth=3, allow_not=False)
            from stlrisk.formula import horizon

            h = horizon(f)
            length = int(h.future_depth + h.past_depth) + int(rng.integers(1, 4))
            trace = Trace(rng.normal(scale=2.0, size=(length, dim)))
            t = int(h.past_depth)
            eps = float(rng.uniform(0.01, 0.5))
            inflated = {
                name: NormBall(p.pos, p.center, p.radius + eps, p.norm)
                for name, p in base.items()
            }
            assert eval_robust(f, trace, t, inflated) >= eval_robust(f, trace, t, base)


class TestEnsembleEvaluation:
    def test_sign_flip_single(self):
        tr = Trace(np.array([[0.25]]))
        e = Ensemble((tr,))
        z = eval_robust_ensemble(P, e, 0, PREDS)
        assert z.tolist() == [-0.25]

    def test_sign_flip_many_in_order(self):
        traces = tuple(Trace(np.array([[v]])) for v in (1.0, -2.0, 0.0))
        z = eval_robust_ensemble(P, Ensemble(traces), 0, PREDS)
        assert z.tolist() == [-1.0, 2.0, 0.0]
        assert not np.signbit(z[2])

    def test_whole_ensemble_fails_on_horizon(self):
        traces = tuple(Trace(np.array([[v]])) for v in (1.0, 2.0))
        f = AlwaysFuture(P, TimeInterval(0, 1))
        with pytest.raises(InsufficientHorizonError):
            eval_robust_ensemble(f, Ensemble(traces), 0, PREDS)

    def test_reads_the_ensemble_states(self):
        traces = tuple(Trace(np.array([[v], [v + 1.0]])) for v in (1.0, -2.0, 0.5))
        e = Ensemble(traces)
        f = AlwaysFuture(P, TimeInterval(0, 1))
        from_array = Ensemble.from_states(e.states)
        assert eval_robust_ensemble(f, from_array, 0, PREDS).tolist() == [-1.0, 2.0, -0.5]
        assert eval_robust_ensemble(f, e, 0, PREDS).tolist() == [-1.0, 2.0, -0.5]

    def test_case_study_ensemble_finite(self):
        from stlrisk.scenario import CaseStudyConfig, build_case_study_formula, sample_ensemble

        config = CaseStudyConfig(seed=42, n=100)
        f, preds = build_case_study_formula()
        e = sample_ensemble(config, 0)
        z = eval_robust_ensemble(f, e, 0, preds)
        assert z.shape == (100,)
        assert np.isfinite(z).all()
