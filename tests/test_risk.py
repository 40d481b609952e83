import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlrisk.errors import (
    BoundsError,
    InfiniteRobustnessError,
    MonotonicityError,
    ParamError,
)
from stlrisk.formula import TRUE, Predicate
from stlrisk.predicates import Halfspace
from stlrisk.risk import (
    RiskParams,
    RobustnessSamples,
    apply_cost,
    cvar_point,
    dkw_epsilon,
    empirical_cdf,
    expected,
    expected_hoeffding,
    mean_variance,
    risk_of_formula,
    var_bounds,
    var_point,
    worst_case,
)
from stlrisk.trace import Ensemble, Trace

from .helpers import cvar_exact, cvar_scan, var_bounds_scan, var_scan


def S(*values):
    return RobustnessSamples(np.array(values, dtype=float))


samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
).map(lambda xs: RobustnessSamples(np.array(xs)))


class TestEmpiricalCdf:
    def test_single_sample_inclusive(self):
        z = S(5.0)
        assert empirical_cdf(z, 4.9) == 0.0
        assert empirical_cdf(z, 5.0) == 1.0

    def test_direct_count(self):
        assert empirical_cdf(S(1, 2, 3), 2.0) == pytest.approx(2 / 3)

    def test_ties_counted(self):
        assert empirical_cdf(S(1, 1, 1), 1.0) == 1.0


class TestVarPoint:
    def test_integer_ladder(self):
        z = S(*range(1, 101))
        assert var_point(z, 0.9) == 90.0

    def test_single_sample(self):
        assert var_point(S(7.0), 0.1) == 7.0
        assert var_point(S(7.0), 0.99) == 7.0

    def test_small_unsorted(self):
        assert var_point(S(3, 1, 2), 0.5) == 2.0

    def test_out_of_range_level(self):
        with pytest.raises(ParamError):
            var_point(S(1.0), 1.0)
        with pytest.raises(ParamError):
            var_point(S(1.0), 0.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            z = rng.normal(size=n) * 10
            if rng.random() < 0.3:
                z = np.round(z)  # force ties
            beta = float(rng.uniform(0.01, 0.99))
            assert var_point(RobustnessSamples(z), beta) == var_scan(z, beta)


class TestVarBounds:
    def test_epsilon_one_tenth_ladder(self):
        # delta chosen so that the band half-width is exactly 0.1
        z = S(*range(1, 101))
        delta = 2 * math.exp(-2 * 100 * 0.01)
        triple = var_bounds(z, 0.9, delta)
        assert triple.epsilon == pytest.approx(0.1, abs=1e-12)
        assert (triple.lower, triple.point, triple.upper) == (80.0, 90.0, 100.0)

    def test_upper_degenerates_to_infinity(self):
        z = S(*range(1, 101))
        delta = 2 * math.exp(-2 * 100 * 0.01)
        triple = var_bounds(z, 0.95, delta)
        assert triple.upper == math.inf

    def test_lower_degenerates_to_minus_infinity(self):
        z = S(*range(1, 11))
        triple = var_bounds(z, 0.05, 0.5)  # epsilon ~ 0.263 > beta
        assert triple.lower == -math.inf

    def test_constant_sample(self):
        # small N: the band swallows both tails
        degenerate = var_bounds(S(5, 5, 5, 5), 0.5, 0.1)
        assert degenerate.point == 5.0
        assert degenerate.upper == math.inf and degenerate.lower == -math.inf
        # larger N: both shifted indices land in range, so all three agree
        triple = var_bounds(S(*[5.0] * 100), 0.5, 0.1)
        assert (triple.lower, triple.point, triple.upper) == (5.0, 5.0, 5.0)

    def test_ordering_always_holds(self):
        rng = np.random.default_rng(32)
        for _ in range(2000):
            n = int(rng.integers(1, 50))
            z = RobustnessSamples(rng.normal(size=n))
            triple = var_bounds(z, float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
            assert triple.lower <= triple.point <= triple.upper

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            z = rng.normal(size=n) * 5
            if rng.random() < 0.3:
                z = np.round(z)
            beta = float(rng.uniform(0.01, 0.99))
            delta = float(rng.uniform(0.01, 0.99))
            triple = var_bounds(RobustnessSamples(z), beta, delta)
            assert (triple.lower, triple.point, triple.upper) == var_bounds_scan(z, beta, delta)


class TestCvar:
    def test_quarter_tail(self):
        assert cvar_point(S(1, 2, 3, 4), 0.75) == pytest.approx(4.0, abs=1e-12)

    def test_constant(self):
        assert cvar_point(S(3, 3, 3), 0.4) == pytest.approx(3.0, abs=1e-12)

    def test_two_point(self):
        assert cvar_point(S(0, 10), 0.5) == pytest.approx(10.0, abs=1e-12)

    def test_matches_objective_scan(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            z = rng.normal(size=n) * 4
            beta = float(rng.uniform(0.05, 0.95))
            assert cvar_point(RobustnessSamples(z), beta) == pytest.approx(
                cvar_scan(z, beta), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    def test_exact_under_a_common_offset(self, offset):
        # Suffix sums of the raw values cancel about 1e-6 away at offset 1e9
        # (some 16 ulp); taken about the median they stay within one ulp.
        z = np.random.default_rng(36).normal(size=2000) + offset
        for beta in (0.5, 0.9, 0.99):
            exact = cvar_exact(z, beta)
            got = cvar_point(RobustnessSamples(z), beta)
            assert abs(Fraction(got) - exact) <= math.ulp(float(exact)) + 1e-12

    def test_at_least_var(self):
        rng = np.random.default_rng(35)
        for _ in range(300):
            z = RobustnessSamples(rng.normal(size=int(rng.integers(1, 30))))
            beta = float(rng.uniform(0.05, 0.95))
            assert cvar_point(z, beta) >= var_point(z, beta) - 1e-12


class TestDkwEpsilon:
    def test_bit_equal_to_the_log_of_the_quotient(self):
        rng = np.random.default_rng(44)
        deltas = np.exp(-np.abs(rng.normal(0.0, 40.0, size=10_000)))
        sizes = rng.integers(1, 10_000, size=deltas.size)
        for n, delta in zip(sizes.tolist(), deltas.tolist()):
            assert 0.0 < delta < 1.0
            assert dkw_epsilon(n, delta) == math.sqrt(math.log(2.0 / delta) / (2.0 * n))

    @pytest.mark.parametrize("delta", [1e-308, 1.1e-308, 1e-320, 5e-324])
    def test_finite_where_two_over_delta_overflows(self, delta):
        want = math.sqrt((math.log(2.0) - math.log(delta)) / 20.0)
        assert math.isfinite(dkw_epsilon(10, delta))
        assert dkw_epsilon(10, delta) == pytest.approx(want, rel=1e-15)
        assert dkw_epsilon(10, delta) >= dkw_epsilon(10, 1e-300)
        lo, hi = expected_hoeffding(S(0, 1), delta, (0.0, 1.0))
        assert math.isfinite(lo) and math.isfinite(hi)


class TestExpected:
    def test_mean(self):
        assert expected(S(1, 2, 3)) == 2.0

    def test_hoeffding_half_width(self):
        delta = 2 * math.exp(-1.0)
        lo, hi = expected_hoeffding(S(0, 1), delta, (0.0, 1.0))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_bounds_violation(self):
        with pytest.raises(BoundsError):
            expected_hoeffding(S(2, -1), 0.1, (0.0, 1.0))

    def test_invalid_bounds(self):
        with pytest.raises(ParamError):
            expected_hoeffding(S(0.5), 0.1, (1.0, 1.0))


class TestMeanVarianceWorst:
    def test_mean_variance_hand_case(self):
        assert mean_variance(S(1, 3), 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_single_sample_has_zero_variance(self):
        assert mean_variance(S(4), 2.5) == 4.0

    def test_worst_case(self):
        assert worst_case(S(-1, 5, 2)) == 5.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParamError):
            mean_variance(S(1, 2), -0.5)

    def test_mean_variance_monotonicity_counterexample(self):
        # Raising the low sample of (0, 1) to 1 removes all variance, so for
        # lam > 1 the measure drops even though every sample went up:
        # R(0,1) = 0.5 + lam * 0.5 > 1 = R(1,1)  iff  lam > 1.
        low, high = S(0, 1), S(1, 1)
        assert mean_variance(low, 2.0) > mean_variance(high, 2.0)
        assert mean_variance(low, 0.5) <= mean_variance(high, 0.5)
        lam_threshold = 1.0
        eps = 1e-9
        assert mean_variance(low, lam_threshold + eps) > mean_variance(high, lam_threshold + eps)
        assert mean_variance(low, lam_threshold - eps) < mean_variance(high, lam_threshold - eps)


class TestApplyCost:
    def test_identity(self):
        z = S(3, 1, 2)
        assert apply_cost(z, lambda v: v).values.tolist() == [3.0, 1.0, 2.0]

    def test_translation_shifts_quantile(self):
        z = apply_cost(S(1, 2, 3), lambda v: v + 10)
        assert var_point(z, 0.5) == 12.0

    def test_decreasing_cost_rejected(self):
        with pytest.raises(MonotonicityError):
            apply_cost(S(1, 2), lambda v: -v)

    def test_strictly_increasing_commutes_with_quantile(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            z = RobustnessSamples(rng.normal(size=int(rng.integers(1, 25))))
            beta = float(rng.uniform(0.05, 0.95))
            cost = lambda v: math.atan(v) * 2.0 + 0.1 * v
            assert var_point(apply_cost(z, cost), beta) == cost(var_point(z, beta))


class TestCoherenceAxioms:
    @given(samples_strategy, st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, z, beta):
        rng = np.random.default_rng(z.n)
        shuffled = RobustnessSamples(rng.permutation(z.values))
        assert var_point(z, beta) == var_point(shuffled, beta)
        assert cvar_point(z, beta) == cvar_point(shuffled, beta)
        assert expected(z) == expected(shuffled)
        assert worst_case(z) == worst_case(shuffled)

    def test_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            n = int(rng.integers(1, 30))
            z = rng.normal(size=n)
            bigger = z + rng.uniform(0.0, 2.0, size=n)
            a, b = RobustnessSamples(z), RobustnessSamples(bigger)
            beta = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.05, 0.95))
            assert var_point(a, beta) <= var_point(b, beta)
            assert cvar_point(a, beta) <= cvar_point(b, beta) + 1e-12
            assert expected(a) <= expected(b) + 1e-12
            assert worst_case(a) <= worst_case(b)
            ta, tb = var_bounds(a, beta, delta), var_bounds(b, beta, delta)
            assert ta.lower <= tb.lower and ta.upper <= tb.upper

    def test_translation_and_homogeneity(self):
        rng = np.random.default_rng(38)
        for _ in range(400):
            n = int(rng.integers(1, 30))
            z = RobustnessSamples(rng.normal(size=n) * 3)
            beta = float(rng.uniform(0.05, 0.95))
            c = float(rng.normal() * 5)
            scale = float(rng.uniform(0.0, 4.0))
            shifted = RobustnessSamples(z.values + c)
            scaled = RobustnessSamples(z.values * scale)
            for est in (
                lambda s: var_point(s, beta),
                lambda s: cvar_point(s, beta),
                expected,
                worst_case,
            ):
                assert est(shifted) == pytest.approx(est(z) + c, abs=1e-12)
                assert est(scaled) == pytest.approx(scale * est(z), abs=1e-12)


class TestDkwCoverageSmall:
    def test_uniform_coverage(self):
        # true quantile of Uniform(0,1) at level beta is beta itself
        rng = np.random.default_rng(39)
        beta, delta, trials, n = 0.9, 0.05, 100, 200
        covered = 0
        for _ in range(trials):
            z = RobustnessSamples(rng.uniform(size=n))
            triple = var_bounds(z, beta, delta)
            covered += triple.lower <= beta <= triple.upper
        assert covered / trials >= 0.93


class TestSurrogateOrdering:
    def test_clipped_margin_never_riskier(self):
        # For a single predicate the distance to the violating set is the
        # positive part of the margin, so clipping can only lower the cost.
        rng = np.random.default_rng(40)
        for _ in range(200):
            rho = rng.normal(size=int(rng.integers(1, 40))) * 2
            z_approx = RobustnessSamples(-rho)
            z_exact = RobustnessSamples(-np.maximum(rho, 0.0))
            beta = float(rng.uniform(0.05, 0.95))
            assert var_point(z_exact, beta) <= var_point(z_approx, beta)
            assert cvar_point(z_exact, beta) <= cvar_point(z_approx, beta) + 1e-12
            assert expected(z_exact) <= expected(z_approx) + 1e-12
            assert worst_case(z_exact) <= worst_case(z_approx)


PREDS = {"p": Halfspace((1.0,), 0.0)}


class TestRiskOfFormula:
    def test_truth_has_infinite_margin(self):
        e = Ensemble((Trace(np.array([[1.0]])),))
        with pytest.raises(InfiniteRobustnessError):
            risk_of_formula(e, TRUE, PREDS, 0, RiskParams(), "expected")

    def test_single_trace_expected(self):
        e = Ensemble((Trace(np.array([[0.25]])),))
        result = risk_of_formula(e, Predicate("p"), PREDS, 0, RiskParams(), "expected")
        assert result.value == -0.25

    def test_var_triple_structure(self):
        rng = np.random.default_rng(41)
        traces = tuple(Trace(np.array([[v]])) for v in rng.normal(size=100))
        result = risk_of_formula(
            Ensemble(traces), Predicate("p"), PREDS, 0, RiskParams(beta=0.9, delta=0.05), "var"
        )
        assert result.lower <= result.value <= result.upper
        assert result.epsilon == pytest.approx(dkw_epsilon(100, 0.05))

    def test_unknown_measure(self):
        e = Ensemble((Trace(np.array([[1.0]])),))
        with pytest.raises(ParamError):
            risk_of_formula(e, Predicate("p"), PREDS, 0, RiskParams(), "median")

    def test_json_serialization_tokens(self):
        z = RobustnessSamples(np.arange(1.0, 11.0))
        e = Ensemble(tuple(Trace(np.array([[v]])) for v in z.values))
        result = risk_of_formula(
            e, Predicate("p"), PREDS, 0, RiskParams(beta=0.95, delta=0.5), "var"
        )
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert payload["measure"] == "var"
        assert payload["n"] == 10
        assert payload["lower"] == "-inf" or isinstance(payload["lower"], float)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            RiskParams(beta=1.5)
        with pytest.raises(ParamError):
            RiskParams(delta=0.0)
        with pytest.raises(ParamError):
            RiskParams(lam=-1.0)
        with pytest.raises(ParamError):
            RiskParams(bounds=(2.0, 1.0))


class TestRobustnessSamplesInvariants:
    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            RobustnessSamples(np.array([1.0, math.inf]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RobustnessSamples(np.array([]))
