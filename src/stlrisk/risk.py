"""Sample-based risk measures over robustness samples.

Each entry of ``MEASURES`` is an estimator: it maps a vector Z of finite
cost samples (negated robustness values from an ensemble) and a
``RiskParams``, the one checker of their parameters, to ``RiskResult``
fields.  The value-at-risk point is the empirical quantile inf{a : F(a) >=
beta} of the empirical CDF F.  ``var_bounds`` widens the quantile into a
distribution-free confidence triple by shifting the empirical CDF up and
down by the Dvoretzky-Kiefer-Wolfowitz band half-width

    epsilon = sqrt(ln(2/delta) / (2 N)),

so that, when the sample CDF is continuous, the true value-at-risk lies
between the lower and upper bound with probability at least 1 - delta.  The
shifted infimum sets may be empty (upper) or the whole extended line
(lower); those degenerate branches return +inf and -inf respectively.

Because the empirical CDF only jumps at sample points, each infimum is an
order statistic, keeping everything exact and O(N log N).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ._record import Record
from .errors import (
    BoundsError,
    InfiniteRobustnessError,
    ParamError,
)
from .formula import Formula
from .semantics import eval_robust_ensemble
from .trace import Ensemble, frozen_array, shortened

__all__ = [
    "RobustnessSamples",
    "RiskParams",
    "VarTriple",
    "RiskResult",
    "dkw_epsilon",
    "var_bounds",
    "risk_of_formula",
    "MEASURES",
]

class RobustnessSamples(Record, eq=False):
    """A vector of N >= 1 finite cost samples, held as a read-only
    ``frozen_array`` copy of what it was built from."""

    values: np.ndarray

    def __post_init__(self):
        vars(self)["values"] = frozen_array(self.values, 1, "robustness samples")

    @property
    def n(self) -> int:
        return int(self.values.size)

    def sorted(self) -> np.ndarray:
        return np.sort(self.values)


class RiskParams(Record):
    """Estimator parameters: risk level, confidence budget, extras, each
    checked here once for every estimator in ``MEASURES``."""

    beta: float = 0.9
    delta: float = 0.05
    lam: float = 0.0
    bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        _check_level(self.beta)
        _check_level(self.delta, "delta")
        if not 0.0 <= self.lam < math.inf:
            raise ParamError(f"lambda must be finite and >= 0, got {self.lam}")
        bounds = self.bounds
        if bounds is not None and (len(bounds) != 2 or not -math.inf < bounds[0] < bounds[1] < math.inf):
            raise ParamError(f"bounds must be two finite numbers a < b, got {shortened(repr(list(bounds)))}")


class VarTriple(Record):
    """Lower bound, point estimate and upper bound for the value-at-risk."""

    lower: float
    point: float
    upper: float
    epsilon: float

    def __post_init__(self):
        if not self.lower <= self.point <= self.upper:
            raise ValueError(f"triple out of order: {self.lower}, {self.point}, {self.upper}")


def _check_level(beta: float, name: str = "beta") -> None:
    if not 0.0 < beta < 1.0:
        raise ParamError(f"{name} must lie in (0, 1), got {beta}")


def dkw_epsilon(n: int, delta: float) -> float:
    """Half-width of the uniform empirical-CDF confidence band."""
    _check_level(delta, "delta")
    return math.sqrt(_log_two_over(delta) / (2.0 * n))


def _log_two_over(delta: float) -> float:
    """ln(2 / delta), finite for every delta in (0, 1): 2 / delta overflows
    below about 1.1e-308, and only there the log is taken as a difference,
    which elsewhere can round one ulp away from the log of the quotient."""
    ratio = 2.0 / delta
    return math.log(ratio) if math.isfinite(ratio) else math.log(2.0) - math.log(delta)


def _quantile_index(n: int, q: float) -> int:
    """Smallest 1-based k with k/n >= q, for 0 < q <= 1.

    The ceil is corrected by direct comparison so that float rounding in
    n*q can never move the index off the infimum-set definition.
    """
    k = min(max(math.ceil(n * q), 1), n)
    while k > 1 and (k - 1) / n >= q:
        k -= 1
    while k < n and k / n < q:
        k += 1
    return k


def _quantile(srt: np.ndarray, level: float) -> float:
    """Smallest of the sorted samples whose empirical CDF reaches level:
    -inf for level <= 0 (every extended real qualifies), +inf for
    level > 1 (no sample does)."""
    if level <= 0.0:
        return -math.inf
    if level > 1.0:
        return math.inf
    return float(srt[_quantile_index(len(srt), level) - 1])


def var_bounds(z: RobustnessSamples, beta: float, delta: float) -> VarTriple:
    """Point quantile with distribution-free confidence bounds.

    Upper bound: smallest sample where the band-lowered CDF reaches beta,
    +inf when beta + epsilon exceeds 1 (no sample can qualify).  Lower
    bound: smallest extended-real where the band-raised CDF reaches beta,
    -inf when beta <= epsilon (every point qualifies).
    """
    _check_level(beta)
    eps = dkw_epsilon(z.n, delta)
    srt = z.sorted()
    return VarTriple(_quantile(srt, beta - eps), _quantile(srt, beta), _quantile(srt, beta + eps), eps)


def format_number(v: float) -> str:
    """Text form of every number the tools print: 12 significant digits,
    with unbounded values as the tokens "inf" and "-inf"."""
    return f"{v:.12g}"


def json_number(v: Optional[float]):
    """JSON form of a number: itself, or the "inf"/"-inf" token when
    unbounded, since JSON has no infinities."""
    if v in (math.inf, -math.inf):
        return format_number(v)
    return v


class RiskResult(Record):
    """A risk value with the parameters that produced it, its fields in the
    key order of ``result.json`` and of ``risk``'s output line.

    The fields other than ``measure``, ``value`` and ``n`` are None unless
    the measure's estimator, its entry in ``MEASURES``, fills them from the
    samples and the ``RiskParams`` that checked them: "var" fills all five,
    "cvar" ``beta``, and "expected" with a support interval
    ``lower``/``upper``/``delta``/``epsilon`` (the Hoeffding interval).
    """

    measure: str
    value: float
    lower: Optional[float] = None
    upper: Optional[float] = None
    beta: Optional[float] = None
    delta: Optional[float] = None
    n: int
    epsilon: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {name: json_number(value) for name, value in zip(self._fields, self._values())}


def risk_of_formula(
    ensemble: Ensemble,
    f: Formula,
    predicates,
    t: int,
    params: RiskParams,
    measure: str,
) -> RiskResult:
    """Estimate the risk of the ensemble's process violating the formula.

    Evaluates the negated robustness of every member at time t and applies
    the chosen estimator to the resulting cost sample.  Infinite robustness
    values (e.g. from the plain "true" formula) cannot be ranked against
    finite costs and abort with InfiniteRobustnessError, and so does an
    estimate that overflows to +/-inf or NaN from finite costs.
    """
    raw = eval_robust_ensemble(f, ensemble, t, predicates)
    if not np.isfinite(raw).all():
        raise InfiniteRobustnessError(
            "ensemble produced non-finite robustness values; "
            "sample-based estimators need finite costs"
        )
    result = _estimate(RobustnessSamples(raw), params, measure)
    if not math.isfinite(result.value):
        raise InfiniteRobustnessError(
            f"the {measure} estimate of these finite costs overflows float arithmetic (got {result.value})"
        )
    return result


@np.errstate(over="ignore", invalid="ignore")  # risk_of_formula refuses what overflows
def _estimate(z: RobustnessSamples, params: RiskParams, measure: str) -> RiskResult:
    if measure not in MEASURES:
        raise ParamError(f"unknown measure {shortened(repr(measure))}; expected one of {', '.join(MEASURES)}")
    return RiskResult(measure=measure, n=z.n, **MEASURES[measure](z, params))


def _var(z: RobustnessSamples, params: RiskParams) -> dict:
    triple = var_bounds(z, params.beta, params.delta)
    return dict(value=triple.point, lower=triple.lower, upper=triple.upper,
                beta=params.beta, delta=params.delta, epsilon=triple.epsilon)


def _cvar(z: RobustnessSamples, params: RiskParams) -> dict:
    """Plug-in conditional value-at-risk.

    Minimizes g(a) = a + mean(max(Z - a, 0)) / (1 - beta); the minimum of
    this piecewise-linear convex function is attained at a sample point, so
    g is evaluated at every sample value.
    """
    srt = z.sorted()
    n = z.n
    # Relative to the median, so that a large common offset does not cancel
    # in tail - above * srt and cost precision.
    pivot = srt[n // 2]
    srt = srt - pivot
    # Sum of (s_j - s_i) over j > i via suffix sums.
    tail = np.concatenate((np.cumsum(srt[::-1])[::-1][1:], [0.0]))
    above = n - 1 - np.arange(n)
    g = srt + (tail - above * srt) / ((1.0 - params.beta) * n)
    return dict(value=float(g.min() + pivot), beta=params.beta)


def _expected(z: RobustnessSamples, params: RiskParams) -> dict:
    """Sample mean, summed in sorted order so reordering samples can never
    change the result by even an ulp.

    With ``bounds`` [a, b], also the two-sided mean confidence interval for
    samples supported there: half-width (b - a) * sqrt(ln(2/delta) / (2 N)),
    that is (b - a) times ``dkw_epsilon``, valid at level 1 - delta by
    Hoeffding's inequality.
    """
    mean = float(z.sorted().mean())
    if params.bounds is None:
        return dict(value=mean)
    a, b = params.bounds
    eps = dkw_epsilon(z.n, params.delta)
    if (z.values < a).any() or (z.values > b).any():
        raise BoundsError(f"samples fall outside the declared support [{a}, {b}]")
    half = (b - a) * eps
    return dict(value=mean, lower=mean - half, upper=mean + half, delta=params.delta, epsilon=eps)


def _meanvar(z: RobustnessSamples, params: RiskParams) -> dict:
    """Mean plus lambda times the unbiased sample variance (0 when N = 1).

    Not monotone: raising a low sample can raise the variance penalty by
    more than the mean gain, so this measure is excluded from the
    monotonicity guarantees the other estimators carry.
    """
    srt = z.sorted()
    value = srt.mean() if z.n == 1 else srt.mean() + params.lam * srt.var(ddof=1)
    return dict(value=float(value))


# Each measure's estimator: (samples, params) -> the RiskResult fields it
# fills, ``value`` and whichever of lower/upper/beta/delta/epsilon apply.
MEASURES = {
    "var": _var,
    "cvar": _cvar,
    "expected": _expected,
    "meanvar": _meanvar,
    "worst": lambda z, params: dict(value=float(z.values.max())),  # the largest observed cost
}
