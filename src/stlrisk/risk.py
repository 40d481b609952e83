"""Sample-based risk measures over robustness samples.

Estimators operate on a vector Z of finite cost samples (negated robustness
values from an ensemble).  ``var_point`` is the empirical quantile
inf{a : F(a) >= beta} of the empirical CDF F.  ``var_bounds`` widens the
quantile into a distribution-free confidence triple by shifting the
empirical CDF up and down by the Dvoretzky-Kiefer-Wolfowitz band half-width

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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BoundsError,
    InfiniteRobustnessError,
    MonotonicityError,
    ParamError,
)
from .formula import Formula
from .semantics import eval_robust_ensemble
from .trace import Ensemble

__all__ = [
    "RobustnessSamples",
    "RiskParams",
    "VarTriple",
    "RiskResult",
    "dkw_epsilon",
    "empirical_cdf",
    "var_point",
    "var_bounds",
    "cvar_point",
    "expected",
    "expected_hoeffding",
    "mean_variance",
    "worst_case",
    "apply_cost",
    "risk_of_formula",
    "MEASURES",
]

MEASURES = ("var", "cvar", "expected", "meanvar", "worst")


@dataclass(frozen=True, eq=False)
class RobustnessSamples:
    """A vector of N finite cost samples."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"samples must form a non-empty vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must all be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def sorted(self) -> np.ndarray:
        return np.sort(self.values)


@dataclass(frozen=True)
class RiskParams:
    """Estimator parameters: risk level, confidence budget, extras."""

    beta: float = 0.9
    delta: float = 0.05
    lam: float = 0.0
    bounds: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        _check_level(self.beta)
        _check_level(self.delta, "delta")
        if not self.lam >= 0.0:
            raise ParamError(f"lambda must be >= 0, got {self.lam}")
        if self.bounds is not None:
            a, b = self.bounds
            if not a < b:
                raise ParamError(f"bounds must satisfy a < b, got [{a}, {b}]")


@dataclass(frozen=True)
class VarTriple:
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


def empirical_cdf(z: RobustnessSamples, alpha: float) -> float:
    """Fraction of samples <= alpha (right-continuous step function)."""
    return float(np.count_nonzero(z.values <= alpha)) / z.n


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


def var_point(z: RobustnessSamples, beta: float) -> float:
    """Empirical value-at-risk: the smallest sample whose CDF reaches beta."""
    _check_level(beta)
    return float(z.sorted()[_quantile_index(z.n, beta) - 1])


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
    point = float(srt[_quantile_index(z.n, beta) - 1])
    hi_level = beta + eps
    if hi_level > 1.0:
        upper = math.inf
    else:
        upper = float(srt[_quantile_index(z.n, hi_level) - 1])
    lo_level = beta - eps
    if lo_level <= 0.0:
        lower = -math.inf
    else:
        lower = float(srt[_quantile_index(z.n, lo_level) - 1])
    return VarTriple(lower, point, upper, eps)


def cvar_point(z: RobustnessSamples, beta: float) -> float:
    """Plug-in conditional value-at-risk.

    Minimizes g(a) = a + mean(max(Z - a, 0)) / (1 - beta); the minimum of
    this piecewise-linear convex function is attained at a sample point, so
    g is evaluated at every sample value.
    """
    _check_level(beta)
    srt = z.sorted()
    n = z.n
    # Relative to the median, so that a large common offset does not cancel
    # in tail - above * srt and cost precision.
    pivot = srt[n // 2]
    srt = srt - pivot
    # Sum of (s_j - s_i) over j > i via suffix sums.
    tail = np.concatenate((np.cumsum(srt[::-1])[::-1][1:], [0.0]))
    above = n - 1 - np.arange(n)
    g = srt + (tail - above * srt) / ((1.0 - beta) * n)
    return float(g.min() + pivot)


def expected(z: RobustnessSamples) -> float:
    """Sample mean, summed in sorted order so reordering samples can never
    change the result by even an ulp."""
    return float(z.sorted().mean())


def expected_hoeffding(
    z: RobustnessSamples, delta: float, bounds: Tuple[float, float]
) -> Tuple[float, float]:
    """Two-sided mean confidence interval for samples supported on [a, b].

    Half-width (b - a) * sqrt(ln(2/delta) / (2 N)), valid at level
    1 - delta by Hoeffding's inequality.
    """
    a, b = bounds
    if not a < b:
        raise ParamError(f"bounds must satisfy a < b, got [{a}, {b}]")
    _check_level(delta, "delta")
    if bool((z.values < a).any() or (z.values > b).any()):
        raise BoundsError(f"samples fall outside the declared support [{a}, {b}]")
    half = (b - a) * math.sqrt(_log_two_over(delta) / (2.0 * z.n))
    mean = expected(z)
    return (mean - half, mean + half)


def mean_variance(z: RobustnessSamples, lam: float) -> float:
    """Mean plus lam times the unbiased sample variance (0 when N = 1).

    Not monotone: raising a low sample can raise the variance penalty by
    more than the mean gain, so this measure is excluded from the
    monotonicity guarantees the other estimators carry.
    """
    if not lam >= 0.0:
        raise ParamError(f"lambda must be >= 0, got {lam}")
    if z.n == 1:
        return expected(z)
    srt = z.sorted()
    return float(srt.mean() + lam * srt.var(ddof=1))


def worst_case(z: RobustnessSamples) -> float:
    """Largest observed cost."""
    return float(z.values.max())


def apply_cost(z: RobustnessSamples, cost: Callable[[float], float]) -> RobustnessSamples:
    """Transform each sample by a non-decreasing cost function.

    Monotonicity is spot-checked on the sample values themselves; for a
    strictly increasing cost the empirical quantile commutes with the
    transform.
    """
    transformed = [float(cost(float(v))) for v in z.values]
    by_input = sorted(zip(z.values.tolist(), transformed))
    for (_, lo), (_, hi) in zip(by_input, by_input[1:]):
        if lo > hi:
            raise MonotonicityError("cost function decreases on the sample values")
    return RobustnessSamples(np.asarray(transformed))


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


@dataclass(frozen=True)
class RiskResult:
    """A risk value with the parameters that produced it.

    ``lower``/``upper`` and ``epsilon`` are populated for the measures that
    carry bounds ("var" always, "expected" when a support interval enables
    the Hoeffding interval) and are None otherwise.
    """

    measure: str
    value: float
    n: int
    lower: Optional[float] = None
    upper: Optional[float] = None
    beta: Optional[float] = None
    delta: Optional[float] = None
    epsilon: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "value": json_number(self.value),
            "lower": json_number(self.lower),
            "upper": json_number(self.upper),
            "beta": self.beta,
            "delta": self.delta,
            "n": self.n,
            "epsilon": self.epsilon,
        }


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
    finite costs and abort with InfiniteRobustnessError.
    """
    raw = eval_robust_ensemble(f, ensemble, t, predicates)
    if not np.isfinite(raw).all():
        raise InfiniteRobustnessError(
            "ensemble produced non-finite robustness values; "
            "sample-based estimators need finite costs"
        )
    z = RobustnessSamples(raw)
    if measure == "var":
        triple = var_bounds(z, params.beta, params.delta)
        return RiskResult(
            measure="var",
            value=triple.point,
            n=z.n,
            lower=triple.lower,
            upper=triple.upper,
            beta=params.beta,
            delta=params.delta,
            epsilon=triple.epsilon,
        )
    if measure == "cvar":
        return RiskResult(measure="cvar", value=cvar_point(z, params.beta), n=z.n, beta=params.beta)
    if measure == "expected":
        value = expected(z)
        if params.bounds is not None:
            lo, hi = expected_hoeffding(z, params.delta, params.bounds)
            return RiskResult(
                measure="expected",
                value=value,
                n=z.n,
                lower=lo,
                upper=hi,
                delta=params.delta,
                epsilon=dkw_epsilon(z.n, params.delta),
            )
        return RiskResult(measure="expected", value=value, n=z.n)
    if measure == "meanvar":
        return RiskResult(measure="meanvar", value=mean_variance(z, params.lam), n=z.n)
    if measure == "worst":
        return RiskResult(measure="worst", value=worst_case(z), n=z.n)
    raise ParamError(f"unknown measure {measure!r}; expected one of {', '.join(MEASURES)}")
