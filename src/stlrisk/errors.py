"""Exception types shared across the package."""


class StlRiskError(Exception):
    """Base class for all errors raised by this package; ``span``, if set, locates one in formula text."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.span = span


class IntervalError(StlRiskError):
    """A time interval has a negative bound, a finite bound above sys.maxsize,
    or lo > hi."""


class FormulaSyntaxError(StlRiskError):
    """Malformed formula text. ``span`` locates the offending characters."""


class UnknownPredicateError(StlRiskError):
    """A formula references a predicate missing from the predicate table."""


class InsufficientHorizonError(StlRiskError):
    """The trace is too short (or t too close to an end) for the formula's
    temporal reach; evaluation refuses rather than silently truncating."""


class DimensionError(StlRiskError):
    """A state vector does not match a predicate's dimensional requirements."""


class FormatError(StlRiskError):
    """A trace file violates the CSV schema (bad header, bad cell, non-finite
    value)."""


class GapError(StlRiskError):
    """Trace rows are not consecutive integer times starting at 0."""


class EmptyError(StlRiskError):
    """No usable data: empty trace file or empty ensemble source."""


class MismatchError(StlRiskError):
    """Ensemble members disagree in dimension or length."""


class ParamError(StlRiskError):
    """A risk parameter is outside its admissible range."""


class BoundsError(StlRiskError):
    """A sample falls outside the declared [a, b] support."""


class InfiniteRobustnessError(StlRiskError):
    """Robustness values of +/-inf cannot enter the sample-based estimators,
    and an estimate that overflows from finite costs cannot leave them."""


class ConfigError(StlRiskError):
    """Invalid case-study configuration."""
