"""Temporal logic monitoring over discrete-time traces, with sample-based
risk bounds on how robustly a stochastic process satisfies a formula."""

__version__ = "0.1.0"

from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    EmptyError,
    FormatError,
    FormulaSyntaxError,
    GapError,
    InfiniteRobustnessError,
    InsufficientHorizonError,
    IntervalError,
    MismatchError,
    ParamError,
    StlRiskError,
    UnknownPredicateError,
)
from .formula import (
    TRUE,
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Formula,
    Horizon,
    Not,
    Or,
    Predicate,
    TimeInterval,
    TrueFormula,
    UntilFuture,
    UntilPast,
    horizon,
    predicate_names,
)
from .parser import SourceSpan, format_formula, parse
from .predicates import (
    Complement,
    Halfspace,
    NormBall,
    PredicateDef,
    StateSlice,
    load_predicates,
    parse_predicate_table,
    signed_distance,
)
from .risk import (
    RiskParams,
    RiskResult,
    RobustnessSamples,
    VarTriple,
    cvar_point,
    dkw_epsilon,
    expected,
    expected_hoeffding,
    mean_variance,
    risk_of_formula,
    var_bounds,
    var_point,
    worst_case,
)
from .scenario import (
    CaseStudyConfig,
    CaseStudyResult,
    GaussianRegion,
    build_case_study_formula,
    nominal_trace,
    run_case_study,
    sample_ensemble,
)
from .semantics import eval_boolean, eval_robust, eval_robust_ensemble
from .trace import Ensemble, Trace, load_ensemble, load_trace_csv, read_ensemble, save_trace_csv
