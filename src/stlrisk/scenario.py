"""Seeded two-goal delivery scenario with uncertain obstacle regions.

A point robot moves through four waypoints (times 0..3) in the plane.  It
must stay clear of two no-go regions, box C and disk D, over the whole
window while reaching box A at step 1 or 2 and disk B within one step after
that.  A and B are fixed; the centers of C and D are drawn once per
realization from isotropic Gaussians, so each realization is the same
geometric path scored against a perturbed map.

The state vector stacks [robot(2), a(2), b(2), c(2), d(2)] per step; the
avoidance predicates read their centers from the c and d slices, which is
how the randomness enters the formula.

Sampling is counter-based: realization i of trajectory j under seed s reads
the Philox-4x64 blocks of stream key (s, j) at counter positions 4i..4i+3,
maps each 64-bit word w to the open-interval uniform
((w >> 11) + 0.5) * 2**-53, and applies the standard-normal inverse CDF.
The four normals are, in order, the x and y offsets of c then of d.  The
draw for any (seed, trajectory, realization) is therefore independent of
evaluation order, batching and thread count.

The six bundled default trajectories are calibrated so that, with the
regions at their nominal centers, the full-formula robustness at time 0 is
-0.15, 0.01, 0.25, 0.25, 0.25, 0.25.  Trajectory 1 cuts through D and 2
clears it by a hair, so both carry positive value-at-risk under
uncertainty.  Trajectories 3..6 share the same nominal score, capped by the
goal margin at A, but differ in how much slack they keep to the uncertain
regions (3 to D, 4 and 5 to C, 6 to everything), which separates their risk
only at high quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .formula import (
    AlwaysFuture,
    And,
    EventuallyFuture,
    Formula,
    Not,
    Predicate,
    TimeInterval,
)
from .predicates import NormBall, StateSlice
from .risk import RobustnessSamples, format_number, json_number, var_bounds
from .semantics import eval_robust_ensemble
from .trace import Ensemble, Trace, read_json

__all__ = [
    "GaussianRegion",
    "CaseStudyConfig",
    "CaseStudyRow",
    "CaseStudyResult",
    "DEFAULT_TRAJECTORIES",
    "DEFAULT_BETAS",
    "build_case_study_formula",
    "nominal_trace",
    "sample_ensemble",
    "run_case_study",
]

_A_CENTER = (4.0, 5.0)
_B_CENTER = (7.0, 2.0)
_C_MEAN = (2.0, 3.0)
_D_MEAN = (6.0, 4.0)
_BOX_RADIUS = 0.5
_DISK_RADIUS = 0.7
_STEPS = 4
_STATE_DIM = 10

DEFAULT_BETAS = (0.9, 0.925, 0.95, 0.975)

# Waypoints at times 0..3.  Shared tail: the goal margin at A is exactly
# 0.25 for trajectories 3..6 (the A waypoint sits 0.25 inside the box), and
# the finishing point sits well inside B on the side away from D.
# Trajectory 1 crosses D twice, 2 grazes the top-right corner of C by 0.01,
# 3 passes D at a distance, 4 and 5 cut the same C corner with different
# slack, 6 arcs high above everything.
_CORNER_BRUSH = 0.01 * math.sqrt(0.5)

DEFAULT_TRAJECTORIES = (
    ((6.58, 4.0), (5.45, 4.0), (4.0, 5.0), (7.2, 1.8)),
    ((1.6, 5.6), (2.5 + _CORNER_BRUSH, 3.5 + _CORNER_BRUSH), (4.0, 5.0), (7.2, 1.8)),
    ((6.1, 6.5), (4.6282, 5.3718), (3.75, 5.25), (7.2, 1.8)),
    ((1.9, 5.9), (3.35, 4.35), (3.75, 5.25), (7.2, 1.8)),
    ((1.7, 6.0), (3.3, 4.3), (3.75, 5.25), (7.2, 1.8)),
    ((5.8, 6.8), (4.7, 6.1), (3.75, 5.25), (7.2, 1.8)),
)


@dataclass(frozen=True)
class GaussianRegion:
    """An uncertain region center: isotropic Gaussian in the plane."""

    mean: Tuple[float, float]
    variance: float

    def __post_init__(self):
        mean = tuple(float(v) for v in self.mean)
        if len(mean) != 2:
            raise ConfigError(f"region mean must be a 2-vector, got {self.mean!r}")
        if not float(self.variance) > 0.0:
            raise ConfigError(f"region variance must be positive, got {self.variance!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", float(self.variance))


def _numbers(key: str, values, count: Optional[int] = None) -> Tuple[float, ...]:
    """``values``, a list of finite numbers, as floats; a ``ConfigError``
    naming ``key`` otherwise."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of numbers, got {values!r}")
    try:
        numbers = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{key}: values must be finite, got {values!r}")
    if count is not None and len(numbers) != count:
        raise ConfigError(f"{key}: expected {count} values, got {len(numbers)}")
    return numbers


@dataclass(frozen=True)
class CaseStudyConfig:
    seed: int = 42
    n: int = 6500
    betas: Tuple[float, ...] = DEFAULT_BETAS
    delta: float = 0.001
    trajectories: Tuple = DEFAULT_TRAJECTORIES
    region_c: GaussianRegion = field(default_factory=lambda: GaussianRegion(_C_MEAN, 0.125))
    region_d: GaussianRegion = field(default_factory=lambda: GaussianRegion(_D_MEAN, 0.125))

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        betas = _numbers("betas", self.betas)
        if not betas or any(not 0.0 < b < 1.0 for b in betas):
            raise ConfigError(f"betas must be a non-empty list within (0, 1), got {self.betas!r}")
        (delta,) = _numbers("delta", [self.delta])
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not isinstance(self.trajectories, (list, tuple)) or not self.trajectories:
            raise ConfigError(f"trajectories: expected a non-empty list, got {self.trajectories!r}")
        for j, traj in enumerate(self.trajectories):
            if not isinstance(traj, (list, tuple)) or len(traj) != _STEPS:
                raise ConfigError(f"trajectories[{j}]: expected a list of exactly {_STEPS} waypoints")
        trajectories = tuple(
            tuple(_numbers(f"trajectories[{j}][{t}]", xy, 2) for t, xy in enumerate(traj))
            for j, traj in enumerate(self.trajectories)
        )
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "trajectories", trajectories)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CaseStudyConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {"seed", "n", "betas", "delta", "trajectories"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        if data.get("trajectories") == "default":
            data = {**data, "trajectories": DEFAULT_TRAJECTORIES}
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "CaseStudyConfig":
        return cls.from_json_dict(read_json(path, ConfigError, "invalid JSON")[0])


def build_case_study_formula() -> Tuple[Formula, dict]:
    """The delivery formula and its predicate table.

    Reads: always within steps 0..3 stay out of C and D; within steps 1..2
    reach A and, within one further step, reach B.  State layout per step:
    [robot x, robot y, ax, ay, bx, by, cx, cy, dx, dy].
    """
    f = And(
        AlwaysFuture(
            And(Not(Predicate("inC")), Not(Predicate("inD"))),
            TimeInterval(0, 3),
        ),
        EventuallyFuture(
            And(
                Predicate("inA"),
                EventuallyFuture(Predicate("inB"), TimeInterval(0, 1)),
            ),
            TimeInterval(1, 2),
        ),
    )
    predicates = {
        "inA": NormBall(pos=(0, 1), center=_A_CENTER, radius=_BOX_RADIUS, norm="linf"),
        "inB": NormBall(pos=(0, 1), center=_B_CENTER, radius=_DISK_RADIUS, norm="l2"),
        "inC": NormBall(pos=(0, 1), center=StateSlice((6, 7)), radius=_BOX_RADIUS, norm="linf"),
        "inD": NormBall(pos=(0, 1), center=StateSlice((8, 9)), radius=_DISK_RADIUS, norm="l2"),
    }
    return f, predicates


def _states(waypoints, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The (N, 4, 10) states of one trajectory under N placements of the
    region centers: row i of the (N, 2) arrays ``c`` and ``d``."""
    states = np.empty((len(c), _STEPS, _STATE_DIM), dtype=float)
    states[:, :, 0:2] = waypoints
    states[:, :, 2:4] = _A_CENTER
    states[:, :, 4:6] = _B_CENTER
    states[:, :, 6:8] = c[:, None]
    states[:, :, 8:10] = d[:, None]
    return states


def nominal_trace(waypoints, c: Sequence[float] = _C_MEAN, d: Sequence[float] = _D_MEAN) -> Trace:
    """The deterministic trace for one trajectory with fixed region centers."""
    return Trace(_states(waypoints, np.array([c], dtype=float), np.array([d], dtype=float))[0])


_NORMAL = NormalDist()


def _standard_normals(seed: int, trajectory_index: int, count: int) -> np.ndarray:
    """Standard normals from the counter-based stream keyed (seed, trajectory)."""
    key = np.array([seed, trajectory_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    inv = _NORMAL.inv_cdf
    return np.array([inv(u) for u in uniforms.tolist()], dtype=float)


def sample_ensemble(config: CaseStudyConfig, trajectory_index: int) -> Ensemble:
    """Draw the N map realizations for one trajectory (0-based index)."""
    if not 0 <= trajectory_index < len(config.trajectories):
        raise ConfigError(
            f"trajectory index {trajectory_index} out of range 0..{len(config.trajectories) - 1}"
        )
    waypoints = config.trajectories[trajectory_index]
    z = _standard_normals(config.seed, trajectory_index, 4 * config.n).reshape(config.n, 4)
    c = np.array(config.region_c.mean) + math.sqrt(config.region_c.variance) * z[:, 0:2]
    d = np.array(config.region_d.mean) + math.sqrt(config.region_d.variance) * z[:, 2:4]
    states = _states(waypoints, c, d)
    metadata = {"seed": config.seed, "trajectory": trajectory_index, "n": config.n}
    return Ensemble.from_states(states, metadata)


@dataclass(frozen=True)
class CaseStudyRow:
    trajectory: int  # 1-based
    beta: float
    var_lower: float
    var_point: float
    var_upper: float


@dataclass(frozen=True)
class CaseStudyResult:
    config: CaseStudyConfig
    rows: Tuple[CaseStudyRow, ...]

    def upper(self, trajectory: int, beta: float) -> float:
        for row in self.rows:
            if row.trajectory == trajectory and row.beta == beta:
                return row.var_upper
        raise KeyError((trajectory, beta))

    def to_csv(self) -> str:
        lines = ["trajectory,beta,var_lower,var_point,var_upper"]
        for row in self.rows:
            lines.append(
                f"{row.trajectory},{format_number(row.beta)},{format_number(row.var_lower)},"
                f"{format_number(row.var_point)},{format_number(row.var_upper)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "n": self.config.n,
            "delta": self.config.delta,
            "betas": list(self.config.betas),
            "rows": [
                {
                    "trajectory": row.trajectory,
                    "beta": row.beta,
                    "var_lower": json_number(row.var_lower),
                    "var_point": json_number(row.var_point),
                    "var_upper": json_number(row.var_upper),
                }
                for row in self.rows
            ],
        }


def run_case_study(config: CaseStudyConfig) -> CaseStudyResult:
    """Value-at-risk bounds per trajectory and risk level.

    For each trajectory the N realizations are scored by negated robustness
    at time 0 and the quantile bounds are computed at every requested level.
    Identical configs produce bit-identical tables.
    """
    formula, predicates = build_case_study_formula()
    rows = []
    for j in range(len(config.trajectories)):
        ensemble = sample_ensemble(config, j)
        z = RobustnessSamples(eval_robust_ensemble(formula, ensemble, 0, predicates))
        for beta in config.betas:
            triple = var_bounds(z, beta, config.delta)
            rows.append(
                CaseStudyRow(
                    trajectory=j + 1,
                    beta=beta,
                    var_lower=triple.lower,
                    var_point=triple.point,
                    var_upper=triple.upper,
                )
            )
    return CaseStudyResult(config=config, rows=tuple(rows))
