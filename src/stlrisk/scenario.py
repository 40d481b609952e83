"""Seeded two-goal delivery scenario with uncertain obstacle regions.

A point robot moves through four waypoints (times 0..3) in the plane.  It
must stay clear of two no-go regions, box C and disk D, over the whole
window while reaching box A at step 1 or 2 and disk B within one step after
that.  A and B are fixed; the centers of C and D are drawn once per
realization from isotropic Gaussians about (2, 3) and (6, 4) with variance
0.125 per coordinate, so each realization is the same geometric path scored
against a perturbed map.  These means and the variance are part of the
scenario: a config sets only ``CaseStudyConfig``'s fields (seed, n, betas,
delta, trajectories).

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
from itertools import repeat
from typing import Optional, Tuple

import numpy as np

from ._record import Record
from .errors import ConfigError
from .formula import Formula
from .parser import parse
from .predicates import NormBall, StateSlice, real_numbers
from .risk import MEASURES, RiskParams, RobustnessSamples, format_number, json_number
from .semantics import eval_robust_ensemble
from .trace import Ensemble, Trace, shortened

__all__ = [
    "CaseStudyConfig",
    "CaseStudyRow",
    "CaseStudyResult",
    "DEFAULT_TRAJECTORIES",
    "build_case_study_formula",
    "nominal_trace",
    "sample_ensemble",
    "run_case_study",
]

_A_CENTER = (4.0, 5.0)
_B_CENTER = (7.0, 2.0)
_C_MEAN = (2.0, 3.0)
_D_MEAN = (6.0, 4.0)
_REGION_VARIANCE = 0.125  # of each coordinate of the C and D centers
_BOX_RADIUS = 0.5
_DISK_RADIUS = 0.7
_STEPS = 4
_STATE_DIM = 10
_MAX_N = 10**7  # realizations per trajectory: their (n, 4, 10) states alone take 3.2 GB

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


def _numbers(key: str, values, count: Optional[int] = None) -> Tuple[float, ...]:
    """``values``, a list of finite numbers, as floats; a ``ConfigError``
    naming ``key`` otherwise."""
    try:
        numbers = real_numbers(values, key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if count is not None and len(numbers) != count:
        raise ConfigError(f"{key}: expected {count} values, got {len(numbers)}")
    return numbers


class CaseStudyConfig(Record):
    seed: int = 42
    n: int = 6500
    betas: Tuple[float, ...] = (0.9, 0.925, 0.95, 0.975)
    delta: float = 0.001
    trajectories: Tuple = DEFAULT_TRAJECTORIES

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {shortened(repr(self.seed))}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {shortened(repr(self.n))}")
        if self.n > _MAX_N:  # refused before anything is sized by n, and without formatting n
            raise ConfigError(f"n must be at most {_MAX_N} realizations per trajectory")
        betas = _numbers("betas", self.betas)
        if not betas or any(not 0.0 < b < 1.0 for b in betas):
            raise ConfigError(f"betas must be a non-empty list within (0, 1), got {shortened(repr(self.betas))}")
        (delta,) = _numbers("delta", [self.delta])
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta!r}")
        if not isinstance(self.trajectories, (list, tuple)) or not self.trajectories:
            raise ConfigError(f"trajectories: expected a non-empty list, got {shortened(repr(self.trajectories))}")
        for j, traj in enumerate(self.trajectories):
            if not isinstance(traj, (list, tuple)) or len(traj) != _STEPS:
                raise ConfigError(f"trajectories[{j}]: expected a list of exactly {_STEPS} waypoints")
        trajectories = tuple(
            tuple(_numbers(f"trajectories[{j}][{t}]", xy, 2) for t, xy in enumerate(traj))
            for j, traj in enumerate(self.trajectories)
        )
        vars(self).update(betas=betas, delta=delta, trajectories=trajectories)

    @classmethod
    def from_json_dict(cls, data: dict) -> "CaseStudyConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data).difference(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {shortened(', '.join(sorted(unknown)))}")
        return cls(**data)


def build_case_study_formula() -> Tuple[Formula, dict]:
    """The delivery formula and its predicate table.

    Reads: always within steps 0..3 stay out of C and D; within steps 1..2
    reach A and, within one further step, reach B.  State layout per step:
    [robot x, robot y, ax, ay, bx, by, cx, cy, dx, dy].
    """
    f = parse("G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)")
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


def nominal_trace(waypoints) -> Trace:
    """The deterministic trace for one trajectory with the region centers at their means."""
    return Trace(_states(waypoints, np.array([_C_MEAN], dtype=float), np.array([_D_MEAN], dtype=float))[0])


try:  # the C function NormalDist.inv_cdf wraps: same bits, and no statistics import
    from _statistics import _normal_dist_inv_cdf
except ImportError:
    from statistics import NormalDist

    def _normal_dist_inv_cdf(p: float, mu: float, sigma: float) -> float:
        return NormalDist(mu, sigma).inv_cdf(p)


def _standard_normals(seed: int, trajectory_index: int, count: int) -> np.ndarray:
    """Standard normals from the counter-based stream keyed (seed, trajectory)."""
    key = np.array([seed, trajectory_index], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(count)
    uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.fromiter(map(_normal_dist_inv_cdf, uniforms.tolist(), repeat(0.0), repeat(1.0)), float, count)


def sample_ensemble(config: CaseStudyConfig, trajectory_index: int) -> Ensemble:
    """Draw the N map realizations for one trajectory (0-based index)."""
    if not 0 <= trajectory_index < len(config.trajectories):
        raise ConfigError(
            f"trajectory index {trajectory_index} out of range 0..{len(config.trajectories) - 1}"
        )
    waypoints = config.trajectories[trajectory_index]
    z = _standard_normals(config.seed, trajectory_index, 4 * config.n).reshape(config.n, 4)
    c = np.array(_C_MEAN) + math.sqrt(_REGION_VARIANCE) * z[:, 0:2]
    d = np.array(_D_MEAN) + math.sqrt(_REGION_VARIANCE) * z[:, 2:4]
    return Ensemble.from_states(_states(waypoints, c, d))


class CaseStudyRow(Record):
    trajectory: int  # 1-based
    beta: float
    var_lower: float
    var_point: float
    var_upper: float


class CaseStudyResult(Record):
    config: CaseStudyConfig
    rows: Tuple[CaseStudyRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(CaseStudyRow._fields)]
        lines += [",".join(map(format_number, row._values())) for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "n": self.config.n,
            "delta": self.config.delta,
            "betas": list(self.config.betas),
            "rows": [{name: json_number(getattr(row, name)) for name in row._fields} for row in self.rows],
        }


def run_case_study(config: CaseStudyConfig) -> CaseStudyResult:
    """Value-at-risk bounds per trajectory and risk level.

    For each trajectory the N realizations are scored by negated robustness
    at time 0, and ``MEASURES["var"]`` gives the quantile bounds at every
    requested level.  Identical configs produce bit-identical tables.
    """
    formula, predicates = build_case_study_formula()
    rows = []
    for j in range(len(config.trajectories)):
        ensemble = sample_ensemble(config, j)
        z = RobustnessSamples(eval_robust_ensemble(formula, ensemble, 0, predicates))
        for beta in config.betas:
            var = MEASURES["var"](z, RiskParams(beta=beta, delta=config.delta))
            rows.append(CaseStudyRow(j + 1, beta, var["lower"], var["value"], var["upper"]))
    return CaseStudyResult(config=config, rows=tuple(rows))
