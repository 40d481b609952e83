"""Reference results that the benchmark computes on its own with numpy.

Every check compares a program output against these values to within
``TOL``.  The references restate the documented semantics (delivery
scenario geometry, Philox sampling recipe, DKW order statistics, windowed
min/max) without calling the evaluator, the estimators or the sampler.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path
from statistics import NormalDist

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TOL = 1e-9

# Delivery scenario, as documented in stlrisk.scenario: state per step is
# [robot(2), a(2), b(2), c(2), d(2)]; C and D centers are redrawn per member.
A_CENTER = (4.0, 5.0)
B_CENTER = (7.0, 2.0)
C_MEAN = (2.0, 3.0)
D_MEAN = (6.0, 4.0)
BOX_RADIUS = 0.5
DISK_RADIUS = 0.7
REGION_VARIANCE = 0.125
CASE_BETAS = (0.9, 0.925, 0.95, 0.975)
CASE_DELTA = 0.001
CASE_FORMULA = "G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)"
CASE_PREDICATES = {
    "inA": {"kind": "ball", "pos": [0, 1], "center": list(A_CENTER), "radius": BOX_RADIUS, "norm": "linf"},
    "inB": {"kind": "ball", "pos": [0, 1], "center": list(B_CENTER), "radius": DISK_RADIUS, "norm": "l2"},
    "inC": {"kind": "ball", "pos": [0, 1], "center": {"slice": [6, 7]}, "radius": BOX_RADIUS, "norm": "linf"},
    "inD": {"kind": "ball", "pos": [0, 1], "center": {"slice": [8, 9]}, "radius": DISK_RADIUS, "norm": "l2"},
}
# (predicate, steps) pairs the delivery formula reads when anchored at t=0.
CASE_REACH = (("inC", range(0, 4)), ("inD", range(0, 4)), ("inA", range(1, 3)), ("inB", range(1, 4)))

_MASK64 = (1 << 64) - 1


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- case study


def case_states(seed: int, trajectory_index: int, n: int, waypoints) -> np.ndarray:
    """(n, 4, 10) states of one trajectory's ensemble, drawn by the documented
    Philox recipe: stream key (seed, trajectory), four normals per member."""
    key = np.array([seed & _MASK64, trajectory_index & _MASK64], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(4 * n)
    uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    inv = NormalDist().inv_cdf
    z = np.array([inv(u) for u in uniforms.tolist()]).reshape(n, 4)
    sigma = math.sqrt(REGION_VARIANCE)
    states = np.empty((n, len(waypoints), 10))
    states[:, :, 0:2] = np.asarray(waypoints, dtype=float)
    states[:, :, 2:4] = A_CENTER
    states[:, :, 4:6] = B_CENTER
    states[:, :, 6:8] = (np.asarray(C_MEAN) + sigma * z[:, 0:2])[:, None, :]
    states[:, :, 8:10] = (np.asarray(D_MEAN) + sigma * z[:, 2:4])[:, None, :]
    return states


def _linf_margin(point, center, radius):
    diffs = np.abs(point - center)
    inside = (radius - diffs).min(axis=-1)
    outside = -np.hypot(*np.moveaxis(np.maximum(diffs - radius, 0.0), -1, 0))
    return np.where(diffs.max(axis=-1) <= radius, inside, outside)


def _l2_margin(point, center, radius):
    diffs = point - center
    return radius - np.hypot(diffs[..., 0], diffs[..., 1])


def delivery_margins(states: np.ndarray) -> np.ndarray:
    """Robustness at t=0 of the delivery formula for each (steps, 10) member."""
    pos = states[:, :, 0:2]
    in_a = _linf_margin(pos, np.asarray(A_CENTER), BOX_RADIUS)
    in_b = _l2_margin(pos, np.asarray(B_CENTER), DISK_RADIUS)
    in_c = _linf_margin(pos, states[:, :, 6:8], BOX_RADIUS)
    in_d = _l2_margin(pos, states[:, :, 8:10], DISK_RADIUS)
    avoid = np.minimum(-in_c, -in_d)[:, 0:4].min(axis=1)
    reach = np.maximum(
        np.minimum(in_a[:, 1], np.maximum(in_b[:, 1], in_b[:, 2])),
        np.minimum(in_a[:, 2], np.maximum(in_b[:, 2], in_b[:, 3])),
    )
    return np.minimum(avoid, reach)


def var_triple(costs: np.ndarray, beta: float, delta: float) -> tuple:
    """(lower, point, upper) DKW value-at-risk bounds as order statistics."""
    srt = np.sort(costs)
    n = srt.size
    levels = np.arange(1, n + 1) / n
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * n))

    def order_stat(q):
        return float(srt[np.searchsorted(levels, q, side="left")])

    lower = -math.inf if beta - eps <= 0.0 else order_stat(beta - eps)
    upper = math.inf if beta + eps > 1.0 else order_stat(beta + eps)
    return (lower, order_stat(beta), upper)


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= TOL


def check_case_table(csv_text: str, expected_rows: list) -> list:
    """Problems found comparing a ``table.csv`` text with the expected rows."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "trajectory,beta,var_lower,var_point,var_upper":
        return [f"bad table header: {lines[:1]!r}"]
    if len(lines) - 1 != len(expected_rows):
        return [f"table has {len(lines) - 1} rows, expected {len(expected_rows)}"]
    problems = []
    for line, want in zip(lines[1:], expected_rows):
        cells = line.split(",")
        try:
            got = (int(cells[0]),) + tuple(float(c) for c in cells[1:])
        except ValueError:
            problems.append(f"unparsable row {line!r}")
            continue
        if len(got) != 5 or got[0] != want[0] or not all(close(g, w) for g, w in zip(got[1:], want[1:])):
            problems.append(f"row {line!r} differs from reference {want!r}")
    return problems


def check_costs(costs, expected) -> list:
    costs = np.asarray(costs, dtype=float)
    if costs.shape != expected.shape:
        return [f"cost vector shape {costs.shape}, expected {expected.shape}"]
    worst = float(np.max(np.abs(costs - expected))) if costs.size else 0.0
    return [] if worst <= TOL else [f"costs differ from reference by up to {worst:.3g}"]


def check_triple(got: tuple, want: tuple) -> list:
    """Problems in a (lower, point, upper) value-at-risk triple."""
    if len(got) == len(want) and all(close(g, w) for g, w in zip(got, want)):
        return []
    return [f"VaR triple {got!r} differs from reference {want!r}"]


def check_risk_result(result: dict, expected: tuple, n: int) -> list:
    """Problems in a ``risk --measure var`` JSON result."""
    problems = []
    if result.get("measure") != "var" or result.get("n") != n:
        problems.append(f"result measure/n {result.get('measure')!r}/{result.get('n')!r}, expected 'var'/{n}")
    try:
        got = tuple(float(result.get(key)) for key in ("lower", "value", "upper"))
    except (TypeError, ValueError):
        return problems + [f"result triple is not numeric: {result!r}"]
    return problems + check_triple(got, expected)


def check_manifest_digests(manifest: dict, base: Path, inputs: dict, outputs: dict) -> list:
    """Problems in a manifest's digests.  ``inputs`` maps the normalized
    absolute path of every input file to its SHA-256 (manifest input paths
    are relative to ``base``, the directory the command ran in); ``outputs``
    maps output names to theirs."""
    listed = {os.path.normpath(base / name): digest for name, digest in manifest.get("inputs", {}).items()}
    problems = []
    if set(listed) != set(inputs):
        problems.append(f"manifest lists {len(listed)} inputs, expected {len(inputs)}")
    problems += [f"manifest digest of {p} does not match the file" for p, d in listed.items() if inputs.get(p, d) != d]
    if manifest.get("outputs") != outputs:
        problems.append(f"manifest outputs {manifest.get('outputs')!r}, expected {outputs!r}")
    return problems


# -------------------------------------------------------------- long horizon

LONG_FORMULA = "G[0,500] F[0,50] p & (q U[0,200] r) & H[0,100] O[0,10] p"
LONG_FUTURE = 550
LONG_PAST = 110


def long_values(p: np.ndarray, q: np.ndarray, r: np.ndarray, anchors, top) -> np.ndarray:
    """Value of LONG_FORMULA at each anchor over per-step predicate values.

    Pass margins with ``top=inf`` for the robust reading, or ``>= 0``
    Booleans with ``top=True`` for the Boolean one: both use min/max.
    """
    f_p = sliding_window_view(p, 51).max(axis=-1)  # F[0,50] p at s = 0..T-51
    gf_p = sliding_window_view(f_p, 501).min(axis=-1)  # G[0,500] at t = 0..T-551
    o_p = sliding_window_view(p, 11).max(axis=-1)  # O[0,10] p at s = 10..T-1
    ho_p = sliding_window_view(o_p, 101).min(axis=-1)  # H[0,100] at t = 110..T-1
    out = []
    for t in anchors:
        inner = np.concatenate(([top, top], np.minimum.accumulate(q[t + 1 : t + 200])))
        until = np.minimum(r[t : t + 201], inner).max()
        out.append(min(gf_p[t], until, ho_p[t - LONG_PAST]))
    return np.array(out)


def long_predicate_margins(states: np.ndarray, predicates: dict) -> tuple:
    """Margins of the axis-aligned unit-normal halfspaces p, q, r per step."""
    return tuple(states @ np.asarray(predicates[k]["a"]) + predicates[k]["b"] for k in ("p", "q", "r"))


def check_long(robust: float, boolean: bool, want_robust: float, want_boolean: bool) -> list:
    problems = []
    if not close(float(robust), float(want_robust)):
        problems.append(f"robust {robust!r} differs from reference {want_robust!r}")
    if bool(boolean) != bool(want_boolean):
        problems.append(f"boolean {boolean!r} differs from reference {want_boolean!r}")
    return problems
