"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance and runtime budget is pinned here.
"""

import math
import time

import numpy as np
import pytest

from stlrisk.errors import FormulaSyntaxError, IntervalError
from stlrisk.formula import horizon
from stlrisk.parser import format_formula, parse
from stlrisk.risk import RobustnessSamples, var_bounds
from stlrisk.scenario import (
    DEFAULT_TRAJECTORIES,
    CaseStudyConfig,
    build_case_study_formula,
    nominal_trace,
    run_case_study,
)
from stlrisk.semantics import eval_boolean, eval_robust

from .helpers import (
    beta_oracle,
    desugar,
    estimate,
    random_admissible_case,
    random_formula,
    random_predicates,
    random_trace,
    rho_oracle,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_soundness_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    cases = 0
    violations = 0
    while cases < 10_000:
        f, trace, t, preds = random_admissible_case(rng, max_depth=4, max_length=10, max_dim=3)
        rho = eval_robust(f, trace, t, preds)
        if abs(rho) <= 1e-9:
            continue
        cases += 1
        sat = eval_boolean(f, trace, t, preds)
        if (rho > 0 and not sat) or (rho < 0 and sat):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "soundness sweep",
        violations == 0 and elapsed < 30.0,
        f"{cases} cases, {violations} violations, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    mismatches = 0
    for _ in range(1000):
        f, trace, t, preds = random_admissible_case(rng, max_depth=3, max_length=8, max_dim=3)
        if eval_robust(f, trace, t, preds) != rho_oracle(f, trace, t, preds):
            mismatches += 1
        if eval_boolean(f, trace, t, preds) != beta_oracle(f, trace, t, preds):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"1000 instances, {mismatches} mismatches, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_3_dkw_coverage():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    beta, delta, trials, n = 0.9, 0.05, 500, 200
    covered = 0
    for _ in range(trials):
        z = RobustnessSamples(rng.uniform(size=n))
        triple = var_bounds(z, beta, delta)
        covered += bool(triple.lower <= beta <= triple.upper)
    fraction = covered / trials
    elapsed = time.perf_counter() - start
    report(
        3,
        "quantile-band coverage",
        fraction >= 0.93 and elapsed < 60.0,
        f"coverage {fraction:.3f} over {trials} trials (threshold 0.93), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_bound_ordering_and_degeneracies():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 50))
        values = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
        if rng.random() < 0.25:
            values = np.round(values)
        z = RobustnessSamples(values)
        beta = float(rng.uniform(0.005, 0.995))
        delta = float(rng.uniform(0.005, 0.995))
        triple = var_bounds(z, beta, delta)
        if not triple.lower <= triple.point <= triple.upper:
            bad += 1
        if beta + triple.epsilon > 1.0 and triple.upper != math.inf:
            bad += 1
        if beta - triple.epsilon <= 0.0 and triple.lower != -math.inf:
            bad += 1
        if beta + triple.epsilon <= 1.0 and not math.isfinite(triple.upper):
            bad += 1
        if beta - triple.epsilon > 0.0 and not math.isfinite(triple.lower):
            bad += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        "bound ordering and degeneracies",
        bad == 0 and elapsed < 10.0,
        f"10000 vectors, {bad} violations, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_5_risk_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    tol = 1e-12
    bad = 0
    estimators = {
        "var": lambda z, b: var_bounds(z, b, 0.5).point,
        "cvar": lambda z, b: estimate("cvar", z, beta=b),
        "expected": lambda z, b: estimate("expected", z),
        "worst": lambda z, b: estimate("worst", z),
    }
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        base = rng.normal(size=n) * 3
        beta = float(rng.uniform(0.05, 0.95))
        z = RobustnessSamples(base)
        shift = float(rng.normal() * 5)
        scale = float(rng.uniform(0.0, 4.0))
        bigger = RobustnessSamples(base + rng.uniform(0.0, 2.0, size=n))
        shuffled = RobustnessSamples(rng.permutation(base))
        for est in estimators.values():
            v = est(z, beta)
            if est(bigger, beta) < v - tol:
                bad += 1  # monotonicity
            if abs(est(RobustnessSamples(base + shift), beta) - (v + shift)) > tol:
                bad += 1  # translation invariance
            if abs(est(RobustnessSamples(base * scale), beta) - scale * v) > tol:
                bad += 1  # positive homogeneity
            if est(shuffled, beta) != v:
                bad += 1  # permutation invariance
    # mean-variance monotonicity counterexample: raising (0,1) to (1,1)
    # removes the variance term, so the measure drops exactly when
    # lam * var(0,1) = lam/2 exceeds the mean gain 1/2, i.e. lam > 1.
    low, high = RobustnessSamples(np.array([0.0, 1.0])), RobustnessSamples(np.array([1.0, 1.0]))
    lam_threshold = 1.0
    counterexample = (
        estimate("meanvar", low, lam=2.0) > estimate("meanvar", high, lam=2.0)
        and estimate("meanvar", low, lam=0.5) < estimate("meanvar", high, lam=0.5)
        and abs(estimate("meanvar", low, lam=lam_threshold) - estimate("meanvar", high, lam=lam_threshold)) < tol
    )
    elapsed = time.perf_counter() - start
    report(
        5,
        "risk axioms",
        bad == 0 and counterexample and elapsed < 10.0,
        f"1000 cases, {bad} violations, mean-variance counterexample at lam>1: "
        f"{counterexample}, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_6_clipped_margin_surrogate():
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    violations = 0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        preds = random_predicates(rng, dim, count=1)
        name = next(iter(preds))
        n = int(rng.integers(2, 60))
        rho = np.array(
            [
                eval_robust(parse(name), random_trace(rng, 1, dim), 0, preds)
                for _ in range(n)
            ]
        )
        z_approx = RobustnessSamples(-rho)
        z_exact = RobustnessSamples(-np.maximum(rho, 0.0))
        beta = float(rng.uniform(0.05, 0.95))
        checks = [
            var_bounds(z_exact, beta, 0.5).point <= var_bounds(z_approx, beta, 0.5).point,
            estimate("cvar", z_exact, beta=beta) <= estimate("cvar", z_approx, beta=beta) + 1e-12,
            estimate("expected", z_exact) <= estimate("expected", z_approx) + 1e-12,
            estimate("worst", z_exact) <= estimate("worst", z_approx),
        ]
        if not all(checks):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        "clipped-margin surrogate ordering",
        violations == 0,
        f"200 single-predicate ensembles, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_7_nominal_calibration():
    start = time.perf_counter()
    f, preds = build_case_study_formula()
    targets = (-0.15, 0.01, 0.25, 0.25, 0.25, 0.25)
    errors = []
    for waypoints, target in zip(DEFAULT_TRAJECTORIES, targets):
        rho = eval_robust(f, nominal_trace(waypoints), 0, preds)
        errors.append(abs(rho - target))
    elapsed = time.perf_counter() - start
    report(
        7,
        "nominal trajectory calibration",
        max(errors) <= 1e-9,
        f"margins {targets}, max deviation {max(errors):.2e} (tolerance 1e-9), {elapsed:.1f}s",
    )


def test_criterion_8_case_study_pattern():
    start = time.perf_counter()
    config = CaseStudyConfig()  # defaults: seed 42, n 6500, delta 0.001, four levels
    result = run_case_study(config)
    betas = config.betas
    assert len(result.rows) == 24  # 6 trajectories x 4 levels
    upp = {(row.trajectory, row.beta): row.var_upper for row in result.rows}
    positive_rows = all(upp[(j, b)] > 0 for j in (1, 2) for b in betas)
    negative_rows = all(upp[(j, b)] < 0 for j in (3, 4, 5, 6) for b in betas)
    top_ordering = all(upp[(1, b)] > upp[(2, b)] > upp[(3, b)] for b in betas)
    tail_ordering = upp[(6, 0.975)] < upp[(4, 0.975)] < upp[(5, 0.975)]
    elapsed = time.perf_counter() - start
    ok = positive_rows and negative_rows and top_ordering and tail_ordering and elapsed < 60.0
    report(
        8,
        "case-study sign and ordering pattern",
        ok,
        f"rows 1-2 positive: {positive_rows}, rows 3-6 negative: {negative_rows}, "
        f"1>2>3 everywhere: {top_ordering}, 6<4<5 at 0.975: {tail_ordering}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_9_parser_round_trip_and_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    names = ["a", "pos_x", "b2", "deep_sensor"]
    round_trip_failures = 0
    for _ in range(1000):
        f = random_formula(rng, names, depth=int(rng.integers(0, 5)))
        if parse(format_formula(f)) != f:
            round_trip_failures += 1
    crashes = 0
    alphabet = "pqGFUSHO[](),&|!truein0123456789 -\t\n\\\"'%$@.~"
    for i in range(10_000):
        if i % 2 == 0:
            raw = rng.integers(0, 256, size=int(rng.integers(0, 30))).astype(np.uint8)
            text = raw.tobytes().decode("latin-1")
        else:
            k = int(rng.integers(0, 30))
            text = "".join(rng.choice(list(alphabet), size=k))
        try:
            parse(text)
        except (FormulaSyntaxError, IntervalError):
            pass
        except Exception:
            crashes += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        "parser round-trip and fuzz",
        round_trip_failures == 0 and crashes == 0,
        f"1000 round-trips ({round_trip_failures} failures), 10000 fuzz inputs "
        f"({crashes} crashes), {elapsed:.1f}s",
    )
