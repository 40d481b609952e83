import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import stlrisk
from stlrisk import scenario
from stlrisk.errors import ConfigError
from stlrisk.formula import Horizon, horizon
from stlrisk.parser import format_formula, parse
from stlrisk.risk import RobustnessSamples, var_bounds
from stlrisk.scenario import (
    DEFAULT_TRAJECTORIES,
    CaseStudyConfig,
    _standard_normals,
    build_case_study_formula,
    nominal_trace,
    run_case_study,
    sample_ensemble,
)
from stlrisk.semantics import eval_robust, eval_robust_ensemble

NOMINAL_MARGINS = (-0.15, 0.01, 0.25, 0.25, 0.25, 0.25)


class TestFormulaConstruction:
    def test_canonical_text_round_trips(self):
        f, _ = build_case_study_formula()
        text = format_formula(f)
        assert text == "G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)"
        assert parse(text) == f

    def test_horizon(self):
        f, _ = build_case_study_formula()
        assert horizon(f) == Horizon(3, 0)

    def test_state_dimension(self):
        tr = nominal_trace(DEFAULT_TRAJECTORIES[0])
        assert tr.states.shape == (4, 10)


class TestNominalCalibration:
    def test_margins_match_published_values(self):
        f, preds = build_case_study_formula()
        for waypoints, target in zip(DEFAULT_TRAJECTORIES, NOMINAL_MARGINS):
            rho = eval_robust(f, nominal_trace(waypoints), 0, preds)
            assert rho == pytest.approx(target, abs=1e-9)


class TestSampling:
    def test_deterministic_slices_exact(self):
        config = CaseStudyConfig(seed=5, n=1)
        e = sample_ensemble(config, 2)
        tr = e.traces[0]
        for t in range(4):
            rx, ry = DEFAULT_TRAJECTORIES[2][t]
            assert tr.states[t, 0] == rx and tr.states[t, 1] == ry
            assert tr.states[t, 2:6].tolist() == [4.0, 5.0, 7.0, 2.0]
        # one draw per realization, constant over time
        assert np.ptp(tr.states[:, 6:], axis=0).max() == 0.0

    def test_bit_identical_reruns(self):
        config = CaseStudyConfig(seed=123, n=40)
        assert sample_ensemble(config, 1).states.tobytes() == sample_ensemble(config, 1).states.tobytes()

    def test_different_trajectories_different_draws(self):
        config = CaseStudyConfig(seed=123, n=5)
        a = sample_ensemble(config, 0)
        b = sample_ensemble(config, 1)
        assert not np.array_equal(a.traces[0].states[:, 6:], b.traces[0].states[:, 6:])

    def test_vanishing_variance_recovers_nominal(self, monkeypatch):
        f, preds = build_case_study_formula()
        monkeypatch.setattr(scenario, "_REGION_VARIANCE", 1e-12)
        config = CaseStudyConfig(seed=9, n=50)
        for j, target in enumerate(NOMINAL_MARGINS):
            z = eval_robust_ensemble(f, sample_ensemble(config, j), 0, preds)
            assert np.max(np.abs(-z - target)) < 1e-5

    @pytest.mark.parametrize("seed", [0, 42, 2**40 + 7])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_states_match_per_member_construction(self, seed, n):
        # The states built one member and one step at a time, from Python
        # float arithmetic on each draw.
        config = CaseStudyConfig(seed=seed, n=n)
        sc = sd = math.sqrt(scenario._REGION_VARIANCE)
        (cx, cy), (dx, dy) = scenario._C_MEAN, scenario._D_MEAN
        for j, waypoints in enumerate(config.trajectories):
            normals = _standard_normals(seed, j, 4 * n)
            expected = np.empty((n, 4, 10))
            for i in range(n):
                z = normals[4 * i : 4 * i + 4]
                c = (cx + sc * z[0], cy + sc * z[1])
                d = (dx + sd * z[2], dy + sd * z[3])
                for t, (rx, ry) in enumerate(waypoints):
                    expected[i, t] = (rx, ry, 4.0, 5.0, 7.0, 2.0, c[0], c[1], d[0], d[1])
            assert sample_ensemble(config, j).states.tobytes() == expected.tobytes()
            expected[0, :, 6:] = (cx, cy, dx, dy)
            assert nominal_trace(waypoints).states.tobytes() == expected[0].tobytes()

    def test_normals_equal_normal_dist_inv_cdf_bit_for_bit(self):
        count = 10**6
        raw = np.random.Philox(key=np.array([7, 3], dtype=np.uint64)).random_raw(count)
        uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        inv = NormalDist().inv_cdf
        expected = np.array([inv(u) for u in uniforms.tolist()])
        assert _standard_normals(7, 3, count).tobytes() == expected.tobytes()

    @staticmethod
    def run_python(code: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(Path(stlrisk.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout

    def test_import_leaves_statistics_unloaded(self):
        # statistics pulls in fractions, decimal and random: several ms.
        code = (
            "import sys, numpy, stlrisk\n"
            "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"
        )
        assert self.run_python(code) == "[]\n"

    def test_normals_without_the_c_inverse_cdf(self):
        # Where _statistics is missing, the fallback through NormalDist.inv_cdf
        # runs and gives the same bits, at both ends of the seed range.
        streams = [(seed, j) for seed in (0, 42, 2**64 - 1) for j in range(6)] + [(7, 3)]
        code = (
            "import sys; sys.modules['_statistics'] = None\n"
            "from stlrisk.scenario import _normal_dist_inv_cdf, _standard_normals\n"
            "print(_normal_dist_inv_cdf.__module__)\n"
            f"for seed, j in {streams}:\n"
            "    print(_standard_normals(seed, j, 1000).tobytes().hex())"
        )
        expected = [_standard_normals(seed, j, 1000).tobytes().hex() for seed, j in streams]
        assert self.run_python(code).splitlines() == ["stlrisk.scenario", *expected]

    def test_trajectory_index_range(self):
        with pytest.raises(ConfigError):
            sample_ensemble(CaseStudyConfig(n=1), 6)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CaseStudyConfig(n=0)
        with pytest.raises(ConfigError):
            CaseStudyConfig(betas=(0.9, 1.5))
        with pytest.raises(ConfigError):
            CaseStudyConfig(delta=0.0)
        with pytest.raises(ConfigError):
            CaseStudyConfig(trajectories=(((0.0, 0.0),) * 3,))

    def test_from_json(self):
        data = {"seed": 11, "n": 20, "betas": [0.8, 0.9], "delta": 0.01}
        config = CaseStudyConfig.from_json_dict(data)
        assert config.seed == 11 and config.n == 20
        assert config.trajectories == CaseStudyConfig().trajectories

    @pytest.mark.parametrize("data", [{"betas": ["x"]}, {"delta": "abc"}, {"trajectories": [[["a", 0]] * 4]}])
    def test_from_json_rejects_non_numbers(self, data):
        with pytest.raises(ConfigError, match=r"^(betas|delta|trajectories\[0\]\[0\]): expected real numbers, got \['"):
            CaseStudyConfig.from_json_dict(data)

    def test_from_json_rejects_null_trajectories(self):
        with pytest.raises(ConfigError, match="^trajectories: "):
            CaseStudyConfig.from_json_dict({"trajectories": None})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            CaseStudyConfig.from_json_dict({"seeds": 1})

    def test_explicit_trajectories_json(self):
        traj = [[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]]
        config = CaseStudyConfig.from_json_dict({"n": 3, "trajectories": traj})
        assert len(config.trajectories) == 1


class TestRunCaseStudy:
    def test_table_shape_and_determinism(self):
        config = CaseStudyConfig(seed=77, n=60, betas=(0.8, 0.9))
        a, b = run_case_study(config), run_case_study(config)
        assert len(a.rows) == len(DEFAULT_TRAJECTORIES) * 2
        assert a.to_csv() == b.to_csv()

    def test_single_realization_gives_infinite_upper(self):
        config = CaseStudyConfig(seed=1, n=1)
        result = run_case_study(config)
        assert all(row.var_upper == math.inf for row in result.rows)

    def test_upper_bound_monotone_in_beta(self):
        config = CaseStudyConfig(seed=4, n=200, betas=(0.5, 0.7, 0.9, 0.95))
        result = run_case_study(config)
        for j in range(1, 7):
            uppers = [row.var_upper for row in result.rows if row.trajectory == j]
            assert uppers == sorted(uppers)

    def test_degenerate_variance_pins_all_columns(self, monkeypatch):
        monkeypatch.setattr(scenario, "_REGION_VARIANCE", 1e-12)
        # betas kept low enough that beta + epsilon stays below 1 at n=400
        config = CaseStudyConfig(seed=2, n=400, betas=(0.5, 0.7, 0.9), trajectories=(DEFAULT_TRAJECTORIES[3],))
        result = run_case_study(config)
        for row in result.rows:
            assert row.var_upper == pytest.approx(-0.25, abs=1e-5)
            assert row.var_lower == pytest.approx(-0.25, abs=1e-5)

    def test_csv_format(self):
        config = CaseStudyConfig(seed=3, n=30, betas=(0.9,))
        text = run_case_study(config).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "trajectory,beta,var_lower,var_point,var_upper"
        assert len(lines) == 7
        assert lines[1].startswith("1,0.9,")
