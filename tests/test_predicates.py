import json
import math

import numpy as np
import pytest

from stlrisk.errors import DimensionError, FormatError
from stlrisk.predicates import (
    Complement,
    Halfspace,
    NormBall,
    StateSlice,
    margins,
    parse_predicate_table,
    signed_distance,
)

from .helpers import signed_distance_oracle


def boundary_distance_disk(point, center, radius, samples=20000):
    """Min distance from point to a circle, by dense boundary sampling."""
    angles = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    boundary = np.stack(
        [center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles)], axis=1
    )
    return float(np.min(np.linalg.norm(boundary - np.asarray(point), axis=1)))


def boundary_distance_box(point, center, radius, per_side=20000):
    """Min distance from point to a square boundary, by dense sampling."""
    cx, cy = center
    s = np.linspace(-radius, radius, per_side)
    edges = np.concatenate(
        [
            np.stack([cx + s, np.full_like(s, cy - radius)], axis=1),
            np.stack([cx + s, np.full_like(s, cy + radius)], axis=1),
            np.stack([np.full_like(s, cx - radius), cy + s], axis=1),
            np.stack([np.full_like(s, cx + radius), cy + s], axis=1),
        ]
    )
    return float(np.min(np.linalg.norm(edges - np.asarray(point), axis=1)))


class TestSpecCases:
    def test_disk_center_margin_is_radius(self):
        p = NormBall((0, 1), (6.0, 4.0), 0.7, "l2")
        assert signed_distance(p, [6.0, 4.0]) == pytest.approx(0.7, abs=1e-12)

    def test_disk_outside(self):
        p = NormBall((0, 1), (6.0, 4.0), 0.7, "l2")
        assert signed_distance(p, [6.0, 5.4]) == pytest.approx(-0.7, abs=1e-12)

    def test_box_inside_min_face(self):
        p = NormBall((0, 1), (4.0, 5.0), 0.5, "linf")
        value = signed_distance(p, [4.2, 5.1])
        assert value == pytest.approx(0.3, abs=1e-12)
        oracle = boundary_distance_box([4.2, 5.1], (4.0, 5.0), 0.5)
        assert abs(value) == pytest.approx(oracle, abs=1e-6)


class TestHalfspace:
    def test_margin_is_normalized(self):
        p = Halfspace((3.0, 4.0), 0.0)
        assert signed_distance(p, [1.0, 0.0]) == pytest.approx(0.6, abs=1e-12)

    def test_random_points_match_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            a = rng.normal(size=dim)
            while not np.any(a):
                a = rng.normal(size=dim)
            b = float(rng.normal())
            s = rng.normal(size=dim) * 3.0
            expected = (float(a @ s) + b) / float(np.linalg.norm(a))
            assert signed_distance(Halfspace(tuple(a), b), s) == pytest.approx(expected, abs=1e-12)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace((0.0, 0.0), 1.0)


class TestNormBall:
    def test_l2_magnitude_matches_boundary_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            center = tuple(rng.normal(size=2))
            radius = float(rng.uniform(0.3, 2.0))
            point = rng.normal(size=2) * 2.0
            value = signed_distance(NormBall((0, 1), center, radius, "l2"), point)
            if abs(value) < 0.05:
                continue
            assert abs(value) == pytest.approx(
                boundary_distance_disk(point, center, radius), abs=1e-6
            )

    def test_linf_magnitude_matches_boundary_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            center = tuple(rng.normal(size=2))
            radius = float(rng.uniform(0.3, 2.0))
            point = rng.normal(size=2) * 2.0
            value = signed_distance(NormBall((0, 1), center, radius, "linf"), point)
            if abs(value) < 0.05:
                continue
            assert abs(value) == pytest.approx(
                boundary_distance_box(point, center, radius), abs=1e-6
            )

    def test_interval_in_one_dimension(self):
        p = NormBall((0,), (1.0,), 0.5, "linf")
        assert signed_distance(p, [1.2]) == pytest.approx(0.3, abs=1e-12)
        assert signed_distance(p, [2.0]) == pytest.approx(-0.5, abs=1e-12)

    def test_slice_center_reads_state(self):
        p = NormBall((0, 1), StateSlice((2, 3)), 0.7, "l2")
        assert signed_distance(p, [6.0, 5.4, 6.0, 4.0]) == pytest.approx(-0.7, abs=1e-12)

    def test_boundary_counts_as_inside(self):
        p = NormBall((0,), (0.0,), 1.0, "l2")
        assert signed_distance(p, [1.0]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NormBall((0, 1), (0.0,), 0.5, "l2")  # length mismatch
        with pytest.raises(ValueError):
            NormBall((0,), (0.0,), 0.0, "l2")  # radius
        with pytest.raises(ValueError):
            NormBall((0,), (0.0,), 0.5, "l3")  # unknown norm

    def test_python_callers_get_the_type_checks(self):
        for make in (
            lambda: StateSlice((1.7,)),
            lambda: StateSlice((True,)),
            lambda: NormBall((0.0,), (0.0,), 1.0),
            lambda: NormBall((0,), ("1",), 1.0),
            lambda: NormBall((0,), (0.0,), "2"),
            lambda: Halfspace((True,), 0.0),
            lambda: Halfspace((1.0,), "1"),
        ):
            with pytest.raises(ValueError):
                make()
        p = NormBall((np.int64(0),), (np.float64(1.5),), np.float32(0.5))
        assert p.pos == (0,) and p.center == (1.5,) and p.radius == 0.5
        assert all(type(v) is int for v in p.pos) and type(p.radius) is float

    def test_dimension_error_on_short_state(self):
        p = NormBall((0, 3), (0.0, 0.0), 0.5, "l2")
        with pytest.raises(DimensionError):
            signed_distance(p, [1.0, 2.0])


class TestComplement:
    def test_complement_flips_sign(self):
        inner = NormBall((0,), (0.0,), 1.0, "l2")
        outer = Complement(inner)
        assert signed_distance(outer, [0.2]) == -signed_distance(inner, [0.2])


def assert_margins_bit_equal(p, states):
    got = margins(p, states)
    assert got.shape == states.shape[:-1]
    for index in np.ndindex(got.shape):
        expected = np.float64(signed_distance_oracle(p, states[index].tolist()))
        assert got[index].tobytes() == expected.tobytes(), (p, index)
        one = np.float64(signed_distance(p, states[index]))
        assert one.tobytes() == expected.tobytes(), (p, index)


class TestArrayMargins:
    """``margins`` over (N, span, d) arrays, and ``signed_distance`` of each
    row, equal the scalar oracle bit for bit."""

    def test_halfspaces(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dim = int(rng.integers(1, 5))
            a = rng.normal(size=dim)
            p = Halfspace(tuple(a), float(rng.normal()))
            assert_margins_bit_equal(p, rng.normal(scale=3.0, size=(3, 5, dim)))

    def test_halfspaces_with_zero_and_unit_coefficients(self):
        # Coefficients of 0, -0, 1 and -1 and offsets of 0 and -0 take the
        # branches that skip a term, a product or the division; states of
        # 0 and -0 make terms of either zero.
        rng = np.random.default_rng(16)
        coefficients = [0.0, -0.0, 1.0, -1.0, None]
        offsets = [0.0, -0.0, None]
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            a = [float(rng.normal()) if c is None else c for c in rng.choice(coefficients, size=dim)]
            if all(v == 0.0 for v in a):
                a[int(rng.integers(dim))] = rng.choice([1.0, -1.0, float(rng.normal())])
            b = rng.choice(offsets)
            p = Halfspace(tuple(a), float(rng.normal()) if b is None else b)
            states = rng.normal(scale=3.0, size=(3, 5, dim))
            states[rng.random(states.shape) < 0.3] = 0.0
            states[rng.random(states.shape) < 0.3] = -0.0
            assert_margins_bit_equal(p, states)

    def test_halfspace_dot_is_summed_left_to_right(self):
        # 1e16 + 1 rounds to 1e16, so the left-to-right sum is 0; a compensated
        # sum (Python 3.12's sum() of floats) would give 1.
        p = Halfspace((1.0, 1.0, 1.0), 0.0)
        state = [1e16, 1.0, -1e16]
        assert signed_distance_oracle(p, state) == 0.0
        assert_margins_bit_equal(p, np.array([[state]]))

    def test_halfspace_negative_zero_dot(self):
        # The products are -0.0; summed left to right from 0, the dot product
        # is +0.0, and +0.0 + b stays +0.0 for b = -0.0.
        p = Halfspace((-1.0, 2.0), -0.0)
        states = np.array([[[0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [1.0, 0.5]]])
        assert_margins_bit_equal(p, states)
        assert not np.signbit(margins(p, states)[0, 0])

    @pytest.mark.parametrize(
        "a, b",
        [((1.0, 0.0), -0.0), ((0.0, 1.0), 0.5), ((0.0, -1.0, 1.0), -0.0), ((2.5, 0.0, -3.0), 1.25), ((0.5,), 0.0)],
        ids=["unit-negzero-b", "unit", "unit-and-minus-unit", "non-unit", "one-non-unit"],
    )
    def test_halfspace_terms_are_kept_apart_from_its_fields(self, a, b):
        # The terms, offset and norm kept for margins are not fields: a
        # halfspace compares, hashes, prints and parses on a and b alone, and
        # every way of building it gives the same margin bits.
        positional = Halfspace(a, b)
        keyword = Halfspace(b=b, a=list(a))
        spec = {"kind": "halfspace", "a": [int(v) if v.is_integer() else v for v in a], "b": b}
        parsed = parse_predicate_table(json.loads(json.dumps({"p": spec})))["p"]
        assert Halfspace._fields == ("a", "b")
        assert positional._terms == tuple((j, v) for j, v in enumerate(a) if v != 0.0)
        assert positional._norm == math.hypot(*a) and not np.signbit(positional._offset)
        assert repr(positional) == f"Halfspace(a={tuple(a)!r}, b={b!r})"
        for p in (keyword, parsed):
            assert p == positional and hash(p) == hash(positional) and repr(p) == repr(positional)
        states = np.random.default_rng(17).normal(size=(2, 6, len(a)))
        states[:, :2] = 0.0
        states[:, 2] = -0.0
        assert_margins_bit_equal(positional, states)
        for p in (keyword, parsed):
            assert margins(p, states).tobytes() == margins(positional, states).tobytes()

    def test_balls_constant_and_slice_centers(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(1, dim // 2 + 1))
            pos = tuple(int(v) for v in rng.choice(dim, size=k, replace=False))
            if rng.random() < 0.5:
                center = StateSlice(tuple(int(v) for v in rng.choice(dim, size=k)))
            else:
                center = tuple(rng.normal(size=k))
            norm = "l2" if rng.random() < 0.5 else "linf"
            p = NormBall(pos, center, float(rng.uniform(0.3, 2.0)), norm)
            # Small scale puts some states inside, large scale others outside.
            assert_margins_bit_equal(p, rng.normal(scale=float(rng.choice([0.3, 3.0])), size=(4, 6, dim)))

    def test_exact_boundary(self):
        states = np.array([[[1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [2.0, 0.0]]])
        for norm in ("l2", "linf"):
            p = NormBall((0, 1), (0.0, 0.0), 1.0, norm)
            assert_margins_bit_equal(p, states)
            assert margins(p, states)[0, 0] == 0.0 and margins(p, states)[0, 1] == 0.0

    def test_pinned_hypot_pair(self):
        # np.hypot rounds this pair to ...658, math.hypot to ...656.
        x, y = 1.760667296993123, 0.19921798301385701
        states = np.array([[[x, y, 0.0, 0.0]]])
        for center in ((0.0, 0.0), StateSlice((2, 3))):
            p = NormBall((0, 1), center, 1.0, "l2")
            assert_margins_bit_equal(p, states)
            assert margins(p, states)[0, 0] == 1.0 - math.hypot(x, y)
        outside = NormBall((0, 1), (-1.0, -1.0), 1.0, "linf")
        assert_margins_bit_equal(outside, states + np.array([1.0, 1.0, 0.0, 0.0]))

    def test_complements(self):
        rng = np.random.default_rng(16)
        states = rng.normal(size=(3, 4, 3))
        assert_margins_bit_equal(Complement(NormBall((0, 2), StateSlice((1, 1)), 0.8, "linf")), states)
        assert_margins_bit_equal(Complement(Halfspace((1.0, -2.0, 0.5), 0.1)), states)

    def test_short_state_raises_the_scalar_message(self):
        states = np.zeros((2, 3, 2))
        for p in (
            Halfspace((1.0, 1.0, 1.0), 0.0),
            NormBall((0, 3), (0.0, 0.0), 0.5, "l2"),
            NormBall((0, 1), StateSlice((1, 2)), 0.5, "linf"),
            Complement(NormBall((4,), (0.0,), 0.5, "linf")),
        ):
            with pytest.raises(DimensionError) as scalar:
                signed_distance_oracle(p, [0.0, 0.0])
            with pytest.raises(DimensionError) as array:
                margins(p, states)
            with pytest.raises(DimensionError) as one:
                signed_distance(p, [0.0, 0.0])
            assert str(array.value) == str(one.value) == str(scalar.value)


class TestPredicateTable:
    def test_parse_full_schema(self):
        table = parse_predicate_table(
            {
                "h": {"kind": "halfspace", "a": [1.0, 0.0], "b": -2.0},
                "ball": {"kind": "ball", "pos": [0, 1], "center": [1.0, 2.0], "radius": 0.5, "norm": "l2"},
                "box": {
                    "kind": "ball",
                    "pos": [0, 1],
                    "center": {"slice": [2, 3]},
                    "radius": 0.5,
                    "norm": "linf",
                    "complement": True,
                },
            }
        )
        assert isinstance(table["h"], Halfspace)
        assert isinstance(table["ball"], NormBall)
        assert isinstance(table["box"], Complement)
        assert table["box"].inner.center == StateSlice((2, 3))

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            parse_predicate_table({"p": {"kind": "polytope"}})

    def test_missing_field(self):
        with pytest.raises(FormatError):
            parse_predicate_table({"p": {"kind": "ball", "pos": [0]}})

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "halfspace", "a": [1e400], "b": 0}',
            '{"kind": "halfspace", "a": [1, NaN], "b": 0}',
            '{"kind": "halfspace", "a": [1], "b": NaN}',
            '{"kind": "halfspace", "a": [1], "b": -Infinity}',
            '{"kind": "halfspace", "a": [1e-310], "b": 1}',
            '{"kind": "halfspace", "a": [1e-10], "b": 1e300}',
            '{"kind": "ball", "pos": [0], "center": [Infinity], "radius": 1}',
            '{"kind": "ball", "pos": [0], "center": [NaN], "radius": 1}',
            '{"kind": "ball", "pos": [0], "center": [0], "radius": 1e400}',
            '{"kind": "ball", "pos": [0], "center": [0], "radius": NaN}',
        ],
    )
    def test_non_finite_number_names_the_predicate(self, text):
        with pytest.raises(FormatError, match="^predicate 'p': .*finite"):
            parse_predicate_table({"p": json.loads(text)})
