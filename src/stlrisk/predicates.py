"""Predicate definitions with closed-form signed distances.

A predicate carves the state space into a satisfying set and its complement.
A state's margin is its Euclidean signed distance to that set: positive
inside (distance to the complement's closure), negative outside (minus the
distance to the set's closure), zero on the boundary.  The Boolean reading
is ``margin >= 0``, so boundaries count as satisfying, matching the closed
">= 0"-style sets below.

``margins`` is the one implementation: it maps an ``(..., d)`` array of
states to their margins, and the evaluator calls it once per predicate.
``signed_distance`` is its one-state case.

The families, all of which the JSON table below can build:

* ``Halfspace(a, b)``      -- {x : a.x + b >= 0}, margin (a.x + b)/|a|.
* ``NormBall(pos, center, radius, norm)`` -- {x : |x[pos] - center| <= radius}
  in the L2 or Linf norm.  ``center`` is either a constant point or a
  ``StateSlice`` read from the same state vector; a slice center is treated
  as a reference point (the margin is measured in the ``pos`` coordinates
  with the center held fixed).
* ``Complement(inner)``    -- set complement, flipping the sign.

A JSON predicate table maps names to definitions::

    {"near_goal": {"kind": "ball", "pos": [0, 1], "center": [7.0, 2.0],
                   "radius": 0.7, "norm": "l2"},
     "above":     {"kind": "halfspace", "a": [0.0, 1.0], "b": -1.0},
     "off_limits":{"kind": "ball", "pos": [0, 1], "center": {"slice": [2, 3]},
                   "radius": 0.5, "norm": "linf", "complement": true}}
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ._record import Record
from .errors import DimensionError, FormatError
from .trace import read_json, shortened

__all__ = [
    "StateSlice",
    "Halfspace",
    "NormBall",
    "Complement",
    "PredicateDef",
    "signed_distance",
    "margins",
    "load_predicates",
    "read_predicates",
    "parse_predicate_table",
]

L2 = "l2"
LINF = "linf"


def real_numbers(values, what: str) -> tuple:
    """``values``, a list or tuple, as finite floats: a bool, a string or
    anything else that is not a real number is refused, not coerced, with a
    ValueError naming ``what``; so is a NaN, an infinity, an integer beyond
    the float range, or ``values`` that are not a list."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what}: expected a list of numbers, got {shortened(repr(values))}")
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{what}: expected real numbers, got {shortened(repr(list(values)))}")
    try:
        numbers = tuple(map(float, values))
    except OverflowError:  # an integer beyond the float range
        numbers = (math.inf,)
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{what}: values must be finite, got {shortened(repr(list(values)))}")
    return numbers


def _indices(values, what: str) -> tuple:
    """``values``, a list or tuple, as a non-empty tuple of ints from 0 to ``sys.maxsize``
    (no state has more components); a bool, a float or a string is refused, not coerced."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what}: expected a list of state indices, got {shortened(repr(values))}")
    if not values or not all(isinstance(i, Integral) and not isinstance(i, bool) and i >= 0 for i in values):
        raise ValueError(f"{what} must be non-negative integer state indices, got {shortened(repr(list(values)))}")
    if max(values) > sys.maxsize:  # not quoted: str() refuses an int of over 4300 digits
        raise ValueError(f"{what}: state indices must be at most sys.maxsize = {sys.maxsize}")
    return tuple(map(int, values))


class StateSlice(Record):
    """Indices into the state vector, used as a predicate's moving center."""

    indices: tuple

    def __post_init__(self):
        vars(self)["indices"] = _indices(self.indices, "state slice")


class Halfspace(Record):
    """{x : a.x + b >= 0}.  Besides its fields it keeps, for ``margins``,
    ``_terms``, the (j, a_j) with a_j != 0, ``_offset`` = b + 0.0 and
    ``_norm`` = |a|: none of them is a field, so they take no part in
    ``==``, ``hash`` or ``repr``."""

    a: tuple
    b: float

    def __post_init__(self):
        a, (b,) = real_numbers(self.a, "a"), real_numbers((self.b,), "b")
        if not a or all(v == 0.0 for v in a):
            raise ValueError("halfspace normal must be a non-zero vector")
        norm = math.hypot(*a)
        if not (math.isfinite(norm) and math.isfinite(1.0 / norm) and math.isfinite(b / norm)):
            raise ValueError(f"halfspace |a|, 1/|a| and b/|a| must be finite, got |a|={norm!r}, b={b!r}")
        terms = tuple((j, aj) for j, aj in enumerate(a) if aj != 0.0)
        vars(self).update(a=a, b=b, _terms=terms, _offset=b + 0.0, _norm=norm)


class NormBall(Record):
    pos: tuple
    center: Union[tuple, StateSlice]
    radius: float
    norm: str = L2

    def __post_init__(self):
        pos = _indices(self.pos, "pos")
        slice_center = isinstance(self.center, StateSlice)
        center = self.center if slice_center else real_numbers(self.center, "center")
        if len(center.indices if slice_center else center) != len(pos):
            raise ValueError("pos and center must have equal length")
        (radius,) = real_numbers((self.radius,), "radius")
        if not radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if self.norm not in (L2, LINF):
            raise ValueError(f"norm must be {L2!r} or {LINF!r}, got {shortened(repr(self.norm))}")
        vars(self).update(pos=pos, center=center, radius=radius)


class Complement(Record):
    inner: "PredicateDef"


PredicateDef = Union[Halfspace, NormBall, Complement]


def _hypot(x: np.ndarray) -> np.ndarray:
    """math.hypot over the last axis of x; it sets no numpy error flag, so an infinite norm of finite x raises here."""
    columns = [c.ravel().tolist() for c in np.moveaxis(x, -1, 0)]
    norms = np.fromiter(map(math.hypot, *columns), float, x.size // x.shape[-1]).reshape(x.shape[:-1])
    if np.isinf(norms).any() and np.isfinite(x).all():
        raise FloatingPointError("overflow encountered in math.hypot")
    return norms


def margins(p: PredicateDef, states: np.ndarray) -> np.ndarray:
    """Margins of an (..., d) array of states, shaped (...).

    For finite states each entry has the same bits on every Python version
    and the same bits as the scalar test oracle: a halfspace's dot product
    has the bits of a left-to-right sum from 0 (``sum`` of floats
    compensates from Python 3.12), and Euclidean norms are taken with
    ``math.hypot`` (``np.hypot`` rounds some pairs differently).  A
    halfspace makes no array pass that cannot change a bit: it skips terms
    with coefficient 0, takes a column whose coefficient is 1 as it is, and
    divides only by a norm other than 1.  A Euclidean norm that overflows
    on finite states raises FloatingPointError.
    """
    states = np.asarray(states, dtype=float)
    dim = states.shape[-1]
    if isinstance(p, Halfspace):
        if dim != len(p.a):
            raise DimensionError(f"halfspace of dim {len(p.a)} applied to state of dim {dim}")
        # A sum from 0 is never -0.0, so a zero term changes none of its bits.
        # From the first term, the sum is -0.0 where every term is; adding
        # b + 0.0, never -0.0, makes that +0.0 as a sum from 0 has it.
        dot = None
        for j, aj in p._terms:
            term = states[..., j] if aj == 1.0 else aj * states[..., j]
            dot = term if dot is None else dot + term
        dot = dot + p._offset
        return dot if p._norm == 1.0 else dot / p._norm
    if isinstance(p, NormBall):
        slice_center = isinstance(p.center, StateSlice)
        for i in p.pos + (p.center.indices if slice_center else ()):
            if i >= dim:
                raise DimensionError(f"predicate needs state component {i}, state has dim {dim}")
        point = states[..., list(p.pos)]
        center = states[..., list(p.center.indices)] if slice_center else np.array(p.center)
        diffs = np.abs(point - center)
        if p.norm == L2:
            return p.radius - _hypot(diffs)
        # Linf box: inside, the closest exit is through the nearest face;
        # outside, the closest boundary point clamps per coordinate.
        outside = -_hypot(np.maximum(diffs - p.radius, 0.0))
        return np.where(diffs.max(-1) <= p.radius, (p.radius - diffs).min(-1), outside)
    if isinstance(p, Complement):
        return -margins(p.inner, states)
    raise TypeError(f"not a predicate definition: {p!r}")


def signed_distance(p: PredicateDef, state: Sequence[float]) -> float:
    """Euclidean margin of one ``state`` with respect to the predicate's set."""
    return float(margins(p, np.asarray(state, dtype=float)))


def parse_predicate_table(data: dict) -> dict:
    """Build a name -> PredicateDef mapping from decoded JSON."""
    if not isinstance(data, dict):
        raise FormatError("predicate table must be a JSON object")
    table = {}
    for name, spec in data.items():
        try:
            table[name] = _parse_one(spec)
        except ValueError as exc:
            raise FormatError(f"predicate {shortened(repr(name))}: {exc}") from None
    return table


# Each kind's record class, the keys a definition of it may hold (the class's
# fields, "kind" and "complement") and those it must (the fields without a default).
_KINDS = {kind: (cls, {*cls._fields, "kind", "complement"}, {n for n in cls._fields if not hasattr(cls, n)})
          for kind, cls in (("halfspace", Halfspace), ("ball", NormBall))}


def _known(spec: dict, allowed: set, required: set, what: str) -> dict:
    """``spec``, refused if it holds a key outside ``allowed`` or lacks one of ``required``."""
    for adjective, names in (("unknown", spec.keys() - allowed), ("missing", required - spec.keys())):
        if names:
            raise ValueError(f"{adjective} {what} keys: {shortened(', '.join(map(repr, sorted(names))))}")
    return spec


def _parse_one(spec) -> PredicateDef:
    if not isinstance(spec, dict):
        raise ValueError(f"definition must be a JSON object, got {shortened(repr(spec))}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is no kind, and unhashable
        raise ValueError(f"unknown predicate kind {shortened(repr(kind))}" if "kind" in spec else "missing predicate keys: 'kind'")
    cls, allowed, required = _KINDS[kind]
    _known(spec, allowed, required, kind)
    if isinstance(spec.get("center"), dict):  # {"slice": [...]}: the one key that is not a field's name
        spec = {**spec, "center": StateSlice(_known(spec["center"], {"slice"}, {"slice"}, "center")["slice"])}
    p = cls(*[spec[n] if n in spec else getattr(cls, n) for n in cls._fields])
    complement = spec.get("complement", False)
    if not isinstance(complement, bool):
        raise ValueError(f"complement must be true or false, got {shortened(repr(complement))}")
    return Complement(p) if complement else p


def read_predicates(path) -> tuple:
    """The predicate table in a JSON file and the bytes it was parsed from,
    read once."""
    table, data = read_json(Path(path), FormatError, "invalid JSON")
    return parse_predicate_table(table), data


def load_predicates(path) -> dict:
    """Load a predicate table from a JSON file."""
    return read_predicates(path)[0]
