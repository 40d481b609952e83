"""The record contract: every immutable value class of the package is a
``Record``, built by one generic ``__init__`` without ``dataclasses``."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import ClassVar

import pytest

import stlrisk
from stlrisk._record import Record
from stlrisk.formula import (
    TRUE,
    AlwaysFuture,
    AlwaysPast,
    And,
    EventuallyFuture,
    EventuallyPast,
    Horizon,
    Not,
    Or,
    Predicate,
    TimeInterval,
    TrueFormula,
    Until,
    UntilFuture,
    UntilPast,
    Window,
)
from stlrisk.parser import SourceSpan, parse
from stlrisk.predicates import Complement, Halfspace, NormBall, StateSlice
from stlrisk.risk import RiskParams, RiskResult, RobustnessSamples, VarTriple
from stlrisk.scenario import CaseStudyConfig, CaseStudyResult, CaseStudyRow
from stlrisk.trace import Ensemble, Trace

SRC = Path(stlrisk.__file__).parent
P, Q, IV = Predicate("p"), Predicate("q"), TimeInterval(0, 2)

FORMULAS = [
    TRUE,
    P,
    Not(P),
    And(P, Q),
    Or(P, Q),
    Until(P, Q, IV),
    UntilFuture(P, Q, IV),
    UntilPast(P, Q, IV),
    Window(P, IV),
    EventuallyFuture(P, IV),
    AlwaysFuture(P, IV),
    EventuallyPast(P, IV),
    AlwaysPast(P, IV),
]
TRACE = Trace([[0.0, 1.0], [2.0, 3.0]])
# One instance of every Record class in the package.
EXAMPLES = FORMULAS + [
    IV,
    Horizon(3, 0),
    SourceSpan(0, 1),
    StateSlice((1,)),
    Halfspace((1.0, 0.0), -1.0),
    NormBall((0, 1), StateSlice((2, 3)), 0.5),
    Complement(Halfspace((1.0,), 0.0)),
    RobustnessSamples([0.5, -1.0]),
    RiskParams(),
    VarTriple(0.0, 1.0, 2.0, 0.1),
    RiskResult("worst", 1.0, n=2),
    CaseStudyConfig(),
    CaseStudyRow(1, 0.9, 0.0, 0.5, 1.0),
    CaseStudyResult(CaseStudyConfig(), ()),
    TRACE,
    Ensemble([TRACE]),
]


def record_classes():
    """Every subclass of Record, at any depth, that the package defines."""
    found, stack = set(), [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return {cls for cls in found if cls.__module__.startswith("stlrisk.")}


def test_examples_cover_every_record_class():
    assert {type(e) for e in EXAMPLES} == record_classes()


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda e: type(e).__name__)
def test_assignment_and_deletion_are_refused(record):
    # Fields and new names alike: a frozen dataclass refused only field
    # names, so the six operator subclasses took new attributes.
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert "extra" not in vars(record)


def test_equal_nodes_are_equal_and_hash_alike():
    text = "G[0,3](!inC & !inD) & F[1,2](inA & F[0,1] inB)"
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # Equality is type-strict: the same fields in another class differ.
    assert And(P, Q) != Or(P, Q)
    assert EventuallyFuture(P, IV) != AlwaysFuture(P, IV)
    assert UntilFuture(P, Q, IV) != UntilPast(P, Q, IV)
    assert P != "p" and P != ("p",)


def test_traces_ensembles_and_samples_compare_by_identity():
    for make in (lambda: Trace([[1.0]]), lambda: Ensemble([Trace([[1.0]])]), lambda: RobustnessSamples([1.0])):
        a, b = make(), make()
        assert a == a and a != b and hash(a) != hash(b)


def test_repr_names_each_field():
    assert repr(IV) == "TimeInterval(lo=0, hi=2)"
    assert repr(TRUE) == "TrueFormula()"
    assert repr(EventuallyFuture(P, IV)) == "EventuallyFuture(child=Predicate(name='p'), interval=TimeInterval(lo=0, hi=2))"
    assert repr(RiskParams()) == "RiskParams(beta=0.9, delta=0.05, lam=0.0, bounds=None)"


@pytest.mark.parametrize("node", FORMULAS, ids=lambda n: type(n).__name__)
def test_positional_match_binds_fields_in_order(node):
    match node:
        case TrueFormula():
            got = ()
        case Predicate(a) | Not(a):
            got = (a,)
        case And(a, b) | Or(a, b):
            got = (a, b)
        case UntilFuture(a, b, c) | UntilPast(a, b, c) | Until(a, b, c):
            got = (a, b, c)
        case EventuallyFuture(a, b) | AlwaysFuture(a, b) | EventuallyPast(a, b) | AlwaysPast(a, b) | Window(a, b):
            got = (a, b)
    assert got == tuple(getattr(node, name) for name in type(node)._fields)
    assert type(node).__match_args__ == type(node)._fields


def test_keywords_and_class_defaults():
    assert RiskParams() == RiskParams(0.9, 0.05, 0.0, None) == RiskParams(beta=0.9)
    assert (RiskParams.beta, RiskParams.delta, RiskParams.lam, RiskParams.bounds) == (0.9, 0.05, 0.0, None)
    assert RiskParams(delta=0.1) == RiskParams(0.9, 0.1)
    assert TimeInterval(hi=3, lo=1) == TimeInterval(1, 3)
    assert NormBall((0,), (0.0,), 1.0).norm == "l2"
    assert NormBall(pos=(0,), center=(0.0,), radius=1.0, norm="linf").norm == "linf"
    assert CaseStudyConfig(n=5) == CaseStudyConfig(42, 5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeInterval(1),  # missing
        lambda: Predicate(),  # missing
        lambda: NormBall((0,), (0.0,)),  # missing radius; norm has a default
        lambda: TimeInterval(1, 2, 3),  # too many positional values
        lambda: TimeInterval(1, 2, width=1),  # unknown
        lambda: RiskParams(gamma=0.5),  # unknown
        lambda: TimeInterval(1, 2, lo=1),  # repeated
        lambda: TrueFormula(1),  # a record without fields takes none
    ],
)
def test_missing_unknown_or_repeated_field_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_class_vars_are_not_fields():
    for cls in (Until, UntilFuture, UntilPast):
        assert cls._fields == ("left", "right", "interval")
    for cls in (Window, EventuallyFuture, AlwaysFuture, EventuallyPast, AlwaysPast):
        assert cls._fields == ("child", "interval")
    node = EventuallyPast(P, IV)
    assert (node.symbol, node.past, node.eventually) == ("O", True, True)
    assert set(vars(node)) == {"child", "interval"}


def test_fields_follow_inherited_ones_with_typing_annotations():
    # Annotations evaluated at class creation, as without
    # ``from __future__ import annotations``: ClassVar is typing.ClassVar.
    class Base(Record):
        x: int
        tag: ClassVar[str] = "base"

    class Child(Base):
        y: str = "d"

    assert Base._fields == ("x",) and Child._fields == Child.__match_args__ == ("x", "y")
    assert repr(Child(1)) == f"{Child.__qualname__}(x=1, y='d')" and Child.tag == "base"


def test_import_adds_no_dataclasses_module():
    # Each @dataclass built its methods with exec, about 1 ms per class in
    # every fresh process.
    code = "import sys, numpy; before = set(sys.modules)\nimport stlrisk.cli; print('dataclasses' in set(sys.modules) - before)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_no_source_file_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path
