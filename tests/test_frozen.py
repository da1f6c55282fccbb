"""The package's 24 record types: construction, equality, hashing, repr and
immutability, each as a frozen dataclass of the same fields behaves."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from qbag import (
    QBAG,
    QE,
    UNDEFINED,
    Aggregation,
    CheckConfig,
    ContributionTable,
    EulerBased,
    FuzzConfig,
    FuzzWitness,
    Gradient,
    GradientVector,
    GradualSemantics,
    IntrinsicRemoval,
    Linear,
    PMax,
    PrincipleId,
    PrincipleReport,
    Removal,
    ShapleyExact,
    ShapleySampled,
    Verdict,
)
from qbag.corpus import (
    Contribution,
    Example,
    ExpectationResult,
    FinalStrength,
    InitialStrength,
    PrincipleVerdict,
    SweepPoint,
    VerificationReport,
)
from qbag.semantics import StrengthAssignment

GRAPH = QBAG([("a", 0.5), ("b", 1.0)], attacks=[("b", "a")])
REPORT = PrincipleReport(PrincipleId.PROXIMITY, Verdict.VIOLATION, "a", "removal", "QE", {"nearer": "b"})
FINAL = FinalStrength("a", 0.25)
RESULT = ExpectationResult(FINAL, True, 0.25, 0.25, 0.0)

# (value, an unequal value of the same class or None when the class has no
# fields, the value's repr); every repr is what the dataclass versions of
# these types printed
CASES = [
    (Linear(0.5), Linear(1.5), "Linear(k=0.5)"),
    (EulerBased(), None, "EulerBased()"),
    (PMax(2, 1.0), PMax(2, 2.0), "PMax(p=2, k=1.0)"),
    (
        QE,
        GradualSemantics(Aggregation.SUM, PMax(2, 1.0), "other"),
        "GradualSemantics(aggregation=<Aggregation.SUM: 'sum'>, influence=PMax(p=2, k=1.0), name='QE')",
    ),
    (
        StrengthAssignment({"a": 0.25, "b": 1.0}, ("b", "a")),
        StrengthAssignment({"a": 0.25, "b": 1.0}, ("a", "b")),
        "StrengthAssignment(sigma={'a': 0.25, 'b': 1.0}, order=('b', 'a'))",
    ),
    (
        GradientVector("a", {"a": 1.0, "b": -0.5}),
        GradientVector("b", {"a": 1.0, "b": -0.5}),
        "GradientVector(topic='a', partials={'a': 1.0, 'b': -0.5})",
    ),
    (Removal(), None, "Removal()"),
    (IntrinsicRemoval(), None, "IntrinsicRemoval()"),
    (ShapleyExact(5), ShapleyExact(6), "ShapleyExact(cap=5)"),
    (ShapleySampled(10, 3), ShapleySampled(10, 4), "ShapleySampled(permutations=10, seed=3)"),
    (Gradient(), None, "Gradient()"),
    (
        ContributionTable(("a", "b"), "removal", "QE", ((UNDEFINED, 0.0), (-0.25, UNDEFINED))),
        ContributionTable(("a", "b"), "removal", "EB", ((UNDEFINED, 0.0), (-0.25, UNDEFINED))),
        "ContributionTable(arguments=('a', 'b'), method='removal', semantics='QE', "
        "cells=((undef, 0.0), (-0.25, undef)))",
    ),
    (
        CheckConfig(),
        CheckConfig(grid_points=11),
        "CheckConfig(zero_tol=1e-09, eq_tol=1e-09, eps_schedule=(0.01, 0.001, 0.0001, 1e-05), grid_points=101)",
    ),
    (
        REPORT,
        PrincipleReport(PrincipleId.PROXIMITY, Verdict.VIOLATION, "a", "removal", "QE", {"nearer": "c"}),
        "PrincipleReport(principle=<PrincipleId.PROXIMITY: 'proximity'>, verdict=<Verdict.VIOLATION: 'violation'>, "
        "topic='a', method='removal', semantics='QE', witness={'nearer': 'b'}, note='')",
    ),
    (
        FuzzConfig(1, 10),
        FuzzConfig(1, 10, support_only=True),
        "FuzzConfig(seed=1, trials=10, max_args=7, edge_prob=0.35, strength_grid=0.05, support_only=False)",
    ),
    (
        FuzzWitness(0, "a", GRAPH, REPORT),
        FuzzWitness(1, "a", GRAPH, REPORT),
        "FuzzWitness(trial=0, topic='a', graph=QBAG(a=0.5, b=1; attacks=1, supports=0), "
        "report=PrincipleReport(principle=<PrincipleId.PROXIMITY: 'proximity'>, "
        "verdict=<Verdict.VIOLATION: 'violation'>, topic='a', method='removal', semantics='QE', "
        "witness={'nearer': 'b'}, note=''))",
    ),
    (
        FINAL,
        FinalStrength("a", 0.25, 1e-9),
        "FinalStrength(argument='a', expected=0.25, tol=0.0001, semantics=None, note='')",
    ),
    (
        InitialStrength("a", 0.5),
        InitialStrength("a", 0.5, note="n"),
        "InitialStrength(argument='a', expected=0.5, tol=1e-12, semantics=None, note='')",
    ),
    (
        Contribution("removal", "b", "a", UNDEFINED),
        Contribution("removal", "b", "a", 0.0),
        "Contribution(method='removal', contributor='b', topic='a', expected=undef, tol=1e-09, semantics=None, "
        "note='')",
    ),
    (
        PrincipleVerdict("proximity", "removal", "a", "violation"),
        PrincipleVerdict("proximity", "removal", "a", "satisfied-on-instance"),
        "PrincipleVerdict(principle='proximity', method='removal', topic='a', expected='violation', "
        "semantics=None, note='')",
    ),
    (
        SweepPoint("a", "b", 0.01, 0.2475),
        SweepPoint("a", "b", -0.01, 0.2475),
        "SweepPoint(topic='a', vary='b', epsilon=0.01, expected=0.2475, tol=1e-09, semantics=None, note='')",
    ),
    (
        Example("two", "two arguments", "demo", GRAPH, "qe", (FINAL,), ("n",)),
        Example("two", "two arguments", "demo", GRAPH, "qe", (FINAL,)),
        "Example(id='two', description='two arguments', group='demo', "
        "graph=QBAG(a=0.5, b=1; attacks=1, supports=0), semantics='qe', "
        "expectations=(FinalStrength(argument='a', expected=0.25, tol=0.0001, semantics=None, note=''),), "
        "notes=('n',))",
    ),
    (
        RESULT,
        ExpectationResult(FINAL, False, 0.25, 0.25, 0.0),
        "ExpectationResult(expectation=FinalStrength(argument='a', expected=0.25, tol=0.0001, semantics=None, "
        "note=''), ok=True, actual=0.25, expected=0.25, delta=0.0)",
    ),
    (
        VerificationReport("two", True, (RESULT,)),
        VerificationReport("two", True, ()),
        "VerificationReport(example_id='two', passed=True, results=(ExpectationResult(expectation="
        "FinalStrength(argument='a', expected=0.25, tol=0.0001, semantics=None, note=''), ok=True, "
        "actual=0.25, expected=0.25, delta=0.0),))",
    ),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


def test_every_record_type_is_listed_once():
    assert len(set(IDS)) == len(IDS) == 24


@pytest.mark.parametrize("value, other, text", CASES, ids=IDS)
def test_repr_lists_the_fields_in_order(value, other, text):
    assert repr(value) == text
    # the instance dict holds the fields in that order
    fields = ", ".join(f"{name}={field!r}" for name, field in vars(value).items())
    assert text == f"{type(value).__qualname__}({fields})"


@pytest.mark.parametrize("value, other, text", CASES, ids=IDS)
def test_equality_and_hash(value, other, text):
    twin = type(value)(**vars(value))
    assert twin is not value and twin == value and value == twin and not twin != value
    if other is not None:
        assert other != value and value != other and not other == value
    # unequal to every value of every other class, fields or not
    for stranger, _, _ in CASES:
        if type(stranger) is not type(value):
            assert value != stranger and stranger != value
    assert value != object() and value != tuple(vars(value).values())
    try:
        expected = hash(tuple(vars(value).values()))
    except TypeError:  # a dict-valued field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == expected
        assert {value: 1}[twin] == 1


@pytest.mark.parametrize("value, other, text", CASES, ids=IDS)
def test_copy_and_pickle_restore_an_equal_value(value, other, text):
    try:
        hash(value)  # a hashed record copies as an unhashed one does
    except TypeError:
        pass
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text
    assert copy.copy(value) is not value and vars(copy.copy(value)) is not vars(value)


def test_classes_with_no_fields_are_equal_only_to_their_own():
    assert Removal() == Removal() and hash(Removal()) == hash(Gradient()) == hash(())
    assert Removal() != Gradient() and IntrinsicRemoval() != Removal() and EulerBased() != Gradient()
    assert len({Removal(), IntrinsicRemoval(), Gradient(), Removal()}) == 3


@pytest.mark.parametrize("value, other, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(value, other, text):
    for name in (*vars(value), "unlisted"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, other, text", CASES, ids=IDS)
def test_argument_binding_errors(value, other, text):
    cls, fields = type(value), vars(value)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unlisted'"):
        cls(**fields, unlisted=None)
    with pytest.raises(TypeError, match="positional arguments? but"):
        cls(*fields.values(), None)
    if fields:
        first = next(iter(fields))
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*fields.values(), **{first: fields[first]})
    # keywords bind like positionals
    assert cls(**fields) == cls(*fields.values()) == value


@pytest.mark.parametrize(
    "make, missing",
    [
        (lambda: PMax(), "p"),
        (lambda: GradualSemantics(Aggregation.SUM), "influence"),
        (lambda: ShapleySampled(seed=3), "permutations"),
        (lambda: FuzzConfig(trials=10), "seed"),
        (lambda: PrincipleReport(PrincipleId.PROXIMITY, Verdict.VIOLATION, "a", "removal"), "semantics"),
        (lambda: Contribution("removal", "b", "a"), "expected"),
        (lambda: VerificationReport("two", True), "results"),
    ],
)
def test_a_missing_argument_raises(make, missing):
    with pytest.raises(TypeError, match=f"missing .*'{missing}'"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: Linear(0.0),
        lambda: PMax(0),
        lambda: PMax(2, -1.0),
        lambda: ShapleyExact(0),
        lambda: ShapleyExact(2.5),
        lambda: ShapleySampled(0, 1),
        lambda: ShapleySampled(1, -1),
        lambda: CheckConfig(eq_tol=0.0),
        lambda: CheckConfig(eps_schedule=()),
        lambda: FuzzConfig(1, 0),
        lambda: FuzzConfig(1, 10, edge_prob=1.0),
    ],
)
def test_post_init_validation_still_runs(make):
    with pytest.raises(ValueError):
        make()


def test_post_init_normalizes_fields():
    assert CheckConfig(eps_schedule=[1e-2, 1e-3]).eps_schedule == (1e-2, 1e-3)
    assert type(ShapleyExact(True).cap) is int and ShapleyExact(True) == ShapleyExact(1)


def test_report_default_witness_is_a_fresh_dict():
    fields = (PrincipleId.PROXIMITY, Verdict.SATISFIED_ON_INSTANCE, "a", "removal", "QE")
    first, second = PrincipleReport(*fields), PrincipleReport(*fields)
    assert first.witness == {} and second.witness == {} and first.witness is not second.witness
    assert first.note == "" and first == second
    assert list(vars(first)) == ["principle", "verdict", "topic", "method", "semantics", "witness", "note"]
