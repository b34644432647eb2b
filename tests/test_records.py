"""The contract of the eight records (NamedTuples): a repr that names each
field in order, a hash that equal records share, fields that cannot be
assigned, and the checks of the records that validate, also on ``_replace``."""

import pickle
import re
from fractions import Fraction

import pytest

from diagfock.fock import GaugePair, VectorPair
from diagfock.levy import GeneratorPair, LevySpec
from diagfock.orthopoly import JacobiData
from diagfock.partitions import DiagonalPartition, SetPartition
from diagfock.scalars import DeformationParams, Q, T, V, W
from diagfock.wick import QuadrabasicOp

HALF = Fraction(1, 2)
X = VectorPair.of([1, HALF], [Fraction(-2, 3)])
G = GaugePair.of([[1, 0], [HALF, 2]], [[3]])

# (a fresh record, its field names in order): each call builds new objects
RECORDS = {
    "DeformationParams": (
        lambda: DeformationParams.from_rationals(HALF, 1, Fraction(1, 3), 1),
        ("q", "t", "v", "w"),
    ),
    "DeformationParams symbolic": (DeformationParams.symbolic, ("q", "t", "v", "w")),
    "DiagonalPartition": (
        lambda: DiagonalPartition(SetPartition(4, [[1, 3], [2, 4]]), SetPartition(4, [[1, 4], [2, 3]])),
        ("top", "bar"),
    ),
    "JacobiData": (lambda: JacobiData((HALF, Fraction(0)), (Fraction(3),)), ("beta", "gamma")),
    "VectorPair": (lambda: VectorPair.of([1, HALF], [Fraction(-2, 3)]), ("xi", "eta")),
    "GaugePair": (lambda: GaugePair.of([[1, 0], [HALF, 2]], [[3]]), ("top", "bar")),
    "LevySpec": (
        lambda: LevySpec.of([[1], [HALF]], [[[2]], [[0]]], [HALF, 1], gram=[[3]]),
        ("k", "d", "xi", "T", "lam", "gram"),
    ),
    "GeneratorPair": (lambda: GeneratorPair.of(HALF, [1, 0, 2]), ("lam", "tau_moments")),
    "QuadrabasicOp": (lambda: QuadrabasicOp(X, G, HALF, Fraction(2)), ("vector", "gauge", "lam", "lambar")),
}


@pytest.mark.parametrize("make, fields", RECORDS.values(), ids=RECORDS)
def test_repr_names_each_field_in_order(make, fields):
    record = make()
    name = type(record).__name__
    assert repr(record) == f"{name}(" + ", ".join(f"{f}={getattr(record, f)!r}" for f in fields) + ")"


def test_repr_text():
    assert repr(RECORDS["DeformationParams"][0]()) == (
        "DeformationParams(q=Fraction(1, 2), t=Fraction(1, 1), v=Fraction(1, 3), w=Fraction(1, 1))"
    )
    assert repr(QuadrabasicOp(X, None)) == (
        "QuadrabasicOp(vector=VectorPair(xi=(Fraction(1, 1), Fraction(1, 2)), eta=(Fraction(-2, 3),)), "
        "gauge=None, lam=Fraction(0, 1), lambar=Fraction(0, 1))"
    )


@pytest.mark.parametrize("make, fields", RECORDS.values(), ids=RECORDS)
def test_equal_records_hash_alike(make, fields):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    # the hash of the tuple of the fields, as a frozen dataclass hashed
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    # the records unpack, and equal the plain tuple of their fields
    assert tuple(a) == tuple(getattr(a, f) for f in fields) == a
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a


@pytest.mark.parametrize("make, fields", RECORDS.values(), ids=RECORDS)
def test_fields_cannot_be_assigned(make, fields):
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_defaults():
    op = QuadrabasicOp(X, None)
    assert (op.lam, op.lambar) == (Fraction(0), Fraction(0)) and op.scalar == 0
    assert LevySpec(1, 1, ((Fraction(1),),), (((Fraction(1),),),), (Fraction(1),)).gram is None


def test_properties_and_classmethods():
    assert DeformationParams.symbolic() == (Q, T, V, W)
    assert RECORDS["DiagonalPartition"][0]().n == 4
    assert JacobiData((1, 2), (3,)).depth == 2
    assert QuadrabasicOp(X, G, HALF, Fraction(2)).scalar == 1


ONE, TWO = SetPartition(1, [[1]]), SetPartition(2, [[1, 2]])

# (id, the record's constructor, bad arguments, the message it raises)
INVALID = [
    ("DiagonalPartition n", DiagonalPartition, (ONE, TWO), "top and bar must partition the same [n]"),
    (
        "DiagonalPartition roles",
        DiagonalPartition,
        (TWO, SetPartition(2, [[1], [2]])),
        "top and bar role vectors differ; not a diagonal partition",
    ),
    ("JacobiData", JacobiData, ((HALF,), (HALF,)), "need exactly one more beta than gamma"),
    (
        "QuadrabasicOp T",
        QuadrabasicOp,
        (X, GaugePair.of([[1]], [[1]])),
        "gauge T must be 2 x 2 to act on a 2-dimensional vector",
    ),
    (
        "QuadrabasicOp Tbar",
        QuadrabasicOp,
        (X, GaugePair.of([[1, 0], [0, 1]], [[1, 0], [0, 1]])),
        "gauge Tbar must be 1 x 1 to act on a 1-dimensional vector",
    ),
]


@pytest.mark.parametrize("cls, args, message", [e[1:] for e in INVALID], ids=[e[0] for e in INVALID])
def test_direct_construction_is_checked(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls._make(args)


def test_replace_is_checked():
    jacobi = JacobiData((HALF,), ())
    assert jacobi._replace(beta=(1, 2), gamma=(3,)) == JacobiData((1, 2), (3,))
    with pytest.raises(ValueError, match="^need exactly one more beta than gamma$"):
        jacobi._replace(beta=(1, 2))
    with pytest.raises(ValueError, match="^gauge T must be 2 x 2"):
        QuadrabasicOp(X, None)._replace(gauge=GaugePair.of([[1]], [[1]]))
    partition = RECORDS["DiagonalPartition"][0]()
    with pytest.raises(ValueError, match="^top and bar role vectors differ"):
        partition._replace(bar=SetPartition(4, [[1, 2, 3, 4]]))
