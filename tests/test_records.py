"""The package's reports are plain immutable records, not dataclasses, and
every value type follows the same read-only rule (`scalars._Frozen`).

- `import fuchsian.cli` in a fresh interpreter loads none of `dataclasses`
  and the modules it pulls in, which would cost every CLI process about
  20 ms before any maths starts.
- Each record kind, taken from a real output of the package, keeps what a
  frozen dataclass gave it: equality with its deepcopy and its pickle round
  trip, equality only within its own class, a hash that agrees with
  equality, no assignment or deletion, construction by field, and the
  dataclass repr byte for byte.
- A `Polynomial`, an `ExponentPair` and a `Matrix` from real outputs pass
  the same checks but construction by field: copies and pickles go
  through the constructor, so unpickling a `Matrix` runs its shape checks.
"""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fuchsian
from fuchsian import (
    ExponentPair,
    FuchsianInstance,
    GaussianRational,
    Matrix,
    check_momenta,
    classify,
    construct,
    eliminate,
    quadratic_constraints,
    verify,
)
from fuchsian.builder import h_matrix
from fuchsian.scalars import _Frozen, _Record

HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

SQUARE3 = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (-1, (0, 1))], (-1, -1), [(2, 3)])
N2N1_GOOD = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 1)])
N2N1_BAD = N2N1_GOOD.with_momenta([GaussianRational(3)])
MATRIX = Matrix.from_rows([[1, 2, 3], [2, 4, GaussianRational(0, 1)]])

# repr(verify(construct(SQUARE3))) as the frozen dataclasses printed it
SQUARE3_REPR = (
    "VerificationReport(finite=("
    "FinitePointReport(point=GaussianRational('0', '0'), expected={0, 1}, "
    "indicial=Indicial(sum=GaussianRational('1', '0'), product=GaussianRational('0', '0'), "
    "pair={1, 0}), match=True), "
    "FinitePointReport(point=GaussianRational('1', '0'), expected={0, 1}, "
    "indicial=Indicial(sum=GaussianRational('1', '0'), product=GaussianRational('0', '0'), "
    "pair={1, 0}), match=True), "
    "FinitePointReport(point=GaussianRational('-1', '0'), expected={0, 1}, "
    "indicial=Indicial(sum=GaussianRational('1', '0'), product=GaussianRational('0', '0'), "
    "pair={1, 0}), match=True)), "
    "apparent=(ApparentPointReport(point=GaussianRational('2', '0'), "
    "residue=GaussianRational('-1', '0'), residue_ok=True, double_pole_absent=True, "
    "indicial=Indicial(sum=GaussianRational('2', '0'), product=GaussianRational('0', '0'), "
    "pair={2, 0}), indicial_ok=True, momentum_expected=GaussianRational('3', '0'), "
    "momentum_recovered=GaussianRational('3', '0'), momentum_ok=True, "
    "obstruction=GaussianRational('0', '0'), log_free=True, residual_ok=True),), "
    "infinity=InfinityReport(expected={-1, -1}, "
    "indicial=Indicial(sum=GaussianRational('-2', '0'), product=GaussianRational('1', '0'), "
    "pair={-1, -1}), match=True), overall=True)"
)


def test_cli_import_loads_no_dataclasses():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import fuchsian.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(Path(fuchsian.__file__).parent.parent)},
        timeout=60,
    )
    added = json.loads(result.stdout)
    assert "fuchsian.cli" in added
    assert [name for name in HEAVY_MODULES if name in added] == []


def _records():
    report = verify(construct(SQUARE3))
    records = [
        ("CaseReport", classify(SQUARE3)),
        ("MomentaCheck", check_momenta(N2N1_GOOD)),
        ("MomentaCheck-violated", check_momenta(N2N1_BAD)),
        ("QuadraticConstraint", quadratic_constraints(N2N1_GOOD)[0]),
        ("VerificationReport", report),
        ("FinitePointReport", report.finite[0]),
        ("ApparentPointReport", report.apparent[0]),
        ("InfinityReport", report.infinity),
        ("Indicial", report.infinity.indicial),
        ("SolveOutcome", eliminate(MATRIX, [1, 0])),
    ]
    return records


RECORDS = _records()
_SQUARE3_REPORT = dict(RECORDS)["VerificationReport"]
# the read-only values that are not records, from real outputs
VALUES = RECORDS + [
    ("Polynomial", construct(SQUARE3).h),
    ("ExponentPair", _SQUARE3_REPORT.finite[0].indicial.pair),
    ("Matrix", h_matrix(SQUARE3)),
]


def test_every_record_kind_is_covered():
    kinds = {type(record).__name__ for _, record in RECORDS}
    assert kinds == {
        "CaseReport", "QuadraticConstraint", "MomentaCheck", "Indicial", "FinitePointReport",
        "InfinityReport", "ApparentPointReport", "VerificationReport", "SolveOutcome",
    }
    records = dict(RECORDS)
    assert records["MomentaCheck"].equation is not None
    assert records["MomentaCheck-violated"].violations


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _field_names(value):
    return value._fields if isinstance(value, _Record) else type(value).__slots__


def _hash_or_none(record):
    try:
        return hash(record)
    except TypeError:  # a field holds a dict, as in QuadraticConstraint
        return None


@pytest.mark.parametrize("record", [r for _, r in VALUES], ids=[i for i, _ in VALUES])
def test_record_copies_are_equal(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin is not record and type(twin) is type(record)
        assert twin == record and not twin != record
        assert repr(twin) == repr(record)
        assert _hash_or_none(twin) == _hash_or_none(record)
    if _hash_or_none(record) is not None:
        assert {record: 1}[copy.deepcopy(record)] == 1
    assert record.__reduce__() == (type(record), record._value())


@pytest.mark.parametrize("record", [r for _, r in VALUES], ids=[i for i, _ in VALUES])
def test_record_equals_only_its_own_class(record):
    values = record._value()
    if isinstance(record, _Record):
        fields = dict.fromkeys(record._fields)
        other = type("Other", (_Record,), {"__annotations__": fields})(*values)
    else:
        other = type("Other", (_Frozen,), {"_value": lambda self: values})()
    assert other._value() == values
    assert record != other and other != record
    assert record != values and values != record
    assert record == type(record)(*values)


@pytest.mark.parametrize("record", [r for _, r in VALUES], ids=[i for i, _ in VALUES])
def test_record_is_immutable(record):
    before = repr(record), record._value()
    for name in _field_names(record):
        for value in (None, getattr(record, name)):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    assert (repr(record), record._value()) == before


def test_exponent_pair_is_unordered_in_equality_and_hash():
    pair = _SQUARE3_REPORT.finite[0].indicial.pair
    swapped = ExponentPair(pair.rho2, pair.rho1)
    assert pair.rho1 != pair.rho2 and swapped.rho1 == pair.rho2
    assert swapped == pair and hash(swapped) == hash(pair)
    assert {pair: 1}[swapped] == 1


def test_unpickling_a_matrix_runs_its_shape_checks():
    data = pickle.dumps(MATRIX)
    tampered = data.replace(b"K\x02K\x03", b"K\x02K\x04")  # the call Matrix(2, 3, ...)
    assert tampered != data
    with pytest.raises(ValueError, match="expected 8 entries for a 2x4 matrix"):
        pickle.loads(tampered)


@pytest.mark.parametrize("record", [r for _, r in RECORDS], ids=[i for i, _ in RECORDS])
def test_record_constructs_by_field(record):
    cls, fields, values = type(record), record._fields, _values(record)
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), unknown=None)


def test_nested_report_repr_is_the_dataclass_repr():
    assert repr(verify(construct(SQUARE3))) == SQUARE3_REPR
