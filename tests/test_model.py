"""The structural check when an instance is built, read-only instances and
equations, the admissibility defect, the point frame, and the JSON schemas."""

import copy
import pickle
import random
from fractions import Fraction

import fraction_reference as ref
import pytest
from conftest import frame_psi

from fuchsian.model import (
    ExponentPair,
    FuchsianEquation,
    FuchsianInstance,
    InvalidInstance,
    equation_from_json_obj,
    equation_to_json_obj,
    fuchs_defect,
    instance_from_json_obj,
    instance_to_json_obj,
    _psi_ints,
)
from fuchsian.builder import construct, h_matrix
from fuchsian.frobenius import verify
from fuchsian.polynomials import Polynomial
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EXAMPLE_A = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 2))


def test_exponent_pair_is_unordered():
    assert ExponentPair(1, 2) == ExponentPair(2, 1)
    assert ExponentPair(1, 2) != ExponentPair(1, 1)
    assert hash(ExponentPair(1, 2)) == hash(ExponentPair(2, 1))


def _pair(value):
    return GaussianRational.coerce(value).to_pair()


P2 = [(0, (0, 1)), (1, (0, 1))]


@pytest.mark.parametrize(
    "finite, apparent, message",
    [
        ([(0, (0, 1))], [], "n-too-small: need at least 2 finite points, got 1"),
        ([(0, (0, 1)), (0, (0, 1))], [], "duplicate-t: finite points 0 and 1 coincide at 0"),
        (P2, [(2, 0), (2, 1)], "duplicate-q: apparent points 0 and 1 coincide at 2"),
        (P2, [(1, 0)], "q-in-P: apparent point 0 at 1 collides with a finite point"),
        (
            [(gr(1, 1), (0, 1))],
            [(gr(1, 1), 0)],
            "n-too-small: need at least 2 finite points, got 1; "
            "q-in-P: apparent point 0 at 1+1*i collides with a finite point",
        ),
    ],
    ids=["n-too-small", "duplicate-t", "duplicate-q", "q-in-P", "two-violations"],
)
def test_invalid_instance_is_refused_when_built(finite, apparent, message):
    # the constructor and the JSON parser raise the same text for the same points
    with pytest.raises(InvalidInstance) as caught:
        FuchsianInstance(finite, (0, 0), apparent)
    assert str(caught.value) == message
    obj = {
        "finite_points": [
            {"t": _pair(t), "exponents": [_pair(a) for a in pair]} for t, pair in finite
        ],
        "infinity_exponents": [_pair(0), _pair(0)],
        "apparent": [{"q": _pair(q), "p": _pair(p)} for q, p in apparent],
    }
    with pytest.raises(InvalidInstance) as caught:
        instance_from_json_obj(obj)
    assert str(caught.value) == message


def test_fuchs_defect_examples():
    assert fuchs_defect(EXAMPLE_A) == ZERO
    all_zero = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 0))
    assert fuchs_defect(all_zero) == gr(-1)
    example_b = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 1))
    assert fuchs_defect(example_b) == ZERO


def test_fuchs_defect_translation_invariant():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng.randint(2, 5), seed=rng.randint(0, 999))
        c = gr(rng.randint(-6, 6), rng.randint(-3, 3))
        assert fuchs_defect(inst.shifted(c)) == fuchs_defect(inst)


def test_psi_examples():
    # the frame's Psi~_k / E^(d-k) is psi's z^k coefficient
    assert frame_psi(EXAMPLE_A) == Polynomial((0, -1, 1))
    with_q = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 0)])
    assert frame_psi(with_q) == Polynomial((0, 2, -3, 1))
    inst = random_instance(4, seed=3)
    assert frame_psi(inst).degree == inst.n + inst.num_apparent
    assert frame_psi(inst) == ref.psi(inst)


def test_residue_sum_identity():
    # Sum of residues of F/psi over the roots of psi equals the coefficient
    # of z^(n+N-1) in F, for deg F <= n+N-1.  This is what makes one of the
    # g-conditions redundant.
    rng = random.Random(29)
    for _ in range(25):
        inst = random_instance(rng.randint(2, 5), seed=rng.randint(0, 10_000))
        p = ref.psi(inst)
        d = inst.n + inst.num_apparent
        f = Polynomial(
            [gr(rng.randint(-6, 6), rng.randint(-3, 3)) for _ in range(d)]
        )
        total = ZERO
        for root in inst.finite_positions + inst.apparent_positions:
            series = ref.laurent_expand(f, p, root, 3)
            total = total + series.coefficient(-1)
        assert total == f.coefficient(d - 1)


def test_instance_json_round_trip():
    inst = random_instance(4, seed=77)
    obj = instance_to_json_obj(inst)
    assert list(obj) == ["finite_points", "infinity_exponents", "apparent"]
    again = instance_from_json_obj(obj)
    assert instance_to_json_obj(again) == obj


def test_instance_json_malformed():
    with pytest.raises(InvalidInstance):
        instance_from_json_obj({"finite_points": []})
    with pytest.raises(InvalidInstance):
        instance_from_json_obj(
            {"finite_points": [{"t": ["0", "0"]}], "infinity_exponents": []}
        )
    with pytest.raises(InvalidInstance):
        instance_from_json_obj([1, 2, 3])
    obj = instance_to_json_obj(EXAMPLE_A)
    for exponents in ("0", [["0", "0"]] * 3):
        obj["finite_points"][0]["exponents"] = exponents
        with pytest.raises(InvalidInstance, match="exponent pair must be a 2-element list"):
            instance_from_json_obj(obj)


def test_equation_json_round_trip_and_padding():
    eq = construct(EXAMPLE_A)
    obj = equation_to_json_obj(eq)
    assert obj["G"] == [["-4", "0"], ["4", "0"]]
    assert obj["H"] == [["0", "0"], ["-2", "0"], ["2", "0"]]
    again = equation_from_json_obj(obj, EXAMPLE_A)
    assert again.g == eq.g and again.h == eq.h

    example_b = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 1))
    obj_b = equation_to_json_obj(construct(example_b))
    assert obj_b["G"] == [["-1", "0"], ["2", "0"]]
    assert obj_b["H"] == [["0", "0"], ["0", "0"], ["0", "0"]]  # zero padded to full length


def test_equation_json_malformed():
    obj = equation_to_json_obj(construct(EXAMPLE_A))
    for bad in (
        {"G": obj["G"]},  # no "H"
        [obj["G"], obj["H"]],  # not an object
        dict(obj, G=[["-4"], ["4", "0"]]),  # a coefficient that is not a pair
        dict(obj, H=[["0", "0"], [-2.0, "0"]]),  # a float coefficient
    ):
        with pytest.raises(InvalidInstance, match="malformed equation JSON"):
            equation_from_json_obj(bad, EXAMPLE_A)


def test_equation_degree_bounds_enforced():
    with pytest.raises(ValueError):
        equation_from_json_obj(
            {"G": [["0", "0"]] * 3 + [["1", "0"]], "H": [["1", "0"]]}, EXAMPLE_A
        )
    # d = 2: g of degree 2 or h of degree 3, past the JSON length cap's reach
    with pytest.raises(ValueError, match="g has degree 2, bound is 1"):
        FuchsianEquation(Polynomial((0, 0, 1)), Polynomial((1,)), EXAMPLE_A)
    with pytest.raises(ValueError, match="h has degree 3, bound is 2"):
        FuchsianEquation(Polynomial((1,)), Polynomial((0, 0, 0, 1)), EXAMPLE_A)


def test_equation_length_is_checked_before_parsing(monkeypatch):
    # equation_to_json_obj writes full-length arrays; one entry more is refused
    # before any coefficient is parsed, zero padding included
    inst = random_instance(3, seed=1)  # d = 4: "G" holds 4 coefficients, "H" 7
    eq = construct(inst)
    obj = equation_to_json_obj(eq)
    assert (len(obj["G"]), len(obj["H"])) == (4, 7)
    again = equation_from_json_obj(obj, inst)
    assert (again.g, again.h) == (eq.g, eq.h)

    def refuse(*args):
        raise AssertionError("a coefficient was parsed")

    monkeypatch.setattr(GaussianRational, "from_pair", refuse)
    for key, full in (("G", 4), ("H", 7)):
        longer = dict(obj, **{key: obj[key] + [["0", "0"]]})
        message = f'"{key}" has {full + 1} coefficients, over its full length {full}'
        with pytest.raises(InvalidInstance, match=message):
            equation_from_json_obj(longer, inst)


def test_momenta_replacement():
    inst = random_instance(4, seed=9)
    replaced = inst.with_momenta([gr(5), gr(6)])
    assert replaced.momenta == (gr(5), gr(6))
    assert replaced.apparent_positions == inst.apparent_positions
    with pytest.raises(ValueError):
        inst.with_momenta([gr(1)])


def test_points_are_checked_once_per_instance(monkeypatch):
    # the check runs when the instance is built, and construct and verify
    # read the instance without checking it again
    import fuchsian.model

    calls = []
    original = fuchsian.model._check_points

    def counting(ts, qs):
        calls.append((ts, qs))
        return original(ts, qs)

    monkeypatch.setattr(fuchsian.model, "_check_points", counting)
    inst = random_instance(6, seed=77)
    assert verify(construct(inst)).overall
    assert calls == [(list(inst.finite_positions), list(inst.apparent_positions))]


@pytest.mark.parametrize(
    "field",
    [
        "finite_points", "infinity_exponents", "apparent_points", "_memo",
        "pair.rho1", "pair.rho2", "h_matrix.rows", "h_matrix.cols", "h_matrix.entries",
    ],
)
def test_instance_fields_are_read_only(field):
    # the memo keeps g for the instance's exponents, so a pair changed in
    # place would leave construct returning the old g
    inst = random_instance(4, seed=21)
    eq = construct(inst)
    before = instance_to_json_obj(inst), _psi_ints(inst)
    owner, _, name = field.rpartition(".")
    owner = {"": inst, "pair": inst.finite_points[0][1], "h_matrix": h_matrix(inst)}[owner]
    for value in (None, getattr(owner, name)):
        with pytest.raises(AttributeError):
            setattr(owner, name, value)
        assert construct(inst) == construct(copy.copy(inst))
    with pytest.raises(AttributeError):
        delattr(owner, name)
    assert construct(inst) == construct(copy.copy(inst))
    with pytest.raises(AttributeError):  # two apparent points at one place
        inst.apparent_points = inst.apparent_points[:1] * 2
    for name, value in (("g", eq.h), ("h", eq.g), ("instance", EXAMPLE_A)):
        with pytest.raises(AttributeError):
            setattr(eq, name, value)
    assert (instance_to_json_obj(inst), _psi_ints(inst)) == before
    assert verify(eq).overall and eq.instance is inst


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copied_instance_is_equal_and_still_constructs(copy_of):
    inst = random_instance(5, seed=12).shifted(gr(1, 2))
    _psi_ints(inst)
    twin = copy_of(inst)
    assert twin is not inst and twin == inst and hash(twin) == hash(inst)
    assert twin != inst.with_momenta([gr(9)] * 3)
    eq = construct(twin)
    assert verify(eq).overall and eq == construct(inst)
    assert copy_of(eq) == eq and hash(copy_of(eq)) == hash(eq)
