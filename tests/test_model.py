"""Instance validation, the admissibility defect, the point frame, and the JSON schemas."""

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
    validate,
)
from fuchsian.builder import construct
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


def test_validate_duplicate_t():
    bad = FuchsianInstance([(0, (0, 1)), (0, (0, 1))], (0, 0))
    codes = [v.code for v in validate(bad)]
    assert "duplicate-t" in codes


def test_validate_q_in_p():
    bad = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (0, 0), [(1, 0)])
    codes = [v.code for v in validate(bad)]
    assert "q-in-P" in codes


def test_validate_other_codes():
    assert [v.code for v in validate(FuchsianInstance([(0, (0, 1))], (0, 0)))] == [
        "n-too-small"
    ]
    dup_q = FuchsianInstance(
        [(0, (0, 1)), (1, (0, 1))], (0, 0), [(2, 0), (2, 1)]
    )
    assert "duplicate-q" in [v.code for v in validate(dup_q)]


def test_validate_example_a_ok():
    assert validate(EXAMPLE_A) == []


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


def test_validate_runs_once_per_instance(monkeypatch):
    # construct and verify each check the instance; the violations cached on
    # it by the first check serve all later ones
    import fuchsian.model
    from fuchsian.frobenius import verify

    calls = []
    original = fuchsian.model.validate

    def counting(instance):
        calls.append(instance)
        return original(instance)

    monkeypatch.setattr(fuchsian.model, "validate", counting)
    inst = random_instance(6, seed=77)
    assert verify(construct(inst)).overall
    assert len(calls) == 1
    assert validate(inst) == [] and validate(inst) is not validate(inst)
    bad = FuchsianInstance([(0, (0, 1)), (0, (0, 1))], (0, 0))
    for _ in range(2):
        with pytest.raises(InvalidInstance):
            _psi_ints(bad)
    assert len(calls) == 2
