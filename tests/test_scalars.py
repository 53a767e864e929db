"""Exact scalar field: arithmetic, normalization, square roots, serialization."""

import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import fraction_reference as ref
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fuchsian.scalars
from fuchsian.scalars import (
    GaussianRational,
    format_rational,
    from_gaussian_ints,
    parse_rational,
    to_gaussian_ints,
)
from fuchsian.sampling import random_instance


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_modulus_identity():
    a = GaussianRational(Fraction(1, 2), Fraction(1))
    assert a * a.conjugate() == gr(Fraction(5, 4))


def test_values_are_read_only():
    # an instance's memo is keyed by nothing but its values, so a value that
    # could change under it would leave construct a stale equation
    inst = random_instance(4, seed=21)
    value, key = inst.finite_points[0][0], hash(inst)
    state = (value._r, value._i, value._d)
    for name in ("_r", "_i", "_d"):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value._r += 7
    assert (value._r, value._i, value._d) == state
    assert hash(inst) == key
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and (copied._r, copied._i, copied._d) == state


def test_rational_addition():
    assert gr(Fraction(1, 3)) + gr(Fraction(1, 6)) == gr(Fraction(1, 2))


def test_inverse_of_i():
    i = gr(0, 1)
    assert GaussianRational(1) / i == gr(0, -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_normalization_is_automatic():
    value = gr(Fraction(2, 4), Fraction(-3, -9))
    assert value.re == Fraction(1, 2) and value.re.denominator == 2
    assert value.im == Fraction(1, 3) and value.im.denominator == 3
    # structural equality of normalized forms
    assert value == gr(Fraction(1, 2), Fraction(1, 3))


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    x = GaussianRational(1)
    for op in (operator.mul, operator.add, operator.sub, operator.truediv):
        for a, b in ((x, 0.5), (0.5, x)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        x ** 0.5
    assert (x == 0.5) is False and (0.5 == x) is False


def test_int_and_fraction_mixing():
    x = gr(Fraction(3, 4), 1)
    assert 2 * x == gr(Fraction(3, 2), 2)
    assert x - 1 == gr(Fraction(-1, 4), 1)
    assert Fraction(1, 2) + x == gr(Fraction(5, 4), 1)
    assert x / 2 == gr(Fraction(3, 8), Fraction(1, 2))


def test_power():
    i = gr(0, 1)
    assert i ** 2 == gr(-1)
    assert i ** 0 == gr(1)
    assert (gr(2)) ** -2 == gr(Fraction(1, 4))


def _random_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
    )


def test_field_axioms_random():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_gr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b:
            assert (a / b) * b == a
        assert a + (-a) == GaussianRational(0)


def test_products_with_a_real_factor():
    # Real x complex and complex x real take two products, not four; the
    # result must equal the four-product formula either way round.
    rng = random.Random(31)
    for _ in range(100):
        a, b = _random_gr(rng), _random_gr(rng)
        real = GaussianRational(a.re)
        want = GaussianRational(real.re * b.re, real.re * b.im)
        assert real * b == want and b * real == want
        assert (real * real).im == 0 and real * real == GaussianRational(a.re * a.re)
        assert a * b == GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def test_rational_sqrt():
    assert ref.rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert ref.rational_sqrt(Fraction(2)) is None
    assert ref.rational_sqrt(Fraction(-1)) is None
    assert ref.rational_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt_cases():
    assert gr(Fraction(9, 4)).sqrt() == gr(Fraction(3, 2))
    assert gr(-4).sqrt() == gr(0, 2)
    # (1 + 2i)^2 = -3 + 4i
    assert gr(-3, 4).sqrt() in (gr(1, 2), gr(-1, -2))
    assert gr(2).sqrt() is None
    assert gr(1, 1).sqrt() is None  # |1+i| = sqrt(2) irrational


def test_gaussian_sqrt_random_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        r = _random_gr(rng)
        root = (r * r).sqrt()
        assert root is not None
        assert root == r or root == -r


def test_serialization():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-7)) == "-7"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("+3/4") == Fraction(3, 4)
    value = gr(Fraction(-1, 3), Fraction(2, 7))
    assert value.to_pair() == ["-1/3", "2/7"]
    assert GaussianRational.from_pair(value.to_pair()) == value


def test_parse_errors():
    for bad in ("", "1/0", "x", None, 1.5, True, "1" * 5000):  # int's digit cap
        with pytest.raises(ValueError):
            parse_rational(bad)
    with pytest.raises(ValueError):
        GaussianRational.from_pair(["1"])


def test_parse_rejects_loose_grammar(monkeypatch):
    # Only [+-]?digits(/digits)? reaches Fraction; exponent notation would
    # otherwise let "1e20000" expand into a 20001-digit integer.
    def refuse(*args):
        raise AssertionError(f"Fraction received {args!r}")

    monkeypatch.setattr(fuchsian.scalars, "Fraction", refuse)
    for bad in ("1.5", "1e3", "1_0", " 3 ", "3\n", "1e20000", "1/2/3", "/2", "+-1", "\u0663"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(bad)


def test_parse_error_message_is_capped():
    # A rejected input is quoted only up to 40 characters, whatever its size.
    for bad in ("1" * 5000, "1e" + "9" * 5000, ["1"] * 2000):
        with pytest.raises(ValueError, match="not a rational") as info:
            parse_rational(bad)
        message = str(info.value)
        assert len(message) < 100, message
        assert f"({len(repr(bad))} characters)" in message
    with pytest.raises(ValueError) as info:
        parse_rational("1.5")
    assert str(info.value) == "not a rational: '1.5'"


# -- differential oracle: the two-Fraction scalar ------------------------------

_DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([2**61 - 1, 10**9 + 7, 3**40, 2**64, 6 * 35 * 11 * 13]),
    st.integers(1, 10**30),
)
_NUMERATORS = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))
_RATIONALS = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)
_PARTS = st.tuples(_RATIONALS, st.one_of(st.just(Fraction(0)), _RATIONALS))
# a Gaussian value as its (re, im) parts, or a plain int or Fraction operand
_OPERANDS = st.one_of(_PARTS, _PARTS, st.integers(-5, 5), _RATIONALS)


def _both(operand):
    """The operand for the triple scalar and for the oracle."""
    if isinstance(operand, tuple):
        return GaussianRational(*operand), ref.FractionGaussian(*operand)
    return operand, operand


def _assert_same(value, want):
    assert type(value) is GaussianRational
    assert value._d > 0 and gcd(value._r, value._i, value._d) == 1
    assert (value.re, value.im) == (want.re, want.im)
    assert str(value) == str(want) and repr(value) == repr(want)
    assert value.to_pair() == want.to_pair()
    assert hash(value) == hash(want) and bool(value) == bool(want)


@settings(max_examples=300, deadline=None)
@given(_OPERANDS, _OPERANDS)
def test_field_operations_match_fraction_oracle(a, b):
    assume(isinstance(a, tuple) or isinstance(b, tuple))
    (x, fx), (y, fy) = _both(a), _both(b)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        try:
            want = op(fx, fy)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        _assert_same(op(x, y), want)
    assert (x == y) == (fx == fy) and (x != y) == (fx != fy)


@settings(max_examples=200, deadline=None)
@given(_PARTS, st.integers(-3, 4))
def test_unary_operations_match_fraction_oracle(parts, exponent):
    x, fx = _both(parts)
    _assert_same(-x, -fx)
    _assert_same(x.conjugate(), fx.conjugate())
    if fx or exponent >= 0:
        _assert_same(x**exponent, fx**exponent)
    for value, want in ((x, fx), (x * x, fx * fx)):
        root = value.sqrt()
        if want.sqrt() is None:
            assert root is None
        else:
            _assert_same(root, want.sqrt())
    _assert_same(GaussianRational.from_pair(fx.to_pair()), fx)
    assert x == GaussianRational(*parts) and hash(x) == hash(GaussianRational(*parts))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_NUMERATORS, _RATIONALS))
def test_real_value_hashes_as_the_int_or_fraction_it_equals(x):
    # equal values hash equal, so a set holds x and GaussianRational(x) once
    assert GaussianRational(x) == x
    assert hash(GaussianRational(x)) == hash(x)
    assert len({x, GaussianRational(x)}) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(_PARTS, max_size=6))
def test_to_gaussian_ints_matches_fraction_oracle(parts):
    values, oracle = zip(*map(_both, parts)) if parts else ((), ())
    assert to_gaussian_ints(list(values)) == ref.fraction_to_gaussian_ints(list(oracle))


_INTS = st.one_of(st.integers(-20, 20), st.integers(-(10**25), 10**25))


@settings(max_examples=300, deadline=None)
@given(_INTS, _INTS, _INTS, st.one_of(st.just(0), _INTS))
def test_from_gaussian_ints_matches_fraction_oracle(re, im, den, den_im):
    if not den and not den_im:
        with pytest.raises(ZeroDivisionError):
            from_gaussian_ints(re, im, den, den_im)
        return
    _assert_same(
        from_gaussian_ints(re, im, den, den_im),
        ref.fraction_from_gaussian_ints(re, im, den, den_im),
    )


_BIG = st.one_of(st.integers(-20, 20), st.integers(-(10**40), 10**40))


@settings(max_examples=200, deadline=None)
@given(_BIG, _BIG, st.one_of(st.integers(1, 12), st.integers(1, 10**20)))
def test_sqrt_of_large_squares_matches_fraction_oracle(a, b, d):
    # ((a + b i) / d)^2 always has a root, +-(a + b i) / d
    x = GaussianRational(Fraction(a, d), Fraction(b, d))
    value, want = x * x, ref.FractionGaussian(Fraction(a, d), Fraction(b, d)) ** 2
    root = value.sqrt()
    assert root in (x, -x)
    _assert_same(root, want.sqrt())


@settings(max_examples=200, deadline=None)
@given(_BIG, _BIG)
def test_sqrt_rejects_non_squares_with_odd_r_plus_m(a, c):
    # R + J i = 2ab + (a^2 - b^2) i has the integer modulus m = a^2 + b^2,
    # and R + m = (a + b)^2 is odd, so there is no Gaussian-integer root
    b = a + 2 * c + 1
    value = GaussianRational(2 * a * b, a * a - b * b)
    assert value._d == 1 and (value._r + a * a + b * b) % 2 == 1
    assert value.sqrt() is None
    assert ref.FractionGaussian(2 * a * b, a * a - b * b).sqrt() is None
