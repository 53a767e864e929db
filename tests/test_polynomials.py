"""The Polynomial container, psi, the Taylor shift, and the Laurent
expansions of the Fraction reference that the closed-form tests read their
local constants off."""

import copy
import pickle
import random
from fractions import Fraction
from math import factorial

import fraction_reference as ref
import pytest
from conftest import frame_psi
from fraction_reference import Window, laurent_expand
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fuchsian.model import FuchsianInstance
from fuchsian.polynomials import Polynomial
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


PSI_01 = Polynomial((0, -1, 1))  # z^2 - z


def test_degree_markers():
    assert Polynomial.zero().degree == float("-inf")
    assert str(Polynomial.zero()) == "0"
    assert Polynomial((5,)).degree == 0
    assert Polynomial((0, 0, 1, 0, 0)).degree == 2  # trailing zeros trimmed
    assert Polynomial((0, 0, 1, 0, 0)).coeffs == (ZERO, ZERO, gr(1))
    assert Polynomial((1, 2)).coefficient(5) == ZERO
    assert Polynomial((1, 2)).padded(3) == (gr(1), gr(2), ZERO)
    with pytest.raises(ValueError, match=">= 0"):
        Polynomial((1, 2)).coefficient(-1)
    with pytest.raises(ValueError, match="degree 1 exceeds padded length 1"):
        Polynomial((1, 2)).padded(1)


def test_polynomial_is_read_only_and_copies_through_its_constructor():
    # g is shared by every equation built on an instance, so no one may
    # change it; copies and pickles rebuild through the constructor
    p = Polynomial((1, gr(2, -1), Fraction(1, 3)))
    for name in ("coeffs", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.coeffs == (gr(1), gr(2, -1), gr(Fraction(1, 3)))
    assert p.__reduce__() == (Polynomial, (p.coeffs,))
    for q in (p, Polynomial.zero()):
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert type(twin) is Polynomial and twin == q and hash(twin) == hash(q)
            assert twin.coeffs == q.coeffs and repr(twin) == repr(q)


def _random_poly(rng, max_degree=8):
    degree = rng.randint(0, max_degree)
    return Polynomial(
        [
            GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            for _ in range(degree + 1)
        ]
    )


def test_from_roots_vanishes_at_roots():
    # psi of instances with 2 .. 7 distinct points, some of them apparent,
    # at Gaussian positions with mixed denominators
    rng = random.Random(7)
    for _ in range(40):
        roots = set()
        target = rng.randint(2, 7)
        while len(roots) < target:
            roots.add(gr(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2)))
        roots = sorted(roots, key=str)
        n = rng.randint(2, len(roots))
        finite, apparent = [(t, (0, 0)) for t in roots[:n]], [(q, 0) for q in roots[n:]]
        p = frame_psi(FuchsianInstance(finite, (0, 0), apparent))
        assert p.degree == len(roots) and p.coefficient(len(roots)) == gr(1)
        for r in roots:
            assert ref.poly_eval(p, r) == ZERO


def test_shift():
    rng = random.Random(13)
    for _ in range(30):
        p = _random_poly(rng, 7)
        a = gr(rng.randint(-4, 4), rng.randint(-2, 2))
        shifted = p.shift(a)
        for x in (gr(0), gr(1), gr(-2, 1)):
            assert ref.poly_eval(shifted, x) == ref.poly_eval(p, x + a)
    assert PSI_01.shift(0) == PSI_01


def test_laurent_simple_pole():
    series = laurent_expand(Polynomial((1,)), PSI_01, 0, 3)
    assert series.min_order == -1
    assert series.coeffs == (gr(-1), gr(-1), gr(-1))  # -1/z - 1 - z


def test_laurent_cancellation():
    num = Polynomial((0, -2, 2))  # 2z^2 - 2z
    den = ref.poly_mul(PSI_01, PSI_01)
    series = laurent_expand(num, den, 0, 3)
    assert series.min_order == -1
    assert series.coeffs == (gr(-2), gr(-2), gr(-2))


def test_laurent_removable():
    series = laurent_expand(Polynomial((0, 0, 1)), Polynomial((0, 0, 1)), 0, 1)
    assert series.min_order == 0
    assert series.coeffs == (gr(1),)


def test_laurent_zero_numerator_and_errors():
    series = laurent_expand(Polynomial.zero(), PSI_01, 0, 4)
    assert series.is_zero
    assert series.coefficient(2) == ZERO
    with pytest.raises(ZeroDivisionError):
        laurent_expand(PSI_01, Polynomial.zero(), 0, 3)
    with pytest.raises(ValueError):
        laurent_expand(PSI_01, PSI_01, 0, 0)


def test_laurent_times_denominator_reproduces_numerator():
    # The defining property of the expansion, checked by exact convolution.
    rng = random.Random(17)
    for _ in range(30):
        num = _random_poly(rng, 8)
        den = _random_poly(rng, 8)
        if den.is_zero:
            continue
        a = gr(rng.randint(-3, 3), rng.randint(-1, 1))
        terms = 9
        series = laurent_expand(num, den, a, terms)
        if series.is_zero:
            assert num.is_zero
            continue
        den_local = den.shift(a).coeffs
        num_local = num.shift(a).padded(12)
        # (series * den) coefficient at order k, for orders covered by the window
        for k in range(series.min_order, series.min_order + terms):
            acc = ZERO
            for j, d_j in enumerate(den_local):
                order = k - j
                if series.min_order <= order <= series.max_order:
                    acc = acc + d_j * series.coefficient(order)
                # orders below the window contribute zero exactly
            if 0 <= k < len(num_local):
                assert acc == num_local[k]
            elif k < 0:
                assert acc == ZERO


_gaussians = st.builds(
    lambda a, b, c, d: GaussianRational(Fraction(a, c), Fraction(b, d)),
    st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3), st.integers(1, 3),
)
_polys = st.lists(_gaussians, max_size=6).map(Polynomial)


def _taylor_by_derivatives(p, at):
    """Order of p at `at` and its Taylor coefficients p^(j)(at)/j! from there
    on, by evaluating derivatives: no shift and no synthetic division."""
    coeffs = [ref.poly_eval(p, at)] + [
        ref.poly_eval(ref.poly_derivative(p, j), at) / factorial(j) for j in range(1, len(p.coeffs))
    ]
    order = next(j for j, c in enumerate(coeffs) if c)
    return order, coeffs[order:]


@settings(max_examples=150, deadline=None)
@given(num_unit=_polys, k=st.integers(0, 3), den_unit=_polys, m=st.integers(0, 3),
       at=_gaussians, terms=st.integers(1, 8))
@example(num_unit=Polynomial.zero(), k=0, den_unit=Polynomial((1, 2)), m=1,
         at=gr(1, -1), terms=4)
@example(num_unit=Polynomial((3, 1)), k=2, den_unit=Polynomial((1, 0, 1)), m=3,
         at=gr(Fraction(1, 2), 2), terms=1)
def test_laurent_expand_matches_derivative_oracle(num_unit, k, den_unit, m, at, terms):
    # num = num_unit (z-a)^k vanishes to order >= k at a, den has a root of
    # multiplicity >= m there; the window must be the quotient of the two
    # Taylor heads, which the oracle computes from derivatives.
    num = ref.poly_mul(num_unit, ref.poly_from_roots([at] * k))
    den = ref.poly_mul(den_unit, ref.poly_from_roots([at] * m))
    assume(not den.is_zero)
    series = laurent_expand(num, den, at, terms)
    if num.is_zero:
        assert series == Window(at, 0, (ZERO,) * terms)
        return
    num_order, v = _taylor_by_derivatives(num, at)
    den_order, u = _taylor_by_derivatives(den, at)
    assert num_order >= k and den_order >= m
    assert num.shift(at) == Polynomial([ZERO] * num_order + v)
    assert series.min_order == num_order - den_order
    assert len(series.coeffs) == terms
    for i in range(terms):
        acc = sum((u[j] * series.coeffs[i - j] for j in range(min(i + 1, len(u)))), ZERO)
        assert acc == (v[i] if i < len(v) else ZERO)


def test_series_window_contract():
    series = Window(gr(0), -1, (gr(1), gr(2), gr(3)))
    assert series.coefficient(-5) == ZERO
    assert series.coefficient(1) == gr(3)
    with pytest.raises(ValueError):
        series.coefficient(2)

