"""Adapters that run verify's private integer kernels on
fraction_reference's windows, seeded apparent-shaped locals for them, and
psi read off the instance's point frame.  The instances themselves are drawn
in strategies.py."""

import random
from fractions import Fraction

import pytest

import fraction_reference as ref
from fuchsian.frobenius import DEFAULT_DEPTH, _cleared_residual, _recursion
from fuchsian.model import _psi_ints
from fuchsian.polynomials import Polynomial
from fuchsian.scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


@pytest.fixture
def random_apparent_locals():
    """200 seeded hand-built apparent-shaped locals at 0: a g-window of
    residue -1 and an h-window from order -1, each with 8 further small
    Gaussian rationals."""
    rng = random.Random(90210)

    def window(order, head=()):
        tail = [
            GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2))
            for _ in range(8)
        ]
        return ref.Window(ZERO, order, tuple(head) + tuple(tail))

    return [
        ref.Local(g_series=window(-1, [GaussianRational(-1)]), h_series=window(-1))
        for _ in range(200)
    ]


def frame_psi(instance):
    """psi as a Polynomial read off the point frame model._psi_ints: its z^k
    coefficient is Psi~_k / E^(d-k), d = n + N."""
    e, _, _, (pr, pi) = _psi_ints(instance)
    d = len(pr) - 1
    return Polynomial(
        from_gaussian_ints(x, y, e ** (d - k)) for k, (x, y) in enumerate(zip(pr, pi))
    )


def recursion(local, depth=DEFAULT_DEPTH):
    """(omega, (a_0, .., a_s)) of the package's integer recursion on an
    apparent-shaped local of fraction_reference Windows, run to s = depth or
    as far as the windows reach, as fraction_reference.obstruction does."""
    g, h = local.g_series, local.h_series
    top = ref.recursion_top(local, depth)
    # orders -1 .. top-2 of g, then of h; after the split, index o + 1 is order o
    den, re, im = to_gaussian_ints(
        [g.coefficient(o) for o in range(-1, top - 1)]
        + [h.coefficient(o) for o in range(-1, top - 1)]
    )
    # the constant leading window den: A u w'' + B w' + C w is den u times the equation
    lead = ([den] + [0] * (top - 1), [0] * top)
    omega, ar, ai, e = _recursion(lead, (re[:top], im[:top]), (re[top:], im[top:]))
    return from_gaussian_ints(*omega), tuple(from_gaussian_ints(x, y, e) for x, y in zip(ar, ai))


def reference_local(eq, point, terms=DEFAULT_DEPTH + 2):
    """fraction_reference's Local of eq at a finite point: windows of `terms`
    coefficients of g/psi and h/psi^2 and the Taylor heads of psi, g and h."""
    return ref._local(point, eq.g.coeffs, eq.h.coeffs, ref.psi(eq.instance).coeffs, terms)


def cleared_residual(local, coefficients):
    """Orders 0 .. K of psi^2 w'' + psi g w' + h w for the truncated series
    w = sum_(k<=K) a_k x^k, by the package's cleared-residual kernel on the
    Taylor heads of a reference_local at a root of psi.  The heads are
    written over one denominator den, the a_k over e, and the kernel's
    output is over den^2 e."""
    size = len(coefficients)
    p, g, h = local.heads
    den, re, im = to_gaussian_ints(
        [p.coefficient(o) for o in range(size)]
        + [g.coefficient(o) for o in range(size - 1)]
        + [h.coefficient(o) for o in range(size)]
    )
    bounds = ((0, size), (size, 2 * size - 1), (2 * size - 1, 3 * size - 1))
    p, g, h = ((re[a:b], im[a:b]) for a, b in bounds)
    e, wr, wi = to_gaussian_ints(coefficients)
    rr, ri = _cleared_residual(p, g, h, (wr, wi), (1, 1, den))
    return [from_gaussian_ints(x, y, den * den * e) for x, y in zip(rr, ri)]
