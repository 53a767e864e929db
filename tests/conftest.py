"""Seeded instances shared by the builder and verifier suites, adapters
that run verify's private integer kernels on fraction_reference's windows,
and psi read off the instance's point frame."""

import random
from fractions import Fraction

import pytest

import fraction_reference as ref
from fuchsian.dimension import quadratic_constraints
from fuchsian.frobenius import DEFAULT_DEPTH, _cleared_residual, _recursion
from fuchsian.model import FuchsianInstance, _psi_ints
from fuchsian.polynomials import Polynomial
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


def _small_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 2)
    )


def _consistent_over(base, rng):
    """An instance with base's positions and N = n - 1 whose momenta pass its
    one constraint.

    The finite exponent products are made zero (keeping the sums, hence g),
    the pair at infinity becomes (x, s - x) and only p_N may be nonzero, so
    the constraint reads a p^2 + b p + gamma x (s - x) = 0.  (p, x) = (0, 0)
    lies on that conic, and the line x = m p meets it again at a
    Gaussian-rational point.
    """
    n = base.n
    finite = [(t, (0, pair.sum)) for t, pair in base.finite_points]
    s = base.infinity_exponents.sum
    qs = base.apparent_positions

    def instance(x, p):
        apparent = [(q, ZERO) for q in qs[:-1]] + [(qs[-1], p)]
        return FuchsianInstance(finite, (x, s - x), apparent)

    (c,) = quadratic_constraints(instance(ZERO, ZERO))
    assert c.const_term == ZERO
    a, b = c.quad[n - 1], c.lin.get(n - 1, ZERO)
    x = GaussianRational(1 if s == 2 else 2)  # any x with x (s - x) != 0
    (c2,) = quadratic_constraints(instance(x, ZERO))
    gamma = c2.const_term / (x * (s - x))
    m = _small_gaussian(rng)
    while not a - gamma * m * m:
        m = _small_gaussian(rng)
    p = -(b + gamma * m * s) / (a - gamma * m * m)
    return instance(m * p, p)


def _regime_instances(seed, count):
    """Yield (case, instance, free values) for `count` seeded instances with
    n <= 6, cycling square, under and consistent over, every other one moved
    to Gaussian positions."""
    rng = random.Random(seed)
    for k in range(count):
        case = ("square", "under", "over")[k % 3]
        n = rng.randint(3 if case == "under" else 2, 4 if case == "over" else 6)
        num = rng.randint(0, n - 3) if case == "under" else n - 2 + (case == "over")
        inst = random_instance(n, num, seed=rng.randint(0, 10**6))
        if k % 2:
            inst = inst.shifted(
                GaussianRational(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))
            )
        if case == "over":
            inst = _consistent_over(inst, rng)
        free = [_small_gaussian(rng) for _ in range(max(n - 2 - num, 0))]
        yield case, inst, free


@pytest.fixture
def regime_instances():
    """The seeded square/under/consistent-over generator, as a function of
    (seed, count)."""
    return _regime_instances


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
