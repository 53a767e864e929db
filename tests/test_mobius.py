"""The construction commutes with the Moebius maps of the projective line.

Translations (test_builder), scalings and the inversion generate them.  The
inversion moves infinity to a finite point, where its exponent convention
l (l + 1) - g0 l + h0 no longer enters, so a mistake that the builder, the
verifier and the Fraction reference all shared would show here.

- Scaling z = lam x: points x / lam, momenta lam p, exponents kept,
  g~(x) = lam^(1-d) g(lam x) and h~(x) = lam^(2-2d) h(lam x); a free value
  for z^j is multiplied by lam^(j+2-2d).
- Inversion z = a + 1/x at a finite point a: the other points go to
  y = 1 / (x - a), infinity goes to 0 with its pair, and a goes to infinity
  with its own; momenta become -p (q - a)^2.  With C = prod_(x != a) (a - x)
  and psi~0 = prod (x - y), g~ = 2 psi~0 - x^(d-1) g(a + 1/x) / C and
  h~ = x^(2d-2) h(a + 1/x) / C^2.

Square instances are compared through construct, consistent over ones
through check_momenta, under ones (scaling only) through solve_under, and
verify's overall verdict is the same on an equation and on its image, also
after h is tampered with.  The hypothesis draws have N <= n - 1, as verify
on a moved instance with 10^12 denominators and larger N takes seconds; the
seeded consistent over instances have N = n - 1 .. 2n - 2.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import consistent, domain_draws, regime_instances, small_gaussian

from fraction_reference import poly_add, poly_from_roots
from fuchsian.builder import construct
from fuchsian.dimension import check_momenta, classify, solve_under
from fuchsian.frobenius import verify
from fuchsian.model import FuchsianEquation, FuchsianInstance
from fuchsian.polynomials import Polynomial
from fuchsian.scalars import ONE, GaussianRational

LAMBDAS = st.builds(
    GaussianRational, st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), st.integers(-2, 2)
).filter(bool)


def scaled(eq, lam):
    """The image of eq under z = lam x."""
    inst, d = eq.instance, eq.instance.n + eq.instance.num_apparent
    image = FuchsianInstance(
        [(t / lam, pair) for t, pair in inst.finite_points],
        inst.infinity_exponents,
        [(q / lam, lam * p) for q, p in inst.apparent_points],
    )
    g = Polynomial(c * lam ** (k + 1 - d) for k, c in enumerate(eq.g.coeffs))
    h = Polynomial(c * lam ** (k + 2 - 2 * d) for k, c in enumerate(eq.h.coeffs))
    return FuchsianEquation(g, h, image)


def inverted(eq, a):
    """The image of eq under z = a + 1/x, a one of its finite points."""
    inst, d = eq.instance, eq.instance.n + eq.instance.num_apparent
    others = [x for x in inst.finite_positions + inst.apparent_positions if x != a]
    (pair,) = [pair for t, pair in inst.finite_points if t == a]
    image = FuchsianInstance(
        [(0, inst.infinity_exponents)]
        + [(ONE / (t - a), pair) for t, pair in inst.finite_points if t != a],
        pair,
        [(ONE / (q - a), -p * (q - a) ** 2) for q, p in inst.apparent_points],
    )
    c = ONE
    for x in others:
        c *= a - x

    def reversed_at(p, m):  # x^m p(a + 1/x), for deg p <= m
        return Polynomial(reversed(p.shift(a).padded(m + 1)))

    psi0 = poly_from_roots([ONE / (x - a) for x in others])
    g = poly_add(
        Polynomial(2 * v for v in psi0.coeffs),
        Polynomial(-v / c for v in reversed_at(eq.g, d - 1).coeffs),
    )
    h = Polynomial(v / (c * c) for v in reversed_at(eq.h, 2 * d - 2).coeffs)
    return FuchsianEquation(g, h, image)


def _solved(inst, free):
    """The equation each regime's entry point builds for inst."""
    case = classify(inst).case
    if case == "square":
        return construct(inst)
    if case == "under":
        return solve_under(inst, free)
    result = check_momenta(inst)
    assert result.consistent
    return result.equation


def _check_images(inst, free, lam, index):
    """construct, solve_under or check_momenta of the images of inst under
    z = lam x and, but for an under instance, z = a + 1/x at its finite
    point a = t_index are the images of its equation, and verify's verdicts
    on the equation and on it with h tampered equal those on their images."""
    eq = _solved(inst, free)
    tampered = FuchsianEquation(eq.g, poly_add(eq.h, Polynomial((1,))), inst)
    verdicts = [verify(e).overall for e in (eq, tampered)]
    assert verdicts[0]
    d = inst.n + inst.num_apparent
    base = inst.n + 3 * inst.num_apparent
    free_image = [v * lam ** (base + k + 2 - 2 * d) for k, v in enumerate(free)]
    assert _solved(scaled(eq, lam).instance, free_image) == scaled(eq, lam)
    assert [verify(scaled(e, lam)).overall for e in (eq, tampered)] == verdicts
    if classify(inst).case != "under":
        a = inst.finite_positions[index % inst.n]
        assert _solved(inverted(eq, a).instance, []) == inverted(eq, a)
        assert [verify(inverted(e, a)).overall for e in (eq, tampered)] == verdicts


@settings(max_examples=20, deadline=None)
@given(domain_draws(extra=-1), LAMBDAS, st.integers(0, 5))
def test_construction_commutes_with_scaling_and_inversion(draw, lam, index):
    # N <= n - 1 over the whole domain; an over draw is first made consistent
    inst, free = draw
    if classify(inst).case == "over":
        inst = consistent(inst)
    _check_images(inst, free, lam, index)


def test_images_of_moved_instances_at_every_shape():
    # the seeded consistent over instances have N = n - 1 .. 2n - 2
    rng = random.Random(1789)
    for case, inst, _ in regime_instances(1789, 36):
        if case == "over":
            lam = small_gaussian(rng) or ONE
            _check_images(inst, [], lam, rng.randrange(inst.n))
