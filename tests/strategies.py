"""The test domain, drawn in one place.

Seeded generators feed the suites and `domain_draws` the hypothesis
properties.  Between them they cover n = 2..6, every regime (square, under
with free values, over at consistent and at violating momenta), real and
Gaussian positions with 0 among them, and consistent over instances at every
shape with k = N - n + 2 <= n, that is N = n - 1 .. 2n - 2, made consistent
by `consistent`, one exact linear move of the exponents.  Every instance is
admissible.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from fuchsian.builder import fredholm_values
from fuchsian.linalg import Matrix, eliminate
from fuchsian.model import FuchsianInstance
from fuchsian.sampling import random_instance
from fuchsian.scalars import ONE, ZERO, GaussianRational


class SingularMove(ArithmeticError):
    """The k x k system of `consistent` has no unique solution."""


def small_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), 2)
    )


def _shift(rng):
    return GaussianRational(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2]))


def consistent(base):
    """base with its positions and momenta, and exponents moved so that every
    Fredholm constraint holds: x_i is added to the first exponent at t_i for
    i <= k = N - n + 2 and sum x_i taken from the first exponent at infinity,
    which keeps the exponent sum.  Each constraint value is affine in x (the
    right-hand sides are linear in the exponent products, g in the residues),
    so its values at x = 0 and at each unit vector give a k x k system, solved
    exactly.  A base that is consistent already is returned as it is; else a
    singular system raises SingularMove, and nothing is redrawn."""
    n, k = base.n, base.num_apparent - base.n + 2
    if not 0 < k <= n:
        raise ValueError(f"the move needs 0 < N - n + 2 <= n, got n={n}, N={base.num_apparent}")
    infinity = base.infinity_exponents

    def values(x):
        moved = [(t, (pair.rho1 + y, pair.rho2)) for (t, pair), y in zip(base.finite_points, x)]
        inst = FuchsianInstance(
            moved + list(base.finite_points[k:]),
            (infinity.rho1 - sum(x, ZERO), infinity.rho2),
            base.apparent_points,
        )
        return inst, [v for _, v in fredholm_values(inst, inst.momenta)]

    _, at_zero = values([ZERO] * k)
    if not any(at_zero):
        return base
    units = [values([ONE if i == j else ZERO for j in range(k)])[1] for i in range(k)]
    rows = [[unit[r] - at_zero[r] for unit in units] for r in range(k)]
    outcome = eliminate(Matrix.from_rows(rows), [-v for v in at_zero])
    if outcome.kind != "unique":
        raise SingularMove(f"the {k} x {k} system of the move is singular for {base!r}")
    return values(outcome.particular)[0]


def regime_instances(seed, count):
    """Yield (case, instance, free values) for `count` seeded instances,
    cycling square (n = 2..6), under (n = 3..6) and consistent over (n =
    2..4, N = n - 1 .. 2n - 2, momenta as drawn), every other one moved to
    Gaussian positions."""
    rng = random.Random(seed)
    for k in range(count):
        case = ("square", "under", "over")[k % 3]
        n = rng.randint(3 if case == "under" else 2, 4 if case == "over" else 6)
        if case == "square":
            num = n - 2
        elif case == "under":
            num = rng.randint(0, n - 3)
        else:
            num = rng.randint(n - 1, 2 * n - 2)
        inst = random_instance(n, num, seed=rng.randint(0, 10**6))
        if k % 2:
            inst = inst.shifted(_shift(rng))
        if case == "over":
            inst = consistent(inst)
        free = [small_gaussian(rng) for _ in range(max(n - 2 - num, 0))]
        yield case, inst, free


def violating_over(seed, count):
    """Over instances at their drawn momenta, which violate their constraints
    but at a rare exact root: n = 2 + k % 4 and N = n - 1 + (k // 4) % 5,
    every other one at Gaussian positions and every eighth with small
    momenta, 0 among them."""
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % 4
        inst = random_instance(n, n - 1 + (k // 4) % 5, seed=rng.randint(0, 10**6))
        if k % 2:
            inst = inst.shifted(_shift(rng))
        if k % 8 == 7:
            inst = inst.with_momenta([small_gaussian(rng) for _ in inst.momenta])
        yield inst


def layout_instances(seed, count):
    """Seeded admissible instances with N >= n - 2, cycling n = 2..5 and
    N = n - 2 .. n + 3 through five point layouts: random rationals, the same
    moved to Gaussian positions, a point at 0, symmetric +-x nodes, and
    apparent points on the imaginary axis."""
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % 4
        num = n - 2 + (k // 4) % 6
        layout = (k // 24) % 5
        size, den = n + num, rng.randint(1, 3)
        if layout == 3:
            half = rng.sample(range(1, 21), (size + 1) // 2)
            xs = [Fraction(sign * v, den) for v in half for sign in (1, -1)][:size]
        else:
            xs = [Fraction(v, den) for v in rng.sample(range(-20, 21), size)]
            if layout == 2 and 0 not in xs:
                xs[rng.randrange(size)] = Fraction(0)
        rng.shuffle(xs)
        points = [GaussianRational(x) for x in xs]
        if layout == 1:
            shift = _shift(rng)
            points = [x + shift for x in points]
        if layout == 4:
            points[n:] = [GaussianRational(0, x) for x in xs[n:]]
        pairs = [(small_gaussian(rng), small_gaussian(rng)) for _ in range(n)]
        first = small_gaussian(rng)
        total = sum((a + b for a, b in pairs), first)
        infinity = (first, GaussianRational(n - num - 1) - total)
        apparent = [(q, small_gaussian(rng)) for q in points[n:]]
        yield FuchsianInstance(list(zip(points[:n], pairs)), infinity, apparent)


_DENOMINATOR = st.one_of(st.integers(1, 6), st.integers(1, 10**12))
_RATIONAL = st.builds(Fraction, st.integers(-40, 40), _DENOMINATOR)
_POSITION = st.one_of(
    st.just(ZERO),
    st.builds(GaussianRational, _RATIONAL, st.one_of(st.just(Fraction(0)), _RATIONAL)),
)
_SMALL = st.builds(GaussianRational, st.integers(-4, 4), st.integers(-2, 2))


@st.composite
def domain_draws(draw, extra=3):
    """(instance, free values): n = 2..6, N = 0..n + extra, distinct Gaussian
    rational positions (0 allowed, denominators up to 10^12), small Gaussian
    exponents and momenta, admissible exponent sum."""
    n = draw(st.integers(2, 6))
    num = draw(st.integers(0, n + extra))
    points = draw(st.lists(_POSITION, min_size=n + num, max_size=n + num, unique=True))
    pairs = [(draw(_SMALL), draw(_SMALL)) for _ in range(n)]
    first = draw(_SMALL)
    total = sum((a + b for a, b in pairs), first)
    infinity = (first, GaussianRational(n - num - 1) - total)
    apparent = [(q, draw(_SMALL)) for q in points[n:]]
    free = [draw(_SMALL) for _ in range(max(n - 2 - num, 0))]
    return FuchsianInstance(list(zip(points[:n], pairs)), infinity, apparent), free
