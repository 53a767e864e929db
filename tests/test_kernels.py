"""Elimination and the integer kernels against the Fraction algorithms.

Elimination, rank, determinant, the monic product prod (Z - X)^m, the
Taylor head with its quotient, psi, Taylor shifts, series products and the
Frobenius recursion are each uniquely determined, so the package must
return exactly what `fraction_reference` computes one canonical
GaussianRational step at a time.  The cleared residual is a different
polynomial from the series-form one, so only its vanishing is compared.
"""

import random
from fractions import Fraction
from math import gcd

from conftest import cleared_residual, frame_psi, recursion, reference_local
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import regime_instances

import fraction_reference as ref
from elimination_reference import build_g_system
from fuchsian.builder import build_h_system, construct, solve_g, solve_h
from fuchsian.frobenius import DEFAULT_DEPTH, _recursion, verify
from fuchsian.linalg import Matrix, det, eliminate
from fuchsian.model import FuchsianEquation, FuchsianInstance
from fuchsian.polynomials import (
    Polynomial, _from_frame, _in_frame, _monic_ints, _product_sum, _taylor_head_ints,
)
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


def _entry(rng, complex_entries):
    if rng.random() < 0.25:
        return ZERO
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if complex_entries else 0
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)), im)


def _matrices(seed):
    """(label, matrix, rhs) for square, wide, tall, rank-deficient, zero-row,
    zero-column, inconsistent and 1x1 systems, real and Gaussian."""
    rng = random.Random(seed)
    for k in range(160):
        complex_entries = k % 2 == 1
        kind = ("square", "wide", "tall", "deficient", "zero_row", "zero_col",
                "inconsistent", "one")[k % 8]
        rows, cols = {
            "square": (rng.randint(2, 6),) * 2,
            "wide": (rng.randint(1, 4), rng.randint(5, 7)),
            "tall": (rng.randint(5, 7), rng.randint(1, 4)),
            "one": (1, 1),
        }.get(kind, (rng.randint(2, 6), rng.randint(2, 6)))
        grid = [[_entry(rng, complex_entries) for _ in range(cols)] for _ in range(rows)]
        rhs = [_entry(rng, complex_entries) for _ in range(rows)]
        if kind in ("deficient", "inconsistent"):
            # the last row (and its rhs, unless inconsistent) is a combination
            a, b = _entry(rng, True) or GaussianRational(2), _entry(rng, complex_entries)
            grid[-1] = [a * x + b * y for x, y in zip(grid[0], grid[-2])]
            rhs[-1] = a * rhs[0] + b * rhs[-2] + int(kind == "inconsistent")
        elif kind == "zero_row":
            grid[rng.randrange(rows)] = [ZERO] * cols
        elif kind == "zero_col":
            col = rng.randrange(cols)
            for row in grid:
                row[col] = ZERO
        yield kind, Matrix.from_rows(grid), rhs


def _assert_same_outcome(matrix, rhs):
    got, want = eliminate(matrix, rhs), ref.eliminate(matrix, rhs)
    for name in got._fields:
        assert getattr(got, name) == getattr(want, name), name
    return got


def _assert_same_rank_det(matrix):
    assert eliminate(matrix, [ZERO] * matrix.rows).rank == ref.rank(matrix)
    if matrix.rows == matrix.cols:
        assert det(matrix) == ref.det(matrix)


def test_elimination_matches_fraction_reference():
    kinds = set()
    for kind, matrix, rhs in _matrices(404):
        outcome = _assert_same_outcome(matrix, rhs)
        _assert_same_rank_det(matrix)
        kinds.add((kind, outcome.kind))
    # every shape ran, and every outcome kind was met
    assert {k for k, _ in kinds} >= {"square", "wide", "tall", "one", "zero_row", "zero_col"}
    assert {o for _, o in kinds} == {"unique", "underdetermined", "inconsistent"}
    assert ("inconsistent", "inconsistent") in kinds


def test_zero_and_unit_edge_cases():
    for matrix in (Matrix.from_rows([[0]]), Matrix.from_rows([[0, 0], [0, 0]]),
                   Matrix.from_rows([[GaussianRational(0, Fraction(2, 3))]])):
        _assert_same_rank_det(matrix)
        _assert_same_outcome(matrix, [GaussianRational(1)] * matrix.rows)
        _assert_same_outcome(matrix, [ZERO] * matrix.rows)


def test_g_and_h_systems_match_fraction_reference():
    for _, inst, _ in regime_instances(505, 24):
        g_matrix, g_rhs = build_g_system(inst)
        _assert_same_outcome(g_matrix, g_rhs)
        _assert_same_rank_det(g_matrix)
        h_matrix, h_rhs = build_h_system(inst, solve_g(inst))
        _assert_same_outcome(h_matrix, h_rhs)
        _assert_same_rank_det(h_matrix)


def test_mixed_real_and_imaginary_rows_match_fraction_reference():
    # Real finite points beside apparent points off the real axis, the layout
    # on which elimination over Gaussian integers once grew out of bounds.
    n, num = 5, 6
    instance = FuchsianInstance(
        [(t, (0, 0)) for t in range(1, n + 1)], (0, -2),
        [(GaussianRational(Fraction(1, 3), y), 0) for y in range(5, 5 + num)],
    )
    matrix, rhs = build_h_system(instance, solve_g(instance))
    for b in (rhs, [ZERO] * matrix.rows):
        outcome = _assert_same_outcome(matrix, b)
        assert outcome.rank == min(2 * n + 2 * num - 1, n + 3 * num + 1)
    _assert_same_rank_det(matrix)


def test_scale_helpers_round_trip():
    rng = random.Random(707)
    for k in range(50):
        values = [_entry(rng, k % 2 == 1) for _ in range(rng.randint(0, 6))]
        den, re, im = to_gaussian_ints(values)
        assert den > 0
        assert [from_gaussian_ints(a, b, den) for a, b in zip(re, im)] == values
        for value in values:
            assert den % value.re.denominator == 0 and den % value.im.denominator == 0
    # a Gaussian denominator: (1 + 2i) / (1 - i) = (-1 + 3i) / 2
    assert from_gaussian_ints(1, 2, 1, -1) == GaussianRational(Fraction(-1, 2), Fraction(3, 2))


_gaussians = st.builds(
    lambda a, b, c, d: GaussianRational(Fraction(a, c), Fraction(b, d)),
    st.integers(-7, 7), st.integers(-7, 7), st.integers(1, 6), st.integers(1, 6),
)
_reals = st.builds(lambda a, c: GaussianRational(Fraction(a, c)), st.integers(-7, 7),
                   st.integers(1, 6))
_coefficients = st.one_of(_gaussians, _reals)


_int_windows = st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=9)
_real_windows = st.lists(st.tuples(st.integers(-30, 30), st.just(0)), max_size=9)
# leading zeros, as solve_h's shifted scalars have, and zero entries
_shifted_windows = st.builds(
    lambda k, window: [(0, 0)] * k + window,
    st.integers(0, 4),
    st.lists(st.just((0, 0)) | st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=9),
)


def _parts(window) -> tuple:
    """(re, im) int lists of a window of (re, im) pairs."""
    return [x for x, _ in window], [y for _, y in window]


def _values(re, im) -> list:
    return [GaussianRational(x, y) for x, y in zip(re, im)]


@settings(max_examples=200, deadline=None)
@given(a=_shifted_windows, b=_int_windows, c=_shifted_windows, d=_int_windows,
       size=st.integers(0, 9))
@example(a=[(1, 0)], b=[(0, 1)] * 5, c=[], d=[(2, -1)], size=5)
@example(a=[(0, 0), (0, 0), (3, -1), (0, 0), (2, 0)], b=[(1, 2), (0, 0), (-4, 1)],
         c=[(0, 0), (0, 0), (0, 0), (0, 5)], d=[(7, 0)] * 6, size=8)
def test_series_product_matches_convolution(a, b, c, d, size):
    # _product_sum, the package's one product kernel: orders 0 .. size-1 of
    # a*b and of a*b + c*d, entries past a window's end counting as zero;
    # a and c start with zeros, as solve_h's shifted scalars do, and hold
    # zero entries, which the kernel skips
    def padded(window):
        return (_values(*_parts(window)) + [ZERO] * size)[:size]

    product = ref.series_product(padded(a), padded(b))
    assert _values(*_product_sum(size, (_parts(a), _parts(b)))) == product
    product = [x + y for x, y in zip(product, ref.series_product(padded(c), padded(d)))]
    got = _product_sum(size, (_parts(a), _parts(b)), (_parts(c), _parts(d)))
    assert _values(*got) == product


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(_coefficients, max_size=10), at=_coefficients,
       terms=st.integers(1, 12))
@example(coeffs=[ZERO, ZERO, GaussianRational(3)], at=ZERO, terms=2)
@example(coeffs=[ZERO, ZERO], at=GaussianRational(1, 1), terms=3)
@example(coeffs=[], at=GaussianRational(Fraction(1, 2), -1), terms=4)
def test_taylor_head_matches_fraction_reference(coeffs, at, terms):
    # the shifted polynomial's coefficients are the Taylor coefficients at
    # `at`: zero below the order there, then the reference's head
    order, head = ref.taylor_head(coeffs, at, terms)
    p = Polynomial(coeffs)
    shifted = p.shift(at)
    assert shifted.degree == p.degree
    assert [shifted.coefficient(k) for k in range(order + terms)] == [ZERO] * order + head


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(_coefficients, max_size=10), e=st.integers(1, 12))
@example(coeffs=[], e=1)
@example(coeffs=[], e=6)
@example(coeffs=[ZERO, GaussianRational(Fraction(1, 3), -2)], e=1)
def test_frame_round_trip(coeffs, e):
    # _in_frame writes E^deg p(Z/E) in lowest terms and _from_frame reads it
    # back; read at deg - 1, every coefficient comes back times E, and
    # padding with zeros, as verify's frame does, changes nothing
    p = Polynomial(coeffs)
    deg = len(p.coeffs) - 1
    den, re, im = _in_frame(p.coeffs, e)
    assert den > 0 and gcd(den, *re, *im) == 1 and len(re) == len(im) == deg + 1
    assert _from_frame(den, re, im, e, deg) == p
    assert _from_frame(den, re, im, e, deg - 1) == Polynomial([c * e for c in p.coeffs])
    assert _from_frame(*_in_frame(p.padded(deg + 3), e), e, deg + 2) == p


_nodes = st.lists(st.tuples(_coefficients, st.integers(1, 3)), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(nodes=_nodes)
@example(nodes=[(ZERO, 3), (GaussianRational(Fraction(1, 2), Fraction(-2, 3)), 2)])
def test_monic_product_matches_fraction_reference(nodes):
    # prod (Z - X)^m on the points written over their lcm, X = E x, against
    # the reference product of linear factors
    _, xr, xi = to_gaussian_ints([x for x, _ in nodes])
    mults = [m for _, m in nodes]
    pr, pi = _monic_ints([1], [0], xr, xi, mults)
    roots = [GaussianRational(a, b) for a, b, m in zip(xr, xi, mults) for _ in range(m)]
    assert Polynomial(_values(pr, pi)) == ref.poly_from_roots(roots)
    assert len(pr) == len(pi) == len(roots) + 1
    # continued from prod (Z - X), as Omega~ is from Psi~, the product is the same
    start = _monic_ints([1], [0], xr, xi, [1] * len(mults))
    assert _monic_ints(*start, xr, xi, [m - 1 for m in mults]) == (pr, pi)


@settings(max_examples=200, deadline=None)
@given(window=_int_windows | _real_windows,
       at=st.tuples(st.integers(-9, 9), st.just(0) | st.integers(-9, 9)), terms=st.integers(1, 3))
@example(window=[(5, -1)], at=(0, 0), terms=1)
@example(window=[(0, 0), (0, 0), (1, 0)], at=(2, -3), terms=3)
@example(window=[(4, 0), (-1, 0), (3, 0), (2, 0), (-5, 0)], at=(-2, 0), terms=2)
def test_taylor_head_and_quotient_rebuild_the_input(window, at, terms):
    # _taylor_head_ints returns the head of k = terms Taylor coefficients at
    # X and past it the quotient by (Z - X)^k: sum_(i<k) head_i (Z - X)^i +
    # (Z - X)^k quotient is the input, at real and non-real X
    re, im = _taylor_head_ints(*_parts(window), *at, terms)
    assert len(re) == len(im) == max(len(window), terms)
    values = _values(re, im)
    powers = [ref.poly_from_roots([GaussianRational(*at)] * i) for i in range(terms + 1)]
    rebuilt = ref.poly_add(
        *[ref.poly_mul(Polynomial((c,)), power) for c, power in zip(values[:terms], powers)],
        ref.poly_mul(powers[terms], Polynomial(values[terms:])),
    )
    assert rebuilt == Polynomial(_values(*_parts(window)))


@settings(max_examples=150, deadline=None)
@given(points=st.lists(_coefficients, min_size=2, max_size=7, unique=True),
       apparent=st.integers(0, 5))
@example(points=[ZERO, GaussianRational(Fraction(1, 3), 2), GaussianRational(Fraction(-5, 2))],
         apparent=1)
def test_psi_matches_fraction_reference(points, apparent):
    n = max(2, len(points) - apparent)
    inst = FuchsianInstance(
        [(t, (0, 0)) for t in points[:n]], (0, 0), [(q, 0) for q in points[n:]]
    )
    # the point frame's Psi~_k / E^(d-k) against the product of linear factors
    assert frame_psi(inst) == ref.psi(inst)


def _apparent_locals(terms):
    """(label, reference local) at every apparent point of 60 seeded
    square/under/over equations."""
    for case, inst, free in regime_instances(5150, 60):
        g = solve_g(inst)
        eq = FuchsianEquation(g, solve_h(inst, free), inst)
        for q in inst.apparent_positions:
            yield (case, q), reference_local(eq, q, terms)


def test_frobenius_recursion_matches_fraction_reference(random_apparent_locals):
    # omega and every a_s, on arbitrary apparent-shaped data (the locals of
    # the closed-form test) and at constructed apparent points, both with the
    # window verify uses and with the shortest, 3-term one that reaches s = 2
    cases = [(("random", k), local) for k, local in enumerate(random_apparent_locals)]
    cases += list(_apparent_locals(10))
    cases += list(_apparent_locals(3))
    assert len(cases) > 400
    omegas = []
    for label, local in cases:
        got = recursion(local)
        assert got == ref.obstruction(local, DEFAULT_DEPTH), label
        omegas.append(got[0])
    assert any(omegas) and not all(omegas)


def _leading_windows(random_apparent_locals):
    """(local, (a, b, c)) for each local, the equation times a unit window
    U^2, which has the same series solution and omega: A = U^2, B = U^2 (u g)
    and C = U^2 (u h), scaled by conj(U_0)^2.  Every other local is made
    log-free by its closed form h_0 = -(g_0 + h_(-1)) h_(-1), so that the
    recursion runs past s = 2."""
    rng = random.Random(2718)
    for k, local in enumerate(random_apparent_locals):
        if k % 2:
            g, (h_pole, _, *h_rest) = local.g_series, local.h_series.coeffs
            h_0 = -(g.coefficient(0) + h_pole) * h_pole
            local = local._replace(h_series=ref.Window(ZERO, -1, (h_pole, h_0, *h_rest)))
        top = ref.recursion_top(local, DEFAULT_DEPTH)
        unit = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(top)]
        unit[0] = unit[0] or GaussianRational(1, -2)
        lead = unit[0].conjugate()
        square = [lead * lead * x for x in ref.series_product(unit, unit)]
        b, c = (
            ref.series_product(square, [w.coefficient(o) for o in range(-1, top - 1)])
            for w in (local.g_series, local.h_series)
        )
        den, re, im = to_gaussian_ints(square + b + c)
        yield local, tuple((re[j : j + top], im[j : j + top]) for j in range(0, 3 * top, top))


def test_frobenius_recursion_reads_the_leading_window(random_apparent_locals):
    # The windows of _leading_windows run the k (k-1) A term, which
    # conftest.recursion's constant leading window never reaches.
    omegas = []
    for k, (local, windows) in enumerate(_leading_windows(random_apparent_locals)):
        omega, ar, ai, e = _recursion(*windows)
        got = from_gaussian_ints(*omega), tuple(from_gaussian_ints(x, y, e) for x, y in zip(ar, ai))
        assert got == ref.obstruction(local, DEFAULT_DEPTH), k
        omegas.append(got[0])
    assert any(omegas) and not all(omegas)


def test_recursion_reads_a_to_two_orders_short(random_apparent_locals):
    # A is read against a_k for k > 2 only (k (k-1) vanishes at k = 1, and
    # a_2 = 0 past the resonance), so its last two orders are never read
    runs = []
    for local, (a, b, c) in _leading_windows(random_apparent_locals):
        got = _recursion(tuple(part[: len(b[0]) - 2] for part in a), b, c)
        assert got == _recursion(a, b, c)
        runs.append(len(got[1]))
    assert max(runs) == DEFAULT_DEPTH + 1 and min(runs) == 2


_gaussian_int = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=200, deadline=None)
@given(top=st.integers(3, 10), lead=st.integers(1, 6), log_free=st.booleans(), data=st.data())
def test_recursion_ignores_the_tail_of_a(top, lead, log_free, data):
    # arbitrary windows with A_0 = lead and B_0 = -lead, half of them made
    # log-free at s = 2 (C_0 = lead t and C_1 = -(B_1 + C_0) t make omega
    # vanish); A's last two orders are drawn and never read
    def window():
        return _parts(data.draw(st.lists(_gaussian_int, min_size=top, max_size=top)))

    (ar, ai), (br, bi), (cr, ci) = window(), window(), window()
    ar[0], ai[0], br[0], bi[0] = lead, 0, -lead, 0
    if log_free:
        tr, ti = cr[0], ci[0]
        cr[0], ci[0] = lead * tr, lead * ti
        xr, xi = br[1] + cr[0], bi[1] + ci[0]
        cr[1], ci[1] = -(xr * tr - xi * ti), -(xr * ti + xi * tr)
    got = _recursion((ar, ai), (br, bi), (cr, ci))
    assert _recursion((ar[: top - 2], ai[: top - 2]), (br, bi), (cr, ci)) == got
    if log_free:
        assert got[0][:2] == (0, 0) and len(got[1]) == top + 1


def test_cleared_residual_vanishes_with_series_residual():
    # At every apparent point of untampered, g-tampered and h-tampered
    # equations: the recursion's own series, the series with a_4 bumped, and
    # the untampered equation's series.  Both residuals must agree on
    # whether they vanish; both outcomes occur.
    seen = set()
    for case, inst, free in regime_instances(6262, 30):
        if not inst.num_apparent:
            continue
        g = solve_g(inst)
        eq = FuchsianEquation(g, solve_h(inst, free), inst)
        q_prod = ref.poly_from_roots(inst.apparent_positions)
        variants = [
            eq,
            # keeps the residue -1 at every q_j, so the recursion still runs
            FuchsianEquation(ref.poly_add(eq.g, q_prod), eq.h, inst),
            FuchsianEquation(eq.g, ref.poly_add(eq.h, ref.poly_mul(q_prod, q_prod)), inst),
            FuchsianEquation(eq.g, ref.poly_add(eq.h, Polynomial((0, 1))), inst),
        ]
        for q in inst.apparent_positions:
            _, own = recursion(reference_local(eq, q))
            for tampered in variants:
                local = reference_local(tampered, q)
                if local.g_series.coefficient(-1) != -1 or local.h_series.coefficient(-2):
                    continue
                omega, series = recursion(local)
                candidates = [own]
                if not omega:
                    candidates += [series, series[:4] + (series[4] + 1,) + series[5:]]
                for coefficients in candidates:
                    cleared = cleared_residual(local, coefficients)
                    assert len(cleared) == len(coefficients)
                    vanishes = not any(cleared)
                    assert vanishes == (not any(ref.series_residual(local, coefficients)))
                    seen.add(vanishes)
    assert seen == {True, False}


def _with_tampering(eq):
    """eq, eq with g tampered by the product over the apparent points (the
    residue stays -1, so the recursion runs to a nonzero omega) and eq with
    h tampered by 1 + z^2."""
    inst = eq.instance
    q_prod = ref.poly_from_roots(inst.apparent_positions)
    return (
        eq,
        FuchsianEquation(ref.poly_add(eq.g, q_prod), eq.h, inst),
        FuchsianEquation(eq.g, ref.poly_add(eq.h, Polynomial((1, 0, 1))), inst),
    )


def test_verify_matches_fraction_reference():
    # every field of the report, on square, under and over equations, half at
    # Gaussian positions, untampered and tampered
    outcomes = []
    for case, inst, free in regime_instances(2718, 45):
        g = solve_g(inst)
        for eq in _with_tampering(FuchsianEquation(g, solve_h(inst, free), inst)):
            report = verify(eq)
            assert report == ref.verify(eq), (case, eq)
            outcomes.append(report.overall)
    assert outcomes[::3] == [True] * 45 and not any(outcomes[1::3] + outcomes[2::3])


_small = st.builds(
    lambda a, b, c, e: GaussianRational(Fraction(a, b), Fraction(c, e)),
    st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6), st.integers(1, 4),
)


@st.composite
def _gaussian_square_instances(draw):
    """A square instance (N = n - 2) at distinct Gaussian-rational positions,
    with the second exponent at infinity closing the Fuchs relation."""
    n = draw(st.integers(2, 5))
    num = n - 2
    positions = draw(st.lists(_small, min_size=n + num, max_size=n + num, unique=True))
    exponents = draw(st.lists(_small, min_size=2 * n + 1, max_size=2 * n + 1))
    momenta = draw(st.lists(_small, min_size=num, max_size=num))
    finite = [(positions[i], (exponents[2 * i], exponents[2 * i + 1])) for i in range(n)]
    total = sum((exponents[i] for i in range(2 * n + 1)), ZERO)
    infinity = (exponents[2 * n], GaussianRational(n - num - 1) - total)
    return FuchsianInstance(finite, infinity, list(zip(positions[n:], momenta)))


@settings(max_examples=40, deadline=None)
@given(_gaussian_square_instances())
def test_verify_matches_fraction_reference_at_gaussian_positions(inst):
    eq = construct(inst)
    for tampered in _with_tampering(eq):
        assert verify(tampered) == ref.verify(tampered)
    assert verify(eq).overall


_fractions_9 = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_gaussians_9 = st.builds(GaussianRational, _fractions_9, _fractions_9)
_coefficients_9 = st.one_of(_gaussians_9, st.builds(GaussianRational, _fractions_9))


@st.composite
def _arbitrary_equations(draw):
    """An equation the builder never produces: g of degree below d (zero,
    lower or full degree) and h of degree at most 2d - 2, with random
    coefficients over denominators 1..9, on a square, under or over instance
    shifted by a Gaussian c with mixed denominators."""
    n = draw(st.integers(2, 5))
    num = draw(st.integers(0, n + 1))
    inst = random_instance(n, num, seed=draw(st.integers(0, 10**6))).shifted(draw(_gaussians_9))
    d = n + num
    g = Polynomial(draw(st.lists(_coefficients_9, max_size=d)))
    h = Polynomial(draw(st.lists(_coefficients_9, max_size=2 * d - 1)))
    return FuchsianEquation(g, h, inst)


@settings(max_examples=150, deadline=None)
@given(_arbitrary_equations())
def test_verify_matches_fraction_reference_on_arbitrary_equations(eq):
    # every field of the report where g and h are not what the builder
    # writes, so a slip in framing g or h (a lower degree, a zero polynomial,
    # a denominator) shows even when the equation fails its checks anyway
    assert verify(eq) == ref.verify(eq)
