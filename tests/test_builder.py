"""Construction: both linear systems, local constants, and the oracles.

The closed-form right-hand sides and local constants were derived by hand,
so every one of them is checked here against coefficients extracted from
exact Laurent expansions, and the full construction is checked against an
independent cofactor-expansion solver on a frozen fixture.
"""

import random
from fractions import Fraction
from math import factorial

import elimination_reference
import fraction_reference as ref
import pytest
from elimination_reference import build_g_system
from strategies import regime_instances, violating_over

import fuchsian.builder
import fuchsian.model
import fuchsian.polynomials
from fuchsian.builder import (
    FuchsViolation,
    VerificationFailed,
    build_h_system,
    construct,
    fredholm_values,
    h_matrix,
    h_rhs_terms,
    solve_g,
    solve_h,
)
from fuchsian.dimension import quadratic_constraints, solve_under
from fuchsian.frobenius import verify
from fuchsian.linalg import Matrix, det, eliminate
from fuchsian.model import FuchsianEquation, FuchsianInstance, fuchs_defect
from fuchsian.polynomials import Polynomial
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EXAMPLE_A = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 2))
EXAMPLE_B = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 1))
# n=3 with one apparent point at 3, zero momentum
EXAMPLE_C = FuchsianInstance(
    [(0, (0, 1)), (1, (0, 1)), (2, (0, 1))], (-1, -1), [(3, 0)]
)
N2N1 = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 3)])


def test_g_rhs_examples():
    _, rhs = build_g_system(EXAMPLE_A)
    assert rhs[0] == gr(-4)  # 4 * psi'(0) = 4 * (-1)
    assert rhs[1] == ZERO  # 1 - 0 - 1 = 0
    _, rhs = build_g_system(N2N1)
    assert rhs[2] == gr(-2)  # -psi'(2), psi' = 3z^2-6z+2


def test_build_g_system_example_a():
    matrix, rhs = build_g_system(EXAMPLE_A)
    assert matrix == Matrix.from_rows([[1, 0], [1, 1]])
    assert rhs == (gr(-4), ZERO)
    assert det(matrix) == gr(1)


def test_build_g_system_vandermonde():
    matrix, _ = build_g_system(N2N1)
    assert matrix == Matrix.from_rows([[1, 0, 0], [1, 1, 1], [1, 2, 4]])


def test_solve_g_examples():
    assert solve_g(EXAMPLE_A) == Polynomial((-4, 4))
    assert solve_g(EXAMPLE_B) == Polynomial((-1, 2))


def test_solve_g_fuchs_violation():
    bad = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 1))
    assert fuchs_defect(bad) == gr(-1)
    with pytest.raises(FuchsViolation):
        solve_g(bad)


def test_h_rhs_examples():
    _, rhs = build_h_system(EXAMPLE_A, solve_g(EXAMPLE_A))
    assert rhs[1] == ZERO  # finite row at t = 0
    assert rhs[0] == gr(2)  # infinity row
    g2 = solve_g(N2N1)
    # rows: infinity, t = 0, t = 1, value, first and second derivative at q = 2
    _, rhs = build_h_system(N2N1, g2)
    assert rhs[4] == gr(12)  # 3 * psi'(2)^2
    assert rhs[3] == ZERO
    # g2 = z - z^2: delta = -2 psi'(2)^2, epsilon = psi'(2) (psi''(2) - 2 g2'(2))
    assert h_rhs_terms(N2N1)[3:] == (
        (None, ZERO, ZERO, ZERO),
        (0, ZERO, gr(4), ZERO),
        (0, ZERO, gr(24), gr(-8)),  # 2 * (6 + 6), -2 * 2^2
    )
    assert rhs[5] == gr(-8 * 9 + 24 * 3)  # delta p^2 + epsilon p at p = 3


def test_h_system_shapes():
    g = solve_g(EXAMPLE_A)
    matrix, _ = build_h_system(EXAMPLE_A, g)
    assert matrix == Matrix.from_rows([[0, 0, 1], [1, 0, 0], [1, 1, 1]])
    m2 = h_matrix(N2N1)
    assert (m2.rows, m2.cols) == (6, 5)
    m3 = h_matrix(EXAMPLE_C)
    assert (m3.rows, m3.cols) == (7, 7)


def test_local_constants_example():
    # At q = 2: mu = 1/psi'(q)^2 and kappa = -psi''(q)/psi'(q)^3 are the first
    # Laurent coefficients of (z - q)^2 / psi^2, g1 the order-0 one of g/psi.
    g = solve_g(N2N1)
    p = ref.psi(N2N1)
    square = ref.poly_mul(p, p)
    f_series = ref.laurent_expand(ref.poly_from_roots([2, 2]), square, gr(2), 3)
    mu, kappa = f_series.coefficient(0), f_series.coefficient(1)
    g1 = ref.laurent_expand(g, p, gr(2), 3).coefficient(0)
    assert (mu, kappa, g1) == (gr(Fraction(1, 4)), gr(Fraction(-3, 4)), ZERO)
    delta = -2 / mu
    assert h_rhs_terms(N2N1)[-1] == (0, ZERO, delta * (g1 + kappa / mu), delta)
    assert delta == gr(-8)


def test_delta_never_zero():
    rng = random.Random(41)
    for _ in range(15):
        inst = random_instance(rng.randint(3, 6), seed=rng.randint(0, 9999))
        terms = h_rhs_terms(inst)
        second = terms[len(terms) - inst.num_apparent :]
        assert [j for j, *_ in second] == list(range(inst.num_apparent))
        assert all(delta for *_, delta in second)


def test_construct_examples_a_b():
    eq = construct(EXAMPLE_A)
    assert eq.g == Polynomial((-4, 4))
    assert eq.h == Polynomial((0, -2, 2))
    eq_b = construct(EXAMPLE_B)
    assert eq_b.g == Polynomial((-1, 2))
    assert eq_b.h == Polynomial.zero()


def test_construct_requires_square_case():
    with pytest.raises(ValueError, match="dimension"):
        construct(N2N1)


def _cramer_solve(matrix: Matrix, rhs):
    """Independent oracle: Cramer's rule with cofactor-expansion determinants."""

    def minor_det(rows):
        size = len(rows)
        if size == 1:
            return rows[0][0]
        total = ZERO
        sign = gr(1)
        for c in range(size):
            if rows[0][c]:
                sub = [
                    [row[cc] for cc in range(size) if cc != c] for row in rows[1:]
                ]
                total = total + sign * rows[0][c] * minor_det(sub)
            sign = -sign
        return total

    base = [list(matrix.row(r)) for r in range(matrix.rows)]
    d = minor_det(base)
    assert d
    out = []
    for c in range(matrix.cols):
        modified = [row[:c] + [rhs[r]] + row[c + 1 :] for r, row in enumerate(base)]
        out.append(minor_det(modified) / d)
    return tuple(out)


def test_construct_example_c_frozen_and_cramer():
    eq = construct(EXAMPLE_C)
    # Frozen regression fixture, originally computed by the cofactor solver below.
    assert eq.g == Polynomial((0, -2, 3, -1))
    assert eq.h == Polynomial((0, -54, 135, -126, 56, -12, 1))
    g_matrix, g_rhs_vec = build_g_system(EXAMPLE_C)
    assert _cramer_solve(g_matrix, g_rhs_vec) == eq.g.padded(4)
    h_mat, h_rhs_vec = build_h_system(EXAMPLE_C, eq.g)
    assert _cramer_solve(h_mat, h_rhs_vec) == eq.h.padded(7)


def test_oracle_agreement():
    # Every closed-form constant must match the corresponding coefficient of
    # an exact Laurent expansion; 4 draws per size keeps this quick, the
    # acceptance suite runs the 100-instance round trip.
    rng = random.Random(53)
    for n in range(2, 8):
        for _ in range(4):
            inst = random_instance(n, seed=rng.randint(0, 10**6))
            p = ref.psi(inst)
            dpsi, square = ref.poly_derivative(p), ref.poly_mul(p, p)
            g = solve_g(inst)
            _, g_rhs = build_g_system(inst)
            eq = construct(inst)
            for i, (t, pair) in enumerate(inst.finite_points):
                series = ref.laurent_expand(g, p, t, 3)
                assert series.coefficient(-1) * ref.poly_eval(dpsi, t) == g_rhs[i]
                h_series = ref.laurent_expand(eq.h, square, t, 3)
                assert h_series.coefficient(-2) == pair.product
            terms = h_rhs_terms(inst)
            second = terms[len(terms) - inst.num_apparent :]
            for j, (q, momentum) in enumerate(inst.apparent_points):
                # mu = 1/psi'(q)^2, kappa = -psi''(q)/psi'(q)^3 from the
                # expansion of (z-q)^2 / psi^2; g1 from that of g/psi
                factor = ref.poly_from_roots([q, q])
                f_series = ref.laurent_expand(factor, square, q, 3)
                mu, kappa = f_series.coefficient(0), f_series.coefficient(1)
                g_series = ref.laurent_expand(g, p, q, 3)
                assert g_series.coefficient(-1) == gr(-1)
                g1 = g_series.coefficient(0)
                # solved h reproduces the momentum and the log-free coefficient
                h_series = ref.laurent_expand(eq.h, square, q, 3)
                assert h_series.coefficient(-1) == momentum
                assert h_series.coefficient(0) == -momentum * momentum - g1 * momentum
                # the division-free h'' row: epsilon = delta (g1 - psi''/psi'),
                # delta = -2 psi'^2, and kappa/mu = -psi''/psi'
                delta = -2 / mu
                assert second[j] == (j, ZERO, delta * (g1 + kappa / mu), delta)


#: Measured determinant-to-product ratios; the product formula holds up to a
#: constant that depends only on the point counts, frozen here as a fixture.
DET_RATIO_BY_N = {2: gr(-1), 3: gr(2), 4: gr(4), 5: gr(-8), 6: gr(-16)}


def _node_product(inst):
    ts, qs = inst.finite_positions, inst.apparent_positions
    product = gr(1)
    for a in range(len(ts)):
        for b in range(a + 1, len(ts)):
            product = product * (ts[a] - ts[b])
    for t in ts:
        for q in qs:
            product = product * (t - q) ** 3
    for a in range(len(qs)):
        for b in range(a + 1, len(qs)):
            product = product * (qs[a] - qs[b]) ** 9
    return product


def test_derivative_row_matches_power_formula():
    # h_matrix reads the derivative rows off the power rows; entry k of the
    # order-th derivative row at q must be k!/(k-order)! * q^(k-order).
    # The shifts move N2N1's apparent point to 0 and both to Gaussian positions.
    shifts = (gr(0), gr(-2), gr(Fraction(-1, 2), 2))
    for inst in [base.shifted(c) for base in (N2N1, EXAMPLE_C) for c in shifts]:
        matrix, num = h_matrix(inst), inst.num_apparent
        for order in (0, 1, 2):
            for j, q in enumerate(inst.apparent_positions):
                want = tuple(
                    ZERO if k < order else q ** (k - order) * (factorial(k) // factorial(k - order))
                    for k in range(matrix.cols)
                )
                assert matrix.row(1 + inst.n + order * num + j) == want


def test_determinant_product_formula():
    for n in range(2, 7):
        for seed in (1, 2):
            inst = random_instance(n, seed=seed)
            value = det(h_matrix(inst))
            assert value
            assert value / _node_product(inst) == DET_RATIO_BY_N[n]


def test_translation_equivariance():
    rng = random.Random(67)
    for _ in range(6):
        inst = random_instance(rng.randint(2, 5), seed=rng.randint(0, 10**6))
        c = gr(rng.randint(-4, 4), rng.randint(-2, 2))
        eq = construct(inst)
        shifted_eq = construct(inst.shifted(c))
        # tilde g(z) = g(z - c)
        assert shifted_eq.g == eq.g.shift(-c)
        assert shifted_eq.h == eq.h.shift(-c)


def test_redundancy_tracks_defect():
    rng = random.Random(79)
    for _ in range(10):
        inst = random_instance(rng.randint(2, 5), seed=rng.randint(0, 10**6))
        assert fuchs_defect(inst) == ZERO
        solve_g(inst)  # passes
        t, pair = inst.finite_points[0]
        bumped = FuchsianInstance(
            ((t, (pair.rho1 + 1, pair.rho2)),) + inst.finite_points[1:],
            inst.infinity_exponents,
            inst.apparent_points,
        )
        assert fuchs_defect(bumped) == gr(1)
        with pytest.raises(FuchsViolation):
            solve_g(bumped)


def test_solve_h_all_regimes():
    # 108 seeded instances with n <= 6, a third each square, under and
    # consistent over, every other one at Gaussian positions.  The one solve
    # must satisfy its own system exactly, put free_k on z^(n+3N+k), and
    # produce equations that pass verification (checked on every seventh).
    for k, (case, inst, free) in enumerate(regime_instances(2026, 108)):
        n, num = inst.n, inst.num_apparent
        g = solve_g(inst)
        h = solve_h(inst, free)
        matrix, rhs = build_h_system(inst, g)
        coeffs = h.padded(matrix.cols)
        for r in range(matrix.rows):
            row = sum((e * x for e, x in zip(matrix.row(r), coeffs)), ZERO)
            assert row == rhs[r], (k, case, r)
        assert h.coefficient(matrix.cols - 1) == inst.infinity_exponents.product
        for i, value in enumerate(free):
            assert h.coefficient(n + 3 * num + i) == value
        if k % 7 == 0:
            assert verify(FuchsianEquation(g, h, inst)).overall, (k, case)


def test_solve_g_matches_vandermonde_oracle():
    # The partial-fraction g against the eliminated Vandermonde system on 120
    # seeded square/under/consistent-over instances, half at Gaussian
    # positions.  With the first exponent bumped, solve_g must raise the
    # message built from the oracle's top coefficient.
    for k, (case, inst, _) in enumerate(regime_instances(31, 120)):
        oracle = Polynomial(eliminate(*build_g_system(inst)).particular)
        assert solve_g(inst) == oracle, (k, case)
        (t, pair), *rest = inst.finite_points
        shift = gr(1 + k % 3, k % 2)
        bumped = FuchsianInstance(
            [(t, (pair.rho1 + shift, pair.rho2))] + rest,
            inst.infinity_exponents,
            inst.apparent_points,
        )
        top = Polynomial(eliminate(*build_g_system(bumped)).particular).coefficient(
            bumped.n + bumped.num_apparent - 1
        )
        expected = (
            f"inconsistent at infinity: top coefficient {top} != "
            f"{1 + bumped.infinity_exponents.sum}; exponent-sum defect is {shift}"
        )
        with pytest.raises(FuchsViolation) as caught:
            solve_g(bumped)
        assert str(caught.value) == expected, (k, case)


def test_one_point_frame_per_instance(monkeypatch):
    # Psi~ = prod (Z - X) is built once per instance and read by verify, solve_g,
    # the h right-hand sides and the Hermite frame, which continues it to
    # Omega~ with (Z - Q)^(m - 1): n = 6, N = 4 multiplies 10 + 8 factors.
    # g and the Hermite frame are kept on the instance too, so a second
    # construct, solve_under or quadratic_constraints call on the same object
    # multiplies and divides nothing: only the interpolation sum and verify
    # run again.
    original, divide = fuchsian.polynomials._monic_ints, fuchsian.builder._taylor_head_ints
    factors, divisions = [], []

    def counting(*args):  # mults may be endless; the points bound the factors
        factors.append(sum(m for _, m in zip(args[-2], args[-1])))
        return original(*args)

    def counting_divide(*args):
        divisions.append(args)
        return divide(*args)

    for module in (fuchsian.polynomials, fuchsian.model, fuchsian.builder):
        if hasattr(module, "_monic_ints"):
            monkeypatch.setattr(module, "_monic_ints", counting)
    monkeypatch.setattr(fuchsian.builder, "_taylor_head_ints", counting_divide)
    inst = random_instance(6, seed=3)
    eq = construct(inst)
    assert verify(eq).overall
    assert (len(factors), sum(factors)) == (2, 18)
    # g, the right-hand sides' heads of Psi~ and g, then m deflations and
    # W~'s Taylor data per node, m = 1 or 3
    assert len(divisions) == 10 + (10 + 4) + (6 * 2 + 4 * 4)
    factors.clear()
    divisions.clear()
    solve_g(inst)
    assert construct(inst) == eq
    assert (factors, divisions) == ([], [])
    under, over = random_instance(7, 2, seed=5), random_instance(4, 3, seed=8)
    for first, again in (
        (lambda: solve_under(under, [1, 2, 3]), lambda: solve_under(under, [gr(1, 2), 0, -3])),
        (lambda: quadratic_constraints(over), lambda: quadratic_constraints(over)),
    ):
        first()
        assert factors and divisions
        factors.clear()
        divisions.clear()
        again()
        assert (factors, divisions) == ([], [])


def test_solve_h_rejects_wrong_nullity():
    with pytest.raises(VerificationFailed, match="nullity"):
        solve_h(EXAMPLE_C, [ZERO])
    with pytest.raises(VerificationFailed, match="inconsistent"):
        solve_h(N2N1)


def test_residuals_equal_plain_dot_products():
    # consistent over instances (every other one Gaussian-shifted) and
    # violating ones, half of them Gaussian-shifted
    cases = [inst for case, inst, _ in regime_instances(606, 36) if case == "over"]
    cases += violating_over(607, 16)
    violated = 0
    for inst in cases:
        g = solve_g(inst)
        h = elimination_reference.h_residuals(inst, g)[0]
        residuals = fredholm_values(inst, inst.momenta)
        matrix, rhs = build_h_system(inst, g)
        coeffs, num = h.padded(matrix.cols), inst.num_apparent
        first = num + 1 - (matrix.rows - matrix.cols)
        assert [j for j, _ in residuals] == list(range(first, num + 1))
        want = [rhs[r] - ref.dot(matrix.row(r), coeffs) for r in range(matrix.cols, matrix.rows)]
        assert [value for _, value in residuals] == want
        violated += any(want)
    assert violated >= 14 and len(cases) == 28
