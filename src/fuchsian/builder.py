"""Assembly and solution of the two linear systems behind the construction.

The coefficient polynomial g of the w'-term is pinned by its residues: g/psi
has residue c = 1 - rho1 - rho2 at a prescribed point t_i and c = -1 at an
apparent point q_j.  With deg g < deg psi this is the partial-fraction sum

    g / psi = sum_k c_k / (z - x_k),   g = sum_k c_k * psi / (z - x_k),

so g needs no linear system: each term is psi deflated by one root.  (The
same conditions, read as g(x_k) = c_k psi'(x_k), form the square Vandermonde
system of build_g_system, which the tests keep as the oracle.)  The top
coefficient of g is sum_k c_k; the condition at infinity asks for 1 + l1 + l2,
and the two differ by exactly the exponent-sum defect, so solve_g re-checks
that condition and rejects an inadmissible instance.

The h-system stacks one top-coefficient row for infinity, value rows at all
points, and first- plus second-derivative rows at the apparent points:

    row(infinity):  h_top                          = l1 * l2
    row(t_i):       h(t_i)                         = rho1 * rho2 * psi'(t_i)^2
    row(q_j):       h(q_j)                         = 0
    row(q_j, d1):   h'(q_j)                        = p_j * psi'(q_j)^2
    row(q_j, d2):   h''(q_j)                       = delta_j p_j^2 + epsilon_j p_j

with

    delta_j   = -2 psi'(q_j)^2
    epsilon_j = psi'(q_j) * (psi''(q_j) - 2 g'(q_j)).

epsilon_j is delta_j * (g1_j - psi''(q_j)/psi'(q_j)), g1_j the order-0 Laurent
coefficient of g/psi at q_j, simplified so that no right-hand side needs a
division; the tests check it against that expansion.

h_rhs_terms is the one definition of these right-hand sides, as coefficients
of each row's own momentum; the exact system, the quadratic momentum
constraints and the float obstruction path all read it.

The h-matrix always has maximal rank and its first min(rows, cols) rows are
independent, so h_residuals settles every regime with one elimination of
those rows.  For N <= n - 2 they are the whole system, and h is the
particular solution plus free_k times the k-th nullspace vector; those
vectors belong to the non-pivot columns z^(n+3N) .. z^(2d-3), so free_k is
the coefficient of z^(n+3N+k) in h, and they span Omega * z^k with
Omega = prod (z - t_i) prod (z - q_j)^3.  For N > n - 2 they are the
leading Hermite block, a nonsingular confluent Vandermonde system that
fixes h, and each later row h''(q_j) leaves as its residual the value of
q_j's momentum constraint at the instance's momenta.

Every one of these closed forms is cross-checked against the Laurent-series
oracle in the test suite; none is taken on faith.
"""

from __future__ import annotations

from .linalg import Matrix, eliminate
from .model import FuchsianEquation, FuchsianInstance, fuchs_defect, psi, require_valid
from .polynomials import Polynomial
from .scalars import ONE, ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


class FuchsViolation(ValueError):
    """The condition at infinity fails: the exponent sum is inadmissible."""


class VerificationFailed(RuntimeError):
    """An exact check that the theory guarantees did not hold.

    Raised instead of an assert so that it survives ``python -O``; the CLI
    maps it to exit code 3.
    """


def build_g_system(instance: FuchsianInstance):
    """Square Vandermonde system for the g coefficients.

    Rows are the finite points followed by the apparent points; the redundant
    infinity row is omitted.  Columns are powers 0 .. n+N-1.  The right-hand
    side is (1 - rho1 - rho2) * psi'(t_i) at a finite point and -psi'(q_j) at
    an apparent one, which forces residue -1 of g/psi there.
    """
    require_valid(instance)
    d = instance.n + instance.num_apparent
    points = instance.finite_positions + instance.apparent_positions
    rows = [_power_row(x, d) for x in points]
    dpsi = psi(instance).derivative()
    rhs = [(GaussianRational(1) - pair.sum) * dpsi(t) for t, pair in instance.finite_points]
    rhs += [-dpsi(q) for q in instance.apparent_positions]
    return Matrix.from_rows(rows), tuple(rhs)


def solve_g(instance: FuchsianInstance) -> Polynomial:
    """The unique g, by partial fractions, with the infinity condition checked.

    Raises FuchsViolation when the instance's exponent sum is inadmissible,
    which is exactly when the top coefficient disagrees with 1 + l1 + l2.
    """
    require_valid(instance)
    psi_coeffs = psi(instance).coeffs
    residues = [(t, ONE - pair.sum) for t, pair in instance.finite_points]
    residues += [(q, -ONE) for q in instance.apparent_positions]
    d = len(psi_coeffs) - 1
    coeffs = [ZERO] * d
    for x, c in residues:
        quotient = ZERO  # synthetic division of psi by (z - x), top down
        for i in range(d - 1, -1, -1):
            quotient = quotient * x + psi_coeffs[i + 1]
            coeffs[i] = coeffs[i] + c * quotient
    g = Polynomial(coeffs)
    expected_top = ONE + instance.infinity_exponents.sum
    if g.coefficient(d - 1) != expected_top:
        defect = fuchs_defect(instance)
        raise FuchsViolation(
            f"inconsistent at infinity: top coefficient {g.coefficient(d - 1)} != "
            f"{expected_top}; exponent-sum defect is {defect}"
        )
    return g


def h_rhs_terms(instance: FuchsianInstance, g: Polynomial) -> list:
    """Each h-system row's right-hand side as (j, const, lin, quad).

    The row's value is const + lin * p_j + quad * p_j^2 with p_j the momentum
    of apparent point j (0-based); rows whose value involves no momentum have
    j = None and lin = quad = 0.  Row order is that of h_matrix.
    """
    p = psi(instance)
    dpsi, ddpsi, dg = p.derivative(), p.derivative(2), g.derivative()
    terms = [(None, instance.infinity_exponents.product, ZERO, ZERO)]
    for t, pair in instance.finite_points:
        slope = dpsi(t)
        terms.append((None, pair.product * slope * slope, ZERO, ZERO))
    terms += [(None, ZERO, ZERO, ZERO)] * instance.num_apparent
    slopes = [(q, dpsi(q)) for q in instance.apparent_positions]
    terms += [(j, ZERO, slope * slope, ZERO) for j, (_, slope) in enumerate(slopes)]
    terms += [
        (j, ZERO, slope * (ddpsi(q) - 2 * dg(q)), -2 * slope * slope)
        for j, (q, slope) in enumerate(slopes)
    ]
    return terms


def h_matrix(instance: FuchsianInstance) -> Matrix:
    """Coefficient matrix of the h-system; depends on the points only.

    Shape (n + 3N + 1) x (2n + 2N - 1).  Row order: infinity, values at
    t_1..t_n, values at q_1..q_N, first derivatives at q_1..q_N, second
    derivatives at q_1..q_N.  Columns are powers 0 .. 2(n+N-1).
    """
    require_valid(instance)
    d = instance.n + instance.num_apparent
    width = 2 * d - 1
    rows = [[ZERO] * (width - 1) + [ONE]]
    rows += [_power_row(t, width) for t in instance.finite_positions]
    powers = [_power_row(q, width) for q in instance.apparent_positions]
    # d/dz z^k = k z^(k-1) and d2/dz2 z^k = k (k-1) z^(k-2), read off the powers
    rows += powers
    rows += [[ZERO] + [k * row[k - 1] for k in range(1, width)] for row in powers]
    rows += [[ZERO, ZERO] + [k * (k - 1) * row[k - 2] for k in range(2, width)] for row in powers]
    return Matrix.from_rows(rows)


def build_h_system(instance: FuchsianInstance, g: Polynomial):
    """The h-system matrix together with its right-hand side."""
    momenta = instance.momenta
    rhs = tuple(
        const if j is None else const + (lin + quad * momenta[j]) * momenta[j]
        for j, const, lin, quad in h_rhs_terms(instance, g)
    )
    return h_matrix(instance), rhs


def h_residuals(instance: FuchsianInstance, g: Polynomial, free_values=()):
    """h from eliminating the first min(rows, cols) rows of the h-system,
    and (j, rhs_r - row_r . h) for each later row r, j 1-based.

    h is particular + sum_k free_values[k] * nullspace_basis[k].  Row r is
    h''(q_j); with y its left-nullspace vector the residual equals y . rhs,
    constraint j's value at the momenta.  Raises VerificationFailed unless
    the eliminated rows are consistent with nullity len(free_values).
    """
    matrix, rhs = build_h_system(instance, g)
    size = min(matrix.rows, matrix.cols)
    block = matrix if size == matrix.rows else Matrix(size, size, matrix.entries[: size * size])
    outcome = eliminate(block, rhs[:size])
    nullity = len(outcome.nullspace_basis)
    if outcome.kind == "inconsistent" or nullity != len(free_values):
        raise VerificationFailed(
            f"h-system is {outcome.kind} with nullity {nullity} != {len(free_values)} free values"
        )
    coeffs = list(outcome.particular)
    for value, vector in zip(free_values, outcome.nullspace_basis):
        coeffs = [c + value * v for c, v in zip(coeffs, vector)]
    j0 = instance.num_apparent + 1 - matrix.rows  # the last N rows are h''(q_1 .. q_N)
    residuals = []
    if size < matrix.rows:
        # on Gaussian integers: h over one denominator, row r and rhs[r] over another
        hd, hr, hi = to_gaussian_ints(coeffs)
        for r in range(size, matrix.rows):
            den, ar, ai = to_gaussian_ints(matrix.row(r) + (rhs[r],))
            re = ar[-1] * hd - sum(x * y - u * v for x, u, y, v in zip(ar, ai, hr, hi))
            im = ai[-1] * hd - sum(x * v + u * y for x, u, y, v in zip(ar, ai, hr, hi))
            residuals.append((r + j0, from_gaussian_ints(re, im, den * hd)))
    return Polynomial(coeffs), tuple(residuals)


def solve_h(instance: FuchsianInstance, g: Polynomial, free_values=()) -> Polynomial:
    """h_residuals' h, which must solve the whole h-system.

    Raises VerificationFailed on a nonzero residual: momenta that violate
    the constraints of an overdetermined instance.
    """
    h, residuals = h_residuals(instance, g, free_values)
    if any(value for _, value in residuals):
        raise VerificationFailed("h-system is inconsistent")
    return h


def construct(instance: FuchsianInstance) -> FuchsianEquation:
    """Build the unique equation for the square case N = n - 2.

    For other apparent-point counts use the dimension module (solve_under /
    check_momenta).  Raises FuchsViolation on an inadmissible exponent sum.
    """
    require_valid(instance)
    n, num = instance.n, instance.num_apparent
    if num != n - 2:
        raise ValueError(
            f"construct requires N = n - 2 (got n={n}, N={num}); "
            "use fuchsian.dimension.solve_under or check_momenta instead"
        )
    g = solve_g(instance)
    return FuchsianEquation(g, solve_h(instance, g), instance)


def _power_row(x: GaussianRational, width: int) -> list:
    """(1, x, x^2, ..., x^(width-1)); width >= 1."""
    row = [ONE]
    for _ in range(width - 1):
        row.append(row[-1] * x)
    return row

