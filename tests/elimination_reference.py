"""The elimination algorithms that the closed forms of g and h replaced.

`h_residuals` eliminates the first min(rows, cols) rows of the h-system and
reads the over-case residuals off the rows after them: the oracle of
`builder.solve_h` and `builder.fredholm_values`.  `left_nullspace`
eliminates the transposed h-matrix for one left-nullspace vector per
dependent row, from which `quadratic_constraints` reads the constraints:
the oracle of `builder.fredholm_terms` and `dimension.quadratic_constraints`.
They are the package's code as it was before h became a Hermite
interpolant in partial-fraction form and the constraints a closed form,
and `build_g_system` is the square Vandermonde system whose elimination
the partial-fraction g replaced.  The
differential tests compare the closed forms with them; nothing in the
package imports this module.
"""

import fraction_reference as ref

from fuchsian.builder import VerificationFailed, build_h_system, h_matrix, h_rhs_terms
from fuchsian.dimension import QuadraticConstraint, classify
from fuchsian.linalg import Matrix, eliminate
from fuchsian.polynomials import Polynomial
from fuchsian.scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


def build_g_system(instance):
    """Square Vandermonde system for the g coefficients.

    Rows are the finite points followed by the apparent points; the redundant
    infinity row is omitted.  Columns are powers 0 .. n+N-1.  The right-hand
    side is (1 - rho1 - rho2) * psi'(t_i) at a finite point and -psi'(q_j) at
    an apparent one, which forces residue -1 of g/psi there.
    """
    d = instance.n + instance.num_apparent
    points = instance.finite_positions + instance.apparent_positions
    rows = [[x**k for k in range(d)] for x in points]
    dpsi = ref.poly_derivative(ref.psi(instance))
    rhs = [
        (GaussianRational(1) - pair.sum) * ref.poly_eval(dpsi, t)
        for t, pair in instance.finite_points
    ]
    rhs += [-ref.poly_eval(dpsi, q) for q in instance.apparent_positions]
    return Matrix.from_rows(rows), tuple(rhs)


def h_residuals(instance, g, free_values=()):
    """h from eliminating the first min(rows, cols) rows of the h-system,
    and (j, rhs_r - row_r . h) for each later row r, j 1-based."""
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


def left_nullspace(instance):
    """(r, y) for each row r of the h-matrix after its first 2(n + N) - 1,
    from one elimination of the transposed h-matrix: its first 2(n + N) - 1
    columns are the pivots, and the nullspace vector y of free column r has
    y_r = 1 and zeros at the other free columns."""
    matrix = h_matrix(instance)
    transpose = Matrix.from_rows(zip(*(matrix.row(r) for r in range(matrix.rows))))
    outcome = eliminate(transpose, (ZERO,) * transpose.rows)
    if outcome.pivot_cols != tuple(range(matrix.cols)):
        raise VerificationFailed(
            f"pivot rows {outcome.pivot_cols} of the h-matrix are not its first {matrix.cols}"
        )
    return list(zip(range(matrix.cols, matrix.rows), outcome.nullspace_basis))


def quadratic_constraints(instance):
    """The over-case momentum constraints: sum_k y_k * h_rhs_terms[k] = 0
    for each y of left_nullspace, collected per momentum."""
    case = classify(instance).case
    if case != "over":
        raise ValueError(f"instance is {case}, not overdetermined")
    terms = h_rhs_terms(instance)
    constraints = []
    for r, y in left_nullspace(instance):
        const, lin, quad = ZERO, {}, {}
        for (k, c, lin_k, quad_k), y_k in zip(terms, y):
            if not y_k:
                continue
            const = const + y_k * c
            if k is not None:
                lin[k + 1] = lin.get(k + 1, ZERO) + y_k * lin_k
                quad[k + 1] = quad.get(k + 1, ZERO) + y_k * quad_k
        constraints.append(
            QuadraticConstraint(
                j=terms[r][0] + 1,
                quad={k: v for k, v in sorted(quad.items()) if v},
                lin={k: v for k, v in sorted(lin.items()) if v},
                const_term=const,
            )
        )
    return constraints
