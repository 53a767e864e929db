"""Assembly and solution of the two linear systems behind the construction.

The coefficient polynomial g of the w'-term is pinned by its residues: g/psi
has residue c = 1 - rho1 - rho2 at a prescribed point t_i and c = -1 at an
apparent point q_j.  With deg g < deg psi this is the partial-fraction sum

    g / psi = sum_k c_k / (z - x_k),   g = sum_k c_k * psi / (z - x_k),

so g needs no linear system: each term is psi deflated by one root.  In
the instance's point frame, model._psi_ints, x_k = X_k / E over the lcm E
of the point denominators and Psi~ = prod (Z - X_k) on Gaussian integers;
with c_k = C_k / L, solve_g sums G~ = sum_k C_k Psi~ / (Z - X_k) with
polynomials._product_sum, each quotient from _taylor_head_ints, and g_j =
G~_j / (L E^(d-1-j)).  The top coefficient of g is sum_k c_k, the condition
at infinity asks for 1 + l1 + l2, and they differ by the exponent-sum
defect, so solve_g re-checks it and rejects an inadmissible instance.

The h-system stacks one top-coefficient row for infinity, value rows at all
points, and first- plus second-derivative rows at the apparent points:

    row(infinity):  h_top                          = l1 * l2
    row(t_i):       h(t_i)                         = rho1 * rho2 * psi'(t_i)^2
    row(q_j):       h(q_j)                         = 0
    row(q_j, d1):   h'(q_j)                        = p_j * psi'(q_j)^2
    row(q_j, d2):   h''(q_j)                       = delta_j p_j^2 + epsilon_j p_j

with delta_j = -2 psi'(q_j)^2 and epsilon_j = psi'(q_j) * (psi''(q_j) -
2 g'(q_j)), which is delta_j * (g1_j - psi''(q_j)/psi'(q_j)), g1_j the
order-0 Laurent coefficient of g/psi at q_j, simplified so that no
right-hand side needs a division.  _rhs_terms is the one definition of
these right-hand sides, as coefficients of each row's own momentum, all read
off Taylor heads in the instance's point frame.

h is a closed form too.  The first min(rows, cols) rows are the top
coefficient and Hermite data on distinct nodes, h'' given at q_1 .. q_(n-2)
only, so with Omega = prod (z - t_i) prod (z - q_j)^(m_j), m_j = 3 where h''
is given and 2 elsewhere, h = S Omega + R, deg R < D = deg Omega, and

    R / Omega = sum_x sum_(i < m) C_(x,i) / (z - x)^(m - i),

C_(x,i) the i-th Taylor coefficient of h / (Omega / (z - x)^m) at x (Stoer
and Bulirsch, section 2.1.5).  S is l1 * l2, or for N < n - 2 of degree
n - 2 - N with lower coefficients set by free_k, h's coefficient of z^(D+k).
solve_h sums this on Gaussian integers with the same _product_sum: with
Z = E z, Omega~(Z) = E^D Omega(z) = Psi~ prod (Z - Q_j)^(m_j - 1) and each
deflation Omega~ / (Z - X)^k have Gaussian-integer coefficients.  For
N > n - 2 each later row h''(q_j) has a closed-form left-nullspace vector y,
and the h-system has a solution exactly when every y . rhs, quadratic in
the momenta, vanishes: fredholm_terms is the one statement of the over case,
and fredholm_values its value at given momenta.  h_matrix and
build_h_system stay for det-check and for the tests, which compare every
closed form here with elimination and Laurent series.

What the h-solve reads and neither free values nor momenta change is built
once per point set, on first use, and kept in the memo an instance shares
with its with_momenta siblings (model._per_instance): g (solve_g), the
Hermite frame (_hermite_frame), the right-hand-side terms (h_rhs_terms) and
the Fredholm constraints (fredholm_terms).  So g is a function of the
instance, not an argument; calls on one object or on its siblings pay only
for the momenta and the interpolation sum, and a fresh instance, as every
CLI call builds, gains nothing.  build_h_system alone takes g.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import mul

from .linalg import Matrix
from .model import FuchsianEquation, FuchsianInstance, _per_instance, _psi_ints, fuchs_defect
from .polynomials import (
    Polynomial, _from_frame, _in_frame, _monic_ints, _product_sum, _taylor_head_ints,
)
from .scalars import ONE, ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


class FuchsViolation(ValueError):
    """The condition at infinity fails: the exponent sum is inadmissible."""


class VerificationFailed(RuntimeError):
    """An exact check that the theory guarantees did not hold.

    Raised instead of an assert so that it survives ``python -O``; the CLI
    maps it to exit code 3.
    """


@_per_instance
def solve_g(instance: FuchsianInstance) -> Polynomial:
    """The unique g, by partial fractions, with the infinity condition checked;
    built once per point set, so every equation built on it shares this g.

    Raises FuchsViolation when the instance's exponent sum is inadmissible,
    which is exactly when the top coefficient disagrees with 1 + l1 + l2.
    """
    e, xr, xi, product = _psi_ints(instance)
    residues = [ONE - pair.sum for _, pair in instance.finite_points]
    den, cr, ci = to_gaussian_ints(residues + [-ONE] * instance.num_apparent)
    d = len(xr)
    quotients = [_taylor_head_ints(*product, a, b, 1) for a, b in zip(xr, xi)]
    pairs = [(([c], [s]), (re[1:], im[1:])) for c, s, (re, im) in zip(cr, ci, quotients)]
    g = _from_frame(den, *_product_sum(d, *pairs), e, d - 1)
    expected_top = ONE + instance.infinity_exponents.sum
    if g.coefficient(d - 1) != expected_top:
        defect = fuchs_defect(instance)
        raise FuchsViolation(
            f"inconsistent at infinity: top coefficient {g.coefficient(d - 1)} != "
            f"{expected_top}; exponent-sum defect is {defect}"
        )
    return g


@_per_instance
def h_rhs_terms(instance: FuchsianInstance) -> tuple:
    """_rhs_terms for the instance's own g, solve_g's, built once per point set."""
    return _rhs_terms(instance, solve_g(instance))


def _rhs_terms(instance: FuchsianInstance, g: Polynomial) -> tuple:
    """Each h-system row's right-hand side as (j, const, lin, quad), for g.

    The row's value is const + lin * p_j + quad * p_j^2 with p_j the momentum
    of apparent point j (0-based); rows whose value involves no momentum have
    j = None and lin = quad = 0.  Row order is that of h_matrix.  psi'(x) and
    psi''(x) / 2 are Psi~'s Taylor coefficients at X = E x over E^(d-1) and
    E^(d-2), and g'(q) is that of G / gd = E^(d-1) g(Z/E) at Q over gd E^(d-2).
    """
    e, xr, xi, (pr, pi) = _psi_ints(instance)
    n, d = instance.n, len(xr)
    gd, gr, gi = _in_frame(g.padded(d), e)
    heads = [_taylor_head_ints(pr, pi, a, b, 3) for a, b in zip(xr, xi)]
    slopes = [from_gaussian_ints(re[1], im[1], e ** (d - 1)) for re, im in heads]
    halves = [from_gaussian_ints(re[2], im[2], e ** (d - 2)) for re, im in heads[n:]]
    g_heads = [_taylor_head_ints(gr, gi, a, b, 2) for a, b in zip(xr[n:], xi[n:])]
    dgs = [from_gaussian_ints(re[1], im[1], gd * e ** (d - 2)) for re, im in g_heads]
    terms = [(None, instance.infinity_exponents.product, ZERO, ZERO)]
    for (_, pair), slope in zip(instance.finite_points, slopes):
        terms.append((None, pair.product * slope * slope, ZERO, ZERO))
    terms += [(None, ZERO, ZERO, ZERO)] * instance.num_apparent
    terms += [(j, ZERO, slope * slope, ZERO) for j, slope in enumerate(slopes[n:])]
    terms += [
        (j, ZERO, 2 * slope * (half - dg), -2 * slope * slope)
        for j, (slope, half, dg) in enumerate(zip(slopes[n:], halves, dgs))
    ]
    return tuple(terms)


def h_matrix(instance: FuchsianInstance) -> Matrix:
    """Coefficient matrix of the h-system; depends on the points only.

    Shape (n + 3N + 1) x (2n + 2N - 1).  Row order: infinity, values at
    t_1..t_n, values at q_1..q_N, first derivatives at q_1..q_N, second
    derivatives at q_1..q_N.  Columns are powers 0 .. 2(n+N-1).
    """
    width = 2 * (instance.n + instance.num_apparent) - 1
    points = instance.finite_positions + instance.apparent_positions
    values = [list(accumulate([x] * (width - 1), mul, initial=ONE)) for x in points]
    powers = values[instance.n :]
    # d/dz z^k = k z^(k-1) and d2/dz2 z^k = k (k-1) z^(k-2), read off the powers
    rows = [[ZERO] * (width - 1) + [ONE]] + values
    rows += [[ZERO] + [k * row[k - 1] for k in range(1, width)] for row in powers]
    rows += [[ZERO, ZERO] + [k * (k - 1) * row[k - 2] for k in range(2, width)] for row in powers]
    return Matrix.from_rows(rows)


def build_h_system(instance: FuchsianInstance, g: Polynomial):
    """The h-system matrix together with its right-hand side for g, both
    built afresh on every call."""
    return h_matrix(instance), _rhs_values(instance, _rhs_terms(instance, g))


def _rhs_values(instance: FuchsianInstance, terms) -> tuple:
    p = instance.momenta
    return tuple([c if j is None else c + (lin + quad * p[j]) * p[j] for j, c, lin, quad in terms])


@_per_instance
def fredholm_terms(instance: FuchsianInstance) -> tuple:
    """(j, const, lin, quad) for each row r of the h-matrix after its first
    2(n + N) - 1, h''(q_j) with j 1-based: y . rhs = const + sum_k (lin_k +
    quad_k p_k) p_k at momenta p, for the y with y . h_matrix = 0, y_r = 1
    and y = 0 at the other later rows.  Row r has m_j = 2, and -y_k weighs
    rhs_k in the interpolant's h''(q_j) / 2 = E^(2-D) [w_0 (S + sum_(x !=
    q_j) sum_i C'_(x,i) / (X_j - X)^(m-i)) + C'_(q_j,1) w_1 + C'_(q_j,0)
    w_2], w from q_j's node and C'_(x,i) = sum_l tau_(x,l) E^(D-l) v_(i-l)
    as in solve_h.
    """
    n, num = instance.n, instance.num_apparent
    terms = h_rhs_terms(instance)
    e, omega, nodes = _hermite_frame(instance)
    scale = (-2 * e * e, -2 * e, -1)  # rhs_k is tau_0, tau_1 or 2 tau_2
    constraints = []
    for j in range(min(num, n - 2), num):
        _, _, _, (ja, jb), w, _ = nodes[n + j]
        y = [(0, w[0] * Fraction(-2, e ** (len(omega[0]) - 3))), (1 + n + 2 * num + j, ONE)]
        for k, (m, rows, _, (a, b), _, v) in enumerate(nodes):
            own = k == n + j
            inv = ONE if own else from_gaussian_ints(1, 0, ja - a, jb - b)
            beta = [w[2], w[1]] if own else [w[0] * inv ** (m - i) for i in range(m)]
            y += [
                (row, scale[l] * sum([beta[i] * v[i - l] for i in range(l, m)], ZERO))
                for l, row in enumerate(rows)
            ]
        const, lin, quad = ZERO, [ZERO] * num, [ZERO] * num
        for row, y_r in y:
            k, c, lin_r, quad_r = terms[row]
            if k is None:
                const += y_r * c
            else:
                lin[k] += y_r * lin_r
                quad[k] += y_r * quad_r
        constraints.append((j + 1, const, tuple(lin), tuple(quad)))
    return tuple(constraints)


def fredholm_values(instance: FuchsianInstance, momenta) -> tuple:
    """(j, value) of each fredholm_terms constraint at the momenta, all zero
    exactly when the h-system has a solution."""
    return tuple(
        (j, sum([(a + b * p) * p for a, b, p in zip(lin, quad, momenta) if a or b], const))
        for j, const, lin, quad in fredholm_terms(instance)
    )


@_per_instance
def _hermite_frame(instance: FuchsianInstance):
    """(E, omega, nodes), the interpolation on Gaussian integers, built once
    per point set: X = E x at each point x, omega = (re, im) of the monic
    Omega~(Z) = prod (Z - X)^m, and per point, finite ones first, the node
    (m, rows, deflations, X, w, v): its Taylor data's h-system rows, Omega~ / (Z - X)^k for k = 1..m, X as
    (re, im), W~ = Omega~ / (Z - X)^m's Taylor coefficients at X (orders
    0..2 at an apparent point, 0 at a finite one) and the first m of 1 / W~.
    Raises VerificationFailed if W~(X) = 0, which distinct points rule out.
    """
    n, num = instance.n, instance.num_apparent
    mults = [1] * n + [3] * min(num, n - 2) + [2] * max(num - n + 2, 0)
    e, xr, xi, (pr, pi) = _psi_ints(instance)
    pr, pi = _monic_ints(pr, pi, xr, xi, [m - 1 for m in mults])  # Omega~ = Psi~ prod (Z - Q)^(m-1)
    nodes = []
    for k, (a, b, m) in enumerate(zip(xr, xi, mults)):
        chain, size = [(pr, pi)], 1 if m == 1 else 3
        for _ in range(m):
            re, im = _taylor_head_ints(*chain[-1], a, b, 1)
            chain.append((re[1:], im[1:]))
        re, im = _taylor_head_ints(*chain[-1], a, b, size)  # W~'s Taylor data
        w = [from_gaussian_ints(x, y, 1) for x, y in zip(re[:size], im[:size])]
        if not w[0]:
            raise VerificationFailed("h-system is singular: two Hermite nodes coincide")
        v = [ONE / w[0]]  # sum_l w_l v_(i-l) = 0 for i > 0
        for i in range(1, m):
            v.append(-v[0] * sum([w[l] * v[i - l] for l in range(1, i + 1)], ZERO))
        nodes.append((m, (1 + k, 1 + num + k, 1 + 2 * num + k)[:m], chain[1 : m + 1], (a, b), w, v))
    return e, (pr, pi), nodes


def solve_h(instance: FuchsianInstance, free_values=()) -> Polynomial:
    """h, the Hermite interpolant of the first min(rows, cols) rows of the
    h-system with free_values[k] as its coefficient of z^(n+3N+k).  Raises
    VerificationFailed unless the rows leave len(free_values) coefficients
    free, and unless the momenta meet fredholm_terms, so h solves every row.
    """
    n, num = instance.n, instance.num_apparent
    free = max(n - 2 - num, 0)
    if len(free_values) != free:
        kind, got = "underdetermined" if free else "unique", len(free_values)
        raise VerificationFailed(f"h-system is {kind} with nullity {free} != {got} free values")
    if any(value for _, value in fredholm_values(instance, instance.momenta)):
        raise VerificationFailed("h-system is inconsistent")
    rhs = _rhs_values(instance, h_rhs_terms(instance))
    e, (ore, oim), nodes = _hermite_frame(instance)
    deg = len(ore) - 1
    # S~_k = S_k / E^k: h's top coefficients in the frame, less Omega~'s share (it is monic)
    scaled = [GaussianRational.coerce(v) / e**k for k, v in enumerate(free_values)]
    scaled.append(rhs[0] / e**free)
    for k in range(free - 1, -1, -1):
        for j in range(k + 1, free + 1):
            scaled[k] -= scaled[j] * from_gaussian_ints(ore[deg + k - j], oim[deg + k - j], 1)
    terms = [(k, (ore, oim)) for k in range(free + 1)]
    weights = (e**deg, e ** (deg - 1), Fraction(e ** (deg - 2), 2))  # tau_l E^(D-l), tau_2 = h''/2
    for m, rows, deflations, _, _, v in nodes:  # C'_i = sum_l tau_l E^(D-l) v_(i-l)
        tau = [rhs[r] * weights[l] for l, r in enumerate(rows)]
        scaled += [sum([tau[l] * v[i - l] for l in range(i + 1) if tau[l]], ZERO) for i in range(m)]
        terms += [(0, deflations[m - i - 1]) for i in range(m)]
    den, cr, ci = to_gaussian_ints(scaled)
    pairs = [(([0] * k + [a], [0] * k + [b]), window) for (k, window), a, b in zip(terms, cr, ci)]
    # h_k = H_k E^k / (L E^D)
    return _from_frame(den, *_product_sum(deg + free + 1, *pairs), e, deg)


def construct(instance: FuchsianInstance) -> FuchsianEquation:
    """Build the unique equation for the square case N = n - 2.

    For other apparent-point counts use the dimension module (solve_under /
    check_momenta).  Raises FuchsViolation on an inadmissible exponent sum.
    """
    n, num = instance.n, instance.num_apparent
    if num != n - 2:
        raise ValueError(
            f"construct requires N = n - 2 (got n={n}, N={num}); "
            "use fuchsian.dimension.solve_under or check_momenta instead"
        )
    return FuchsianEquation(solve_g(instance), solve_h(instance), instance)
