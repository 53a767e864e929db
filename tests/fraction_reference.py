"""Straightforward exact algorithms: the oracles of the differential tests.

Every step runs on canonical GaussianRational values, one gcd per operation.
`taylor_head`, the series product and quotient, `obstruction` and
`series_residual` are the package's series code as it was before it moved to
Gaussian integers over a common denominator.  `Window` holds a finite window
of a Laurent expansion, and `laurent_expand` builds one from two Taylor
heads and their quotient: the tests read every closed-form local constant
off these expansions.  `eliminate`, `rank` and `det`
are a second, independent elimination that records the row operations in a
transform matrix instead of an augmented column; `fuchsian.linalg` must agree
with it exactly.  Nothing in the package imports this module.

`obstruction` and `series_residual` are the verifier's Frobenius recursion
and its series-form residual w'' + (g/psi) w' + (h/psi^2) w, as they were
before the recursion went fraction-free and the residual was cleared of
denominators.

`verify` is the verifier as it was before it moved to Gaussian integers in
a scaled local coordinate: Taylor heads of g, h and psi at each point, g's
divided by psi's and h's by psi's squared, the indicial data read off those
series, the recursion and the series-form residual, all built from the
functions above, with square roots taken by `FractionGaussian`.

`poly_add`, `poly_mul`, `poly_from_roots`, `poly_eval` and `poly_derivative`
are plain GaussianRational polynomial arithmetic on the package's
coefficient container, and `psi` is the product of the instance's linear
factors built from them: the package forms psi on Gaussian integers, and
the tests compare it with this one.

`FractionGaussian` is the scalar the package used before GaussianRational
became one canonical int triple: two `Fraction`s, each kept in lowest terms
by `fractions`, with square roots through `rational_sqrt`.  With
`fraction_to_gaussian_ints` and `fraction_from_gaussian_ints` it is the
differential oracle of the scalar tests.  `dot` is the plain sum of
products that h-system residuals are checked against.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from fuchsian.frobenius import (
    ApparentPointReport,
    FinitePointReport,
    Indicial,
    InfinityReport,
    VerificationReport,
)
from fuchsian.linalg import Matrix, SolveOutcome
from fuchsian.model import ExponentPair
from fuchsian.polynomials import Polynomial
from fuchsian.scalars import (
    ONE,
    ZERO,
    GaussianRational,
    format_rational,
    parse_rational,
)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rnum, rden = isqrt(num), isqrt(den)
    if rnum * rnum == num and rden * rden == den:
        return Fraction(rnum, rden)
    return None


class FractionGaussian:
    """re + im*i with re, im ``Fraction``s in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = self._fraction(re)
        self.im = self._fraction(im)

    @staticmethod
    def _fraction(value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")

    @classmethod
    def _wrap(cls, value):
        if isinstance(value, FractionGaussian):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return cls(value)
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return FractionGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return FractionGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionGaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionGaussian((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (FractionGaussian(1) / self) ** (-exponent)
        result = FractionGaussian(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __neg__(self):
        return FractionGaussian(-self.re, -self.im)

    def conjugate(self):
        return FractionGaussian(self.re, -self.im)

    def sqrt(self):
        if self.im == 0:
            if self.re >= 0:
                root = rational_sqrt(self.re)
                return None if root is None else FractionGaussian(root)
            root = rational_sqrt(-self.re)
            return None if root is None else FractionGaussian(0, root)
        modulus = rational_sqrt(self.re * self.re + self.im * self.im)
        if modulus is None:
            return None
        c = rational_sqrt((self.re + modulus) / 2)
        if c is None or c == 0:
            return None
        return FractionGaussian(c, self.im / (2 * c))

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):  # a real value hashes as its Fraction, as GaussianRational does
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re.numerator != 0 or self.im.numerator != 0

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"

    def __repr__(self):
        return f"GaussianRational({format_rational(self.re)!r}, {format_rational(self.im)!r})"

    def to_pair(self) -> list:
        return [format_rational(self.re), format_rational(self.im)]

    @classmethod
    def from_pair(cls, obj):
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"not a complex [re, im] pair: {obj!r}")
        return cls(parse_rational(obj[0]), parse_rational(obj[1]))


def fraction_to_gaussian_ints(values) -> tuple:
    """(den, re, im) with values[k] == (re[k] + im[k]*i) / den, den the lcm
    of every part's denominator."""
    den = lcm(*[v.re.denominator for v in values], *[v.im.denominator for v in values])
    return (
        den,
        [v.re.numerator * (den // v.re.denominator) for v in values],
        [v.im.numerator * (den // v.im.denominator) for v in values],
    )


def fraction_from_gaussian_ints(re: int, im: int, den: int, den_im: int = 0):
    """(re + im*i) / (den + den_im*i) of Gaussian integers."""
    if den_im:
        re, im, den = re * den + im * den_im, im * den - re * den_im, den * den + den_im * den_im
    return FractionGaussian(Fraction(re, den), Fraction(im, den))


def poly_add(*terms) -> Polynomial:
    """The sum of the given polynomials, coefficient by coefficient."""
    size = max(len(p.coeffs) for p in terms)
    return Polynomial([sum((p.coefficient(k) for p in terms), ZERO) for k in range(size)])


def poly_mul(p, q) -> Polynomial:
    """p * q by the schoolbook convolution."""
    if p.is_zero or q.is_zero:
        return Polynomial.zero()
    out = [ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(out)


def poly_from_roots(roots) -> Polynomial:
    """The monic polynomial with exactly the given roots, with multiplicity,
    one linear factor at a time."""
    result = Polynomial((1,))
    for root in roots:
        result = poly_mul(result, Polynomial((-GaussianRational.coerce(root), 1)))
    return result


def poly_eval(p, x) -> GaussianRational:
    """p(x) by Horner's rule."""
    x, acc = GaussianRational.coerce(x), ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p, k: int = 1) -> Polynomial:
    """The k-th derivative of p."""
    coeffs = p.coeffs
    for _ in range(k):
        coeffs = [coeffs[i] * i for i in range(1, len(coeffs))]
    return Polynomial(coeffs)


def psi(instance) -> Polynomial:
    """The monic polynomial vanishing at every finite and apparent point."""
    return poly_from_roots(instance.finite_positions + instance.apparent_positions)


def dot(row, vector) -> GaussianRational:
    """sum row[k] * vector[k], one canonical operation at a time."""
    return sum((a * b for a, b in zip(row, vector)), ZERO)


def _echelon(matrix: Matrix):
    """Forward elimination; returns (work rows, transform rows, pivots).

    transform tracks the row operations, so transform @ original == work at
    all times; a dependent row r therefore satisfies
    sum_k transform[r][k] * original_row_k == 0 with transform[r][r] == 1.
    """
    m, n = matrix.rows, matrix.cols
    work = [list(matrix.row(i)) for i in range(m)]
    transform = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        transform[i][i] = GaussianRational(1)
    used = [False] * m
    pivots = []
    for col in range(n):
        piv = None
        for r in range(m):
            if not used[r] and work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        used[piv] = True
        pivots.append((piv, col))
        piv_work, piv_tr = work[piv], transform[piv]
        for r in range(m):
            if used[r] or not work[r][col]:
                continue
            factor = work[r][col] / piv_work[col]
            work[r] = [a if not b else a - factor * b for a, b in zip(work[r], piv_work)]
            transform[r] = [
                a if not b else a - factor * b for a, b in zip(transform[r], piv_tr)
            ]
    return work, transform, pivots


def eliminate(matrix: Matrix, rhs) -> SolveOutcome:
    """Solve matrix * x = rhs exactly, classifying the outcome.

    Produces a particular solution (free variables set to zero) unless the
    system is inconsistent, and a nullspace basis (one vector per free
    column).
    """
    rhs = tuple(GaussianRational.coerce(v) for v in rhs)
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} != row count {matrix.rows}")
    m, n = matrix.rows, matrix.cols
    work, transform, pivots = _echelon(matrix)
    pivot_row_set = {r for r, _ in pivots}

    reduced_rhs = [
        sum((transform[r][k] * rhs[k] for k in range(m)), ZERO) for r in range(m)
    ]
    consistent = not any(reduced_rhs[r] for r in range(m) if r not in pivot_row_set)

    free_cols = [c for c in range(n) if c not in {c for _, c in pivots}]

    nullspace = []
    for free in free_cols:
        vec = [ZERO] * n
        vec[free] = GaussianRational(1)
        for r, c in reversed(pivots):
            acc = ZERO
            for j in range(n):
                if j != c and work[r][j]:
                    acc = acc + work[r][j] * vec[j]
            vec[c] = -acc / work[r][c]
        nullspace.append(tuple(vec))

    particular = None
    if consistent:
        x = [ZERO] * n
        for r, c in reversed(pivots):
            acc = reduced_rhs[r]
            for j in range(n):
                if j != c and work[r][j]:
                    acc = acc - work[r][j] * x[j]
            x[c] = acc / work[r][c]
        particular = tuple(x)

    if not consistent:
        kind = "inconsistent"
    elif free_cols:
        kind = "underdetermined"
    else:
        kind = "unique"
    return SolveOutcome(
        kind=kind,
        particular=particular,
        nullspace_basis=tuple(nullspace),
        pivot_rows=tuple(r for r, _ in pivots),
        pivot_cols=tuple(c for _, c in pivots),
    )


def rank(matrix: Matrix) -> int:
    """Exact rank."""
    _, _, pivots = _echelon(matrix)
    return len(pivots)


def det(matrix: Matrix) -> GaussianRational:
    """Exact determinant of a square matrix."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of a non-square {matrix.rows}x{matrix.cols} matrix")
    work, _, pivots = _echelon(matrix)
    if len(pivots) < matrix.rows:
        return ZERO
    # Row operations preserve the determinant; reordering rows so that the
    # i-th pivot row comes i-th makes `work` upper triangular.
    order = [r for r, _ in pivots]
    inversions = sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )
    result = GaussianRational(1) if inversions % 2 == 0 else GaussianRational(-1)
    for r, c in pivots:
        result = result * work[r][c]
    return result


def taylor_head(coeffs, at: GaussianRational, terms: int):
    """Order at `at` of sum c_i z^i and its first `terms` Taylor coefficients
    from that order on (zero-padded; order 0 for the zero polynomial).  Each
    in-place synthetic division by (z - at) leaves the next one as remainder.
    """
    work = list(coeffs)
    order, head = 0, []
    while work and len(head) < terms:
        for i in range(len(work) - 2, -1, -1):
            work[i] = work[i] + at * work[i + 1]
        remainder = work.pop(0)
        if head or remainder:
            head.append(remainder)
        else:
            order += 1
    return order, head + [ZERO] * (terms - len(head))


def series_product(a, b):
    """Truncated product of two coefficient windows (shorter length)."""
    return [
        sum((a[j] * b[i - j] for j in range(1, i + 1)), a[0] * b[i])
        for i in range(min(len(a), len(b)))
    ]


def series_quotient(v, u):
    """Truncated quotient of coefficient windows, u[0] != 0 (shorter length)."""
    inv_u0 = ONE / u[0]
    out = []
    for i in range(min(len(v), len(u))):
        acc = v[i]
        for j in range(1, i + 1):
            acc = acc - u[j] * out[i - j]
        out.append(acc * inv_u0)
    return out


@dataclass(frozen=True)
class Window:
    """Orders min_order .. max_order of a Laurent expansion at point.  Orders
    below the window are zero; asking above it raises, unless every stored
    coefficient is zero."""

    point: GaussianRational
    min_order: int
    coeffs: tuple

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def max_order(self) -> int:
        return self.min_order + len(self.coeffs) - 1

    def coefficient(self, order: int):
        if self.is_zero or order < self.min_order:
            return ZERO
        if order > self.max_order:
            raise ValueError(f"order {order} is above the window (max {self.max_order})")
        return self.coeffs[order - self.min_order]


#: g/psi and h/psi^2 at one point as Windows, with the Taylor heads of psi,
#: g and h they came from (None for hand-built data).
Local = namedtuple("Local", "g_series h_series heads", defaults=(None,))


def laurent_expand(num, den, at, terms: int) -> Window:
    """The first `terms` coefficients of num/den at `at`, from the quotient
    of the two Taylor heads; a zero numerator gives the zero window at order
    0, and a zero denominator raises ZeroDivisionError."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    at = GaussianRational.coerce(at)
    (num_order, v), (den_order, u) = (taylor_head(f.coeffs, at, terms) for f in (num, den))
    if num.is_zero:
        return Window(at, 0, tuple(v))
    return Window(at, num_order - den_order, tuple(series_quotient(v, u)))


def recursion_top(local, depth: int) -> int:
    """The last step s of the recursion: depth, or as far as the windows of
    g (read to order s - 2) and h (to order s - 2) reach."""
    tops = [10**9 if w.is_zero else w.max_order for w in (local.g_series, local.h_series)]
    return min(depth, min(tops) + 2)


def obstruction(local, depth: int):
    """(omega, a_0 .. a_s) of the power-series recursion at an apparent-shaped
    local expansion: s (s-2) a_s = -sum_(k<s) (k g_(s-1-k) + h_(s-2-k)) a_k,
    stopping at s = 2 when the resonance value omega is nonzero."""
    g, h = local.g_series, local.h_series
    top = recursion_top(local, depth)
    coefficients = [GaussianRational(1)]
    omega = None
    for s in range(1, top + 1):
        acc = ZERO
        for k, a_k in enumerate(coefficients):
            term = h.coefficient(s - 2 - k)
            if k:
                term = term + k * g.coefficient(s - 1 - k)
            acc = acc + term * a_k
        if s == 2:
            omega = acc
            if omega:
                break
            coefficients.append(ZERO)
        else:
            coefficients.append(-acc / (s * (s - 2)))
    return omega, tuple(coefficients)


def series_residual(local, coefficients):
    """Orders -2 .. K-2 of w'' + (g/psi) w' + (h/psi^2) w for the truncated
    series w = sum_(k<=K) a_k x^k, read off the local series windows."""
    g, h = local.g_series, local.h_series
    top = len(coefficients) - 1
    out = []
    for m in range(-2, top - 1):
        acc = ZERO
        if 0 <= m:
            acc = acc + (m + 2) * (m + 1) * coefficients[m + 2]
        for k, a_k in enumerate(coefficients):
            term = h.coefficient(m - k)
            if k:
                term = term + k * g.coefficient(m - k + 1)
            acc = acc + term * a_k
        out.append(acc)
    return out


def _local(point, g, h, p, terms):
    """Local of g/p and h/p^2 at point from coefficient tuples."""
    (g_order, g_head), (h_order, h_head), (p_order, p_head) = (
        taylor_head(coeffs, point, terms) for coeffs in (g, h, p)
    )
    square = series_product(p_head, p_head)
    return Local(
        g_series=Window(point, g_order - p_order, tuple(series_quotient(g_head, p_head))),
        h_series=Window(point, h_order - 2 * p_order, tuple(series_quotient(h_head, square))),
        heads=(
            Window(point, p_order, tuple(p_head)),
            Window(point, g_order, tuple(g_head)),
            Window(point, h_order, tuple(h_head)),
        ),
    )


def _indicial(root_sum, root_product):
    disc = root_sum * root_sum - 4 * root_product
    root = FractionGaussian(disc.re, disc.im).sqrt()
    pair = None
    if root is not None:
        root = GaussianRational(root.re, root.im)
        pair = ExponentPair((root_sum + root) / 2, (root_sum - root) / 2)
    return Indicial(sum=root_sum, product=root_product, pair=pair)


def verify(eq, depth: int = 8):
    """The VerificationReport of eq, read off series windows of depth + 2
    terms at each apparent point and 3 terms elsewhere."""
    inst = eq.instance
    d = inst.n + inst.num_apparent
    g, h, p = eq.g.padded(d), eq.h.padded(2 * d - 1), psi(inst).padded(d + 1)
    finite = []
    for t, expected in inst.finite_points:
        local = _local(t, g, h, p, 3)
        ind = _indicial(1 - local.g_series.coefficient(-1), local.h_series.coefficient(-2))
        match = ind.sum == expected.sum and ind.product == expected.product
        finite.append(FinitePointReport(point=t, expected=expected, indicial=ind, match=match))
    # at infinity, in x = 1/z: x^(d-1) g(1/x) / (x * x^d psi(1/x)), likewise h
    local = _local(ZERO, g[::-1], h[::-1], (ZERO,) + p[::-1], 3)
    ind = _indicial(local.g_series.coefficient(-1) - 1, local.h_series.coefficient(-2))
    expected = inst.infinity_exponents
    match = ind.sum == expected.sum and ind.product == expected.product
    infinity = InfinityReport(expected=expected, indicial=ind, match=match)
    apparent = []
    for q, momentum in inst.apparent_points:
        local = _local(q, g, h, p, depth + 2)
        residue = local.g_series.coefficient(-1)
        double_pole = local.h_series.coefficient(-2)
        ind = _indicial(1 - residue, double_pole)
        recovered = local.h_series.coefficient(-1)
        omega, log_free, residual_ok = None, False, False
        if residue == GaussianRational(-1) and not double_pole:
            omega, coefficients = obstruction(local, depth)
            log_free = not omega
            residual_ok = log_free and not any(series_residual(local, coefficients))
        apparent.append(
            ApparentPointReport(
                point=q,
                residue=residue,
                residue_ok=residue == GaussianRational(-1),
                double_pole_absent=not double_pole,
                indicial=ind,
                indicial_ok=ind.sum == GaussianRational(2) and not ind.product,
                momentum_expected=momentum,
                momentum_recovered=recovered,
                momentum_ok=recovered == momentum,
                obstruction=omega,
                log_free=log_free,
                residual_ok=residual_ok,
            )
        )
    overall = (
        all(r.match for r in finite)
        and infinity.match
        and all(
            r.residue_ok and r.double_pole_absent and r.indicial_ok and r.momentum_ok
            and r.log_free and r.residual_ok
            for r in apparent
        )
    )
    return VerificationReport(
        finite=tuple(finite), apparent=tuple(apparent), infinity=infinity, overall=overall
    )
