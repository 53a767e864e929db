"""Dense polynomials and local Laurent expansions over the Gaussian rationals.

A polynomial is a tuple of coefficients in ascending degree with trailing
zeros trimmed; the zero polynomial is the empty tuple and its degree is the
distinguished value -inf (never the -1 convention).  A Laurent series stores
a base point, the order of its first stored coefficient and a finite window
of coefficients; asking for a coefficient above the stored window is an
error, never a silent zero.

Expansions of rational functions num/den at a point compute only the Taylor
heads the window needs, by repeated synthetic division, and divide them by
exact power-series inversion of the unit part of den.  This works uniformly
at ordinary points and at poles and serves as the independent oracle for
every closed-form constant elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, GaussianRational


class Polynomial:
    """Dense univariate polynomial with GaussianRational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        values = [GaussianRational.coerce(c) for c in coeffs]
        while values and not values[-1]:
            values.pop()
        self.coeffs = tuple(values)

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls((value,))

    @classmethod
    def from_roots(cls, roots) -> Polynomial:
        """Monic polynomial with exactly the given roots (with multiplicity)."""
        result = cls((1,))
        for root in roots:
            root = GaussianRational.coerce(root)
            result = result * cls((-root, 1))
        return result

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree as an int; -inf (float) for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def coefficient(self, k: int) -> GaussianRational:
        """Coefficient of z^k; zero beyond the stored degree."""
        if k < 0:
            raise ValueError("polynomial coefficient index must be >= 0")
        return self.coeffs[k] if k < len(self.coeffs) else ZERO

    def padded(self, length: int) -> tuple:
        """Coefficient tuple padded with zeros to exactly `length` entries."""
        if len(self.coeffs) > length:
            raise ValueError(f"degree {self.degree} exceeds padded length {length}")
        return self.coeffs + (ZERO,) * (length - len(self.coeffs))

    def __call__(self, x) -> GaussianRational:
        x = GaussianRational.coerce(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self, k: int = 1) -> Polynomial:
        """Exact k-th derivative (k >= 1)."""
        if k < 1:
            raise ValueError("derivative order must be >= 1")
        coeffs = self.coeffs
        for _ in range(k):
            coeffs = tuple(coeffs[i] * i for i in range(1, len(coeffs)))
        return Polynomial(coeffs)

    def shift(self, a) -> Polynomial:
        """Taylor shift: the polynomial q with q(x) = p(x + a)."""
        order, head = _taylor_head(self.coeffs, GaussianRational.coerce(a), len(self.coeffs))
        return Polynomial([ZERO] * order + head)

    def taylor(self, at, terms: int) -> LaurentSeries:
        """Window of `terms` Taylor coefficients at `at`, from p's order there."""
        if terms < 1:
            raise ValueError("terms must be >= 1")
        at = GaussianRational.coerce(at)
        return LaurentSeries(at, *_taylor_head(self.coeffs, at, terms))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) - other.coefficient(i) for i in range(n))
        )

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = GaussianRational.coerce(other)
            return Polynomial(tuple(c * scalar for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = Polynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == ONE:
                    parts.append(z)
                else:
                    text = str(c)
                    if ("+" in text[1:]) or ("-" in text[1:]):
                        text = f"({text})"
                    parts.append(f"{text}*{z}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


#: The identity polynomial z, convenient for building expressions.
Z = Polynomial((0, 1))


class LaurentSeries:
    """A finite window of an exact Laurent expansion at a base point.

    Coefficients cover orders min_order .. min_order + len(coeffs) - 1 in the
    local coordinate (z - base_point).  Orders below the window are truly
    zero and may be queried; orders above it are unknown and raise.
    """

    __slots__ = ("base_point", "min_order", "coeffs")

    def __init__(self, base_point, min_order: int, coeffs):
        values = [GaussianRational.coerce(c) for c in coeffs]
        while values and not values[0]:
            values.pop(0)
            min_order += 1
        self.base_point = base_point
        self.min_order = min_order
        self.coeffs = tuple(values)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_order(self) -> int:
        """Highest order carried by the stored window."""
        if not self.coeffs:
            raise ValueError("series is identically zero to the stored order")
        return self.min_order + len(self.coeffs) - 1

    def coefficient(self, order: int) -> GaussianRational:
        if not self.coeffs:
            return ZERO
        if order < self.min_order:
            return ZERO
        if order > self.max_order:
            raise ValueError(
                f"coefficient of order {order} is beyond the stored window "
                f"(max {self.max_order})"
            )
        return self.coeffs[order - self.min_order]

    @property
    def residue(self) -> GaussianRational:
        return self.coefficient(-1)

    def __mul__(self, other):
        """Truncated product; its window is as long as the shorter factor's."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [
            sum((a[j] * b[i - j] for j in range(1, i + 1)), a[0] * b[i])
            for i in range(min(len(a), len(b)))
        ]
        return LaurentSeries(self.base_point, self.min_order + other.min_order, out)

    def __truediv__(self, other):
        """Truncated quotient, as long as the shorter window; 0 / s is 0."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("divisor series is zero in its window")
        if self.is_zero:
            return self
        v, u = self.coeffs, other.coeffs
        inv_u0 = ONE / u[0]
        out = []
        for i in range(min(len(v), len(u))):
            acc = v[i]
            for j in range(1, i + 1):
                acc = acc - u[j] * out[i - j]
            out.append(acc * inv_u0)
        return LaurentSeries(self.base_point, self.min_order - other.min_order, out)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.base_point == other.base_point
            and self.min_order == other.min_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base_point, self.min_order, self.coeffs))

    def __repr__(self):
        terms = ", ".join(
            f"{self.min_order + k}: {c}" for k, c in enumerate(self.coeffs)
        )
        return f"LaurentSeries(at {self.base_point}; {terms})"


def laurent_expand(num: Polynomial, den: Polynomial, at, terms: int) -> LaurentSeries:
    """Exact Laurent expansion of num/den at a point, with `terms` coefficients.

    Writes den = (z-a)^m * u(z) with u(a) != 0; the expansion starts at
    min_order = ord_a(num) - m and is computed by power-series inversion of
    the Taylor head of u.  A zero numerator yields the zero window at order 0.
    """
    if den.is_zero:
        raise ZeroDivisionError("denominator is the zero polynomial")
    return num.taylor(at, terms) / den.taylor(at, terms)


def _taylor_head(coeffs, at: GaussianRational, terms: int):
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
