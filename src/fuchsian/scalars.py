"""Exact arithmetic over the Gaussian rationals.

A Gaussian rational is a complex number whose real and imaginary parts are
arbitrary-precision rationals.  All core computations in this package take
place in this field, so every comparison is an exact equality test and no
tolerance ever enters the picture.  ``fractions.Fraction`` keeps denominators
positive and in lowest terms after every operation, which gives structural
equality for free.

Serialization convention (shared with the CLI): a rational is the string
"p/q" with q > 0 in lowest terms, or just "p" when q == 1; a complex value is
the two-element list [re, im] of such strings.

The exact kernels of the linear algebra and series code do their inner
arithmetic on plain ints: ``to_gaussian_ints`` writes a vector over one
common denominator, and ``from_gaussian_ints`` turns each result back into a
canonical value, so gcds are paid once per output rather than once per
operation.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q" (or "p" when the denominator is 1)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text) -> Fraction:
    """Parse "p/q" / "p" strings; plain ints are accepted as well.

    Strings must match [+-]?digits(/digits)? exactly: no whitespace,
    decimal points, exponents or underscores.  Python's limit on the digits
    of an int converted from a string bounds the size of what is accepted.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    quoted = repr(text)  # capped: the CLI echoes this message to stderr
    if len(quoted) > 40:
        quoted = f"{quoted[:40]}... ({len(quoted)} characters)"
    raise ValueError(f"not a rational: {quoted}")


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rnum, rden = isqrt(num), isqrt(den)
    if rnum * rnum == num and rden * rden == den:
        return Fraction(rnum, rden)
    return None


class GaussianRational:
    """An exact complex scalar re + im*i with rational re, im.

    Values are immutable; all operators return new instances.  Mixing with
    ``int`` and ``Fraction`` is supported, mixing with floats is rejected so
    no inexact value can leak into a computation.
    """

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
    def coerce(cls, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    @classmethod
    def _wrap(cls, value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return cls(value)
        return None

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        result = object.__new__(GaussianRational)
        result.re = self.re + other.re
        result.im = self.im + other.im
        return result

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        result = object.__new__(GaussianRational)
        result.re = self.re - other.re
        result.im = self.im - other.im
        return result

    def __rsub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        result = object.__new__(GaussianRational)
        # Real factors dominate in practice; skip the products they zero out.
        if not d.numerator:
            result.re = a * c
            result.im = b * c if b.numerator else b
        elif not b.numerator:
            result.re = a * c
            result.im = a * d
        else:
            result.re = a * c - b * d
            result.im = a * d + b * c
        return result

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b = self.re, self.im
        c, d = other.re, other.im
        result = object.__new__(GaussianRational)
        if d.numerator == 0:
            if c.numerator == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            result.re = a / c
            result.im = b / c
            return result
        norm = c * c + d * d
        result.re = (a * c + b * d) / norm
        result.im = (b * c - a * d) / norm
        return result

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result, base, n = ONE, self, exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def sqrt(self) -> GaussianRational | None:
        """An exact square root within the Gaussian rationals, or None.

        A Gaussian rational has such a root iff |z| is rational and
        (re + |z|)/2 is a rational square; both conditions are decidable
        with integer square roots.
        """
        if self.im == 0:
            if self.re >= 0:
                root = rational_sqrt(self.re)
                return None if root is None else GaussianRational(root)
            root = rational_sqrt(-self.re)
            return None if root is None else GaussianRational(0, root)
        modulus = rational_sqrt(self.re * self.re + self.im * self.im)
        if modulus is None:
            return None
        half = (self.re + modulus) / 2
        c = rational_sqrt(half)
        if c is None or c == 0:
            return None
        return GaussianRational(c, self.im / (2 * c))

    def to_complex(self) -> complex:
        """Nearest float complex; only the quarantined float paths use this."""
        return complex(float(self.re), float(self.im))

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re.numerator != 0 or self.im.numerator != 0

    # -- rendering / serialization -------------------------------------------

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
        """The [re, im] serialization used by all JSON interfaces."""
        return [format_rational(self.re), format_rational(self.im)]

    @classmethod
    def from_pair(cls, obj) -> GaussianRational:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"not a complex [re, im] pair: {obj!r}")
        return cls(parse_rational(obj[0]), parse_rational(obj[1]))


def to_gaussian_ints(values) -> tuple:
    """(den, re, im): a common denominator den > 0 and int lists with
    values[k] == (re[k] + im[k]*i) / den; den is the lcm of all denominators."""
    den = lcm(*(v.re.denominator for v in values), *(v.im.denominator for v in values))
    return (
        den,
        [v.re.numerator * (den // v.re.denominator) for v in values],
        [v.im.numerator * (den // v.im.denominator) for v in values],
    )


def from_gaussian_ints(re: int, im: int, den: int, den_im: int = 0) -> GaussianRational:
    """The canonical value (re + im*i) / (den + den_im*i) of Gaussian integers."""
    if den_im:
        re, im, den = re * den + im * den_im, im * den - re * den_im, den * den + den_im * den_im
    result = object.__new__(GaussianRational)
    result.re = Fraction(re, den)
    result.im = Fraction(im, den)
    return result


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
