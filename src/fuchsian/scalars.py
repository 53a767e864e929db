"""Exact arithmetic over the Gaussian rationals.

A Gaussian rational is a complex number whose real and imaginary parts are
arbitrary-precision rationals.  All core computations in this package take
place in this field, so every comparison is an exact equality test and no
tolerance ever enters the picture.  A value is one int triple (r, i, d) for
(r + i*sqrt(-1)) / d in canonical form, d > 0 and gcd(r, i, d) == 1, so
equality compares three ints and each field operation pays one gcd.  ``re``
and ``im`` are ``Fraction``s derived on demand, r/d and i/d in lowest terms.

Serialization convention (shared with the CLI): a rational is the string
"p/q" with q > 0 in lowest terms, or just "p" when q == 1; a complex value is
the two-element list [re, im] of such strings.

The exact kernels of the interpolation and series code do their inner
arithmetic on plain ints: ``to_gaussian_ints`` writes a vector over one
common denominator, and ``from_gaussian_ints`` turns each result back into a
canonical value, so gcds are paid once per output rather than once per
operation.  exact_quadratic_roots, on GaussianRational.sqrt, is the one
exact quadratic solver: verify's indicial pairs and exact momenta.

The package's one read-only rule, _Frozen (and _Record on it), lives here
too: this is the lowest module, so every value type can import it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
_new = object.__new__


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


class _Frozen:
    """Read-only value object: its state is `_value()`, the constructor's
    arguments, which equality (only within one class), the hash and pickle
    read.  Copies and unpickling call the constructor again, so nothing is
    restored past its checks; fields are set once, via object.__setattr__
    (GaussianRational's through its slot descriptors, which cost less).
    GaussianRational, Polynomial, ExponentPair, Matrix, the instance, the
    equation and the reports derive from it, so every value reachable from an
    instance is read-only."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __reduce__(self):
        return type(self), self._value()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianRational(_Frozen):
    """An exact complex scalar re + im*i with rational re, im.

    Values are read-only _Frozen ones, whose state is (re, im); all
    operators return new instances.  Equality and the hash are its own, as a
    value equals the int or Fraction it is.  Mixing with ``int`` and
    ``Fraction`` is supported, mixing with floats is rejected so no inexact
    value can leak into a computation.
    """

    __slots__ = ("_r", "_i", "_d")

    def __init__(self, re=0, im=0):
        (a, b), (c, e) = self._parts(re), self._parts(im)
        d = lcm(b, e)  # both parts are in lowest terms, so the triple is canonical
        _set_r(self, a * (d // b))
        _set_i(self, c * (d // e))
        _set_d(self, d)

    @staticmethod
    def _parts(value) -> tuple:
        if isinstance(value, Fraction):
            return value.numerator, value.denominator
        if isinstance(value, int) and not isinstance(value, bool):
            return value, 1
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")

    @classmethod
    def coerce(cls, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    @staticmethod
    def _wrap(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return _triple(value, 0, 1)
        if isinstance(value, Fraction):
            return _triple(value.numerator, 0, value.denominator)
        return None

    def _value(self) -> tuple:
        return self.re, self.im

    @property
    def re(self) -> Fraction:
        return Fraction(self._r, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._i, self._d)

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _canon(self._r + other._r, self._i + other._i, d)
        return _canon(self._r * e + other._r * d, self._i * e + other._i * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _canon(self._r - other._r, self._i - other._i, d)
        return _canon(self._r * e - other._r * d, self._i * e - other._i * d, d * e)

    def __rsub__(self, other):
        other = self._wrap(other)
        return NotImplemented if other is None else other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = self._wrap(other)
            if other is None:
                return NotImplemented
        a, b = self._r, self._i
        c, e = other._r, other._i
        # Real factors dominate in practice; skip the products they zero out.
        if not e:
            return _canon(a * c, b * c, self._d * other._d)
        if not b:
            return _canon(a * c, a * e, self._d * other._d)
        return _canon(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, c, e, f = self._r, self._i, other._r, other._i, other._d
        # (a + b i) / d / ((c + e i) / f) = (a + b i)(c - e i) f / (d |c + e i|^2)
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            f = -f if c < 0 else f
            return _canon(a * f, b * f, self._d * abs(c))
        return _canon((a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = self._wrap(other)
        return NotImplemented if other is None else other / self

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
        return _triple(-self._r, -self._i, self._d)

    def __pos__(self):
        return self

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> GaussianRational:
        return _triple(self._r, -self._i, self._d)

    def sqrt(self) -> GaussianRational | None:
        """An exact square root within the Gaussian rationals, or None.

        (r + j*i) / d has one iff the Gaussian integer R + J*i = (r + j*i) * d
        has one, x + y*i over d.  Then m = x^2 + y^2 is the integer square
        root of R^2 + J^2, x^2 = (R + m) / 2 and 2xy = J, so R + m must be
        even.  The root returned has x >= 0, and y > 0 when x = 0, the case
        of a negative real.
        """
        d = self._d
        big_r, big_j = self._r * d, self._i * d
        norm = big_r * big_r + big_j * big_j
        m = isqrt(norm)
        if m * m != norm or (big_r + m) & 1:
            return None
        half = (big_r + m) >> 1
        x = isqrt(half)
        if x * x != half:
            return None
        if x:
            return _canon(x, big_j // (2 * x), d)
        y = isqrt(m)  # R = -m and J = 0: y^2 = m
        return _canon(0, y, d) if y * y == m else None

    def to_complex(self) -> complex:
        """Nearest float complex; only the quarantined float paths use this."""
        return complex(float(self.re), float(self.im))

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self._r == other._r and self._i == other._i and self._d == other._d

    def __hash__(self):  # a real value hashes as its Fraction, as it compares equal to it
        return hash((self.re, self.im)) if self._i else hash(self.re)

    def __bool__(self):
        return bool(self._r or self._i)

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


# the slot descriptors write past _Frozen.__setattr__, as only the
# constructors below and __init__ may
_set_r, _set_i, _set_d = (GaussianRational.__dict__[name].__set__ for name in ("_r", "_i", "_d"))


def _triple(r: int, i: int, d: int) -> GaussianRational:
    """The value (r + i*sqrt(-1)) / d of a triple that is already canonical."""
    value = _new(GaussianRational)
    _set_r(value, r)
    _set_i(value, i)
    _set_d(value, d)
    return value


def _canon(r: int, i: int, d: int) -> GaussianRational:
    """The canonical value (r + i*sqrt(-1)) / d for d > 0: one gcd."""
    g = gcd(r, i, d)
    if g != 1:
        r, i, d = r // g, i // g, d // g
    value = _new(GaussianRational)
    _set_r(value, r)
    _set_i(value, i)
    _set_d(value, d)
    return value


def to_gaussian_ints(values) -> tuple:
    """(den, re, im): a common denominator den > 0 and int lists with
    values[k] == (re[k] + im[k]*i) / den; den is the lcm of all denominators."""
    den = lcm(*[v._d for v in values])  # a list: *generator leaves resized tuples on a free list
    return den, [v._r * (den // v._d) for v in values], [v._i * (den // v._d) for v in values]


def from_gaussian_ints(re: int, im: int, den: int, den_im: int = 0) -> GaussianRational:
    """The canonical value (re + im*i) / (den + den_im*i) of Gaussian integers."""
    if den_im:
        re, im, den = re * den + im * den_im, im * den - re * den_im, den * den + den_im * den_im
    elif den < 0:
        re, im, den = -re, -im, -den
    elif not den:
        raise ZeroDivisionError("Gaussian integer quotient with zero denominator")
    return _canon(re, im, den)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def exact_quadratic_roots(a, b, c):
    """Roots of a p^2 + b p + c within the Gaussian rationals, or None."""
    a = GaussianRational.coerce(a)
    b = GaussianRational.coerce(b)
    c = GaussianRational.coerce(c)
    if not a:
        raise ZeroDivisionError("leading coefficient is zero")
    disc = b * b - 4 * a * c
    root = disc.sqrt()
    if root is None:
        return None
    return ((-b + root) / (2 * a), (-b - root) / (2 * a))


class _Record(_Frozen):
    """Immutable record whose fields are a subclass's own annotations, in
    order: construction by field and a repr as a frozen dataclass has.  The
    package defines its reports this way because importing `dataclasses`
    would add about 20 ms to every CLI process (see README)."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if args:
            if len(args) > len(fields):
                raise TypeError(
                    f"{type(self).__qualname__}() takes {len(fields)} fields, "
                    f"got {len(args)} positional"
                )
            for name, value in zip(fields, args):
                if name in kwargs:
                    raise TypeError(f"{type(self).__qualname__}() got field {name!r} twice")
                kwargs[name] = value
        if kwargs.keys() != self._field_set:
            missing = [name for name in fields if name not in kwargs]
            unknown = [name for name in kwargs if name not in self._field_set]
            raise TypeError(
                f"{type(self).__qualname__}() missing fields {missing}, unknown fields {unknown}"
            )
        self.__dict__.update(kwargs)

    def _value(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._value()))
        return f"{type(self).__qualname__}({body})"
