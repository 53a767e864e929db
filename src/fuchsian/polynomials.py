"""Dense polynomials over the Gaussian rationals, and the Gaussian-integer
kernels behind them.

A Polynomial is a read-only container, with a Taylor shift and no
arithmetic: a tuple of coefficients in ascending degree with trailing zeros
trimmed; the zero polynomial is the empty tuple and its degree is the
distinguished value -inf (never the -1 convention).  It is read-only, by
the package's one rule (scalars._Frozen), because one g is shared by every
equation built on an instance (model._per_instance).

The package's Gaussian-integer kernels are here, one per job:
_monic_ints multiplies by prod (Z - X)^m (it builds the point frame's
Psi~ = prod (Z - X) and continues it to the Hermite frame's Omega~),
_taylor_head_ints divides by (Z - X)^k, _product_sum sums products of
windows, and _in_frame and _from_frame write the frame rule both ways.

The kernels run on plain ints: the inputs are written over a common
denominator once, the inner loops multiply and add Gaussian integers, and
each output coefficient becomes a canonical GaussianRational at most once.
Taylor heads follow one rule.  A polynomial is written once in the frame
Z = E z of the points it is read at, x = X/E (_in_frame: E^deg F(Z/E) over
its reduced denominator); its head at x is then plain repeated synthetic
division by Z - X (_taylor_head_ints), the remainders being the Taylor
coefficients in u = Z - X = E (z - x), with no power of E inside the kernel,
and what is left past them the quotient.  The verifier and the builder read
these raw values in the instance's point frame.  _product_sum gives the
verifier its window products and the builder g and h, each a sum of
Gaussian-integer coefficients times frame polynomials.  _from_frame is the
one way back: coefficient k times E^(k-deg) makes a Polynomial, for solve_g,
solve_h and Polynomial.shift, which frames at its point's own denominator.
No kernel divides one series by another.
The test suite checks every kernel against a plain Fraction reference and
reads its independent Laurent expansions off that reference, not off these
kernels.
"""

from __future__ import annotations

from math import gcd

from .scalars import ONE, ZERO, GaussianRational, _Frozen, from_gaussian_ints, to_gaussian_ints


class Polynomial(_Frozen):
    """Dense univariate polynomial with GaussianRational coefficients; a
    read-only _Frozen value whose coeffs are set once."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        values = [GaussianRational.coerce(c) for c in coeffs]
        while values and not values[-1]:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))

    def _value(self) -> tuple:
        return (self.coeffs,)

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

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

    def shift(self, a) -> Polynomial:
        """Taylor shift: the polynomial q with q(x) = p(x + a).

        With a = A/e and p framed at e by _in_frame, q_k is the frame's
        Taylor coefficient of order k at A, read back by _from_frame."""
        e, (ar,), (ai,) = to_gaussian_ints([GaussianRational.coerce(a)])
        den, re, im = _in_frame(self.coeffs, e)
        deg = len(re) - 1
        return _from_frame(den, *_taylor_head_ints(re, im, ar, ai, deg + 1), e, deg)

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


def _monic_ints(pr: list, pi: list, xr: list, xi: list, mults) -> tuple:
    """(pr + pi*i) * prod (Z - X)^m over X = xr[k] + xi[k]*i and m = mults[k],
    as ascending (re, im) int lists; the start lists are not changed."""
    for a, b, m in zip(xr, xi, mults):
        for _ in range(m):  # times Z - X
            pr, pi = [0] + pr, [0] + pi
            for k in range(len(pr) - 1):
                pr[k] -= a * pr[k + 1] - b * pi[k + 1]
                pi[k] -= a * pi[k + 1] + b * pr[k + 1]
    return pr, pi


def _in_frame(coeffs, e: int) -> tuple:
    """(den, re, im): E^deg F(Z/E) for F with the GaussianRational coeffs,
    deg = len(coeffs) - 1, as ascending int lists over den in lowest terms:
    coefficient k is multiplied by e^(deg-k), then the integer content is
    divided out.  _from_frame reads it back."""
    den, re, im = to_gaussian_ints(coeffs)
    powers = [e ** (len(re) - 1 - k) for k in range(len(re))]
    re, im = [c * x for c, x in zip(re, powers)], [c * x for c, x in zip(im, powers)]
    content = gcd(den, *re, *im)
    return den // content, [x // content for x in re], [x // content for x in im]


def _from_frame(den: int, re: list, im: list, e: int, deg: int) -> Polynomial:
    """The Polynomial whose coefficient k is (re[k] + im[k]*i) / den times
    E^(k-deg), deg at most len(re) - 1: _in_frame's inverse at deg."""
    top, up = len(re) - 1, e ** (len(re) - 1 - deg)
    dens = [den * e ** (top - k) for k in range(top + 1)]
    return Polynomial(map(from_gaussian_ints, [x * up for x in re], [y * up for y in im], dens))


def _taylor_head_ints(re: list, im: list, a: int, b: int, terms: int) -> tuple:
    """Taylor coefficients of orders 0 .. terms-1 at X = a + b*i of the
    Gaussian-integer polynomial re + im*i (ascending int lists), followed by
    its quotient by (Z - X)^terms, as (re, im) int lists of length
    max(len(re), terms); orders past the degree are 0.

    Order k is the remainder of the (k+1)-th synthetic division by Z - X,
    run in place on a copy: pass k leaves orders 0 .. k final and the
    quotient by (Z - X)^(k+1) above them.
    """
    wr, wi = re[:], im[:]
    deg = len(wr) - 1
    if not b and not any(wi):
        for k in range(min(terms, deg)):
            for i in range(deg - 1, k - 1, -1):
                wr[i] += a * wr[i + 1]
    else:
        for k in range(min(terms, deg)):
            for i in range(deg - 1, k - 1, -1):
                x, y = wr[i + 1], wi[i + 1]
                wr[i] += a * x - b * y
                wi[i] += a * y + b * x
    pad = [0] * (terms - deg - 1)
    return wr + pad, wi + pad


def _product_sum(size: int, *pairs) -> tuple:
    """Orders 0 .. size-1 of the sum of f*u over the pairs (f, u) of
    Gaussian-integer windows, each an (re, im) pair of int lists from order
    0; entries past the end of a window are left out of the sums, and so
    are the zero entries of f."""
    out_r, out_i = [0] * size, [0] * size
    for (fr, fi), (ur, ui) in pairs:
        for j, x, y in zip(range(size), fr, fi):
            if x or y:
                for k, v, w in zip(range(j, size), ur, ui):
                    out_r[k] += x * v - y * w
                    out_i[k] += x * w + y * v
    return out_r, out_i
