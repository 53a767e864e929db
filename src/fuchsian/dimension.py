"""Dimension analysis for an arbitrary number of apparent points.

With n prescribed finite points and N apparent ones the h-system has
2n + 2N - 1 unknowns and n + 3N + 1 rows, so three regimes exist:

    N < n - 2   underdetermined: n - 2 - N coefficients stay free
    N = n - 2   square: unique solution (handled by builder.construct)
    N > n - 2   overdetermined: N - n + 2 dependent rows survive, each
                yielding one quadratic constraint on the momenta

In every regime N + (free coefficients) - (constraints) = n - 2, the
dimension of the space of equations once positions are fixed.  solve_under
and check_momenta reach h through builder.solve_h, the Hermite interpolant
of the leading rows of the h-system.  check_momenta and float_obstructions
read the over case's constraints at the momenta first, from
builder.fredholm_values, and build no h where one fails: the obstruction at
q_j is its constraint's value over the p_j^2 coefficient, an identity the
tests check against verify.

The builder keeps what neither free values nor momenta change (g, the
Hermite frame, the right-hand-side terms and the constraints) once per point
set.  So solve_under called again on one instance object with other free
values, and check_momenta, quadratic_constraints and float_obstructions
called again on it or on its with_momenta siblings, pay only for the
interpolation sum or the constraints' values, and for verify, on every call.

The constraints are the Fredholm conditions of the h-system: its matrix has
maximal rank, so for N > n - 2 the right-hand side is reachable exactly when
it is orthogonal to the left nullspace, one closed-form vector per dependent
row h''(q_j), whose right-hand side is quadratic in p_j.  So each vector
gives one quadratic equation in the momenta that carries p_j^2, and
builder.fredholm_terms states them once per point set, without any h.

Floats appear only at the edges.  solve_quadratic_float finds the roots of
a scalar constraint numerically.  float_obstructions takes float momenta at
their exact binary values, computes exactly and converts its results to
complex at the end; nothing exact depends on either.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .builder import VerificationFailed, fredholm_terms, fredholm_values, solve_g, solve_h
from .frobenius import verify
from .model import FuchsianEquation, FuchsianInstance
from .scalars import GaussianRational, _Record


class CaseReport(_Record):
    """Counting data for one instance; total_dimension is n - 2 in all cases."""

    n: int
    num_apparent: int
    case: str  # "under" | "square" | "over"
    h_free_dim: int
    constraint_count: int
    total_dimension: int

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "N": self.num_apparent,
            "case": self.case,
            "h_free_dim": self.h_free_dim,
            "constraint_count": self.constraint_count,
            "total_dimension": self.total_dimension,
        }


def classify(instance: FuchsianInstance) -> CaseReport:
    """Compare N with n - 2 and report the counting consequences."""
    n, num = instance.n, instance.num_apparent
    case = "under" if num < n - 2 else "square" if num == n - 2 else "over"
    h_free_dim = max(n - 2 - num, 0)
    constraint_count = max(num - n + 2, 0)
    return CaseReport(
        n=n,
        num_apparent=num,
        case=case,
        h_free_dim=h_free_dim,
        constraint_count=constraint_count,
        total_dimension=num + h_free_dim - constraint_count,
    )


def solve_under(instance: FuchsianInstance, free_values) -> FuchsianEquation:
    """Solve the underdetermined case with the given free coefficient values.

    free_values[k] becomes the coefficient of z^(n+3N+k) in h; the result is
    verified by series analysis before being returned.
    """
    report = classify(instance)
    if report.case != "under":
        raise ValueError(f"instance is {report.case}, not underdetermined")
    free_values = [GaussianRational.coerce(v) for v in free_values]
    if len(free_values) != report.h_free_dim:
        raise ValueError(f"expected {report.h_free_dim} free values, got {len(free_values)}")
    return _verified(FuchsianEquation(solve_g(instance), solve_h(instance, free_values), instance))


def _verified(eq: FuchsianEquation) -> FuchsianEquation:
    if not verify(eq).overall:
        raise VerificationFailed("constructed equation failed series verification")
    return eq


class QuadraticConstraint(_Record):
    """One momentum constraint: sum_k quad[k] p_k^2 + lin[k] p_k + const = 0.

    Momentum indices are 1-based (p_1 .. p_N); j names the apparent point
    whose dependent second-derivative row produced the constraint, so the
    quadratic term of p_j is always present.
    """

    j: int
    quad: dict
    lin: dict
    const_term: GaussianRational

    def single_variable(self) -> bool:
        """True when only p_j appears, so the constraint is a scalar quadratic."""
        return set(self.quad) | set(self.lin) <= {self.j}

    def to_json_obj(self) -> dict:
        return {
            "j": self.j,
            "quad": {str(k): self.quad[k].to_pair() for k in sorted(self.quad)},
            "lin": {str(k): self.lin[k].to_pair() for k in sorted(self.lin)},
            "const": self.const_term.to_pair(),
        }


def quadratic_constraints(instance: FuchsianInstance) -> list:
    """The N - n + 2 momentum constraints of the overdetermined case, exact
    for every momentum choice: builder.fredholm_terms as records, with
    1-based keys and zero entries dropped, in fresh dicts on every call."""
    case = classify(instance).case
    if case != "over":
        raise ValueError(f"instance is {case}, not overdetermined")
    return [
        QuadraticConstraint(
            j=j,
            quad={k: v for k, v in enumerate(quad, 1) if v},
            lin={k: v for k, v in enumerate(lin, 1) if v},
            const_term=const,
        )
        for j, const, lin, quad in fredholm_terms(instance)
    ]


class MomentaCheck(_Record):
    consistent: bool
    equation: FuchsianEquation | None
    violations: tuple  # (j, exact constraint value) pairs, nonzero values only


def check_momenta(instance: FuchsianInstance) -> MomentaCheck:
    """Evaluate the constraints at the instance's momenta, exactly, with
    builder.fredholm_values; only when every value is zero is h built, as
    the witness."""
    case = classify(instance).case
    if case != "over":
        raise ValueError(f"instance is {case}, not overdetermined")
    violations = tuple((j, v) for j, v in fredholm_values(instance, instance.momenta) if v)
    if violations:
        return MomentaCheck(consistent=False, equation=None, violations=violations)
    eq = _verified(FuchsianEquation(solve_g(instance), solve_h(instance), instance))
    return MomentaCheck(consistent=True, equation=eq, violations=())


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


def solve_quadratic_float(a: complex, b: complex, c: complex):
    """Both roots of a z^2 + b z + c in floats, numerically stable.

    The larger-magnitude root is computed from the quadratic formula with
    the non-cancelling sign; the other follows from the product c/a.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if a == 0:
        raise ZeroDivisionError("leading coefficient is zero")
    sq = cmath.sqrt(b * b - 4 * a * c)
    if abs(-b + sq) >= abs(-b - sq):
        first = (-b + sq) / (2 * a)
    else:
        first = (-b - sq) / (2 * a)
    if first == 0:
        return 0j, -b / a
    return first, c / (a * first)


def float_obstructions(instance: FuchsianInstance, momenta) -> list:
    """Logarithm obstructions at every apparent point for float momenta.

    Momenta are taken at their exact binary values and everything after that
    is exact; only the results are rounded to complex.  omega_j is the
    obstruction verify reports at q_j on the Hermite interpolant of the
    h-system's leading rows, unique for N >= n - 2: exactly 0 where h''(q_j)
    is interpolated, C_j(p) / delta_j elsewhere (C_j the constraint of q_j,
    delta_j = -2 psi'(q_j)^2 its p_j^2 coefficient), so it is read off the
    Fredholm constraints and no h is built.  Raises ValueError for an underdetermined instance and for
    momenta not finite, and FuchsViolation for an inadmissible exponent sum.
    """
    case = classify(instance).case
    if case == "under":
        raise ValueError("instance is under; float_obstructions needs N >= n - 2")
    momenta = [complex(p) for p in momenta]
    if len(momenta) != instance.num_apparent:
        raise ValueError(f"expected {instance.num_apparent} momenta, got {len(momenta)}")
    if not all(cmath.isfinite(p) for p in momenta):
        raise ValueError("momenta must be finite")
    omegas = [0j] * instance.num_apparent
    if case == "square":
        solve_g(instance)  # for its admissibility check alone
        return omegas
    exact = [GaussianRational(Fraction(p.real), Fraction(p.imag)) for p in momenta]
    terms = fredholm_terms(instance)
    for (j, value), (_, _, _, quad) in zip(fredholm_values(instance, exact), terms):
        omegas[j - 1] = (value / quad[j - 1]).to_complex()
    return omegas
