"""Independent verification of constructed equations by local series analysis.

Nothing in this module reuses the linear systems of the builder: every check
re-derives local data from the coefficient polynomials by exact Laurent
expansion, so a bug in the construction cannot hide behind itself.  At each
point psi is expanded once: its truncated Taylor head divides g's, and its
square divides h's, so no full Taylor shift and no psi^2 is ever built.

At a finite point the indicial polynomial is r*(r-1) + g0*r + h0 where g0 is
the residue of g/psi and h0 the order -2 coefficient of h/psi^2.  At
infinity, with x = 1/z, the same data is read off the reversed coefficient
polynomials and the indicial polynomial becomes l*(l+1) - g0*l + h0, the
standard convention.

At an apparent point the power-series solution w = sum a_s x^s of

    w'' + (g/psi) w' + (h/psi^2) w = 0

obeys  s*(s-2) * a_s = - sum_{k<s} (k * g_{s-1-k} + h_{s-2-k}) * a_k,
a recursion whose left side vanishes at the resonance s = 2; the value the
right side takes there is the logarithm obstruction.  Its closed form
(g_0 + h_{-1}) * h_{-1} + h_0 is asserted against the recursion in the test
suite, which makes the equivalence an executable statement rather than a
remark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    INFINITY,
    ExponentPair,
    FuchsianEquation,
    Infinity,
    psi,
    require_valid,
)
from .polynomials import LaurentSeries, Polynomial
from .scalars import ZERO, GaussianRational

#: Series depth used by verify(); the resonance sits at s = 2, so the default
#: is pure safety margin.
DEFAULT_DEPTH = 8


@dataclass(frozen=True)
class LocalExpansion:
    """Exact expansions of the two equation coefficients at one point."""

    point: object  # GaussianRational or INFINITY
    g_series: LaurentSeries
    h_series: LaurentSeries


@dataclass(frozen=True)
class Indicial:
    """Indicial data at a point: root sum and product, plus the explicit root
    pair whenever the discriminant is a Gaussian-rational square."""

    sum: GaussianRational
    product: GaussianRational
    pair: ExponentPair | None


def local_expansion(eq: FuchsianEquation, point, terms: int = DEFAULT_DEPTH + 2) -> LocalExpansion:
    """Expansions of g/psi and h/psi^2 at a finite point or at infinity.

    At infinity the expansions are taken in the coordinate x = 1/z of the
    raw coefficient functions, scaled so that the top coefficients of g and
    h appear at orders -1 and -2 respectively: reversed g and h are divided
    by x * psi_rev and by its square.
    """
    if terms < 3:
        raise ValueError("terms must be >= 3")
    p = psi(eq.instance)
    if isinstance(point, Infinity):
        d = eq.instance.n + eq.instance.num_apparent
        g_rev = Polynomial(tuple(reversed(eq.g.padded(d))))
        h_rev = Polynomial(tuple(reversed(eq.h.padded(2 * d - 1))))
        x_psi_rev = Polynomial((ZERO,) + tuple(reversed(p.padded(d + 1))))
        g_head, h_head, psi_head = (f.taylor(ZERO, terms) for f in (g_rev, h_rev, x_psi_rev))
    else:
        point = GaussianRational.coerce(point)
        g_head, h_head, psi_head = (f.taylor(point, terms) for f in (eq.g, eq.h, p))
    return LocalExpansion(
        point=point, g_series=g_head / psi_head, h_series=h_head / (psi_head * psi_head)
    )


def indicial_roots(local: LocalExpansion) -> Indicial:
    """Roots of the indicial equation at the expansion point.

    The root pair is exact when the discriminant has a Gaussian-rational
    square root; otherwise only the (sum, product) data is reported and
    comparisons fall back to it.  For a quadratic the root multiset and the
    (sum, product) pair determine each other, so nothing is lost.
    """
    g0 = local.g_series.coefficient(-1)
    h0 = local.h_series.coefficient(-2)
    if isinstance(local.point, Infinity):
        root_sum = g0 - 1
    else:
        root_sum = 1 - g0
    root_product = h0
    disc = root_sum * root_sum - 4 * root_product
    sqrt_disc = disc.sqrt()
    pair = None
    if sqrt_disc is not None:
        pair = ExponentPair((root_sum + sqrt_disc) / 2, (root_sum - sqrt_disc) / 2)
    return Indicial(sum=root_sum, product=root_product, pair=pair)


def frobenius_obstruction(local: LocalExpansion, depth: int = DEFAULT_DEPTH):
    """Run the power-series recursion at an apparent-shaped point.

    Returns (omega, coefficients).  omega is the value closing the resonance
    at s = 2; the series continues past it, normalized by a_0 = 1 and
    a_2 = 0, only when omega vanishes.
    """
    g, h = local.g_series, local.h_series
    if g.coefficient(-1) != GaussianRational(-1):
        raise ValueError(f"not apparent-shaped: residue of g-series is {g.coefficient(-1)}")
    if h.coefficient(-2):
        raise ValueError(
            f"not apparent-shaped: h-series has order -2 coefficient {h.coefficient(-2)}"
        )
    limit = min(_stored_top(g), _stored_top(h)) + 2
    top = min(depth, limit)
    if top < 2:
        raise ValueError("series windows too short to reach the resonance at s = 2")
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


def series_residual(local: LocalExpansion, coefficients) -> list:
    """Coefficients of w'' + (g/psi) w' + (h/psi^2) w for the truncated series.

    With K + 1 series coefficients the residual orders -2 .. K-2 are fully
    determined by the truncation and are returned in ascending order; for a
    true local solution they all vanish.
    """
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


@dataclass(frozen=True)
class FinitePointReport:
    point: GaussianRational
    expected: ExponentPair
    indicial: Indicial
    match: bool


@dataclass(frozen=True)
class InfinityReport:
    expected: ExponentPair
    indicial: Indicial
    match: bool


@dataclass(frozen=True)
class ApparentPointReport:
    point: GaussianRational
    residue: GaussianRational
    residue_ok: bool  # residue of g/psi equals -1
    double_pole: GaussianRational
    double_pole_absent: bool  # h/psi^2 has no order -2 term
    indicial: Indicial
    indicial_ok: bool  # indicial roots are {0, 2}
    momentum_expected: GaussianRational
    momentum_recovered: GaussianRational
    momentum_ok: bool
    obstruction: GaussianRational | None  # None when the local shape is wrong
    log_free: bool
    residual_ok: bool


@dataclass(frozen=True)
class VerificationReport:
    finite: tuple
    apparent: tuple
    infinity: InfinityReport
    overall: bool


def verify(eq: FuchsianEquation, depth: int = DEFAULT_DEPTH) -> VerificationReport:
    """Check every prescribed condition of the instance against the equation.

    All comparisons are exact; failures are reported, never raised.
    """
    require_valid(eq.instance)
    instance = eq.instance

    # finite points and infinity need only indicial_roots, which reads
    # orders -1 and -2: the shortest window will do
    finite_reports = []
    for t, expected in instance.finite_points:
        local = local_expansion(eq, t, 3)
        ind = indicial_roots(local)
        match = ind.sum == expected.sum and ind.product == expected.product
        finite_reports.append(
            FinitePointReport(point=t, expected=expected, indicial=ind, match=match)
        )

    inf_local = local_expansion(eq, INFINITY, 3)
    inf_ind = indicial_roots(inf_local)
    expected_inf = instance.infinity_exponents
    infinity_report = InfinityReport(
        expected=expected_inf,
        indicial=inf_ind,
        match=inf_ind.sum == expected_inf.sum and inf_ind.product == expected_inf.product,
    )

    two = GaussianRational(2)
    apparent_reports = []
    for q, p in instance.apparent_points:
        local = local_expansion(eq, q, depth + 2)
        residue = local.g_series.coefficient(-1)
        double_pole = local.h_series.coefficient(-2)
        residue_ok = residue == GaussianRational(-1)
        double_pole_absent = not double_pole
        ind = indicial_roots(local)
        indicial_ok = ind.sum == two and not ind.product
        recovered = local.h_series.coefficient(-1)
        momentum_ok = recovered == p
        obstruction = None
        log_free = False
        residual_ok = False
        if residue_ok and double_pole_absent:
            obstruction, coefficients = frobenius_obstruction(local, depth)
            log_free = not obstruction
            if log_free:
                residual_ok = all(not r for r in series_residual(local, coefficients))
        apparent_reports.append(
            ApparentPointReport(
                point=q,
                residue=residue,
                residue_ok=residue_ok,
                double_pole=double_pole,
                double_pole_absent=double_pole_absent,
                indicial=ind,
                indicial_ok=indicial_ok,
                momentum_expected=p,
                momentum_recovered=recovered,
                momentum_ok=momentum_ok,
                obstruction=obstruction,
                log_free=log_free,
                residual_ok=residual_ok,
            )
        )

    overall = (
        all(r.match for r in finite_reports)
        and infinity_report.match
        and all(
            r.residue_ok
            and r.double_pole_absent
            and r.indicial_ok
            and r.momentum_ok
            and r.log_free
            and r.residual_ok
            for r in apparent_reports
        )
    )
    return VerificationReport(
        finite=tuple(finite_reports),
        apparent=tuple(apparent_reports),
        infinity=infinity_report,
        overall=overall,
    )


def report_to_json_obj(report: VerificationReport) -> dict:
    """VerificationReport as a JSON-ready dict with stable key order."""

    def indicial_obj(ind: Indicial) -> dict:
        obj = {"sum": ind.sum.to_pair(), "product": ind.product.to_pair()}
        if ind.pair is not None:
            obj["roots"] = ind.pair.to_json_obj()
        else:
            obj["roots"] = "irrational-pair"
        return obj

    return {
        "finite": [
            {
                "t": r.point.to_pair(),
                "expected": r.expected.to_json_obj(),
                "indicial": indicial_obj(r.indicial),
                "match": r.match,
            }
            for r in report.finite
        ],
        "infinity": {
            "expected": report.infinity.expected.to_json_obj(),
            "indicial": indicial_obj(report.infinity.indicial),
            "match": report.infinity.match,
        },
        "apparent": [
            {
                "q": r.point.to_pair(),
                "residue": r.residue.to_pair(),
                "residue_ok": r.residue_ok,
                "double_pole_absent": r.double_pole_absent,
                "indicial": indicial_obj(r.indicial),
                "indicial_ok": r.indicial_ok,
                "momentum_expected": r.momentum_expected.to_pair(),
                "momentum_recovered": r.momentum_recovered.to_pair(),
                "momentum_ok": r.momentum_ok,
                "obstruction": None if r.obstruction is None else r.obstruction.to_pair(),
                "log_free": r.log_free,
                "residual_ok": r.residual_ok,
            }
            for r in report.apparent
        ],
        "overall": report.overall,
    }


def _stored_top(series: LaurentSeries) -> int:
    """Highest queryable order; a zero window answers every query with 0."""
    if series.is_zero:
        return 10**9
    return series.max_order
