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
remark.  The recursion runs fraction-free on Gaussian integers, since its
divisors s*(s-2) are known in advance.

The truncated series is then substituted into the equation with its
denominators cleared, psi^2 w'' + psi g w' + h w, built from the Taylor heads
of psi, g and h.  Its series form would restate the recursion term for term
(the coefficient of a_s in order s-2 is s*(s-2) exactly when the residue is
-1 and h has no double pole), so it would re-check the recursion code while a
wrong series division went unseen; the cleared form involves no division.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .model import (
    INFINITY,
    ExponentPair,
    FuchsianEquation,
    Infinity,
    psi,
    require_valid,
)
from .polynomials import LaurentSeries, Polynomial
from .scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints

#: Series depth of the recursion verify() runs; the resonance sits at s = 2,
#: so the depth beyond it is pure safety margin.
DEFAULT_DEPTH = 8


@dataclass(frozen=True)
class LocalExpansion:
    """Exact expansions of the two equation coefficients at one point."""

    point: object  # GaussianRational or INFINITY
    g_series: LaurentSeries
    h_series: LaurentSeries
    heads: tuple | None = None  # Taylor heads (psi, g, h) the series came from


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
        point=point,
        g_series=g_head / psi_head,
        h_series=h_head / (psi_head * psi_head),
        heads=(psi_head, g_head, h_head),
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


def frobenius_obstruction(local: LocalExpansion):
    """Run the power-series recursion at an apparent-shaped point.

    Returns (omega, coefficients).  omega is the value closing the resonance
    at s = 2; the series continues past it, normalized by a_0 = 1 and
    a_2 = 0, only when omega vanishes.  It runs to s = DEFAULT_DEPTH, or as
    far as the series windows reach.

    Fraction-free: g and h are Gaussian integers over one denominator D, the
    a_k over one shared denominator E.  Step s != 2 scales every a_k by the
    known divisor D*s*(s-2), appends -acc and divides out the integer content.
    """
    g, h = local.g_series, local.h_series
    if g.coefficient(-1) != GaussianRational(-1):
        raise ValueError(f"not apparent-shaped: residue of g-series is {g.coefficient(-1)}")
    if h.coefficient(-2):
        raise ValueError(
            f"not apparent-shaped: h-series has order -2 coefficient {h.coefficient(-2)}"
        )
    limit = min(_stored_top(g), _stored_top(h)) + 2
    top = min(DEFAULT_DEPTH, limit)
    if top < 2:
        raise ValueError("series windows too short to reach the resonance at s = 2")
    # orders -1 .. top-2 of g, then of h; after the split, index o + 1 is order o
    den, re, im = to_gaussian_ints(
        [g.coefficient(o) for o in range(-1, top - 1)]
        + [h.coefficient(o) for o in range(-1, top - 1)]
    )
    g_re, g_im, h_re, h_im = re[:top], im[:top], re[top:], im[top:]
    ar, ai, e = [1], [0], 1  # a_k = (ar[k] + ai[k]*i) / e
    omega = None
    for s in range(1, top + 1):
        # acc * den * e = sum_k (k g_(s-1-k) + h_(s-2-k)) * a_k
        acc_r, acc_i = 0, 0
        for k in range(s):
            cr, ci = h_re[s - 1 - k], h_im[s - 1 - k]
            if k:
                cr += k * g_re[s - k]
                ci += k * g_im[s - k]
            acc_r += cr * ar[k] - ci * ai[k]
            acc_i += cr * ai[k] + ci * ar[k]
        if s == 2:
            omega = from_gaussian_ints(acc_r, acc_i, den * e)
            if omega:
                break
            ar.append(0)
            ai.append(0)
            continue
        # a_s = -acc / (s (s-2)): bring every a_k over e * den * |s (s-2)|
        scale = den * s * (s - 2)
        if scale < 0:
            scale, acc_r, acc_i = -scale, -acc_r, -acc_i
        ar = [x * scale for x in ar] + [-acc_r]
        ai = [x * scale for x in ai] + [-acc_i]
        e *= scale
        content = gcd(e, *ar, *ai)
        if content > 1:
            ar = [x // content for x in ar]
            ai = [x // content for x in ai]
            e //= content
    return omega, tuple([from_gaussian_ints(x, y, e) for x, y in zip(ar, ai)])


def series_residual(local: LocalExpansion, coefficients) -> list:
    """Orders 0 .. K of psi^2 w'' + psi g w' + h w for the truncated series
    w = sum_(k<=K) a_k x^k, from the Taylor heads of psi, g and h.

    The point must be a root of psi, where psi^2 is x^2 times a unit: these
    orders vanish exactly when orders -2 .. K-2 of w'' + (g/psi) w' +
    (h/psi^2) w do, and no series division is involved.  Written as
    psi (psi w'' + g w') + h w, they read psi and h through order K and g
    through order K - 1.  The heads and the a_k are Gaussian integers over
    one denominator each.
    """
    if local.heads is None:
        raise ValueError("local expansion carries no Taylor heads")
    psi_head, g_head, h_head = local.heads
    if psi_head.coefficient(0):
        raise ValueError("the cleared residual needs a root of psi as its point")
    size = len(coefficients)
    den, re, im = to_gaussian_ints(
        [psi_head.coefficient(o) for o in range(size)]
        + [g_head.coefficient(o) for o in range(size - 1)]
        + [h_head.coefficient(o) for o in range(size)]
    )
    p, g = (re[:size], im[:size]), (re[size : 2 * size - 1], im[size : 2 * size - 1])
    h = tuple([den * x for x in part[2 * size - 1 :]] for part in (re, im))  # over den^2
    e, wr, wi = to_gaussian_ints(coefficients)
    w = (wr, wi)
    w1 = tuple([k * x for k, x in enumerate(part) if k] for part in w)
    w2 = tuple([k * (k - 1) * x for k, x in enumerate(part) if k > 1] for part in w)
    u = _mul_add(p, w2, g, w1, size - 1)  # psi w'' + g w', over den * e
    rr, ri = _mul_add(p, u, h, w, size)  # psi u + h w, over den^2 * e
    return [from_gaussian_ints(x, y, den * den * e) for x, y in zip(rr, ri)]


def _mul_add(f, u, g, v, size: int) -> tuple:
    """Orders 0 .. size-1 of f*u + g*v for Gaussian-integer windows, each an
    (re, im) pair of int lists from order 0; entries past the end of a window
    are left out of the sums."""
    out_r, out_i = [], []
    for m in range(size):
        re = im = 0
        for (xr, xi), (yr, yi) in ((f, u), (g, v)):
            for j in range(max(0, m - len(yr) + 1), min(m + 1, len(xr))):
                k = m - j
                re += xr[j] * yr[k] - xi[j] * yi[k]
                im += xr[j] * yi[k] + xi[j] * yr[k]
        out_r.append(re)
        out_i.append(im)
    return out_r, out_i


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


def verify(eq: FuchsianEquation) -> VerificationReport:
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
        local = local_expansion(eq, q)
        residue = local.g_series.coefficient(-1)
        residue_ok = residue == GaussianRational(-1)
        double_pole_absent = not local.h_series.coefficient(-2)
        ind = indicial_roots(local)
        indicial_ok = ind.sum == two and not ind.product
        recovered = local.h_series.coefficient(-1)
        momentum_ok = recovered == p
        obstruction = None
        log_free = False
        residual_ok = False
        if residue_ok and double_pole_absent:
            obstruction, coefficients = frobenius_obstruction(local)
            log_free = not obstruction
            if log_free:
                residual_ok = all(not r for r in series_residual(local, coefficients))
        apparent_reports.append(
            ApparentPointReport(
                point=q,
                residue=residue,
                residue_ok=residue_ok,
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
