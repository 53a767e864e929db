"""Independent verification of constructed equations by local series analysis.

Nothing in this module reuses the linear systems of the builder: every check
re-derives local data from the coefficient polynomials, so a bug in the
construction cannot hide behind itself.

Each call reads the instance's point frame, model._psi_ints: E, the lcm of
the point denominators, X = E x at every point and Psi~(Z) = E^d psi(Z/E) =
prod (Z - X) on Gaussian integers (d = n + N).  It writes g and h once in
the same frame Z = E z, G / dg = E^(d-1) g(Z/E) and H / dh = E^(2d-2)
h(Z/E) with G and H Gaussian-integer and padded to degrees d - 1 and 2d - 2,
and stays on Gaussian integers from there.  Every Taylor head at a point is
plain repeated synthetic division by Z - X: the remainders Psi_k, G_k and
H_k are the coefficients in u = Z - X = E (z - x).  In Z the equation reads

    w'' + g~ w' + h~ w = 0,   g~ = G / (dg Psi),   h~ = H / (dh Psi^2),

the powers of E cancelling.  The residue of g~ and the order -2 coefficient
of h~ are those of g/psi and h/psi^2 in z - x; the order -1 coefficient of
h/psi^2, the recovered momentum, is E times h~'s, and the logarithm
obstruction is E^2 times its value in u.

At a finite point the indicial polynomial is r*(r-1) + g0*r + h0 where g0 is
the residue of g/psi and h0 the order -2 coefficient of h/psi^2.  At a root
of psi both are closed forms, g(t)/psi'(t) = G_0 / (dg Psi_1) and
h(t)/psi'(t)^2 = H_0 / (dh Psi_1^2): two synthetic divisions and psi's
slope, no series division.  At infinity, with x = 1/z, the indicial
polynomial is l*(l+1) - g0*l + h0, the standard convention, and as psi is
monic g0 and h0 are the top coefficients of g and h.

At an apparent point the power-series solution w = sum a_s x^s of

    w'' + (g/psi) w' + (h/psi^2) w = 0

obeys  s*(s-2) * a_s = - sum_{k<s} (k * g_{s-1-k} + h_{s-2-k}) * a_k,
a recursion whose left side vanishes at the resonance s = 2; the value the
right side takes there is the logarithm obstruction.  Its closed form
(g_0 + h_{-1}) * h_{-1} + h_0 is asserted against the recursion in the test
suite, which makes the equivalence an executable statement rather than a
remark.  The recursion runs fraction-free on Gaussian integers, since its
divisors are known in advance.  verify runs it on the equation with its
denominators cleared, divided by u: with U = Psi / u,

    dg dh Psi^2 w'' + dh Psi G w' + dg H w = u (A u w'' + B w' + C w),

A = dg dh U^2, B = dh U G and C = dg H / u, products of the raw heads.
verify multiplies all three by conj(Psi_1)^2, so that A_0 = dg dh
|Psi_1|^4 is a positive integer.  The coefficient of a_s in order s-1 is
then A_0 s (s-2), and no series is divided.

The truncated series is then substituted into the cleared equation on the
left, read off the raw heads.  The recursion reads the window products A, B
and C and the residual reads the raw heads, so a wrong product shows up in
the residual.  Both take their products from polynomials._product_sum, the
package's one product kernel.
"""

from __future__ import annotations

from math import gcd

from .model import ExponentPair, FuchsianEquation, _psi_ints
from .polynomials import _in_frame, _product_sum, _taylor_head_ints
from .scalars import ONE, GaussianRational, _Record, exact_quadratic_roots, from_gaussian_ints

#: Series depth of the recursion verify() runs.  Omega is read at s = 2; the
#: orders past it let the cleared residual re-check the window products: an
#: error at order 2 of B or C leaves omega alone, and only the residual sees it.
DEFAULT_DEPTH = 8


class Indicial(_Record):
    """Indicial data at a point: root sum and product, plus the explicit root
    pair whenever the discriminant is a Gaussian-rational square."""

    sum: GaussianRational
    product: GaussianRational
    pair: ExponentPair | None


def _indicial(root_sum: GaussianRational, root_product: GaussianRational) -> Indicial:
    """The root pair is exact_quadratic_roots of r^2 - sum r + product when
    they are Gaussian rationals; otherwise comparisons fall back to (sum,
    product), which for a quadratic determines the root multiset."""
    roots = exact_quadratic_roots(ONE, -root_sum, root_product)
    pair = ExponentPair(*roots) if roots else None
    return Indicial(sum=root_sum, product=root_product, pair=pair)


def _recursion(a: tuple, b: tuple, c: tuple) -> tuple:
    """The power-series recursion of A u w'' + B w' + C w = 0 at an apparent
    point, fraction-free on Gaussian integers: a, b and c are the windows of
    A, B and C from order 0 ((re, im) int lists), with A_0 a positive integer
    and B_0 = -A_0, so that the coefficient of a_s in order s-1 is A_0 s (s-2).
    The a_k share one denominator e, with a_0 = 1.  It stops at the resonance
    s = 2 when omega there is nonzero, and otherwise sets a_2 = 0 and runs on
    to s = top, the length of b and c; A is read against a_k with k > 2 only,
    so top - 2 terms of it suffice.

    Returns ((re, im, den) of omega, ar, ai, e) with a_k = (ar[k] + ai[k]*i)
    / e and omega = acc / (A_0 e) at s = 2, the resonance value of the
    equation divided by A_0.  Step s != 2 scales every a_k by the known
    divisor A_0 s (s-2), appends -acc and divides out the integer content.
    """
    (a_re, a_im), (b_re, b_im), (c_re, c_im) = a, b, c
    lead, top = a_re[0], len(b_re)
    ar, ai, e = [1], [0], 1
    omega = None
    for s in range(1, top + 1):
        # acc / e = sum_k (k (k-1) A_(s-k) + k B_(s-k) + C_(s-1-k)) * a_k
        acc_r, acc_i = 0, 0
        for k in range(s):
            if k == 2:  # a_2 = 0 past the resonance
                continue
            cr, ci = c_re[s - 1 - k], c_im[s - 1 - k]
            if k == 1:
                cr, ci = cr + b_re[s - 1], ci + b_im[s - 1]
            elif k:
                cr += k * (b_re[s - k] + (k - 1) * a_re[s - k])
                ci += k * (b_im[s - k] + (k - 1) * a_im[s - k])
            acc_r += cr * ar[k] - ci * ai[k]
            acc_i += cr * ai[k] + ci * ar[k]
        if s == 2:
            omega = (acc_r, acc_i, lead * e)
            if acc_r or acc_i:
                break
            ar.append(0)
            ai.append(0)
            continue
        # a_s = -acc / (A_0 s (s-2)): bring every a_k over e * A_0 * |s (s-2)|
        scale = lead * s * (s - 2)
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
    return omega, ar, ai, e


def _cleared_residual(p: tuple, g: tuple, h: tuple, w: tuple, weights: tuple) -> tuple:
    """Orders 0 .. K of a P^2 w'' + b P G w' + c H w, written P (a P w'' +
    b G w') + c H w, for Gaussian-integer windows from order 0 ((re, im) int
    lists): w of K + 1 terms, P and H read through order K, G through K - 1;
    weights = (a, b, c) are ints."""
    a, b, c = weights
    size = len(w[0])
    w1 = tuple([b * k * x for k, x in enumerate(part) if k] for part in w)
    w2 = tuple([a * k * (k - 1) * x for k, x in enumerate(part) if k > 1] for part in w)
    inner = _product_sum(size - 1, (p, w2), (g, w1))
    return _product_sum(size, (p, inner), (h, tuple([c * x for x in part] for part in w)))


class FinitePointReport(_Record):
    point: GaussianRational
    expected: ExponentPair
    indicial: Indicial
    match: bool


class InfinityReport(_Record):
    expected: ExponentPair
    indicial: Indicial
    match: bool


class ApparentPointReport(_Record):
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


class VerificationReport(_Record):
    finite: tuple
    apparent: tuple
    infinity: InfinityReport
    overall: bool


def verify(eq: FuchsianEquation) -> VerificationReport:
    """Check every prescribed condition of the instance against the equation.

    All comparisons are exact; failures are reported, never raised.
    """
    instance = eq.instance
    n, d = instance.n, instance.n + instance.num_apparent
    e, xr, xi, polys, scales = _frame(eq)

    finite_reports = []
    for (t, expected), a, b in zip(instance.finite_points, xr, xi):
        heads = _heads(polys, a, b, (2, 1, 1))
        residue, product = _pole_terms(scales, heads)
        ind = _indicial(1 - residue, product)
        match = ind.sum == expected.sum and ind.product == expected.product
        finite_reports.append(
            FinitePointReport(point=t, expected=expected, indicial=ind, match=match)
        )

    # psi is monic: g/psi and h/psi^2 lead with g's and h's top coefficients
    inf_ind = _indicial(eq.g.coefficient(d - 1) - 1, eq.h.coefficient(2 * d - 2))
    expected_inf = instance.infinity_exponents
    infinity_report = InfinityReport(
        expected=expected_inf,
        indicial=inf_ind,
        match=inf_ind.sum == expected_inf.sum and inf_ind.product == expected_inf.product,
    )

    two = GaussianRational(2)
    depth = DEFAULT_DEPTH
    apparent_reports = []
    for (q, p), a, b in zip(instance.apparent_points, xr[n:], xi[n:]):
        heads = _heads(polys, a, b, (depth + 1, depth, depth + 1))
        residue, product = _pole_terms(scales, heads)
        residue_ok = residue == GaussianRational(-1)
        double_pole_absent = not product
        ind = _indicial(1 - residue, product)
        indicial_ok = ind.sum == two and not ind.product
        recovered = _momentum(scales, e, heads)
        momentum_ok = recovered == p
        obstruction = None
        log_free = False
        residual_ok = False
        if residue_ok and double_pole_absent:
            obstruction, residual_ok = _log_free_check(scales, e, heads)
            log_free = not obstruction
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


def _frame(eq: FuchsianEquation) -> tuple:
    """(E, xr, xi, polys, (dg, dh)): the instance's point frame from
    model._psi_ints, E and X = E x = xr[k] + xi[k]*i at each point, finite
    ones first, and polys = (Psi~, G, H) as Gaussian-integer (re, im) int
    lists with G / dg = E^(d-1) g(Z/E) and H / dh = E^(2d-2) h(Z/E), g and h
    padded to the degrees d - 1 and 2d - 2 (d = n + N) that the heads assume."""
    d = eq.instance.n + eq.instance.num_apparent
    e, xr, xi, psi_ints = _psi_ints(eq.instance)
    (dg, *g_ints), (dh, *h_ints) = [
        _in_frame(f.padded(size), e) for f, size in ((eq.g, d), (eq.h, 2 * d - 1))
    ]
    return e, xr, xi, (psi_ints, g_ints, h_ints), (dg, dh)


def _heads(polys: tuple, a: int, b: int, sizes: tuple) -> list:
    """For each Gaussian-integer polynomial of polys ((re, im) int lists) its
    first sizes[k] Taylor coefficients at X = a + b*i: the coefficients in
    u = Z - X = E (z - x), without the quotient _taylor_head_ints returns
    past them."""
    heads = [_taylor_head_ints(re, im, a, b, size) for (re, im), size in zip(polys, sizes)]
    return [(re[:size], im[:size]) for (re, im), size in zip(heads, sizes)]


def _pole_terms(scales: tuple, heads: tuple) -> tuple:
    """Residue of g/psi and order -2 coefficient of h/psi^2 at a root of
    psi: G_0 / (dg c) and H_0 / (dh c^2), c = Psi_1.  Both are the same in u
    as in z - x."""
    dg, dh = scales
    (pr, pi), (gr, gi), (hr, hi) = heads
    cr, ci = pr[1], pi[1]
    residue = from_gaussian_ints(gr[0], gi[0], dg * cr, dg * ci)
    product = from_gaussian_ints(hr[0], hi[0], dh * (cr * cr - ci * ci), 2 * dh * cr * ci)
    return residue, product


def _momentum(scales: tuple, e: int, heads: tuple) -> GaussianRational:
    """Order -1 coefficient of h/psi^2 at a root of psi: E times that of
    h~ = H / (dh u^2 U^2), U = Psi / u, which is (H_1 c - 2 H_0 U_1) /
    (dh c^3) with c = U_0."""
    _, dh = scales
    (pr, pi), _, (hr, hi) = heads
    cr, ci, ur, ui = pr[1], pi[1], pr[2], pi[2]
    nr = hr[1] * cr - hi[1] * ci - 2 * (hr[0] * ur - hi[0] * ui)
    ni = hr[1] * ci + hi[1] * cr - 2 * (hr[0] * ui + hi[0] * ur)
    sr, si = cr * cr - ci * ci, 2 * cr * ci
    return from_gaussian_ints(e * nr, e * ni, dh * (sr * cr - si * ci), dh * (sr * ci + si * cr))


def _log_free_check(scales: tuple, e: int, heads: tuple) -> tuple:
    """(omega, residual_ok) at a root of psi where g/psi has residue -1 and
    h/psi^2 no double pole (H_0 = 0).

    The recursion runs on A u w'' + B w' + C w with U = Psi / u, c = U_0 =
    Psi_1 and A = dg dh U^2, B = dh U G, C = dg H / u, all times conj(c)^2:
    window products of the raw heads, which no series divides, each as long
    as the recursion reads it (A depth - 2 terms, B and C depth).  Its a_k are
    the coefficients in u, omega in z - x is E^2 times its value in u, and
    the cleared residual dg dh Psi^2 w'' + dh Psi G w' + dg H w reads the
    a_k with the raw heads, so a wrong window product shows up there.
    """
    dg, dh = scales
    (pr, pi), g, (hr, hi) = heads
    depth = len(g[0])
    unit, cr, ci = (pr[1:], pi[1:]), pr[1], pi[1]
    sr, si = cr * cr - ci * ci, -2 * cr * ci  # conj(c)^2

    def scaled(x, window):  # x conj(c)^2 times the window
        xr, xi, terms = x * sr, x * si, list(zip(*window))
        return [xr * v - xi * w for v, w in terms], [xr * w + xi * v for v, w in terms]

    (wr, wi, wden), ar, ai, _ = _recursion(
        scaled(dg * dh, _product_sum(depth - 2, (unit, unit))),
        scaled(dh, _product_sum(depth, (unit, g))),
        scaled(dg, (hr[1:], hi[1:])),
    )
    omega = from_gaussian_ints(wr * e * e, wi * e * e, wden)
    if omega:
        return omega, False
    residual = _cleared_residual((pr, pi), g, (hr, hi), (ar, ai), (dg * dh, dh, dg))
    return omega, not any(residual[0]) and not any(residual[1])


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

