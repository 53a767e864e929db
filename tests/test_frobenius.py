"""Series verification: local data, indicial roots, the obstruction recursion."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

import fuchsian.frobenius
from fuchsian.builder import construct, solve_g, solve_h
from fuchsian.frobenius import (
    DEFAULT_DEPTH,
    LocalExpansion,
    frobenius_obstruction,
    indicial_roots,
    local_expansion,
    report_to_json_obj,
    series_residual,
    verify,
)
from fuchsian.model import INFINITY, ExponentPair, FuchsianEquation, FuchsianInstance, psi
from fuchsian.polynomials import LaurentSeries, Polynomial, laurent_expand
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


EXAMPLE_A = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 2))
EXAMPLE_B = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 1))
EXAMPLE_C = FuchsianInstance(
    [(0, (0, 1)), (1, (0, 1)), (2, (0, 1))], (-1, -1), [(3, 0)]
)


def test_local_expansion_example_a():
    eq = construct(EXAMPLE_A)
    local = local_expansion(eq, 0)
    assert local.g_series.coefficient(-1) == gr(4)  # G(0)/psi'(0) = -4/-1
    assert local.h_series.coefficient(-2) == ZERO
    local_b = local_expansion(construct(EXAMPLE_B), 0)
    assert local_b.g_series.coefficient(-1) == gr(1)


def test_indicial_examples():
    eq = construct(EXAMPLE_A)
    ind0 = indicial_roots(local_expansion(eq, 0))
    assert ind0.pair == ExponentPair(0, -3)
    ind_inf = indicial_roots(local_expansion(eq, INFINITY))
    assert ind_inf.pair == ExponentPair(1, 2)
    eq_c = construct(EXAMPLE_C)
    ind_q = indicial_roots(local_expansion(eq_c, 3))
    assert ind_q.pair == ExponentPair(0, 2)


def test_indicial_irrational_pair():
    # g0 = 0, h0 = -1: roots of r^2 - r - 1, the golden ratio pair
    local = LocalExpansion(
        point=gr(0),
        g_series=LaurentSeries(gr(0), -1, (ZERO, ZERO, ZERO)),
        h_series=LaurentSeries(gr(0), -2, (gr(-1), ZERO, ZERO)),
    )
    ind = indicial_roots(local)
    assert ind.pair is None
    assert ind.sum == gr(1) and ind.product == gr(-1)


def _apparent_local(g_coeffs, h_coeffs):
    """Apparent-shaped local data: g starts at order -1 with residue -1,
    h starts at order -1."""
    return LocalExpansion(
        point=gr(0),
        g_series=LaurentSeries(gr(0), -1, (gr(-1),) + tuple(g_coeffs)),
        h_series=LaurentSeries(gr(0), -1, tuple(h_coeffs)),
    )


def test_obstruction_known_cases():
    # zero momentum, zero constant term
    omega, _ = frobenius_obstruction(_apparent_local([ZERO] * 8, [ZERO] * 8))
    assert omega == ZERO
    # g0 = 1, h(-1) = 1, h0 = -2: (1+1)*1 - 2 = 0
    omega, _ = frobenius_obstruction(
        _apparent_local([gr(1)] + [ZERO] * 7, [gr(1), gr(-2)] + [ZERO] * 6)
    )
    assert omega == ZERO
    # g0 = 0, h(-1) = 1, h0 = 0: omega = 1, logarithmic
    omega, coeffs = frobenius_obstruction(
        _apparent_local([ZERO] * 8, [gr(1), ZERO] + [ZERO] * 6)
    )
    assert omega == gr(1)
    assert coeffs == (gr(1), gr(1))  # a_1 = h_{-1} * a_0


def test_obstruction_shape_errors():
    bad_residue = LocalExpansion(
        point=gr(0),
        g_series=LaurentSeries(gr(0), -1, (gr(2), ZERO, ZERO)),
        h_series=LaurentSeries(gr(0), -1, (ZERO, ZERO, ZERO)),
    )
    with pytest.raises(ValueError):
        frobenius_obstruction(bad_residue)
    bad_pole = LocalExpansion(
        point=gr(0),
        g_series=LaurentSeries(gr(0), -1, (gr(-1), ZERO, ZERO)),
        h_series=LaurentSeries(gr(0), -2, (gr(1), ZERO, ZERO)),
    )
    with pytest.raises(ValueError):
        frobenius_obstruction(bad_pole)


def test_obstruction_closed_form_random(random_apparent_locals):
    # The recursion value at the resonance equals the closed form of the
    # logarithm-freeness criterion, on arbitrary apparent-shaped data.
    for local in random_apparent_locals:
        omega, _ = frobenius_obstruction(local)
        g0 = local.g_series.coefficient(0)
        hm1 = local.h_series.coefficient(-1)
        h0 = local.h_series.coefficient(0)
        assert omega == (g0 + hm1) * hm1 + h0


def test_verify_constructed_equations():
    for instance in (EXAMPLE_A, EXAMPLE_B, EXAMPLE_C):
        report = verify(construct(instance))
        assert report.overall
        for r in report.finite:
            assert r.match
        assert report.infinity.match
        for r in report.apparent:
            assert r.residue_ok and r.double_pole_absent and r.indicial_ok
            assert r.momentum_ok and r.log_free and r.residual_ok
            assert r.obstruction == ZERO


def test_verify_tampered_h():
    eq = construct(EXAMPLE_A)
    tampered = FuchsianEquation(eq.g, Polynomial((1, -2, 2)), EXAMPLE_A)
    report = verify(tampered)
    assert not report.overall
    # indicial product at t=0 becomes 1 instead of 0 * (-3) = 0
    assert not report.finite[0].match
    assert report.finite[0].indicial.product == gr(1)


def test_sensitivity_to_single_coefficient():
    rng = random.Random(31337)
    for _ in range(8):
        inst = random_instance(rng.randint(2, 5), seed=rng.randint(0, 10**6))
        eq = construct(inst)
        width = 2 * (inst.n + inst.num_apparent) - 1
        k = rng.randrange(width)
        bump = gr(rng.choice([1, -1]), rng.choice([0, 1]))
        coeffs = list(eq.h.padded(width))
        coeffs[k] = coeffs[k] + bump
        tampered = FuchsianEquation(eq.g, Polynomial(coeffs), inst)
        assert not verify(tampered).overall


def test_series_residual_zero_for_solutions():
    eq = construct(EXAMPLE_C)
    local = local_expansion(eq, 3)
    omega, coeffs = frobenius_obstruction(local)
    assert omega == ZERO
    assert len(coeffs) == 9  # a_0 .. a_8 at default depth
    residual = series_residual(local, coeffs)
    assert len(residual) == 9  # cleared orders 0 .. 8
    assert all(not r for r in residual)


def test_series_solution_by_polynomial_substitution():
    # Fully independent route: plug the truncated series into
    # psi^2 w'' + psi g w' + h w using plain polynomial arithmetic (no
    # Laurent machinery); the residual must vanish at q to order K+1.
    from fuchsian.model import psi as psi_of

    rng = random.Random(424242)
    instances = [EXAMPLE_C] + [
        random_instance(rng.randint(3, 5), seed=rng.randint(0, 10**6)) for _ in range(4)
    ]
    for inst in instances:
        eq = construct(inst)
        p = psi_of(inst)
        for q, _ in inst.apparent_points:
            local = local_expansion(eq, q)
            omega, series = frobenius_obstruction(local)
            assert omega == ZERO
            depth = len(series) - 1
            w_local = Polynomial(series)  # in the coordinate x = z - q
            w = w_local.shift(-q)  # back to z
            residual = p * p * w.derivative(2) + p * eq.g * w.derivative() + eq.h * w
            at_q = residual.shift(q)
            for order in range(depth + 1):
                assert at_q.coefficient(order) == ZERO


def test_report_json_stable_shape():
    report = verify(construct(EXAMPLE_C))
    obj = report_to_json_obj(report)
    assert list(obj) == ["finite", "infinity", "apparent", "overall"]
    assert obj["overall"] is True
    assert list(obj["apparent"][0]) == [
        "q",
        "residue",
        "residue_ok",
        "double_pole_absent",
        "indicial",
        "indicial_ok",
        "momentum_expected",
        "momentum_recovered",
        "momentum_ok",
        "obstruction",
        "log_free",
        "residual_ok",
    ]


def test_local_expansion_matches_generic_laurent(regime_instances):
    # Expanding psi once per point and squaring its truncated head must give
    # exactly the generic expansions of g/psi and h/psi^2, with the full
    # products psi*psi (and x^2 psi_rev^2 at infinity) as denominators, at
    # every point of P, Q and infinity, and on every sixth instance at an
    # ordinary point (Im 3 is off every position).
    terms = DEFAULT_DEPTH + 2
    x = Polynomial((0, 1))
    for k, (case, inst, free) in enumerate(regime_instances(4242, 102)):
        g = solve_g(inst)
        eq = FuchsianEquation(g, solve_h(inst, g, free), inst)
        p = psi(inst)
        points = [t for t, _ in inst.finite_points] + list(inst.apparent_positions)
        for point in points + [gr(Fraction(1, 2), 3)] * (k % 6 == 0):
            local = local_expansion(eq, point)
            assert local.g_series == laurent_expand(eq.g, p, point, terms), (case, point)
            assert local.h_series == laurent_expand(eq.h, p * p, point, terms), (case, point)
        d = inst.n + inst.num_apparent
        g_rev = Polynomial(tuple(reversed(eq.g.padded(d))))
        h_rev = Polynomial(tuple(reversed(eq.h.padded(2 * d - 1))))
        psi_rev = Polynomial(tuple(reversed(p.padded(d + 1))))
        local = local_expansion(eq, INFINITY)
        assert local.point is INFINITY
        assert local.g_series == laurent_expand(g_rev, x * psi_rev, 0, terms), case
        assert local.h_series == laurent_expand(h_rev, x * x * psi_rev * psi_rev, 0, terms), case


def test_cleared_residual_catches_a_wrong_series_division(monkeypatch):
    # A division that is wrong from index 4 on (order 3 of g/psi and
    # h/psi^2 at an apparent point, in verify's scaled coordinate) leaves
    # residue, double pole, momentum and omega alone, and the recursion reads
    # the wrong series consistently; only the residual, which never divides
    # series, can see it.
    divide = fuchsian.frobenius._unit_quotient

    def wrong(*windows):
        out_r, out_i = divide(*windows)
        if len(out_r) > 4:
            out_r[4] += 1
        return out_r, out_i

    monkeypatch.setattr(fuchsian.frobenius, "_unit_quotient", wrong)
    rng = random.Random(8128)
    checked = 0
    for n in (4, 5, 6):
        inst = random_instance(n, seed=rng.randint(0, 10**6))
        if n == 5:
            inst = inst.shifted(gr(1, -2))
        report = verify(construct(inst))
        assert all(r.match for r in report.finite) and report.infinity.match
        for r in report.apparent:
            assert r.residue_ok and r.double_pole_absent and r.momentum_ok and r.log_free
            assert not r.residual_ok, (n, r.point)
            checked += 1
    assert checked == 2 + 3 + 4


#: sha256 of the reports below: their bytes must not move when verify's
#: arithmetic changes.
REPORT_DIGEST = "367b2f0cef434a165d3c63b38354fdc82dd67f77abf8a639d6b31ee4e61aceda"


def test_report_bytes_are_pinned(regime_instances):
    # 30 seeded square/under/over equations, each also with g tampered (by
    # the product over the apparent points, so the residue stays -1 and the
    # recursion runs to a nonzero omega) and with h tampered, plus the
    # all-zero equation
    reports = []
    for case, inst, free in regime_instances(4711, 30):
        g = solve_g(inst)
        eq = FuchsianEquation(g, solve_h(inst, g, free), inst)
        q_prod = Polynomial.from_roots(inst.apparent_positions)
        for tampered in (
            eq,
            FuchsianEquation(eq.g + q_prod, eq.h, inst),
            FuchsianEquation(eq.g, eq.h + Polynomial((1, 0, 1)), inst),
        ):
            reports.append(report_to_json_obj(verify(tampered)))
    reports.append(
        report_to_json_obj(verify(FuchsianEquation(Polynomial(), Polynomial(), EXAMPLE_C)))
    )
    blob = json.dumps(reports, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_DIGEST
