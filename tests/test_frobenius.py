"""Series verification: local data, indicial roots, the obstruction recursion."""

import random
from fractions import Fraction
from functools import partial

import fraction_reference as ref
from conftest import cleared_residual, recursion, reference_local
from test_golden import GOLDEN, _tampered_reports, digest

import fuchsian.frobenius
from fuchsian.builder import construct
from fuchsian.frobenius import report_to_json_obj, verify
from fuchsian.model import ExponentPair, FuchsianEquation, FuchsianInstance
from fuchsian.polynomials import Polynomial
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
    # residue of g/psi at 0 is G(0)/psi'(0) = -4/-1; verify reports it as the
    # indicial root sum 1 - residue, next to the order -2 coefficient of h/psi^2
    at_0 = verify(construct(EXAMPLE_A)).finite[0].indicial
    assert 1 - at_0.sum == gr(4)
    assert at_0.product == ZERO
    at_0_b = verify(construct(EXAMPLE_B)).finite[0].indicial
    assert 1 - at_0_b.sum == gr(1)


def test_indicial_examples():
    report = verify(construct(EXAMPLE_A))
    assert report.finite[0].indicial.pair == ExponentPair(0, -3)
    assert report.infinity.indicial.pair == ExponentPair(1, 2)
    report_c = verify(construct(EXAMPLE_C))
    assert report_c.apparent[0].indicial.pair == ExponentPair(0, 2)


def test_indicial_irrational_pair():
    # g = 0 and h = -1 on example A's points: at 0, g0 = 0 and h0 =
    # -1/psi'(0)^2 = -1, roots of r^2 - r - 1, the golden ratio pair
    report = verify(FuchsianEquation(Polynomial(), Polynomial((-1,)), EXAMPLE_A))
    ind = report.finite[0].indicial
    assert ind.pair is None
    assert ind.sum == gr(1) and ind.product == gr(-1)


def _apparent_local(g_coeffs, h_coeffs):
    """Apparent-shaped local data: g starts at order -1 with residue -1,
    h starts at order -1."""
    return ref.Local(
        g_series=ref.Window(gr(0), -1, (gr(-1),) + tuple(g_coeffs)),
        h_series=ref.Window(gr(0), -1, tuple(h_coeffs)),
    )


def test_obstruction_known_cases():
    # zero momentum, zero constant term
    omega, _ = recursion(_apparent_local([ZERO] * 8, [ZERO] * 8))
    assert omega == ZERO
    # g0 = 1, h(-1) = 1, h0 = -2: (1+1)*1 - 2 = 0
    omega, _ = recursion(_apparent_local([gr(1)] + [ZERO] * 7, [gr(1), gr(-2)] + [ZERO] * 6))
    assert omega == ZERO
    # g0 = 0, h(-1) = 1, h0 = 0: omega = 1, logarithmic
    omega, coeffs = recursion(_apparent_local([ZERO] * 8, [gr(1), ZERO] + [ZERO] * 6))
    assert omega == gr(1)
    assert coeffs == (gr(1), gr(1))  # a_1 = h_{-1} * a_0


def test_obstruction_shape_errors():
    # at q = 3 psi'(3) = 6: g + 18 moves the residue of g/psi from -1 to 2,
    # and h + 1 gives h/psi^2 a double pole
    eq = construct(EXAMPLE_C)
    assert verify(eq).apparent[0].obstruction == ZERO
    bad_residue = FuchsianEquation(ref.poly_add(eq.g, Polynomial((18,))), eq.h, EXAMPLE_C)
    assert verify(bad_residue).apparent[0].residue == gr(2)
    assert verify(bad_residue).apparent[0].obstruction is None
    bad_pole = FuchsianEquation(eq.g, ref.poly_add(eq.h, Polynomial((1,))), EXAMPLE_C)
    assert not verify(bad_pole).apparent[0].double_pole_absent
    assert verify(bad_pole).apparent[0].obstruction is None


def test_obstruction_closed_form_random(random_apparent_locals):
    # The recursion value at the resonance equals the closed form of the
    # logarithm-freeness criterion, on arbitrary apparent-shaped data.
    for local in random_apparent_locals:
        omega, _ = recursion(local)
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
    local = reference_local(eq, 3)
    omega, coeffs = recursion(local)
    assert omega == ZERO
    assert len(coeffs) == 9  # a_0 .. a_8 at default depth
    residual = cleared_residual(local, coeffs)
    assert len(residual) == 9  # cleared orders 0 .. 8
    assert all(not r for r in residual)


def test_series_solution_by_polynomial_substitution():
    # Fully independent route: plug the truncated series of the integer
    # recursion into psi^2 w'' + psi g w' + h w using plain polynomial
    # arithmetic (no series division); the residual must vanish at q to
    # order K+1.
    rng = random.Random(424242)
    instances = [EXAMPLE_C] + [
        random_instance(rng.randint(3, 5), seed=rng.randint(0, 10**6)) for _ in range(4)
    ]
    for inst in instances:
        eq = construct(inst)
        p = ref.psi(inst)
        square = ref.poly_mul(p, p)
        for q, _ in inst.apparent_points:
            omega, series = recursion(reference_local(eq, q))
            assert omega == ZERO
            depth = len(series) - 1
            w_local = Polynomial(series)  # in the coordinate x = z - q
            w = w_local.shift(-q)  # back to z
            residual = ref.poly_add(
                ref.poly_mul(square, ref.poly_derivative(w, 2)),
                ref.poly_mul(ref.poly_mul(p, eq.g), ref.poly_derivative(w)),
                ref.poly_mul(eq.h, w),
            )
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


def test_cleared_residual_catches_a_wrong_window_product(monkeypatch):
    # A recursion window that is wrong at index 4 (order 4 of A = dg dh U^2,
    # B = dh U G or C = dg H / u at an apparent point) leaves residue, double
    # pole, momentum and omega alone, and the recursion reads the wrong window
    # consistently; only the residual, which reads the raw heads, can see it.
    run = fuchsian.frobenius._recursion

    def wrong(index, *windows):
        windows = list(windows)
        re, im = windows[index]
        windows[index] = (re[:4] + [re[4] + 1] + re[5:], im)
        return run(*windows)

    rng = random.Random(8128)
    equations = []
    for n in (4, 5, 6):
        inst = random_instance(n, seed=rng.randint(0, 10**6))
        if n == 5:
            inst = inst.shifted(gr(1, -2))
        equations.append(construct(inst))
    for index in range(3):
        monkeypatch.setattr(fuchsian.frobenius, "_recursion", partial(wrong, index))
        checked = 0
        for eq in equations:
            report = verify(eq)
            assert all(r.match for r in report.finite) and report.infinity.match
            for r in report.apparent:
                assert r.residue_ok and r.double_pole_absent and r.momentum_ok and r.log_free
                assert not r.residual_ok, (index, r.point)
                checked += 1
        assert checked == 2 + 3 + 4


def test_report_bytes_are_pinned():
    # verify's reports on seeded equations with g or h tampered; the digest is
    # pinned in test_golden's table, whose printer shows it with the others
    assert digest(_tampered_reports()) == GOLDEN["tampered_reports"]
