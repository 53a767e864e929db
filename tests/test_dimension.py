"""General apparent-point counts: classification, free parameters, constraints."""

import copy
import math
import random
from fractions import Fraction

import elimination_reference as ref
import pytest
from hypothesis import given, settings
from strategies import (
    SingularMove,
    consistent,
    domain_draws,
    layout_instances,
    regime_instances,
    violating_over,
)

import fuchsian.builder
import fuchsian.dimension
import fuchsian.linalg
from fuchsian.builder import (
    FuchsViolation,
    VerificationFailed,
    build_h_system,
    construct,
    fredholm_terms,
    fredholm_values,
    h_matrix,
    h_rhs_terms,
    solve_g,
    solve_h,
)
from fuchsian.dimension import (
    check_momenta,
    classify,
    exact_quadratic_roots,
    float_obstructions,
    quadratic_constraints,
    solve_quadratic_float,
    solve_under,
)
from fuchsian.frobenius import verify
from fuchsian.linalg import Matrix, eliminate
from fuchsian.model import FuchsianEquation, FuchsianInstance, fuchs_defect
from fuchsian.polynomials import Polynomial
from fuchsian.sampling import random_instance
from fuchsian.scalars import ONE, ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


N2N1 = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 3)])
# n=3, N=0 with admissible exponent sum 2 = n - N - 1
UNDER3 = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (2, (0, 2))], (-1, -1))


def test_classify_cases():
    square = classify(random_instance(4, 2, seed=1))
    assert (square.case, square.total_dimension) == ("square", 2)
    under = classify(random_instance(4, 1, seed=1))
    assert (under.case, under.h_free_dim, under.total_dimension) == ("under", 1, 2)
    over = classify(N2N1)
    assert (over.case, over.constraint_count, over.total_dimension) == ("over", 1, 0)


def test_classify_json_shape():
    obj = classify(N2N1).to_json_obj()
    assert obj == {
        "n": 2,
        "N": 1,
        "case": "over",
        "h_free_dim": 0,
        "constraint_count": 1,
        "total_dimension": 0,
    }


def test_solve_under_free_values():
    eq0 = solve_under(UNDER3, [0])
    eq1 = solve_under(UNDER3, [1])
    assert eq0.h != eq1.h
    assert verify(eq0).overall and verify(eq1).overall
    # the free value is the coefficient of z^(n+3N) = z^3; the infinity row
    # fixes the top coefficient, so it can never be the free one
    assert eq0.h.coefficient(3) == ZERO
    assert eq1.h.coefficient(3) == gr(1)
    # solve_h takes ints and Fractions as free values, as GaussianRational does
    assert solve_h(UNDER3, [1]) == solve_h(UNDER3, [Fraction(2, 2)]) == eq1.h
    with pytest.raises(ValueError):
        solve_under(UNDER3, [0, 0])
    with pytest.raises(ValueError):
        solve_under(random_instance(3, seed=2), [0])
    with pytest.raises(ValueError):
        solve_under(N2N1, [])


def test_under_nullspace_dimension():
    g = solve_g(UNDER3)
    matrix, rhs = build_h_system(UNDER3, g)
    outcome = eliminate(matrix, rhs)
    assert outcome.kind == "underdetermined"
    assert len(outcome.nullspace_basis) == 1  # n - 2 - N


def test_quadratic_constraint_n2n1():
    constraints = quadratic_constraints(N2N1)
    assert len(constraints) == 1
    c = constraints[0]
    assert c.j == 1
    assert c.quad[1] == h_rhs_terms(N2N1)[-1][3] == gr(-8)  # delta_1
    assert set(c.float_roots()) == {1 + 0j, 0.5 + 0j}  # only p_1 appears
    assert (c.lin, c.const_term) == ({1: gr(12)}, gr(-4))
    # the value at the instance momentum p=3: -8*9 + 12*3 - 4 = -40
    assert fredholm_values(N2N1, [gr(3)]) == ((1, gr(-40)),)


def test_constraints_momentum_independent():
    other = copy.copy(N2N1.with_momenta([gr(7, 2)]))  # its own memo: b is built afresh
    a = quadratic_constraints(N2N1)
    b = quadratic_constraints(other)
    assert [(c.j, c.quad, c.lin, c.const_term) for c in a] == [
        (c.j, c.quad, c.lin, c.const_term) for c in b
    ]


def test_constraint_records_do_not_share_the_memo():
    # the records are written afresh from the kept terms on every call, so
    # editing one leaves the next call, and the terms, as they were
    inst = copy.copy(N2N1)
    first = quadratic_constraints(inst)
    want = [c.to_json_obj() for c in first]
    terms = fredholm_terms(inst)
    first[0].quad[1] = gr(5)
    first[0].lin.clear()
    first[0].quad[2] = gr(1)
    assert [c.to_json_obj() for c in quadratic_constraints(inst)] == want
    assert fredholm_terms(inst) is terms
    check_momenta(inst)
    float_obstructions(inst, [1.0])
    assert fredholm_terms(inst) is terms


def _assert_constraint_shape(inst):
    """One constraint per dependent row, j = n - 1 .. N, whose p_k^2 terms
    are those of the free momenta k <= n - 2 and of its own p_j, with p_j^2's
    coefficient delta_j = -2 psi'(q_j)^2 exactly."""
    n, num = inst.n, inst.num_apparent
    constraints = quadratic_constraints(inst)
    assert [c.j for c in constraints] == list(range(n - 1, num + 1))
    points = inst.finite_positions + inst.apparent_positions
    for c in constraints:
        assert set(c.quad) <= set(range(1, n - 1)) | {c.j}, c.j
        q, slope = inst.apparent_positions[c.j - 1], ONE
        for x in points:
            if x != q:
                slope *= q - x
        assert c.quad[c.j] == -2 * slope * slope, c.j


def test_constraint_counts_random():
    rng = random.Random(8191)
    for n in (2, 3, 4):
        for num in range(n - 1, n + 2):
            _assert_constraint_shape(random_instance(n, num, seed=rng.randint(0, 10**6)))


@settings(max_examples=40, deadline=None)
@given(domain_draws().filter(lambda draw: draw[0].num_apparent > draw[0].n - 2))
def test_constraint_shape_over_the_whole_domain(draw):
    # Gaussian positions, 0 among them, denominators up to 10^12
    _assert_constraint_shape(draw[0])


def test_the_move_makes_every_shape_consistent():
    # n = 2..6 and N = n - 1 .. 2n - 2, every other draw at Gaussian
    # positions, momenta as drawn: the move keeps positions and momenta and
    # the exponent sum, and check_momenta finds the result consistent with a
    # witness that verifies.  A singular system raises SingularMove here.
    for n in range(2, 7):
        for num in range(n - 1, 2 * n - 1):
            for seed in range(4):
                base = random_instance(n, num, seed=seed)
                if seed % 2:
                    base = base.shifted(gr(1, 2))
                inst = consistent(base)
                assert inst.apparent_points == base.apparent_points
                assert inst.finite_positions == base.finite_positions
                assert fuchs_defect(inst) == ZERO
                result = check_momenta(inst)
                assert result.consistent, (n, num, seed)
                assert verify(result.equation).overall, (n, num, seed)


def test_a_singular_move_raises():
    # p = 0, and the second exponents at t_1 and at infinity are 0: no
    # exponent product moves with x_1 and g enters only times p, so the
    # constraint's value 8 cannot move
    inst = FuchsianInstance([(0, (1, 0)), (1, (2, -1))], (-2, 0), [(2, 0)])
    assert fredholm_values(inst, inst.momenta) == ((1, gr(8)),)
    with pytest.raises(SingularMove, match="singular"):
        consistent(inst)


def test_check_momenta_paths():
    bad = check_momenta(N2N1)
    assert not bad.consistent
    assert bad.violations == ((1, gr(-40)),)

    constraints = quadratic_constraints(N2N1)
    c = constraints[0]
    roots = exact_quadratic_roots(c.quad[1], c.lin.get(1, ZERO), c.const_term)
    assert roots is not None
    assert set(roots) == {gr(1), gr(Fraction(1, 2))}
    good = check_momenta(N2N1.with_momenta([roots[0]]))
    assert good.consistent
    assert verify(good.equation).overall
    # perturbing a consistent momentum breaks it again
    worse = check_momenta(N2N1.with_momenta([roots[0] + 1]))
    assert not worse.consistent


def test_each_call_eliminates_once_per_system(monkeypatch):
    # g and h are closed forms, and the over case reads its constraints off
    # the closed-form left nullspace: no solver eliminates, check_momenta
    # builds no h-matrix, it builds the right-hand-side terms once for both
    # its violations and its witness, and it builds h only as the witness
    # of consistent momenta.  Every call gets a fresh copy of its instance,
    # whose memo is empty, so the counted work really runs.
    originals = {
        "eliminate": eliminate,
        "h_matrix": h_matrix,
        "_rhs_terms": fuchsian.builder._rhs_terms,
        "solve_h": solve_h,
    }
    calls = {name: [] for name in originals}

    def counting(name):
        def wrapper(*args):
            calls[name].append(args)
            return originals[name](*args)

        return wrapper

    for module in (fuchsian.linalg, fuchsian.builder, fuchsian.dimension):
        for name in originals:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))

    def count(fn, *args, name="eliminate"):
        for log in calls.values():
            log.clear()
        fn(*args)
        return len(calls[name])

    assert count(construct, random_instance(4, 2, seed=3)) == 0
    assert count(solve_under, copy.copy(UNDER3), [1]) == 0
    assert count(quadratic_constraints, copy.copy(N2N1)) == 0
    assert count(float_obstructions, copy.copy(N2N1), [1.0]) == 0
    for inst, witnesses in ((N2N1, 0), (N2N1.with_momenta([gr(1)]), 1)):  # violating, consistent
        assert count(check_momenta, copy.copy(inst)) == 0
        assert count(check_momenta, copy.copy(inst), name="h_matrix") == 0
        assert count(check_momenta, copy.copy(inst), name="_rhs_terms") == 1
        assert count(check_momenta, copy.copy(inst), name="solve_h") == witnesses
    assert check_momenta(N2N1.with_momenta([gr(1)])).consistent


def test_zero_exponent_over_instance_admits_zero_momentum():
    # All exponent products vanish, so h = 0 with p = 0 must be a solution;
    # the constraint then has 0 as an exact root.
    inst = FuchsianInstance([(0, (0, 2)), (1, (0, -2))], (0, 0), [(3, 0)])
    report = classify(inst)
    assert report.case == "over"
    (constraint,) = quadratic_constraints(inst)
    assert constraint.const_term == ZERO
    assert fredholm_values(inst, [ZERO]) == ((1, ZERO),)
    result = check_momenta(inst)
    assert result.consistent
    assert result.equation.h.is_zero
    assert verify(result.equation).overall
    # consistent already, so the move is x = 0
    assert consistent(inst) is inst


def test_solve_quadratic_float_examples():
    assert set(solve_quadratic_float(1, -3, 2)) == {1 + 0j, 2 + 0j}
    roots = solve_quadratic_float(1, 0, 1)
    assert sorted((r.real, r.imag) for r in roots) == [(0.0, -1.0), (0.0, 1.0)]
    assert set(solve_quadratic_float(2, -2, 0)) == {0j, 1 + 0j}
    assert solve_quadratic_float(3, 0, 0) == (0j, 0j)  # no 0 / 0 for the second root
    with pytest.raises(ZeroDivisionError):
        solve_quadratic_float(0, 1, 1)


def test_exact_quadratic_roots():
    assert set(exact_quadratic_roots(1, -3, 2)) == {gr(1), gr(2)}
    assert exact_quadratic_roots(1, 0, -2) is None
    with pytest.raises(ZeroDivisionError):
        exact_quadratic_roots(0, 1, 1)


def test_float_roots_give_small_obstruction():
    rng = random.Random(555)
    for _ in range(4):
        inst = random_instance(2, 1, seed=rng.randint(0, 10**6))
        (c,) = quadratic_constraints(inst)
        roots = c.float_roots()
        assert roots is not None
        for root in roots:
            (omega,) = float_obstructions(inst, [root])
            assert abs(omega) < 1e-9


def test_float_roots_are_the_unscaled_recipe_bit_for_bit():
    # Away from underflow the power-of-two scaling commutes with every float
    # operation, so the roots equal those of the unscaled coefficients.
    positions = set()
    for case, inst, _ in regime_instances(3535, 240):
        if case != "over" or (inst.n, inst.num_apparent) != (2, 1):
            continue
        (c,) = quadratic_constraints(inst)
        coeffs = (c.quad[1], c.lin.get(1, ZERO), c.const_term)
        recipe = solve_quadratic_float(*(v.to_complex() for v in coeffs))
        assert repr(c.float_roots()) == repr(recipe)
        positions.add(any(x.im for x in inst.finite_positions))
    assert positions == {False, True}  # real and Gaussian positions


def test_constraints_equivalent_to_full_system_consistency():
    # The constraints must capture solvability exactly: at the momenta, the
    # nonzero constraint values are check_momenta's violations, and there
    # are none iff eliminating the full overdetermined system is consistent,
    # its solution being check_momenta's witness and solve_h's result.
    over = [inst for case, inst, _ in regime_instances(2468, 120) if case == "over"]
    over += violating_over(2469, 56)
    layouts = list(layout_instances(2468, 120))[96:]  # apparent points on the imaginary axis
    over += [inst for inst in layouts if inst.num_apparent > inst.n - 2]
    seen = {True: 0, False: 0}
    for k, inst in enumerate(over):
        g = solve_g(inst)
        full = eliminate(*build_h_system(inst, g))
        consistent = full.kind != "inconsistent"
        seen[consistent] += 1
        values = fredholm_values(inst, inst.momenta)
        assert [j for j, _ in values] == [c.j for c in quadratic_constraints(inst)], k
        result = check_momenta(inst)
        assert result.violations == tuple((j, v) for j, v in values if v), k
        assert result.consistent == consistent, k
        if consistent:
            assert result.equation.h == Polynomial(full.particular), k
            assert solve_h(inst) == result.equation.h, k
        else:
            with pytest.raises(VerificationFailed, match="inconsistent"):
                solve_h(inst)
    assert seen[True] >= 40 and seen[False] >= 60, seen


def test_rank_formula_small_sweep():
    rng = random.Random(777)
    for n in (2, 3, 4, 5):
        for num in range(0, n + 1):
            inst = random_instance(n, num, seed=rng.randint(0, 10**6))
            expected = min(2 * n + 2 * num - 1, n + 3 * num + 1)
            matrix = h_matrix(inst)
            assert eliminate(matrix, [ZERO] * matrix.rows).rank == expected


def test_constraint_json_shape():
    (c,) = quadratic_constraints(N2N1)
    assert c.to_json_obj() == {
        "j": 1,
        "quad": {"1": ["-8", "0"]},
        "lin": {"1": ["12", "0"]},
        "const": ["-4", "0"],
    }


def test_leading_block_is_regular_and_the_rest_depends_on_it():
    # With N >= n - 2 the first 2(n + N) - 1 rows (infinity, every value, every
    # first derivative, second derivatives at q_1 .. q_(n-2)) are Hermite data
    # on distinct nodes, so they are independent, and the homogeneous
    # elimination leaves exactly the remaining second-derivative rows
    # dependent.  builder.solve_h interpolates that block; builder.fredholm_terms
    # sums one left-nullspace vector per remaining row against the right-hand
    # side, and quadratic_constraints gives one constraint per vector.
    for inst in layout_instances(4242, 120):
        matrix = h_matrix(inst)
        size = matrix.cols
        block = Matrix(size, size, matrix.entries[: size * size])
        assert eliminate(block, (ZERO,) * size).kind == "unique"
        full = eliminate(matrix, (ZERO,) * matrix.rows)
        dependent = [r for r in range(matrix.rows) if r not in full.pivot_rows]
        assert dependent == list(range(size, matrix.rows))
        assert [matrix.row(r) for r in dependent] == [
            tuple(k * (k - 1) * q ** (k - 2) if k > 1 else ZERO for k in range(size))
            for q in inst.apparent_positions[inst.n - 2 :]
        ]


def test_float_obstructions_equal_scaled_constraints():
    # At the momenta's exact binary values, omega_j is the obstruction verify
    # reports at q_j on the leading block's interpolant (solve_h's where the
    # momenta are consistent, the elimination oracle's elsewhere): 0 where
    # q_j's second-derivative row is in the leading block and C_j(p) /
    # delta_j elsewhere.
    rng = random.Random(9090)
    for inst in layout_instances(3131, 64):
        momenta = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in inst.momenta]
        exact = inst.with_momenta([gr(Fraction(p.real), Fraction(p.imag)) for p in momenta])
        g = solve_g(exact)
        h, residuals = ref.h_residuals(exact, g)
        if not any(value for _, value in residuals):
            h = solve_h(exact)
        report = verify(FuchsianEquation(g, h, exact))
        expected = [r.obstruction.to_complex() for r in report.apparent]
        scaled = [0j] * inst.num_apparent
        if classify(exact).case == "over":
            values = dict(fredholm_values(exact, exact.momenta))
            for c in quadratic_constraints(exact):
                delta = c.quad[c.j]
                scaled[c.j - 1] = (values[c.j] / delta).to_complex()
        assert scaled == expected
        assert float_obstructions(inst, momenta) == expected


def test_float_obstructions_vanish_exactly_when_log_free():
    square = random_instance(4, seed=3)
    assert float_obstructions(square, [p.to_complex() for p in square.momenta]) == [0j, 0j]
    # strategies.consistent keeps the momenta, so over instances made
    # consistent at binary-fraction momenta, which floats carry exactly, have
    # every constraint vanish, and so must every omega_j = C_j / delta_j.
    rng = random.Random(77)
    for inst in violating_over(77, 40):
        if inst.num_apparent > 2 * inst.n - 2:
            continue
        binary = [gr(Fraction(rng.randint(-8, 8), 4), rng.randint(-2, 2)) for _ in inst.momenta]
        inst = consistent(inst.with_momenta(binary))
        momenta = [p.to_complex() for p in inst.momenta]
        assert float_obstructions(inst, momenta) == [0j] * inst.num_apparent


def test_float_obstructions_rejects_what_has_no_leading_block():
    with pytest.raises(ValueError):
        float_obstructions(UNDER3, [])
    with pytest.raises(ValueError):
        float_obstructions(random_instance(4, 1, seed=5), [1.0])
    for bad in (math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1)):
        with pytest.raises(ValueError):
            float_obstructions(N2N1, [bad])
    with pytest.raises(ValueError):
        float_obstructions(N2N1, [1.0, 2.0])
    # an inadmissible exponent sum is solve_g's FuchsViolation, square or over
    square = random_instance(4, 2, seed=1)
    for inst in (square, N2N1):
        (t, pair), *rest = inst.finite_points
        bumped = [(t, (pair.rho1 + 1, pair.rho2)), *rest]
        inst = FuchsianInstance(bumped, inst.infinity_exponents, inst.apparent_points)
        with pytest.raises(FuchsViolation) as expected:
            solve_g(inst)
        with pytest.raises(FuchsViolation) as got:
            float_obstructions(inst, [1.0] * inst.num_apparent)
        assert str(got.value) == str(expected.value)
    # the constraints and their check exist in the over case only
    for inst in (UNDER3, random_instance(4, 2, seed=1)):
        for fn in (quadratic_constraints, check_momenta):
            with pytest.raises(ValueError, match="not overdetermined"):
                fn(inst)


def test_float_obstructions_read_the_constraints_alone(monkeypatch):
    # the obstructions are the constraints' values, so no h is built and
    # nothing is verified: the right-hand-side terms are built once and the
    # constraints read once per over instance, neither for a square one;
    # N2N1 is copied so that its memo is empty
    calls = {"fredholm_terms": [], "_rhs_terms": []}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    def forbidden(*args):
        raise AssertionError("float_obstructions built h or verified it")

    counting(fuchsian.dimension, "fredholm_terms")
    counting(fuchsian.builder, "_rhs_terms")
    for name in ("solve_h", "verify"):
        monkeypatch.setattr(fuchsian.dimension, name, forbidden)
    monkeypatch.setattr(fuchsian.builder, "solve_h", forbidden)
    for inst, reads in (
        (copy.copy(N2N1), 1),
        (random_instance(4, 3, seed=8), 1),
        (random_instance(5, 3, seed=2), 0),
        (random_instance(3, 4, seed=4), 1),
    ):
        omegas = float_obstructions(inst, [1.0] * inst.num_apparent)
        assert len(omegas) == inst.num_apparent
        assert [len(log) for log in calls.values()] == [reads, reads]
        for log in calls.values():
            log.clear()


def _same_as_elimination(inst, free=()):
    """Assert that the constraints' values at the momenta, h where they all
    vanish, and the constraints equal those of the elimination oracle; True
    when inst is consistent."""
    h, residuals = ref.h_residuals(inst, solve_g(inst), free)
    assert fredholm_values(inst, inst.momenta) == residuals
    consistent = not any(value for _, value in residuals)
    if consistent:
        assert solve_h(inst, free) == h
    else:
        with pytest.raises(VerificationFailed, match="h-system is inconsistent"):
            solve_h(inst, free)
    if inst.num_apparent > inst.n - 2:
        got = [c.to_json_obj() for c in quadratic_constraints(inst)]
        assert got == [c.to_json_obj() for c in ref.quadratic_constraints(inst)]
    return consistent


def test_closed_form_matches_elimination_oracle():
    # 330 instances: square, under with free values and consistent over from
    # the regime generator; violating over ones with N = n - 1 .. n + 3, half
    # Gaussian-shifted; and all five layouts with N = n - 2 .. n + 3, n = 2
    # included.
    count = 0
    for case, inst, free in regime_instances(8080, 150):
        assert _same_as_elimination(inst, free), case
        count += 1
    for k, inst in enumerate(violating_over(8081, 60)):
        assert not _same_as_elimination(inst), k
        count += 1
    for inst in layout_instances(8082, 120):
        _same_as_elimination(inst)
        count += 1
    assert count == 330


@settings(max_examples=30, deadline=None)
@given(domain_draws())
def test_closed_form_over_the_whole_domain(draw):
    # Every draw agrees with elimination.  Square and under equations pass
    # verification; an over draw with N = n - 1 is also made consistent
    # (strategies.consistent keeps its positions and momenta), and its
    # witness passes.  test_the_move_makes_every_shape_consistent covers larger N.
    inst, free = draw
    case = classify(inst).case
    _same_as_elimination(inst, free)
    if case == "over" and inst.num_apparent == inst.n - 1:
        inst, case = consistent(inst), "consistent over"
        assert _same_as_elimination(inst)
    if case == "square":
        assert verify(construct(inst)).overall
    elif case == "under":
        assert verify(solve_under(inst, free)).overall
    elif case == "consistent over":
        assert check_momenta(inst).consistent  # which verifies its witness


@settings(max_examples=30, deadline=None)
@given(domain_draws())
def test_indicial_pairs_are_the_prescribed_ones_over_the_whole_domain(draw):
    # verify reads every pair back from the equation, at a finite point or
    # infinity whose pair domain_draws made equal too (discriminant 0); over
    # draws with N = n - 1 are made consistent first, as above.
    inst, free = draw
    case = classify(inst).case
    if case == "square":
        eq = construct(inst)
    elif case == "under":
        eq = solve_under(inst, free)
    elif inst.num_apparent == inst.n - 1:
        try:
            eq = check_momenta(consistent(inst)).equation
        except SingularMove:
            return
    else:
        return
    report = verify(eq)
    pairs = [r.indicial.pair for r in report.finite] + [report.infinity.indicial.pair]
    expected = [pair for _, pair in eq.instance.finite_points]
    assert pairs == expected + [eq.instance.infinity_exponents]
