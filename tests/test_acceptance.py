"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is oracle- or property-based at desk scale; tolerances are
exact equality except for the quarantined float checks of criterion 6, which
use the stated 1e-9 bound.
"""

import json
import random
import time
from fractions import Fraction

import fraction_reference as ref
from conftest import recursion

from fuchsian.builder import FuchsViolation, construct, h_matrix, solve_g
from fuchsian.cli import main
from fuchsian.dimension import (
    check_momenta,
    classify,
    exact_quadratic_roots,
    float_obstructions,
    quadratic_constraints,
    solve_quadratic_float,
)
from fuchsian.frobenius import verify
from fuchsian.linalg import det, eliminate
from fuchsian.model import FuchsianInstance, fuchs_defect, instance_to_json_obj
from fuchsian.polynomials import Polynomial
from fuchsian.sampling import random_instance
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def _outcome(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_hypergeometric_oracle():
    started = time.monotonic()
    example_a = FuchsianInstance([(0, (0, -3)), (1, (0, 1))], (1, 2))
    eq_a = construct(example_a)
    ok = eq_a.g == Polynomial((-4, 4)) and eq_a.h == Polynomial((0, -2, 2))
    example_b = FuchsianInstance([(0, (0, 0)), (1, (0, 0))], (0, 1))
    eq_b = construct(example_b)
    ok = ok and eq_b.g == Polynomial((-1, 2)) and eq_b.h.is_zero
    ok = ok and (time.monotonic() - started) < 1.0
    _outcome(1, "hypergeometric oracle", ok)


def test_criterion_2_construct_verify_round_trip():
    started = time.monotonic()
    count = 0
    ok = True
    for n in range(2, 8):
        for trial in range(17):
            instance = random_instance(n, seed=1000 * n + trial)
            eq = construct(instance)
            report = verify(eq)
            ok = ok and report.overall
            ok = ok and all(r.match for r in report.finite) and report.infinity.match
            for r in report.apparent:
                ok = ok and r.indicial_ok and r.residue_ok and r.double_pole_absent
                ok = ok and r.momentum_ok and r.obstruction == ZERO and r.residual_ok
            count += 1
    elapsed = time.monotonic() - started
    ok = ok and count >= 100 and elapsed < 60.0
    print(f"  criterion 2: {count} round trips in {elapsed:.1f}s")
    _outcome(2, "construct-verify round trip", ok)


def test_criterion_3_determinant_formula():
    ok = True
    for n in range(2, 7):
        ratios = set()
        for trial in range(5):
            instance = random_instance(n, seed=300 + 17 * n + trial)
            value = det(h_matrix(instance))
            ok = ok and bool(value)
            ts, qs = instance.finite_positions, instance.apparent_positions
            product = gr(1)
            for a in range(len(ts)):
                for b in range(a + 1, len(ts)):
                    product = product * (ts[a] - ts[b])
            for t in ts:
                for q in qs:
                    product = product * (t - q) ** 3
            for a in range(len(qs)):
                for b in range(a + 1, len(qs)):
                    product = product * (qs[a] - qs[b]) ** 9
            ratios.add(value / product)
        ok = ok and len(ratios) == 1
    _outcome(3, "determinant product formula", ok)


def test_criterion_4_redundancy_and_fuchs(tmp_path):
    rng = random.Random(4242)
    ok = True
    for case in range(20):
        n = rng.randint(2, 5)
        instance = random_instance(n, seed=5000 + case)
        delta = gr(rng.choice([1, -1, 2]), rng.choice([0, 1]))
        t0, pair0 = instance.finite_points[0]
        broken = FuchsianInstance(
            ((t0, (pair0.rho1 + delta, pair0.rho2)),) + instance.finite_points[1:],
            instance.infinity_exponents,
            instance.apparent_points,
        )
        ok = ok and bool(fuchs_defect(broken))
        try:
            solve_g(broken)
            ok = False
        except FuchsViolation:
            pass
        broken_path = tmp_path / f"broken{case}.json"
        broken_path.write_text(json.dumps(instance_to_json_obj(broken)), encoding="utf-8")
        sink = str(tmp_path / "out.json")
        ok = ok and main(["construct", "-i", str(broken_path), "-o", sink]) == 2
        # restore admissibility by adjusting one exponent back
        repaired = FuchsianInstance(
            ((t0, (pair0.rho1, pair0.rho2)),) + broken.finite_points[1:],
            broken.infinity_exponents,
            broken.apparent_points,
        )
        ok = ok and not fuchs_defect(repaired)
        repaired_path = tmp_path / f"repaired{case}.json"
        repaired_path.write_text(
            json.dumps(instance_to_json_obj(repaired)), encoding="utf-8"
        )
        ok = ok and main(["construct", "-i", str(repaired_path), "-o", sink]) == 0
    _outcome(4, "redundancy tracks the exponent sum", ok)


def test_criterion_5_dimension_counts():
    started = time.monotonic()
    ok = True
    for n in range(2, 7):
        for num in range(0, n + 1):
            for trial in range(20):
                instance = random_instance(n, num, seed=9000 + 100 * n + 10 * num + trial)
                expected_rank = min(2 * n + 2 * num - 1, n + 3 * num + 1)
                matrix = h_matrix(instance)
                outcome = eliminate(matrix, (ZERO,) * matrix.rows)
                ok = ok and outcome.rank == expected_rank
                report = classify(instance)
                ok = ok and report.total_dimension == n - 2
                if num < n - 2:
                    ok = ok and len(outcome.nullspace_basis) == n - 2 - num
                    ok = ok and report.h_free_dim == n - 2 - num
                if num > n - 2 and trial < 5:
                    constraints = quadratic_constraints(instance)
                    ok = ok and len(constraints) == num - n + 2
                    ok = ok and report.constraint_count == num - n + 2
                    for c in constraints:
                        ok = ok and bool(c.quad.get(c.j))
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 120.0
    print(f"  criterion 5: sweep finished in {elapsed:.1f}s")
    _outcome(5, "dimension counts across cardinalities", ok)


def test_criterion_6_over_case_end_to_end():
    ok = True
    # float route on seeded instances
    for seed in (0, 1, 2):
        instance = random_instance(2, 1, seed=seed)
        (constraint,) = quadratic_constraints(instance)
        ok = ok and constraint.single_variable() and bool(constraint.quad.get(1))
        roots = solve_quadratic_float(
            constraint.quad[1].to_complex(),
            constraint.lin.get(1, ZERO).to_complex(),
            constraint.const_term.to_complex(),
        )
        for root in roots:
            (omega,) = float_obstructions(instance, [root])
            ok = ok and abs(omega) < 1e-9
    # exact route on the frozen seed whose constraint has Gaussian-rational roots
    instance = random_instance(2, 1, seed=130)
    (constraint,) = quadratic_constraints(instance)
    exact = exact_quadratic_roots(
        constraint.quad[1], constraint.lin.get(1, ZERO), constraint.const_term
    )
    ok = ok and exact is not None
    for root in exact:
        result = check_momenta(instance.with_momenta([root]))
        ok = ok and result.consistent
        ok = ok and verify(result.equation).overall
    _outcome(6, "overdetermined case end-to-end", ok)


def test_criterion_7_obstruction_closed_form():
    rng = random.Random(777_777)
    ok = True
    for _ in range(1000):
        g_tail = [
            gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-3, 3))
            for _ in range(6)
        ]
        h_window = [
            gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-3, 3))
            for _ in range(6)
        ]
        local = ref.Local(
            g_series=ref.Window(gr(0), -1, (gr(-1),) + tuple(g_tail)),
            h_series=ref.Window(gr(0), -1, tuple(h_window)),
        )
        omega, _ = recursion(local)
        g0 = local.g_series.coefficient(0)
        hm1 = local.h_series.coefficient(-1)
        h0 = local.h_series.coefficient(0)
        ok = ok and omega == (g0 + hm1) * hm1 + h0
    _outcome(7, "obstruction recursion matches closed form", ok)
