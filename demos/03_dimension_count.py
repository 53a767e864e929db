"""
Counting equations: free parameters vs. momentum constraints
============================================================

Fixing n finite points and N apparent positions leaves an (n-2)-dimensional
family of equations, however N compares with n - 2:

    N < n - 2   the momenta plus n - 2 - N free coefficients parametrize it
    N = n - 2   the momenta alone do
    N > n - 2   the momenta are cut down by N - n + 2 quadratic constraints

This demo walks one instance of each regime.
"""

from fuchsian import (
    FuchsianInstance,
    check_momenta,
    classify,
    exact_quadratic_roots,
    float_obstructions,
    quadratic_constraints,
    solve_under,
    verify,
)
from fuchsian.scalars import ZERO

print("-- underdetermined: n = 3, N = 0 --")
under = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (2, (0, 2))], (-1, -1))
print(classify(under))
for free in (0, 1):
    equation = solve_under(under, [free])
    print(f"  free value {free}: H = {equation.h}")

print()
print("-- square: n = 3, N = 1 (unique equation per momentum) --")
square = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (2, (0, 1))], (-1, -1), [(3, 0)])
print(classify(square))

print()
print("-- overdetermined: n = 2, N = 1 --")
over = FuchsianInstance([(0, (0, 1)), (1, (0, 1))], (-1, -1), [(2, 3)])
print(classify(over))
(constraint,) = quadratic_constraints(over)
print(
    "  constraint on p_1: "
    f"({constraint.quad[1]})*p^2 + ({constraint.lin[1]})*p + ({constraint.const_term}) = 0"
)

result = check_momenta(over)
print("  prescribed p = 3 admissible:", result.consistent)
for j, value in result.violations:
    print(f"    constraint {j} evaluates to {value}")

roots = exact_quadratic_roots(
    constraint.quad[1], constraint.lin.get(1, ZERO), constraint.const_term
)
print("  exact roots:", [str(r) for r in roots])
for root in roots:
    fixed = check_momenta(over.with_momenta([root]))
    print(f"  p = {root}: consistent={fixed.consistent}, "
          f"verified={verify(fixed.equation).overall}")

# The same roots found numerically, with the float-side obstruction check.
for root in constraint.float_roots():
    (omega,) = float_obstructions(over, [root])
    print(f"  float root {root:.6g}: |obstruction| = {abs(omega):.2e}")
