"""
Planting an apparent singularity with a prescribed momentum
===========================================================

With n = 3 prescribed points the equation has one apparent singularity
(N = n - 2 = 1).  Its position q and its momentum p (the first Laurent
coefficient of H/psi^2 there) can be chosen freely, and the equation with
exponents {0, 2} at q and NO logarithm in its solutions is then unique.

The demo builds two equations that differ only in the momentum, shows the
local data the construction had to hit, and runs the power-series recursion
whose resonance value decides logarithm-freeness.
"""

from fractions import Fraction

from fuchsian import (
    FuchsianInstance,
    GaussianRational,
    construct,
    frobenius_obstruction,
    local_expansion,
    solve_g,
    verify,
)
from fuchsian.builder import h_rhs_terms

points = [(0, (0, 1)), (1, (0, 1)), (2, (0, 1))]
infinity = (-1, -1)
q = 3

for momentum in (0, Fraction(5, 2)):
    instance = FuchsianInstance(points, infinity, [(q, momentum)])
    equation = construct(instance)
    print(f"momentum p = {momentum}:")
    print("  H =", equation.h)

    local = local_expansion(equation, q)
    print("  residue of G/psi at q:      ", local.g_series.coefficient(-1), "(must be -1)")
    print("  H/psi^2 order -2 coefficient:", local.h_series.coefficient(-2), "(must be 0)")
    print("  recovered momentum:          ", local.h_series.coefficient(-1))

    omega, series = frobenius_obstruction(local)
    print("  logarithm obstruction:       ", omega, "(0 = log-free)")
    print("  series solution starts:      ", [str(c) for c in series[:4]])
    print("  full verification:           ", verify(equation).overall)
    print()

# The constants behind the second-derivative row of the linear system: its
# right-hand side is delta * p^2 + epsilon * p, with delta = -2 psi'(q)^2 and
# epsilon = psi'(q) (psi''(q) - 2 G'(q)), cross-checked against Laurent
# expansions in the tests.
instance = FuchsianInstance(points, infinity, [(q, 0)])
_, _, epsilon, delta = h_rhs_terms(instance, solve_g(instance))[-1]
print("local constants at q = 3:")
print("  delta =", delta, " epsilon =", epsilon)
