"""
Planting an apparent singularity with a prescribed momentum
===========================================================

With n = 3 prescribed points the equation has one apparent singularity
(N = n - 2 = 1).  Its position q and its momentum p (the first Laurent
coefficient of H/psi^2 there) can be chosen freely, and the equation with
exponents {0, 2} at q and NO logarithm in its solutions is then unique.

The demo builds two equations that differ only in the momentum and reads
off the verifier's report the local data the construction had to hit,
together with the resonance value of the power-series recursion, which
decides logarithm-freeness.
"""

from fractions import Fraction

from fuchsian import FuchsianInstance, construct, verify
from fuchsian.builder import h_rhs_terms

points = [(0, (0, 1)), (1, (0, 1)), (2, (0, 1))]
infinity = (-1, -1)
q = 3

for momentum in (0, Fraction(5, 2)):
    instance = FuchsianInstance(points, infinity, [(q, momentum)])
    equation = construct(instance)
    print(f"momentum p = {momentum}:")
    print("  H =", equation.h)

    report = verify(equation)
    at_q = report.apparent[0]
    print("  residue of G/psi at q:      ", at_q.residue, "(must be -1)")
    print("  H/psi^2 order -2 coefficient:", at_q.indicial.product, "(must be 0)")
    print("  recovered momentum:          ", at_q.momentum_recovered)
    print("  logarithm obstruction:       ", at_q.obstruction, "(0 = log-free)")
    print("  full verification:           ", report.overall)
    print()

# The constants behind the second-derivative row of the linear system: its
# right-hand side is delta * p^2 + epsilon * p, with delta = -2 psi'(q)^2 and
# epsilon = psi'(q) (psi''(q) - 2 G'(q)), cross-checked against Laurent
# expansions in the tests.
instance = FuchsianInstance(points, infinity, [(q, 0)])
_, _, epsilon, delta = h_rhs_terms(instance)[-1]
print("local constants at q = 3:")
print("  delta =", delta, " epsilon =", epsilon)
