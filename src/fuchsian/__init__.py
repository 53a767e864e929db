"""Second-order Fuchsian equations with prescribed exponents and apparent
singularities, constructed and independently verified in exact arithmetic.

The construction writes the w'-coefficient down by partial fractions and
interpolates the w-coefficient on confluent (Hermite) data; verification
re-derives every local quantity from Taylor heads of the coefficient
polynomials, on Gaussian integers, and runs the power-series recursion at
each apparent point.  For apparent-point counts other than n - 2 the
dimension module counts free parameters and builds the quadratic momentum
constraints of the overdetermined case.
"""

from .builder import (
    FuchsViolation,
    VerificationFailed,
    build_h_system,
    construct,
    solve_g,
    solve_h,
)
from .dimension import (
    CaseReport,
    MomentaCheck,
    QuadraticConstraint,
    check_momenta,
    classify,
    exact_quadratic_roots,
    float_obstructions,
    quadratic_constraints,
    solve_quadratic_float,
    solve_under,
)
from .frobenius import VerificationReport, verify
from .linalg import Matrix, SolveOutcome, eliminate
from .model import (
    ExponentPair,
    FuchsianEquation,
    FuchsianInstance,
    InvalidInstance,
    equation_from_json_obj,
    equation_to_json_obj,
    fuchs_defect,
    instance_from_json_obj,
    instance_to_json_obj,
)
from .polynomials import Polynomial
from .sampling import random_instance
from .scalars import GaussianRational

__version__ = "0.1.0"

__all__ = [
    "CaseReport",
    "ExponentPair",
    "FuchsViolation",
    "FuchsianEquation",
    "FuchsianInstance",
    "GaussianRational",
    "InvalidInstance",
    "Matrix",
    "MomentaCheck",
    "Polynomial",
    "QuadraticConstraint",
    "SolveOutcome",
    "VerificationFailed",
    "VerificationReport",
    "build_h_system",
    "check_momenta",
    "classify",
    "construct",
    "eliminate",
    "equation_from_json_obj",
    "equation_to_json_obj",
    "exact_quadratic_roots",
    "float_obstructions",
    "fuchs_defect",
    "instance_from_json_obj",
    "instance_to_json_obj",
    "quadratic_constraints",
    "random_instance",
    "solve_g",
    "solve_h",
    "solve_quadratic_float",
    "solve_under",
    "verify",
]
