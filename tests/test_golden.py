"""Byte-identical outputs: one sha256 per command over a fixed seeded set.

Sixty instances cover every regime: 15 square, 15 under with free values,
15 consistent over with N = n - 1 .. 2n - 2 (all from
strategies.regime_instances, every other one at Gaussian positions) and 15
from strategies.violating_over, whose momenta violate their constraints.
Each command's outputs are serialized as the CLI and the JSON schemas write
them, and the digest of the whole list is pinned.  The elimination oracle
is pinned the same way: `eliminate` on each instance's h-system, its rank,
`det` on its h-matrix, and the `det-check` JSON for n = 2..6.  So are
verify's reports on equations with g or h tampered; their digest sits in the
same table and test_frobenius checks it.  A change that alters any output,
even by a formatting detail or the order of a dict, fails here or there.

When an output is meant to change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why they moved.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from fraction_reference import poly_add, poly_from_roots
from fuchsian.builder import build_h_system, construct, solve_g, solve_h
from fuchsian.cli import main
from fuchsian.dimension import check_momenta, float_obstructions, quadratic_constraints, solve_under
from fuchsian.frobenius import report_to_json_obj, verify
from fuchsian.linalg import det, eliminate
from fuchsian.model import FuchsianEquation, FuchsianInstance, equation_to_json_obj
from fuchsian.polynomials import Polynomial
from strategies import regime_instances, violating_over

GOLDEN = {
    "construct": "d050bc007d1715e868c84ea0e10f03b7250fc3ef3e8c5c17051730b19a54e6ca",
    "solve_under": "5ed75391bd1ed219975efd5b7d09ed1e0e4ee58712a63c0a8c3b4709d2e0cf07",
    "check_momenta": "ee667eb47016e62075dedc260458752ee1e2eb467565a4887405f131c8cf45e3",
    "quadratic_constraints": "5f5b05b40482a7ea16369e0c1cc8a0793e9d0df3e71c40c47164dc9bb39ed1a1",
    "float_obstructions": "b1ce630fc40c6a7d780b64faff3163524017cc57e0a8a1392937187e3fccb371",
    "verify": "582e2bef71af1f88c81d4b3b3e44c51e43fc7c6a7375c79b39bc86cf1d670657",
    "eliminate": "1d948104c62ee405582abc8c40f70cddc4adeb36aa447240bebb4371753ecdf0",
    "rank": "a54cf7ddfbb2fc8f1ebd9432e0879c39e2473f2e865724172d7531f93c75f283",
    "det": "bf3849ce317e5150e703c43c339322a5b61fd2cedd733970c0b1c05e41c25e2a",
    "det_check": "ec22b05aec72eaa964d8a61290ed6cbf6e74389012b53f0374f0f07eb22e9c2e",
    "tampered_reports": "433653ea16d2276a5e3f2027ce9f081c42711ad9812d44bab44304f069861b60",
}


def _instances():
    """(case, instance, free values) for the 60 golden instances."""
    yield from regime_instances(5150, 45)
    for inst in violating_over(5151, 15):
        yield "violating", inst, []


def _pairs(values):
    return None if values is None else [v.to_pair() for v in values]


def _det_check(n: int) -> str:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        main(["det-check", "--n", str(n), "--trials", "3"])
    return stdout.getvalue()


def _tampered_reports() -> list:
    """verify's reports on 30 seeded square/under/over equations, each also
    with g tampered (by the product over the apparent points, so the residue
    stays -1 and the recursion runs to a nonzero omega) and with h tampered,
    plus the all-zero equation: their bytes must not move when verify's
    arithmetic changes."""
    reports = []
    for _, inst, free in regime_instances(4711, 30):
        eq = FuchsianEquation(solve_g(inst), solve_h(inst, free), inst)
        q_prod = poly_from_roots(inst.apparent_positions)
        for tampered in (
            eq,
            FuchsianEquation(poly_add(eq.g, q_prod), eq.h, inst),
            FuchsianEquation(eq.g, poly_add(eq.h, Polynomial((1, 0, 1))), inst),
        ):
            reports.append(report_to_json_obj(verify(tampered)))
    zero = FuchsianInstance([(0, (0, 1)), (1, (0, 1)), (2, (0, 1))], (-1, -1), [(3, 0)])
    reports.append(report_to_json_obj(verify(FuchsianEquation(Polynomial(), Polynomial(), zero))))
    return reports


def _outputs() -> dict:
    out = {name: [] for name in GOLDEN if name != "tampered_reports"}
    equations = []
    for case, inst, free in _instances():
        matrix, rhs = build_h_system(inst, solve_g(inst))
        outcome = eliminate(matrix, rhs)
        out["eliminate"].append(
            {
                "kind": outcome.kind,
                "particular": _pairs(outcome.particular),
                "nullspace": [_pairs(v) for v in outcome.nullspace_basis],
                "pivot_rows": list(outcome.pivot_rows),
                "pivot_cols": list(outcome.pivot_cols),
            }
        )
        out["rank"].append(outcome.rank)
        if matrix.rows == matrix.cols:
            out["det"].append(det(matrix).to_pair())
        if case == "square":
            eq = construct(inst)
            out["construct"].append(equation_to_json_obj(eq))
            equations.append(eq)
        elif case == "under":
            eq = solve_under(inst, free)
            out["solve_under"].append(equation_to_json_obj(eq))
            equations.append(eq)
        else:
            result = check_momenta(inst)
            out["check_momenta"].append(
                {
                    "consistent": result.consistent,
                    "equation": result.equation and equation_to_json_obj(result.equation),
                    "violations": [[j, value.to_pair()] for j, value in result.violations],
                }
            )
            out["quadratic_constraints"].append(
                [c.to_json_obj() for c in quadratic_constraints(inst)]
            )
            if result.equation is not None:
                equations.append(result.equation)
        if case != "under":
            momenta = [p.to_complex() for p in inst.momenta]
            out["float_obstructions"].append(
                [[w.real, w.imag] for w in float_obstructions(inst, momenta)]
            )
    out["verify"] = [report_to_json_obj(verify(eq)) for eq in equations]
    out["det_check"] = [_det_check(n) for n in range(2, 7)]
    return out


def digest(values: list) -> str:
    return hashlib.sha256(json.dumps(values).encode("utf-8")).hexdigest()


def digests() -> dict:
    """Every pinned digest, tampered_reports included."""
    out = {name: digest(values) for name, values in _outputs().items()}
    out["tampered_reports"] = digest(_tampered_reports())
    return out


def test_outputs_match_the_pinned_digests():
    pinned = {name: value for name, value in GOLDEN.items() if name != "tampered_reports"}
    assert {name: digest(values) for name, values in _outputs().items()} == pinned


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
