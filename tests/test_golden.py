"""Byte-identical outputs: one sha256 per command over a fixed seeded set.

Sixty instances cover every regime: 15 square, 15 under with free values,
15 consistent over (all from the shared regime generator, every other one at
Gaussian positions) and 15 over instances whose random momenta violate
their constraints, every other one Gaussian-shifted.  Each command's
outputs are serialized as the CLI and the JSON schemas write them, and the
digest of the whole list is pinned.  The elimination oracle is pinned the
same way: `eliminate` on each instance's h-system, `rank` and `det` on its
h-matrix, and the `det-check` JSON for n = 2..6.  A change that alters any
output, even by a formatting detail or the order of a dict, fails here.

When an output is meant to change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why they moved.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

from conftest import _regime_instances
from fuchsian.builder import build_h_system, construct, solve_g
from fuchsian.cli import main
from fuchsian.dimension import check_momenta, float_obstructions, quadratic_constraints, solve_under
from fuchsian.frobenius import report_to_json_obj, verify
from fuchsian.linalg import det, eliminate, rank
from fuchsian.model import equation_to_json_obj
from fuchsian.sampling import random_instance
from fuchsian.scalars import GaussianRational

GOLDEN = {
    "construct": "6dc3d7bd7aee8c31fe1b2c0e959648579675cf9cc2346b72ec2316162174a724",
    "solve_under": "d28268deb8726182fba8dd104e6c415826d58836952dc9eeb44b9f898fcd8fe2",
    "check_momenta": "f4ed30196e3cd5739d0175e40ae009f8cb50a50252986c18cc6ff237d230f92e",
    "quadratic_constraints": "a4093df00ec2bea279343c79f1e71a49b59f8038cdc9a6c740c0dd781c778a92",
    "float_obstructions": "2100a2304c4294b0da030f1740475e3b3354b9826a473adbe426b251ed4c2687",
    "verify": "79c93e2e8222b5fcd090b0620f1ef176b11bf86d76defe3f0067dbd0dab2d932",
    "eliminate": "0843616bcd85cbdd84f7670b55fc6ce2a843bf5fd226abb15b6f43dbb6eabdb7",
    "rank": "de6df774b9257387c3cc1928d28302a9b5405e5799d90ddfea11a7e83f773ed3",
    "det": "c403138b1ebe79710d5aaf8827d50cb6fee59318dd758e4740c38573fc3f0db6",
    "det_check": "ec22b05aec72eaa964d8a61290ed6cbf6e74389012b53f0374f0f07eb22e9c2e",
}


def _instances():
    """(case, instance, free values) for the 60 golden instances."""
    yield from _regime_instances(5150, 45)
    rng = random.Random(5151)
    for k in range(15):
        n = 2 + k % 4
        inst = random_instance(n, n - 1 + k % 3, seed=rng.randint(0, 10**6))
        if k % 2:
            inst = inst.shifted(GaussianRational(rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])))
        yield "violating", inst, []


def _pairs(values):
    return None if values is None else [v.to_pair() for v in values]


def _det_check(n: int) -> str:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        main(["det-check", "--n", str(n), "--trials", "3"])
    return stdout.getvalue()


def _outputs() -> dict:
    out = {name: [] for name in GOLDEN}
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
        out["rank"].append(rank(matrix))
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


def digests() -> dict:
    return {
        name: hashlib.sha256(json.dumps(values).encode("utf-8")).hexdigest()
        for name, values in _outputs().items()
    }


def test_outputs_match_the_pinned_digests():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
