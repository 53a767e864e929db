"""Byte-identical outputs: one sha256 per command over a fixed seeded set.

Sixty instances cover every regime: 15 square, 15 under with free values,
15 consistent over (all from the shared regime generator, every other one at
Gaussian positions) and 15 over instances whose random momenta violate
their constraints, every other one Gaussian-shifted.  Each command's
outputs are serialized as the CLI and the JSON schemas write them, and the
digest of the whole list is pinned.  A change that alters any output, even
by a formatting detail or the order of a dict, fails here.

When an output is meant to change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why they moved.
"""

import hashlib
import json
import random

from conftest import _regime_instances
from fuchsian.builder import construct
from fuchsian.dimension import check_momenta, float_obstructions, quadratic_constraints, solve_under
from fuchsian.frobenius import report_to_json_obj, verify
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


def _outputs() -> dict:
    out = {name: [] for name in GOLDEN}
    equations = []
    for case, inst, free in _instances():
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
