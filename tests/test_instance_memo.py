"""What an instance keeps in its memo (g, the point and Hermite frames, the
h-system's right-hand side) cannot be seen from outside.

- A solved instance equals, hashes, pickles and prints like a fresh copy.
- Repeated calls on one object give what the same calls give on fresh
  copies, under, square and over, at real and Gaussian positions.
- A failure is not kept: an inadmissible instance raises the same
  FuchsViolation on every call.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from fuchsian.builder import FuchsViolation, construct
from fuchsian.dimension import (
    check_momenta,
    classify,
    float_obstructions,
    quadratic_constraints,
    solve_under,
)
from fuchsian.model import FuchsianInstance
from fuchsian.sampling import random_instance
from fuchsian.scalars import GaussianRational


def _fresh(instance):
    return pickle.loads(pickle.dumps(instance))


def _small(rng):
    return GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-2, 2))


def _cases(regime_instances):
    """Four each of square, under and consistent over, every other one at
    Gaussian positions, plus each over one at momenta that violate it."""
    rng = random.Random(2424)
    for case, inst, _ in regime_instances(2424, 12):
        yield inst
        if case == "over":
            yield inst.with_momenta([_small(rng) for _ in inst.momenta])


def _calls(instance, rng):
    """(name, call) for every public entry that reads the instance's memo; a
    call takes the instance, so the same call runs on an object and its copy."""
    case = classify(instance).case
    if case == "under":
        free = instance.n - 2 - instance.num_apparent
        for _ in range(20):
            values = [_small(rng) for _ in range(free)]
            yield "solve_under", lambda inst, values=values: solve_under(inst, values)
        return
    if case == "square":
        yield "construct", construct
    else:
        yield "check_momenta", check_momenta
        yield "quadratic_constraints", quadratic_constraints
    for _ in range(2):
        momenta = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in instance.momenta]
        yield "float_obstructions", lambda inst, p=momenta: float_obstructions(inst, p)


def test_solved_instance_is_indistinguishable_from_a_fresh_copy(regime_instances):
    rng = random.Random(7)
    for k, inst in enumerate(_cases(regime_instances)):
        before = pickle.dumps(inst), repr(inst), hash(inst)
        for _, call in _calls(inst, rng):
            call(inst)
        twin = _fresh(inst)
        assert twin == inst and hash(twin) == hash(inst), k
        assert (pickle.dumps(inst), repr(inst), hash(inst)) == before, k
        assert (pickle.dumps(twin), repr(twin)) == before[:2], k
        assert copy.deepcopy(inst) == inst and copy.copy(inst) == inst, k


def test_repeated_calls_equal_calls_on_fresh_copies(regime_instances):
    rng = random.Random(8)
    seen = set()
    for k, inst in enumerate(_cases(regime_instances)):
        for name, call in _calls(inst, rng):
            first, again, fresh = call(inst), call(inst), call(_fresh(inst))
            assert first == again == fresh, (k, name)
            seen.add((classify(inst).case, name))
    assert seen == {
        ("under", "solve_under"),
        ("square", "construct"),
        ("square", "float_obstructions"),
        ("over", "check_momenta"),
        ("over", "quadratic_constraints"),
        ("over", "float_obstructions"),
    }


@pytest.mark.parametrize("n, num", [(5, 1), (4, 2), (3, 2)])
def test_inadmissible_instance_raises_the_same_on_every_call(n, num):
    base = random_instance(n, num, seed=31)
    (t, pair), *rest = base.finite_points
    inst = FuchsianInstance(
        [(t, (pair.rho1 + 1, pair.rho2))] + rest, base.infinity_exponents, base.apparent_points
    )
    rng = random.Random(9)
    for name, call in _calls(inst, rng):
        messages = []
        for target in (inst, inst, _fresh(inst), inst):
            with pytest.raises(FuchsViolation) as caught:
                call(target)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1 and "defect is 1" in messages[0], (name, messages)
