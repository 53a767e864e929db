"""What an instance keeps in its memo (the point and Hermite frames, g, the
h-system's right-hand-side terms and the Fredholm constraints) reads no
momenta, is shared by with_momenta siblings alone, and cannot be seen from
outside.

- A solved instance equals, hashes, pickles and prints like a fresh copy.
- Repeated calls on one object, and on with_momenta siblings that share its
  memo, give what the same calls give on fresh copies, under, square and
  over, at real and Gaussian positions.
- with_momenta hands its memo on; shifted, a fresh construction, copies and
  pickles start with an empty one of their own.
- The memo holds the five momentum-free builds and nothing else, and a
  momentum scan builds the right-hand-side terms once.
- A failure is not kept: an inadmissible instance raises the same
  FuchsViolation on every call.
"""

import copy
import pickle
import random

import pytest
from strategies import regime_instances, small_gaussian

import fuchsian.builder
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


def _cases():
    """Four each of square, under and consistent over, every other one at
    Gaussian positions, plus each over one at momenta that violate it.  The
    violating sibling comes from with_momenta after the caller has run its
    calls on the consistent one, so it starts with that one's full memo."""
    rng = random.Random(2424)
    for case, inst, _ in regime_instances(2424, 12):
        yield inst
        if case == "over":
            yield inst.with_momenta([small_gaussian(rng) for _ in inst.momenta])


def _calls(instance, rng):
    """(name, call) for every public entry that reads the instance's memo; a
    call takes the instance, so the same call runs on an object and its copy."""
    case = classify(instance).case
    if case == "under":
        free = instance.n - 2 - instance.num_apparent
        for _ in range(20):
            values = [small_gaussian(rng) for _ in range(free)]
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


def test_solved_instance_is_indistinguishable_from_a_fresh_copy():
    rng = random.Random(7)
    for k, inst in enumerate(_cases()):
        before = pickle.dumps(inst), repr(inst), hash(inst)
        for _, call in _calls(inst, rng):
            call(inst)
        twin = _fresh(inst)
        assert twin == inst and hash(twin) == hash(inst), k
        assert (pickle.dumps(inst), repr(inst), hash(inst)) == before, k
        assert (pickle.dumps(twin), repr(twin)) == before[:2], k
        assert copy.deepcopy(inst) == inst and copy.copy(inst) == inst, k


def test_repeated_calls_equal_calls_on_fresh_copies():
    # the violating over siblings from _cases share the memo their consistent
    # parent filled, so this compares shared builds with fresh ones too
    rng = random.Random(8)
    seen = set()
    for k, inst in enumerate(_cases()):
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


def _at_gaussian_positions(instance):
    return any(x.to_complex().imag for x in instance.finite_positions)


MOMENTUM_FREE = {"_psi_ints", "solve_g", "h_rhs_terms", "_hermite_frame", "fredholm_terms"}


def test_the_memo_keeps_momentum_free_builds_and_only_siblings_share_it():
    # every entry of _calls on every regime fills the memo with exactly these
    # builds, so one that reads the momenta cannot enter it unnoticed
    rng = random.Random(10)
    seen = set()
    for k, inst in enumerate(_cases()):
        for _, call in _calls(inst, rng):
            call(inst)
        assert {build.__name__ for build in inst._memo} == MOMENTUM_FREE, k
        sibling = inst.with_momenta([small_gaussian(rng) for _ in inst.momenta])
        assert sibling._memo is inst._memo, k
        assert sibling.with_momenta(inst.momenta)._memo is inst._memo, k
        others = [
            inst.shifted(GaussianRational(1, -1)),
            FuchsianInstance(inst.finite_points, inst.infinity_exponents, inst.apparent_points),
            copy.copy(inst),
            copy.deepcopy(inst),
            _fresh(inst),
        ]
        memos = [inst._memo] + [other._memo for other in others]
        assert all(memo == {} for memo in memos[1:]), k
        assert len(set(map(id, memos))) == len(memos), k
        seen.add((classify(inst).case, _at_gaussian_positions(inst)))
    assert seen == {(case, at) for case in ("under", "square", "over") for at in (False, True)}


def test_a_momentum_scan_builds_the_right_hand_side_once(monkeypatch):
    # ten siblings of one point set: nine at violating momenta and, mid-scan,
    # the consistent set (over), or ten momentum choices (square); the whole
    # scan builds the right-hand-side terms once, and every result equals the
    # same call on a pickled copy, which builds its own
    original, built = fuchsian.builder._rhs_terms, []

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(fuchsian.builder, "_rhs_terms", counting)
    rng = random.Random(12)
    seen = set()
    for k, (case, base, _) in enumerate(regime_instances(2525, 12)):
        if case == "under":
            continue
        scan = check_momenta if case == "over" else construct
        momenta = [tuple(small_gaussian(rng) for _ in base.momenta) for _ in range(9)]
        momenta.insert(4, base.momenta)
        floats = [[x.to_complex() for x in p] for p in momenta]
        root = _fresh(base)
        siblings = [root.with_momenta(p) for p in momenta]
        built.clear()
        results = [(scan(s), float_obstructions(s, f)) for s, f in zip(siblings, floats)]
        assert len(built) == 1, k
        if case == "over":
            consistent = [p == base.momenta for p in momenta]
            assert [check.consistent for check, _ in results] == consistent, k
        for sibling, f, result in zip(siblings, floats, results):
            assert result == (scan(_fresh(sibling)), float_obstructions(_fresh(sibling), f)), k
        seen.add((case, _at_gaussian_positions(base)))
    assert seen == {(case, at) for case in ("square", "over") for at in (False, True)}


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
