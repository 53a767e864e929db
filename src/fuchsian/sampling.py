"""Seeded random instances for property suites and the CLI generator.

Positions land on distinct small rationals in [-10, 10]; exponents and
momenta are small Gaussian rationals.  The second infinity exponent is then
solved for so that the exponent-sum defect vanishes, making every generated
instance admissible.  Everything is a pure function of (n, N, seed), so
generated instances are byte-stable across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import ExponentPair, FuchsianInstance
from .scalars import GaussianRational


def _position_pool() -> list:
    """Distinct rationals in [-10, 10] with denominators 1..4, ordered."""
    seen = set()
    pool = []
    for den in range(1, 5):
        for num in range(-10 * den, 10 * den + 1):
            value = Fraction(num, den)
            if value not in seen:
                seen.add(value)
                pool.append(value)
    return pool


_POOL = _position_pool()


def _small_gaussian(rng: random.Random) -> GaussianRational:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return GaussianRational(re, im)


def random_instance(n: int, num_apparent: int | None = None, seed: int = 0) -> FuchsianInstance:
    """A valid admissible instance with n finite points and N apparent ones.

    N defaults to n - 2 (the square case).  The same (n, N, seed) always
    yields the same instance.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if num_apparent is None:
        num_apparent = n - 2
    if num_apparent < 0:
        raise ValueError(f"need N >= 0, got {num_apparent}")
    if n + num_apparent > len(_POOL):
        raise ValueError(f"need n + N <= {len(_POOL)} pool positions, got {n + num_apparent}")
    rng = random.Random(seed)
    positions = rng.sample(_POOL, n + num_apparent)

    finite = []
    total = GaussianRational(0)
    for i in range(n):
        pair = ExponentPair(_small_gaussian(rng), _small_gaussian(rng))
        total = total + pair.sum
        finite.append((GaussianRational(positions[i]), pair))

    first_infinity = _small_gaussian(rng)
    # Close the admissibility relation: the full exponent sum must be n - N - 1.
    second_infinity = GaussianRational(n - num_apparent - 1) - total - first_infinity
    infinity = ExponentPair(first_infinity, second_infinity)

    apparent = []
    for j in range(num_apparent):
        momentum = _small_gaussian(rng)
        apparent.append((GaussianRational(positions[n + j]), momentum))
    return FuchsianInstance(finite, infinity, apparent)
