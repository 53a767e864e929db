"""Exact elimination: outcomes, Fredholm conditions, determinants, ranks."""

import random
from fractions import Fraction

import pytest

from fuchsian.linalg import Matrix, det, eliminate
from fuchsian.scalars import ZERO, GaussianRational


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_identity_system():
    m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    out = eliminate(m, (1, 2, 3))
    assert out.kind == "unique"
    assert out.particular == (gr(1), gr(2), gr(3))
    assert out.nullspace_basis == ()


def test_underdetermined_with_certificate():
    m = Matrix.from_rows([[1, 1], [2, 2]])
    out = eliminate(m, (1, 2))
    assert out.kind == "underdetermined"
    assert len(out.nullspace_basis) == 1
    assert out.pivot_rows == (0,)
    # row 1 = 2 * row 0, certified by the left-nullspace vector (-2, 1)
    left = eliminate(_transpose(m), (0, 0))
    assert left.nullspace_basis == ((gr(-2), gr(1)),)


def test_inconsistent():
    m = Matrix.from_rows([[1, 1], [2, 2]])
    out = eliminate(m, (1, 3))
    assert out.kind == "inconsistent"
    assert out.particular is None
    # nullspace still reported: rank + nullity = cols
    assert out.rank + len(out.nullspace_basis) == 2


def test_dimension_mismatch():
    m = Matrix.from_rows([[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        eliminate(m, (1, 2, 3))
    with pytest.raises(ValueError, match="dimensions must be positive"):
        Matrix(0, 1, [])
    with pytest.raises(ValueError, match="at least one row"):
        Matrix.from_rows([])


def test_det_examples():
    h3 = Matrix.from_rows([[0, 0, 1], [1, 0, 0], [1, 1, 1]])
    assert det(h3) == gr(1)
    repeated = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det(repeated) == ZERO
    diag = Matrix.from_rows(
        [[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 2)]]
    )
    assert det(diag) == gr(3)
    with pytest.raises(ValueError):
        det(Matrix.from_rows([[1, 2]]))


def test_rank_examples():
    assert eliminate(Matrix.from_rows([[0, 0], [0, 0]]), (ZERO,) * 2).rank == 0
    assert eliminate(Matrix.from_rows([[0, 0, 1], [1, 0, 0], [1, 1, 1]]), (ZERO,) * 3).rank == 3
    assert eliminate(Matrix.from_rows([[1, 1], [2, 2]]), (ZERO,) * 2).rank == 1


def _random_matrix(rng, rows, cols, complex_entries=True):
    return Matrix(
        rows,
        cols,
        [
            GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2)) if complex_entries else 0,
            )
            for _ in range(rows * cols)
        ],
    )


def _transpose(m):
    return Matrix.from_rows(zip(*(m.row(r) for r in range(m.rows))))


def _dot(y, v):
    return sum((a * b for a, b in zip(y, v)), ZERO)


def _matvec(m, x):
    return tuple(
        sum((m.entry(r, c) * x[c] for c in range(m.cols)), ZERO) for r in range(m.rows)
    )


def test_random_square_det_vs_uniqueness():
    rng = random.Random(101)
    for _ in range(40):
        size = rng.randint(1, 7)
        m = _random_matrix(rng, size, size)
        rhs = tuple(gr(rng.randint(-5, 5)) for _ in range(size))
        out = eliminate(m, rhs)
        d = det(m)
        assert bool(d) == (out.kind == "unique")
        if out.kind != "inconsistent":
            assert _matvec(m, out.particular) == rhs


def test_random_rectangular_invariants():
    kinds = set()
    for complex_entries in (True, False):
        rng = random.Random(202)
        for _ in range(40):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            m = _random_matrix(rng, rows, cols, complex_entries)
            rhs = tuple(gr(rng.randint(-5, 5)) for _ in range(rows))
            out = eliminate(m, rhs)
            kinds.add(out.kind)
            assert out.rank + len(out.nullspace_basis) == cols
            assert eliminate(m, (ZERO,) * rows).rank == out.rank
            # every nullspace vector is annihilated
            for vec in out.nullspace_basis:
                assert _matvec(m, vec) == (ZERO,) * rows
            # Fredholm: y . A = 0 on the left nullspace, and A x = b is
            # solvable exactly when y . b = 0 for every such y
            left = eliminate(_transpose(m), (ZERO,) * cols).nullspace_basis
            assert len(left) == rows - out.rank
            for y in left:
                assert _matvec(_transpose(m), y) == (ZERO,) * cols
            assert (out.kind == "inconsistent") == any(_dot(y, rhs) for y in left)
            if out.kind != "inconsistent":
                assert _matvec(m, out.particular) == rhs
    assert kinds == {"unique", "underdetermined", "inconsistent"}


def test_nullspace_vectors_independent():
    rng = random.Random(303)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(2, 7))
        out = eliminate(m, (ZERO,) * m.rows)
        if not out.nullspace_basis:
            continue
        stacked = Matrix.from_rows([list(v) for v in out.nullspace_basis])
        assert eliminate(stacked, (ZERO,) * stacked.rows).rank == len(out.nullspace_basis)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
