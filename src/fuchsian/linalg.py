"""Exact dense linear algebra over the Gaussian rationals.

Elimination uses deterministic first-nonzero pivoting: columns are scanned
left to right and, within a column, rows top to bottom.  Arithmetic is exact,
so no magnitude-based pivoting is needed and every run of the same system
produces the same pivots and the same solution.

A row that carries no pivot eliminates to (0 .. 0 | r), and the system is
consistent exactly when every such r vanishes.  The package solves g and h
in closed form; elimination is the oracle its tests, and det-check, use, so
it is plain Gaussian elimination on canonical GaussianRational rows: one
forward pass serves `eliminate`, whose outcome carries the rank, and `det`.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, GaussianRational, _Frozen, _Record


class Matrix(_Frozen):
    """Read-only dense matrix, row-major entries; a _Frozen value, so copies
    and unpickling run the shape checks again."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        values = tuple([GaussianRational.coerce(e) for e in entries])
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(values) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(values)}"
            )
        set_field = object.__setattr__
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", values)

    def _value(self) -> tuple:
        return self.rows, self.cols, self.entries

    @classmethod
    def from_rows(cls, row_lists) -> Matrix:
        rows = [list(r) for r in row_lists]
        if not rows:
            raise ValueError("matrix needs at least one row")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [e for r in rows for e in r])

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __repr__(self):
        body = "; ".join(
            "(" + ", ".join(str(e) for e in self.row(i)) + ")" for i in range(self.rows)
        )
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


class SolveOutcome(_Record):
    kind: str  # "unique" | "underdetermined" | "inconsistent"
    particular: tuple | None
    nullspace_basis: tuple
    pivot_rows: tuple
    pivot_cols: tuple

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def _echelon(rows, cols: int) -> list:
    """Forward elimination in place on the first `cols` columns; the
    (row, column) pivots in order.

    Each row with a nonzero entry in the pivot column, other than the pivot
    row and the rows that already carry a pivot, loses that entry's multiple
    of the pivot row.  A pivot row is zero left of its pivot column.
    """
    used = [False] * len(rows)
    pivots = []
    for col in range(cols):
        live = [r for r, row in enumerate(rows) if not used[r] and row[col]]
        if not live:
            continue
        piv = live[0]
        used[piv] = True
        pivots.append((piv, col))
        prow = rows[piv]
        for r in live[1:]:
            factor = rows[r][col] / prow[col]
            rows[r] = [a - factor * b if b else a for a, b in zip(rows[r], prow)]
    return pivots


def _back_substitute(rows, pivots, n: int, free=None) -> tuple:
    """The x with row . x == row[n] on every pivot row and free columns 0,
    or, given a free column, row . x == 0 with x[free] = 1."""
    x = [ZERO] * n
    if free is not None:
        x[free] = ONE
    for r, c in reversed(pivots):
        row = rows[r]
        acc = ZERO if free is not None else row[n]
        for j in range(c + 1, n):
            if row[j] and x[j]:
                acc = acc - row[j] * x[j]
        x[c] = acc / row[c]
    return tuple(x)


def eliminate(matrix: Matrix, rhs) -> SolveOutcome:
    """Solve matrix * x = rhs exactly, classifying the outcome.

    Produces a particular solution (free variables set to zero) unless the
    system is inconsistent, and a nullspace basis (one vector per free
    column).
    """
    rhs = tuple([GaussianRational.coerce(v) for v in rhs])
    if len(rhs) != matrix.rows:
        raise ValueError(f"rhs length {len(rhs)} != row count {matrix.rows}")
    m, n = matrix.rows, matrix.cols
    rows = [list(matrix.row(r)) + [rhs[r]] for r in range(m)]
    pivots = _echelon(rows, n)
    pivot_row_set = {r for r, _ in pivots}
    # a dependent row has eliminated to (0 .. 0 | reduced rhs)
    consistent = not any(rows[r][n] for r in range(m) if r not in pivot_row_set)

    pivot_col_set = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_col_set]
    nullspace = tuple(_back_substitute(rows, pivots, n, free) for free in free_cols)
    particular = _back_substitute(rows, pivots, n) if consistent else None

    if not consistent:
        kind = "inconsistent"
    elif free_cols:
        kind = "underdetermined"
    else:
        kind = "unique"
    return SolveOutcome(
        kind=kind,
        particular=particular,
        nullspace_basis=nullspace,
        pivot_rows=tuple(r for r, _ in pivots),
        pivot_cols=tuple(c for _, c in pivots),
    )


def det(matrix: Matrix) -> GaussianRational:
    """Exact determinant of a square matrix."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of a non-square {matrix.rows}x{matrix.cols} matrix")
    n = matrix.rows
    rows = [list(matrix.row(r)) for r in range(n)]
    pivots = _echelon(rows, n)
    if len(pivots) < n:
        return ZERO
    # Row operations preserve the determinant; reordering rows so that the
    # i-th pivot row comes i-th makes the rows upper triangular.
    order = [r for r, _ in pivots]
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j]
    )
    result = -ONE if inversions % 2 else ONE
    for r, c in pivots:
        result = result * rows[r][c]
    return result
