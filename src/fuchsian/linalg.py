"""Exact dense linear algebra over the Gaussian rationals.

Elimination uses deterministic first-nonzero pivoting: columns are scanned
left to right and, within a column, rows top to bottom.  Arithmetic is exact,
so no magnitude-based pivoting is needed and every run of the same system
produces the same pivots and the same solution.

A row that carries no pivot eliminates to (0 .. 0 | r), and the system is
consistent exactly when every such r vanishes.  The package solves g and h
in closed form; elimination is the oracle its tests, and det-check, use.

The arithmetic runs on plain ints.  Each row of [A | b] (of A alone for rank
and det) is scaled once by the lcm of its denominators, and a row update
s*row_r - t*piv_row, with s a rational integer, is followed by division by
the integer gcd of the row's entries, so rows stay primitive and no gcd is
paid per entry operation.  In a complex column s = |c|^2 and t = f*conj(c)
for the pivot c and the row's entry f, so every row stays a rational-integer
multiple of its row over the rationals, and no Gaussian common factor can
build up that the integer content would not divide out.  Back substitution
carries each solution vector over one common denominator, and det
multiplies out the scale factors it recorded.  Every result is converted to
a canonical GaussianRational once, so the outcome is exactly that of
elimination over the rationals.
Primitive rows rather than Bareiss fraction-free elimination: Bareiss
entries are minors that grow with every step (about 2000 bits on the real
31x31 h-matrices at n = 9, 27 ms against 7 ms with primitive rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scalars import ZERO, GaussianRational, from_gaussian_ints, to_gaussian_ints


class Matrix:
    """Immutable dense matrix, row-major entries."""

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
        self.rows = rows
        self.cols = cols
        self.entries = values

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            "(" + ", ".join(str(e) for e in self.row(i)) + ")" for i in range(self.rows)
        )
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


@dataclass(frozen=True)
class SolveOutcome:
    kind: str  # "unique" | "underdetermined" | "inconsistent"
    particular: tuple | None
    nullspace_basis: tuple
    pivot_rows: tuple
    pivot_cols: tuple

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def _scaled_rows(row_lists):
    """Each row times the lcm of its denominators, as a flat int list.

    A row holds the real parts of its entries followed, unless the whole
    matrix is real, by their imaginary parts.  Returns (rows, real, dens).
    """
    scaled = [to_gaussian_ints(row) for row in row_lists]
    real = not any(any(im) for _, _, im in scaled)
    rows = [re if real else re + im for _, re, im in scaled]
    return rows, real, [den for den, _, _ in scaled]


def _echelon(rows, cols: int, real: bool, factors=None):
    """Forward elimination in place on the first `cols` columns; the pivots.

    Pivoting is first-nonzero, so the pivots are those of elimination on
    the rational rows.  A row r with a nonzero entry f in the pivot column
    becomes (s*row_r - t*piv_row) / content, where s = c and t = f for a
    real pivot c and s = |c|^2 and t = f*conj(c) otherwise, both divided by
    their gcd.  s is a rational integer, so the row stays a rational-integer
    multiple of the rational row.  If `factors` is a list, each update
    appends (s, content): the row's scale was multiplied by s / content.
    """
    m = len(rows)
    width = len(rows[0]) // (1 if real else 2)
    used = [False] * m
    pivots = []
    for col in range(cols):
        live = [
            r for r in range(m)
            if not used[r] and (rows[r][col] or not real and rows[r][width + col])
        ]
        if not live:
            continue
        piv = live[0]
        used[piv] = True
        pivots.append((piv, col))
        prow = rows[piv]
        cr = prow[col]
        if not real:
            ci = prow[width + col]
            norm = cr * cr + ci * ci
            yr, yi = prow[:width], prow[width:]
        for r in live[1:]:
            row = rows[r]
            if real:
                g = gcd(cr, row[col])
                s, t = cr // g, row[col] // g
                new = [s * x - t * y for x, y in zip(row, prow)]
            else:
                fr, fi = row[col], row[width + col]
                tr, ti = fr * cr + fi * ci, fi * cr - fr * ci
                g = gcd(norm, tr, ti)
                s, tr, ti = norm // g, tr // g, ti // g
                new = [s * u - tr * x + ti * y for u, x, y in zip(row[:width], yr, yi)]
                new += [s * v - tr * y - ti * x for v, x, y in zip(row[width:], yr, yi)]
            content = gcd(*new) or 1
            if content > 1:
                new = [x // content for x in new]
            rows[r] = new
            if factors is not None:
                factors.append((s, content))
    return pivots


def _back_substitute(rows, pivots, n: int, real: bool, free=None) -> tuple:
    """The x with row . x == row[n] on every pivot row and free columns 0,
    or, given a free column, row . x == 0 with x[free] = 1.

    x is carried as (xr + xi*i) / den with one positive int den, reduced by
    the content after each step; each entry is converted once at the end.
    """
    width = len(rows[0]) // (1 if real else 2)
    xr, xi, den = [0] * n, [0] * n, 1
    known = []
    if free is not None:
        xr[free] = 1
        known.append(free)
    for r, c in reversed(pivots):
        row = rows[r]
        im = (0,) * width if real else row[width:]
        ar = 0 if free is not None else row[n] * den
        ai = 0 if free is not None else im[n] * den
        for j in known:
            ar -= row[j] * xr[j] - im[j] * xi[j]
            ai -= row[j] * xi[j] + im[j] * xr[j]
        # x_c = (ar + ai*i) / (den * p) = (ar + ai*i) * u / (den * q)
        pr, pi = row[c], im[c]
        g = gcd(pr, pi)
        ur, ui, q = pr // g, -pi // g, (pr * pr + pi * pi) // g
        for j in known:
            xr[j] *= q
            xi[j] *= q
        xr[c], xi[c] = ar * ur - ai * ui, ar * ui + ai * ur
        den *= q
        known.append(c)
        content = gcd(den, *(xr[j] for j in known), *(xi[j] for j in known))
        if content > 1:
            den //= content
            for j in known:
                xr[j] //= content
                xi[j] //= content
    return tuple(
        [from_gaussian_ints(xr[j], xi[j], den) if xr[j] or xi[j] else ZERO for j in range(n)]
    )


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
    rows, real, _ = _scaled_rows([matrix.row(r) + (rhs[r],) for r in range(m)])
    pivots = _echelon(rows, n, real)
    pivot_row_set = {r for r, _ in pivots}
    # a dependent row has eliminated to (0 .. 0 | scaled reduced rhs)
    consistent = not any(
        rows[r][n] or not real and rows[r][2 * n + 1]
        for r in range(m)
        if r not in pivot_row_set
    )

    pivot_col_set = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_col_set]
    nullspace = tuple(_back_substitute(rows, pivots, n, real, free) for free in free_cols)
    particular = _back_substitute(rows, pivots, n, real) if consistent else None

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


def rank(matrix: Matrix) -> int:
    """Exact rank."""
    rows, real, _ = _scaled_rows([matrix.row(r) for r in range(matrix.rows)])
    return len(_echelon(rows, matrix.cols, real))


def det(matrix: Matrix) -> GaussianRational:
    """Exact determinant of a square matrix."""
    if matrix.rows != matrix.cols:
        raise ValueError(f"determinant of a non-square {matrix.rows}x{matrix.cols} matrix")
    n = matrix.rows
    rows, real, dens = _scaled_rows([matrix.row(r) for r in range(n)])
    factors = []
    pivots = _echelon(rows, n, real, factors)
    if len(pivots) < n:
        return ZERO
    # Row operations and row scalings multiply the determinant by known
    # factors; reordering rows so that the i-th pivot row comes i-th makes
    # the final rows upper triangular.
    order = [r for r, _ in pivots]
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j]
    )
    num_re, num_im = (-1 if inversions % 2 else 1), 0
    for r, c in pivots:
        pr, pi = rows[r][c], 0 if real else rows[r][n + c]
        num_re, num_im = num_re * pr - num_im * pi, num_re * pi + num_im * pr
    den = 1
    for scale in dens:
        den *= scale
    for s, content in factors:
        num_re, num_im = num_re * content, num_im * content
        den *= s
    return from_gaussian_ints(num_re, num_im, den)
