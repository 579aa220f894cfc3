"""Exact integer matrices, maximal minors, Smith normal form with transforms.

All arithmetic uses Python integers, so there is no overflow anywhere;
an entry that is not exactly an integer raises TypeError, never truncated.
:func:`maximal_minors` is the one fraction-free (Bareiss) pass; :func:`det`
and the Alexander minors of :mod:`palfkit.knots` both run through it.
The Smith reduction uses the classic elimination with the smallest
nonzero absolute value as pivot, which keeps runs deterministic.  It
reduces one block matrix [[A, I], [I, 0]] (Cohen, GTM 138, section 2.4):
row operations touch only A's rows and column operations only A's
columns, so the top-right block records U, the bottom-left block records
V, and U*A*V = D holds by construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .laurent import _exact_int


class IntMatrix:
    """An immutable integer matrix with fixed dimensions."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], shape: tuple[int, int] | None = None):
        data = tuple(tuple(map(_exact_int, row)) for row in rows)
        if shape is not None:
            nrows, ncols = shape
            if len(data) != nrows or any(len(r) != ncols for r in data):
                raise ValueError(f"rows do not match shape {shape}")
        else:
            nrows = len(data)
            ncols = len(data[0]) if data else 0
            if any(len(r) != ncols for r in data):
                raise ValueError("ragged rows")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = data

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int) -> IntMatrix:
        cols = [tuple(c) for c in columns]
        if any(len(c) != nrows for c in cols):
            raise ValueError(f"columns must have length {nrows}")
        return cls([[c[i] for c in cols] for i in range(nrows)], shape=(nrows, len(cols)))

    # -- basic protocol ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"

    def __getitem__(self, index: tuple[int, int]) -> int:
        i, j = index
        return self.rows[i][j]

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        out = [
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)) for j in range(other.ncols)]
            for i in range(self.nrows)
        ]
        return IntMatrix(out, shape=(self.nrows, other.ncols))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))


def maximal_minors(rows: list[list[int]]) -> list[int]:
    """Every maximal minor of an n x (n + 1) integer matrix: entry c is the
    determinant of ``rows`` without column c, sign included.

    One fraction-free Gauss-Jordan pass (Bareiss's update, applied above the
    pivot as well as below, every division exact) brings the matrix, its
    columns permuted by ``perm``, to the form [d*I | v].  Then
    x = (-v, d) spans the kernel, and by Cramer's rule the minor without
    column perm[q] is sgn(perm) (-1)^(n + perm[q]) x_q.  The pivot of step p
    is the first nonzero entry of row p among the columns not yet used; if
    there is none, row p depends on the rows above it and every minor is 0.
    The pass costs O(n^3) operations for all n + 1 minors together.

    >>> maximal_minors([[0, 1, 2], [1, 2, 0]])
    [-4, -2, -1]
    >>> maximal_minors([[1, 2, 3], [2, 4, 6]])
    [0, 0, 0]
    """
    n, width = len(rows), len(rows) + 1
    a = [list(row) for row in rows]
    perm = list(range(width))
    sign = prev = 1
    for p in range(n):
        pivot_row = a[p]
        q = next((q for q in range(p, width) if pivot_row[q]), None)
        if q is None:
            return [0] * width
        if q != p:
            for row in a:
                row[p], row[q] = row[q], row[p]
            perm[p], perm[q] = perm[q], perm[p]
            sign = -sign
        pivot = pivot_row[p]
        for i, row in enumerate(a):
            if i == p:
                continue
            lead = row[p]
            for j in range(p + 1, width):
                row[j], remainder = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if remainder:
                    raise ArithmeticError("inexact division in the Bareiss pass")
        prev = pivot
    kernel = [-row[n] for row in a] + [prev]
    minors = [0] * width
    for q, c in enumerate(perm):
        minors[c] = kernel[q] if sign * (-1) ** (n + c) > 0 else -kernel[q]
    return minors


def det(m: IntMatrix) -> int:
    """Exact determinant: the minor of [m | 0] without its zero column."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return maximal_minors([list(r) + [0] for r in m.rows])[-1]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d1 | d2 | ... in divisibility
    order.
    """
    nrows, ncols = m.nrows, m.ncols
    # [[m, I], [I, 0]]; row operations act on the first nrows rows and column
    # operations on the first ncols columns, so U and V accrue in step with D
    b = [list(r) + [1 if i == k else 0 for k in range(nrows)] for i, r in enumerate(m.rows)]
    b += [[1 if i == j else 0 for j in range(ncols)] + [0] * nrows for i in range(ncols)]

    t = 0
    while t < min(nrows, ncols):
        # pivot: smallest nonzero absolute value in the remaining block,
        # the first in row-major order on ties
        pivot, smallest = None, 0
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = b[i][j]
                if x and (pivot is None or abs(x) < smallest):
                    pivot, smallest = (i, j), abs(x)
        if pivot is None:
            break
        pi, pj = pivot
        b[t], b[pi] = b[pi], b[t]
        if pj != t:
            for row in b:
                row[t], row[pj] = row[pj], row[t]
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
        p = b[t][t]

        dirty = False
        for i in range(t + 1, nrows):
            if b[i][t]:
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
                dirty = dirty or b[i][t] != 0
        for j in range(t + 1, ncols):
            if b[t][j]:
                q = b[t][j] // p
                for row in b:
                    row[j] -= q * row[t]
                dirty = dirty or b[t][j] != 0
        if dirty:
            continue  # remainder became the new smallest entry; re-pivot

        # pivot must divide the rest of the block, else absorb an offender
        for i in range(t + 1, nrows):
            if any(x % p for x in b[i][t + 1:ncols]):
                b[t] = [x + y for x, y in zip(b[t], b[i])]
                break
        else:
            t += 1

    top, bottom = b[:nrows], b[nrows:]
    return (IntMatrix([r[:ncols] for r in top], shape=(nrows, ncols)),
            IntMatrix([r[ncols:] for r in top], shape=(nrows, nrows)),
            IntMatrix([r[:ncols] for r in bottom], shape=(ncols, ncols)))


def cokernel_invariants(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Structure of Z^nrows / column span: (free rank, torsion orders >= 2)."""
    d, _, _ = smith_normal_form(m)
    diag = [x for x in d.diagonal() if x]
    free_rank = m.nrows - len(diag)
    torsion = tuple(x for x in diag if x > 1)
    return free_rank, torsion


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the integer kernel (number of zero invariant factors on columns)."""
    return m.ncols - m.nrows + cokernel_invariants(m)[0]
