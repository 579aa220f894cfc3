"""Exact integer matrices and Smith normal form with transforms.

All arithmetic uses Python integers, so there is no overflow anywhere.
The Smith reduction uses the classic elimination with the smallest
nonzero absolute value as pivot, which keeps runs deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class IntMatrix:
    """An immutable integer matrix with fixed dimensions."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], shape: tuple[int, int] | None = None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
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


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d1 | d2 | ... in divisibility
    order.
    """
    a = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row dst += factor * row src
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # pivot: smallest nonzero absolute value in the remaining block
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainder became the new smallest entry; re-pivot

        # pivot must divide the rest of the block, else absorb an offender
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    d = IntMatrix(a, shape=(nrows, ncols))
    return d, IntMatrix(u, shape=(nrows, nrows)), IntMatrix(v, shape=(ncols, ncols))


def cokernel_invariants(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Structure of Z^nrows / column span: (free rank, torsion orders >= 2)."""
    d, _, _ = smith_normal_form(m)
    diag = [x for x in d.diagonal() if x]
    free_rank = m.nrows - len(diag)
    torsion = tuple(x for x in diag if x > 1)
    return free_rank, torsion


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the integer kernel (number of zero invariant factors on columns)."""
    d, _, _ = smith_normal_form(m)
    rank = len([x for x in d.diagonal() if x])
    return m.ncols - rank
