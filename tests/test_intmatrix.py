import random

import pytest
import sympy as sp
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from palfkit.intmatrix import IntMatrix, cokernel_invariants, det, kernel_rank, maximal_minors, smith_normal_form


def random_matrix(rng, min_dim=1, max_dim=4, bound=5):
    nrows = rng.randrange(min_dim, max_dim + 1)
    ncols = rng.randrange(min_dim, max_dim + 1)
    return IntMatrix([[rng.randrange(-bound, bound + 1) for _ in range(ncols)] for _ in range(nrows)],
                     shape=(nrows, ncols))


I3 = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_identity_snf():
    d, u, v = smith_normal_form(I3)
    assert d == I3
    assert u * I3 * v == d


def test_zero_snf():
    d, u, v = smith_normal_form(IntMatrix([[0]]))
    assert d == IntMatrix([[0]])
    assert det(u) in (1, -1) and det(v) in (1, -1)


def test_family_boundary_matrix_snf():
    m = IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    d, u, v = smith_normal_form(m)
    assert d == I3
    assert u * m * v == d


def test_snf_properties_random():
    rng = random.Random(41)
    for _ in range(500):
        m = random_matrix(rng, min_dim=0)  # (0, n) and (m, 0) included
        d, u, v = smith_normal_form(m)
        # transforms are unimodular and exact
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        assert u * m * v == d
        # diagonal, nonnegative, divisibility chain
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d[i, j] == 0
        diag = list(d.diagonal())
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert diag[:len(nonzero)] == nonzero  # zeros trail
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_snf_matches_sympy():
    rng = random.Random(42)
    for _ in range(200):
        m = random_matrix(rng)
        d, _, _ = smith_normal_form(m)
        expected = sympy_snf(sp.Matrix([list(r) for r in m.rows]), domain=sp.ZZ)
        mine = sorted(abs(x) for x in d.diagonal() if x)
        theirs = sorted(abs(int(x)) for x in expected.diagonal() if x)
        assert mine == theirs


def test_det_against_sympy():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(1, 5)
        m = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)])
        assert det(m) == int(sp.Matrix([list(r) for r in m.rows]).det())
    assert det(IntMatrix([], shape=(0, 0))) == 1


def _minor_case(rng, i):
    # an n x (n + 1) matrix, n = 0..6, entries small or up to 10^30 and often
    # zero; case i % 5 adds a zero row, a dependent row, a zero first column
    # (the first pivot is found by a column swap) or a zero last column
    n = i % 7
    bound = rng.choice((3, 10 ** 30))
    rows = [[rng.randrange(-bound, bound + 1) if rng.random() < 0.7 else 0 for _ in range(n + 1)] for _ in range(n)]
    kind = i % 5
    if n and kind == 1:
        rows[rng.randrange(n)] = [0] * (n + 1)
    elif n > 1 and kind == 2:
        j, k = rng.sample(range(n), 2)
        c = rng.randrange(-bound, bound + 1)
        rows[rng.randrange(n)] = [c * x + y for x, y in zip(rows[j], rows[k])]
    elif kind == 3:
        for row in rows:
            row[0] = 0
    elif kind == 4:
        for row in rows:
            row[n] = 0
    return rows


def test_maximal_minors_against_sympy():
    rng = random.Random(44)
    for i in range(560):
        rows = _minor_case(rng, i)
        n = len(rows)
        expected = [int(sp.Matrix(n, n, [x for row in rows for x in row[:c] + row[c + 1:]]).det(method="bareiss"))
                    for c in range(n + 1)]
        assert maximal_minors(rows) == expected, rows


def test_maximal_minors_leave_their_input_unchanged():
    rows = [[0, 1, 2], [1, 2, 0]]
    assert maximal_minors(rows) == [-4, -2, -1]
    assert rows == [[0, 1, 2], [1, 2, 0]]


def test_cokernel_invariants():
    # Z^2 / <(2,0)> = Z + Z/2
    assert cokernel_invariants(IntMatrix([[2], [0]])) == (1, (2,))
    # Z^2 / identity = 0
    assert cokernel_invariants(IntMatrix([[1, 0], [0, 1]])) == (0, ())
    # no columns at all: everything survives
    assert cokernel_invariants(IntMatrix([[], [], []], shape=(3, 0))) == (3, ())


def test_kernel_rank():
    assert kernel_rank(I3) == 0
    assert kernel_rank(IntMatrix([[1, 1, 0], [0, 0, 0]])) == 2
    assert kernel_rank(IntMatrix([[0, 0, 0], [0, 0, 0]])) == 3


def test_from_columns_and_shape():
    m = IntMatrix.from_columns([(1, 0), (2, 3)], 2)
    assert m.rows == ((1, 2), (0, 3))


def test_empty_dimensions():
    empty = IntMatrix([[], [], []], shape=(3, 0))
    assert (empty.nrows, empty.ncols) == (3, 0)
    d, u, v = smith_normal_form(empty)
    assert (d.nrows, d.ncols) == (3, 0)
    assert (u.nrows, u.ncols) == (3, 3) and (v.nrows, v.ncols) == (0, 0)


def test_entries_must_be_exact_integers():
    assert IntMatrix([[2.0, -1]]).rows == ((2, -1),)
    for bad in (1.9, 0.5, "3"):
        with pytest.raises(TypeError):
            IntMatrix([[bad, 0]])
