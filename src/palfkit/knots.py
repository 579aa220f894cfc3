"""Alexander polynomials of deficiency-one presentations, symmetric
normalization, the ribbon product construction, and the Casson surgery
formula.

Each entry of the abelianized Fox matrix is
``abelianize(fox_derivative(r, j), weights)``, O(|r|) interpreted steps: its
terms are unvalidated prefix slices of r, each extending the last.
All k maximal minors of the (k-1) x k matrix come from the one
fraction-free Gauss-Jordan pass of :func:`palfkit.intmatrix.maximal_minors`
(O(k^3) operations for all of them together), run over Z on the entries
packed by :mod:`palfkit.laurent`, the digit width set by Hadamard's bound.

The Casson invariant of a homology sphere is a plain integer here;
``casson_surgery`` implements lambda(M + (1/m) K) = lambda(M) + (m/2) Delta''(1)
for the normalized (symmetric, Delta(1) = 1) Alexander polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intmatrix
from .groupring import abelianize, fox_derivative
from .laurent import LaurentPoly, _pack, _unpack
from .presentation import Presentation
from .words import FreeGroup


class CalibrationError(RuntimeError):
    """A family value disagreed with its closed form; the algebra or the
    calibrated conventions are broken."""


def unit_equivalent(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Equality in Z[t, t^-1] up to multiplication by +-t^k."""
    return unit_normalize(p) == unit_normalize(q)


def unit_normalize(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative up to units: valuation 0, positive value
    at 1 (falling back to a positive lowest coefficient when p(1) = 0)."""
    if not p:
        return p
    q = p.shift(-p.min_exponent)
    v = q.value_at_one()
    if v < 0 or (v == 0 and q[0] < 0):
        q = -q
    return q


@dataclass(frozen=True)
class NormalizedAlexander:
    """A symmetric Alexander polynomial with p(t) = p(t^-1) and p(1) = 1."""

    poly: LaurentPoly

    def __post_init__(self):
        if not self.poly.is_symmetric():
            raise ValueError("normalized Alexander polynomial must satisfy p(t) = p(t^-1)")
        if self.poly.value_at_one() != 1:
            raise ValueError("normalized Alexander polynomial must satisfy p(1) = 1")

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> NormalizedAlexander:
        """Normalize a polynomial that is symmetric up to units by dividing
        out the unit +-t^k that centers it and makes its value at 1 equal 1."""
        if not p:
            raise ValueError("the zero polynomial is not an Alexander polynomial")
        total = p.min_exponent + p.max_exponent
        if total % 2:
            raise ValueError("polynomial cannot be centered symmetrically")
        q = p.shift(-total // 2)
        if not q.is_symmetric():
            raise ValueError("polynomial is not symmetric up to units")
        if q.value_at_one() == -1:
            q = -q
        if q.value_at_one() != 1:
            raise ValueError("polynomial does not evaluate to +-1 at t = 1")
        return cls(q)

    def second_derivative_at_one(self) -> int:
        return self.poly.second_derivative_at_one()

    def __str__(self) -> str:
        return str(self.poly)


def alexander_from_presentation(p: Presentation, weights: Sequence[int]) -> LaurentPoly:
    """Alexander polynomial of a deficiency-one presentation by Fox calculus.

    ``weights`` sends each generator to an integer power of t and must
    define a map onto Z that kills every relator.  The returned value is
    the maximal minor of the abelianized Fox matrix, canonicalized up to
    units by :func:`unit_normalize`.
    """
    if p.deficiency != 1:
        raise ValueError(f"presentation must have deficiency 1, got {p.deficiency}")
    rank = p.rank
    if len(weights) != rank:
        raise ValueError("need one weight per generator")
    if all(w == 0 for w in weights):
        raise ValueError("weights must define a map onto Z")
    for r in p.relators:
        s = sum(w * e for w, e in zip(weights, r.exponent_vector()))
        if s != 0:
            raise ValueError(f"relator {r} has nonzero weighted exponent sum {s}")

    matrix = [
        [abelianize(fox_derivative(r, j), weights) for j in range(rank)]
        for r in p.relators
    ]

    minors = maximal_minors(matrix)
    candidates = [j for j in range(rank) if weights[j] != 0]
    if all(w == 1 for w in weights):
        # all k minors must agree up to units (Fox fundamental identity)
        if not all(unit_equivalent(minors[0], m) for m in minors[1:]):
            raise ArithmeticError("column-choice dependence in Alexander minor")
    return unit_normalize(minors[candidates[-1]])


def maximal_minors(rows: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """Every maximal minor of an n x (n + 1) matrix over Z[t, t^-1]: entry c
    is the determinant of ``rows`` without column c, sign included.

    :func:`palfkit.intmatrix.maximal_minors` runs on row i divided by
    t^(m_i), m_i its least exponent, packed at t = 2^b by ``laurent._pack``.
    Each entry the pass makes is, up to sign, a minor of that polynomial
    matrix.  On |t| = 1 such a minor has modulus at most
    H = prod_i sqrt(sum_j ||a_ij||_1^2) by Hadamard's inequality (each
    factor is at least 1, no row being zero), and no coefficient exceeds the
    maximum modulus.  As 2^(b - 1) > H, no nonzero entry evaluates to 0: the
    pivots are those of the pass over Z[t, t^-1], every division is exact,
    and ``_unpack`` reads each minor back, times t^(m_0 + ... + m_(n-1)).

    >>> t, one, zero = LaurentPoly.t(), LaurentPoly.one(), LaurentPoly.zero()
    >>> [str(m) for m in maximal_minors([[zero, one, t], [one, t, zero]])]
    ['-t^2', '-t', '-1']
    """
    n, width = len(rows), len(rows) + 1
    if any(len(row) != width for row in rows):
        raise ValueError(f"need an n x (n + 1) matrix, got {n} rows of lengths {sorted({len(r) for r in rows})}")
    if n <= 1:
        # nothing to eliminate: the minors of [a, b] are b and a
        return [rows[0][1], rows[0][0]] if n else [LaurentPoly.one()]
    lows, square = [], 1  # square is H^2
    for row in rows:
        if not any(row):
            return [LaurentPoly.zero()] * width
        lows.append(min(entry.min_exponent for entry in row if entry))
        square *= sum(sum(map(abs, entry.coeffs.values())) ** 2 for entry in row)
    # 2^(2(b - 1)) > H^2 once b - 1 >= bit_length(H^2) / 2; b = 8 * size
    size = ((square.bit_length() + 1) // 2 + 8) // 8
    packed = [[_pack(entry.coeffs, size, low) for entry in row] for row, low in zip(rows, lows)]
    return [_unpack(minor, size, sum(lows)) for minor in intmatrix.maximal_minors(packed)]


def fox_milnor_compose(f: LaurentPoly) -> NormalizedAlexander:
    """The ribbon-knot Alexander polynomial f(t) f(t^-1), normalized."""
    if f.value_at_one() not in (1, -1):
        raise ValueError("not a valid slice factor: f(1) must be +-1")
    return NormalizedAlexander.from_laurent(f * f.reciprocal())


def casson_surgery(lambda_m: int, m: int, delta: NormalizedAlexander) -> int:
    """Casson invariant after (1/m)-surgery: lambda_M + m * Delta''(1) / 2,
    where the halving is exact: Delta is symmetric, so Delta''(1) = sum_(e > 0) 2 c_e e^2."""
    return lambda_m + m * (delta.second_derivative_at_one() // 2)


# -- the ribbon family -------------------------------------------------------

def ribbon_presentation(n: int) -> Presentation:
    """The two-generator ribbon disk group <x, y | (xy)^n x (xy)^-n y^-1>."""
    if n < 1:
        raise ValueError("family index must be at least 1")
    F = FreeGroup(2, ("x", "y"))
    x, y = F.generators()
    xy = x * y
    relator = (xy ** n) * x * (xy ** (-n)) * y.inverse()
    return Presentation(F, [relator])


def closed_form_factor(n: int) -> LaurentPoly:
    """f(t) = 1 - t + t^2 - ... + t^(2n)."""
    return LaurentPoly({k: (-1) ** k for k in range(2 * n + 1)})


def closed_form_delta(n: int) -> LaurentPoly:
    """Delta coefficients (-1)^i (2n + 1 - |i|) for |i| <= 2n."""
    return LaurentPoly({i: (-1) ** abs(i) * (2 * n + 1 - abs(i)) for i in range(-2 * n, 2 * n + 1)})


@dataclass(frozen=True)
class FamilyInvariants:
    n: int
    factor: LaurentPoly  # f(t), Alexander polynomial of the ribbon disk
    delta: NormalizedAlexander  # Delta(t) = f(t) f(t^-1)
    second_derivative: int  # Delta''(1)
    casson: int  # lambda of the boundary, via 1-surgery


def check_family_invariants(n: int) -> tuple[FamilyInvariants, str | None]:
    """Run the full pipeline for the n-th ribbon group and compare every
    stage with its closed form; returns the invariants and the first
    mismatch as a message, or None when all stages agree."""
    f = alexander_from_presentation(ribbon_presentation(n), (1, 1))
    delta = fox_milnor_compose(f)
    d2 = delta.second_derivative_at_one()
    lam = casson_surgery(0, 1, delta)
    mismatch = None
    if f != closed_form_factor(n):
        mismatch = f"factor polynomial mismatch at n={n}: got {f}"
    elif delta.poly != closed_form_delta(n):
        mismatch = f"Alexander polynomial mismatch at n={n}: got {delta}"
    elif d2 != 2 * n * (n + 1):
        mismatch = f"Delta''(1) mismatch at n={n}: got {d2}"
    elif lam != n * (n + 1):
        mismatch = f"Casson invariant mismatch at n={n}: got {lam}"
    return FamilyInvariants(n, f, delta, d2, lam), mismatch


def family_invariants(n: int) -> FamilyInvariants:
    """:func:`check_family_invariants`, raising CalibrationError on any
    mismatch."""
    invariants, mismatch = check_family_invariants(n)
    if mismatch is not None:
        raise CalibrationError(mismatch)
    return invariants
