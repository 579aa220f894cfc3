"""Alexander polynomials of deficiency-one presentations, symmetric
normalization, the ribbon product construction, and the Casson surgery
formula.

Each entry of the abelianized Fox matrix is
``abelianize(fox_derivative(r, j), weights)``; the group-ring terms are
prefixes of the reduced relator, taken as slices without re-validation.
The maximal minors are taken by fraction-free Bareiss elimination over
Z[t, t^-1] with exact Laurent division (O(k^3) ring operations for a
k x k minor).

The Casson invariant of a homology sphere is a plain integer here;
``casson_surgery`` implements lambda(M + (1/m) K) = lambda(M) + (m/2) Delta''(1)
for the normalized (symmetric, Delta(1) = 1) Alexander polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groupring import abelianize, fox_derivative
from .laurent import LaurentPoly
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
    """A symmetric Alexander polynomial with p(t) = p(t^-1) and p(1) = 1.

    ``sign`` and ``shift`` record the unit that was divided out of the
    input representative.
    """

    poly: LaurentPoly
    sign: int = 1
    shift: int = 0

    def __post_init__(self):
        if not self.poly.is_symmetric():
            raise ValueError("normalized Alexander polynomial must satisfy p(t) = p(t^-1)")
        if self.poly.value_at_one() != 1:
            raise ValueError("normalized Alexander polynomial must satisfy p(1) = 1")

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> NormalizedAlexander:
        """Normalize a polynomial that is symmetric up to units."""
        if not p:
            raise ValueError("the zero polynomial is not an Alexander polynomial")
        total = p.min_exponent + p.max_exponent
        if total % 2:
            raise ValueError("polynomial cannot be centered symmetrically")
        shift = -total // 2
        q = p.shift(shift)
        if not q.is_symmetric():
            raise ValueError("polynomial is not symmetric up to units")
        sign = 1
        if q.value_at_one() == -1:
            q, sign = -q, -1
        if q.value_at_one() != 1:
            raise ValueError("polynomial does not evaluate to +-1 at t = 1")
        return cls(q, sign, shift)

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

    minors = {}
    candidates = [j for j in range(rank) if weights[j] != 0]
    for j in candidates:
        sub = [[row[k] for k in range(rank) if k != j] for row in matrix]
        minors[j] = _laurent_det(sub)
    if all(w == 1 for w in weights):
        # all candidate minors must agree up to units (Fox fundamental identity)
        values = list(minors.values())
        for other in values[1:]:
            if not unit_equivalent(values[0], other):
                raise ArithmeticError("column-choice dependence in Alexander minor")
    return unit_normalize(minors[candidates[-1]])


def _laurent_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant over Z[t, t^-1] by fraction-free Bareiss elimination, the
    scheme of :func:`palfkit.intmatrix.det`: every division is exact."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    a = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        pivot, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]).exact_quotient(prev)
        prev = pivot
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def fox_milnor_compose(f: LaurentPoly) -> NormalizedAlexander:
    """The ribbon-knot Alexander polynomial f(t) f(t^-1), normalized."""
    if f.value_at_one() not in (1, -1):
        raise ValueError("not a valid slice factor: f(1) must be +-1")
    return NormalizedAlexander.from_laurent(f * f.reciprocal())


def casson_surgery(lambda_m: int, m: int, delta: NormalizedAlexander) -> int:
    """Casson invariant after (1/m)-surgery: lambda_M + m * Delta''(1) / 2."""
    d2 = delta.second_derivative_at_one()
    if d2 % 2:
        raise ValueError("Delta''(1) must be even for a symmetric polynomial")
    return lambda_m + m * (d2 // 2)


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
    return LaurentPoly({i: (-1) ** i * (2 * n + 1 - abs(i)) for i in range(-2 * n, 2 * n + 1)})


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
