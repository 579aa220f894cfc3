"""Positive allowable Lefschetz fibrations over the disk with planar fiber:
allowability, handle-complex homology, fundamental group, and the standard
family of Mazur-type fillings.

The total space of a fibration with fiber an r-holed sphere and m
vanishing cycles has one 0-handle, r-1 one-handles and m two-handles, so
its chain complex is ``Z^m -> Z^(r-1) -> Z`` with the only nonzero map
given by the homology classes of the cycles.

Family conventions (calibrated; see README):
  * fiber S(0,4); alpha = std{1}, beta = std{1,2}, gamma = std{2,3};
  * ``compose(f, g)`` applies g first, and the n-th vanishing cycle is
    the image of gamma under the n-th power of phi = compose(t_gamma, t_beta);
    it records ``factors == ((phi, n),)`` and ``base == gamma``, so phi^n
    itself is composed only to twist about the cycle;
  * the word of gamma_n (n >= 1) is the closed form, 14n - 4 letters,

        W_n = D^n x2 B^n E C^(n-1) D^-(n-1),

    with D = x1 x2 x3 (delta), B = x3^-1 x2^-1 x1^-1 x2, E = x3 x2^-1 and
    C = x1 x2 x3 x2^-1.  Five word identities

        phi(D) = D,              phi(x2) = D x2 B x2^-1,
        phi(B) = x2 B x2^-1,     phi(E) = x2 E C D^-1,
        phi(C) = D C D^-1

    carry W_n to W_(n+1) under phi, and W_0 = x2 E C^-1 D = x2 x3 is
    gamma, so W_n = phi^n(gamma) by induction.  ``mazur_family`` checks
    the identities and the base case against the phi it builds on every
    call, so the closed form is certified, not assumed;
  * the monodromy of ``(c1, ..., cm)`` composes as t_c1 . t_c2 ... t_cm
    (rightmost applied first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .intmatrix import IntMatrix, cokernel_invariants
from .presentation import Presentation
from .surface import (
    Curve,
    MappingClass,
    PlanarSurface,
    compose,
    dehn_twist,
    standard_curve,
)
from .words import Word


class PALFSpec:
    """A planar fiber together with an ordered list of vanishing cycles."""

    __slots__ = ("fiber", "cycles")

    def __init__(self, fiber: PlanarSurface, cycles: Sequence[Curve]):
        cycles = tuple(cycles)
        for c in cycles:
            if c.surface != fiber:
                raise ValueError("vanishing cycle does not live on the fiber")
        self.fiber = fiber
        self.cycles = cycles


@dataclass(frozen=True)
class HomologyResult:
    """Integral homology of the total space: (free rank, torsion orders)."""

    h0: tuple[int, tuple[int, ...]]
    h1: tuple[int, tuple[int, ...]]
    h2: tuple[int, tuple[int, ...]]
    euler: int

    @property
    def is_point(self) -> bool:
        trivial = (0, ())
        return self.h0 == (1, ()) and self.h1 == trivial and self.h2 == trivial


def allowable(spec: PALFSpec) -> tuple[bool, int | None]:
    """Check all vanishing cycles are homologically essential in the fiber.

    Returns ``(True, None)`` or ``(False, index of the first offender)``.
    """
    for i, c in enumerate(spec.cycles):
        if not any(c.homology_class):
            return False, i
    return True, None


def boundary_matrix(spec: PALFSpec) -> IntMatrix:
    """The 2-handle boundary map: column i is the class of cycle i."""
    return IntMatrix.from_columns([c.homology_class for c in spec.cycles], spec.fiber.rank)


def homology(spec: PALFSpec) -> HomologyResult:
    """Homology of the total space from the handle chain complex; H2 is the
    kernel of the boundary map, of rank ncols - nrows + free rank of H1."""
    d2 = boundary_matrix(spec)
    h1 = cokernel_invariants(d2)
    return HomologyResult(
        h0=(1, ()),
        h1=h1,
        h2=(d2.ncols - d2.nrows + h1[0], ()),
        euler=1 - spec.fiber.rank + len(spec.cycles),
    )


def boundary_is_homology_sphere(spec: PALFSpec) -> bool:
    """True when the total space is a homology ball, so the boundary is a
    homology 3-sphere: H1 = H2 = 0, which holds exactly when the boundary
    map is square of determinant +-1."""
    return homology(spec).is_point


def pi1_presentation(spec: PALFSpec) -> Presentation:
    """Fundamental group of the total space: one relator per vanishing cycle."""
    return Presentation(spec.fiber.group, [c.word for c in spec.cycles])


# -- the standard family ----------------------------------------------------

# Hole runs of the fixture curves alpha = std{1}, beta = std{1,2} and
# gamma = std{2,3}, in that order.
FAMILY_HOLE_RUNS = ((1,), (1, 2), (2, 3))

# The words of the closed form of gamma_n (see the module docstring), as
# letter tuples: letter k is x_k and -k its inverse.
_D = (1, 2, 3)
_X2 = (2,)
_B = (-3, -2, -1, 2)
_E = (3, -2)
_C = (1, 2, 3, -2)


def family_curves() -> tuple[Curve, Curve, Curve]:
    """The calibrated fixture curves (alpha, beta, gamma) on a fresh S(0,4)."""
    s = PlanarSurface(4)
    return tuple(standard_curve(s, holes) for holes in FAMILY_HOLE_RUNS)


def family_twists() -> tuple[MappingClass, MappingClass, MappingClass]:
    """Twists (t_alpha, t_beta, t_gamma) about the fixture curves."""
    alpha, beta, gamma = family_curves()
    return dehn_twist(alpha), dehn_twist(beta), dehn_twist(gamma)


def _closed_form_word(phi: MappingClass, gamma: Curve, n: int) -> Word:
    """The word of phi^n(gamma) as W_n = D^n x2 B^n E C^(n-1) D^-(n-1).

    Raises ``ArithmeticError`` unless ``phi`` satisfies the five identities
    of the module docstring and gamma's word is W_0 = x2 E C^-1 D, which
    together prove W_n = phi^n(gamma) for every n >= 0.
    """
    group = gamma.surface.group
    d, x2, b, e, c = (group.word(letters) for letters in (_D, _X2, _B, _E, _C))
    identities = (
        (d, d),
        (x2, d * x2 * b * x2.inverse()),
        (b, b.conjugate(x2)),
        (e, x2 * e * c * d.inverse()),
        (c, c.conjugate(d)),
    )
    if any(phi(w) != image for w, image in identities) or gamma.word != x2 * e * c.inverse() * d:
        raise ArithmeticError("phi and gamma do not satisfy the identities behind the closed form of gamma_n")
    if n == 0:
        return gamma.word
    return group.word(
        d.letters * n + x2.letters + b.letters * n + e.letters
        + c.letters * (n - 1) + d.inverse().letters * (n - 1)
    )


def mazur_family(n: int) -> PALFSpec:
    """The n-th member of the family of Mazur-type fillings.

    Vanishing cycles are (alpha, beta, gamma_n) on the 4-holed sphere,
    where gamma_n is the image of gamma under the n-th power of
    ``phi = compose(t_gamma, t_beta)``.  The word of gamma_n is the closed
    form W_n = D^n x2 B^n E C^(n-1) D^-(n-1) of the module docstring, built
    in O(n) letters once the five identities phi(D) = D,
    phi(x2) = D x2 B x2^-1, phi(B) = x2 B x2^-1, phi(E) = x2 E C D^-1 and
    phi(C) = D C D^-1 have been checked against this phi (``ArithmeticError``
    if one fails).  The cycle keeps the one factor ``(phi, n)`` over the base
    gamma; phi^n is composed only by :func:`dehn_twist`.  ``n = 0`` (the
    untwisted gamma) is allowed as a degenerate diagnostic.
    """
    if n < 0:
        raise ValueError("family index must be nonnegative")
    alpha, beta, gamma = family_curves()
    s = alpha.surface
    phi = compose(dehn_twist(gamma), dehn_twist(beta))
    word = _closed_form_word(phi, gamma, n)
    return PALFSpec(s, (alpha, beta, Curve(s, word, ((phi, n),), gamma)))
