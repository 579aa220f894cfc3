"""Planar surfaces, simple closed curves, and Dehn twists as free-group
automorphisms.

Model and conventions
---------------------
A planar surface with ``r`` holes has fundamental group free on
``x1 .. x(r-1)``, where ``xi`` loops once around hole ``i`` and the
basepoint sits on the outer boundary (hole ``r``).  The outer boundary
word is ``delta = x1 x2 ... x(r-1)``.

A curve's word decides its twist.  A positive Dehn twist about a curve
whose word is a run ``c = xi ... xj`` sends each enclosed generator ``xk``
to ``c xk c^-1`` and fixes the rest: twisting is conjugation by ``c``
(Farb-Margalit, *A Primer on Mapping Class Groups*, Ch. 9), and
:func:`dehn_twist` builds it without the :class:`MappingClass` check, by
the proof in its docstring.  An image curve keeps the powered maps that
carried its base to it (``Curve.factors``, ``Curve.base``), and its twist
is the conjugated twist of the base.  Any other word, a curve about a
non-consecutive hole set included, is not twistable in this direct form
(the conjugation recipe is no longer induced by a homeomorphism); twist
it as an image instead, ``dehn_twist(apply(phi, c))``, e.g. with ``phi``
a :func:`half_twist`.  Mapping classes compose right to left:
``compose(f, g)`` applies ``g`` first.

Classes before words.  A mapping class permutes the inner holes
(``MappingClass.permutation``), so it acts on H1 of the page by permuting
coordinates, and an image of ``c`` under ``phi^n`` has the class of ``c``
with each coefficient moved n steps along its cycle, found with no word.
A Dehn twist fixes every hole; a :func:`half_twist` swaps two.  An image's
word is stepped only when something reads it, and then kept on the curve.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from .words import FreeGroup, Word, are_conjugate, substitute


class UnsupportedCurveError(ValueError):
    """The curve is not in a position the direct twist formula supports."""


class PlanarSurface:
    """A genus-zero surface with ``holes`` boundary components."""

    __slots__ = ("holes", "group", "delta")

    def __init__(self, holes: int):
        if holes < 1:
            raise ValueError("a planar surface needs at least one hole")
        self.holes = holes
        self.group = FreeGroup(holes - 1)
        self.delta = Word(self.group, range(1, holes))

    @property
    def rank(self) -> int:
        return self.holes - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanarSurface) and self.holes == other.holes

    def __hash__(self) -> int:
        return hash(("PlanarSurface", self.holes))

    def __repr__(self) -> str:
        return f"PlanarSurface(holes={self.holes})"

    def __str__(self) -> str:
        return f"S(0,{self.holes})"


class Curve:
    """A simple closed curve recorded by a representative word in pi1.

    An image curve is the image of ``base`` under ``phi1^n1 ... phim^nm``,
    where ``factors`` is ``((phi1, n1), ..., (phim, nm))``, the rightmost
    applied first, and ``base`` is not itself an image.  Any other curve
    has ``factors == ()`` and ``base is None``; one without the other is
    refused, and so is a curve with neither a word nor a base.

    An image's ``homology_class`` is the base's with its coefficients moved
    by the factors' hole permutations (see :func:`_class_under`); no word is
    read for it.  An image given no word (as :func:`apply` builds it) steps
    one on the first read of ``word``: the base's word under each powered
    factor, rightmost first, each power cut at its orbit's first return as
    in :func:`apply`.  The word is then kept on the curve.

    Isotopy is not decided; two Curve values describe the same free
    homotopy class when their words are conjugate (see
    :func:`are_conjugate`).
    """

    __slots__ = ("surface", "_word", "homology_class", "factors", "base")

    def __init__(
        self,
        surface: PlanarSurface,
        word: Word | None = None,
        factors: tuple[tuple[MappingClass, int], ...] = (),
        base: Curve | None = None,
    ):
        if word is not None and word.group != surface.group:
            raise ValueError("curve word does not live on the surface")
        if bool(factors) != (base is not None):
            raise ValueError("an image curve needs both its factors and its base")
        if base is not None:
            homology_class = base.homology_class
            for phi, n in reversed(factors):
                homology_class = _class_under(phi, n, homology_class)
        elif word is not None:
            homology_class = word.exponent_vector()
        else:
            raise ValueError("a curve needs a word or a base")
        self.surface = surface
        self._word = word
        self.homology_class = homology_class
        self.factors = factors
        self.base = base

    @property
    def word(self) -> Word:
        """The curve's word, stepped from the base's on first read of an image."""
        if self._word is None:
            word = self.base.word
            for phi, n in reversed(self.factors):
                step = phi if n >= 0 else phi.inverse()
                start = word
                for i in range(1, abs(n) + 1):
                    word = step(word)
                    if word == start:
                        for _ in range(abs(n) % i):
                            word = step(word)
                        break
            self._word = word
        return self._word

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Curve) and self.surface == other.surface and self.word == other.word

    def __hash__(self) -> int:
        return hash((self.surface, self.word))

    def __repr__(self) -> str:
        return f"Curve({self.word!s})"


def _class_under(phi: MappingClass, n: int, vector: tuple[int, ...]) -> tuple[int, ...]:
    """The class of phi^n(c) from the class of c: phi sends ``xi`` to a
    conjugate of ``x(p[i]+1)``, p being ``phi.permutation``, so each
    coefficient moves n steps along its cycle of p (back when n < 0).  A
    class 0 or +- the indicator vector of a hole set stays of that form."""
    out = list(vector)
    for i, coefficient in enumerate(vector):
        cycle = [i]
        while (j := phi.permutation[cycle[-1]]) != i:
            cycle.append(j)
        out[cycle[n % len(cycle)]] = coefficient
    return tuple(out)


def standard_curve(surface: PlanarSurface, holes: Sequence[int], sides: str = "") -> Curve:
    """A curve in standard position enclosing the given holes.

    The word is the product of the enclosed generators in hole order.
    ``sides`` has one flag per hole skipped between the first and last
    enclosed hole, in increasing order: ``o`` when the curve passes *over*
    it, which conjugates the next enclosed generator by the skipped one, or
    ``u`` (under).  So holes ``{1, 3}`` give ``x1 (x2 x3 x2^-1)`` with
    ``sides="o"`` and ``x1 x3`` with ``sides="u"``.  A set containing the
    outer hole ``r`` is replaced by its complement, which describes the
    same curve.
    """
    hole_set = set(holes)
    if not hole_set:
        raise ValueError("a curve must enclose at least one hole")
    for h in hole_set:
        if not 1 <= h <= surface.holes:
            raise ValueError(f"hole {h} out of range on {surface}")
    if surface.holes in hole_set:
        hole_set = set(range(1, surface.holes + 1)) - hole_set
        if not hole_set:
            raise ValueError("a curve enclosing every hole is nullhomotopic")

    enclosed = sorted(hole_set)
    skipped = [h for h in range(enclosed[0] + 1, enclosed[-1]) if h not in hole_set]
    if len(sides) != len(skipped) or set(sides) - {"o", "u"}:
        raise ValueError(f"expected one 'o'/'u' flag per skipped hole {skipped}, got {sides!r}")
    over = {h for h, flag in zip(skipped, sides) if flag == "o"}

    letters: list[int] = []
    for prev, h in zip(enclosed[:1] + enclosed, enclosed):
        passed = [g for g in range(prev + 1, h) if g in over]
        letters += passed + [h] + [-g for g in reversed(passed)]
    return Curve(surface, Word(surface.group, letters))


class MappingClass:
    """An automorphism of the surface group with a stored inverse, and the
    permutation it makes of the inner holes: ``permutation[i] = j`` when
    ``x(i+1)`` goes to a conjugate of ``x(j+1)``.

    Construction checks, for ``phi`` the map of ``images`` and ``psi`` that
    of ``inverse_images``, that phi psi = id on every generator, that the
    outer boundary word ``delta`` maps to a conjugate of itself, and that
    each image cyclically reduces to one positive generator, no two alike,
    as for every homeomorphism of a holed sphere (Artin; Birman, *Braids,
    Links, and Mapping Class Groups*, Thm 1.9).  phi psi = id makes ``phi``
    onto; free groups of finite rank are Hopfian (Nielsen, Malcev), so
    ``phi`` is an automorphism and psi phi = id follows without a second pass.

    Four builders skip the check, each on an argument: :func:`compose` and
    :meth:`inverse` inherit validity and the permutation from their
    operands, :meth:`identity` is valid by inspection, and :func:`dehn_twist`
    about a run word ``xa ... xb`` by the proof in its docstring.
    """

    __slots__ = ("surface", "images", "inverse_images", "permutation")

    def __init__(self, surface: PlanarSurface, images: Sequence[Word], inverse_images: Sequence[Word]):
        images = tuple(images)
        inverse_images = tuple(inverse_images)
        rank = surface.rank
        if len(images) != rank or len(inverse_images) != rank:
            raise ValueError(f"need {rank} generator images and inverse images")
        for w in images + inverse_images:
            if w.group != surface.group:
                raise ValueError("image word does not live on the surface")
        for w, gen in zip(inverse_images, surface.group.generators()):
            if substitute(w, images) != gen:
                raise ValueError("stored inverse images do not invert the map")
        if not are_conjugate(substitute(surface.delta, images), surface.delta):
            raise ValueError("map does not preserve the boundary word up to conjugacy")
        cores = [w.cyclic_reduction().letters for w in images]
        if sorted(cores) != [(k,) for k in range(1, rank + 1)]:
            raise ValueError("map does not send the generators to conjugates of distinct generators")
        self.surface = surface
        self.images = images
        self.inverse_images = inverse_images
        self.permutation = tuple(core[0] - 1 for core in cores)

    @classmethod
    def identity(cls, surface: PlanarSurface) -> MappingClass:
        gens = tuple(surface.group.generators())
        return cls._trusted(surface, gens, gens, tuple(range(surface.rank)))

    @classmethod
    def _trusted(cls, surface: PlanarSurface, images: tuple[Word, ...], inverse_images: tuple[Word, ...],
                 permutation: tuple[int, ...]) -> MappingClass:
        # skip validation: validity is inherited (compose, inverse) or proved (identity, run twists)
        self = object.__new__(cls)
        self.surface = surface
        self.images = images
        self.inverse_images = inverse_images
        self.permutation = permutation
        return self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MappingClass)
            and self.surface == other.surface
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.surface, self.images))

    def __repr__(self) -> str:
        body = ", ".join(f"{n} -> {w}" for n, w in zip(self.surface.group.names, self.images))
        return f"MappingClass({body})"

    def __call__(self, word: Word) -> Word:
        if word.group != self.surface.group:
            raise ValueError("word does not live on the surface")
        return substitute(word, self.images)

    def inverse(self) -> MappingClass:
        p = self.permutation
        return MappingClass._trusted(self.surface, self.inverse_images, self.images, tuple(map(p.index, range(len(p)))))


def compose(phi: MappingClass, psi: MappingClass) -> MappingClass:
    """The composite ``phi after psi``: (phi psi)(w) = phi(psi(w))."""
    if phi.surface != psi.surface:
        raise ValueError("mapping classes on different surfaces")
    images = tuple(substitute(w, phi.images) for w in psi.images)
    inverse_images = tuple(substitute(w, psi.inverse_images) for w in phi.inverse_images)
    return MappingClass._trusted(phi.surface, images, inverse_images, tuple(phi.permutation[j] for j in psi.permutation))


def power(phi: MappingClass, n: int) -> MappingClass:
    """``phi^n`` by square-and-multiply from the top bit of ``n``;
    ``power(phi, 1)`` is ``phi`` itself."""
    if n < 0:
        return power(phi.inverse(), -n)
    if n == 0:
        return MappingClass.identity(phi.surface)
    result = phi
    for bit in bin(n)[3:]:
        result = compose(result, result)
        if bit == "1":
            result = compose(result, phi)
    return result


def _product(factors: Sequence[tuple[MappingClass, int]]) -> MappingClass:
    """The composite ``phi1^n1 ... phim^nm`` of powered factors, the
    rightmost applied first; a factor to the first power is used as is."""
    return reduce(compose, (phi if n == 1 else power(phi, n) for phi, n in factors))


def apply(phi: MappingClass, target: Curve, n: int = 1) -> Curve:
    """Image of a curve under ``phi^n``, which keeps its factors.

    The image's factors are ``(phi, n)`` followed by the target's, and its
    base is the target's base, or the target itself when it has no factors.
    Its class comes from the base's (see :class:`Curve`), so nothing is
    stepped here.  Its word is stepped on first read: |n| applications of
    ``phi`` (of ``phi.inverse()`` when n < 0) to the target's word.  phi is
    injective, so an orbit that repeats first comes back to the target
    word; when step i does, |n| mod i more steps finish it, and a map
    fixing the curve costs one step whatever n is.  No map is composed or
    powered here; :func:`dehn_twist` multiplies the factors when it twists
    about the image.
    """
    if target.surface != phi.surface:
        raise ValueError("curve does not live on the mapping class surface")
    return Curve(phi.surface, None, ((phi, n),) + target.factors, target.base or target)


def dehn_twist(curve: Curve) -> MappingClass:
    """The positive Dehn twist about a curve whose word is a run, or about
    an image curve.

    A curve with no factors twists directly exactly when its word is a
    run ``c = xa ... xb`` (1 <= a <= b): the curve then encloses holes a..b
    in standard position, and conjugation by c is the honest twist action.
    This twist is built without the :class:`MappingClass` check.  phi sends
    ``xi`` to ``c xi c^-1`` for a <= i <= b and fixes the rest, and psi, the
    stored inverse, conjugates the same generators by ``c^-1``:

    * phi(c) = (c xa c^-1) ... (c xb c^-1) = c (xa ... xb) c^-1
      = c c c^-1 = c, and likewise psi(c) = c^-1 c c = c.
    * So phi(psi(xi)) = phi(c)^-1 phi(xi) phi(c) = c^-1 c xi c^-1 c = xi
      for a <= i <= b, and psi(phi(xi)) = xi the same way; both fix the
      other generators.  Conjugation by c^-1 is a two-sided inverse.
    * ``delta = x1 ... x(a-1) . c . x(b+1) ... x(r-1)``, and phi fixes
      each of the three factors, so phi(delta) = delta letter for letter.

    Those are the two facts the constructor would check.  Every other word
    (a rotation or the inverse of a run, a conjugate, a skipped standard
    curve) raises :class:`UnsupportedCurveError`.  An image curve twists as
    ``P t P^-1``, with ``t`` the twist about ``curve.base`` and ``P`` the
    product of ``curve.factors``; so ``dehn_twist(apply(phi, c))`` twists about
    phi(c).  ``t`` comes first, so a bad base raises before P is composed.
    """
    if curve.factors:
        t = dehn_twist(curve.base)
        P = _product(curve.factors)
        return compose(compose(P, t), P.inverse())
    c = curve.word
    a = c.letters[0] if c.letters else 0
    b = a + len(c) - 1
    if a < 1 or c.letters != tuple(range(a, b + 1)):
        raise UnsupportedCurveError(f"no direct twist about {c}: its word is not a run xa ... xb")
    c_inv = c.inverse()
    gens = list(enumerate(curve.surface.group.generators(), 1))
    images = tuple(c * gen * c_inv if a <= i <= b else gen for i, gen in gens)
    inverse_images = tuple(c_inv * gen * c if a <= i <= b else gen for i, gen in gens)
    return MappingClass._trusted(curve.surface, images, inverse_images, tuple(range(len(gens))))


def twist_of_image(phi: MappingClass, curve: Curve) -> MappingClass:
    """The twist about phi(curve); shorthand for ``dehn_twist(apply(phi, curve))``."""
    return dehn_twist(apply(phi, curve))


def half_twist(surface: PlanarSurface, i: int) -> MappingClass:
    """The positive half twist exchanging adjacent inner holes i and i+1.

    Not a Dehn twist itself; it is the standard scaffolding for building
    image curves (and their twists) in skipped standard positions, e.g.
    ``apply(half_twist(s, 2), standard_curve(s, (1, 2)))`` is the curve
    about holes 1 and 3 passing over hole 2.
    """
    if not 1 <= i <= surface.rank - 1:
        raise ValueError(f"half twist needs adjacent inner holes; got {i} on {surface}")
    group = surface.group
    images = []
    inverse_images = []
    for j in range(surface.rank):
        gen = group.generator(j)
        if j == i - 1:
            nxt = group.generator(i)
            images.append(gen * nxt * gen.inverse())
            inverse_images.append(nxt)
        elif j == i:
            prev = group.generator(i - 1)
            images.append(prev)
            inverse_images.append(gen.inverse() * prev * gen)
        else:
            images.append(gen)
            inverse_images.append(gen)
    return MappingClass(surface, images, inverse_images)
