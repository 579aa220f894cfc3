"""Integer group-ring elements over a free group, Fox derivatives,
and abelianization to Laurent polynomials.

The Fox free derivative with respect to a generator g follows the rules
d(g)/dg = 1, d(g^-1)/dg = -g^-1 and d(uv)/dg = du/dg + u * dv/dg.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .laurent import LaurentPoly, _exact_int
from .words import FreeGroup, Word


class GroupRingElement:
    """A finite integer combination of free-group words; a coefficient
    that is not exactly an integer raises TypeError, never truncated."""

    __slots__ = ("group", "terms")

    def __init__(self, group: FreeGroup, terms: Mapping[Word, int] | None = None):
        clean: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                if w.group != group:
                    raise ValueError("term word lives in a different free group")
                c = _exact_int(c)
                if c:
                    clean[w] = c
        self.group = group
        self.terms = clean

    @classmethod
    def _trusted(cls, group: FreeGroup, terms: dict[Word, int]) -> GroupRingElement:
        # skip validation and the copy: every word of ``terms`` lives in
        # ``group`` and every coefficient is a nonzero int, e.g. the prefix
        # terms of fox_derivative; ``terms`` is kept, not copied
        self = object.__new__(cls)
        self.group = group
        self.terms = terms
        return self

    @classmethod
    def zero(cls, group: FreeGroup) -> GroupRingElement:
        return cls(group)

    @classmethod
    def one(cls, group: FreeGroup) -> GroupRingElement:
        return cls(group, {group.identity: 1})

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> GroupRingElement:
        return cls(word.group, {word: coeff})

    # -- basic protocol ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.group, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupRingElement(0)"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w.letters)):
            c = self.terms[w]
            body = str(w) if c in (1, -1) else f"{abs(c)}*{w}"
            parts.append(("+ " if c > 0 else "- ") + body if parts else ("-" + body if c < 0 else body))
        return f"GroupRingElement({' '.join(parts)!r})"

    def _check(self, other: GroupRingElement) -> None:
        if self.group != other.group:
            raise ValueError("group-ring elements over different free groups")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: GroupRingElement) -> GroupRingElement:
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(self.group, out)

    def __neg__(self) -> GroupRingElement:
        return GroupRingElement(self.group, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: GroupRingElement) -> GroupRingElement:
        return self + (-other)

    def __mul__(self, other: GroupRingElement | Word | int) -> GroupRingElement:
        if isinstance(other, int):
            return GroupRingElement(self.group, {w: c * other for w, c in self.terms.items()})
        if isinstance(other, Word):
            other = GroupRingElement.from_word(other)
        self._check(other)
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(self.group, out)

    def __rmul__(self, other: Word | int) -> GroupRingElement:
        if isinstance(other, int):
            return self * other
        if isinstance(other, Word):
            return GroupRingElement.from_word(other) * self
        return NotImplemented


def fox_derivative(word: Word, generator: int) -> GroupRingElement:
    """Fox derivative of ``word`` with respect to generator ``generator`` (0-based).

    >>> F = FreeGroup(2, ("x", "y"))
    >>> x, y = F.generators()
    >>> fox_derivative(x, 0)
    GroupRingElement('1')
    >>> fox_derivative(x.inverse(), 0)
    GroupRingElement('-x^-1')
    """
    group = word.group
    if not 0 <= generator < group.rank:
        raise ValueError(f"generator index {generator} out of range for rank {group.rank}")
    target = generator + 1
    letters = word.letters
    terms: dict[Word, int] = {}
    # each term is a prefix of the reduced word, so it is reduced, lives in
    # the word's group and needs no validation; no two occurrences give the
    # same prefix (a +g right after a -g would cancel), so every coefficient
    # is +-1 and the dict is a valid element as it stands
    for i, x in enumerate(letters):
        if x == target:
            terms[Word._trusted(group, letters[:i])] = 1
        elif x == -target:
            terms[Word._trusted(group, letters[:i + 1])] = -1
    return GroupRingElement._trusted(group, terms)


def abelianize(element: GroupRingElement, weights: Sequence[int]) -> LaurentPoly:
    """Ring homomorphism to Z[t, t^-1] sending each word to t^(weighted exponent
    sum); a term extending the term before it adds only its new letters' sum.

    >>> x, y = FreeGroup(2, ("x", "y")).generators()
    >>> abelianize(fox_derivative(x * y * x * y.inverse(), 0), (1, 1))
    LaurentPoly('1 + t^2')
    >>> abelianize(GroupRingElement(x.group, {x * y: 1, y * y: -1}), (1, -1))
    LaurentPoly('-t^-2 + 1')
    """
    if len(weights) != element.group.rank:
        raise ValueError("need one weight per generator")
    image: dict[int, int] = {}
    for i, weight in enumerate(weights):
        image[i + 1], image[-i - 1] = weight, -weight
    out: dict[int, int] = {}
    prev, e = (), 0
    for w, c in element.terms.items():
        letters, k = w.letters, len(prev)
        if k and (len(letters) < k or letters[k - 1] != prev[-1] or letters[:k] != prev):
            e = k = 0
        e += sum(map(image.__getitem__, letters[k:]))
        out[e] = out.get(e, 0) + c
        prev = letters
    return LaurentPoly(out)
