"""Freely reduced words in a finitely generated free group.

Letters are nonzero integers: ``k`` is the (k-1)-th generator and ``-k``
its inverse.  Every :class:`Word` is stored freely reduced, so equality
of words is equality of group elements.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class FreeGroup:
    """A free group of finite rank; generators print as ``x1 .. x(rank)`` unless named."""

    __slots__ = ("rank", "names")

    def __init__(self, rank: int, names: Sequence[str] | None = None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if names is None:
            names = tuple(f"x{i + 1}" for i in range(rank))
        if len(names) != rank:
            raise ValueError(f"expected {rank} generator names, got {len(names)}")
        if len(set(names)) != rank:
            raise ValueError("generator names must be distinct")
        self.rank = rank
        self.names = tuple(names)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, FreeGroup) and self.rank == other.rank and self.names == other.names

    def __hash__(self) -> int:
        return hash((self.rank, self.names))

    def __repr__(self) -> str:
        return f"FreeGroup({', '.join(self.names)})" if self.rank else "FreeGroup()"

    def word(self, letters: Iterable[int] = ()) -> Word:
        return Word(self, letters)

    def generator(self, index: int) -> Word:
        """The one-letter word for generator ``index`` (0-based)."""
        if not 0 <= index < self.rank:
            raise ValueError(f"generator index {index} out of range for rank {self.rank}")
        return Word._trusted(self, (index + 1,))

    def generators(self) -> list[Word]:
        return [self.generator(i) for i in range(self.rank)]

    @property
    def identity(self) -> Word:
        return Word._trusted(self, ())


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence; cancels every adjacent ``k, -k`` pair."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _join(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Concatenate two freely reduced letter tuples, cancelling only at the
    junction; the result is freely reduced."""
    k = 0
    limit = min(len(left), len(right))
    while k < limit and left[-1 - k] == -right[k]:
        k += 1
    return left[:len(left) - k] + right[k:]


def _inverse_letters(letters: tuple[int, ...]) -> tuple[int, ...]:
    # built from a list, so the tuple is allocated once at its final size;
    # tuple() over a generator grows it by resizing, which fragments the heap
    return tuple([-x for x in reversed(letters)])


class Word:
    """An element of a free group, always freely reduced.

    >>> F = FreeGroup(2, ("x", "y"))
    >>> x, y = F.generators()
    >>> x * y * y.inverse()
    Word('x')
    >>> (x * y).inverse()
    Word('y^-1 x^-1')
    """

    __slots__ = ("group", "letters")

    def __init__(self, group: FreeGroup, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for x in letters:
            if x == 0 or abs(x) > group.rank:
                raise ValueError(f"letter {x} out of range for rank {group.rank}")
        self.group = group
        self.letters = free_reduce(letters)

    @classmethod
    def _trusted(cls, group: FreeGroup, letters: tuple[int, ...]) -> Word:
        # skip validation and reduction: the letters are already in range for
        # the group and freely reduced, e.g. a product of reduced words after
        # junction cancellation or the output of free_reduce
        self = object.__new__(cls)
        self.group = group
        self.letters = letters
        return self

    # -- basic protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.group == other.group and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.group.rank, self.letters))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        names = self.group.names
        parts = []
        for gen, exp in self.syllables():
            parts.append(names[gen] if exp == 1 else f"{names[gen]}^{exp}")
        return " ".join(parts)

    # -- group operations ----------------------------------------------

    def _check_group(self, other: Word) -> None:
        if self.group != other.group:
            raise ValueError("words live in different free groups")

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        self._check_group(other)
        return Word._trusted(self.group, _join(self.letters, other.letters))

    def inverse(self) -> Word:
        return Word._trusted(self.group, _inverse_letters(self.letters))

    def __pow__(self, n: int) -> Word:
        if n < 0:
            return self.inverse() ** (-n)
        return Word._trusted(self.group, free_reduce(self.letters * n))

    def conjugate(self, by: Word) -> Word:
        """Return ``by * self * by^-1``."""
        self._check_group(by)
        return Word._trusted(self.group, _join(_join(by.letters, self.letters), _inverse_letters(by.letters)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    # -- structure -----------------------------------------------------

    def syllables(self) -> list[tuple[int, int]]:
        """Maximal runs as ``(generator index, exponent)`` pairs."""
        out: list[tuple[int, int]] = []
        for x in self.letters:
            gen, sign = abs(x) - 1, (1 if x > 0 else -1)
            if out and out[-1][0] == gen:
                out[-1] = (gen, out[-1][1] + sign)
            else:
                out.append((gen, sign))
        return out

    def exponent_vector(self) -> tuple[int, ...]:
        """Image in the abelianization Z^rank."""
        vec = [0] * self.group.rank
        for x in self.letters:
            vec[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(vec)

    def cyclic_reduction(self) -> Word:
        letters = self.letters
        lo, hi = 0, len(letters)
        while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
            lo += 1
            hi -= 1
        return Word._trusted(self.group, letters[lo:hi])

    def least_rotation(self) -> Word:
        """The least rotation of the cyclic reduction, comparing letter
        tuples; two words are conjugate exactly when these agree.

        Duval's Lyndon-factorization scan over the doubled core finds it in
        O(L) letter comparisons (J. Algorithms 4, 1983).

        >>> F = FreeGroup(2, ("x", "y"))
        >>> F.word([2, 1, 2, 1, 1]).least_rotation()
        Word('x^2 y x y')
        >>> F.word([2, 1] * 3).least_rotation()
        Word('x y x y x y')
        """
        core = self.cyclic_reduction().letters
        doubled = core + core
        n = len(core)
        # each pass reads one run u^k v from i, where u is a Lyndon word and
        # v a proper prefix of u, and moves i past the k copies of u; the
        # least rotation begins the last run that starts before n
        i = start = 0
        while i < n:
            start = i
            j, k = i + 1, i
            while j < 2 * n and doubled[k] <= doubled[j]:
                k = i if doubled[k] < doubled[j] else k + 1
                j += 1
            while i <= k:
                i += j - k
        return Word._trusted(self.group, doubled[start:start + n])


def substitute(word: Word, images: Sequence[Word]) -> Word:
    """Apply the homomorphism sending generator ``i`` to ``images[i]``.

    The result lives in the group of the image words (the word's own group
    when there are none), and the images must all live in one group.
    """
    if len(images) != word.group.rank:
        raise ValueError("need one image word per generator")
    target = images[0].group if images else word.group
    for img in images:
        if img.group is not target and img.group != target:
            raise ValueError("image words must live in one group")
    # an inverse image is built only for a letter that occurs inverted
    inverses: dict[int, tuple[int, ...]] = {}
    letters: list[int] = []
    for x in word.letters:
        if x > 0:
            letters += images[x - 1].letters
        else:
            block = inverses.get(x)
            if block is None:
                block = inverses[x] = _inverse_letters(images[-x - 1].letters)
            letters += block
    return Word._trusted(target, free_reduce(letters))


def are_conjugate(u: Word, v: Word) -> bool:
    """Conjugacy test: equal cyclic reductions up to rotation."""
    u._check_group(v)
    return u.least_rotation() == v.least_rotation()
