"""Finite group presentations and a bounded Tietze simplification heuristic.

Every move applied by :func:`simplify_presentation` preserves the
isomorphism class of the presented group (relator conjugation and
inversion, multiplying one relator by another, and eliminating a
generator through a relator that mentions it exactly once), so a
``Trivial`` verdict is always sound.  ``Unknown`` promises nothing.

Each step eliminates a generator when some relator allows it; only when
none does is a relator replaced by a shorter product with another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intmatrix import IntMatrix, cokernel_invariants
from .words import FreeGroup, Word, substitute

TRIVIAL = "Trivial"
UNKNOWN = "Unknown"


class Presentation:
    """A presentation ``<x1..xn | r1, ..., rk>`` with reduced relators."""

    __slots__ = ("group", "relators")

    def __init__(self, group: FreeGroup, relators: Iterable[Word] = ()):
        rels = tuple(relators)
        for r in rels:
            if r.group != group:
                raise ValueError("relator lives in a different free group")
        self.group = group
        self.relators = rels

    @property
    def rank(self) -> int:
        return self.group.rank

    @property
    def deficiency(self) -> int:
        return self.group.rank - len(self.relators)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Presentation)
            and self.group == other.group
            and self.relators == other.relators
        )

    def __str__(self) -> str:
        gens = " ".join(self.group.names)
        rels = ", ".join(str(r) for r in self.relators)
        return f"{gens} | {rels}" if rels else f"{gens} |"

    def abelianization_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion orders) of the abelianized group: the cokernel
        of the rank x len(relators) matrix whose columns are the relators'
        exponent vectors."""
        return cokernel_invariants(IntMatrix.from_columns([r.exponent_vector() for r in self.relators], self.rank))


@dataclass(frozen=True)
class SimplifyResult:
    verdict: str  # TRIVIAL or UNKNOWN
    presentation: Presentation
    moves: int


def _cyclic_canonical(word: Word) -> Word:
    """Least rotation of the cyclic reduction of the word or its inverse."""
    return min(word.least_rotation(), word.inverse().least_rotation(), key=lambda w: w.letters)


def _normalized(relators: Sequence[Word]) -> list[Word]:
    seen = set()
    out = []
    for r in relators:
        c = _cyclic_canonical(r)
        if c.is_identity or c.letters in seen:
            continue
        seen.add(c.letters)
        out.append(c)
    out.sort(key=lambda w: (len(w), w.letters))
    return out


def _eliminate(group: FreeGroup, relators: list[Word]) -> tuple[FreeGroup, list[Word]] | None:
    """Drop one generator via a relator that mentions it exactly once."""
    for ridx, rel in enumerate(relators):
        counts: dict[int, int] = {}
        for x in rel.letters:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        single = sorted(g for g, c in counts.items() if c == 1)
        if not single:
            continue
        target = single[0]
        pos = next(i for i, x in enumerate(rel.letters) if abs(x) == target)
        u = Word._trusted(group, rel.letters[:pos])
        v = Word._trusted(group, rel.letters[pos + 1:])
        # u g v = 1 gives g = u^-1 v^-1; u g^-1 v = 1 gives g = v u
        solution = u.inverse() * v.inverse() if rel.letters[pos] > 0 else v * u

        new_group = FreeGroup(
            group.rank - 1,
            tuple(n for i, n in enumerate(group.names) if i != target - 1),
        )
        # the solution avoids the target, so letters past it move down one place
        moved = tuple(x - 1 if x > target else x + 1 if x < -target else x for x in solution.letters)
        images = new_group.generators()
        images.insert(target - 1, Word._trusted(new_group, moved))
        new_relators = [substitute(other, images) for i, other in enumerate(relators) if i != ridx]
        return new_group, new_relators
    return None


def _shorten_by_product(relators: list[Word]) -> list[Word] | None:
    """Replace some relator by a strictly shorter product with another.

    Candidates ``(ri * f).cyclic_reduction()`` are tried in the order i,
    j != i, rotation s of rj's cyclic core, then that rotation and its
    inverse; the first that is shorter than ri replaces it.
    """
    for i, ri in enumerate(relators):
        for j, rj in enumerate(relators):
            if i == j:
                continue
            core = rj.cyclic_reduction().letters
            for s in range(len(core)):
                rotated = Word._trusted(ri.group, core[s:] + core[:s])
                for factor in (rotated, rotated.inverse()):
                    candidate = (ri * factor).cyclic_reduction()
                    if len(candidate) < len(ri):
                        out = list(relators)
                        out[i] = candidate
                        return out
    return None


def simplify_presentation(p: Presentation, budget: int = 200) -> SimplifyResult:
    """Attempt to certify triviality of the presented group by Tietze moves.

    Returns ``TRIVIAL`` only when the presentation collapses to zero
    generators; this is sound but deliberately incomplete, so
    ``UNKNOWN`` does not mean the group is nontrivial.

    Every move keeps H1, and a trivial group has H1 = 0, so a presentation
    with H1 != 0 can only end ``UNKNOWN``; the search still runs on it,
    product moves included.  ``report.palf_summary`` skips the search for
    that reason; a library caller should likewise check
    ``p.abelianization_invariants() == (0, ())`` first.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    group = p.group
    relators = _normalized(p.relators)
    moves = 0
    while moves < budget and group.rank:
        step = _eliminate(group, relators)
        if step is None:
            shorter = _shorten_by_product(relators)
            if shorter is None:
                break
            step = group, shorter
        group, relators = step[0], _normalized(step[1])
        moves += 1
    verdict = TRIVIAL if group.rank == 0 else UNKNOWN
    return SimplifyResult(verdict, Presentation(group, relators), moves)
