import hashlib
import itertools
import random

import pytest

from conftest import random_presentation, random_word
from palfkit.grammar import parse_monodromy
from palfkit.lefschetz import mazur_family, pi1_presentation
from palfkit.presentation import (
    TRIVIAL,
    UNKNOWN,
    Presentation,
    _eliminate,
    _product_length,
    _shorten_by_product,
    simplify_presentation,
)
from palfkit.words import FreeGroup, Word, substitute


def pres(names, *relator_letter_lists):
    group = FreeGroup(len(names), names)
    return Presentation(group, [Word(group, ls) for ls in relator_letter_lists])


def test_single_generator_killed():
    result = simplify_presentation(pres(("x",), [1]))
    assert result.verdict == TRIVIAL
    assert result.presentation.rank == 0


def test_cascading_elimination():
    result = simplify_presentation(pres(("x", "y"), [1, 2], [2]))
    assert result.verdict == TRIVIAL


def test_commutator_stays_unknown():
    result = simplify_presentation(pres(("x", "y"), [1, 2, -1, -2]))
    assert result.verdict == UNKNOWN
    assert result.presentation.rank == 2


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        simplify_presentation(pres(("x",), [1]), budget=0)


def test_budget_respected():
    # needs two eliminations; with budget 1 it cannot finish
    result = simplify_presentation(pres(("x", "y"), [1, 2], [2]), budget=1)
    assert result.moves <= 1
    assert result.verdict == UNKNOWN


def test_free_group_is_unknown():
    result = simplify_presentation(pres(("x", "y")))
    assert result.verdict == UNKNOWN


def test_conjugated_relator_still_collapses():
    # y (xy) y^-1 and y: conjugation must not hide the elimination
    result = simplify_presentation(pres(("x", "y"), [2, 1, 2, -2], [2]))
    assert result.verdict == TRIVIAL


def test_length_reduction_helps():
    # <x | x^5, x^3> is trivial: repeated products reduce to x
    result = simplify_presentation(pres(("x",), [1] * 5, [1] * 3))
    assert result.verdict == TRIVIAL


def test_never_false_trivial_on_nontrivial_abelianization():
    rng = random.Random(51)
    checked = 0
    while checked < 300:
        p = random_presentation(rng)
        free_rank, torsion = p.abelianization_invariants()
        if free_rank == 0 and not torsion:
            continue
        result = simplify_presentation(p, budget=60)
        assert result.verdict == UNKNOWN, f"false Trivial on {p}"
        checked += 1


def test_abelianization_preserved():
    rng = random.Random(52)
    for _ in range(500):
        p = random_presentation(rng)
        before = p.abelianization_invariants()
        result = simplify_presentation(p, budget=60)
        after = result.presentation.abelianization_invariants()
        assert before == after, f"{p} -> {result.presentation}"


def test_exponent_matrix_columns_are_relators():
    p = pres(("x", "y"), [1, 2, 1], [2, -1])
    m = p.exponent_matrix()
    assert m.rows == ((2, -1), (1, 1))


def test_deficiency():
    assert pres(("x", "y"), [1]).deficiency == 1
    assert pres(("x",)).deficiency == 1
    assert pres(("x", "y"), [1], [2], [1, 2]).deficiency == -1


def test_str_and_relator_validation():
    p = pres(("x", "y"), [1, 2])
    assert str(p) == "x y | x y"
    other = FreeGroup(1)
    with pytest.raises(ValueError):
        Presentation(p.group, [other.generator(0)])


def _eliminate_two_pass(group, relators):
    # the reference elimination: solve for the generator in the old group,
    # substitute it there, then rename the remaining generators down
    for ridx, rel in enumerate(relators):
        counts = {}
        for x in rel.letters:
            counts[abs(x)] = counts.get(abs(x), 0) + 1
        single = sorted(g for g, c in counts.items() if c == 1)
        if not single:
            continue
        target = single[0]
        pos = next(i for i, x in enumerate(rel.letters) if abs(x) == target)
        u = Word(group, rel.letters[:pos])
        v = Word(group, rel.letters[pos + 1:])
        solution = u.inverse() * v.inverse() if rel.letters[pos] > 0 else v * u
        images = [solution if i == target - 1 else group.generator(i) for i in range(group.rank)]
        new_group = FreeGroup(group.rank - 1, tuple(n for i, n in enumerate(group.names) if i != target - 1))
        down = [Word(new_group, (i if i < target else i - 1,)) if i != target else new_group.identity
                for i in range(1, group.rank + 1)]
        return new_group, [
            substitute(substitute(other, images), down, target=new_group)
            for i, other in enumerate(relators) if i != ridx
        ]
    return None


def test_elimination_matches_two_pass_substitution():
    rng = random.Random(53)
    eliminated = 0
    while eliminated < 500:
        p = random_presentation(rng, max_rank=5, max_relators=5, max_len=12)
        relators = [r for r in p.relators if r]
        expected = _eliminate_two_pass(p.group, relators)
        assert _eliminate(p.group, relators) == expected, p
        eliminated += expected is not None


def _rotation(letters, s):
    return letters[s:] + letters[:s]


def test_product_length_matches_built_product():
    # every rotation f of rj's core and its inverse, read in place, against
    # the length of the product built with validating words
    rng = random.Random(61)
    groups = (FreeGroup(1), FreeGroup(2), FreeGroup(3))
    kinds = {"full": 0, "one letter": 0, "longer factor": 0, "general": 0}
    zero_seen = 0
    pairs = 0
    while pairs < 600:
        group = rng.choice(groups)
        kind = list(kinds)[pairs % 4]
        if kind == "full":  # rj is a rotation of ri^-1, so some product is 1
            ri = random_word(rng, group, 10).cyclic_reduction()
            rj = Word(group, _rotation(ri.inverse().letters, rng.randrange(len(ri) or 1)))
        elif kind == "one letter":
            ri, rj = random_word(rng, group, 1), random_word(rng, group, rng.choice((1, 6)))
            if rng.random() < 0.5:
                ri, rj = rj, ri
        elif kind == "longer factor":
            ri, rj = random_word(rng, group, 4), random_word(rng, group, 14)
        else:
            ri, rj = random_word(rng, group, 12), random_word(rng, group, 12)
            if rng.random() < 0.3:  # a word that is not cyclically reduced
                ri = ri.conjugate(random_word(rng, group, 3))
        core = rj.cyclic_reduction()
        m = len(core)
        if m == 0:
            continue
        if kind == "longer factor" and m <= len(ri):
            continue
        if kind == "one letter" and min(len(ri), m) != 1:
            continue
        pairs += 1
        kinds[kind] += 1
        forward, backward = core.letters * 2, core.inverse().letters * 2
        for s in range(m):
            rotated = Word(group, _rotation(core.letters, s))
            for factor, doubled, shift in ((rotated, forward, s), (rotated.inverse(), backward, (m - s) % m)):
                assert doubled[shift:shift + m] == factor.letters
                expected = len((ri * factor).cyclic_reduction())
                assert _product_length(ri.letters, doubled, shift) == expected, (ri, factor)
                zero_seen += expected == 0
    assert min(kinds.values()) >= 150 and zero_seen >= 150


def _shorten_by_product_built(relators):
    # the reference search: build every rotation, its inverse and the product
    for i, ri in enumerate(relators):
        for j, rj in enumerate(relators):
            if i == j:
                continue
            core = rj.cyclic_reduction().letters
            for s in range(len(core)):
                rotated = Word(rj.group, _rotation(core, s))
                for factor in (rotated, rotated.inverse()):
                    candidate = (ri * factor).cyclic_reduction()
                    if len(candidate) < len(ri):
                        out = list(relators)
                        out[i] = candidate
                        return out
    return None


def test_shorten_by_product_matches_built_search():
    rng = random.Random(67)
    shortened = 0
    for case in range(600):
        p = random_presentation(rng, max_rank=3, max_relators=4, max_len=10)
        relators = list(p.relators)
        if relators and case % 2:  # a product with another relator, so a move exists
            a, b = rng.choice(relators), rng.choice(relators)
            relators.append((a * b.conjugate(random_word(rng, p.group, 2))).cyclic_reduction())
        expected = _shorten_by_product_built(relators)
        assert _shorten_by_product(relators) == expected, relators
        shortened += expected is not None
    assert 150 <= shortened <= 450


# sha256 over (verdict, moves, relators, generator names) for the 512 grid
# presentations of the palf benchmark and mazur_family(n), n = 1..20, taken
# from the search that built every product
TIETZE_PIN = "47b41ddcce1cf2a63e7225a6268906a41ba1d7b5112343fefad52aab36512009"


def test_tietze_outputs_pinned():
    choices = list(itertools.product(("Tg Tb", "Tb Tg", "Tg Ta Tb", "Ta Tg"), (2, 3)))
    bases = ("std{1,2}", "std{2,3}", "std{1,2}")
    specs = [
        parse_monodromy("S(0,4); " + "; ".join(f"T apply(({w})^{k}, {b})" for (w, k), b in zip(cycles, bases)))
        for cycles in itertools.product(choices, repeat=len(bases))
    ]
    specs += [mazur_family(n) for n in range(1, 21)]
    digest = hashlib.sha256()
    for spec in specs:
        result = simplify_presentation(pi1_presentation(spec))
        p = result.presentation
        digest.update(repr((result.verdict, result.moves, tuple(r.letters for r in p.relators), p.group.names)).encode())
    assert len(specs) == 532
    assert digest.hexdigest() == TIETZE_PIN
