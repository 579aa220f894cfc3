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
    # the cokernel of ((2, -1), (1, 1)) is Z/3, and a lone relator x^2 is one
    # column: Z + Z/2, where a row would give Z/2
    assert pres(("x", "y"), [1, 2, 1], [2, -1]).abelianization_invariants() == (0, (3,))
    assert pres(("x", "y"), [1, 1]).abelianization_invariants() == (1, (2,))


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
            substitute(substitute(other, images), down)
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


def test_shorten_by_product_returns_a_shorter_product():
    # order aside, a move replaces exactly one relator ri by a strictly
    # shorter (ri * f).cyclic_reduction(), f a rotation of another relator's
    # cyclic core or its inverse; None comes back only when no such product
    # is shorter
    rng = random.Random(67)
    shortened = 0
    for case in range(600):
        p = random_presentation(rng, max_rank=3, max_relators=4, max_len=10)
        relators = list(p.relators)
        if relators and case % 2:  # a product with another relator, so a move exists
            a, b = rng.choice(relators), rng.choice(relators)
            relators.append((a * b.conjugate(random_word(rng, p.group, 2))).cyclic_reduction())
        products = [set() for _ in relators]
        for i, ri in enumerate(relators):
            for j, rj in enumerate(relators):
                if i == j:
                    continue
                core = rj.cyclic_reduction().letters
                for s in range(len(core)):
                    rotated = Word(p.group, _rotation(core, s))
                    for factor in (rotated, rotated.inverse()):
                        products[i].add((ri * factor).cyclic_reduction())
        result = _shorten_by_product(relators)
        if result is None:
            assert all(len(c) >= len(ri) for ri, found in zip(relators, products) for c in found), relators
            continue
        changed = [i for i, (old, new) in enumerate(zip(relators, result)) if old != new]
        assert len(result) == len(relators) and len(changed) == 1, (relators, result)
        i = changed[0]
        assert len(result[i]) < len(relators[i]) and result[i] in products[i], (relators, result)
        shortened += 1
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
