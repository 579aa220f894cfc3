import random

import pytest

from conftest import random_word
from palfkit.lefschetz import mazur_family
from palfkit.words import FreeGroup, Word, are_conjugate, free_reduce, substitute

F2 = FreeGroup(2, ("x", "y"))
X, Y = F2.generators()


def test_multiply_cancels():
    assert X * Y * Y.inverse() == X


def test_identity_is_neutral():
    w = F2.word([1, 2, 1, -2])
    assert F2.identity * w == w
    assert w * F2.identity == w


def test_relator_assembles_by_reduction():
    # (xy) x times (xy)^-1 y^-1 reduces to x y x y^-1 x^-1 y^-1
    left = (X * Y) * X
    right = (X * Y).inverse() * Y.inverse()
    assert (left * right).letters == (1, 2, 1, -2, -1, -2)


def test_invert_examples():
    assert (X * Y).inverse().letters == (-2, -1)
    assert F2.identity.inverse() == F2.identity
    w = F2.word([1, 2, 1, -2, -1, -2])
    assert w.inverse().letters == (2, 1, 2, -1, -2, -1)


def test_inverse_is_involution_and_kills():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, F2, 20)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_identity


def test_multiplication_is_associative():
    rng = random.Random(12)
    for _ in range(200):
        a, b, c = (random_word(rng, F2, 12) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_mismatched_groups_rejected():
    other = FreeGroup(3)
    with pytest.raises(ValueError):
        X * other.generator(0)


def test_letters_validated():
    with pytest.raises(ValueError):
        Word(F2, [3])
    with pytest.raises(ValueError):
        Word(F2, [0])


def _reduce_random_order(letters, rng):
    # cancel adjacent inverse pairs in random order until none remain
    out = list(letters)
    while True:
        spots = [i for i in range(len(out) - 1) if out[i] == -out[i + 1]]
        if not spots:
            return tuple(out)
        i = rng.choice(spots)
        del out[i:i + 2]


def test_free_reduction_confluent():
    rng = random.Random(13)
    for _ in range(500):
        raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(30))]
        expected = free_reduce(raw)
        assert _reduce_random_order(raw, rng) == expected
        # idempotent
        assert free_reduce(expected) == expected


def test_exponent_vectors():
    w = F2.word([1, 2, -1, 2, 2])
    assert w.exponent_vector() == (0, 3)


def test_syllables_and_str():
    w = F2.word([1, 1, -2, -2, -2, 1])
    assert w.syllables() == [(0, 2), (1, -3), (0, 1)]
    assert str(w) == "x^2 y^-3 x"
    assert str(F2.identity) == "1"


def test_powers():
    w = X * Y
    assert w ** 3 == w * w * w
    assert w ** -2 == (w * w).inverse()
    assert w ** 0 == F2.identity


def test_cyclic_reduction():
    w = F2.word([1, 2, -1])  # x y x^-1
    assert w.cyclic_reduction() == Y
    assert F2.word([1, 2]).cyclic_reduction() == X * Y


def test_conjugacy():
    rng = random.Random(14)
    for _ in range(300):
        w = random_word(rng, F2, 10)
        u = random_word(rng, F2, 10)
        assert are_conjugate(w, w.conjugate(u))
    assert not are_conjugate(X, Y)
    assert not are_conjugate(X, X * X)
    assert are_conjugate(F2.identity, F2.word([1, -1]))


def test_substitute_is_homomorphism():
    rng = random.Random(15)
    target = FreeGroup(3)
    images = [random_word(rng, target, 6) for _ in range(2)]
    for _ in range(200):
        a = random_word(rng, F2, 10)
        b = random_word(rng, F2, 10)
        assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)
    assert substitute(F2.identity, images) == target.identity


def test_substitute_rejects_images_outside_target():
    # the images must live in one group, the first image's, which is the
    # result's group
    other = FreeGroup(2, ("a", "b"))
    with pytest.raises(ValueError, match="one group"):
        substitute(X * Y, [X, other.generator(0)])
    with pytest.raises(ValueError, match="one group"):
        substitute(X * Y, [other.generator(1), Y])
    with pytest.raises(ValueError, match="one group"):
        substitute(X, [FreeGroup(3).generator(2), Y])
    assert substitute(X * Y, [other.generator(1), other.generator(0)]).group == other


def test_substitute_accepts_images_from_an_equal_group():
    # equal groups (same rank and names) are one group, object identity aside
    twin = FreeGroup(2, ("x", "y"))
    assert twin is not F2 and twin == F2
    u, v = twin.generators()
    assert substitute(X * Y, [v, u]) == Y * X
    assert substitute(X * Y, [v, X]) == Y * X
    assert substitute(X * Y, [Y, u]) == Y * X
    with pytest.raises(ValueError):
        substitute(X * Y, [X, FreeGroup(2, ("x", "z")).generator(1)])
    with pytest.raises(ValueError):
        substitute(X * Y, [u, FreeGroup(2, ("y", "x")).generator(0)])


def test_substitute_repeated_inverse_letters_match_naive():
    # x^-3 y^-2 x^-1: each inverse image is reused, never mutated in place
    target = FreeGroup(3)
    a, b, c = target.generators()
    images = [a * b * c.inverse(), b * b * a]
    w = F2.word([-1, -1, -1, -2, -2, -1])
    naive = []
    for x in w.letters:
        img = images[abs(x) - 1].letters
        naive.extend(img if x > 0 else _naive_inverse(img))
    assert substitute(w, images) == Word(target, naive)
    assert substitute(w, images) == (images[0] ** -3) * (images[1] ** -2) * images[0].inverse()
    assert substitute(w * w, images) == Word(target, naive + naive)


def _naive_inverse(letters):
    return tuple(-x for x in reversed(letters))


def test_trusted_results_match_validating_constructor():
    # the group operations build their results without re-validating or
    # fully re-reducing; each must equal the validating constructor applied
    # to the naive letter sequence
    rng = random.Random(16)
    groups = (F2, FreeGroup(3))
    for _ in range(600):
        group = rng.choice(groups)
        a = random_word(rng, group, 12)
        b = random_word(rng, group, 12)
        if rng.random() < 0.5:  # make b undo a tail of a, so cancellation crosses the junction
            b = Word(group, _naive_inverse(a.letters[len(a) - rng.randrange(len(a) + 1):]) + b.letters)
        assert a.inverse() == Word(group, _naive_inverse(a.letters))
        assert a * b == Word(group, a.letters + b.letters)
        assert b * a == Word(group, b.letters + a.letters)
        assert a.conjugate(b) == Word(group, b.letters + a.letters + _naive_inverse(b.letters))
        k = rng.randrange(-3, 4)
        assert a ** k == Word(group, (a.letters if k >= 0 else _naive_inverse(a.letters)) * abs(k))
        target = rng.choice(groups)
        images = [random_word(rng, target, 6) for _ in range(group.rank)]
        naive = []
        for x in a.letters:
            img = images[abs(x) - 1].letters
            naive.extend(img if x > 0 else _naive_inverse(img))
        assert substitute(a, images) == Word(target, naive)


def _naive_cyclic_core(letters):
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return tuple(letters)


def test_rotations_and_least_rotation_match_naive():
    rng = random.Random(17)
    groups = (F2, FreeGroup(3))
    for _ in range(600):
        group = rng.choice(groups)
        w = random_word(rng, group, 14)
        if rng.random() < 0.3:  # give it a conjugating shell to strip
            w = w.conjugate(random_word(rng, group, 4))
        assert w.least_rotation() == Word(group, _all_rotations_min(w.letters))


def _all_rotations_min(letters):
    # the least rotation by brute force: every rotation of the cyclic core
    core = _naive_cyclic_core(letters)
    return min((core[i:] + core[:i] for i in range(len(core))), default=())


def test_least_rotation_edge_cases_match_all_rotations():
    # Duval's scan against the brute-force minimum on the inputs where its
    # run bookkeeping matters: periodic words, one-letter powers, runs of
    # the least letter, the empty word and the family's long gamma_n words
    rng = random.Random(19)
    groups = (F2, FreeGroup(3))
    words = [F2.identity, F2.word([1, -1])]
    for _ in range(200):
        group = rng.choice(groups)
        u = random_word(rng, group, 6).cyclic_reduction()
        words.append(u ** rng.randrange(1, 31))
    for _ in range(100):
        group = rng.choice(groups)
        x = rng.choice([g for g in range(-group.rank, group.rank + 1) if g])
        words.append(group.word([x] * rng.randrange(1, 40)))
    for _ in range(200):
        group = rng.choice(groups)
        least = -group.rank
        letters = []
        for _ in range(rng.randrange(1, 8)):
            letters += [least] * rng.randrange(1, 5)
            letters.append(rng.randrange(1, group.rank))  # never -least, which would cancel
            letters += random_word(rng, group, 3).letters
        words.append(group.word(letters))
    words += [mazur_family(n).cycles[2].word for n in (1, 2, 7, 60, 120, 480)]
    assert len(words) >= 500
    for w in words:
        assert w.least_rotation().letters == _all_rotations_min(w.letters), w


def _doubled_string_conjugate(u, v):
    a = _naive_cyclic_core(u.letters)
    b = _naive_cyclic_core(v.letters)
    return len(a) == len(b) and (not a or any((b + b)[i:i + len(a)] == a for i in range(len(a))))


def test_are_conjugate_matches_doubled_string_oracle():
    rng = random.Random(18)
    groups = (F2, FreeGroup(3))
    related = 0
    for _ in range(600):
        group = rng.choice(groups)
        u = random_word(rng, group, 8)
        w = random_word(rng, group, 6)
        v = rng.choice((u.conjugate(w), u.inverse().conjugate(w), random_word(rng, group, 8)))
        expected = _doubled_string_conjugate(u, v)
        assert are_conjugate(u, v) == expected == are_conjugate(v, u)
        assert are_conjugate(u, u.conjugate(w))
        related += expected
    assert 200 < related < 600  # both outcomes are exercised
    with pytest.raises(ValueError):
        are_conjugate(X, FreeGroup(3).generator(0))
