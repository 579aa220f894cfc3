import random

import pytest

from conftest import random_word
from palfkit.groupring import GroupRingElement, abelianize, fox_derivative
from palfkit.knots import ribbon_presentation
from palfkit.laurent import LaurentPoly
from palfkit.words import FreeGroup

F2 = FreeGroup(2, ("x", "y"))
X, Y = F2.generators()
ONE = GroupRingElement.one(F2)


def test_defining_rules():
    assert fox_derivative(X, 0) == ONE
    assert fox_derivative(X.inverse(), 0) == GroupRingElement.from_word(X.inverse(), -1)
    assert fox_derivative(X, 1) == GroupRingElement.zero(F2)
    assert fox_derivative(F2.identity, 0) == GroupRingElement.zero(F2)


def test_ribbon_relator_derivative():
    # d/dx of x y x y^-1 x^-1 y^-1 is 1 + xy - xyxy^-1x^-1
    w = F2.word([1, 2, 1, -2, -1, -2])
    expected = (
        ONE
        + GroupRingElement.from_word(X * Y)
        - GroupRingElement.from_word(F2.word([1, 2, 1, -2, -1]))
    )
    assert fox_derivative(w, 0) == expected


def test_generator_out_of_range():
    with pytest.raises(ValueError):
        fox_derivative(X, 2)


def test_product_rule():
    rng = random.Random(21)
    for _ in range(500):
        u = random_word(rng, F2, 30)
        v = random_word(rng, F2, 30)
        g = rng.randrange(2)
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + u * fox_derivative(v, g)
        assert lhs == rhs


def test_fundamental_identity():
    # sum_g d(w)/dg * (g - 1) = w - 1
    rng = random.Random(22)
    F3 = FreeGroup(3)
    for _ in range(1000):
        w = random_word(rng, F3, 20)
        total = GroupRingElement.zero(F3)
        for g in range(3):
            gen = GroupRingElement.from_word(F3.generator(g)) - GroupRingElement.one(F3)
            total = total + fox_derivative(w, g) * gen
        assert total == GroupRingElement.from_word(w) - GroupRingElement.one(F3)


def _reference_derivative(w, g):
    # the Fox rules read left to right, every prefix built as a validated word
    terms = {}
    prefix = []
    for x in w.letters:
        if abs(x) == g + 1:
            term = w.group.word(prefix + [x] if x < 0 else prefix)
            terms[term] = terms.get(term, 0) + (1 if x > 0 else -1)
        prefix.append(x)
    return GroupRingElement(w.group, terms)


def _one_pass_row(letters, weights, rank):
    # the abelianized Fox row with a running weighted exponent e: a letter +g
    # adds t^e to column g, then e += w_g; a letter -g does e -= w_g, then
    # subtracts t^e
    row = [LaurentPoly.zero() for _ in range(rank)]
    e = 0
    for x in letters:
        g = abs(x) - 1
        if x > 0:
            row[g] += LaurentPoly.one().shift(e)
            e += weights[g]
        else:
            e -= weights[g]
            row[g] -= LaurentPoly.one().shift(e)
    return row


def test_abelianized_fox_row_matches_one_pass_oracle():
    rng = random.Random(86)
    one = LaurentPoly.one()
    for case in range(600):
        rank = rng.randrange(1, 5)
        group = FreeGroup(rank)
        r = random_word(rng, group, 30)
        weights = [rng.randrange(-3, 4) for _ in range(rank)]
        if case % 4 == 0:
            weights[rng.randrange(rank)] = 0
        derivatives = [fox_derivative(r, j) for j in range(rank)]
        assert derivatives == [_reference_derivative(r, j) for j in range(rank)]
        row = [abelianize(d, weights) for d in derivatives]
        assert row == _one_pass_row(r.letters, weights, rank)
        # abelianized fundamental identity: sum_j row[j] (t^w_j - 1) = t^(w . e) - 1
        total = sum((row[j] * (one.shift(weights[j]) - 1) for j in range(rank)), LaurentPoly.zero())
        exponent = sum(w * e for w, e in zip(weights, r.exponent_vector()))
        assert total == one.shift(exponent) - 1


def _abelianize_by_term(element, weights):
    # the per-term loop: every term's weighted exponent sum from zero
    image = {}
    for i, weight in enumerate(weights):
        image[i + 1], image[-i - 1] = weight, -weight
    out = {}
    for w, c in element.terms.items():
        e = sum(map(image.__getitem__, w.letters))
        out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def _reduced_letters(rng, rank, length):
    letters = []
    while len(letters) < length:
        x = rng.choice([g for g in range(-rank, rank + 1) if g])
        if not letters or x != -letters[-1]:
            letters.append(x)
    return letters


def _false_neighbour(rng, rank, prev):
    # a reduced word that shares prev's last letter at the same position but
    # differs earlier, so only the full prefix comparison tells it apart
    k = len(prev)
    while True:
        letters = _reduced_letters(rng, rank, k + rng.randrange(4))
        letters[k - 1] = prev[k - 1]
        if all(a != -b for a, b in zip(letters, letters[1:])) and tuple(letters[:k]) != prev:
            return letters


def _abelianize_cases(rng):
    for n in (1, 2, 3, 7, 60, 120, 240, 480):
        r = ribbon_presentation(n).relators[0]
        yield fox_derivative(r, 0), (1, 1)
        yield fox_derivative(r, 1), (1, 1)
    for case in range(560):
        kind = case % 7  # the long relators (case % 35 == 0) are plain derivatives
        # a false neighbour needs two generators: in rank 1 a reduced word is
        # fixed by its last letter
        rank = rng.randrange(2 if kind > 4 else 1, 5)
        group = FreeGroup(rank)
        weights = [rng.randrange(-3, 4) for _ in range(rank)]
        if case % 3 == 0:
            weights[rng.randrange(rank)] = 0
        length = rng.randrange(1000, 2001) if case % 35 == 0 else rng.randrange(1, 80)
        r = group.word(_reduced_letters(rng, rank, length))
        j = rng.randrange(rank)
        d = fox_derivative(r, j)
        if kind == 0:
            yield d, weights
        elif kind == 1:
            # shuffled order: the terms form no chain
            terms = list(d.terms.items())
            rng.shuffle(terms)
            yield GroupRingElement(group, dict(terms)), weights
        elif kind == 2:
            # a sum: one chain, a break, then a second chain
            yield d + fox_derivative(random_word(rng, group, 40), rng.randrange(rank)), weights
        elif kind == 3:
            # products: a left factor keeps the chain (up to cancellation), a right one breaks it
            u, v = random_word(rng, group, 20), random_word(rng, group, 20)
            yield d * GroupRingElement.from_word(u, 2) + u * d - d * v, weights
        elif kind == 4:
            # cancellation: the product rule leaves d(u) after d(u r) - u d(r);
            # a zero coefficient is dropped, and conjugate words cancel in the image
            u = group.word(_reduced_letters(rng, rank, rng.randrange(40)))
            yield fox_derivative(u * r, j) - u * d, weights
            x = group.generator(rng.randrange(rank))
            yield GroupRingElement(group, {r: 1, x: 0, x * r * x.inverse(): -1}), weights
        else:
            # prefix chains broken by a term that shares the last letter only
            terms, prev = {}, tuple(_reduced_letters(rng, rank, rng.randrange(2, 12)))
            terms[group.word(prev)] = rng.choice((-2, -1, 1, 3))
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.5:
                    letters = _false_neighbour(rng, rank, prev)
                else:
                    letters = list(prev) + _reduced_letters(rng, rank, rng.randrange(1, 5))
                word = group.word(letters)
                terms[word] = terms.get(word, 0) + rng.choice((-1, 1, 2))
                prev = word.letters
            yield GroupRingElement(group, terms), weights


def test_abelianize_matches_per_term_oracle():
    assert abelianize(
        GroupRingElement(F2, {F2.word([1, 2]): 1, F2.word([2, 2, 1]): 1}), (1, 2)
    ) == LaurentPoly({3: 1, 5: 1})
    count = 0
    for element, weights in _abelianize_cases(random.Random(87)):
        assert abelianize(element, weights) == _abelianize_by_term(element, weights)
        count += 1
    assert count >= 500


def test_fox_derivative_terms_are_a_prefix_chain():
    # abelianize adds only the new letters of a term that extends the one
    # before it; fox_derivative inserts its terms in that order
    rng = random.Random(88)
    relators = [ribbon_presentation(n).relators[0] for n in (1, 7, 480)]
    for _ in range(600):
        rank = rng.randrange(1, 5)
        relators.append(FreeGroup(rank).word(_reduced_letters(rng, rank, rng.randrange(1, 300))))
    for r in relators:
        for j in range(r.group.rank):
            terms = [w.letters for w in fox_derivative(r, j).terms]
            assert len(terms) == sum(abs(x) == j + 1 for x in r.letters)
            for prev, term in zip([None] + terms, terms):
                assert r.letters[:len(term)] == term
                assert prev is None or len(term) > len(prev)


def test_fox_derivative_is_a_valid_element_as_built():
    # fox_derivative skips the constructor's checks and copy; its terms
    # must be what the validating constructor would keep
    rng = random.Random(89)
    for _ in range(600):
        rank = rng.randrange(1, 5)
        w = random_word(rng, FreeGroup(rank), 60)
        for j in range(rank):
            d = fox_derivative(w, j)
            assert d == GroupRingElement(w.group, d.terms)
            assert all(type(c) is int and c in (1, -1) for c in d.terms.values())


def test_abelianize_examples():
    assert abelianize(GroupRingElement.from_word(F2.word([1, 2, -1])), (1, 1)) == LaurentPoly.t()
    elem = ONE + GroupRingElement.from_word(X * Y) - GroupRingElement.from_word(F2.word([1, 2, 1, -2, -1]))
    assert abelianize(elem, (1, 1)) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert abelianize(ONE, (1, 1)) == LaurentPoly.one()


def test_abelianize_weights():
    assert abelianize(GroupRingElement.from_word(X * Y), (2, -1)) == LaurentPoly.t()
    with pytest.raises(ValueError):
        abelianize(GroupRingElement.from_word(X), (1,))


def test_coefficients_must_be_exact_integers():
    assert GroupRingElement(F2, {X: 2.0, Y: True}).terms == {X: 2, Y: 1}
    for bad in (0.5, 1.9, -0.1):
        with pytest.raises(TypeError):
            GroupRingElement(F2, {X: bad})


def test_abelianize_multiplicative():
    rng = random.Random(23)
    weights = (1, -2)

    def random_element():
        terms = {}
        for _ in range(rng.randrange(4)):
            terms[random_word(rng, F2, 8)] = rng.randrange(-3, 4)
        return GroupRingElement(F2, terms)

    for _ in range(1000):
        a, b = random_element(), random_element()
        assert abelianize(a * b, weights) == abelianize(a, weights) * abelianize(b, weights)


def test_group_ring_is_a_ring():
    rng = random.Random(24)
    for _ in range(200):
        a = GroupRingElement.from_word(random_word(rng, F2, 6), rng.randrange(-2, 3))
        b = GroupRingElement.from_word(random_word(rng, F2, 6), rng.randrange(-2, 3))
        c = GroupRingElement.from_word(random_word(rng, F2, 6), rng.randrange(-2, 3))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a - a) == GroupRingElement.zero(F2)
        assert a * ONE == a and ONE * a == a
