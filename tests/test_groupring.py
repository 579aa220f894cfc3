import random

import pytest

from conftest import random_word
from palfkit.groupring import GroupRingElement, abelianize, fox_derivative
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
