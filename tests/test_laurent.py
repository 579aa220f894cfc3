import random

import pytest
import sympy as sp

from conftest import from_sympy, random_laurent, to_sympy
from palfkit.laurent import LaurentPoly, _pack, _unpack

T = LaurentPoly.t()


def test_ring_ops_against_sympy():
    rng = random.Random(31)
    s = sp.Symbol("t")
    for _ in range(300):
        p = random_laurent(rng)
        q = random_laurent(rng)
        assert to_sympy(p + q) == sp.expand(to_sympy(p) + to_sympy(q))
        assert to_sympy(p - q) == sp.expand(to_sympy(p) - to_sympy(q))
        assert to_sympy(p * q) == sp.expand(to_sympy(p) * to_sympy(q))
        assert to_sympy(p.reciprocal()) == sp.expand(to_sympy(p).subs(s, 1 / s))


def test_integer_coercion():
    assert 1 - T + T ** 2 == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert (T - 1) * (T - 1) == T ** 2 - 2 * T + 1
    for op in (lambda p: 1.5 - p, lambda p: p - 1.5, lambda p: 1.5 + p, lambda p: 1.5 * p):
        with pytest.raises(TypeError):
            op(T)


def test_second_derivative_examples():
    assert LaurentPoly.one().second_derivative_at_one() == 0
    trefoil = LaurentPoly({1: 1, 0: -1, -1: 1})  # t - 1 + t^-1
    assert trefoil.second_derivative_at_one() == 2


def test_second_derivative_against_sympy():
    rng = random.Random(32)
    s = sp.Symbol("t")
    for _ in range(300):
        p = random_laurent(rng)
        expected = sp.diff(to_sympy(p), s, 2).subs(s, 1)
        assert p.second_derivative_at_one() == int(expected)


def test_symmetric_second_derivative_even():
    rng = random.Random(33)
    for _ in range(500):
        half = random_laurent(rng, span=4)
        p = half + half.reciprocal()  # symmetric by construction
        assert p.is_symmetric()
        assert p.second_derivative_at_one() % 2 == 0


def test_value_at_one_and_structure():
    p = LaurentPoly({-2: 1, 0: 3, 2: 1})
    assert p.value_at_one() == 5
    assert p.min_exponent == -2
    assert p.max_exponent == 2
    with pytest.raises(ValueError):
        LaurentPoly.zero().min_exponent


def test_shift_and_power():
    p = 1 + T
    assert p.shift(3) == LaurentPoly({3: 1, 4: 1})
    bases = (p, LaurentPoly({-2: 3, 0: -1, 5: 2}), LaurentPoly({-3: -7, 1: 10**12, 4: 1}), LaurentPoly({0: -1}),
             LaurentPoly.zero())
    for base in bases:
        expected = LaurentPoly.one()
        for k in range(41):
            assert base ** k == expected, (base, k)
            expected = expected * base
    with pytest.raises(ValueError):
        p ** -1
    for n in (2.0, 0.5, "2", None):
        with pytest.raises(TypeError):
            p ** n


def _dict_product(p, q):
    # oracle for LaurentPoly.__mul__: the term-by-term convolution that the
    # packed product replaced
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(out)


def _wide_laurent(rng):
    # exponents drawn sparsely from -30..30 (some factors empty), coefficients
    # of both signs up to 10^25 in absolute value
    max_terms, scale = rng.choice((1, 3, 8, 30, 61)), rng.choice((0, 1, 3, 12, 25))
    return random_laurent(rng, max_terms=max_terms, span=30, coeff=10 ** scale)


def test_product_matches_the_dict_convolution():
    rng = random.Random(37)
    for _ in range(600):
        p, q = _wide_laurent(rng), _wide_laurent(rng)
        assert p * q == _dict_product(p, q), (p, q)
        k = rng.choice((0, 1, -1, 7, -(10 ** 25), rng.randint(-(10 ** 30), 10 ** 30)))
        assert k * p == p * k == _dict_product(LaurentPoly({0: k}), p), (k, p)
    # a monomial product reaches the coefficient bound ||p||_1 ||q||_1, here
    # on both sides of every digit-width boundary
    for bits in range(1, 130):
        for c in (2 ** bits - 1, 2 ** bits, 2 ** bits + 1):
            for p, q in ((LaurentPoly({-3: c}), LaurentPoly({4: -c})), (LaurentPoly({0: -c}), LaurentPoly({0: -c}))):
                assert p * q == _dict_product(p, q), (p, q)


def test_pack_unpack_round_trip():
    rng = random.Random(38)
    for _ in range(300):
        p = _wide_laurent(rng)
        top = max(map(abs, p.coeffs.values()), default=0)
        low = p.min_exponent if p else 0
        for size in ((top.bit_length() + 8) // 8, (top.bit_length() + 8) // 8 + rng.randrange(1, 4)):
            slack = rng.randrange(0, 5)  # low may lie below every exponent
            assert _unpack(_pack(p.coeffs, size, low - slack), size, low - slack) == p, (p, size)
    # every digit at the edge of its balanced range, -2^(8 size - 1) < c < 2^(8 size - 1)
    for size in (1, 2, 3):
        edge = 2 ** (8 * size - 1) - 1
        p = LaurentPoly({e: edge if e % 3 else -edge for e in range(-5, 6)})
        assert _unpack(_pack(p.coeffs, size, -5), size, -5) == p


def test_sparse_product_over_a_wide_span():
    # two terms 10^5 apart: the product packs the whole span, so this checks
    # the result only
    p = LaurentPoly({-7: -3, 0: 1, 100_000: 1})
    q = LaurentPoly({0: 2, 99_999: -1, -100_000: 5})
    assert p * q == _dict_product(p, q)


def test_printing_canonical():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(1 - T + T ** 2) == "1 - t + t^2"
    assert str(LaurentPoly({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1})) == "t^-2 - 2*t^-1 + 3 - 2*t + t^2"
    assert str(LaurentPoly({0: -1, 1: 1})) == "-1 + t"
    assert str(LaurentPoly({5: -7})) == "-7*t^5"


def test_zero_terms_dropped():
    assert LaurentPoly({3: 0, 1: 2}).coeffs == {1: 2}
    assert not (T - T)


def test_constant_equals_its_integer():
    # a polynomial equals the int it is when constant, and only then; it is
    # not hashable, so no set or dict key can disagree with that equality
    three = LaurentPoly({0: 3})
    assert three == 3 and 3 == three and three != 4
    assert LaurentPoly.zero() == 0 and LaurentPoly({0: -1}) == -1 and LaurentPoly.one() == 1
    assert T != 1 and 1 - T + T ** 2 == LaurentPoly({2: 1, 1: -1, 0: 1})
    assert [T, T.shift(0), LaurentPoly({1: 1})].count(T) == 3 and [1, LaurentPoly.one()].count(1) == 2
    with pytest.raises(TypeError):
        hash(three)


def test_constructor_rejects_non_integers():
    for bad in ({0.5: 1}, {0: 1.9}, {0: "1"}, {0: sp.Rational(1, 2)}):
        with pytest.raises(TypeError):
            LaurentPoly(bad)
    with pytest.raises(TypeError):
        T.shift(0.5)
    # exact integers of other types are kept as ints
    for good in ({1: True}, {sp.Integer(1): sp.Integer(1)}, {1.0: 1.0}):
        p = LaurentPoly(good)
        assert p == T and all(type(e) is int and type(c) is int for e, c in p.coeffs.items())


def test_ring_results_are_canonical():
    rng = random.Random(36)
    cancelling = 0
    for case in range(1000):
        p = random_laurent(rng)
        q = random_laurent(rng)
        if case % 3 == 0:
            q = random_laurent(rng, max_terms=2) - p  # p + q cancels most terms
        for r in (p + q, p - q, p * q, -p, p.shift(rng.randrange(-4, 5)), p.reciprocal()):
            assert 0 not in r.coeffs.values()
            assert all(type(e) is int and type(c) is int for e, c in r.coeffs.items())
            assert r == LaurentPoly(dict(r.coeffs))
        cancelling += any(p[e] + q[e] == 0 for e in p.coeffs if e in q.coeffs)
    assert cancelling > 250  # sums with terms that cancel to zero occur
