import doctest
import random

import pytest
import sympy as sp

from conftest import from_sympy, random_laurent, random_word, to_sympy
import palfkit.knots as knots
from palfkit.groupring import abelianize
from palfkit.knots import (
    CalibrationError,
    NormalizedAlexander,
    alexander_from_presentation,
    casson_surgery,
    closed_form_delta,
    closed_form_factor,
    family_invariants,
    fox_milnor_compose,
    maximal_minors,
    ribbon_presentation,
    unit_equivalent,
    unit_normalize,
)
from palfkit.laurent import LaurentPoly
from palfkit.presentation import Presentation
from palfkit.words import FreeGroup, Word

T = LaurentPoly.t()


# -- Alexander polynomials from presentations ---------------------------------

def test_ribbon_group_alexander_n1():
    assert alexander_from_presentation(ribbon_presentation(1), (1, 1)) == 1 - T + T ** 2


def test_ribbon_group_alexander_n2():
    expected = LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})
    assert alexander_from_presentation(ribbon_presentation(2), (1, 1)) == expected


def test_unknot_exterior_presentation():
    F1 = FreeGroup(1, ("x",))
    assert alexander_from_presentation(Presentation(F1, []), (1,)) == LaurentPoly.one()


def test_wrong_deficiency_rejected():
    F2 = FreeGroup(2, ("x", "y"))
    with pytest.raises(ValueError):
        alexander_from_presentation(Presentation(F2, []), (1, 1))
    x, y = F2.generators()
    with pytest.raises(ValueError):
        alexander_from_presentation(Presentation(F2, [x * y * x.inverse() * y.inverse(), x * y]), (1, 1))


def test_nonzero_weighted_sum_rejected():
    F2 = FreeGroup(2, ("x", "y"))
    x, y = F2.generators()
    with pytest.raises(ValueError):
        alexander_from_presentation(Presentation(F2, [x * y]), (1, 1))
    with pytest.raises(ValueError):
        alexander_from_presentation(Presentation(F2, [x * y.inverse()]), (0, 0))


def test_trefoil_group():
    # <x, y | xyx y^-1 x^-1 y^-1> is the trefoil knot group
    F2 = FreeGroup(2, ("x", "y"))
    r = F2.word([1, 2, 1, -2, -1, -2])
    poly = alexander_from_presentation(Presentation(F2, [r]), (1, 1))
    assert poly == 1 - T + T ** 2


def test_torus_knot_presentation_gives_raw_minor():
    # <x, y | x^2 y^-3> with weights (3, 2): the maximal minor is 1 + t^3,
    # the Alexander polynomial times the unit-column factor (t^2-1)/(t-1)
    F2 = FreeGroup(2, ("x", "y"))
    r = F2.word([1, 1, -2, -2, -2])
    poly = alexander_from_presentation(Presentation(F2, [r]), (3, 2))
    assert poly == LaurentPoly({0: 1, 3: 1})


def test_alexander_invariant_under_relator_conjugation():
    rng = random.Random(84)
    group = FreeGroup(2, ("x", "y"))
    checked = 0
    while checked < 100:
        r = _random_zero_sum_relator(rng, group)
        if r.is_identity:
            continue
        conjugated = r.conjugate(random_word(rng, group, 6))
        a = alexander_from_presentation(Presentation(group, [r]), (1, 1))
        b = alexander_from_presentation(Presentation(group, [conjugated]), (1, 1))
        assert unit_equivalent(a, b)
        checked += 1


def _random_zero_sum_relator(rng, group):
    w = random_word(rng, group, 12)
    a, b = w.exponent_vector()
    fix = group.word([1] * -a if a < 0 else [-1] * a) * group.word([2] * -b if b < 0 else [-2] * b)
    return w * fix


def test_column_choice_independence():
    rng = random.Random(81)
    group = FreeGroup(2, ("x", "y"))
    checked = 0
    while checked < 200:
        r = _random_zero_sum_relator(rng, group)
        if r.is_identity:
            continue
        # both 1x1 minors agree up to sign and a power of t
        from palfkit.groupring import abelianize, fox_derivative

        m0 = abelianize(fox_derivative(r, 0), (1, 1))
        m1 = abelianize(fox_derivative(r, 1), (1, 1))
        assert unit_equivalent(m0, m1)
        # and the pipeline's internal check accepts the presentation
        alexander_from_presentation(Presentation(group, [r]), (1, 1))
        checked += 1


def _exact_quotient(p, divisor):
    """The q with ``q * divisor == p``, by long division from the top term.

    Raises ZeroDivisionError for a zero divisor and ArithmeticError when
    ``divisor`` does not divide ``p`` in Z[t, t^-1].

    >>> t = LaurentPoly.t()
    >>> print(_exact_quotient((t**3 - 1).shift(-2), t - 1))
    t^-2 + t^-1 + 1
    >>> _exact_quotient(1 + t**2, t - 1)
    Traceback (most recent call last):
    ...
    ArithmeticError: -1 + t does not divide 1 + t^2
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if not p:
        return LaurentPoly()
    top = divisor.max_exponent
    lead = divisor[top]
    lower = [(e, c) for e, c in divisor.coeffs.items() if e != top]
    # an exact quotient has no term below t^floor
    floor = p.min_exponent - divisor.min_exponent
    r = dict(p.coeffs)
    q = {}
    # the quotient term t^k clears the remainder's term t^(k + top)
    for k in range(p.max_exponent - top, floor - 1, -1):
        rk = r.pop(k + top, 0)
        if not rk:
            continue
        c, rem = divmod(rk, lead)
        if rem:
            raise ArithmeticError(f"{divisor} does not divide {p}")
        q[k] = c
        for e, d in lower:
            x = r.get(e + k, 0) - c * d
            if x:
                r[e + k] = x
            else:
                del r[e + k]
    if r:
        raise ArithmeticError(f"{divisor} does not divide {p}")
    return LaurentPoly(q)


def test_exact_quotient_examples():
    runner = doctest.DocTestRunner()
    globs = {"LaurentPoly": LaurentPoly, "_exact_quotient": _exact_quotient}
    for example in doctest.DocTestFinder().find(_exact_quotient, globs=globs):
        runner.run(example)
    assert runner.summarize(verbose=False) == (0, 3)  # (failed, attempted)


def test_exact_quotient_round_trip():
    rng = random.Random(34)
    checked = 0
    while checked < 600:
        q, d = random_laurent(rng), random_laurent(rng, max_terms=4, span=4, coeff=5)
        if not d:
            continue
        quotient = _exact_quotient(q * d, d)
        assert quotient == q
        assert all(type(e) is int and type(c) is int and c for e, c in quotient.coeffs.items())
        checked += 1


def test_exact_quotient_rejects_inexact_and_zero():
    with pytest.raises(ArithmeticError):
        _exact_quotient(1 + T ** 2, 1 - T)
    with pytest.raises(ArithmeticError):
        _exact_quotient(3 * T, 2 * T)  # the coefficient does not divide
    with pytest.raises(ArithmeticError):
        _exact_quotient(T, 1 + T)  # the divisor spans more exponents
    rng = random.Random(35)
    s = sp.Symbol("t")
    checked = inexact = 0
    while checked < 300:
        d = random_laurent(rng, max_terms=4, span=4, coeff=5)
        if not d:
            continue
        # a multiple of d plus a small error term, which is often zero
        p = random_laurent(rng) * d + random_laurent(rng, max_terms=2, span=8, coeff=2)
        try:
            q = _exact_quotient(p, d)
        except ArithmeticError:
            # over Q, with the units t^k divided out, the quotient is not integral
            quo, rem = sp.div(to_sympy(p.shift(-p.min_exponent)), to_sympy(d.shift(-d.min_exponent)), s)
            assert rem != 0 or not all(c.is_integer for c in sp.Poly(quo, s).coeffs())
            inexact += 1
        else:
            assert q * d == p
        checked += 1
    assert 100 < inexact < 300  # both outcomes are exercised
    for p in (LaurentPoly.zero(), 1 + T):
        with pytest.raises(ZeroDivisionError):
            _exact_quotient(p, LaurentPoly.zero())
    assert _exact_quotient(LaurentPoly.zero(), 1 + T) == LaurentPoly.zero()


def _laurent_det(rows):
    # fraction-free Bareiss elimination, one determinant at a time: the
    # oracle for maximal_minors (every division is exact)
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    a = [list(r) for r in rows]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        pivot, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = _exact_quotient(row[j] * pivot - lead * pivot_row[j], prev)
        prev = pivot
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def _cofactor_det(rows):
    # first-row cofactor expansion: the reference for the Bareiss determinant
    if not rows:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for j, entry in enumerate(rows[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * entry * _cofactor_det(minor)
    return total


def test_laurent_det_matches_cofactor_expansion():
    rng = random.Random(85)
    kinds = {"zero_first_pivot": 0, "equal_rows": 0, "sparse": 0}
    for case in range(600):
        n = case % 7
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [
            [random_laurent(rng, max_terms=3, span=3, coeff=4) if rng.random() < density else LaurentPoly.zero()
             for _ in range(n)]
            for _ in range(n)
        ]
        if n >= 2 and case % 3 == 0:
            rows[0][0] = LaurentPoly.zero()  # Bareiss must swap in another pivot row
            kinds["zero_first_pivot"] += 1
        if n >= 2 and case % 5 == 0:
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])  # singular
            kinds["equal_rows"] += 1
        kinds["sparse"] += density < 1
        expected = _cofactor_det(rows)
        assert _laurent_det(rows) == expected, rows
        if case % 5 == 0 and n >= 2:
            assert not expected
    assert min(kinds.values()) >= 70


def test_maximal_minors_match_per_column_bareiss():
    rng = random.Random(86)
    kinds = {"empty": 0, "dependent_rows": 0, "zero_column": 0, "last_column_pivot": 0, "zero_leading_block": 0}
    nonzero = 0
    for case in range(700):
        k = 1 + case % 7
        n = k - 1
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [
            [random_laurent(rng, max_terms=3, span=3, coeff=4) if rng.random() < density else LaurentPoly.zero()
             for _ in range(k)]
            for _ in range(n)
        ]
        kind = case // 7 % 5
        if n == 0:
            kinds["empty"] += 1
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            factor = random_laurent(rng, max_terms=2, span=2, coeff=3)
            rows[j] = [factor * x for x in rows[i]]  # rank below n
            kinds["dependent_rows"] += 1
        elif kind == 2:
            c = rng.randrange(k)
            for row in rows:
                row[c] = LaurentPoly.zero()
            kinds["zero_column"] += 1
        elif kind == 3:
            # the first pivot can only come from the last column
            rows[0] = [LaurentPoly.zero()] * n + [random_laurent(rng, max_terms=3, span=3, coeff=4) or T]
            kinds["last_column_pivot"] += 1
        elif kind == 4:
            for row in rows:
                row[:n] = [LaurentPoly.zero()] * n
            kinds["zero_leading_block"] += 1
        expected = [_laurent_det([row[:c] + row[c + 1:] for row in rows]) for c in range(k)]
        assert maximal_minors(rows) == expected, rows
        nonzero += any(expected)
    assert min(kinds.values()) >= 60
    assert 300 < nonzero < 700  # full-rank and rank-deficient matrices both occur


def _wide_entry(rng, scale):
    # zero, or one or two terms with exponents in -6..6 (so gaps and negative
    # exponents are common) and coefficients up to scale in magnitude
    if rng.random() < 0.3:
        return LaurentPoly.zero()
    return LaurentPoly({rng.randrange(-6, 7): rng.randrange(-scale, scale + 1) for _ in range(rng.randint(1, 2))})


def test_maximal_minors_match_per_column_bareiss_wide_range():
    # maximal_minors packs each entry at t = 2^b with b from Hadamard's bound;
    # coefficients up to 10^30 and sparse Laurent entries test that width
    rng = random.Random(87)
    kinds = {"zero_row": 0, "dependent_rows": 0, "zero_last_column": 0}
    largest = nonzero = 0
    for case in range(504):
        n, kind = case % 7, case // 7 % 4
        scale = (1, 10 ** 3, 10 ** 12, 10 ** 30)[case // 28 % 4]
        rows = [[_wide_entry(rng, scale) for _ in range(n + 1)] for _ in range(n)]
        if n and kind == 1:
            rows[rng.randrange(n)] = [LaurentPoly.zero()] * (n + 1)
            kinds["zero_row"] += 1
        elif n >= 2 and kind == 2:
            i, j = rng.sample(range(n), 2)
            factor = _wide_entry(rng, scale) or T
            rows[j] = [factor * x for x in rows[i]]
            kinds["dependent_rows"] += 1
        elif n and kind == 3:
            for row in rows:
                row[n] = LaurentPoly.zero()
            kinds["zero_last_column"] += 1
        expected = [_laurent_det([row[:c] + row[c + 1:] for row in rows]) for c in range(n + 1)]
        assert maximal_minors(rows) == expected, rows
        largest = max([largest] + [abs(c) for m in expected for c in m.coeffs.values()])
        nonzero += any(expected)
    assert min(kinds.values()) >= 90
    assert largest > 10 ** 150  # minors far past any fixed digit width
    assert 150 < nonzero < 504  # full-rank and rank-deficient matrices both occur


def test_maximal_minors_reach_hadamards_bound():
    # a Sylvester Hadamard matrix of +-7 t^(r_i + c_j) and a zero column:
    # the minor without that column is +-16 * 7^4 t^s, exactly Hadamard's
    # bound H = prod_i sqrt(sum_j ||a_ij||_1^2) = 38,416, which lies in
    # [2^15, 2^16), so a digit width b with 2^b > H but 2^(b - 1) <= H
    # would misread it
    h2 = [[1, 1], [1, -1]]
    h4 = [[x * y for x in a for y in b] for a in h2 for b in h2]
    r, c = (3, -5, 0, 2), (-1, 4, -7, 6)
    rows = [[LaurentPoly({r[i] + c[j]: 7 * h4[i][j]}) for j in range(4)] + [LaurentPoly.zero()] for i in range(4)]
    minors = maximal_minors(rows)
    assert minors == [_laurent_det([row[:k] + row[k + 1:] for row in rows]) for k in range(5)]
    assert minors[:4] == [LaurentPoly.zero()] * 4
    assert minors[4] == LaurentPoly({sum(r) + sum(c): 16 * 7 ** 4})
    assert 2 ** 15 <= 16 * 7 ** 4 < 2 ** 16


def test_maximal_minors_reject_a_non_maximal_shape():
    with pytest.raises(ValueError):
        maximal_minors([[T, T]] * 2)


# -- Fox-Milnor composition ----------------------------------------------------

def test_fox_milnor_trivial():
    assert fox_milnor_compose(LaurentPoly.one()).poly == LaurentPoly.one()


def test_fox_milnor_smallest_member():
    delta = fox_milnor_compose(1 - T + T ** 2)
    assert delta.poly == LaurentPoly({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1})
    assert str(delta) == "t^-2 - 2*t^-1 + 3 - 2*t + t^2"


def test_fox_milnor_against_sympy():
    rng = random.Random(82)
    s = sp.Symbol("t")
    checked = 0
    while checked < 200:
        coeffs = {e: rng.randrange(-3, 4) for e in range(rng.randrange(1, 5))}
        f = LaurentPoly(coeffs)
        if f.value_at_one() not in (1, -1):
            continue
        expected = sp.expand(to_sympy(f) * to_sympy(f).subs(s, 1 / s))
        product = from_sympy(expected)
        delta = fox_milnor_compose(f)
        assert delta.poly == product or delta.poly == -product
        checked += 1


def test_fox_milnor_unit_invariance():
    g = 1 - T + T ** 2
    assert fox_milnor_compose(g.shift(3)) == fox_milnor_compose(g)
    assert fox_milnor_compose(-g) == fox_milnor_compose(g)


def test_fox_milnor_rejects_bad_factor():
    with pytest.raises(ValueError):
        fox_milnor_compose(1 + T)  # f(1) = 2


# -- normalization --------------------------------------------------------------

def test_normalized_alexander_validation():
    with pytest.raises(ValueError):
        NormalizedAlexander(LaurentPoly({0: 1, 1: 1}))  # asymmetric
    with pytest.raises(ValueError):
        NormalizedAlexander(LaurentPoly({-1: 1, 0: 1, 1: 1}))  # p(1) = 3


def test_from_laurent_normalizes_units():
    p = LaurentPoly({0: 1, 1: -1, 2: 1})  # t * (t^-1 - 1 + t)
    norm = NormalizedAlexander.from_laurent(p)
    assert norm.poly == LaurentPoly({-1: 1, 0: -1, 1: 1})
    flipped = NormalizedAlexander.from_laurent(LaurentPoly({0: -1, 1: 1, 2: -1}))
    assert flipped.poly == LaurentPoly({-1: 1, 0: -1, 1: 1})


def test_from_laurent_rejects_uncenterable():
    with pytest.raises(ValueError):
        NormalizedAlexander.from_laurent(LaurentPoly({0: 1, 1: -1}))  # odd span
    with pytest.raises(ValueError):
        NormalizedAlexander.from_laurent(LaurentPoly({0: 1, 2: 2}))  # not symmetric
    with pytest.raises(ValueError):
        NormalizedAlexander.from_laurent(LaurentPoly.zero())


def test_unit_normalize():
    p = LaurentPoly({3: -1, 4: 1, 5: -1})
    q = unit_normalize(p)
    assert q == 1 - T + T ** 2 or q == -(1 - T + T ** 2)
    assert q.value_at_one() > 0
    assert unit_normalize(LaurentPoly.zero()) == LaurentPoly.zero()


def test_unit_equivalent():
    assert unit_equivalent(1 - T, (1 - T).shift(5))
    assert unit_equivalent(1 - T, -(1 - T).shift(-2))
    assert not unit_equivalent(1 - T, 1 + T)
    assert unit_equivalent(LaurentPoly.zero(), LaurentPoly.zero())
    assert not unit_equivalent(LaurentPoly.zero(), LaurentPoly.one())


def _equal_up_to_sign_and_shift(p, q):
    # the definition: p = +-t^k q for some k
    if not p or not q:
        return not p and not q
    k = p.min_exponent - q.min_exponent
    return p == q.shift(k) or p == -q.shift(k)


def test_unit_equivalent_matches_definition():
    rng = random.Random(81)
    related = 0
    for _ in range(600):
        p = random_laurent(rng)
        if rng.random() < 0.3:
            p = p * (1 - T)  # p(1) = 0: the sign comes from the lowest coefficient
        if rng.random() < 0.5:
            q = p.shift(rng.randrange(-5, 6)) * rng.choice((1, -1))
        else:
            q = random_laurent(rng)
        expected = _equal_up_to_sign_and_shift(p, q)
        assert unit_equivalent(p, q) == expected, (p, q)
        assert unit_equivalent(q, p) == expected, (p, q)
        related += expected
    assert 250 < related < 600  # both outcomes are exercised


# -- Casson surgery --------------------------------------------------------------

def test_surgery_examples():
    delta1 = fox_milnor_compose(closed_form_factor(1))
    assert casson_surgery(0, 0, delta1) == 0
    assert casson_surgery(0, 1, delta1) == 2
    for n in range(1, 11):
        dn = fox_milnor_compose(closed_form_factor(n))
        assert casson_surgery(0, 1, dn) == n * (n + 1)


def test_surgery_additivity_in_m():
    rng = random.Random(83)
    delta = fox_milnor_compose(closed_form_factor(3))
    for _ in range(200):
        lam = rng.randrange(-10, 11)
        m1 = rng.randrange(-10, 11)
        m2 = rng.randrange(-10, 11)
        assert casson_surgery(lam, m1 + m2, delta) - casson_surgery(lam, m1, delta) == casson_surgery(0, m2, delta)


def test_symmetric_second_derivative_is_even():
    # p''(1) = sum_(e > 0) 2 c_e e^2 for symmetric p, any constant term
    # included, so casson_surgery's halving is exact
    rng = random.Random(84)
    for _ in range(600):
        half = {e: rng.randint(-10 ** 6, 10 ** 6) for e in rng.sample(range(1, 40), rng.randrange(0, 8))}
        p = LaurentPoly({**half, **{-e: c for e, c in half.items()}, 0: rng.randint(-10 ** 6, 10 ** 6)})
        assert p.is_symmetric()
        assert p.second_derivative_at_one() % 2 == 0
        assert p.second_derivative_at_one() == sum(2 * c * e * e for e, c in half.items())
        delta = NormalizedAlexander(p - (p.value_at_one() - 1))  # constant term fixed so that p(1) = 1
        lam, m = rng.randint(-50, 50), rng.randint(-50, 50)
        assert 2 * casson_surgery(lam, m, delta) == 2 * lam + m * delta.second_derivative_at_one()


# -- the ribbon family ------------------------------------------------------------

def test_ribbon_presentation_shape():
    p = ribbon_presentation(1)
    assert str(p) == "x y | x y x y^-1 x^-1 y^-1"
    assert p.deficiency == 1
    with pytest.raises(ValueError):
        ribbon_presentation(0)


def test_family_invariants_values():
    inv1 = family_invariants(1)
    assert inv1.second_derivative == 4
    assert inv1.casson == 2
    assert inv1.delta.poly[0] == 3  # constant coefficient 2n+1
    inv2 = family_invariants(2)
    assert inv2.second_derivative == 12
    assert inv2.casson == 6


def test_family_values_strictly_increasing():
    values = [family_invariants(n).casson for n in range(1, 11)]
    assert values == [n * (n + 1) for n in range(1, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert len(set(values)) == len(values)


def test_closed_forms_match_each_other():
    for n in range(1, 11):
        f = closed_form_factor(n)
        assert f.value_at_one() == 1
        product = f * f.reciprocal()
        assert product == closed_form_delta(n)
        assert closed_form_delta(n).second_derivative_at_one() == 2 * n * (n + 1)


def test_column_choice_guard_fires_on_a_corrupted_fox_matrix(monkeypatch):
    # a rank-3 presentation whose three maximal minors agree up to units; one
    # corrupted cell of its Fox matrix makes them disagree
    F3 = FreeGroup(3, ("a", "b", "c"))
    p = Presentation(F3, [F3.word([1, 2, -1, -3]), F3.word([2, 3, 3, -2, -1, -1])])
    assert alexander_from_presentation(p, (1, 1, 1)) == 1 + T ** 3
    cells = []

    def corrupted(element, weights):
        cells.append(abelianize(element, weights))
        return cells[-1] + 1 if len(cells) == 1 else cells[-1]

    monkeypatch.setattr(knots, "abelianize", corrupted)
    with pytest.raises(ArithmeticError, match="column-choice dependence"):
        alexander_from_presentation(p, (1, 1, 1))
    assert len(cells) == 6
