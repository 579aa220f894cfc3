import random
import time

import pytest

from conftest import minor_gcd_cokernel, random_twist_product, random_word, spec_words
from palfkit import lefschetz
from palfkit.intmatrix import IntMatrix, cokernel_invariants, det
from palfkit.knots import alexander_from_presentation, closed_form_factor
from palfkit.lefschetz import (
    HomologyResult,
    PALFSpec,
    allowable,
    boundary_is_homology_sphere,
    boundary_matrix,
    family_curves,
    family_twists,
    homology,
    mazur_family,
    pi1_presentation,
)
from palfkit.presentation import TRIVIAL, Presentation, simplify_presentation
from palfkit.surface import (
    Curve,
    MappingClass,
    PlanarSurface,
    apply,
    compose,
    dehn_twist,
    power,
    _product,
    standard_curve,
    twist_of_image,
)
from palfkit.words import FreeGroup, substitute

S4 = PlanarSurface(4)


def random_spec(rng, max_holes=5, max_cycles=4) -> PALFSpec:
    surface = PlanarSurface(rng.randrange(2, max_holes + 1))
    cycles = []
    for _ in range(rng.randrange(max_cycles + 1)):
        word = random_word(rng, surface.group, 6)
        cycles.append(Curve(surface, word))
    return PALFSpec(surface, cycles)


# -- allowability -------------------------------------------------------------

def test_boundary_parallel_is_allowable():
    spec = PALFSpec(S4, [standard_curve(S4, (1,))])
    assert allowable(spec) == (True, None)


def test_nullhomotopic_cycle_flagged():
    spec = PALFSpec(S4, [standard_curve(S4, (1, 2)), Curve(S4, S4.group.identity)])
    assert allowable(spec) == (False, 1)


def test_family_allowable_up_to_ten():
    for n in range(11):
        assert allowable(mazur_family(n)) == (True, None)


def test_nullhomologous_but_nontrivial_word():
    commutator = S4.group.word([1, 2, -1, -2])
    spec = PALFSpec(S4, [Curve(S4, commutator)])
    ok, witness = allowable(spec)
    assert not ok and witness == 0


def test_allowable_invariant_under_conjugation():
    rng = random.Random(75)
    for _ in range(200):
        spec = random_spec(rng)
        conjugated = PALFSpec(
            spec.fiber,
            [Curve(spec.fiber, c.word.conjugate(random_word(rng, spec.fiber.group, 5))) for c in spec.cycles],
        )
        assert allowable(spec)[0] == allowable(conjugated)[0]


# -- boundary matrix and homology ---------------------------------------------

def test_empty_monodromy_matrix():
    m = boundary_matrix(PALFSpec(S4, []))
    assert (m.nrows, m.ncols) == (3, 0)


def test_single_cycle_column():
    spec = PALFSpec(S4, [standard_curve(S4, (1, 2))])
    assert boundary_matrix(spec).rows == ((1,), (1,), (0,))


def test_family_matrix_constant_in_n():
    expected = IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for n in range(1, 6):
        assert boundary_matrix(mazur_family(n)) == expected


def test_family_homology_is_point():
    for n in range(1, 11):
        h = homology(mazur_family(n))
        assert h.is_point
        assert h.h0 == (1, ()) and h.h1 == (0, ()) and h.h2 == (0, ())
        assert h.euler == 1


def test_empty_monodromy_homology():
    h = homology(PALFSpec(S4, []))
    assert h.h1 == (3, ())
    assert h.h2 == (0, ())
    assert h.euler == 1 - 3 + 0


def test_single_cycle_homology():
    h = homology(PALFSpec(S4, [standard_curve(S4, (1, 2))]))
    assert h.h1 == (2, ())
    assert h.h2 == (0, ())


def test_euler_characteristic_formula():
    rng = random.Random(71)
    for _ in range(300):
        spec = random_spec(rng)
        h = homology(spec)
        assert h.euler == 1 - spec.fiber.rank + len(spec.cycles)


def test_homology_against_minor_gcd_oracle():
    rng = random.Random(72)
    for _ in range(200):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(0, 5)
        rows = [[rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(nrows)]
        surface = PlanarSurface(nrows + 1)
        cycles = []
        for j in range(ncols):
            letters = []
            for i in range(nrows):
                e = rows[i][j]
                letters.extend([i + 1] * e if e > 0 else [-(i + 1)] * (-e))
            cycles.append(Curve(surface, surface.group.word(letters)))
        spec = PALFSpec(surface, cycles)
        assert homology(spec).h1 == minor_gcd_cokernel(rows)


# -- homology sphere certification ---------------------------------------------

def test_family_boundary_is_homology_sphere():
    for n in range(1, 11):
        assert boundary_is_homology_sphere(mazur_family(n))


def test_empty_monodromy_not_homology_sphere():
    assert not boundary_is_homology_sphere(PALFSpec(S4, []))


def test_degenerate_determinant():
    c = standard_curve(S4, (1, 2))
    x3_cycle = standard_curve(S4, (3,))
    assert not boundary_is_homology_sphere(PALFSpec(S4, [c, c, x3_cycle]))


def test_sphere_iff_point_homology_for_square_specs():
    # the flag reads H1 = H2 = 0; the determinant criterion is the reference
    rng = random.Random(73)
    for _ in range(200):
        spec = random_spec(rng)
        sphere = boundary_is_homology_sphere(spec)
        point = homology(spec).is_point
        d2 = boundary_matrix(spec)
        assert sphere == point == (d2.nrows == d2.ncols and det(d2) in (1, -1))


# -- fundamental group ----------------------------------------------------------

def test_pi1_free_for_empty_monodromy():
    p = pi1_presentation(PALFSpec(S4, []))
    assert p.rank == 3 and p.relators == ()


def test_pi1_single_cycle():
    p = pi1_presentation(PALFSpec(S4, [standard_curve(S4, (1, 2))]))
    assert str(p) == "x1 x2 x3 | x1 x2"


def test_pi1_abelianization_matches_boundary_matrix():
    rng = random.Random(74)
    for _ in range(200):
        spec = random_spec(rng)
        p = pi1_presentation(spec)
        assert IntMatrix.from_columns([r.exponent_vector() for r in p.relators], p.rank) == boundary_matrix(spec)
        assert p.abelianization_invariants() == cokernel_invariants(boundary_matrix(spec))


def test_family_pi1_trivial_abelianization():
    p = pi1_presentation(mazur_family(1))
    assert p.rank == 3 and len(p.relators) == 3
    assert p.abelianization_invariants() == (0, ())


# -- the family ----------------------------------------------------------------

def test_family_cycles():
    spec = mazur_family(1)
    alpha, beta, gamma = family_curves()
    assert spec.cycles[0].word == alpha.word
    assert spec.cycles[1].word == beta.word
    t_a, t_b, t_g = family_twists()
    phi = compose(t_g, t_b)
    assert spec.cycles[2].word == phi(gamma.word)


def test_family_degenerate_index():
    spec = mazur_family(0)
    assert spec.cycles[2].word == family_curves()[2].word


def test_family_class_constant():
    # the class comes from gamma's; the closed-form word has the same one
    cycles = [mazur_family(n).cycles[2] for n in (0, 1, 2, 3, 4, 5, 40)]
    assert {c.homology_class for c in cycles} == {(0, 1, 1)}
    assert all(c.word.exponent_vector() == (0, 1, 1) for c in cycles)


def test_family_negative_index_rejected():
    with pytest.raises(ValueError):
        mazur_family(-1)


def test_family_cycle_matches_sequential_application():
    # the n-th cycle equals gamma carried through apply() n times, each call
    # adding one factor over the same base
    t_a, t_b, t_g = family_twists()
    phi = compose(t_g, t_b)
    current = family_curves()[2]
    for n in range(8):
        assert mazur_family(n).cycles[2].word == current.word
        current = apply(phi, current)


def _family_phi() -> MappingClass:
    _t_a, t_b, t_g = family_twists()
    return compose(t_g, t_b)


def test_family_cycle_matches_binary_powering():
    # mazur_family builds the word from its closed form; binary powering is
    # an independent oracle for the same word
    phi = _family_phi()
    gamma = family_curves()[2]
    for n in range(41):
        word = mazur_family(n).cycles[2].word
        assert word == apply(power(phi, n), gamma).word
        assert len(word) == (14 * n - 4 if n else 2)


def test_family_closed_form_matches_iterated_phi():
    # oracle: phi applied to gamma's word n times, in one incremental pass;
    # the whole spec is compared for n <= 60
    phi = _family_phi()
    alpha, beta, gamma = family_curves()
    s = alpha.surface
    word = gamma.word
    for n in range(201):
        spec = mazur_family(n)
        assert spec.cycles[2].word == word, n
        if n <= 60:
            iterated = PALFSpec(s, (alpha, beta, Curve(s, word, ((phi, n),), gamma)))
            assert spec_words(spec) == spec_words(iterated)
            assert spec.cycles[2].homology_class == iterated.cycles[2].homology_class
            cycle = spec.cycles[2]
            assert (cycle.factors, cycle.base.word) == (((phi, n),), gamma.word)
        word = phi(word)


def test_family_closed_form_is_linear_in_n():
    # 14n - 4 letters at n = 480 in well under the cost of iterating phi
    start = time.perf_counter()
    word = mazur_family(480).cycles[2].word
    assert time.perf_counter() - start < 0.5
    assert len(word) == 14 * 480 - 4


@pytest.mark.parametrize(
    "name, corrupt",
    [
        # phi in the wrong order, Tb Tg instead of Tg Tb
        ("compose", lambda original: lambda f, g: original(g, f)),
        # one of the five words off by a letter
        ("_B", lambda original: original[:-1]),
        ("_C", lambda original: original + (1,)),
        # a gamma that is not W_0
        ("FAMILY_HOLE_RUNS", lambda original: original[:2] + ((3, 4),)),
    ],
    ids=["phi-order", "word-B", "word-C", "gamma"],
)
def test_family_closed_form_refuses_a_broken_identity(monkeypatch, name, corrupt):
    monkeypatch.setattr(lefschetz, name, corrupt(getattr(lefschetz, name)))
    for n in (0, 1, 5):
        with pytest.raises(ArithmeticError):
            mazur_family(n)


def test_family_cycle_provenance_is_phi_to_the_n():
    phi = _family_phi()
    gamma = family_curves()[2]
    for n in range(6):
        cycle = mazur_family(n).cycles[2]
        assert cycle.factors == ((phi, n),)
        assert cycle.base.word == gamma.word
        assert dehn_twist(cycle) == twist_of_image(power(phi, n), gamma)
        assert dehn_twist(cycle)(S4.delta) == S4.delta


def test_family_construction_composes_no_power(monkeypatch):
    import palfkit.surface

    def refuse(*args):
        raise AssertionError("mazur_family must not build phi^n")

    monkeypatch.setattr(palfkit.surface, "power", refuse)
    assert len(mazur_family(30).cycles[2].word) == 14 * 30 - 4


def test_apply_to_family_cycle_flattens_provenance():
    rng = random.Random(41)
    phi = _family_phi()
    for n in range(5):
        cycle = mazur_family(n).cycles[2]
        psi = random_twist_product(rng, S4)
        image = apply(psi, cycle)
        assert image.base is cycle.base
        assert image.factors == ((psi, 1), (phi, n))
        assert _product(image.factors) == compose(psi, power(phi, n))
        assert image.word == psi(cycle.word)


def test_family_depends_on_n():
    words = {mazur_family(n).cycles[2].word.letters for n in range(6)}
    assert len(words) == 6


def test_family_open_books_depend_on_n():
    # not just the cycle words: the twists about them must differ in n
    twists = [dehn_twist(mazur_family(n).cycles[2]) for n in range(4)]
    assert len({t.images for t in twists}) == 4


def _knot_group(p: Presentation) -> Presentation:
    # drop the alpha relator x1 and eliminate x2 = x1^-1 through the beta
    # relator x1 x2, leaving <x1, x3 | the third relator>
    group = FreeGroup(2, ("x1", "x3"))
    x1, x3 = group.generators()
    return Presentation(group, [substitute(p.relators[2], [x1, x1.inverse(), x3])])


def test_knot_factor_follows_from_the_palf():
    # the knot column f(t) is read off the PALF's own pi1, not matched to
    # the ribbon group by index: q has 6n letters and two Fox cells
    for n in list(range(1, 21)) + [60]:
        q = _knot_group(pi1_presentation(mazur_family(n)))
        assert len(q.relators[0]) == 6 * n
        assert alexander_from_presentation(q, (1, 1)) == closed_form_factor(n), n
    # a wrong gamma_n, C^n D^-n for C^(n-1) D^-(n-1), still gives a homology
    # ball with a trivial pi1 verdict; only its knot group refuses it
    alpha, beta, _gamma = family_curves()
    s = alpha.surface
    d, x2, b, e, c = (s.group.word(getattr(lefschetz, name)) for name in ("_D", "_X2", "_B", "_E", "_C"))
    for n in (1, 2, 5):
        mutant = PALFSpec(s, (alpha, beta, Curve(s, d ** n * x2 * b ** n * e * c ** n * d ** -n)))
        assert homology(mutant).is_point
        assert simplify_presentation(pi1_presentation(mutant)).verdict == TRIVIAL
        with pytest.raises(ValueError, match="weighted exponent sum 1"):
            alexander_from_presentation(_knot_group(pi1_presentation(mutant)), (1, 1))


def test_cycles_must_live_on_fiber():
    other = PlanarSurface(5)
    with pytest.raises(ValueError):
        PALFSpec(S4, [standard_curve(other, (1, 2))])
