import itertools
import random

import pytest
import sympy as sp

from palfkit.laurent import LaurentPoly
from palfkit.presentation import Presentation
from palfkit.surface import MappingClass, PlanarSurface, compose, dehn_twist, standard_curve
from palfkit.words import FreeGroup, Word

_T = sp.Symbol("t")


def random_word(rng: random.Random, group: FreeGroup, max_len: int = 12) -> Word:
    if group.rank == 0:
        return group.identity
    length = rng.randrange(max_len + 1)
    letters = []
    for _ in range(length):
        g = rng.randrange(1, group.rank + 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return Word(group, letters)


def random_presentation(rng: random.Random, max_rank: int = 4, max_relators: int = 4, max_len: int = 10) -> Presentation:
    rank = rng.randrange(1, max_rank + 1)
    group = FreeGroup(rank)
    relators = [random_word(rng, group, max_len) for _ in range(rng.randrange(max_relators + 1))]
    return Presentation(group, relators)


def random_laurent(rng: random.Random, max_terms: int = 6, span: int = 6, coeff: int = 9) -> LaurentPoly:
    coeffs = {}
    for _ in range(rng.randrange(max_terms + 1)):
        coeffs[rng.randrange(-span, span + 1)] = rng.randrange(-coeff, coeff + 1)
    return LaurentPoly(coeffs)


def random_run_twist(rng: random.Random, surface: PlanarSurface):
    """A positive twist about a random contiguous inner-hole run."""
    lo = rng.randrange(1, surface.holes)
    hi = rng.randrange(lo, surface.holes)
    return dehn_twist(standard_curve(surface, tuple(range(lo, hi + 1))))


def random_twist_product(rng: random.Random, surface: PlanarSurface, max_factors: int = 4) -> MappingClass:
    phi = MappingClass.identity(surface)
    for _ in range(rng.randrange(1, max_factors + 1)):
        phi = compose(phi, random_run_twist(rng, surface))
    return phi


@pytest.fixture
def map_steps(monkeypatch):
    """The words ``MappingClass.__call__`` is applied to while the test runs."""
    steps = []
    call = MappingClass.__call__

    def counted(self, word):
        steps.append(word)
        return call(self, word)

    monkeypatch.setattr(MappingClass, "__call__", counted)
    return steps


def eager_image_word(phi: MappingClass, word: Word, n: int) -> Word:
    """The word of phi^n(c) for a curve c of word ``word``, stepped at once:
    |n| applications of phi (of its inverse when n < 0), cut at the orbit's
    first return.  The oracle for the word an image curve steps on the
    first read of ``Curve.word``."""
    step = phi if n >= 0 else phi.inverse()
    steps = abs(n)
    start = word
    for i in range(1, steps + 1):
        word = step(word)
        if word == start:
            for _ in range(steps % i):
                word = step(word)
            break
    return word


def _std(run) -> str:
    return "std{" + ",".join(map(str, run)) + "}"


def palf_pool_texts(seed: int) -> list[str]:
    """The perfbench palf pool for one seed, rebuilt here in pool order
    before its final shuffle: the grid of three-cycle inputs on S(0,4)
    (every word and power on each base), then 32 seeded short
    factorizations on each of S(0,4..7)."""
    choices = list(itertools.product(("Tg Tb", "Tb Tg", "Tg Ta Tb", "Ta Tg"), (2, 3)))
    bases = ((1, 2), (2, 3), (1, 2))
    texts = [
        "S(0,4); " + "; ".join(f"T apply(({w})^{k}, {_std(run)})" for (w, k), run in zip(cycles, bases))
        for cycles in itertools.product(choices, repeat=len(bases))
    ]
    rng = random.Random(seed)
    for holes in (4, 5, 6, 7):
        runs = [tuple(range(i, j + 1)) for i in range(1, holes) for j in range(i, holes)]
        for _ in range(32):
            entries = []
            for _ in range(rng.randint(1, holes + 2)):
                run = rng.choice(runs)
                if rng.random() < 0.5:
                    curve = _std(run)
                else:
                    factors = " ".join(f"(T {_std(rng.choice(runs))})^{rng.choice((-3, -2, -1, 1, 2, 3))}"
                                       for _ in range(rng.randint(1, 2)))
                    curve = f"apply({factors}, {_std(run)})"
                entries.append(f"T {curve}")
            texts.append(f"S(0,{holes}); " + "; ".join(entries))
    return texts


def to_sympy(p: LaurentPoly):
    return sp.expand(sum((c * _T ** e for e, c in p.coeffs.items()), sp.Integer(0)))


def from_sympy(expr) -> LaurentPoly:
    expr = sp.expand(expr)
    coeffs = {}
    for term in sp.Add.make_args(expr):
        c, rest = term.as_coeff_Mul()
        power = rest.as_powers_dict().get(_T, 0)
        coeffs[int(power)] = coeffs.get(int(power), 0) + int(c)
    return LaurentPoly(coeffs)


def minor_gcd_cokernel(rows: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Cokernel invariants via gcds of k x k minors, independent of any
    elimination strategy: d_k = gcd of all k-minors, delta_k = d_k / d_(k-1)."""
    import itertools
    import math

    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0

    def minor_det(r_idx, c_idx):
        sub = [[rows[i][j] for j in c_idx] for i in r_idx]
        m = sp.Matrix(sub)
        return int(m.det())

    d_prev = 1
    factors = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for r_idx in itertools.combinations(range(nrows), k):
            for c_idx in itertools.combinations(range(ncols), k):
                g = math.gcd(g, abs(minor_det(r_idx, c_idx)))
        if g == 0:
            break
        factors.append(g // d_prev)
        d_prev = g
    free_rank = nrows - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return free_rank, torsion
