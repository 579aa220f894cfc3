"""Expected values for the benchmark, computed without any palfkit code.

Every check here reads palfkit's printed output, parses it with its own
small parsers, and compares it with a value derived from closed forms or
from exact rational / integer arithmetic written in this file.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

# -- Laurent polynomials as {exponent: coefficient} --------------------------

_MONO = re.compile(r"(?:(\d+)\*)?t(?:\^(-?\d+))?")


def parse_laurent_text(text: str) -> dict[int, int]:
    """Parse palfkit's canonical polynomial text, e.g. ``t^-1 - 2 + 3*t``."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, int] = {}
    sign = 1
    expect_term = True
    for tok in text.split():
        if not expect_term:
            if tok not in ("+", "-"):
                raise ValueError(f"expected '+' or '-', found {tok!r}")
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if tok.isdigit():
            coeff, exp = int(tok), 0
        else:
            m = _MONO.fullmatch(tok)
            if m is None:
                raise ValueError(f"bad term {tok!r}")
            coeff = int(m.group(1) or 1)
            exp = int(m.group(2)) if m.group(2) is not None else 1
        if coeff == 0 or exp in out:
            raise ValueError(f"non-canonical term {tok!r}")
        out[exp] = sign * coeff
        sign = 1
        expect_term = False
    if expect_term:
        raise ValueError("dangling sign")
    return out


def ribbon_factor(n: int) -> dict[int, int]:
    """f(t) = 1 - t + t^2 - ... + t^(2n)."""
    return {k: (-1) ** k for k in range(2 * n + 1)}


def ribbon_delta(n: int) -> dict[int, int]:
    """Delta(t) coefficients (-1)^i (2n + 1 - |i|) for |i| <= 2n."""
    return {i: (-1) ** i * (2 * n + 1 - abs(i)) for i in range(-2 * n, 2 * n + 1)}


def evaluate(poly: dict[int, int], t: int) -> Fraction:
    return sum((c * Fraction(t) ** e for e, c in poly.items()), Fraction(0))


def _exact_log(value: Fraction, base: int) -> int | None:
    """k with value == base**k, or None."""
    num, den = value.numerator, value.denominator
    if num != 1 and den != 1:
        return None
    x, sign = (den, -1) if num == 1 and den != 1 else (num, 1)
    k = 0
    while x % base == 0:
        x //= base
        k += 1
    return sign * k if x == 1 else None


def unit_multiple(poly: dict[int, int], values: dict[int, Fraction]) -> bool:
    """True when ``poly`` agrees with ``values`` (t -> expected value) up to
    one common factor +-t^k."""
    unit = None
    for t, expected in values.items():
        got = evaluate(poly, t)
        if expected == 0 or got == 0:
            if got != expected:
                return False
            continue
        ratio = got / expected
        k = _exact_log(abs(ratio), t)
        if k is None:
            return False
        if unit is None:
            unit = (ratio > 0, k)
        elif unit != (ratio > 0, k):
            return False
    return True


# -- Fox calculus by hand -----------------------------------------------------

def fox_minor_values(rank: int, relators: list[list[int]], points=(2, 3)) -> dict[int, Fraction]:
    """The maximal minor (last column deleted) of the abelianized Fox matrix
    of a deficiency-one presentation, every generator sent to t, evaluated
    exactly at each point.  One pass per relator: d(u x)/dx adds t^e(u) and
    d(u x^-1)/dx adds -t^(e(u) - 1), where e(u) is the exponent sum of the
    prefix u.  Row i is scaled by t^len(r_i) to stay in the integers."""
    out = {}
    for t in points:
        matrix = []
        scale = 1
        for rel in relators:
            row = [0] * rank
            power = t ** len(rel)  # t ** (len + exponent sum of the prefix)
            for x in rel:
                if x > 0:
                    row[x - 1] += power
                    power *= t
                else:
                    power //= t
                    row[-x - 1] -= power
            matrix.append(row[:-1])
            scale *= t ** len(rel)
        out[t] = Fraction(int_det(matrix), scale)
    return out


def int_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# -- integer homology by determinantal divisors -------------------------------

def cokernel(columns, nrows: int) -> tuple[int, tuple[int, ...], int]:
    """(free rank, torsion orders, matrix rank) of Z^nrows / span(columns).

    The k-th determinantal divisor d_k is the gcd of all k x k minors;
    the invariant factors are d_k / d_(k-1).
    """
    ncols = len(columns)
    rows = [[col[i] for col in columns] for i in range(nrows)]
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                g = gcd(g, int_det([[rows[i][j] for j in ci] for i in ri]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g)
    rank = len(divisors) - 1
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return nrows - rank, tuple(f for f in factors if f > 1), rank


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """``Z^2+Z/3`` -> (2, (3,)); ``0`` -> (0, ())."""
    if text == "0":
        return 0, ()
    rank, torsion = 0, []
    for part in text.split("+"):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"bad group {text!r}")
    return rank, tuple(torsion)


# -- per-workload checks ----------------------------------------------------
# Each returns None when the output is right, else a short reason.

def check_family(n_max: int, status: int, out: str) -> str | None:
    if status != 0:
        return f"exit status {status}"
    doc = json.loads(out)
    if doc["all_pass"] is not True:
        return "all_pass is not true"
    if doc["conclusions"] != {"boundaries_pairwise_distinct": True, "no_boundary_is_s3": True}:
        return "conclusions"
    rows = doc["rows"]
    if [row["n"] for row in rows] != list(range(1, n_max + 1)):
        return "row indices"
    for row in rows:
        n = row["n"]
        if parse_laurent_text(row["factor"]) != ribbon_factor(n):
            return f"f(t) at n={n}"
        if parse_laurent_text(row["delta"]) != ribbon_delta(n):
            return f"Delta(t) at n={n}"
        if row["delta2_at_1"] != 2 * n * (n + 1):
            return f"Delta''(1) at n={n}"
        if row["casson"] != n * (n + 1):
            return f"casson at n={n}"
        if row["homology"] != "Z,0,0" or row["chi"] != 1:
            return f"homology at n={n}"
        if row["allowable"] is not True or row["closed_form_match"] is not True:
            return f"flags at n={n}"
    return None


def check_alexander(expect: tuple, status: int, out: str) -> str | None:
    if status != 0:
        return f"exit status {status}"
    poly = parse_laurent_text(out)
    kind, value = expect
    if kind == "ribbon":
        return None if poly == ribbon_factor(value) else "ribbon f(t)"
    return None if unit_multiple(poly, value) else "Fox minor"


def check_palf(expect: dict, status: int, out: str) -> str | None:
    if status != 0:
        return f"exit status {status}"
    doc = json.loads(out)
    h1 = expect["h1"]
    for key in ("surface", "cycles", "chi", "boundary_homology_sphere"):
        if doc[key] != expect[key]:
            return key
    if doc["allowable"] is not True or doc["offending_cycle"] is not None:
        return "allowable"
    h0_text, h1_text, h2_text = doc["homology"].split(",")
    if (parse_group(h0_text), parse_group(h1_text), parse_group(h2_text)) != ((1, ()), h1, (expect["h2"], ())):
        return "homology"
    if doc["pi1"] not in ("Trivial", "Unknown"):
        return "pi1 verdict"
    if doc["pi1"] == "Trivial" and h1 != (0, ()):
        return "Trivial verdict with H1 != 0"
    return None


@lru_cache(maxsize=None)
def palf_expectation(holes: int, classes: tuple[tuple[int, ...], ...]) -> dict:
    """Expected `palf --json` fields from the cycles' homology classes."""
    free, torsion, rank = cokernel(classes, holes - 1)
    m = len(classes)
    square = m == holes - 1
    return {
        "surface": f"S(0,{holes})",
        "cycles": m,
        "chi": 2 - holes + m,
        "boundary_homology_sphere": square and abs(int_det([[c[i] for c in classes] for i in range(m)])) == 1,
        "h1": (free, torsion),
        "h2": m - rank,
    }
