"""Seeded inputs for the three workloads.

Each workload is a pool of ops with a fixed composition (the same sizes and
kinds of input for every seed); the seed picks the concrete inputs and
their order.  The timed loop repeats the whole pool, so every run measures
the same mix whatever the seed.

An op is the argument list for ``palfkit.cli.main`` plus an independent
check of its output (see ``oracle``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]


# -- family ------------------------------------------------------------------
# The pool is a seeded permutation of N = 1..FAMILY_N_MAX.

FAMILY_N_MAX = 20


def _family_op(n: int) -> Op:
    return Op(("family", "--n-max", str(n), "--json"), partial(oracle.check_family, n))


def family_pool(seed: int, workdir: Path) -> list[Op]:
    ns = list(range(1, FAMILY_N_MAX + 1))
    random.Random(seed).shuffle(ns)
    return [_family_op(n) for n in ns]


def family_warmup(workdir: Path) -> Op:
    return _family_op(10)


# -- alexander ---------------------------------------------------------------
# The pool holds ALEXANDER_GROUPS groups of ten: 3 ribbon presentations, one
# n from each third of 1..120, and 7 random zero-exponent-sum presentations
# of the ranks listed below, whose relators get shorter as the rank (and so
# the minor size) grows.

ALEXANDER_GROUPS = 40
RIBBON_STRATA = ((1, 40), (41, 80), (81, 120))
RANDOM_RANKS = (3, 4, 5, 6, 7, 3, 5)
RELATOR_LENGTH = {3: 40, 4: 28, 5: 20, 6: 14, 7: 10}
GENERATOR_NAMES = "abcdefg"


def ribbon_text(n: int) -> str:
    return f"x y | (x y)^{n} x (x y)^-{n} y^-1"


def random_relator(rng: random.Random, rank: int, length: int) -> list[int]:
    """A freely reduced word with as many positive as negative letters."""
    signs = [1] * (length // 2) + [-1] * (length // 2)
    rng.shuffle(signs)
    letters: list[int] = []
    for s in signs:
        choices = [g for g in range(1, rank + 1) if not letters or letters[-1] != -s * g]
        letters.append(s * rng.choice(choices))
    return letters


def word_text(letters: list[int]) -> str:
    return " ".join(GENERATOR_NAMES[abs(x) - 1] + ("" if x > 0 else "^-1") for x in letters)


def _alexander_op(text: str, expect: tuple) -> Op:
    return Op(("alexander", "--presentation", text), partial(oracle.check_alexander, expect))


def random_presentation_op(rng: random.Random, rank: int) -> Op:
    relators = [random_relator(rng, rank, RELATOR_LENGTH[rank]) for _ in range(rank - 1)]
    text = f"{' '.join(GENERATOR_NAMES[:rank])} | {', '.join(word_text(r) for r in relators)}"
    return _alexander_op(text, ("fox", oracle.fox_minor_values(rank, relators)))


def alexander_pool(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    pool = []
    for _ in range(ALEXANDER_GROUPS):
        pool += [_alexander_op(ribbon_text(n), ("ribbon", n)) for n in (rng.randint(lo, hi) for lo, hi in RIBBON_STRATA)]
        pool += [random_presentation_op(rng, rank) for rank in RANDOM_RANKS]
    rng.shuffle(pool)
    return pool


def alexander_warmup(workdir: Path) -> Op:
    return _alexander_op(ribbon_text(60), ("ribbon", 60))


# -- palf --------------------------------------------------------------------
# Class (a): PALF_A_PER_FIBER short factorizations on each of S(0,4..7), with
# 1..r+2 cycles that are standard run curves or their images under a product
# of run-curve twist powers; the seed draws them.
# Class (b): three-cycle factorizations on S(0,4) with cycles
# apply((w_i)^k_i, c_i), for every choice of words w_i and powers k_i below,
# on the bases (std{1,2}, std{2,3}, std{1,2}).  These are the inputs on
# which Tietze simplification does real work; its cost is heavy-tailed (most
# take well under a millisecond, a few take 100 ms), so the pool holds the
# whole grid rather than a seeded sample, which would make the measured mix
# depend on how many slow inputs a seed happened to draw.
# Twists act trivially on the homology of a planar surface, so a cycle's
# homology class is the indicator vector of its base run.

PALF_A_PER_FIBER = 32
PALF_B_WORDS = ("Tg Tb", "Tb Tg", "Tg Ta Tb", "Ta Tg")
PALF_B_POWERS = (2, 3)
PALF_B_BASES = ((1, 2), (2, 3), (1, 2))


def _runs(holes: int) -> list[tuple[int, ...]]:
    inner = holes - 1
    return [tuple(range(i, j + 1)) for i in range(1, inner + 1) for j in range(i, inner + 1)]


def _std(run: tuple[int, ...]) -> str:
    return "std{" + ",".join(map(str, run)) + "}"


def _class(run: tuple[int, ...], holes: int) -> tuple[int, ...]:
    return tuple(1 if h in run else 0 for h in range(1, holes))


def palf_class_a(rng: random.Random, holes: int) -> tuple[str, list[tuple[int, ...]]]:
    runs = _runs(holes)
    entries, classes = [], []
    for _ in range(rng.randint(1, holes + 2)):
        run = rng.choice(runs)
        if rng.random() < 0.5:
            curve = _std(run)
        else:
            factors = " ".join(
                f"(T {_std(rng.choice(runs))})^{rng.choice((-3, -2, -1, 1, 2, 3))}" for _ in range(rng.randint(1, 2))
            )
            curve = f"apply({factors}, {_std(run)})"
        entries.append(f"T {curve}")
        classes.append(_class(run, holes))
    return f"S(0,{holes}); " + "; ".join(entries), classes


def palf_class_b() -> list[str]:
    choices = list(itertools.product(PALF_B_WORDS, PALF_B_POWERS))
    return [
        "S(0,4); " + "; ".join(f"T apply(({w})^{k}, {_std(run)})" for (w, k), run in zip(cycles, PALF_B_BASES))
        for cycles in itertools.product(choices, repeat=len(PALF_B_BASES))
    ]


def _palf_op(path: Path, text: str, holes: int, classes: tuple[tuple[int, ...], ...]) -> Op:
    path.write_text(text + "\n", encoding="utf-8")
    expect = oracle.palf_expectation(holes, classes)
    return Op(("palf", "--input", str(path), "--json"), partial(oracle.check_palf, expect))


def palf_pool(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    b_classes = tuple(_class(run, 4) for run in PALF_B_BASES)
    inputs = [(text, 4, b_classes) for text in palf_class_b()]
    for holes in (4, 5, 6, 7):
        for _ in range(PALF_A_PER_FIBER):
            text, classes = palf_class_a(rng, holes)
            inputs.append((text, holes, tuple(classes)))
    rng.shuffle(inputs)
    return [_palf_op(workdir / f"{i}.txt", text, holes, classes) for i, (text, holes, classes) in enumerate(inputs)]


def palf_warmup(workdir: Path) -> Op:
    text = "S(0,4); T std{1}; T std{1,2}; T apply((Tg Tb)^3, std{2,3})"
    return _palf_op(workdir / "warmup.txt", text, 4, ((1, 0, 0), (1, 1, 0), (0, 1, 1)))


# name -> (pool builder, warm-up op); the warm-up op is the same for every seed
WORKLOADS = {
    "family": (family_pool, family_warmup),
    "alexander": (alexander_pool, alexander_warmup),
    "palf": (palf_pool, palf_warmup),
}
