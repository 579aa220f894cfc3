import random
import sys
from functools import reduce

import pytest

from conftest import palf_pool_texts, random_laurent, random_presentation
from palfkit import cli, grammar, lefschetz, surface
from palfkit.grammar import (
    MAX_HOLES,
    MAX_NESTING,
    MAX_WORD_LETTERS,
    ParseError,
    parse_laurent,
    parse_mapping_class,
    parse_monodromy,
    parse_presentation,
    parse_surface,
)
from palfkit.laurent import LaurentPoly
from palfkit.lefschetz import family_twists, mazur_family
from palfkit.presentation import TRIVIAL
from palfkit.report import palf_summary
from palfkit.surface import (
    MappingClass,
    PlanarSurface,
    apply,
    compose,
    dehn_twist,
    power,
    standard_curve,
)
from palfkit.words import Word


# -- presentations -------------------------------------------------------------

def test_parse_ribbon_presentation():
    p = parse_presentation("x y | (x y)^2 x (x y)^-2 y^-1")
    assert p.rank == 2
    assert len(p.relators) == 1
    assert p.relators[0].letters == (1, 2, 1, 2, 1, -2, -1, -2, -1, -2)


def test_parse_free_group():
    p = parse_presentation("x |")
    assert p.rank == 1 and p.relators == ()


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("x |)")
    assert exc.value.line == 1 and exc.value.column == 4


def test_unknown_generator():
    with pytest.raises(ParseError):
        parse_presentation("x | x z")


def test_duplicate_generators():
    with pytest.raises(ParseError):
        parse_presentation("x x | x")


def test_rank_zero_presentation():
    p = parse_presentation(" | ")
    assert p.rank == 0 and p.relators == ()


def test_identity_atom_and_powers():
    p = parse_presentation("x | 1, x^0, (x)^3")
    assert [r.letters for r in p.relators] == [(), (), (1, 1, 1)]


def test_multiline_error_position():
    with pytest.raises(ParseError) as exc:
        parse_presentation("x y |\n x ^")
    assert exc.value.line == 2
    # every str.splitlines break starts a line, for tokens and for the end of
    # input alike; the end sits past the last character, on a line of its own
    # after a trailing break
    for brk in ("\n", "\r\n", "\r", "\x0c", "\u2028"):
        for text, position in ((f"x |{brk}x^", (2, 3)), (f"x |{brk}x^ y", (2, 4)), (f"x{brk}", (2, 1))):
            with pytest.raises(ParseError) as exc:
                parse_presentation(text)
            assert (exc.value.line, exc.value.column) == position, repr(text)


def test_overlong_integer_literal_is_a_parse_error():
    # CPython refuses to convert a decimal string longer than its limit; the
    # parsers report that at the literal instead of a bare ValueError
    nines = "9" * 5000
    cases = [
        (parse_presentation, "x | x^" + nines, 7),
        (parse_laurent, nines + "t", 1),
        (parse_monodromy, "S(0," + nines + ")", 5),
        (parse_monodromy, "S(0,4); T std{" + nines + "}", 15),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for parse, text, column in cases:
            with pytest.raises(ParseError, match="5000 digits is too long") as exc:
                parse(text)
            assert (exc.value.line, exc.value.column) == (1, column), text[:20]
    finally:
        sys.set_int_max_str_digits(limit)


def test_non_ascii_digits_are_unexpected_characters():
    # superscript digits pass str.isdigit but are not decimal digits, so
    # they must fail as positioned parse errors, not as int() errors
    cases = [
        (parse_presentation, "x y | x^\u00b2", 9),
        (parse_monodromy, "S(0,\u00b2)", 5),
        (parse_monodromy, "S(0,4); T std{1,\u00b2}", 17),
        (parse_laurent, "\u00b3t", 1),
        (parse_presentation, "x | x^\u0663", 7),  # ARABIC-INDIC DIGIT THREE is decimal
    ]
    for parse, text, column in cases:
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, column), text


def test_non_ascii_letters_are_unexpected_characters():
    # a name is ASCII only: a non-ASCII letter must not split it into two
    # names, nor start a name of its own
    cases = [
        (parse_presentation, "x\u00e9 | x\u00e9", 1, 2),
        (parse_presentation, "x_\u00e9 | x", 1, 3),
        (parse_presentation, "x y |\n\u00e9", 2, 1),
        (parse_monodromy, "S(0,4); \u00e9 std{1,2}", 1, 9),
        (parse_laurent, "1 + \u00b5", 1, 5),
    ]
    for parse, text, line, column in cases:
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (line, column), text


def _tokenize_by_hand(text):
    # oracle for grammar._tokenize: the character-by-character scan it
    # replaced, which skips str.isspace characters and matches one token at
    # each other position
    tokens = []
    lines = (text + " ").splitlines()
    for lineno, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = grammar._TOKEN.match(line, pos)
            assert m is not None
            chunk = m.group()
            col = pos + 1
            if m.lastgroup in ("name", "int"):
                kind = m.lastgroup
            elif m.lastgroup == "punct":
                kind = chunk
            else:
                raise ParseError(f"unexpected character {chunk!r}", lineno, col)
            tokens.append(grammar._Token(kind, chunk, lineno, col))
            pos = m.end()
    tokens.append(grammar._Token("end", "", len(lines), len(lines[-1])))
    return tokens


def _token_outcome(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc)


# pieces of tokenizer input: grammar punctuation, name and keyword pieces,
# digits, every str.splitlines boundary and other Unicode whitespace, then the
# characters no token accepts (non-ASCII letters and digits among them)
_VALID_PIECES = (
    list("()|,;{}/^*+-") + ["x", "Tg", "std", "apply", "S", "_", "a1", "t"] + list("0123456789") + ["42"]
    + ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    + [" ", "\t", "\x1f", "\xa0", "\u3000"]
)
_INVALID_PIECES = ["\xe9", "\xdf", "\u03bb", "\xb2", "\u0663", "\uff11", "@", "."]


def test_tokenize_matches_the_character_scan():
    rng = random.Random(97)
    for i in range(10_000):
        # half the strings draw only valid pieces, so they tokenize in full
        pieces = _VALID_PIECES + _INVALID_PIECES if i % 2 else _VALID_PIECES
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 16)))
        assert _token_outcome(grammar._tokenize, text) == _token_outcome(_tokenize_by_hand, text), repr(text)


def test_presentation_round_trip():
    rng = random.Random(91)
    for _ in range(300):
        p = random_presentation(rng)
        assert parse_presentation(str(p)) == p


# -- Laurent polynomials ----------------------------------------------------------

def test_parse_laurent_forms():
    assert parse_laurent("0") == LaurentPoly.zero()
    assert parse_laurent("1 - t + t^2") == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert parse_laurent("t^-2 - 2*t^-1 + 3 - 2t + t^2") == LaurentPoly({-2: 1, -1: -2, 0: 3, 1: -2, 2: 1})
    assert parse_laurent("-t + 2") == LaurentPoly({1: -1, 0: 2})
    assert parse_laurent("+3") == LaurentPoly({0: 3})


def test_laurent_round_trip():
    rng = random.Random(92)
    for _ in range(300):
        p = random_laurent(rng)
        assert parse_laurent(str(p)) == p


def test_laurent_errors():
    for bad in ("", "t +", "x", "2**t", "t^", "1 1"):
        with pytest.raises(ParseError):
            parse_laurent(bad)


# -- monodromies -------------------------------------------------------------------

def test_parse_two_cycle_spec():
    spec = parse_monodromy("S(0,4); T std{1,2}; T std{2,3}")
    assert spec.fiber == PlanarSurface(4)
    assert [c.word.letters for c in spec.cycles] == [(1, 2), (2, 3)]


def test_parse_empty_monodromy():
    spec = parse_monodromy("S(0,4);")
    assert spec.cycles == ()
    assert parse_monodromy("S(0,4)").cycles == ()


def test_family_file_matches_generator():
    # apply(F^n, c) steps F over the curve word n times; the closed form W_n
    # of mazur_family checks every step count
    for n in range(1, 41):
        text = f"S(0,4); T std{{1}}; T std{{1,2}}; T apply((Tg Tb)^{n}, std{{2,3}})"
        assert parse_monodromy(text) == mazur_family(n)


def test_side_flag_words():
    # the parsed word, standard_curve on the same flag string, and an oracle
    # that conjugates each enclosed generator by the over-flagged generators
    # between it and the previous enclosed hole
    rng = random.Random(31)
    flagged = 0
    for _ in range(600):
        s = PlanarSurface(rng.randrange(4, 10))
        holes = rng.sample(range(1, s.holes), rng.randrange(1, s.holes))
        enclosed = sorted(holes)
        skipped = [h for h in range(enclosed[0] + 1, enclosed[-1]) if h not in holes]
        flags = "".join(rng.choice("ou") for _ in skipped)
        text = f"S(0,{s.holes}); T std{{{','.join(map(str, holes))}{'/' + flags if flags else ''}}}"
        parsed = parse_monodromy(text).cycles[0].word

        gens = s.group.generators()
        over = {h for h, flag in zip(skipped, flags) if flag == "o"}
        expected = s.group.identity
        for prev, h in zip([enclosed[0]] + enclosed, enclosed):
            passed = s.group.word(sorted(over & set(range(prev, h))))
            expected = expected * gens[h - 1].conjugate(passed)

        assert parsed == standard_curve(s, holes, flags).word == expected, text
        flagged += bool(flags)
    assert flagged >= 200


def test_missing_side_flags(tmp_path, capsys):
    # a flag error points at the flags, and a curve with none at its 'std'
    cases = [
        ("S(0,4); T std{1,3}", "[2], got '' (line 1, column 11)"),
        ("S(0,4); T std{1,3/ou}", "[2], got 'ou' (line 1, column 19)"),
        ("S(0,4); T std{1,2/o}", "[], got 'o' (line 1, column 19)"),
        ("S(0,5); T std{1,4/Ou}", "[2, 3], got 'Ou' (line 1, column 19)"),
    ]
    source = tmp_path / "input.palf"
    for text, message in cases:
        source.write_text(text, encoding="utf-8")
        assert cli.main(["palf", "--input", str(source)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected one 'o'/'u' flag per skipped hole {message}\n"


def test_hole_out_of_range():
    with pytest.raises(ParseError):
        parse_monodromy("S(0,4); T std{4}")
    with pytest.raises(ParseError):
        parse_monodromy("S(0,4); T std{0}")


def test_unknown_curve_form():
    with pytest.raises(ParseError):
        parse_monodromy("S(0,4); T loop{1}")


def test_monodromy_requires_twist_entries():
    with pytest.raises(ParseError):
        parse_monodromy("S(0,4); std{1,2}")
    with pytest.raises(ParseError):
        parse_monodromy("S(0,4); Ta")


# -- surfaces and mapping-class expressions -------------------------------------------

def test_parse_surface():
    assert parse_surface("S(0,5)") == PlanarSurface(5)
    with pytest.raises(ParseError):
        parse_surface("S(1,3)")
    with pytest.raises(ParseError):
        parse_surface("D(0,3)")
    with pytest.raises(ParseError):
        parse_surface("S(0,0)")


def test_trailing_input_error_of_each_entry_point():
    # each parser names the first token it could not use and points at it
    s = PlanarSurface(4)
    cases = [
        (parse_presentation, "x y | x y,\n  y x )", "unexpected ')'", 2, 7),
        (parse_presentation, "x | x ; x", "unexpected ';'", 1, 7),
        (parse_monodromy, "S(0,4); T std{1}\n T std{2}", "unexpected 'T'", 2, 2),
        (parse_monodromy, "S(0,4) |", "unexpected '|'", 1, 8),
        (parse_surface, "S(0,4)\n\n  (", "unexpected '('", 3, 3),
        (parse_surface, "S(0,4);", "unexpected ';'", 1, 7),
        (lambda text: parse_mapping_class(text, s), "Tg Tb\n)^2", "unexpected ')'", 2, 1),
        (lambda text: parse_mapping_class(text, s), "(Tg Tb)^2 ;", "unexpected ';'", 1, 11),
    ]
    for parse, text, message, line, column in cases:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (line {line}, column {column})", repr(text)
        assert (exc.value.line, exc.value.column) == (line, column), repr(text)


def test_generator_names_may_collide_with_keywords():
    p = parse_presentation("t std | t std t^-1 std^-1")
    assert p.rank == 2 and len(p.relators) == 1


def test_mapping_class_expressions():
    s = PlanarSurface(4)
    t_a, t_b, t_g = family_twists()
    assert parse_mapping_class("Tb", s) == t_b
    assert parse_mapping_class("Tg Tb", s) == compose(t_g, t_b)
    assert parse_mapping_class("(Tg Tb)^2", s) == power(compose(t_g, t_b), 2)
    assert parse_mapping_class("(Tg Tb)^-1", s) == compose(t_g, t_b).inverse()
    assert parse_mapping_class("T std{1,2}", s) == t_b
    assert parse_mapping_class("(Tb)^0", s) == MappingClass.identity(s)


def test_alias_builds_only_its_own_twist(monkeypatch):
    s = PlanarSurface(4)
    twists = family_twists()
    for name, expected in zip(("Ta", "Tb", "Tg"), twists):
        calls = []
        curves = []

        def counting_twist(curve, _twist=grammar.dehn_twist):
            calls.append(curve)
            return _twist(curve)

        def counting_curve(*args, _curve=grammar.standard_curve):
            curves.append(args)
            return _curve(*args)

        for module in (grammar, lefschetz):  # every module that binds them
            monkeypatch.setattr(module, "dehn_twist", counting_twist)
            monkeypatch.setattr(module, "standard_curve", counting_curve)
        phi = parse_mapping_class(name, s)
        monkeypatch.undo()
        assert len(calls) == 1, name
        assert len(curves) == 1, name
        assert phi.images == expected.images and phi.inverse_images == expected.inverse_images
        assert phi == expected


def test_alias_needs_family_surface():
    with pytest.raises(ParseError):
        parse_mapping_class("Tg", PlanarSurface(5))


def test_apply_nesting():
    text = "S(0,4); T apply(Tb, apply(Tg, std{2,3}))"
    spec = parse_monodromy(text)
    s = PlanarSurface(4)
    t_a, t_b, t_g = family_twists()
    from palfkit.surface import apply as apply_mc

    expected = apply_mc(t_b, apply_mc(t_g, standard_curve(s, (2, 3))))
    assert spec.cycles[0].word == expected.word


def _std(run):
    return "std{" + ",".join(map(str, run)) + "}"


def _powered_run_twist(rng, s, runs):
    # a factor's text, and its map built by power alone
    run, k = rng.choice(runs), rng.choice((-2, -1, 1, 2))
    text = f"T {_std(run)}" if k == 1 and rng.random() < 0.5 else f"(T {_std(run)})^{k}"
    return text, power(dehn_twist(standard_curve(s, run)), k)


def test_multi_factor_apply_matches_the_composed_product():
    # differential: apply(F1^a F2^b [F3^c], c) steps each powered factor on
    # the curve word, right to left, and keeps the factors; the word, the
    # homology class and the twist must equal those of apply(product, c),
    # with the product composed up front.  Every third target is an image.
    rng = random.Random(26)
    image_targets = 0
    for case in range(510):
        s = PlanarSurface(rng.randrange(4, 7))
        runs = [tuple(range(a, b + 1)) for a in range(1, s.holes) for b in range(a, s.holes)]
        texts, maps = zip(*(_powered_run_twist(rng, s, runs) for _ in range(rng.choice((2, 3)))))
        base = rng.choice(runs)
        target_text, target = _std(base), standard_curve(s, base)
        if case % 3 == 0:
            inner_text, inner = _powered_run_twist(rng, s, runs)
            target_text, target = f"apply({inner_text}, {target_text})", apply(inner, target)
            image_targets += 1
        [cycle] = parse_monodromy(f"S(0,{s.holes}); T apply({' '.join(texts)}, {target_text})").cycles
        expected = apply(reduce(compose, maps), target)
        assert cycle.word == expected.word, (texts, target_text)
        assert cycle.homology_class == expected.homology_class
        assert dehn_twist(cycle) == dehn_twist(expected), (texts, target_text)
    assert image_targets == 170


def test_multi_factor_apply_composes_nothing(monkeypatch):
    # multi-factor and nested applies parse with power and compose refused in
    # every module that binds them: each factor steps on the curve word
    def refuse(*args):
        raise AssertionError("a map was powered or composed")

    for module in (surface, grammar):
        for name in ("power", "compose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    text = (
        "S(0,5); T apply((T std{1,2})^2 (T std{2,3,4})^-1 T std{3}, std{1});"
        " T apply((T std{1,2,3,4})^3 T std{2,3}, apply((T std{3,4})^-1 T std{1,2}, std{2,3}));"
        " T apply(T std{4}, apply((T std{2,3})^2, apply(T std{1,2,3} (T std{3,4})^-2, std{3,4})))"
    )
    spec = parse_monodromy(text)
    monkeypatch.undo()
    assert spec == parse_monodromy(text)
    assert [len(c.factors) for c in spec.cycles] == [3, 4, 4]


# -- sharing within one parse ---------------------------------------------------

def _shared_factor(rng, holes, runs, image=True):
    # a factor over a few runs, so that parses repeat curves and twists:
    # an alias, a run twist or the twist about an image of a run
    pick = rng.random()
    if holes == 4 and pick < 0.3:
        text = rng.choice(("Ta", "Tb", "Tg"))
    elif pick < 0.85 or not image:
        text = f"T {_std(rng.choice(runs))}"
    else:
        text = f"T apply({_shared_factor(rng, holes, runs, False)}, {_std(rng.choice(runs))})"
    k = rng.choice((-2, -1, 1, 1, 2))
    return text if k == 1 else f"({text})^{k}"


def _shared_curve(rng, holes, runs, image=True):
    # a run, a skipped standard curve, or an image of either
    pick = rng.random()
    if pick < 0.3 or (pick >= 0.4 and not image):
        return _std(rng.choice(runs))
    if pick < 0.4:
        return f"std{{1,{holes - 1}/{''.join(rng.choice('ou') for _ in range(holes - 3))}}}"
    factors = " ".join(_shared_factor(rng, holes, runs) for _ in range(rng.randint(1, 2)))
    return f"apply({factors}, {_shared_curve(rng, holes, runs, rng.random() < 0.3)})"


def _shared_inputs(rng, count):
    # (surface, entries) on S(0,4..7) where entries repeat whole and reuse
    # one curve as a cycle, as a twist factor and as an apply target
    for _ in range(count):
        holes = rng.randrange(4, 8)
        every_run = [tuple(range(a, b + 1)) for a in range(1, holes) for b in range(a, holes)]
        runs = rng.sample(every_run, 3)
        entries = []
        for _ in range(rng.randint(2, 5)):
            if entries and rng.random() < 0.3:
                entries.append(rng.choice(entries))
            else:
                entries.append(f"T {_shared_curve(rng, holes, runs)}")
        yield PlanarSurface(holes), entries


def _assert_same_curve(a, b):
    assert a.word == b.word and a.homology_class == b.homology_class
    assert (a.base is None and b.base is None) or a.base.word == b.base.word
    assert len(a.factors) == len(b.factors)
    for (phi, m), (psi, n) in zip(a.factors, b.factors):
        assert m == n and phi.images == psi.images and phi.inverse_images == psi.inverse_images


def test_a_shared_parse_equals_separate_parses():
    # each cycle of one parse, whose curves and run twists are built once and
    # shared, equals its entry parsed alone; separate parses share nothing
    inputs = [(parse_surface(text.split(";")[0]), text.split("; ")[1:]) for text in palf_pool_texts(1)]
    inputs += _shared_inputs(random.Random(38), 400)
    shared = 0
    for s, entries in inputs:
        spec = parse_monodromy(f"S(0,{s.holes}); " + "; ".join(entries))
        assert len(spec.cycles) == len(entries)
        for cycle, entry in zip(spec.cycles, entries):
            [alone] = parse_monodromy(f"S(0,{s.holes}); {entry}").cycles
            _assert_same_curve(cycle, alone)
        shared += len({id(c) for c in spec.cycles}) < len(spec.cycles)
    assert len(inputs) == 1040 and shared >= 50


def test_a_shared_mapping_class_equals_the_product_of_separate_parses():
    rng = random.Random(39)
    for _ in range(500):
        holes = rng.randrange(4, 8)
        every_run = [tuple(range(a, b + 1)) for a in range(1, holes) for b in range(a, holes)]
        runs = rng.sample(every_run, 2)
        s = PlanarSurface(holes)
        factors = [_shared_factor(rng, holes, runs) for _ in range(rng.randint(2, 3))]
        phi = parse_mapping_class(" ".join(factors), s)
        expected = reduce(compose, (parse_mapping_class(f, s) for f in factors))
        assert phi.images == expected.images and phi.inverse_images == expected.inverse_images


def _count_builds(monkeypatch):
    # the standard-curve keys and twisted words grammar builds, in order
    curves, twists = [], []

    def counting_curve(surface, holes, sides="", _curve=grammar.standard_curve):
        curves.append((tuple(holes), sides))
        return _curve(surface, holes, sides)

    def counting_twist(curve, _twist=grammar.dehn_twist):
        twists.append(curve.word.letters)
        return _twist(curve)

    monkeypatch.setattr(grammar, "standard_curve", counting_curve)
    monkeypatch.setattr(grammar, "dehn_twist", counting_twist)
    return curves, twists


def test_a_parse_builds_each_distinct_curve_and_run_twist_once(monkeypatch):
    curves, twists = _count_builds(monkeypatch)
    # a class-b input: Tb and std{1,2}, and Tg and std{2,3}, share a key
    text = "S(0,4); T apply((Tg Ta Tb)^2, std{1,2}); T apply((Ta Tg)^3, std{2,3}); T apply((Tg Tb)^2, std{1,2})"
    parse_monodromy(text)
    assert curves == [((2, 3), ""), ((1,), ""), ((1, 2), "")]
    assert twists == [(2, 3), (1,), (1, 2)]
    parse_monodromy(text)  # nothing outlives a parse
    assert len(curves) == len(twists) == 6
    del curves[:], twists[:]
    s = PlanarSurface(4)
    parse_mapping_class("Tb T std{1,2} (Tb)^2 T apply(Tb, std{2,3}) T apply(Tb, std{2,3})", s)
    image = apply(dehn_twist(standard_curve(s, (1, 2))), standard_curve(s, (2, 3))).word.letters
    assert curves == [((1, 2), ""), ((2, 3), "")]
    assert twists == [(1, 2), image, image]  # an image's twist is built each time
    # over the seed-1 palf pool no key is built twice within one parse, and
    # the only abelianized words are the standard curves' own: an image's
    # class is its base's, moved by its factors' hole permutations
    vectors = []
    exponent_vector = Word.exponent_vector
    monkeypatch.setattr(Word, "exponent_vector", lambda self: vectors.append(self) or exponent_vector(self))
    total_curves = total_twists = 0
    for text in palf_pool_texts(1):
        del curves[:], twists[:]
        parse_monodromy(text)
        assert len(set(curves)) == len(curves) and len(set(twists)) == len(twists), text
        total_curves += len(curves)
        total_twists += len(twists)
    assert (total_curves, total_twists, len(vectors)) == (2130, 1814, 2130)


def test_palf_steps_image_words_only_for_the_pi1_search(map_steps):
    # an image's class comes from its base, so over the seed-1 palf pool no
    # map is applied to a word on the inputs with H1 != 0, whose pi1 is not
    # searched; the inputs with H1 = 0 step their images and stay Trivial
    counts = {True: [], False: []}
    for text in palf_pool_texts(1):
        del map_steps[:]
        spec = parse_monodromy(text)
        row = palf_summary(spec)
        h1_zero = lefschetz.homology(spec).h1 == (0, ())
        counts[h1_zero].append(len(map_steps))
        if h1_zero:
            assert row["pi1"] == TRIVIAL, text
    assert (len(counts[False]), sum(counts[False])) == (609, 0)
    assert (len(counts[True]), sum(counts[True])) == (31, 214)


def test_errors_inside_apply_keep_their_bytes(tmp_path, capsys):
    # apply steps nothing, but every check of a curve, a factor or the text
    # around it is made where it stands, with the same bytes; the last input
    # is refused at once after a huge power that is never stepped
    cases = [
        ("S(0,4); T apply((Tg Tb)^3, std{1,4})",
         "error: hole index 4 out of range on S(0,4) (line 1, column 34)\n"),
        ("S(0,4); T apply(T std{1,3/o}, std{2,3})",
         "error: no direct twist about x1 x2 x3 x2^-1: its word is not a run xa ... xb (line 1, column 19)\n"),
        ("S(0,4); T apply((Tg Tb)^2, std{2,3}",
         "error: expected ')', found end of input (line 1, column 36)\n"),
        ("S(0,4); T apply(Tg Tq, std{2,3})",
         "error: expected ',', found 'Tq' (line 1, column 20)\n"),
        ("S(0,4); T apply((Tg Tb)^1000000000000, std{2,3}); T std{1,3}",
         "error: expected one 'o'/'u' flag per skipped hole [2], got '' (line 1, column 53)\n"),
    ]
    source = tmp_path / "input.palf"
    for text, err in cases:
        source.write_text(text, encoding="utf-8")
        assert cli.main(["palf", "--input", str(source)]) == 2
        assert capsys.readouterr() == ("", err)


def test_errors_of_shared_curves_keep_their_position(tmp_path, capsys):
    # a shared curve whose twist is refused, and a key that differs only in
    # its flags, fail at the occurrence that fails, with unchanged bytes
    cases = [
        ("S(0,4); T std{1,3/o}; T apply(T std{1,3/o}, std{1})",
         "error: no direct twist about x1 x2 x3 x2^-1: its word is not a run xa ... xb (line 1, column 33)\n"),
        ("S(0,4); T std{1,3/o}; T std{1,3}",
         "error: expected one 'o'/'u' flag per skipped hole [2], got '' (line 1, column 25)\n"),
    ]
    source = tmp_path / "input.palf"
    for text, err in cases:
        source.write_text(text, encoding="utf-8")
        assert cli.main(["palf", "--input", str(source)]) == 2
        assert capsys.readouterr() == ("", err)


def test_nesting_limit():
    inner = "(" * (MAX_NESTING - 1) + "Tg" + ")" * (MAX_NESTING - 1)
    assert len(parse_monodromy(f"S(0,4); T apply({inner}, std{{2,3}})").cycles) == 1
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_monodromy(f"S(0,4); T apply(({inner}), std{{2,3}})")
    nested_curve = "apply(T " * MAX_NESTING + "std{1}" + ", std{1})" * MAX_NESTING
    assert parse_monodromy(f"S(0,4); T {nested_curve}").cycles[0].word == standard_curve(PlanarSurface(4), (1,)).word
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_monodromy(f"S(0,4); T apply(T {nested_curve}, std{{1}})")
    word = "(" * MAX_NESTING + "x y" + ")" * MAX_NESTING
    assert parse_presentation(f"x y | {word}").relators[0] == parse_presentation("x y | x y").relators[0]
    with pytest.raises(ParseError, match=rf"\(line 1, column {7 + MAX_NESTING}\)"):  # the first '(' too deep
        parse_presentation(f"x y | ({word})")


def test_word_length_limit():
    assert len(parse_presentation(f"x | x^{MAX_WORD_LETTERS}").relators[0]) == MAX_WORD_LETTERS
    assert len(parse_presentation(f"x y | (x y)^-{MAX_WORD_LETTERS // 2}").relators[0]) == MAX_WORD_LETTERS
    with pytest.raises(ParseError, match=rf"longer than {MAX_WORD_LETTERS} letters"):
        parse_presentation(f"x | x^{MAX_WORD_LETTERS} x")
    with pytest.raises(ParseError, match=r"\(line 1, column 15\)"):  # at the outer '^'
        parse_presentation("x y | (x^1000)^1000")
    with pytest.raises(ParseError, match=r"\(line 1, column 8\)"):
        parse_presentation("x y | x^1000000000000 y^-1")


def test_hole_limit():
    assert parse_surface(f"S(0,{MAX_HOLES})").holes == MAX_HOLES
    assert parse_monodromy(f"S(0,{MAX_HOLES}); T std{{1,2}}").fiber.holes == MAX_HOLES
    with pytest.raises(ParseError, match=rf"more than {MAX_HOLES} holes"):
        parse_surface(f"S(0,{MAX_HOLES + 1})")
