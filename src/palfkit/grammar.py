"""Input grammars for presentations, monodromies, mapping-class
expressions, and Laurent polynomials.

Presentations::

    presentation := names '|' [ word (',' word)* ]
    word         := factor*
    factor       := (name | '1' | '(' word ')') ['^' integer]

Monodromies::

    monodromy := surface (';' entry)* [';']
    surface   := 'S' '(' 0 ',' holes ')'
    entry     := 'T' curve
    curve     := 'std' '{' hole (',' hole)* ['/' sides] '}'
               | 'apply' '(' mapclass ',' curve ')'
    mapclass  := factor+                      -- rightmost factor applied first
    factor    := ('T' curve | alias | '(' mapclass ')') ['^' integer]
    alias     := 'Ta' | 'Tb' | 'Tg'           -- family twists, S(0,4) only

``sides`` is one character per skipped hole in increasing order: ``o``
(over: the curve passes over the skipped hole, conjugating the next
generator) or ``u`` (under); its text is the ``sides`` argument of
:func:`standard_curve`.  A ``T curve`` factor twists about a run
``std{a,a+1,...,b}`` or an ``apply`` image of one; any other curve is a
:class:`ParseError` at the curve.  Within one parse, each distinct
standard curve and run twist is built once and shared, and nothing
outlives the parse.

Laurent polynomials::

    poly := ['+'|'-'] term (('+'|'-') term)*
    term := integer ['*'] ['t' ['^' integer]] | 't' ['^' integer]

Parentheses and ``apply(...)`` nest at most :data:`MAX_NESTING` levels
deep, a presentation word expands to at most :data:`MAX_WORD_LETTERS`
letters, and a surface has at most :data:`MAX_HOLES` holes.  All parse
failures, these three limits and an integer literal too long for ``int``
included, raise :class:`ParseError` carrying 1-based line and column
numbers, with lines as :meth:`str.splitlines` splits them.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .laurent import LaurentPoly
from .lefschetz import FAMILY_HOLE_RUNS, PALFSpec
from .presentation import Presentation
from .surface import (
    Curve,
    MappingClass,
    PlanarSurface,
    UnsupportedCurveError,
    _product,
    apply,
    dehn_twist,
    standard_curve,
)
from .words import FreeGroup, Word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# Each level of parentheses or ``apply(...)`` is a recursive call of the
# parser, so the limit keeps deep input from exhausting the interpreter stack.
MAX_NESTING = 100

# A word's length once every ``x^k`` is expanded, letters of nested
# parentheses included.  Far above any word the family needs (the ribbon
# relator of index n has 4n + 2 letters), and small enough that a huge
# exponent is refused before it is expanded.
MAX_WORD_LETTERS = 100_000

# Holes of a surface header.  S(0,r) has r - 1 generator names and a boundary
# word of r - 1 letters, so the header alone sets an allocation.  Far above
# the S(0,4) of the family, and small enough that a huge header is refused
# before the surface is built.
MAX_HOLES = 1000

# Names and integers are ASCII only; any other character, a non-ASCII letter
# or digit included, falls through to the unnamed ``\S`` branch and is
# refused as an unexpected character.  Whitespace (``\s``, the characters
# ``str.isspace`` accepts) matches no branch, so ``finditer`` skips it.
_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<punct>[()|,;{}/^*+\-])|\S")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # 'name', 'int', punctuation text, or 'end'
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    # Lines are what ``str.splitlines`` splits on (``\n``, ``\r\n``, ``\r``,
    # ``\x0c``, ``\u2028``, ...).  The appended space is skipped as
    # whitespace and marks where the end-of-input token sits: just past the
    # last character, on a line of its own after a trailing line break.
    lines = (text + " ").splitlines()
    for lineno, line in enumerate(lines, start=1):
        for m in _TOKEN.finditer(line):
            kind, chunk, col = m.lastgroup, m.group(), m.start() + 1
            if kind is None:
                raise ParseError(f"unexpected character {chunk!r}", lineno, col)
            tokens.append(_Token(chunk if kind == "punct" else kind, chunk, lineno, col))
    tokens.append(_Token("end", "", len(lines), len(lines[-1])))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # the standard curves and run twists this parse has built
        self.curves: dict[tuple[tuple[int, ...], str], Curve] = {}
        self.twists: dict[tuple[int, ...], MappingClass] = {}

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.current
        return ParseError(message, tok.line, tok.column)

    @contextmanager
    def nested(self):
        """One more level of parentheses or ``apply``, at most MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def expect(self, kind: str) -> _Token:
        if self.current.kind != kind:
            what = "end of input" if self.current.kind == "end" else repr(self.current.text)
            raise self.error(f"expected {kind!r}, found {what}")
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "end"

    def finish(self, value):
        """``value`` when every token is read, else an error at the first one left."""
        if not self.at_end():
            raise self.error(f"unexpected {self.current.text!r}")
        return value

    def expect_int(self) -> int:
        """The value of an 'int' token; the one place a literal becomes an int."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            message = f"integer literal of {len(tok.text)} digits is too long"
            raise ParseError(message, tok.line, tok.column) from None

    def parse_int(self) -> int:
        negative = False
        if self.current.kind == "-":
            self.advance()
            negative = True
        value = self.expect_int()
        return -value if negative else value

    def standard_curve(self, surface: PlanarSurface, holes: tuple[int, ...], sides: str = "") -> Curve:
        """``standard_curve(surface, holes, sides)``, built once per parse:
        one parse has one surface, so (holes, sides) is an exact key.  A
        ``ValueError`` is raised, never stored."""
        key = (holes, sides)
        curve = self.curves.get(key)
        if curve is None:
            curve = self.curves[key] = standard_curve(surface, holes, sides)
        return curve

    def twist(self, curve: Curve) -> MappingClass:
        """``dehn_twist(curve)``, built once per parse for a curve without
        factors, whose twist reads only its word and surface.  An image's
        twist reads every factor map, so it is built each time."""
        if curve.factors:
            return dehn_twist(curve)
        twist = self.twists.get(curve.word.letters)
        if twist is None:
            twist = self.twists[curve.word.letters] = dehn_twist(curve)
        return twist


# -- presentations -----------------------------------------------------------

def parse_presentation(text: str) -> Presentation:
    """Parse ``gens | relators`` into a :class:`Presentation`.

    >>> p = parse_presentation("x y | (x y)^2 x (x y)^-2 y^-1")
    >>> (p.rank, len(p.relators))
    (2, 1)
    """
    parser = _Parser(text)
    names = []
    while parser.current.kind == "name":
        names.append(parser.advance().text)
    if len(set(names)) != len(names):
        raise parser.error("duplicate generator name")
    parser.expect("|")
    group = FreeGroup(len(names), tuple(names))
    index = {n: i + 1 for i, n in enumerate(names)}

    relators = []
    if not parser.at_end():
        relators.append(_parse_word(parser, group, index))
        while parser.current.kind == ",":
            parser.advance()
            relators.append(_parse_word(parser, group, index))
    return parser.finish(Presentation(group, relators))


def _parse_word(parser: _Parser, group: FreeGroup, index: dict[str, int]) -> Word:
    start = parser.pos
    letters = _parse_word_letters(parser, group, index)
    if parser.pos == start:
        raise parser.error(f"expected a relator word, found {parser.current.text or 'end of input'!r}")
    return Word(group, letters)


def _parse_word_letters(parser: _Parser, group: FreeGroup, index: dict[str, int]) -> list[int]:
    letters: list[int] = []
    while True:
        tok = parser.current
        if tok.kind == "name":
            if tok.text not in index:
                raise parser.error(f"unknown generator {tok.text!r}")
            parser.advance()
            base = [index[tok.text]]
        elif tok.kind == "int" and tok.text == "1":
            parser.advance()
            base = []
        elif tok.kind == "(":
            with parser.nested():
                parser.advance()
                base = _parse_word_letters(parser, group, index)
                parser.expect(")")
        else:
            return letters
        exponent = 1
        at = parser.current
        if at.kind == "^":
            parser.advance()
            exponent = parser.parse_int()
            if exponent < 0:
                base = [-x for x in reversed(base)]
                exponent = -exponent
        # checked before ``base * exponent`` is allocated
        if len(letters) + len(base) * exponent > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters once expanded", at.line, at.column)
        letters.extend(base * exponent)


# -- Laurent polynomials -----------------------------------------------------

def parse_laurent(text: str) -> LaurentPoly:
    """Parse a one-variable integer Laurent polynomial in ``t``.

    >>> print(parse_laurent("t^-2 - 2*t^-1 + 3 - 2t + t^2"))
    t^-2 - 2*t^-1 + 3 - 2*t + t^2
    """
    parser = _Parser(text)
    coeffs: dict[int, int] = {}
    first = True
    while not parser.at_end():
        sign = 1
        if parser.current.kind in ("+", "-"):
            sign = -1 if parser.advance().kind == "-" else 1
        elif not first:
            raise parser.error(f"expected '+' or '-', found {parser.current.text!r}")
        coeff, exponent = _parse_laurent_term(parser)
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
        first = False
    if first:
        raise parser.error("empty polynomial")
    return LaurentPoly(coeffs)


def _parse_laurent_term(parser: _Parser) -> tuple[int, int]:
    tok = parser.current
    coeff = 1
    saw_coeff = False
    if tok.kind == "int":
        coeff = parser.expect_int()
        saw_coeff = True
        if parser.current.kind == "*":
            parser.advance()
            if not (parser.current.kind == "name" and parser.current.text == "t"):
                raise parser.error("expected 't' after '*'")
    if parser.current.kind == "name":
        if parser.current.text != "t":
            raise parser.error(f"unknown variable {parser.current.text!r}")
        parser.advance()
        exponent = 1
        if parser.current.kind == "^":
            parser.advance()
            exponent = parser.parse_int()
        return coeff, exponent
    if not saw_coeff:
        raise parser.error(f"expected a term, found {tok.text!r}")
    return coeff, 0


# -- monodromies and mapping-class expressions --------------------------------

_ALIASES = dict(zip(("Ta", "Tb", "Tg"), FAMILY_HOLE_RUNS))


def parse_monodromy(text: str) -> PALFSpec:
    """Parse a surface header plus twist list into a :class:`PALFSpec`."""
    parser = _Parser(text)
    surface = _parse_surface(parser)
    cycles = []
    while parser.current.kind == ";":
        parser.advance()
        if parser.at_end():
            break
        cycles.append(_parse_entry_curve(parser, surface))
    return parser.finish(PALFSpec(surface, cycles))


def parse_surface(text: str) -> PlanarSurface:
    parser = _Parser(text)
    return parser.finish(_parse_surface(parser))


def parse_mapping_class(text: str, surface: PlanarSurface) -> MappingClass:
    """Parse a mapping-class expression such as ``(Tg Tb)^2`` on a surface."""
    parser = _Parser(text)
    return parser.finish(_parse_mapclass(parser, surface))


def _parse_surface(parser: _Parser) -> PlanarSurface:
    tok = parser.expect("name")
    if tok.text != "S":
        raise ParseError(f"expected surface 'S(0,r)', found {tok.text!r}", tok.line, tok.column)
    parser.expect("(")
    genus = parser.parse_int()
    if genus != 0:
        raise parser.error("only genus 0 surfaces are supported")
    parser.expect(",")
    holes = parser.parse_int()
    if holes < 1:
        raise parser.error("surface needs at least one hole")
    if holes > MAX_HOLES:
        raise parser.error(f"surface has more than {MAX_HOLES} holes")
    parser.expect(")")
    return PlanarSurface(holes)


def _parse_entry_curve(parser: _Parser, surface: PlanarSurface) -> Curve:
    tok = parser.current
    if tok.kind == "name" and tok.text == "T":
        parser.advance()
        return _parse_curve(parser, surface)
    if tok.kind == "name" and tok.text in _ALIASES:
        # alias twists are twists about fixture curves; the cycle is the curve
        raise parser.error("monodromy entries must be 'T <curve>'; aliases appear inside apply(...)")
    raise parser.error(f"expected a twist entry, found {tok.text!r}")


def _parse_curve(parser: _Parser, surface: PlanarSurface) -> Curve:
    tok = parser.expect("name")
    if tok.text == "std":
        parser.expect("{")
        holes = [_parse_hole(parser, surface)]
        while parser.current.kind == ",":
            parser.advance()
            holes.append(_parse_hole(parser, surface))
        # flags are checked where they stand, a curve without them at 'std'
        at, sides = tok, ""
        if parser.current.kind == "/":
            parser.advance()
            at = parser.expect("name")
            sides = at.text
        else:
            parser.expect("}")
        try:
            curve = parser.standard_curve(surface, tuple(holes), sides)
        except ValueError as exc:
            raise ParseError(str(exc), at.line, at.column) from exc
        if sides:
            parser.expect("}")
        return curve
    if tok.text == "apply":
        with parser.nested():
            parser.expect("(")
            factors = _parse_factors(parser, surface)
            parser.expect(",")
            curve = _parse_curve(parser, surface)
            parser.expect(")")
        # F1^k1 ... Fm^km, rightmost first: k steps of each F on the curve
        # word, and the factors kept on the image curve, never composed
        for phi, exponent in reversed(factors):
            curve = apply(phi, curve, exponent)
        return curve
    raise ParseError(f"unknown curve form {tok.text!r}", tok.line, tok.column)


def _parse_hole(parser: _Parser, surface: PlanarSurface) -> int:
    tok = parser.current
    hole = parser.expect_int()
    if not 1 <= hole < surface.holes:
        raise ParseError(f"hole index {hole} out of range on {surface}", tok.line, tok.column)
    return hole


def _parse_mapclass(parser: _Parser, surface: PlanarSurface) -> MappingClass:
    return _product(_parse_factors(parser, surface))


def _parse_factors(parser: _Parser, surface: PlanarSurface) -> list[tuple[MappingClass, int]]:
    """The factors of a ``mapclass``, left to right, each with its exponent."""
    factors = []
    while True:
        tok = parser.current
        if tok.kind == "(":
            with parser.nested():
                parser.advance()
                base = _parse_mapclass(parser, surface)
                parser.expect(")")
        elif tok.kind == "name" and tok.text in _ALIASES:
            if surface.holes != 4:
                raise parser.error(f"alias {tok.text!r} is defined on S(0,4) only")
            parser.advance()
            base = parser.twist(parser.standard_curve(surface, _ALIASES[tok.text]))
        elif tok.kind == "name" and tok.text == "T":
            parser.advance()
            at = parser.current
            curve = _parse_curve(parser, surface)
            try:
                base = parser.twist(curve)
            except UnsupportedCurveError as exc:
                raise ParseError(str(exc), at.line, at.column) from exc
        else:
            break
        exponent = 1
        if parser.current.kind == "^":
            parser.advance()
            exponent = parser.parse_int()
        factors.append((base, exponent))
    if not factors:
        raise parser.error("expected a mapping-class expression")
    return factors

