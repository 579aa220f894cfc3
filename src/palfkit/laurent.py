"""Integer Laurent polynomials in one variable t, exact arithmetic.

Stored sparsely as exponent -> nonzero coefficient.  Canonical printing
lists terms in ascending exponent order, e.g. ``t^-1 - 2 + t``.  The
constructor takes exponents and coefficients that are exactly integers
and raises TypeError on any other value; ring operations build their
results without that check.

Products, powers and the minors of :mod:`palfkit.knots` share one encoding,
a ring map Z[t] -> Z: ``_pack`` evaluates t^-low p at t = 2^w, w = 8 size,
and ``_unpack`` reads v back exactly if every |c_k| < h = 2^(w - 1): then
v + sum_k h 2^(w k) has the digits c_k + h in [0, 2^w) with no carry, and
the top nonzero digit K has |v| > 2^(w K) - (h - 1)(2^(w K) - 1) / (2^w - 1)
> 2^(w K - 1), so bit_length(v) // w + 1 digits include it.
"""

from __future__ import annotations

from typing import Iterator, Mapping


def _exact_int(x) -> int:
    """``x`` as an int, when it is one exactly; TypeError otherwise (so
    0.5 or 1.9 is rejected, never truncated)."""
    if type(x) is int:
        return x
    n = int(x)
    if n != x:
        raise TypeError(f"{x!r} is not an integer")
    return n


class LaurentPoly:
    """An element of Z[t, t^-1].

    >>> t = LaurentPoly.t()
    >>> print(1 - t + t**2)
    1 - t + t^2
    >>> print((1 - t + t**2) * (1 - t + t**2).reciprocal())
    t^-2 - 2*t^-1 + 3 - 2*t + t^2
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _exact_int(c)
                if c:
                    clean[_exact_int(e)] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> LaurentPoly:
        """The polynomial of ``coeffs``, whose keys and values are already
        ints (results of ring operations); only zero terms are dropped."""
        p = object.__new__(cls)
        p.coeffs = {e: c for e, c in coeffs.items() if c}
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def t(cls) -> LaurentPoly:
        return cls({1: 1})

    @staticmethod
    def _coerce(value: LaurentPoly | int) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly({0: value})
        return NotImplemented  # type: ignore[return-value]

    # -- basic protocol ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # equal to an int c when constant, so it must hash like c
        coeffs = self.coeffs
        if not coeffs:
            return hash(0)
        if len(coeffs) == 1 and 0 in coeffs:
            return hash(coeffs[0])
        return hash(frozenset(coeffs.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    def __getitem__(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Terms in ascending exponent order."""
        return iter(sorted(self.coeffs.items()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._trusted({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: int) -> LaurentPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        """One multiply of the packed factors, so the cost grows with the degree
        span, not with terms^2: (1 + t^(10^6)) (1 - t) packs a million digits."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = sum(map(abs, self.coeffs.values())) * sum(map(abs, other.coeffs.values()))  # >= |p q coefficients|
        size = (bound.bit_length() + 8) // 8  # 2^(8 size - 1) > bound
        low, other_low = min(self.coeffs, default=0), min(other.coeffs, default=0)
        value = _pack(self.coeffs, size, low) * _pack(other.coeffs, size, other_low)
        return _unpack(value, size, low + other_low)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        """One power of the packed polynomial, digits sized as in ``__mul__``."""
        if not isinstance(n, int):
            raise TypeError(f"exponent {n!r} is not an int")
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial are not defined")
        bound = sum(map(abs, self.coeffs.values())) ** n  # >= |p^n coefficients|
        size = (bound.bit_length() + 8) // 8
        low = min(self.coeffs, default=0)
        return _unpack(_pack(self.coeffs, size, low) ** n, size, low * n)

    # -- structure ----------------------------------------------------------

    @property
    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def reciprocal(self) -> LaurentPoly:
        """The substitution t -> t^-1."""
        return LaurentPoly._trusted({-e: c for e, c in self.coeffs.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        k = _exact_int(k)
        return LaurentPoly._trusted({e + k: c for e, c in self.coeffs.items()})

    def is_symmetric(self) -> bool:
        """True when p(t) = p(t^-1) term-exactly."""
        return self.coeffs == {-e: c for e, c in self.coeffs.items()}

    def value_at_one(self) -> int:
        return sum(self.coeffs.values())

    def second_derivative_at_one(self) -> int:
        """Exact p''(1) = sum of c_e * e * (e - 1)."""
        return sum(c * e * (e - 1) for e, c in self.coeffs.items())

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                body = tpow if mag == 1 else f"{mag}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _pack(coeffs: Mapping[int, int], size: int, low: int) -> int:
    """t^-low p at t = 2^(8 size), p the polynomial of ``coeffs``, no exponent below ``low``."""
    return sum(c << 8 * size * (e - low) for e, c in coeffs.items())


def _unpack(value: int, size: int, shift: int) -> LaurentPoly:
    """t^shift p, where ``value`` packs p with every |coefficient| < 2^(8 size - 1)."""
    half = 1 << (8 * size - 1)
    count = value.bit_length() // (8 * size) + 1  # the digits up to the top one
    halves = int.from_bytes(half.to_bytes(size, "little") * count, "little")  # carries nothing
    data = (value + halves).to_bytes(count * size, "little")
    return LaurentPoly._trusted({k + shift: int.from_bytes(data[k * size:(k + 1) * size], "little") - half
                                 for k in range(count)})
