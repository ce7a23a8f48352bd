"""Exact arithmetic in the field Q(sqrt2).

Every quantity that appears in a geometric representation of the Coxeter
systems handled here lies in Q(sqrt2): the off-diagonal Gram entries are
cos(pi/m) for m in {2, 3, 4, inf}, i.e. 0, 1/2, sqrt2/2 or 1.  Floats are
never good enough for definiteness tests, so this module keeps the two
rational coordinates explicit, as integers over one denominator.
"""

from __future__ import annotations

from math import gcd

from .base import rational_text


class QSqrt2:
    """A number (p + q*sqrt(2)) / d with integers p, q, d, compared exactly.

    The constructor takes two ints, ``QSqrt2(p, q)`` for p + q*sqrt2; a
    non-integer value is a quotient, ``QSqrt2(3) / 4``.  Values are kept in
    lowest terms with ``d > 0``, so equal numbers have equal fields.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: int = 0, b: int = 0) -> None:
        if type(a) is not int or type(b) is not int:
            raise TypeError(f"QSqrt2 takes two ints, got {a!r} and {b!r}")
        self._p, self._q, self._d = a, b, 1

    def __repr__(self) -> str:
        text = f"QSqrt2({self._p}, {self._q})"
        return text if self._d == 1 else f"{text} / {self._d}"

    def __str__(self) -> str:
        p, q, d = self._p, self._q, self._d
        if q == 0:
            return rational_text(p, d)
        if p == 0:
            return f"{rational_text(q, d)}*sqrt2"
        sign = "+" if q > 0 else "-"
        return f"{rational_text(p, d)} {sign} {rational_text(abs(q), d)}*sqrt2"

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        When a and b disagree in sign the comparison a + b*sqrt2 <> 0 is
        settled by comparing a^2 with 2*b^2, which is exact over Z (the
        common denominator is positive and drops out).
        """
        a, b = self._p, self._q
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt2
        if a * a > 2 * b * b:
            return (a > 0) - (a < 0)
        if a * a < 2 * b * b:
            return (b > 0) - (b < 0)
        return 0  # unreachable for a, b != 0 since sqrt2 is irrational

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __neg__(self) -> "QSqrt2":
        return _new(-self._p, -self._q, self._d)

    def __add__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        return _new(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    def __sub__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        return _new(self._p * e - other._p * d, self._q * e - other._q * d, d * e)

    def __mul__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._p, self._q, other._p, other._q
        return _new(a * c + 2 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._p, self._q, other._p, other._q
        norm = c * c - 2 * e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the conjugate c - e*sqrt2 and divide by the norm
        f = other._d
        return _new((a * c - 2 * b * e) * f, (b * c - a * e) * f, self._d * norm)

    def is_integer(self) -> bool:
        return self._q == 0 and self._d == 1


def _new(p: int, q: int, d: int) -> QSqrt2:
    """(p + q*sqrt2) / d for ints with d != 0, put in lowest terms."""
    g = gcd(p, q, d)
    if d < 0:
        g = -g
    x = object.__new__(QSqrt2)
    x._p, x._q, x._d = p // g, q // g, d // g
    return x


def _coerce(x: object) -> QSqrt2 | None:
    """``x`` as a QSqrt2 when it is one or a plain int (not a bool)."""
    if isinstance(x, QSqrt2):
        return x
    if type(x) is int:
        return _new(x, 0, 1)
    return None


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
HALF = _new(1, 0, 2)
HALF_SQRT2 = _new(0, 1, 2)
