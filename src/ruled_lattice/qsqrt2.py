"""Exact arithmetic in the field Q(sqrt2).

Every quantity that appears in a geometric representation of the Coxeter
systems handled here lies in Q(sqrt2): the off-diagonal Gram entries are
cos(pi/m) for m in {2, 3, 4, inf}, i.e. 0, 1/2, sqrt2/2 or 1.  Floats are
never good enough for definiteness tests, so this module keeps the two
rational coordinates explicit, as integers over one denominator.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, lcm

from .base import is_fraction, rational_text


@total_ordering
class QSqrt2:
    """A number a + b*sqrt(2) with a, b rational, compared exactly.

    Stored as integers ``(a*d, b*d, d)`` over the least positive common
    denominator ``d``, so equal numbers have equal fields.  Only ``a``,
    ``b``, ``repr`` and the hash of a rational non-integer build
    ``Fraction``s, importing ``fractions`` on first use; so does the
    constructor when given anything but two ints.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0) -> None:
        d = 1
        if type(a) is not int or type(b) is not int:
            from fractions import Fraction

            a, b = Fraction(a), Fraction(b)
            # over the lcm, lowest-terms a and b stay in lowest terms jointly
            d = lcm(a.denominator, b.denominator)
            a, b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        self._p, self._q, self._d = a, b, d

    @property
    def a(self):
        """The rational part, a ``Fraction``."""
        from fractions import Fraction

        return Fraction(self._p, self._d)

    @property
    def b(self):
        """The sqrt2 coefficient, a ``Fraction``."""
        from fractions import Fraction

        return Fraction(self._q, self._d)

    def __repr__(self) -> str:
        return f"QSqrt2({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        p, q, d = self._p, self._q, self._d
        if q == 0:
            return rational_text(p, d)
        if p == 0:
            return f"{rational_text(q, d)}*sqrt2"
        sign = "+" if q > 0 else "-"
        return f"{rational_text(p, d)} {sign} {rational_text(abs(q), d)}*sqrt2"

    def __hash__(self) -> int:
        # rational values compare equal to Fraction/int, so hash like them
        if self._q == 0:
            return hash(self._p) if self._d == 1 else hash(self.a)
        return hash((self._p, self._q, self._d))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (other - self).sign() > 0

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

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> "QSqrt2":
        return _new(-self._p, -self._q, self._d)

    def __add__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        return _new(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        return _new(self._p * e - other._p * d, self._q * e - other._q * d, d * e)

    def __rsub__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

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
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, int) or is_fraction(x):
        return _new(x.numerator, 0, x.denominator)
    return None


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
HALF = _new(1, 0, 2)
HALF_SQRT2 = _new(0, 1, 2)
