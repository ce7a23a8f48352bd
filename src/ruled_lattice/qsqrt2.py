"""Exact arithmetic in the field Q(sqrt2).

Every quantity that appears in a geometric representation of the Coxeter
systems handled here lies in Q(sqrt2): the off-diagonal Gram entries are
cos(pi/m) for m in {2, 3, 4, inf}, i.e. 0, 1/2, sqrt2/2 or 1.  Floats are
never good enough for definiteness tests, so this module keeps the two
rational coordinates explicit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class QSqrt2:
    """A number a + b*sqrt(2) with a, b rational, compared exactly."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        self._a = Fraction(a)
        self._b = Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    def __repr__(self) -> str:
        return f"QSqrt2({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._a == 0:
            return f"{self._b}*sqrt2"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a} {sign} {abs(self._b)}*sqrt2"

    def __hash__(self) -> int:
        # rational values compare equal to Fraction/int, so hash like them
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __lt__(self, other: object) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (other - self).sign() > 0

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        When a and b disagree in sign the comparison a + b*sqrt2 <> 0 is
        settled by comparing a^2 with 2*b^2, which is exact over Q.
        """
        a, b = self._a, self._b
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
        return self._a == 0 and self._b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self._a, -self._b)

    def __add__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(self._a - other._a, self._b - other._b)

    def __rsub__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return QSqrt2(
            self._a * other._a + 2 * self._b * other._b,
            self._a * other._b + self._b * other._a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QSqrt2":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other._a * other._a - 2 * other._b * other._b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        # multiply by the conjugate a - b*sqrt2 and divide by the norm
        a = (self._a * other._a - 2 * self._b * other._b) / norm
        b = (self._b * other._a - self._a * other._b) / norm
        return QSqrt2(a, b)

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * 1.4142135623730951

    def to_fraction(self) -> Fraction:
        """The value as a Fraction; raises if the sqrt2 part is nonzero."""
        if self._b != 0:
            raise ValueError(f"{self} is irrational")
        return self._a

    def is_integer(self) -> bool:
        return self._b == 0 and self._a.denominator == 1


def _coerce(x: object) -> QSqrt2 | None:
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return QSqrt2(x)
    return None


ZERO = QSqrt2(0)
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
HALF = QSqrt2(Fraction(1, 2))
HALF_SQRT2 = QSqrt2(0, Fraction(1, 2))
