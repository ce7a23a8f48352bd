"""Exact arithmetic in Q(sqrt2): ring axioms, exact sign, the int-only boundary.

``QSqrt2`` takes ints only; the oracles here build a value a + b*sqrt2 from
two ``Fraction``s through that constructor and division, and check every
operation against Fraction-pair arithmetic and a 60-digit decimal sign.
"""

from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled_lattice.qsqrt2 import HALF, HALF_SQRT2, ONE, SQRT2, ZERO, QSqrt2

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=40)

getcontext().prec = 60
_SQRT2_DECIMAL = Decimal(2).sqrt()


def _build(a, b) -> QSqrt2:
    """a + b*sqrt2 for int or Fraction a, b: ints over their lcm, one division."""
    a, b = Fraction(a), Fraction(b)
    d = lcm(a.denominator, b.denominator)
    return QSqrt2(int(a * d), int(b * d)) / d


elements = st.builds(_build, rationals, rationals)


def _coords(x: QSqrt2) -> tuple[Fraction, Fraction]:
    """(a, b) of x = a + b*sqrt2, after checking x is in lowest terms."""
    p, q, d = x._p, x._q, x._d
    assert d > 0 and gcd(p, q, d) == 1
    return Fraction(p, d), Fraction(q, d)


def _decimal_sign_of(a: Fraction, b: Fraction) -> int:
    """Independent sign oracle via 60-digit decimal arithmetic.

    For the coefficient sizes the strategies produce, a nonzero value is
    bounded away from zero by far more than the decimal error, so the
    rounded sign is trustworthy.
    """
    value = (
        Decimal(a.numerator) / Decimal(a.denominator)
        + Decimal(b.numerator) / Decimal(b.denominator) * _SQRT2_DECIMAL
    )
    if value == 0:
        return 0
    return 1 if value > 0 else -1


def test_constants():
    assert SQRT2 * SQRT2 == QSqrt2(2)
    assert HALF + HALF == ONE
    assert HALF_SQRT2 * SQRT2 == ONE
    assert ZERO == QSqrt2()
    assert ONE / SQRT2 == HALF_SQRT2
    assert HALF == QSqrt2(1) / 2 and HALF_SQRT2 == SQRT2 / 2


def test_sign_on_a_pell_convergent():
    # 665857^2 - 2 * 470832^2 = 1, so this difference is positive but only
    # by about 1.6e-12; the sign must come out exact anyway.
    close = QSqrt2(665857) / 470832 - SQRT2
    assert close.sign() == 1
    assert (-close).sign() == -1
    assert close != ZERO
    assert (QSqrt2(1) / 100_000 - close).sign() == 1


@given(elements)
def test_sign_matches_decimal_oracle(x):
    assert x.sign() == _decimal_sign_of(*_coords(x))


@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(elements, elements)
def test_division_inverts_multiplication(x, y):
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x / y) * y == x


@given(elements)
def test_negation_and_bool(x):
    assert x + (-x) == ZERO
    assert bool(x) == (_coords(x) != (0, 0))


def test_int_mixing():
    assert SQRT2 + 1 == QSqrt2(1, 1)
    assert 2 * SQRT2 == SQRT2 * 2 == QSqrt2(0, 2)
    assert SQRT2 - 3 == QSqrt2(-3, 1)
    assert QSqrt2(5) / 2 + HALF == QSqrt2(3)
    assert QSqrt2(3) == 3 and 3 == QSqrt2(3) and HALF != 0


def test_only_ints_cross_the_boundary():
    # the constructor takes two ints; a Fraction value is an int quotient
    for bad in (Fraction(1, 2), 0.5, True, "1", None):
        with pytest.raises(TypeError, match="two ints"):
            QSqrt2(bad)
        with pytest.raises(TypeError, match="two ints"):
            QSqrt2(0, bad)
    # an int on the left of +, - and / is not coerced, nor is any non-int
    for op in (lambda: 1 + SQRT2, lambda: 3 - SQRT2, lambda: 1 / SQRT2):
        with pytest.raises(TypeError):
            op()
    for other in (Fraction(1, 2), 0.5, True):
        with pytest.raises(TypeError):
            SQRT2 + other
        with pytest.raises(TypeError):
            SQRT2 * other
        assert SQRT2 != other


def test_conversions():
    assert QSqrt2(3).is_integer()
    assert not HALF.is_integer()
    assert not SQRT2.is_integer()


@given(elements)
def test_hash_and_repr_follow_the_value(x):
    a, b = _coords(x)
    assert hash(x) == hash(_build(a, b))
    assert eval(repr(x), {"QSqrt2": QSqrt2}) == x
    assert "Fraction" not in repr(x)


# ---------------------------------------------------------------------------
# the integer representation against a pair of Fractions

coords = st.one_of(st.integers(-40, 40), rationals)
pairs = st.tuples(coords, coords)


def _ref(pair) -> tuple[Fraction, Fraction]:
    return Fraction(pair[0]), Fraction(pair[1])


def _ref_str(a: Fraction, b: Fraction) -> str:
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt2"
    return f"{a} {'+' if b > 0 else '-'} {abs(b)}*sqrt2"


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(u, v):
    x, y = _build(*u), _build(*v)
    (a, b), (c, d) = _ref(u), _ref(v)
    assert _coords(x) == (a, b)
    assert _coords(x + y) == (a + c, b + d)
    assert _coords(x - y) == (a - c, b - d)
    assert _coords(x * y) == (a * c + 2 * b * d, a * d + b * c)
    assert _coords(-x) == (-a, -b)
    norm = c * c - 2 * d * d
    if norm:
        assert _coords(x / y) == ((a * c - 2 * b * d) / norm, (b * c - a * d) / norm)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert x.sign() == _decimal_sign_of(a, b)
    assert (x == y) == ((a, b) == (c, d))
    assert str(x) == _ref_str(a, b)
    assert x.is_integer() == (b == 0 and a.denominator == 1)


@given(pairs, st.integers(-40, 40))
def test_mixing_with_int_matches_fraction_pairs(u, n):
    x = _build(*u)
    a, b = _ref(u)
    assert _coords(x + n) == (a + n, b)
    assert _coords(x - n) == (a - n, b)
    assert _coords(x * n) == _coords(n * x) == (a * n, b * n)
    if n:
        assert _coords(x / n) == (a / n, b / n)
    assert (x == n) == (n == x) == (b == 0 and a == n)
    assert (x - n).sign() == _decimal_sign_of(a - n, b)
