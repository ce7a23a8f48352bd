"""Exact arithmetic in Q(sqrt2): ring axioms, total order, conversions."""

from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled_lattice.qsqrt2 import HALF, HALF_SQRT2, ONE, SQRT2, ZERO, QSqrt2

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=40)
elements = st.builds(QSqrt2, rationals, rationals)

getcontext().prec = 60
_SQRT2_DECIMAL = Decimal(2).sqrt()


def _decimal_sign(x: QSqrt2) -> int:
    """Independent sign oracle via 60-digit decimal arithmetic.

    For the coefficient sizes the strategy produces, a nonzero value is
    bounded away from zero by far more than the decimal error, so the
    rounded sign is trustworthy.
    """
    return _decimal_sign_of(x.a, x.b)


def _decimal_sign_of(a: Fraction, b: Fraction) -> int:
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


def test_sign_on_a_pell_convergent():
    # 665857^2 - 2 * 470832^2 = 1, so this difference is positive but only
    # by about 1.6e-12; the sign must come out exact anyway.
    close = QSqrt2(Fraction(665857, 470832)) - SQRT2
    assert close.sign() == 1
    assert (-close).sign() == -1
    assert close != ZERO
    assert ZERO < close < QSqrt2(Fraction(1, 100_000))


@given(elements)
def test_sign_matches_decimal_oracle(x):
    assert x.sign() == _decimal_sign(x)


@given(elements, elements)
def test_order_matches_sign_of_difference(x, y):
    assert (x < y) == ((x - y).sign() == -1)
    assert (x == y) == ((x - y).sign() == 0)


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
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x / y) * y == x


@given(elements)
def test_negation_and_bool(x):
    assert x + (-x) == ZERO
    assert bool(x) == (not x.is_zero())


def test_int_and_fraction_mixing():
    assert 1 + SQRT2 == QSqrt2(1, 1)
    assert 2 * SQRT2 == QSqrt2(0, 2)
    assert 3 - SQRT2 == QSqrt2(3, -1)
    assert QSqrt2(5) + Fraction(1, 2) == QSqrt2(Fraction(11, 2))


def test_conversions():
    assert QSqrt2(3).is_integer()
    assert not HALF.is_integer()
    assert not SQRT2.is_integer()


@given(elements)
def test_hash_respects_equality(x):
    assert hash(x) == hash(QSqrt2(x.a, x.b))
    if x.b == 0:
        assert hash(x) == hash(x.a)


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


def _coords(x: QSqrt2) -> tuple[Fraction, Fraction]:
    assert type(x.a) is Fraction and type(x.b) is Fraction
    return x.a, x.b


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(u, v):
    x, y = QSqrt2(*u), QSqrt2(*v)
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
    assert (x < y) == (_decimal_sign_of(c - a, d - b) > 0)
    assert str(x) == _ref_str(a, b)
    assert repr(x) == f"QSqrt2({a!r}, {b!r})"
    assert x.is_integer() == (b == 0 and a.denominator == 1)


@given(pairs, coords)
def test_mixing_with_int_and_fraction_matches_fraction_pairs(u, n):
    x = QSqrt2(*u)
    a, b = _ref(u)
    assert _coords(x + n) == _coords(n + x) == (a + n, b)
    assert _coords(x - n) == (a - n, b)
    assert _coords(n - x) == (n - a, -b)
    assert _coords(x * n) == _coords(n * x) == (a * n, b * n)
    if n:
        assert _coords(x / n) == (a / n, b / n)
    assert (x == n) == (n == x) == (b == 0 and a == n)
    assert (x < n) == (_decimal_sign_of(a - n, b) < 0)
    assert (x > n) == (_decimal_sign_of(a - n, b) > 0)
    if b == 0:
        assert hash(x) == hash(a)
        if a.denominator == 1:
            assert hash(x) == hash(int(a))
