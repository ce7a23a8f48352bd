"""Names shared by the library and the command line that import nothing.

The command line maps the four exception classes to exit codes and lists
the small-case labels in its help before it knows which subcommand runs,
so they live here, away from the modules that define the mathematics;
each is re-exported from its home module.  ``Record`` is the base of every
value type in the package.  ``INF`` and the two rational helpers are here
so that ``weyl`` and ``qsqrt2`` need neither ``coxeter`` nor ``fractions``
(with ``decimal`` and ``numbers``): ``rational_text`` spells an int
quotient for both, and ``is_fraction`` serves only ``weyl.read_period``,
which takes a ``Fraction`` when a caller passes one.  ``is_int_text`` is
the one integer-spelling rule of the command line and the period reader.
"""

import sys
from math import gcd


class Record:
    """An immutable value type whose fields are its annotated names.

    ``class P(Record): x: int; y: int = 0`` gives ``P(1)``, ``P(x=1, y=2)``,
    the repr ``P(x=1, y=0)``, equality and hashing over the field tuple
    (instances of different classes are never equal; a subclass may narrow
    that tuple by overriding ``_key``), and an AttributeError on assignment
    or deletion.  Fields follow those of a Record base in annotation order;
    a value assigned in the class body is the field's default.
    ``__post_init__`` runs after the fields are set and may normalize them
    with ``object.__setattr__``.

    This is the part of ``dataclasses.dataclass(frozen=True)`` the library
    uses, built without ``exec`` and without importing ``dataclasses`` and
    ``inspect``, which would cost a cold command-line call more than the
    computation it runs.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls) -> None:
        own = [n for n in cls.__annotations__ if n not in cls._fields]
        defaults = dict(cls._defaults)
        for name in own:
            if name in cls.__dict__:
                defaults[name] = cls.__dict__[name]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = defaults

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments, "
                f"{len(args)} given"
            )
        for key in kwargs:
            if key not in fields[len(args) :]:
                raise TypeError(
                    f"{cls.__qualname__}() got an unexpected or repeated "
                    f"argument {key!r}"
                )
        values = list(args)
        for name in fields[len(args) :]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        return values

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _trusted(cls, *values):
        """An instance from every field value in order, without ``__post_init__``.

        For values the library derived from already-valid ones, so that only
        the public constructor pays for validation.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls._fields, values))
        return obj

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other is self:  # every field value here equals itself
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LatticeError(ValueError):
    """Base class for lattice-level misuse."""


class CoxeterError(ValueError):
    pass


class SWError(Exception):
    pass


class InternalConsistencyError(RuntimeError):
    """A property the theory guarantees failed to hold; a bug, not bad input."""


SMALL_CASE_LABELS = (
    "CP2",
    "S2xS2",
    "twisted-S2xS2",
    "YxS2",
    "twisted-YxS2",
    "blownup-S2xS2",
    "blownup-YxS2",
)


class _Infinity:
    """The infinite pair order; a dedicated singleton, not a sentinel int."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()


def is_fraction(x) -> bool:
    """Whether ``x`` is a ``fractions.Fraction``, without importing fractions.

    No Fraction exists before the module is loaded.
    """
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def rational_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for ints ``p`` and ``q > 0``: "p" or "p/q"."""
    g = gcd(p, q)
    if g != q:
        return f"{p // g}/{q // g}"
    return str(p // g)


def is_int_text(text: str) -> bool:
    """Whether ``text`` is an optional sign then decimal digits, nothing else.

    The same strings as ``re.fullmatch(r"[+-]?\\d+", text)`` (for ``str``
    patterns ``\\d`` is Unicode category Nd, which is what ``isdecimal``
    tests), each of which ``int`` reads, without compiling a regex.
    """
    return (text[1:] if text[:1] in ("+", "-") else text).isdecimal()
