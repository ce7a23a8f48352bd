"""Names shared by the library and the command line that import nothing.

The command line maps the four exception classes to exit codes and lists
the small-case labels in its help before it knows which subcommand runs,
so they live here, away from the modules that define the mathematics;
each is re-exported from its home module.
"""


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
