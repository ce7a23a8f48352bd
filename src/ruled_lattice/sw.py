"""Integer gauge-theory constraints on embedded-sphere classes.

A class kL - sum m_i E_i of square -1 .. -4 in a blown-up rational surface
is constrained by the Seiberg-Witten genus bound

    k(k - 3) < sum m_i (m_i - 1)        (for k >= 2)

and by the certified trichotomy: either k < m_1 + m_2 + m_3 (so a wall
crossing reduces the class), or the class belongs to the one exceptional
family 3mL - m(E_1 + .. + E_9) - 2E_10 of square -4, or the genus bound
fails and the class cannot be represented by an embedded sphere at all.

The search routines quantify these statements over finite windows: the
number of blowups decides whether square -1 classes that no wall crossing
reduces exist at all (none up to 9 blowups, (3; 1^10) from 10 on).
"""

from __future__ import annotations

import sys
from enum import Enum
from math import isqrt
from typing import Iterator, Optional

from .base import Record, SWError


class OutOfRegimeError(SWError):
    """The genus inequality is only cited for k >= 2."""


class OutOfScopeError(SWError):
    """The certifier covers squares -1 .. -4 only."""


class SphereCandidate(Record):
    """A candidate sphere class kL - sum m_i E_i, stored by its pairings.

    The constructor checks its integers; the library's own candidates, the
    normal form and the search's, are ``_trusted``.
    """

    k: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise SWError("k must be an integer")
        object.__setattr__(self, "m", tuple(self.m))
        for x in self.m:
            if isinstance(x, bool) or not isinstance(x, int):
                raise SWError("multiplicities must be integers")

    @property
    def q(self) -> int:
        """Minus the self-intersection: sum m_i^2 - k^2."""
        return sum(x * x for x in self.m) - self.k * self.k

    @property
    def blowups(self) -> int:
        return len(self.m)

    def is_normalized(self) -> bool:
        return all(x >= 0 for x in self.m) and all(
            self.m[i] >= self.m[i + 1] for i in range(len(self.m) - 1)
        )

    def normalized(self) -> "SphereCandidate":
        """Twists and transpositions sort the m_i nonnegative descending."""
        return SphereCandidate._trusted(self.k, tuple(sorted(map(abs, self.m), reverse=True)))

    def __str__(self) -> str:
        return f"({self.k}; {','.join(str(x) for x in self.m)})"

    def to_json_dict(self) -> dict:
        return {"k": self.k, "m": list(self.m), "q": self.q}


def sw_inequality_holds(c: SphereCandidate) -> bool:
    """Exact evaluation of k(k-3) < sum m_i(m_i - 1).

    An embedded sphere in the candidate's class forces this inequality, so
    a False answer prohibits the sphere.  The k <= 1 regime has a separate
    direct argument and is rejected here.
    """
    if c.k < 2:
        raise OutOfRegimeError(f"genus bound needs k >= 2, got k={c.k}")
    return c.k * (c.k - 3) < sum(x * (x - 1) for x in c.m)


class Verdict(Enum):
    CONSTRAINT_HOLDS = "constraint-holds"
    DOLGACHEV_EXCEPTION = "dolgachev-exception"
    SW_PROHIBITED = "sw-prohibited"
    VIOLATION = "violation"


class CertifyResult(Record):
    verdict: Verdict
    dolgachev_m: Optional[int] = None


def dolgachev_parameter(c: SphereCandidate) -> Optional[int]:
    """The parameter m >= 2 if the normalized candidate lies in the square -4
    family 3mL - m(E_1 + .. + E_9) - 2E_10."""
    if c.blowups < 10 or c.k % 3 != 0:
        return None
    m = c.k // 3
    if m < 2:
        return None
    if c.m == (m,) * 9 + (2,) + (0,) * (c.blowups - 10):
        return m
    return None


def certify_sphere_class(c: SphereCandidate) -> CertifyResult:
    """Certified trichotomy for normalized candidates of square -1 .. -4.

    Either the leading triple already exceeds k (a wall crossing shrinks
    the class), or the class is in the Dolgachev family, or the genus bound
    prohibits an embedded sphere.  A fourth verdict, a class passing the
    genus bound without being reducible or exceptional, would contradict
    the classification; it is reported loudly instead of being silently
    binned, so the test suite can watch for it.
    """
    if not c.is_normalized():
        raise SWError("certify_sphere_class expects the sorted normal form")
    if c.q not in (1, 2, 3, 4):
        raise OutOfScopeError(f"certifier covers q in 1..4, got q={c.q}")
    top3 = sum(c.m[:3])
    if c.k < top3:
        return CertifyResult(Verdict.CONSTRAINT_HOLDS)
    dm = dolgachev_parameter(c)
    if dm is not None:
        return CertifyResult(Verdict.DOLGACHEV_EXCEPTION, dolgachev_m=dm)
    # q >= 1 forces m_1 >= 1, so k >= top3 >= 1; k = 1 would need
    # m = (1, 0, ..) of square 0, hence k >= 2 here and the bound applies
    if sw_inequality_holds(c):
        return CertifyResult(Verdict.VIOLATION)
    return CertifyResult(Verdict.SW_PROHIBITED)


def _check_index(blowups: int) -> None:
    # a multiplicity vector is a tuple of ``blowups`` entries
    if blowups > sys.maxsize:
        raise SWError(f"blowups must be at most {sys.maxsize}")


def extremal_sequence(k: int, blowups: int) -> tuple[tuple[int, ...], int]:
    """Maximize sum m_i^2 over sorted nonnegative m with m_1+m_2+m_3 <= k.

    The maximum is attained on the one-parameter family
    m = (k - 2t, t, .., t) with 0 <= t <= k//3.  Its value
    (k - 2t)^2 + (blowups - 1) t^2 is strictly convex in t, so the better
    endpoint, t = 0 or t = k//3, wins; a tie goes to t = k//3.  The
    returned value exceeds k^2 exactly when (blowups + 3) t > 4k for the
    winning t, which first happens at 10 blowups.
    """
    if k < 3 or blowups < 3:
        raise SWError("extremal_sequence needs k >= 3 and at least 3 blowups")
    _check_index(blowups)

    def value(t: int) -> int:
        return (k - 2 * t) ** 2 + (blowups - 1) * t * t

    t = k // 3 if value(k // 3) >= value(0) else 0
    return (k - 2 * t,) + (t,) * (blowups - 1), value(t)


SEARCH_CANDIDATE_CAP = 100_000


def _search_one_k(blowups: int, k: int) -> Iterator[SphereCandidate]:
    """All sorted m >= 0 with sum m_i^2 = k^2 + 1 and m_1 + m_2 + m_3 <= k.

    A depth-first walk, largest value first, on an explicit stack of one
    [value tried, square sum owed, triple room left] per slot.  Once the
    sum is met the tail is all zero, so the stack holds at most k^2 + 2
    slots whatever ``blowups`` is.  Candidates are yielded as they are
    found, so a caller can stop the walk early.
    """
    stack = [[k, k * k + 1, k]]
    while stack:
        idx = len(stack) - 1
        slot = stack[idx]
        v, owed, room = slot
        rest = owed - v * v
        if rest > (blowups - idx - 1) * v * v:
            # the later slots, each at most v, cannot hold the rest, nor can
            # they for a smaller v: back up one slot
            stack.pop()
            if stack:
                stack[-1][0] -= 1
        elif rest == 0:
            m = (*(s[0] for s in stack), *(0,) * (blowups - idx - 1))
            yield SphereCandidate._trusted(k, m)
            slot[0] -= 1
        else:
            room = room - v if idx < 3 else room
            top = min(v, isqrt(rest), room) if idx < 2 else min(v, isqrt(rest))
            stack.append([top, rest, room])


def dichotomy_search(blowups: int, k_max: int) -> list[SphereCandidate]:
    """Exhaustive search for square -1 classes no wall crossing reduces.

    Scans 2 <= k <= k_max.  Empty for up to 9 blowups; from 10 on the list
    is populated, starting with (3; 1,..,1).  The walk stops with SWError
    once it passes ``SEARCH_CANDIDATE_CAP`` candidates (at 12 blowups,
    between k = 80 and k = 89).
    """
    if blowups < 3:
        raise SWError("dichotomy_search needs at least 3 blowups")
    _check_index(blowups)
    found: list[SphereCandidate] = []
    for k in range(2, k_max + 1):
        for c in _search_one_k(blowups, k):
            found.append(c)
            if len(found) > SEARCH_CANDIDATE_CAP:
                raise SWError(
                    f"search found more than {SEARCH_CANDIDATE_CAP} candidates by k = {k}"
                )
    return sorted(found, key=lambda c: (c.k, c.m))
