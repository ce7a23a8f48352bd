"""Adjunction-style sphere constraints: certification and the dichotomy search."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruled_lattice import sw
from ruled_lattice.sw import (
    OutOfRegimeError,
    OutOfScopeError,
    SphereCandidate,
    SWError,
    Verdict,
    _search_one_k,
    certify_sphere_class,
    dichotomy_search,
    dolgachev_parameter,
    extremal_sequence,
    sw_inequality_holds,
)



def dolgachev_candidate(blowups: int, m: int) -> SphereCandidate:
    """The square -4 family 3mL - m(E_1 + .. + E_9) - 2E_10, m >= 2."""
    return SphereCandidate(3 * m, (m,) * 9 + (2,) + (0,) * (blowups - 10))


# ---------------------------------------------------------------------------
# candidates


def test_candidate_basic_properties():
    c = SphereCandidate(3, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
    assert c.q == 1
    assert c.blowups == 10
    assert c.is_normalized()
    assert str(c) == "(3; 1,1,1,1,1,1,1,1,1,1)"
    assert c.to_json_dict() == {"k": 3, "m": [1] * 10, "q": 1}


def test_candidate_normalization():
    c = SphereCandidate(2, (-1, 2, 0, 1))
    assert not c.is_normalized()
    assert c.normalized() == SphereCandidate(2, (2, 1, 1, 0))
    assert c.normalized().q == c.q  # twists and swaps preserve the square


def test_candidate_rejects_non_integers():
    with pytest.raises(SWError):
        SphereCandidate(True, (1, 1))
    with pytest.raises(SWError):
        SphereCandidate(2, (1, 1.0))


# ---------------------------------------------------------------------------
# the genus-bound inequality


def test_inequality_fixtures():
    assert sw_inequality_holds(SphereCandidate(2, (1, 1, 1, 1, 1)))
    assert not sw_inequality_holds(SphereCandidate(3, (1,) * 10))
    assert not sw_inequality_holds(SphereCandidate(4, (1,) * 17))
    assert sw_inequality_holds(SphereCandidate(6, (2,) * 9 + (2,)))


def test_inequality_regime():
    with pytest.raises(OutOfRegimeError):
        sw_inequality_holds(SphereCandidate(1, (1, 1)))
    with pytest.raises(OutOfRegimeError):
        sw_inequality_holds(SphereCandidate(0, (1,)))


# ---------------------------------------------------------------------------
# certification


def test_certify_constraint_holds():
    res = certify_sphere_class(SphereCandidate(2, (1, 1, 1, 1, 1)))
    assert res.verdict is Verdict.CONSTRAINT_HOLDS
    assert res.dolgachev_m is None


@pytest.mark.parametrize("m", [2, 3, 7])
def test_certify_dolgachev_family(m):
    res = certify_sphere_class(dolgachev_candidate(10, m))
    assert res.verdict is Verdict.DOLGACHEV_EXCEPTION
    assert res.dolgachev_m == m


@pytest.mark.parametrize(
    "c",
    [
        SphereCandidate(3, (1,) * 10),
        SphereCandidate(4, (1,) * 17),
    ],
)
def test_certify_prohibited(c):
    assert certify_sphere_class(c).verdict is Verdict.SW_PROHIBITED


def test_certify_requires_normal_form():
    with pytest.raises(SWError, match="normal form"):
        certify_sphere_class(SphereCandidate(3, (1, 2, 1)))


def test_certify_scope():
    with pytest.raises(OutOfScopeError):
        certify_sphere_class(SphereCandidate(3, (1, 1, 1)))  # square +6
    with pytest.raises(OutOfScopeError):
        certify_sphere_class(SphereCandidate(3, (2, 2, 2, 1, 1)))  # q = 5
    with pytest.raises(OutOfScopeError):
        certify_sphere_class(SphereCandidate(1, (1,)))  # q = 0


# ---------------------------------------------------------------------------
# the Dolgachev family


def test_dolgachev_candidate_shape():
    assert dolgachev_candidate(10, 2) == SphereCandidate(6, (2,) * 9 + (2,))
    assert dolgachev_candidate(12, 3) == SphereCandidate(9, (3,) * 9 + (2, 0, 0))
    assert dolgachev_candidate(10, 5).q == 4


def test_dolgachev_parameter_recognizes_members_only():
    assert dolgachev_parameter(dolgachev_candidate(13, 4)) == 4
    assert dolgachev_parameter(SphereCandidate(6, (2,) * 9 + (1,))) is None
    assert dolgachev_parameter(SphereCandidate(5, (2,) * 10)) is None
    assert dolgachev_parameter(SphereCandidate(3, (1,) * 10)) is None


@pytest.mark.parametrize("m", range(2, 21))
def test_dolgachev_family_certifies_for_all_small_parameters(m):
    c = dolgachev_candidate(10, m)
    assert c.q == 4
    res = certify_sphere_class(c)
    assert res.verdict is Verdict.DOLGACHEV_EXCEPTION
    assert res.dolgachev_m == m


# ---------------------------------------------------------------------------
# extremal sequences


def test_extremal_crossover_at_ten_blowups():
    vec, val = extremal_sequence(12, 9)
    assert vec == (4,) * 9
    assert val == 144  # ties go to the larger parameter; still within k^2

    vec, val = extremal_sequence(12, 10)
    assert vec == (4,) * 10
    assert val == 160
    assert val > 144


def test_extremal_small_k_prefers_concentration():
    vec, val = extremal_sequence(3, 3)
    assert vec == (3, 0, 0)
    assert val == 9


def test_extremal_matches_brute_force():
    # independent check on a small grid: enumerate all sorted nonnegative
    # vectors with m_1 + m_2 + m_3 <= k directly
    def brute(k, l):
        best = 0
        stack = [((), k)]
        while stack:
            prefix, room = stack.pop()
            if len(prefix) == l:
                best = max(best, sum(x * x for x in prefix))
                continue
            top = min(prefix[-1] if prefix else k, room if len(prefix) < 3 else k)
            for v in range(top + 1):
                stack.append(
                    (prefix + (v,), room - v if len(prefix) < 3 else room)
                )
        return best

    for k in (3, 4, 7):
        for l in (3, 5, 10):
            assert extremal_sequence(k, l)[1] == brute(k, l)


def test_extremal_closed_form_matches_the_scan():
    # the family m = (k - 2t, t, .., t) scanned over every t, ties to the
    # larger t, as the closed form claims to pick
    def scan(k, l):
        def value(t):
            return (k - 2 * t) ** 2 + (l - 1) * t * t

        t = max(range(k // 3 + 1), key=lambda t: (value(t), t))
        return (k - 2 * t,) + (t,) * (l - 1), value(t)

    for k in range(3, 300):
        for l in range(3, 40):
            assert extremal_sequence(k, l) == scan(k, l), (k, l)


def test_extremal_huge_k_is_immediate():
    k = 10**9
    assert extremal_sequence(k, 5) == ((k, 0, 0, 0, 0), k * k)
    t = k // 3
    assert extremal_sequence(k, 10) == (
        (k - 2 * t,) + (t,) * 9,
        (k - 2 * t) ** 2 + 9 * t * t,
    )


def test_extremal_bounds():
    with pytest.raises(SWError):
        extremal_sequence(2, 5)
    with pytest.raises(SWError):
        extremal_sequence(5, 2)


# ---------------------------------------------------------------------------
# dichotomy search


@pytest.mark.parametrize("l", range(3, 10))
def test_search_is_empty_through_nine_blowups(l):
    assert dichotomy_search(l, 8) == []


def test_search_finds_the_first_class_at_ten_blowups():
    assert dichotomy_search(10, 5) == [SphereCandidate(3, (1,) * 10)]


def test_search_results_are_sorted_irreducible_and_prohibited():
    found = dichotomy_search(10, 7)
    assert found == sorted(found, key=lambda c: (c.k, c.m))
    assert SphereCandidate(3, (1,) * 10) in found
    for c in found:
        assert c.q == 1
        assert c.is_normalized()
        assert sum(c.m[:3]) <= c.k
        # the canary: none of these may pass the genus bound
        assert certify_sphere_class(c).verdict is Verdict.SW_PROHIBITED


def test_search_matches_a_brute_force_enumeration():
    for blowups in range(3, 11):
        for k in range(2, 6):
            # every non-increasing m in 0..k, largest first
            want = [
                m
                for m in itertools.combinations_with_replacement(range(k, -1, -1), blowups)
                if sum(x * x for x in m) == k * k + 1 and sum(m[:3]) <= k
            ]
            assert [c.m for c in _search_one_k(blowups, k)] == want, (blowups, k)


def test_search_refuses_past_the_candidate_cap(monkeypatch):
    # dichotomy_search(12, 80) finds 51,656 candidates; at 12 blowups and
    # k_max 160 the search ran past 100 s, so a cap stops it inside the walk
    monkeypatch.setattr(sw, "SEARCH_CANDIDATE_CAP", 1000)
    with pytest.raises(SWError, match="^search found more than 1000 candidates by k = "):
        dichotomy_search(12, 80)
    assert len(dichotomy_search(12, 40)) == 901  # just under the cap


def test_search_depth_does_not_grow_with_the_blowups():
    # the recursive walk went one call deeper per slot, zeros included, and
    # died with RecursionError from about 1,000 blowups on
    pad = (0,) * (5000 - 900)
    want = [SphereCandidate(c.k, c.m + pad) for c in dichotomy_search(900, 4)]
    assert len(want) == 3
    assert dichotomy_search(5000, 4) == want


def test_search_edge_cases():
    assert dichotomy_search(5, 1) == []
    with pytest.raises(SWError):
        dichotomy_search(2, 10)


# ---------------------------------------------------------------------------
# the trichotomy never leaks


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_certifier_never_reports_a_violation(ms):
    m = tuple(sorted(ms, reverse=True))
    total = sum(x * x for x in m)
    for q in (1, 2, 3, 4):
        square = total - q
        if square < 4:
            continue
        k = math.isqrt(square)
        if k * k == square:
            res = certify_sphere_class(SphereCandidate(k, m))
            assert res.verdict is not Verdict.VIOLATION
