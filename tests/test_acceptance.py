"""Acceptance gate: the nine contract criteria, one pass/fail line each,
plus a check that criterion 4's quotient oracle matches the full orbit.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from test_catalog import random_o12_word
from test_sw import dolgachev_candidate

from ruled_lattice import coxeter
from ruled_lattice.catalog import decompose_O12, evaluate_o12_word
from ruled_lattice.coxeter import (
    crystallographic_lattice_invariance,
    from_name,
    gram_determinant,
    is_finite_type,
    standard_crystal,
    verify_crystallographic,
)
from ruled_lattice.lattice import (
    HomologyClass,
    rational_model,
    reflect_coeffs,
    ruled_model,
)
from ruled_lattice.sw import (
    SphereCandidate,
    dichotomy_search,
    sw_inequality_holds,
)
from ruled_lattice.weyl import (
    GroupWord,
    breadth_first,
    generator_set,
    lagrangian_system,
    maximal_system_membership,
    orbit,
    rational_periods,
    reduce_class,
    reduce_periods,
    ruled_periods,
    verify_presentation,
)


@contextmanager
def criterion(number, label, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({label}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        print(
            f"criterion {number} ({label}): FAIL"
            f" (took {elapsed:.2f}s, limit {limit:g}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {limit:g}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (limit {limit:g}s)")


def test_criterion_1_presentations():
    with criterion(1, "generator presentations", 1.0):
        for l in range(3, 11):
            assert verify_presentation(generator_set(rational_model(l))).ok
        for l in range(2, 11):
            assert verify_presentation(generator_set(ruled_model(l, 1))).ok


def test_criterion_2_crystallographic_rewrites():
    with criterion(2, "integer rewrites", 1.0):
        systems = (
            [coxeter.family("BE", n) for n in range(5, 12)]
            + [coxeter.family("BD", n) for n in range(4, 12)]
            + [from_name("L4-3-4-4"), from_name("L3-4-INF")]
        )
        for sys_ in systems:
            struct = standard_crystal(sys_.label)
            matrix = crystallographic_lattice_invariance(struct)
            assert matrix.ok, f"{sys_.label}: {matrix.violations}"
            edge = verify_crystallographic(struct)
            assert edge.ok == matrix.ok  # the two routes must agree


def test_criterion_3_finiteness_dichotomy():
    with criterion(3, "finiteness dichotomy", 1.0):
        for n in range(3, 9):
            assert is_finite_type(coxeter.family("E", n)), f"E{n}"
        assert not is_finite_type(coxeter.family("E", 9))
        assert gram_determinant(coxeter.family("E", 9)) == 0
        for n in range(4, 12):
            assert not is_finite_type(coxeter.family("BD", n)), f"BD{n}"
        assert not is_finite_type(from_name("I2-INF"))
        assert not is_finite_type(from_name("L3-4-INF"))


def _dominant(v):
    """The W(B_4) representative of a rank-5 coefficient vector: s1..s4
    permute and negate the exceptional coefficients, so sort their sizes."""
    return (v[0], *sorted(map(abs, v[1:])))


# s0 moves E1, E2, E3 alike, so an s0 edge out of a representative depends
# only on which three exceptional slots it meets and on their signs
_SLOT_TRIPLES = ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2), (2, 3, 4, 1))
_SIGNS = tuple(product((1, -1), repeat=3))


def _quotient_step(s0, bound):
    """Edges of the orbit graph on W(B_4) representatives within the
    max-abs box ``bound``, which every signed permutation preserves."""

    def step(rep):
        out = []
        for a, b, c, d in _SLOT_TRIPLES:
            for x, y, z in _SIGNS:
                v = (rep[0], x * rep[a], y * rep[b], z * rep[c], rep[d])
                w = reflect_coeffs(s0, v)
                # s0 leaves the fourth slot alone
                if max(abs(w[0]), abs(w[1]), abs(w[2]), abs(w[3])) <= bound:
                    out.append(_dominant(w))
        return out

    return step


def test_criterion_4_fundamental_domain():
    with criterion(4, "fundamental domain, 4 blowups", 60.0):
        model = rational_model(4)
        gens = generator_set(model)

        # every integer period vector in the open positive cone, entries <= 6
        inputs = []
        for lam in range(1, 7):
            lam2 = lam * lam
            for m1 in range(-6, 7):
                for m2 in range(-6, 7):
                    s2 = m1 * m1 + m2 * m2
                    if s2 >= lam2:
                        continue
                    for m3 in range(-6, 7):
                        s3 = s2 + m3 * m3
                        if s3 >= lam2:
                            continue
                        for m4 in range(-6, 7):
                            if s3 + m4 * m4 < lam2:
                                inputs.append((lam, (m1, m2, m3, m4)))
        assert len(inputs) > 2000  # "a few thousand" at this scale

        by_invariant: dict[int, set] = {}
        for lam, mus in inputs:
            red = reduce_periods(rational_periods(4, lam, mus))
            assert red.reduced.satisfies_period_conditions()
            q = lam * lam - sum(m * m for m in mus)
            by_invariant.setdefault(q, set()).add(
                tuple(int(x) for x in red.reduced.dual_coefficients())
            )

        # inputs sharing a canonical form are equivalent through their
        # certificate words; distinct canonical forms must stay distinct
        # under the bounded-orbit oracle, searched on W(B_4) representatives
        step = _quotient_step(gens.root_action("s0"), bound=40)
        for q, forms in sorted(by_invariant.items()):
            if len(forms) < 2:
                continue
            owner = {}
            for f in sorted(forms):
                for rep in breadth_first((_dominant(f),), step):
                    other = owner.setdefault(rep, f)
                    assert other == f, (
                        f"q={q}: canonical forms {f} and {other} meet at {rep}"
                    )


def test_criterion_4_oracle_matches_the_full_orbit():
    # the representatives the quotient search reaches are exactly those of
    # the full bounded orbit
    model = rational_model(4)
    gens = generator_set(model)
    step = _quotient_step(gens.root_action("s0"), bound=12)
    seeds = [
        (1, 0, 0, 0, 0),
        (2, 1, 0, -1, 0),
        (3, -1, -1, -1, 0),
        (4, -2, -1, -1, -1),
        (5, -2, -2, -1, -1),
        (0, 1, -1, 0, 0),
        (0, 0, 0, 0, 1),
    ]
    for seed in seeds:
        full = orbit(gens, HomologyClass(model, seed), bound=12)
        assert full.truncated
        assert breadth_first((_dominant(seed),), step) == {
            _dominant(v) for v in full.vectors
        }


def test_criterion_5_sw_dichotomy():
    with criterion(5, "sphere-class dichotomy", 30.0):
        assert dichotomy_search(9, 40) == []
        assert dichotomy_search(10, 5) == [SphereCandidate(3, (1,) * 10)]
        assert not sw_inequality_holds(SphereCandidate(3, (1,) * 10))
        for m in range(2, 21):
            c = dolgachev_candidate(10, m)
            assert c.q == 4  # self-intersection -4
            assert sum(c.m[:3]) == c.k  # saturates the wall inequality


def test_criterion_6_exceptional_reduction():
    with criterion(6, "exceptional-class reduction", 30.0):
        model = rational_model(6)
        gens = generator_set(model)
        target = HomologyClass(model, (0, 0, 0, 0, 0, 0, 1))
        rng = random.Random(6)
        for _ in range(500):
            letters = tuple(
                rng.choice(gens.names) for _ in range(rng.randrange(0, 26))
            )
            moved = HomologyClass(
                model, GroupWord(letters).apply_to_coeffs(gens, target.coeffs)
            )
            red = reduce_class(gens, moved)
            assert red.in_orbit
            assert red.canonical == target
            assert red.word.apply_to_coeffs(gens, moved.coeffs) == target.coeffs


def test_criterion_7_root_orbit():
    with criterion(7, "degree-8 root orbit", 10.0):
        model = rational_model(8)
        gens = generator_set(model)
        seed = HomologyClass(model, (0, 1, -1, 0, 0, 0, 0, 0, 0))
        res = orbit(
            gens, seed, bound=40, generator_names=tuple(f"s{i}" for i in range(8))
        )
        assert not res.truncated
        assert len(res.vectors) == 240
        assert all(HomologyClass(model, v).square == -2 for v in res.vectors)


def test_criterion_8_rank3_generation():
    with criterion(8, "rank-3 decomposition", 10.0):
        rng = random.Random(81)
        for _ in range(1000):
            word = random_o12_word(rng.randrange(0, 31), rng)
            target = evaluate_o12_word(word)
            assert evaluate_o12_word(decompose_O12(target)) == target
        other = random.Random(82)  # independent matrix sample
        for _ in range(200):
            target = evaluate_o12_word(random_o12_word(30, other))
            assert evaluate_o12_word(decompose_O12(target)) == target


def test_criterion_9_lagrangian_fixtures():
    with criterion(9, "Lagrangian-system fixtures", 1.0):
        cases = [
            (rational_periods(3, 3, (1, 1, 1)), "A2+A1", "E3"),
            (rational_periods(5, 3, (1, 1, 1, 1, 1)), "D5", "E5"),
            (ruled_periods(2, 2, 5, (1, 1)), "A1+A1", "D2"),
        ]
        for periods, label, container in cases:
            sys_ = lagrangian_system(periods)
            assert sys_.label == label
            assert coxeter.is_finite_type(sys_.system)
            assert maximal_system_membership(sys_).container_label == container
