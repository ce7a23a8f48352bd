"""Weyl-group machinery: generators, orbits, reductions, wall systems."""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruled_lattice import lattice, weyl
from ruled_lattice.coxeter import CoxeterSystem, component_types
from ruled_lattice.lattice import (
    HomologyClass,
    Kind,
    LatticeAutomorphism,
    LatticeError,
    ModelMismatchError,
    _sparse_class,
    exceptional_class,
    pairing,
    positive_cone_contains,
    rational_model,
    reflect_coeffs,
    ruled_model,
)
from ruled_lattice.weyl import (
    GroupWord,
    LagrangianSystem,
    NotReducedError,
    OutsideConeError,
    PeriodVector,
    expected_coxeter_system,
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
from test_lattice import reflection_along

R3 = rational_model(3)
R5 = rational_model(5)
U2 = ruled_model(2, 1)


def class_of(gens, name):
    """The class of the generator with this name."""
    return gens.classes[gens.names.index(name)]


def member_classes(sys):
    """The rank-length classes of a Lagrangian system's members."""
    return tuple(_sparse_class(sys.model, r) for r in sys.member_roots)


def period_of(p, c):
    """The period of ``p`` over the class ``c``: its dual class paired with c."""
    return Fraction(pairing(HomologyClass(p.model, p.coeffs), c), p.denominator)


def _lin(*terms):
    """The integer combination of classes given as (coefficient, class) pairs."""
    model = terms[0][1].model
    return HomologyClass(
        model, tuple(sum(k * c.coeffs[i] for k, c in terms) for i in range(model.rank))
    )


# ---------------------------------------------------------------------------
# generator sets and presentations


def test_generator_names_and_classes():
    g = generator_set(R3)
    assert g.names == ("s0", "s1", "s2", "s3")
    assert class_of(g, "s0").coeffs == (1, -1, -1, -1)
    assert class_of(g, "s1").coeffs == (0, 1, -1, 0)
    assert class_of(g, "s3").coeffs == (0, 0, 0, 1)

    g = generator_set(U2)
    assert g.names == ("s0", "s1", "s2")
    assert class_of(g, "s0").coeffs == (0, 1, -1, -1)
    assert class_of(g, "s1").coeffs == (0, 0, 1, -1)
    assert class_of(g, "s2").coeffs == (0, 0, 0, 1)


@pytest.mark.parametrize(
    "model",
    [rational_model(l) for l in range(3, 13)] + [ruled_model(l) for l in range(2, 13)],
    ids=str,
)
def test_generator_classes_follow_their_formulas(model):
    l = model.blowups
    e = [None] + [exceptional_class(model, i) for i in range(1, l + 1)]
    if model.kind is Kind.RATIONAL:
        s0 = HomologyClass(model, (1, -1, -1, -1) + (0,) * (l - 3))  # L - E1 - E2 - E3
    else:
        s0 = HomologyClass(model, (0, 1, -1, -1) + (0,) * (l - 2))  # F - E1 - E2
    want = (s0, *(_lin((1, e[i]), (-1, e[i + 1])) for i in range(1, l)), e[l])
    g = generator_set(model)
    assert g.names == tuple(f"s{i}" for i in range(l + 1))
    assert g.classes == want
    # l walls of square -2, then the twist along E_l
    assert [c.square for c in g.classes] == [-2] * l + [-1]


def test_generator_set_reads_its_root_actions_off_the_roots(monkeypatch):
    # the generator set used to build every rank-length class and square it
    # through the dense pairing, so the first root_action cost O(l^2)
    def unused(*args):
        raise AssertionError("generator_set built a rank-length class")

    monkeypatch.setattr(lattice, "root_action", unused)
    monkeypatch.setattr(lattice, "_sparse_class", unused)
    monkeypatch.setattr(weyl, "_sparse_class", unused)
    monkeypatch.setattr(HomologyClass, "_trusted", unused)
    for model, h in ((rational_model(2000), 1), (ruled_model(2000), 2)):
        g = generator_set(model)
        assert g.root_action("s1") == (((h, -1), (h + 1, 1)), ((h, 1), (h + 1, -1)))
        assert g.root_action("s2000") == (((h + 1999, -1),), ((h + 1999, 2),))


@pytest.mark.parametrize("kind", list(Kind))
def test_class_text_of_a_root_is_the_text_of_its_class(kind):
    # the renderer prints the pairs in the order given: the roots' slots must
    # increase, and it skips zeros itself
    build, least = (rational_model, 3) if kind is Kind.RATIONAL else (ruled_model, 2)
    for l in [*range(least, 13), 2000]:
        model = build(l)
        for root in generator_set(model).roots:
            slots = [i for i, _ in root]
            assert all(a < b for a, b in zip(slots, slots[1:])), root
            assert all(c != 0 for _, c in root), root
            assert lattice._class_text(model, root) == str(lattice._sparse_class(model, root))
    assert lattice._class_text(R3, ()) == "0" == str(HomologyClass(R3, (0, 0, 0, 0)))
    assert lattice._class_text(R3, ((0, 0), (1, -2), (3, 1))) == "-2E1 + E3"


def test_generators_are_involutions():
    for model in (R3, ruled_model(3, 2)):
        g = generator_set(model)
        for name in g.names:
            a = g.automorphism(name)
            assert (a @ a).matrix == tuple(
                tuple(1 if i == j else 0 for j in range(model.rank))
                for i in range(model.rank)
            )


def test_generator_set_needs_enough_blowups():
    with pytest.raises(LatticeError, match="^the rational generator set needs at least 3 blowups$"):
        generator_set(rational_model(2))
    with pytest.raises(LatticeError, match="^the ruled generator set needs at least 2 blowups$"):
        generator_set(ruled_model(1, 1))


@pytest.mark.parametrize("l", [3, 4, 5])
def test_rational_presentation_matches_graph(l):
    report = verify_presentation(generator_set(rational_model(l)))
    assert report.ok
    assert all(e.ok for e in report.entries)
    # the report carries the graph its entries were checked against
    assert report.system == expected_coxeter_system(rational_model(l))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_ruled_presentation_matches_graph(l):
    report = verify_presentation(generator_set(ruled_model(l, 1)))
    assert report.ok


def _dense_order(m: LatticeAutomorphism, cap: int):
    """Order by exact integer matrix powers, None above ``cap``."""
    ident = LatticeAutomorphism.identity(m.model)
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = m @ power
    return None


@pytest.mark.parametrize(
    "model",
    [rational_model(l) for l in range(3, 10)] + [ruled_model(l, 1) for l in range(2, 10)],
    ids=lambda m: f"{m.kind.value}{m.blowups}",
)
def test_presentation_orders_match_dense_matrix_powers(model):
    # the sparse root-action orders against powers of the dense matrices;
    # caps 3 and 4 sit on the orders that occur, so an off-by-one cap shows
    gens = generator_set(model)
    for e in verify_presentation(gens).entries:
        first, then = gens.root_action(e.b), gens.root_action(e.a)
        product = reflection_along(class_of(gens, e.a)) @ reflection_along(
            class_of(gens, e.b)
        )
        for cap in (3, 4, 16):
            computed = weyl._product_order(first, then, cap)
            assert computed == _dense_order(product, cap), (e.a, e.b, cap)
        # verify_presentation orders its pairs under the cap of 16
        assert e.computed == weyl._product_order(first, then), (e.a, e.b)


def test_product_order_follows_only_the_support_union(monkeypatch):
    # a basis vector pairing to zero with both roots is fixed by both, so a
    # pair follows only the union of the two dual supports, each vector for
    # at most the pair's order in steps of two reflections
    gens = generator_set(rational_model(30))
    calls = 0

    def counting(action, coeffs):
        nonlocal calls
        calls += 1
        return reflect_coeffs(action, coeffs)

    monkeypatch.setattr(weyl, "reflect_coeffs", counting)
    for i, a in enumerate(gens.names):
        for b in gens.names[i + 1 :]:
            first, then = gens.root_action(b), gens.root_action(a)
            calls = 0
            order = weyl._product_order(first, then, 16)
            union = {j for j, _ in first[0] + then[0]}
            assert calls <= 2 * order * len(union), (a, b, calls)
    assert verify_presentation(gens).ok


def test_expected_system_labels_and_orders():
    sys4 = expected_coxeter_system(rational_model(4))
    assert sys4.label == "BE5"
    assert sys4.order("s0", "s3") == 3
    assert sys4.order("s0", "s1") == 2
    assert sys4.order("s3", "s4") == 4

    assert expected_coxeter_system(R3).label == "L4-3-4-4"
    assert expected_coxeter_system(rational_model(9)).label == "BE10"

    sysu = expected_coxeter_system(U2)
    assert sysu.label == "L3-4-4"
    assert sysu.order("s0", "s1") == 2
    assert sysu.order("s1", "s2") == 4
    assert sysu.order("s0", "s2") == 4
    assert expected_coxeter_system(ruled_model(3, 1)).label == "BD4"


def _ruled_into_rational(l: int) -> list[HomologyClass]:
    """The images of the ruled basis Y, F, E1..El in rational l+1:
    Y -> L - E1, F -> L - E2, E1 -> L - E1 - E2 and E_i -> E_{i+1}."""
    r = rational_model(l + 1)
    L = HomologyClass(r, (1,) + (0,) * (l + 1))
    E = [None] + [exceptional_class(r, i) for i in range(1, l + 2)]
    heads = [_lin((1, L), (-1, E[1])), _lin((1, L), (-1, E[2]))]
    return heads + [_lin((1, L), (-1, E[1]), (-1, E[2]))] + [E[i + 1] for i in range(2, l + 1)]


@pytest.mark.parametrize("l", range(2, 13))
def test_ruled_graph_through_the_isometry_into_rational(l):
    # ruled l is isometric to rational l+1: s0 -> E1 - E3, s1 -> L - E1 -
    # E2 - E3 and s_i -> s_{i+1}; the graph's pair orders are recomputed on
    # the images' root actions, in the rational model
    model = ruled_model(l, 1)
    images = _ruled_into_rational(l)
    n = model.rank
    basis = [HomologyClass(model, (0,) * i + (1,) + (0,) * (n - i - 1)) for i in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        assert pairing(images[a], images[b]) == pairing(basis[a], basis[b]), (a, b)
    gens, rational = generator_set(model), generator_set(rational_model(l + 1))
    image = {g: _lin(*zip(class_of(gens, g).coeffs, images)) for g in gens.names}
    e1_e3 = _lin((1, class_of(rational, "s1")), (1, class_of(rational, "s2")))
    assert image["s0"] == e1_e3
    assert image["s1"] == class_of(rational, "s0")
    assert all(image[f"s{i}"] == class_of(rational, f"s{i + 1}") for i in range(2, l + 1))
    actions = {g: lattice.root_action(c) for g, c in image.items()}
    expected = expected_coxeter_system(model)
    for i, a in enumerate(gens.names):
        for b in gens.names[i + 1 :]:
            assert weyl._product_order(actions[b], actions[a], 16) == expected.order(a, b), (a, b)


def test_presentation_report_json_shape():
    report = verify_presentation(generator_set(R3))
    data = report.to_json_dict()
    assert data["ok"] is True
    assert {p["a"] for p in data["pairs"]} <= {"s0", "s1", "s2", "s3"}


# ---------------------------------------------------------------------------
# group words


def test_empty_word_is_identity():
    g = generator_set(R3)
    w = GroupWord(())
    assert len(w) == 0
    assert w.apply_to_coeffs(g, (1, 2, 3, 4)) == (1, 2, 3, 4)


def test_word_concatenation_composes():
    g = generator_set(R3)
    w1 = GroupWord(("s1",))
    w2 = GroupWord(("s2", "s3"))
    both = GroupWord(w1.letters + w2.letters)
    coeffs = (0, 1, 0, 0)
    step = w2.apply_to_coeffs(g, w1.apply_to_coeffs(g, coeffs))
    assert both.apply_to_coeffs(g, coeffs) == step


def _replay_by_root_actions(gens, letters, coeffs):
    """The word folded over ``coeffs`` letter by letter through the root
    actions: the route that builds no dense matrix."""
    for letter in letters:
        coeffs = reflect_coeffs(gens.root_action(letter), coeffs)
    return coeffs


@st.composite
def replay_cases(draw):
    """A generator set at rational l = 3..9 or ruled l = 2..7, a word of 0-30
    of its letters and a vector of integers or of Fractions over 2, 3 or 7."""
    if draw(st.booleans()):
        model = ruled_model(draw(st.integers(2, 7)))
    else:
        model = rational_model(draw(st.integers(3, 9)))
    gens = generator_set(model)
    letters = draw(st.lists(st.sampled_from(gens.names), max_size=30))
    d = draw(st.sampled_from((1, 2, 3, 7)))
    nums = draw(st.lists(st.integers(-50, 50), min_size=model.rank, max_size=model.rank))
    coeffs = tuple(nums) if d == 1 else tuple(Fraction(n, d) for n in nums)
    return gens, GroupWord(tuple(letters)), coeffs


@given(replay_cases())
@settings(max_examples=150, deadline=None)
def test_word_replay_matches_the_root_actions(case):
    # apply_to_coeffs evaluates the word's dense integer matrix; the letters
    # folded through the sparse root actions are the independent route
    gens, word, coeffs = case
    assert word.apply_to_coeffs(gens, coeffs) == _replay_by_root_actions(
        gens, word.letters, coeffs
    )


def test_word_replay_matches_the_root_actions_at_rational_30():
    gens = generator_set(rational_model(30))
    word = GroupWord(tuple(f"s{7 * i % 31}" for i in range(62)) + ("s0", "s30", "s0"))
    coeffs = tuple(Fraction(i * i - 40, 7) for i in range(31))
    replayed = word.apply_to_coeffs(gens, coeffs)
    assert replayed != coeffs
    assert replayed == _replay_by_root_actions(gens, word.letters, coeffs)


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (1, 0, 0, 0, 0, 7), ()])
@pytest.mark.parametrize("letters", [("s0", "s1"), ()])
def test_replay_refuses_a_vector_of_the_wrong_length(coeffs, letters):
    # a dense product over zip would drop the extra entries or the missing rows
    g = generator_set(R3)
    with pytest.raises(LatticeError, match="expected 4 coefficients"):
        GroupWord(letters).apply_to_coeffs(g, coeffs)
    with pytest.raises(LatticeError, match="expected 4 coefficients"):
        g.automorphism("s0").apply_coeffs(coeffs)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_of_exceptional_under_swaps_and_twist():
    g = generator_set(R3)
    res = orbit(g, exceptional_class(R3, 1), bound=5, generator_names=("s1", "s2", "s3"))
    assert not res.truncated
    assert res.sorted_vectors() == [
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
    ]


def test_orbit_truncates_at_the_bound():
    g = generator_set(R3)
    res = orbit(g, HomologyClass(R3, (1, 0, 0, 0)), bound=2)
    assert res.truncated
    assert all(max(abs(c) for c in v) <= 2 for v in res.vectors)


def test_orbit_rejects_bad_seeds():
    g = generator_set(R3)
    with pytest.raises(LatticeError):
        orbit(g, HomologyClass(R3, (9, 0, 0, 0)), bound=2)
    with pytest.raises(ModelMismatchError):
        orbit(g, HomologyClass(R5, (0, 1, 0, 0, 0, 0)), bound=2)
    with pytest.raises(LatticeError, match="no generator named 's9'"):
        orbit(g, exceptional_class(R3, 1), bound=2, generator_names=("s1", "s9"))


def test_orbit_refuses_a_search_past_the_vertex_cap(monkeypatch):
    g = generator_set(R3)
    seed = HomologyClass(R3, (1, 0, 0, 0))
    size = len(orbit(g, seed, bound=2).vectors)
    monkeypatch.setattr(weyl, "SEARCH_VERTEX_CAP", size)
    assert len(orbit(g, seed, bound=2).vectors) == size
    monkeypatch.setattr(weyl, "SEARCH_VERTEX_CAP", 1000)
    # the cap stops the search itself, long before a bound this large would
    with pytest.raises(LatticeError, match="more than 1000 vertices"):
        orbit(g, seed, bound=10**9)


def test_orbit_refuses_a_search_past_the_coefficient_cap():
    # 39,800 vectors of rank 101: under the vertex cap, over the coefficient cap
    model = rational_model(100)
    with pytest.raises(LatticeError, match="more than 19801 vertices of rank 101"):
        orbit(generator_set(model), exceptional_class(model, 1), bound=1)


def test_unknown_generator_name_is_a_lattice_error():
    g = generator_set(R3)
    for lookup in (g.automorphism, g.root_action):
        with pytest.raises(LatticeError, match="no generator named 's9'"):
            lookup("s9")


def _dense_orbit(gens, seed, bound, names):
    """Reference BFS: dense matrix-vector products with the reflection_along
    matrices, and the bound checked on every coefficient."""
    matrices = [reflection_along(class_of(gens, n)).matrix for n in names]
    seen, todo, truncated = {seed}, [seed], False
    while todo:
        v = todo.pop()
        for m in matrices:
            w = tuple(sum(a * b for a, b in zip(row, v)) for row in m)
            if max(map(abs, w)) > bound:
                truncated = True
            elif w not in seen:
                seen.add(w)
                todo.append(w)
    return seen, truncated


@pytest.mark.parametrize(
    "kind, l, bound, names",
    [("rational", l, b, None) for l in (3, 4, 5) for b in (2, 3)]
    + [("rational", 6, 2, None)]
    + [("ruled", l, b, None) for l in (2, 3, 4) for b in (2, 3)]
    + [
        ("rational", 5, 3, ("s0", "s2", "s4")),
        ("rational", 3, 5, ("s1", "s2", "s3")),  # a finite subgroup: not truncated
        ("ruled", 3, 1, None),  # bound 1 truncates every orbit
    ],
    ids=lambda x: ",".join(x) if isinstance(x, tuple) else str(x),
)
def test_orbit_matches_dense_reference(kind, l, bound, names):
    model = rational_model(l) if kind == "rational" else ruled_model(l)
    g = generator_set(model)
    names = names or g.names
    # the last seed has every coefficient nonzero, so an image can leave the
    # bound in any coordinate a generator moves
    mixed = HomologyClass(model, (-1,) + (-bound,) * (model.rank - 1))
    for seed in (exceptional_class(model, 1), class_of(g, "s0"), mixed):
        res = orbit(g, seed, bound, names)
        assert (res.vectors, res.truncated) == _dense_orbit(g, seed.coeffs, bound, names)


# ---------------------------------------------------------------------------
# period vectors


def test_period_vector_validation():
    with pytest.raises(LatticeError):
        rational_periods(3, 3, (1, 1))  # wrong count
    with pytest.raises(LatticeError):
        rational_periods(3, 1.5, (1, 1, 1))  # floats are ambiguous
    with pytest.raises(LatticeError):
        rational_periods(3, True, (1, 1, 1))
    u2 = U2.to_json_dict()
    with pytest.raises(LatticeError):  # a ruled model needs fiber and section
        PeriodVector.from_json_dict({"model": u2, "line": "3", "exceptional": ["1", "1"]})
    with pytest.raises(LatticeError):
        PeriodVector.from_json_dict({"model": u2, "fiber": "2", "exceptional": ["1", "1"]})
    # the constructor takes integer dual coefficients in lowest terms
    assert PeriodVector(R3, (3, -1, -1, -1), 1) == rational_periods(3, 3, (1, 1, 1))
    assert PeriodVector(U2, (4, 9, -2, -2), 2) == ruled_periods(2, 2, Fraction(9, 2), (1, 1))
    for coeffs, denominator in (
        ((3, -1, -1), 1),  # wrong length
        ((3, -1, -1, -1, 0), 1),
        ((3.0, -1, -1, -1), 1),
        ((3, True, -1, -1), 1),
        ((3, -1, -1, -1), 0),
        ((3, -1, -1, -1), -1),
        ((3, -1, -1, -1), True),
        ((3, -1, -1, -1), 1.0),
        ((2, 0, 0, 0), 2),  # not in lowest terms
        ((0, 0, 0, 0), 2),
    ):
        with pytest.raises(LatticeError):
            PeriodVector(R3, coeffs, denominator)
    for text in ("0.1", "1e0", " 1 "):  # Fraction parses these; a period is p or p/q
        with pytest.raises(LatticeError, match="exact rationals"):
            rational_periods(3, 5, (text, 1, 1))
        with pytest.raises(LatticeError, match="exact rationals"):
            ruled_periods(2, text, 3, (1, 1))


# strings the old patterns were written for, and the edges of what they took
_NUMBER_TEXTS = [
    "", "+", "-", "+-1", "--1", "1", "+1", "-1", "007", " 1", "1 ", "1\n", "1/0",
    "0.1", "1e0", "1_0", "0x1", "1/2", "-3/4", "+3/04", "3/-4", "3/+4", "1/", "/2",
    "1/2/3", "١٢", "-٣/٤", "²", "Ⅻ", "１２",
]


def _check_number_text(text):
    import re

    from ruled_lattice.base import is_int_text
    from ruled_lattice.weyl import read_period

    assert is_int_text(text) == bool(re.fullmatch(r"[+-]?\d+", text))
    try:
        read_period(text)
    except LatticeError as exc:
        read = "zero denominator" in str(exc)
    else:
        read = True
    assert read == bool(re.fullmatch(r"[+-]?\d+(/\d+)?", text))


@pytest.mark.parametrize("text", _NUMBER_TEXTS)
def test_number_text_matches_the_old_patterns(text):
    _check_number_text(text)


@given(st.text(alphabet="+-/ .0129١٣²Ⅻ１e", max_size=6))
def test_number_text_matches_the_old_patterns_on_random_text(text):
    _check_number_text(text)


def test_period_zero_denominator_is_refused():
    with pytest.raises(LatticeError, match="zero denominator"):
        rational_periods(3, "1/0", [1, 1, 1])


def test_period_vector_heads_and_duals():
    p = rational_periods(3, 3, (1, 1, 1))
    assert p.dual_coefficients() == (3, -1, -1, -1)
    assert str(p) == "(3; 1,1,1)"

    q = ruled_periods(2, 2, Fraction(9, 2), (1, 1))
    assert q.dual_coefficients() == (2, Fraction(9, 2), -1, -1)
    assert str(q) == "(2, 9/2; 1,1)"


def test_period_vector_dual_round_trip():
    p = ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1))
    duals, h = p.dual_coefficients(), p.model.head
    assert weyl._periods(p.model, duals[:h], [-x for x in duals[h:]]) == p


def test_period_of_basis_classes():
    p = rational_periods(3, 7, (3, 2, 1))
    assert period_of(p, HomologyClass(R3, (1, 0, 0, 0))) == 7
    assert period_of(p, exceptional_class(R3, 1)) == 3
    assert period_of(p, HomologyClass(R3, (1, -1, -1, -1))) == 1
    with pytest.raises(ModelMismatchError):
        period_of(p, exceptional_class(R5, 1))


def test_period_conditions():
    assert rational_periods(3, 3, (1, 1, 1)).satisfies_period_conditions()
    assert rational_periods(3, 6, (2, 2, 2)).satisfies_period_conditions()
    assert not rational_periods(3, 3, (1, 1, 2)).satisfies_period_conditions()
    assert not rational_periods(3, 3, (2, 2, 2)).satisfies_period_conditions()
    assert not rational_periods(3, 3, (1, 1, -1)).satisfies_period_conditions()
    assert ruled_periods(2, 2, 5, (1, 1)).satisfies_period_conditions()
    assert not ruled_periods(2, 1, 5, (1, 1)).satisfies_period_conditions()


@pytest.mark.parametrize(
    "p",
    [
        rational_periods(4, 8, (5, 4, 3, 1)),
        ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1)),
    ],
)
def test_period_vector_json_round_trip(p):
    assert PeriodVector.from_json_dict(p.to_json_dict()) == p


def test_period_vector_json_rejects_garbage():
    with pytest.raises(LatticeError):
        PeriodVector.from_json_dict({"model": {"kind": "rational", "blowups": 3}})
    # a JSON object is not a list of periods, though its keys would read as one
    model = {"kind": "rational", "blowups": 3, "genus": 0}
    for bad in ({"3": 0, "2": 0, "1": 0}, "321", 3):
        with pytest.raises(LatticeError, match="'exceptional' must be a list"):
            PeriodVector.from_json_dict(
                {"model": model, "line": 6, "exceptional": bad}
            )


# ---------------------------------------------------------------------------
# period reduction


def test_reduce_fixed_point():
    red = reduce_periods(rational_periods(3, 3, (1, 1, 1)))
    assert red.reduced == rational_periods(3, 3, (1, 1, 1))
    assert red.word.letters == ()
    assert red.boundary_flags == ("s0", "s1", "s2")


def test_reduce_rational_fixture():
    red = reduce_periods(rational_periods(5, 6, (3, 3, 3, 1, 1)))
    assert red.reduced == rational_periods(5, 3, (1, 1, 0, 0, 0))
    assert red.word.letters == ("s0", "s3", "s4", "s2", "s3", "s1", "s2")
    assert red.boundary_flags == ("s1", "s3", "s4", "s5")


def test_reduce_rational_fixture_two():
    red = reduce_periods(rational_periods(4, 8, (5, 4, 3, 1)))
    assert red.reduced == rational_periods(4, 4, (1, 1, 1, 0))
    assert red.word.letters == ("s0", "s3", "s2", "s4", "s3")
    assert red.boundary_flags == ("s1", "s2", "s4")


def test_reduce_ruled_fixture_keeps_denominators():
    p = ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1))
    red = reduce_periods(p)
    assert red.reduced == ruled_periods(3, 2, Fraction(17, 2), (1, 1, Fraction(1, 2)))
    assert red.word.letters == ("s0", "s2")
    assert red.boundary_flags == ("s0", "s1")


# Inputs with their reduced vector, word and flags, one row per path the
# reduction loop takes: the same loop serves both models.
_REDUCTION_TABLE = {
    # the affine ruled walk: fiber 1, four s0 crossings
    "ruled-l2-affine": (
        ruled_periods(2, 1, 17, (4, 0)),
        ruled_periods(2, 1, 9, (0, 0)),
        "s0 s2 s1 s0 s2 s1 s0 s2 s0",
        "s1 s2",
    ),
    # fractional periods and a negative mu: a twist, then a re-sort
    "ruled-l4-fractional": (
        ruled_periods(
            4, Fraction(3, 2), Fraction(41, 2), (Fraction(5, 2), -2, Fraction(7, 3), 1)
        ),
        ruled_periods(
            4, Fraction(3, 2), Fraction(46, 3), (Fraction(2, 3), *[Fraction(1, 2)] * 3)
        ),
        "s2 s3 s4 s3 s0 s2 s3 s1 s2 s4 s3 s4 s0 s2 s3 s1 s2 s4 s0",
        "s2 s3",
    ),
    "rational-l9": (
        rational_periods(
            9, Fraction(17, 3), [Fraction(m, 3) for m in (1, 12, 4, 4, 4, 4, -1, 5, -5)]
        ),
        rational_periods(9, 2, (*[Fraction(1, 3)] * 7, 0, 0)),
        "s1 s2 s3 s4 s5 s7 s6 s5 s4 s3 s2 s9 s8 s7 s6 s5 s4 s3 s9 s0 "
        "s3 s4 s5 s6 s7 s8 s2 s3 s4 s5 s6 s7 s0 s3 s4 s2 s3 s0",
        "s1 s2 s3 s4 s5 s6 s8 s9",
    ),
    "rational-l10": (
        rational_periods(10, 24, (10, 9, 6, 12, -5, -1, 6, -3, 8, -2)),
        rational_periods(10, 13, (4, 4, 4, 3, 3, 3, 3, 2, 2, 1)),
        "s3 s5 s6 s7 s8 s9 s2 s5 s7 s8 s1 s6 s5 s4 s10 s9 s8 s7 s10 s9 s8 s10 "
        "s9 s10 s0 s3 s4 s5 s6 s7 s2 s3 s4 s5 s1 s2 s3 s0 s3 s4 s2 s3 s0",
        "s1 s2 s4 s5 s6 s8",
    ),
    "rational-l11": (
        rational_periods(
            11,
            Fraction(27, 2),
            [Fraction(m, 2) for m in (12, 11, 6, 10, 8, 10, -7, 3, 2, 2, -3)],
        ),
        rational_periods(
            11, 8, [Fraction(m, 2) for m in (5, 5, 5, 5, 4, 4, 3, 3, 3, 2, 2)]
        ),
        "s3 s4 s5 s7 s8 s9 s10 s4 s11 s10 s9 s8 s7 s6 s11 s10 s9 s0 s3 s4 s5 "
        "s6 s2 s3 s4 s5 s1 s2 s3 s0 s3 s4 s5 s6 s2 s3 s4 s0",
        "s1 s2 s3 s5 s7 s8 s10",
    ),
}


@pytest.mark.parametrize("case", _REDUCTION_TABLE)
def test_reduce_periods_table(case):
    p, reduced, word, flags = _REDUCTION_TABLE[case]
    red = reduce_periods(p)
    assert red.reduced == reduced
    assert red.word.letters == tuple(word.split())
    assert red.boundary_flags == tuple(flags.split())
    assert red.word.apply_to_coeffs(generator_set(p.model), p.coeffs) == reduced.coeffs


def test_reduction_word_transports_the_input():
    for p in (
        rational_periods(5, 6, (3, 3, 3, 1, 1)),
        ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1)),
    ):
        red = reduce_periods(p)
        g = generator_set(p.model)
        assert (
            red.word.apply_to_coeffs(g, p.dual_coefficients())
            == red.reduced.dual_coefficients()
        )


def test_reduce_rejects_vectors_outside_the_cone():
    with pytest.raises(OutsideConeError):
        reduce_periods(rational_periods(3, 3, (2, 2, 2)))
    with pytest.raises(OutsideConeError):
        reduce_periods(rational_periods(3, -3, (-1, -1, -1)))
    with pytest.raises(OutsideConeError):
        reduce_periods(ruled_periods(2, 1, 1, (1, 1)))


def test_reduction_json_shape():
    red = reduce_periods(rational_periods(4, 8, (5, 4, 3, 1)))
    data = red.to_json_dict()
    assert data["word"] == ["s0", "s3", "s2", "s4", "s3"]
    assert data["boundary_flags"] == ["s1", "s2", "s4"]
    assert data["reduced"]["line"] == "4"


@st.composite
def cone_periods(draw, kinds=("rational", "ruled"), max_ruled=7):
    """A point of the coded cone over one denominator in {1, 2, 3, 7}:
    rational l = 3..11 or ruled l = 2..max_ruled, often close to the cone's
    edge."""
    ruled = draw(st.sampled_from(kinds)) == "ruled"
    l = draw(st.integers(2, max_ruled) if ruled else st.integers(3, 11))
    d = draw(st.sampled_from((1, 2, 3, 7)))
    mus = draw(st.lists(st.integers(-10, 10), min_size=l, max_size=l))
    norm = sum(m * m for m in mus)
    mus = [Fraction(m, d) for m in mus]
    if ruled:
        fiber = draw(st.integers(1, 30))
        section = norm // fiber + draw(st.integers(1, 30))  # fiber*section > norm
        return ruled_periods(l, Fraction(fiber, d), Fraction(section, d), mus)
    lam = max(draw(st.integers(1, 40)), math.isqrt(norm) + 1)
    return rational_periods(l, Fraction(lam, d), mus)


@given(cone_periods())
@settings(max_examples=150, deadline=None)
def test_reduction_properties(p):
    g = generator_set(p.model)
    # the wall periods, paired on the roots' dual halves, against the dense
    # pairing with each rank-length generator class
    assert [Fraction(w, p.denominator) for w in p.wall_periods()] == [
        period_of(p, c) for c in g.classes
    ]
    red = reduce_periods(p)
    assert red.reduced.satisfies_period_conditions()
    assert red.reduced.denominator == p.denominator
    assert red.word.apply_to_coeffs(g, p.coeffs) == red.reduced.coeffs
    again = reduce_periods(red.reduced)
    assert again.reduced == red.reduced
    assert again.word.letters == ()
    data = json.loads(json.dumps(red.to_json_dict()))
    assert PeriodVector.from_json_dict(data["reduced"]) == red.reduced


@st.composite
def ruled_isometry_cases(draw):
    """A ruled cone point at l = 2..12 and two integer vectors of its rank."""
    p = draw(cone_periods(kinds=("ruled",), max_ruled=12))
    vector = st.lists(st.integers(-20, 20), min_size=p.model.rank, max_size=p.model.rank)
    return p, draw(vector), draw(vector)


@given(ruled_isometry_cases())
@settings(max_examples=100, deadline=None)
def test_ruled_computations_through_the_isometry_into_rational(case):
    # the ruled paths that hang on head = 2 (_pair_coeffs, _dual, the head
    # branch of _root_action) against the rational computation on the images
    # in rational l + 1; the cone is left out, since the coded ruled cone is
    # not the pullback of the rational one (the ruled cone defect)
    p, u, v = case
    gens = generator_set(p.model)
    images = _ruled_into_rational(p.model.blowups)

    def image(coeffs):
        return _lin(*zip(coeffs, images))

    assert pairing(image(u), image(v)) == pairing(
        HomologyClass(p.model, tuple(u)), HomologyClass(p.model, tuple(v))
    )
    roots = [image(c.coeffs) for c in gens.classes]
    for name, root in zip(gens.names, roots):
        action = lattice.root_action(root)
        for x in (u, p.coeffs):
            moved = reflect_coeffs(gens.root_action(name), x)
            assert image(moved).coeffs == reflect_coeffs(action, image(x).coeffs), name
    assert p.wall_periods() == tuple(pairing(image(p.coeffs), r) for r in roots)


def _reference_descent(p):
    """``reduce_periods``' walk, with every wall read from the table's roots.

    The scan order is the kernel's: bubble passes over s1..s_{l-1}, then the
    twist s_l (and a fresh pass), then s0; a wall is crossed, by
    ``reflect_coeffs`` over its root action, when its period is negative.
    """
    g = generator_set(p.model)
    actions = [g.root_action(n) for n in g.names]
    l = p.model.blowups
    c, letters = p.coeffs, []

    def period(i):
        return sum(c[j] * w for j, w in actions[i][0])

    def cross(i):
        nonlocal c
        c = reflect_coeffs(actions[i], c)
        letters.append(g.names[i])

    while True:
        swapped = True
        while swapped:
            swapped = False
            for i in range(1, l):
                if period(i) < 0:
                    cross(i)
                    swapped = True
        if period(l) < 0:
            cross(l)
            continue
        if period(0) >= 0:
            break
        cross(0)
    flags = tuple(n for i, n in enumerate(g.names) if period(i) == 0)
    return tuple(letters), PeriodVector(p.model, c, p.denominator), flags


@given(cone_periods())
@settings(max_examples=150, deadline=None)
def test_reduction_kernel_matches_the_reference_descent(p):
    # the kernel's closed forms (swap, negate the last slot, shift by s0)
    # against the same walk over the generator table's root actions
    red = reduce_periods(p)
    assert (red.word.letters, red.reduced, red.boundary_flags) == _reference_descent(p)


@pytest.mark.parametrize(
    "p",
    [
        rational_periods(5, 6, (3, 3, 3, 1, 1)),
        rational_periods(9, 20, (1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1)),
        ruled_periods(4, Fraction(1, 3), 9, (Fraction(2, 3), -1, 0, 1)),
    ],
)
def test_reduction_kernel_matches_the_reference_descent_on_fixtures(p):
    red = reduce_periods(p)
    assert "s0" in red.word.letters  # each fixture crosses s0 and other walls
    assert (red.word.letters, red.reduced, red.boundary_flags) == _reference_descent(p)


# Rational model only: the ruled cone the code accepts is not preserved by
# s0 (the ruled cone defect: ``positive_cone_contains`` tests section*fiber
# > sum(mu_i^2), not the square the reflections keep), so the ruled half
# stays out until that defect is settled.
@given(cone_periods(kinds=("rational",)))
@settings(max_examples=150, deadline=None)
def test_generators_preserve_the_rational_cone(p):
    g = generator_set(p.model)
    for name in g.names:
        image = reflect_coeffs(g.root_action(name), p.coeffs)
        assert positive_cone_contains(HomologyClass(p.model, image)), name


@st.composite
def moved_periods(draw):
    p = draw(cone_periods(kinds=("rational",)))
    names = [f"s{i}" for i in range(p.model.blowups + 1)]
    return p, draw(st.lists(st.sampled_from(names), max_size=8))


# Rational model only: the ruled cone the code accepts is not preserved by
# s0 (the ruled cone defect, see above), so a random word can leave it.
@given(moved_periods())
@settings(max_examples=150, deadline=None)
def test_reduction_is_orbit_canonical(case):
    p, letters = case
    g = generator_set(p.model)
    # the constructor refuses coefficients that are not in lowest terms
    moved = PeriodVector(
        p.model, GroupWord(tuple(letters)).apply_to_coeffs(g, p.coeffs), p.denominator
    )
    assert reduce_periods(moved).reduced == reduce_periods(p).reduced


# ---------------------------------------------------------------------------
# class reduction


def test_reduce_class_line_minus_two_exceptionals():
    g = generator_set(R3)
    red = reduce_class(g, HomologyClass(R3, (1, -1, -1, 0)))
    assert red.in_orbit
    assert red.word.letters == ("s0",)
    assert red.canonical == exceptional_class(R3, 3)
    assert red.stalled is None


def test_reduce_class_negated_exceptional():
    g = generator_set(R3)
    red = reduce_class(g, HomologyClass(R3, (0, 0, 0, -1)))
    assert red.in_orbit
    assert red.word.letters == ("s3",)
    assert red.canonical == exceptional_class(R3, 3)


def test_reduce_class_conic_through_five_points():
    g = generator_set(R5)
    c = HomologyClass(R5, (2, -1, -1, -1, -1, -1))
    red = reduce_class(g, c)
    assert red.in_orbit
    assert red.canonical == exceptional_class(R5, 5)
    assert red.word.apply_to_coeffs(g, c.coeffs) == red.canonical.coeffs


def test_reduce_class_detects_non_membership():
    model = rational_model(10)
    g = generator_set(model)
    c = HomologyClass(model, (3,) + (-1,) * 10)
    red = reduce_class(g, c)
    assert not red.in_orbit
    assert red.canonical is None
    assert red.word.letters == ()
    assert red.stalled == c  # already normalized, stalls in place


def test_reduce_class_ruled_fiber_multiples():
    g = generator_set(U2)
    c = HomologyClass(U2, (0, 2, 1, 0))  # first exceptional plus two fibers
    red = reduce_class(g, c)
    assert red.in_orbit
    assert red.canonical == exceptional_class(U2, 2)
    assert red.word.apply_to_coeffs(g, c.coeffs) == red.canonical.coeffs


def test_reduce_class_refuses_a_word_past_the_letter_cap(monkeypatch):
    monkeypatch.setattr(weyl, "WORD_LETTER_CAP", 10_000)
    # E1 + kF walks 6 letters per fiber; kL - kE1 - E2 about 3 per unit of k
    g = generator_set(U2)
    assert len(reduce_class(g, HomologyClass(U2, (0, 1000, 1, 0))).word) == 6001
    with pytest.raises(LatticeError, match="more than 10000 letters"):
        reduce_class(g, HomologyClass(U2, (0, 10_000, 1, 0)))
    g = generator_set(R3)
    assert len(reduce_class(g, HomologyClass(R3, (1000, -1000, -1, 0))).word) == 2998
    with pytest.raises(LatticeError, match="more than 10000 letters"):
        reduce_class(g, HomologyClass(R3, (10_000, -10_000, -1, 0)))


def test_reduce_class_walks_one_list_in_time_linear_in_l():
    # a copy of the class per letter took 2.6 s for E1 at l = 20000 and
    # 1.0 s for E1 + 50F at l = 1000 (200,899 letters)
    ruled = ruled_model(1000)
    for c in (
        exceptional_class(rational_model(20000), 1),
        HomologyClass(ruled, (0, 50, 1) + (0,) * 999),  # E1 + 50F
    ):
        g = generator_set(c.model)
        start = time.perf_counter()
        red = reduce_class(g, c)
        assert time.perf_counter() - start < 0.6
        assert red.canonical == exceptional_class(c.model, c.model.blowups)


def test_reduce_class_ruled_section_coefficient_obstructs():
    g = generator_set(U2)
    red = reduce_class(g, HomologyClass(U2, (1, 0, -1, 0)))
    assert not red.in_orbit
    assert red.word.letters == ()
    assert red.stalled == HomologyClass(U2, (1, 0, -1, 0))


def test_reduce_class_requires_square_minus_one():
    g = generator_set(R3)
    with pytest.raises(LatticeError, match="square -1"):
        reduce_class(g, HomologyClass(R3, (1, 0, 0, 0)))
    with pytest.raises(ModelMismatchError):
        reduce_class(g, HomologyClass(R5, (0, 1, 0, 0, 0, 0)))


SCRAMBLE_MODELS = [rational_model(l) for l in range(3, 12)] + [
    ruled_model(l) for l in range(2, 8)
]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reduce_class_recovers_scrambled_exceptionals(data):
    # both models over a range of ranks: rational l = 3..11, ruled l = 2..7
    model = data.draw(st.sampled_from(SCRAMBLE_MODELS))
    g = generator_set(model)
    letters = data.draw(st.lists(st.sampled_from(g.names), max_size=12))
    seed = exceptional_class(model, model.blowups)
    moved = HomologyClass(
        model, GroupWord(tuple(letters)).apply_to_coeffs(g, seed.coeffs)
    )
    red = reduce_class(g, moved)
    assert red.in_orbit
    assert red.canonical == seed
    assert red.word.apply_to_coeffs(g, moved.coeffs) == seed.coeffs


def test_class_reduction_json_shape():
    g = generator_set(R3)
    red = reduce_class(g, HomologyClass(R3, (1, -1, -1, 0)))
    data = red.to_json_dict()
    assert data["in_orbit"] is True
    assert data["word"] == ["s0"]
    assert "canonical" in data and "stalled" not in data


# ---------------------------------------------------------------------------
# Lagrangian systems on the walls


@pytest.mark.parametrize(
    "p,label,members",
    [
        (rational_periods(3, 3, (1, 1, 1)), "A2+A1", ("s0", "s1", "s2")),
        (rational_periods(5, 3, (1, 1, 1, 1, 1)), "D5", ("s0", "s1", "s2", "s3", "s4")),
        (
            rational_periods(6, 3, (1, 1, 1, 1, 1, 1)),
            "E6",
            ("s0", "s1", "s2", "s3", "s4", "s5"),
        ),
        (ruled_periods(2, 2, 5, (1, 1)), "A1+A1", ("s0", "s1")),
        (rational_periods(3, 7, (3, 2, 1)), "trivial", ()),
    ],
)
def test_lagrangian_system_labels(p, label, members):
    sys = lagrangian_system(p)
    assert sys.label == label
    assert sys.member_names == members
    for c in member_classes(sys):
        assert period_of(p, c) == 0


def test_lagrangian_system_requires_reduced_input():
    with pytest.raises(NotReducedError):
        lagrangian_system(rational_periods(3, 3, (1, 1, 2)))
    with pytest.raises(NotReducedError):
        lagrangian_system(rational_periods(3, 1, (1, 1, 1)))


@pytest.mark.parametrize(
    "p",
    [
        # squares 0 and -1: their zero walls s0..s8 would form the affine E9
        rational_periods(9, 6, (2,) * 9),
        rational_periods(10, 6, (2,) * 9 + (1,)),
        rational_periods(3, 0, (0, 0, 0)),  # the zero vector lies on every wall
        ruled_periods(2, 0, 0, (0, 0)),
    ],
)
def test_lagrangian_system_refuses_vectors_outside_the_cone(p):
    assert p.satisfies_period_conditions()
    with pytest.raises(OutsideConeError, match="is not in the open positive cone"):
        lagrangian_system(p)
    with pytest.raises(OutsideConeError, match="is not in the open positive cone"):
        reduce_periods(p)


def test_lagrangian_system_member_graph_matches_the_dense_pairing(monkeypatch):
    # the member graph, read off the presentation graph, against the dense
    # pairing of the member classes, up to l = 40 (an A39).  The dense
    # pairing of rank-(l+1) classes made l = 1000 take about 30 s, so
    # lagrangian_system must not call it (weyl no longer imports pairing,
    # hence raising=False)
    def unused(*args):
        raise AssertionError("lagrangian_system called the dense pairing")

    monkeypatch.setattr(weyl, "pairing", unused, raising=False)
    cases = [
        rational_periods(5, 3, (1, 1, 1, 1, 1)),
        rational_periods(6, 3, (1,) * 6),
        ruled_periods(4, 2, 7, (1, 1, 1, 1)),
        ruled_periods(40, 2, 21, (1,) * 40),
        rational_periods(40, 120, (1,) * 40),
    ]
    for p in cases:
        sys = lagrangian_system(p)
        members = list(zip(sys.member_names, member_classes(sys)))
        for i, (na, ca) in enumerate(members):
            for nb, cb in members[i + 1 :]:
                assert (sys.system.order(na, nb) == 3) == (pairing(ca, cb) != 0), (na, nb)
    assert sys.label == "A39"


def test_lagrangian_system_pairs_members_on_their_root_slots(monkeypatch):
    # the members come from the sparse wall-root table: no rank-length
    # difference of classes and no dense root action
    def unused(*args):
        raise AssertionError("lagrangian_system built a dense wall class")

    monkeypatch.setattr(lattice, "root_action", unused)
    monkeypatch.setattr(weyl, "_root_action", unused)
    assert lagrangian_system(rational_periods(40, 120, (1,) * 40)).label == "A39"
    assert lagrangian_system(ruled_periods(40, 2, 21, (1,) * 40)).label == "D40"


def _member_graph(sys: LagrangianSystem) -> CoxeterSystem:
    """The members' graph from their roots' pairings: two square -2 roots
    pairing to -1 or 1 generate order 3, orthogonal ones order 2; any other
    pairing fails."""
    classes = member_classes(sys)
    pairs = {}
    for a, b in itertools.combinations(range(len(classes)), 2):
        val = pairing(classes[a], classes[b])
        assert val in (-1, 0, 1), (sys.member_names[a], sys.member_names[b], val)
        if val:
            pairs[a, b] = 3
    return CoxeterSystem(sys.member_names, pairs)


@given(cone_periods())
@settings(max_examples=150, deadline=None)
def test_lagrangian_system_graph_is_the_member_roots_graph(p):
    # the presentation's graph on the zero walls against the members' own
    # pairings, on reduced vectors of both models, fractional ones too
    reduced = reduce_periods(p).reduced
    sys = lagrangian_system(reduced)
    gens = generator_set(p.model)
    assert member_classes(sys) == tuple(class_of(gens, n) for n in sys.member_names)
    assert all(period_of(reduced, c) == 0 for c in member_classes(sys))
    assert sys.system == _member_graph(sys)


def test_lagrangian_system_json_shape():
    sys = lagrangian_system(rational_periods(3, 3, (1, 1, 1)))
    data = sys.to_json_dict()
    assert data["label"] == "A2+A1"
    assert data["components"] == ["A2", "A1"]
    assert {m["name"] for m in data["members"]} == {"s0", "s1", "s2"}


def test_membership_small_blowups():
    assert (
        maximal_system_membership(
            lagrangian_system(rational_periods(3, 3, (1, 1, 1)))
        ).container_label
        == "E3"
    )
    assert (
        maximal_system_membership(
            lagrangian_system(rational_periods(5, 3, (1, 1, 1, 1, 1)))
        ).container_label
        == "E5"
    )
    assert (
        maximal_system_membership(
            lagrangian_system(ruled_periods(2, 2, 5, (1, 1)))
        ).container_label
        == "D2"
    )


def test_membership_many_blowups_scans_for_the_missing_wall():
    sys = lagrangian_system(rational_periods(10, 10, (2,) * 9 + (1,)))
    assert sys.label == "A8"
    memb = maximal_system_membership(sys)
    assert memb.container_label == "A9"
    assert memb.container_names == tuple(f"s{i}" for i in range(1, 10))

    sys = lagrangian_system(rational_periods(10, 5, (3,) + (1,) * 9))
    assert sys.label == "D9"
    memb = maximal_system_membership(sys)
    assert memb.container_label == "D9"
    assert "s1" not in memb.container_names


# maximal_system_membership's names for the small members of its families,
# spelled as the classifier's components
_SMALL_CONTAINERS = {"E3": "A2+A1", "E4": "A4", "E5": "D5", "D2": "A1+A1", "D3": "A3"}


@pytest.mark.parametrize(
    "model",
    [rational_model(l) for l in range(3, 41)] + [ruled_model(l) for l in range(2, 41)],
    ids=str,
)
def test_every_container_classifies_to_its_label(model):
    # the wall graph on s0..s_{l-1} by the dense pairing of their classes
    l = model.blowups
    gens = generator_set(model)
    classes = [class_of(gens, f"s{i}") for i in range(l)]
    edges = [e for e in itertools.combinations(range(l), 2) if pairing(*(classes[i] for i in e))]
    # the container depends only on the first wall of s0..s8 that is absent
    missing = range(9) if model.kind is Kind.RATIONAL and l >= 9 else (None,)
    for k in missing:
        present = tuple(f"s{i}" for i in range(l) if i != k)
        system = LagrangianSystem(model, present, member_roots=(), system=None, components=())
        memb = maximal_system_membership(system)
        slot = {int(name[1:]): a for a, name in enumerate(memb.container_names)}
        pairs = {(slot[i], slot[j]): 3 for i, j in edges if i in slot and j in slot}
        types = component_types(CoxeterSystem(memb.container_names, pairs))
        parts = memb.container_label.split("+")
        want = [t for part in parts for t in _SMALL_CONTAINERS.get(part, part).split("+")]
        assert types is not None and sorted(types) == sorted(want), (k, memb)
