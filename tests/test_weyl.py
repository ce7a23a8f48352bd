"""Weyl-group machinery: generators, orbits, reductions, wall systems."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruled_lattice.lattice import (
    HomologyClass,
    LatticeError,
    ModelMismatchError,
    exceptional_class,
    rational_model,
    ruled_model,
)
from ruled_lattice.weyl import (
    GroupWord,
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

R3 = rational_model(3)
R5 = rational_model(5)
U2 = ruled_model(2, 1)


# ---------------------------------------------------------------------------
# generator sets and presentations


def test_generator_names_and_classes():
    g = generator_set(R3)
    assert g.names == ("s0", "s1", "s2", "s3")
    assert g.class_of("s0").coeffs == (1, -1, -1, -1)
    assert g.class_of("s1").coeffs == (0, 1, -1, 0)
    assert g.class_of("s3").coeffs == (0, 0, 0, 1)

    g = generator_set(U2)
    assert g.names == ("s0", "s1", "s2")
    assert g.class_of("s0").coeffs == (0, 1, -1, -1)
    assert g.class_of("s1").coeffs == (0, 0, 1, -1)
    assert g.class_of("s2").coeffs == (0, 0, 0, 1)


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
    with pytest.raises(LatticeError):
        generator_set(rational_model(2))
    with pytest.raises(LatticeError):
        generator_set(ruled_model(1, 1))


@pytest.mark.parametrize("l", [3, 4, 5])
def test_rational_presentation_matches_graph(l):
    report = verify_presentation(generator_set(rational_model(l)))
    assert report.ok
    assert all(e.ok for e in report.entries)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_ruled_presentation_matches_graph(l):
    report = verify_presentation(generator_set(ruled_model(l, 1)))
    assert report.ok


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
    both = w1 + w2
    assert both.letters == ("s1", "s2", "s3")
    coeffs = (0, 1, 0, 0)
    step = w2.apply_to_coeffs(g, w1.apply_to_coeffs(g, coeffs))
    assert both.apply_to_coeffs(g, coeffs) == step


def test_word_matches_matrix_evaluation():
    g = generator_set(U2)
    w = GroupWord(("s0", "s1", "s2", "s0"))
    m = w.evaluate(g)
    coeffs = (0, 1, -1, 2)
    assert w.apply_to_coeffs(g, coeffs) == m.apply_coeffs(coeffs)


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


# ---------------------------------------------------------------------------
# period vectors


def test_period_vector_validation():
    with pytest.raises(LatticeError):
        rational_periods(3, 3, (1, 1))  # wrong count
    with pytest.raises(LatticeError):
        rational_periods(3, 1.5, (1, 1, 1))  # floats are ambiguous
    with pytest.raises(LatticeError):
        rational_periods(3, True, (1, 1, 1))
    with pytest.raises(LatticeError):
        PeriodVector(U2, (Fraction(1), Fraction(1)), line=Fraction(3))
    with pytest.raises(LatticeError):
        PeriodVector(U2, (Fraction(1), Fraction(1)), fiber=Fraction(2))


def test_period_zero_denominator_is_refused():
    with pytest.raises(LatticeError, match="zero denominator"):
        rational_periods(3, "1/0", [1, 1, 1])


def test_period_vector_heads_and_duals():
    p = rational_periods(3, 3, (1, 1, 1))
    assert p.head == (3,)
    assert p.dual_coefficients() == (3, -1, -1, -1)
    assert str(p) == "(3; 1,1,1)"

    q = ruled_periods(2, 2, Fraction(9, 2), (1, 1))
    assert q.head == (2, Fraction(9, 2))
    assert q.dual_coefficients() == (2, Fraction(9, 2), -1, -1)
    assert str(q) == "(2, 9/2; 1,1)"


def test_period_vector_dual_round_trip():
    p = ruled_periods(3, 2, 9, (Fraction(3, 2), 1, 1))
    assert PeriodVector.from_dual_coefficients(p.model, p.dual_coefficients()) == p


def test_period_of_basis_classes():
    p = rational_periods(3, 7, (3, 2, 1))
    assert p.period_of(HomologyClass(R3, (1, 0, 0, 0))) == 7
    assert p.period_of(exceptional_class(R3, 1)) == 3
    assert p.period_of(HomologyClass(R3, (1, -1, -1, -1))) == 1
    with pytest.raises(ModelMismatchError):
        p.period_of(exceptional_class(R5, 1))


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
def cone_periods(draw):
    lam = draw(st.integers(min_value=1, max_value=30))
    mus = draw(
        st.lists(st.integers(min_value=-10, max_value=10), min_size=4, max_size=4)
    )
    if sum(m * m for m in mus) >= lam * lam:
        mus = [0, 0, 0, 0]
    return rational_periods(4, lam, mus)


@given(cone_periods())
@settings(max_examples=150, deadline=None)
def test_reduction_properties(p):
    red = reduce_periods(p)
    assert red.reduced.satisfies_period_conditions()
    g = generator_set(p.model)
    assert (
        red.word.apply_to_coeffs(g, p.dual_coefficients())
        == red.reduced.dual_coefficients()
    )
    again = reduce_periods(red.reduced)
    assert again.reduced == red.reduced
    assert again.word.letters == ()


@given(
    cone_periods(),
    st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "s4"]), max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_reduction_is_orbit_canonical(p, letters):
    g = generator_set(p.model)
    moved = PeriodVector.from_dual_coefficients(
        p.model, GroupWord(tuple(letters)).apply_to_coeffs(g, p.dual_coefficients())
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


@given(st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "s4"]), max_size=12))
@settings(max_examples=150, deadline=None)
def test_reduce_class_recovers_scrambled_exceptionals(letters):
    model = rational_model(4)
    g = generator_set(model)
    seed = exceptional_class(model, 4)
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
    for c in sys.member_classes:
        assert p.period_of(c) == 0


def test_lagrangian_system_requires_reduced_input():
    with pytest.raises(NotReducedError):
        lagrangian_system(rational_periods(3, 3, (1, 1, 2)))
    with pytest.raises(NotReducedError):
        lagrangian_system(rational_periods(3, 1, (1, 1, 1)))


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
