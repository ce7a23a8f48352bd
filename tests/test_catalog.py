"""Diffeotopy catalog: structure trees, small cases, rank-3 decompositions."""

import random

import pytest

from ruled_lattice import catalog, coxeter, weyl
from ruled_lattice.base import InternalConsistencyError
from ruled_lattice.catalog import (
    SMALL_CASE_LABELS,
    BlackBox,
    CatalogError,
    CoxeterGroup,
    Cyclic,
    DirectSum,
    FreeAbelian,
    Semidirect,
    decompose_O12,
    describe_diffeotopy,
    evaluate_o12_word,
    homotopically_trivial_part,
    o12_model,
    O12_GENERATOR_NAMES,
)
from ruled_lattice.lattice import (
    HomologyClass,
    LatticeAutomorphism,
    rational_model,
    ruled_model,
)
from ruled_lattice.weyl import GroupWord
from test_lattice import reflection_along


# ---------------------------------------------------------------------------
# structure nodes


def test_node_renders():
    assert Cyclic(2).render() == "Z2"
    assert Cyclic(6).render() == "Z6"
    assert FreeAbelian(1).render() == "Z"
    assert FreeAbelian(3).render() == "Z^3"
    assert DirectSum((Cyclic(2), FreeAbelian(1))).render() == "(Z2 x Z)"
    assert Semidirect(normal=FreeAbelian(1), acting=Cyclic(2)).render() == "(Z : Z2)"
    assert BlackBox("opaque").render() == "<opaque>"


def test_node_json_shapes():
    assert Cyclic(2).to_json_dict() == {"kind": "cyclic", "order": 2}
    assert FreeAbelian(2).to_json_dict() == {"kind": "free_abelian", "rank": 2}
    assert BlackBox("opaque").to_json_dict() == {"kind": "black_box", "label": "opaque"}
    data = Semidirect(
        normal=DirectSum((Cyclic(2), Cyclic(2))), acting=Cyclic(2)
    ).to_json_dict()
    assert list(data) == ["kind", "normal", "acting"]  # kind, then field order
    assert data["kind"] == "semidirect"
    assert data["normal"] == {"kind": "direct_sum", "parts": [Cyclic(2).to_json_dict()] * 2}
    assert data["acting"] == {"kind": "cyclic", "order": 2}
    system = coxeter.from_name("L3-4-INF")
    assert CoxeterGroup(system).to_json_dict() == {
        "kind": "coxeter",
        "system": system.to_json_dict(),
    }


# ---------------------------------------------------------------------------
# small cases


GOLDEN_RENDERS = {
    "CP2": "Z2",
    "S2xS2": "((Z2 x Z2) : Z2)",
    "twisted-S2xS2": "((Z2 x Z2) : Z2)",
    "YxS2": "(Z2 x Z2)",
    "twisted-YxS2": "(Z2 x Z2)",
    "blownup-S2xS2": "W(L3-4-INF)",
    "blownup-YxS2": "(Z : Z2)",
}


@pytest.mark.parametrize("label", SMALL_CASE_LABELS)
def test_small_case_golden_renders(label):
    d = describe_diffeotopy(label)
    assert d.structure.render() == GOLDEN_RENDERS[label]
    assert d.notes  # every small case says where its pieces come from
    data = d.to_json_dict()
    assert data["rendered"] == GOLDEN_RENDERS[label]
    assert set(data) == {"name", "structure", "rendered", "notes"}


def test_the_small_case_table_has_one_entry_per_label():
    assert tuple(catalog._SMALL_CASES) == SMALL_CASE_LABELS
    assert set(catalog._ALIASES.values()) == set(SMALL_CASE_LABELS)
    assert set(catalog._SMALL_MODELS.values()) <= set(SMALL_CASE_LABELS)
    for label in SMALL_CASE_LABELS:
        assert describe_diffeotopy(label.lower()) == describe_diffeotopy(label)


def test_label_aliases():
    assert (
        describe_diffeotopy("s2~s2").name
        == describe_diffeotopy("twisted-S2xS2").name
    )
    assert describe_diffeotopy(" CP^2 ").structure.render() == "Z2"
    assert describe_diffeotopy("YXS2").name == describe_diffeotopy("YxS2").name


def test_unknown_labels_are_listed():
    with pytest.raises(CatalogError, match="CP2"):
        describe_diffeotopy("K3")
    with pytest.raises(CatalogError):
        describe_diffeotopy(42)


def test_small_blowup_models_resolve_to_small_cases():
    assert describe_diffeotopy(rational_model(0)).structure.render() == "Z2"
    assert (
        describe_diffeotopy(rational_model(1)).name
        == describe_diffeotopy("twisted-S2xS2").name
    )
    assert (
        describe_diffeotopy(rational_model(2)).structure.render() == "W(L3-4-INF)"
    )
    assert (
        describe_diffeotopy(ruled_model(0, 1)).name
        == describe_diffeotopy("YxS2").name
    )
    assert (
        describe_diffeotopy(ruled_model(1, 3)).structure.render() == "(Z : Z2)"
    )


# ---------------------------------------------------------------------------
# general models


@pytest.mark.parametrize("l", [3, 5, 9])
def test_rational_description_is_the_weyl_group(l):
    d = describe_diffeotopy(rational_model(l))
    want = "W(L4-3-4-4)" if l == 3 else f"W(BE{l + 1})"
    assert d.structure.render() == want
    assert isinstance(d.structure, CoxeterGroup)
    assert len(d.notes) == 2


def test_ruled_description_nests_three_levels():
    d = describe_diffeotopy(ruled_model(3, 1))
    assert d.structure.render() == (
        "(((<homotopically trivial classes with zero obstruction>"
        " : (Z2 x Z2))"
        " : <marked mapping classes of the base: extension of the base"
        " mapping-class group, kernel Z^4 (2 copies of H1 of the base)>)"
        " : W(BD4))"
    )
    assert len(d.notes) == 4
    outer = d.structure
    assert isinstance(outer, Semidirect)
    assert isinstance(outer.acting, CoxeterGroup)
    assert isinstance(outer.normal, Semidirect)


def test_ruled_description_tracks_genus():
    render = describe_diffeotopy(ruled_model(2, 2)).structure.render()
    assert "(Z2 x Z2 x Z2 x Z2)" in render  # one Z2 per H1 generator
    assert "W(L3-4-4)" in render


def test_homotopically_trivial_part():
    flat = homotopically_trivial_part(0)
    assert isinstance(flat.structure, BlackBox)
    rich = homotopically_trivial_part(2)
    assert isinstance(rich.structure, Semidirect)
    assert rich.structure.acting.render() == "(Z2 x Z2 x Z2 x Z2)"


# ---------------------------------------------------------------------------
# rank-3 decomposition


def test_o12_generators_are_involutions():
    gens = catalog._o12_gens().automorphisms
    assert set(gens) == set(O12_GENERATOR_NAMES)
    ident = LatticeAutomorphism.identity(o12_model())
    for g in gens.values():
        assert g @ g == ident


def test_o12_generators_are_the_three_reflections():
    model = o12_model()
    mirrors = {"s1": (0, 1, -1), "s2": (0, 0, 1), "s0*": (1, -1, -1)}
    expected = {n: reflection_along(HomologyClass(model, c)) for n, c in mirrors.items()}
    assert catalog._o12_gens().automorphisms == expected
    assert evaluate_o12_word(GroupWord(("s0*",))) == expected["s0*"]


def test_decompose_identity_is_empty():
    ident = LatticeAutomorphism.identity(o12_model())
    assert decompose_O12(ident).letters == ()


def test_decompose_single_generators():
    gens = catalog._o12_gens().automorphisms
    for name, g in gens.items():
        word = decompose_O12(g)
        assert evaluate_o12_word(word) == g


def random_o12_word(length: int, rng: random.Random) -> GroupWord:
    return GroupWord(tuple(rng.choice(O12_GENERATOR_NAMES) for _ in range(length)))


def test_decompose_random_round_trips():
    rng = random.Random(0)
    for _ in range(100):
        word = random_o12_word(rng.randrange(0, 31), rng)
        target = evaluate_o12_word(word)
        recovered = decompose_O12(target)
        assert set(recovered.letters) <= set(O12_GENERATOR_NAMES)
        assert evaluate_o12_word(recovered) == target


def _dense_descent(m: LatticeAutomorphism) -> tuple[str, ...]:
    """The descent of ``decompose_O12`` over dense products, ``g @ current``
    per letter, with the residual looked up by its whole matrix: the
    reference the root-action descent must match letter for letter."""
    gens = catalog._o12_gens().automorphisms
    spelled = ("", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1", "s2 s1 s2", "s1 s2 s1 s2")
    residuals = {evaluate_o12_word(GroupWord(w.split())).matrix: tuple(w.split()) for w in spelled}
    current, descent = m, []

    def push(*names):
        nonlocal current
        for name in names:
            current = gens[name] @ current
            descent.append(name)

    while current.matrix[0][0] != 1:
        if current.matrix[1][0] > 0:
            push("s1", "s2", "s1")
        if current.matrix[2][0] > 0:
            push("s2")
        if -current.matrix[1][0] < -current.matrix[2][0]:
            push("s1")
        push("s0*")
    return residuals[current.matrix] + tuple(reversed(descent))


def test_decompose_matches_the_dense_descent():
    rng = random.Random(22)
    targets = [evaluate_o12_word(random_o12_word(rng.randrange(0, 41), rng)) for _ in range(200)]
    targets += [_s2_s0star_power(n) for n in range(1, 51)]
    for target in targets:
        assert decompose_O12(target).letters == _dense_descent(target)
    assert decompose_O12(_s2_s0star_power(50)).letters == ("s2", "s0*") * 50


def test_decompose_rejects_bad_inputs():
    with pytest.raises(CatalogError, match="rank-3"):
        decompose_O12(LatticeAutomorphism.identity(rational_model(3)))
    shear = LatticeAutomorphism(o12_model(), ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    with pytest.raises(CatalogError, match="intersection form"):
        decompose_O12(shear)
    negate = LatticeAutomorphism(
        o12_model(), ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    )
    with pytest.raises(CatalogError, match="positive cone"):
        decompose_O12(negate)


def _s2_s0star_power(n: int) -> LatticeAutomorphism:
    """(s2 s0*)^n in closed form: its word has 2n letters, its entries 2n^2."""
    a, b = 2 * n * n, 2 * n
    return LatticeAutomorphism(o12_model(), ((a + 1, a, -b), (-a, 1 - a, b), (-b, -b, 1)))


def test_decompose_refuses_a_descent_past_the_letter_cap(monkeypatch):
    monkeypatch.setattr(weyl, "WORD_LETTER_CAP", 100)
    word = decompose_O12(_s2_s0star_power(50))
    assert word.letters == ("s2", "s0*") * 50
    with pytest.raises(CatalogError, match="descent reached more than 100 letters"):
        decompose_O12(_s2_s0star_power(51))


def test_decompose_reports_an_impossible_residual_as_internal(capsys, monkeypatch):
    # a validated input always ends on a signed permutation, so a missing
    # residual is a bug: exit 3, not a refusal of the input
    from ruled_lattice.cli import EXIT_INTERNAL, main

    monkeypatch.setattr(catalog, "_o12_residual_table", lambda: {})
    with pytest.raises(InternalConsistencyError, match="not a signed permutation"):
        decompose_O12(_s2_s0star_power(2))
    assert main(["decompose-o12", "--matrix=9,4,8;-4,-1,-4;8,4,7"]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert (out, err) == (
        "",
        "internal consistency failure: residual automorphism is not a signed permutation\n",
    )


def test_evaluate_rejects_unknown_letters():
    with pytest.raises(CatalogError, match="unknown generator"):
        evaluate_o12_word(GroupWord(("s1", "s9")))
