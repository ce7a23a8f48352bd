"""Models, classes, the pairing, reflections and the positive cone."""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruled_lattice.lattice import (
    HomologyClass,
    Kind,
    LatticeAutomorphism,
    LatticeError,
    ManifoldModel,
    ModelMismatchError,
    UnsupportedReflectionError,
    _reflection_matrix,
    exceptional_class,
    pairing,
    positive_cone_contains,
    rational_model,
    reflect_coeffs,
    root_action,
    ruled_model,
)

R3 = rational_model(3)
U2 = ruled_model(2)


def _cls(model, *coeffs):
    return HomologyClass(model, coeffs)


def reflection_along(s):
    """The reflection along s as a dense matrix, read off its root action:
    the library keeps this route only for ``GeneratorSet.automorphisms``."""
    return _reflection_matrix(s.model, root_action(s))


def apply(m, c):
    """The image of the class c under the automorphism m."""
    return HomologyClass(m.model, m.apply_coeffs(c.coeffs))


def _extra_wall(model):
    """L - E1 - E2 - E3, resp. F - E1 - E2, written out."""
    if model.kind is Kind.RATIONAL:
        return HomologyClass(model, (1, -1, -1, -1) + (0,) * (model.blowups - 3))
    return HomologyClass(model, (0, 1, -1, -1) + (0,) * (model.blowups - 2))


def _reference_gram(model):
    """The dense Gram matrix, written out from the basis names: L.L = 1,
    Y.F = F.Y = 1, E_i.E_i = -1 and 0 elsewhere."""
    names = model.basis_names
    squares = {("L", "L"): 1, ("Y", "F"): 1, ("F", "Y"): 1}
    return tuple(
        tuple(-1 if a == b and a[0] == "E" else squares.get((a, b), 0) for b in names)
        for a in names
    )


def _pairing_table(model):
    """The library's pairing of every two basis classes."""
    n = model.rank
    units = [HomologyClass(model, tuple(int(i == j) for j in range(n))) for i in range(n)]
    return tuple(tuple(pairing(a, b) for b in units) for a in units)


def _adjacent_difference(model, i):
    """E_i - E_{i+1}, written out."""
    before = model.head + i - 1
    return HomologyClass(model, (0,) * before + (1, -1) + (0,) * (model.rank - before - 2))


# ---------------------------------------------------------------------------
# models


def test_model_shapes():
    assert R3.rank == 4
    assert R3.basis_names == ("L", "E1", "E2", "E3")
    assert U2.rank == 4
    assert U2.basis_names == ("Y", "F", "E1", "E2")
    assert ruled_model(0, genus=3).rank == 2


def test_model_validation():
    with pytest.raises(LatticeError):
        rational_model(-1)
    with pytest.raises(LatticeError):
        ManifoldModel(Kind.RATIONAL, 2, genus=1)
    with pytest.raises(LatticeError):
        ruled_model(2, genus=0)
    with pytest.raises(LatticeError):
        ManifoldModel("rational", 2)  # type: ignore[arg-type]
    # the rank indexes every basis and matrix, so it must fit an index
    largest = (rational_model(sys.maxsize - 1), ruled_model(sys.maxsize - 2))
    assert [model.rank for model in largest] == [sys.maxsize] * 2
    for model, blowups in ((rational_model, sys.maxsize), (ruled_model, sys.maxsize - 1)):
        with pytest.raises(LatticeError, match=f"^blowups must be at most {blowups - 1}$"):
            model(blowups)
    with pytest.raises(LatticeError, match="^blowups must be at most "):
        ManifoldModel.from_json_dict({"kind": "ruled", "blowups": 10**30})


def test_gram_is_an_involution():
    for model in (rational_model(5), ruled_model(4, genus=2)):
        g = _reference_gram(model)
        n = model.rank
        assert g == _pairing_table(model)
        squared = [
            [sum(g[i][k] * g[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert squared == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("kind", list(Kind))
def test_head_is_the_one_basis_layout(kind):
    for l in range(12):
        model = ManifoldModel(kind, l, 0 if kind is Kind.RATIONAL else 1)
        h = model.head
        assert model.rank == h + l
        assert model.basis_names[:h] == (("L",) if h == 1 else ("Y", "F"))
        assert model.basis_names[h:] == tuple(f"E{i}" for i in range(1, l + 1))
        g = _pairing_table(model)
        # the head block is L.L = 1 resp. Y.F = 1; every E_i squares to -1
        assert [row[:h] for row in g[:h]] == ([(1,)] if h == 1 else [(0, 1), (1, 0)])
        assert g == tuple(
            tuple(g[i][j] if i < h and j < h else -int(i == j) for j in range(h + l))
            for i in range(h + l)
        )
        for i in range(1, l + 1):
            assert model.exceptional_index(i) == h + i - 1
            assert model.basis_names[model.exceptional_index(i)] == f"E{i}"


def test_model_json_round_trip():
    for model in (R3, ruled_model(4, genus=2)):
        assert ManifoldModel.from_json_dict(model.to_json_dict()) == model
    # a payload without a genus gets its kind's default, as the flags do
    assert ManifoldModel.from_json_dict({"kind": "ruled", "blowups": 3}) == ruled_model(3)
    assert ManifoldModel.from_json_dict({"kind": "rational", "blowups": 3}) == R3
    with pytest.raises(LatticeError):
        ManifoldModel.from_json_dict({"kind": "elliptic", "blowups": 1})


# ---------------------------------------------------------------------------
# classes and the pairing


def test_basis_squares_and_pairings():
    line, section, fiber = _cls(R3, 1, 0, 0, 0), _cls(U2, 1, 0, 0, 0), _cls(U2, 0, 1, 0, 0)
    assert line.square == 1
    assert exceptional_class(R3, 1).square == -1
    assert section.square == 0
    assert fiber.square == 0
    assert pairing(section, fiber) == 1
    assert pairing(exceptional_class(R3, 1), exceptional_class(R3, 2)) == 0
    with pytest.raises(ModelMismatchError):
        pairing(line, section)


def test_named_classes():
    assert _cls(R3, 1, -1, -1, -1).square == -2  # L - E1 - E2 - E3
    assert _cls(U2, 0, 1, -1, -1).square == -2  # F - E1 - E2
    assert _cls(R3, 0, 0, 1, -1).square == -2  # E2 - E3
    assert _adjacent_difference(U2, 1) == _cls(U2, 0, 0, 1, -1)
    # the anticanonical class 3L - sum(E_i) squares to 9 - blowups
    assert _cls(R3, 3, -1, -1, -1).square == 9 - 3
    assert HomologyClass(rational_model(9), (3,) + (-1,) * 9).square == 0


def test_named_class_guards():
    with pytest.raises(LatticeError):
        exceptional_class(R3, 4)
    with pytest.raises(LatticeError):
        exceptional_class(U2, 0)


def test_class_validation_and_rendering():
    with pytest.raises(LatticeError):
        _cls(R3, 1, 0, 0)  # wrong length
    with pytest.raises(LatticeError):
        _cls(R3, 1, 0, 0, 0.5)  # type: ignore[arg-type]
    with pytest.raises(LatticeError):
        _cls(R3, 1, 0, 0, True)  # type: ignore[arg-type]
    assert str(_cls(R3, 2, -1, 0, 3)) == "2L - E1 + 3E3"
    assert str(_cls(R3, 0, 0, 0, 0)) == "0"
    assert str(_cls(U2, -1, 1, 0, 0)) == "-Y + F"


def test_class_json_round_trip():
    c = _cls(U2, 3, -2, 1, 0)
    assert HomologyClass.from_json_dict(c.to_json_dict()) == c
    with pytest.raises(LatticeError):
        HomologyClass.from_json_dict({"model": R3.to_json_dict(), "coeffs": "nope"})


# ---------------------------------------------------------------------------
# reflections


def test_wall_reflection_fixture():
    # reflecting along L - E1 - E2 - E3 sends L to 2L - E1 - E2 - E3
    r = reflection_along(_cls(R3, 1, -1, -1, -1))
    assert apply(r, _cls(R3, 1, 0, 0, 0)).coeffs == (2, -1, -1, -1)
    assert apply(r, exceptional_class(R3, 1)).coeffs == (1, 0, -1, -1)


def test_twist_fixture():
    # the square -1 twist negates its own class and fixes its complement
    t = reflection_along(exceptional_class(R3, 2))
    assert apply(t, exceptional_class(R3, 2)).coeffs == (0, 0, -1, 0)
    assert apply(t, exceptional_class(R3, 1)) == exceptional_class(R3, 1)
    assert apply(t, _cls(R3, 1, 0, 0, 0)) == _cls(R3, 1, 0, 0, 0)


def test_reflection_rejects_other_squares():
    with pytest.raises(UnsupportedReflectionError):
        root_action(_cls(R3, 1, 0, 0, 0))  # square +1
    with pytest.raises(UnsupportedReflectionError):
        root_action(_cls(U2, 0, 1, 0, 0))  # square 0
    with pytest.raises(UnsupportedReflectionError):
        root_action(_cls(rational_model(4), 1, -1, -1, -1, -1))  # square -3


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def model_and_classes(draw, count):
    if draw(st.booleans()):
        model = rational_model(draw(st.integers(min_value=3, max_value=6)))
    else:
        model = ruled_model(draw(st.integers(min_value=2, max_value=5)))
    out = [
        HomologyClass(model, tuple(draw(small_ints) for _ in range(model.rank)))
        for _ in range(count)
    ]
    return (model, *out)


@given(model_and_classes(2))
def test_pairing_is_symmetric_and_bilinear(data):
    model, a, b = data
    assert pairing(a, b) == pairing(b, a)
    total = HomologyClass(model, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    assert total.square == a.square + 2 * pairing(a, b) + b.square
    # the dense Gram matrix, a second route to the form
    gram = _reference_gram(model)
    assert pairing(a, b) == sum(
        x * gram[i][j] * y
        for i, x in enumerate(a.coeffs)
        for j, y in enumerate(b.coeffs)
    )


@given(model_and_classes(2))
def test_reflections_preserve_the_form(data):
    model, a, b = data
    for mirror in (exceptional_class(model, 1), _extra_wall(model)):
        r = reflection_along(mirror)
        assert pairing(apply(r, a), apply(r, b)) == pairing(a, b)
        assert (r @ r).matrix == LatticeAutomorphism.identity(model).matrix


def _random_mirrors(model, rng, count):
    """Square -1 and -2 classes: a simple mirror moved by random reflection
    matrices along the simple mirrors."""
    simple = [exceptional_class(model, i) for i in range(1, model.blowups + 1)]
    simple += [_adjacent_difference(model, i) for i in range(1, model.blowups)]
    simple.append(_extra_wall(model))
    for _ in range(count):
        m = rng.choice(simple)
        for _ in range(rng.randrange(8)):
            m = apply(reflection_along(rng.choice(simple)), m)
        yield m


def _gram_row_reflection(s):
    """Reference matrix of the reflection along s, from the dense Gram rows:
    entry (i, j) is delta_ij + coef * s_i * (G s)_j, with coef 1 for square
    -2 and 2 for square -1.  The library reads its matrix off root_action
    instead, so this is a second route to both."""
    coef = {-2: 1, -1: 2}[s.square]
    n = s.model.rank
    gs = [sum(g * c for g, c in zip(row, s.coeffs)) for row in _reference_gram(s.model)]
    return tuple(
        tuple(int(i == j) + coef * s.coeffs[i] * gs[j] for j in range(n))
        for i in range(n)
    )


def test_root_action_matches_the_reflection_matrix():
    rng = random.Random(10)
    models = [rational_model(l) for l in range(3, 12)]
    models += [ruled_model(l) for l in range(2, 8)]
    squares = set()
    for model in models:
        for m in _random_mirrors(model, rng, 12):
            squares.add((model.kind, m.square))
            action = root_action(m)
            want = LatticeAutomorphism(model, _gram_row_reflection(m))
            assert reflection_along(m) == want
            for _ in range(4):
                t = _cls(model, *(rng.randint(-9, 9) for _ in range(model.rank)))
                assert reflect_coeffs(action, t.coeffs) == want.apply_coeffs(t.coeffs)
    assert squares == {(k, sq) for k in Kind for sq in (-1, -2)}


# ---------------------------------------------------------------------------
# automorphisms


def test_composition_applies_right_factor_first():
    t1 = reflection_along(exceptional_class(R3, 1))
    s1 = reflection_along(_cls(R3, 0, 1, -1, 0))
    e1 = exceptional_class(R3, 1)
    # (s1 @ t1) does the twist first: E1 -> -E1 -> -E2
    assert apply(s1 @ t1, e1).coeffs == (0, 0, -1, 0)
    assert apply(t1 @ s1, e1).coeffs == (0, 0, 1, 0)


def test_cone_preservation_flag():
    ident = LatticeAutomorphism.identity(R3)
    assert ident.is_cone_preserving()
    minus = LatticeAutomorphism(R3, tuple(tuple(-x for x in row) for row in ident.matrix))
    assert minus.preserves_form()
    assert not minus.is_cone_preserving()


def test_derived_matrices_equal_the_checked_constructor():
    # identity, products and reflection matrices skip the constructor's
    # checks; each equals what the constructor builds from its entries
    m = reflection_along(_extra_wall(R3)) @ LatticeAutomorphism.identity(R3)
    for derived in (LatticeAutomorphism.identity(U2), m, m @ m):
        assert LatticeAutomorphism(derived.model, derived.matrix) == derived
        assert all(type(x) is int for row in derived.matrix for x in row)
    for bad in (1.0, True):
        with pytest.raises(LatticeError, match="coefficients must be integers"):
            LatticeAutomorphism(R3, ((bad, 0, 0, 0),) + m.matrix[1:])
    with pytest.raises(LatticeError, match="matrix must be 4x4"):
        LatticeAutomorphism(R3, m.matrix[1:])


def _preserves_form_densely(m):
    """M^T G M == G over the reference Gram matrix."""
    g, n = _reference_gram(m.model), m.model.rank
    a = m.matrix
    gm = [[sum(g[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    mt_gm = [[sum(a[k][i] * gm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return mt_gm == [list(row) for row in g]


def test_preserves_form_matches_the_dense_gram():
    rng = random.Random(22)
    verdicts = set()
    for model in [rational_model(l) for l in range(2, 8)] + [ruled_model(l) for l in range(1, 7)]:
        n, h = model.rank, model.head
        head = [(1, -1, -1)] if h == 1 else [(1, 0, -1), (0, 1, -1)]  # L-E1-E2; Y-E1, F-E1
        mirrors = [_cls(model, *c, *(0,) * (n - 3)) for c in head]
        mirrors += [exceptional_class(model, i) for i in range(1, model.blowups + 1)]
        mirrors += [_adjacent_difference(model, i) for i in range(1, model.blowups)]
        for _ in range(20):
            m = LatticeAutomorphism.identity(model)
            for _ in range(rng.randrange(6)):
                m = reflection_along(rng.choice(mirrors)) @ m
            rows = [list(row) for row in m.matrix]
            rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
            noise = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            for cand in (m, *(LatticeAutomorphism(model, r) for r in (rows, noise))):
                verdict = cand.preserves_form()
                assert verdict == _preserves_form_densely(cand), cand
                verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# positive cone


def test_cone_membership_rational():
    assert positive_cone_contains(_cls(R3, 3, -1, -1, -1))
    assert not positive_cone_contains(_cls(R3, -3, 1, 1, 1))
    assert not positive_cone_contains(_cls(R3, 2, -2, 0, 0))  # square 0
    assert not positive_cone_contains(_cls(R3, 1, -1, -1, 0))


def test_cone_membership_ruled():
    # Y-coefficient is the fiber period; s*n must beat the mu squares
    assert positive_cone_contains(_cls(U2, 2, 3, -1, -1))
    assert not positive_cone_contains(_cls(U2, 2, 1, -1, -1))
    assert not positive_cone_contains(_cls(U2, -2, -3, 1, 1))
    assert positive_cone_contains(_cls(U2, 1, 1, 0, 0))


def test_cone_rejects_unrelated_objects():
    with pytest.raises(LatticeError):
        positive_cone_contains(42)
