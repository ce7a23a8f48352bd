"""Descriptive models of diffeotopy groups, and the constructive generator
decomposition for the twice blown-up sphere product.

The structured descriptions are trees over a handful of node kinds.  Two
pieces stay deliberately opaque: the subgroup of homotopically trivial
mapping classes with vanishing obstruction class (nothing is known about
it in general), and the marked mapping-class factor of ruled manifolds
(known only as an extension, with an explicit free abelian kernel).  Both
appear as black-box leaves rather than being silently dropped.

Semidirect products are stored with the normal factor first; rendering
uses the computer-algebra convention "N : H".
"""

from __future__ import annotations

from functools import cache
from typing import Union

from . import coxeter, weyl
from .base import SMALL_CASE_LABELS, InternalConsistencyError, Record
from .coxeter import CoxeterSystem
from .lattice import Kind, LatticeAutomorphism, LatticeError, ManifoldModel, rational_model
from .weyl import GeneratorSet, GroupWord, expected_coxeter_system


class CatalogError(LatticeError):
    pass


# ---------------------------------------------------------------------------
# structure trees


class GroupNode(Record):
    """Base of the structure-tree node kinds.

    Each kind names itself in ``kind``, a class attribute and not a field,
    which ``to_json_dict`` writes as the node's tag.
    """

    def render(self) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        """``kind``, then every field in order: a node or Coxeter system as
        its JSON object, a tuple of nodes as a list of them."""
        out = {"kind": self.kind}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = [v.to_json_dict() for v in value]
            elif isinstance(value, (GroupNode, CoxeterSystem)):
                value = value.to_json_dict()
            out[name] = value
        return out


class Cyclic(GroupNode):
    order: int
    kind = "cyclic"

    def render(self) -> str:
        return f"Z{self.order}"


class FreeAbelian(GroupNode):
    rank: int
    kind = "free_abelian"

    def render(self) -> str:
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


class CoxeterGroup(GroupNode):
    system: CoxeterSystem
    kind = "coxeter"

    def render(self) -> str:
        if self.system.label:
            return f"W({self.system.label})"
        return f"W(rank {self.system.rank})"


class Semidirect(GroupNode):
    normal: GroupNode
    acting: GroupNode
    kind = "semidirect"

    def render(self) -> str:
        return f"({self.normal.render()} : {self.acting.render()})"


class DirectSum(GroupNode):
    parts: tuple[GroupNode, ...]
    kind = "direct_sum"

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def render(self) -> str:
        return "(" + " x ".join(p.render() for p in self.parts) + ")"


class BlackBox(GroupNode):
    label: str
    kind = "black_box"

    def render(self) -> str:
        return f"<{self.label}>"


class GroupDescription(Record):
    """A named group with its structure tree and free-text annotations."""

    name: str
    structure: GroupNode
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "structure": self.structure.to_json_dict(),
            "rendered": self.structure.render(),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# small-case catalog

_Z2_SQUARED = DirectSum((Cyclic(2), Cyclic(2)))

# the description of each label in SMALL_CASE_LABELS, in that order
_SMALL_CASES = {
    "CP2": GroupDescription(
        "homotopy mapping classes of the plane",
        Cyclic(2),
        (
            "generator: complex conjugation",
            "as a reflection group: W(A1)",
        ),
    ),
    "S2xS2": GroupDescription(
        "homotopy mapping classes of the sphere product",
        Semidirect(normal=_Z2_SQUARED, acting=Cyclic(2)),
        (
            "normal part: conjugation of each sphere factor",
            "acting part: the factor swap",
            "as a reflection group: W(B2)",
        ),
    ),
    "twisted-S2xS2": GroupDescription(
        "homotopy mapping classes of the twisted sphere bundle",
        Semidirect(normal=_Z2_SQUARED, acting=Cyclic(2)),
        (
            "normal part: inversions of the two section classes",
            "acting part: an orientation-reversing swap of the sections",
            "as a reflection group: W(B2)",
        ),
    ),
    "YxS2": GroupDescription(
        "homology image for the trivial sphere bundle, positive genus",
        _Z2_SQUARED,
        (
            "factors: inversion of the section class, inversion of the fiber class",
            "both realized by conjugations of the single factors",
            "as a reflection group: W(A1 x A1)",
        ),
    ),
    "twisted-YxS2": GroupDescription(
        "homology image for the twisted sphere bundle, positive genus",
        _Z2_SQUARED,
        (
            "factors: a conjugation inverting section and fiber classes,"
            " and an orientation-reversing swap of the two sections",
            "as a reflection group: W(A1 x A1)",
        ),
    ),
    "blownup-S2xS2": GroupDescription(
        "cone-preserving homology image of the twice blown-up plane",
        CoxeterGroup(coxeter.from_name("L3-4-INF")),
        (
            "equals the full cone-preserving automorphism group"
            " of the rank 3 lattice",
            "s1: reflection along E1 - E2; s2: twist along E2;"
            " s0*: twist along L - E1 - E2",
        ),
    ),
    "blownup-YxS2": GroupDescription(
        "homology image of the once blown-up bundle, positive genus",
        Semidirect(normal=FreeAbelian(1), acting=Cyclic(2)),
        (
            "as a reflection group: W(I2(inf)), the affine A1 group",
            "s1: twist along E1; s1*: twist along F - E1",
        ),
    ),
}

# every label in lowercase, and the other spellings describe_diffeotopy reads
_ALIASES = {label.lower(): label for label in SMALL_CASE_LABELS}
_ALIASES.update(
    {
        "cp^2": "CP2",
        "s2*s2": "S2xS2",
        "s2~s2": "twisted-S2xS2",
        "s2xs2-twisted": "twisted-S2xS2",
        "y*s2": "YxS2",
        "y~s2": "twisted-YxS2",
        "yxs2-twisted": "twisted-YxS2",
        "s2xs2-blownup": "blownup-S2xS2",
        "yxs2-blownup": "blownup-YxS2",
    }
)

# the models with too few blowups for a generator set, by their small case
_SMALL_MODELS = {
    (Kind.RATIONAL, 0): "CP2",
    (Kind.RATIONAL, 1): "twisted-S2xS2",
    (Kind.RATIONAL, 2): "blownup-S2xS2",
    (Kind.RULED, 0): "YxS2",
    (Kind.RULED, 1): "blownup-YxS2",
}


def _marked_mapping_classes(genus: int, blowups: int) -> BlackBox:
    rank = 2 * genus * max(blowups - 1, 0)
    return BlackBox(
        "marked mapping classes of the base: extension of the base"
        f" mapping-class group, kernel Z^{rank}"
        f" ({blowups - 1} copies of H1 of the base)"
    )


_OPAQUE_CORE = BlackBox("homotopically trivial classes with zero obstruction")


def homotopically_trivial_part(genus: int) -> GroupDescription:
    """The homotopically trivial mapping classes: opaque core, then the
    obstruction classes in H^1 with Z2 coefficients."""
    if genus < 1:
        return GroupDescription(
            "homotopically trivial mapping classes", _OPAQUE_CORE
        )
    return GroupDescription(
        "homotopically trivial mapping classes",
        Semidirect(
            normal=_OPAQUE_CORE,
            acting=DirectSum(tuple(Cyclic(2) for _ in range(2 * genus))),
        ),
        notes=(
            "acting part: obstruction classes, one Z2 per generator of H1"
            " of the manifold",
            "splitting realized by homotopically trivial symplectomorphisms",
        ),
    )


def describe_diffeotopy(target: Union[str, ManifoldModel]) -> GroupDescription:
    """Structured description of the diffeotopy group.

    Accepts one of the small-case labels (see SMALL_CASE_LABELS) or a
    lattice model.  Rational models with at least 3 blowups report the
    cone-preserving diffeotopy group, which is exactly the Coxeter-Weyl
    group of the generator presentation.  Ruled models with at least 2
    blowups report the nested semidirect decomposition; its opaque factors
    stay black boxes.  Models with fewer blowups resolve to their small
    case.
    """
    if isinstance(target, str):
        key = target.strip().lower()
        if key not in _ALIASES:
            raise CatalogError(
                f"unknown label {target!r}; known: {', '.join(SMALL_CASE_LABELS)}"
            )
        return _SMALL_CASES[_ALIASES[key]]
    if not isinstance(target, ManifoldModel):
        raise CatalogError("expected a label string or a ManifoldModel")

    model = target
    small = _SMALL_MODELS.get((model.kind, model.blowups))
    if small is not None:
        return _SMALL_CASES[small]
    system = expected_coxeter_system(model)
    if model.kind is Kind.RATIONAL:
        return GroupDescription(
            "cone-preserving diffeotopy group of the blown-up plane",
            CoxeterGroup(system),
            notes=(
                "the action on homology is faithful here: homotopically"
                " trivial mapping classes act trivially and the group"
                " equals its homology image",
                "generators: Dehn twists along the adjacent-difference and"
                " line-triple (-2)-classes, plus the twist along the last"
                " exceptional sphere",
            ),
        )

    g = model.genus
    mapbar = _marked_mapping_classes(g, model.blowups)
    trivial_part = homotopically_trivial_part(g)
    structure = Semidirect(
        normal=Semidirect(normal=trivial_part.structure, acting=mapbar),
        acting=CoxeterGroup(system),
    )
    return GroupDescription(
        "cone-preserving diffeotopy group of the blown-up ruled surface",
        structure,
        notes=(
            "innermost: homotopically trivial classes"
            " (opaque core : obstruction classes)",
            "middle: marked mapping classes of the base, an extension known"
            " only through its free abelian kernel",
            "outer: the Coxeter-Weyl group acting on homology",
            "homotopy image: marked mapping classes : Coxeter-Weyl group",
        ),
    )


# ---------------------------------------------------------------------------
# rank-3 generator decomposition

O12_GENERATOR_NAMES = ("s1", "s2", "s0*")


def o12_model() -> ManifoldModel:
    return rational_model(2)


@cache
def _o12_gens() -> GeneratorSet:
    """The three generators of the cone-preserving automorphism group of
    the rank-3 lattice: reflection along E1 - E2, twist along E2, twist
    along L - E1 - E2, written as their roots over the slots (L, E1, E2)."""
    roots = (((1, 1), (2, -1)), ((2, 1),), ((0, 1), (1, -1), (2, -1)))
    return GeneratorSet(o12_model(), O12_GENERATOR_NAMES, roots)


@cache
def _o12_residual_table() -> dict[tuple, tuple[str, ...]]:
    """Shortest words in s1, s2 for every automorphism fixing L (the eight
    signed permutations of E1, E2, a dihedral group of order 8)."""
    spelled = ("", "s1", "s2", "s1 s2", "s2 s1", "s1 s2 s1", "s2 s1 s2", "s1 s2 s1 s2")
    words = [GroupWord(w.split()) for w in spelled]
    return {tuple(zip(*evaluate_o12_word(w).matrix)): w.letters for w in words}  # by columns


def decompose_O12(m: LatticeAutomorphism) -> GroupWord:
    """Express a form- and cone-preserving automorphism of the rank-3
    lattice as a word in s1, s2, s0*.

    Descends on the L-coefficient of the image of L, moving the columns
    (the images of L, E1, E2) by root actions: after normalizing the two
    exceptional coefficients to be nonnegative and sorted, the coefficient
    identity forces their sum to exceed l whenever l >= 2, so the twist
    along L - E1 - E2 strictly decreases l.  At l = 1 the automorphism
    fixes L and a table lookup over the eight signed permutations finishes
    the word.  A descent longer than ``weyl.WORD_LETTER_CAP`` letters raises
    CatalogError: its length grows with the entries, not with their digits.
    Past validation, any other failure is a bug: InternalConsistencyError.
    """
    model = o12_model()
    if m.model != model:
        raise CatalogError("decompose_O12 expects the rank-3 rational model")
    if not m.preserves_form():
        raise CatalogError("input does not preserve the intersection form")
    if not m.is_cone_preserving():
        raise CatalogError("input does not preserve the positive cone")
    gens = _o12_gens()
    neg_e1 = ("s1", "s2", "s1")  # conjugate the E2 twist to the E1 twist

    cols = [list(col) for col in zip(*m.matrix)]
    descent: list[str] = []

    def push(names: tuple[str, ...]) -> None:
        for col in cols:
            gens._walk(names, col)
        descent.extend(names)

    while True:
        if len(descent) > weyl.WORD_LETTER_CAP:
            raise CatalogError(f"descent reached more than {weyl.WORD_LETTER_CAP} letters")
        l, c1, c2 = cols[0]
        if l == 1:
            break
        if l < 1:
            raise InternalConsistencyError("descent lost the cone")
        if c1 > 0:
            push(neg_e1)
        if c2 > 0:
            push(("s2",))
        if -cols[0][1] < -cols[0][2]:
            push(("s1",))
        before = cols[0][0]
        push(("s0*",))
        if cols[0][0] >= before:
            raise InternalConsistencyError("descent failed to decrease l")

    residual = _o12_residual_table().get(tuple(map(tuple, cols)))
    if residual is None:
        raise InternalConsistencyError("residual automorphism is not a signed permutation")
    return GroupWord(tuple(residual) + tuple(reversed(descent)))


def evaluate_o12_word(word: GroupWord) -> LatticeAutomorphism:
    for letter in word.letters:
        if letter not in O12_GENERATOR_NAMES:
            raise CatalogError(f"unknown generator {letter!r}")
    return word.evaluate(_o12_gens())

