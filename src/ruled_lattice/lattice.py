"""Integer intersection lattices of blown-up surfaces.

Two families of smooth 4-manifolds are modeled here through their second
homology with the intersection form:

* the rational model, a connected sum of CP^2 with ``blowups`` copies of
  conjugate-CP^2, with basis (L, E_1, ..., E_l) and form diag(1, -1, ..., -1);
* the ruled model, an S^2-bundle over a genus-g surface blown up in
  ``blowups`` points, with basis (Y, F, E_1, ..., E_l) where Y.F = 1,
  Y^2 = F^2 = 0 and E_i^2 = -1.

Coefficients are arbitrary-precision integers.  Automorphism matrices act on
coefficient column vectors from the left; a word of reflections therefore
evaluates to a product of matrices with the first-applied matrix rightmost.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Sequence

from .base import LatticeError, Record


class ModelMismatchError(LatticeError):
    """Two objects from different manifold models were combined."""


class UnsupportedReflectionError(LatticeError):
    """A reflection exists only along classes of square -1 or -2."""


class Kind(enum.Enum):
    RATIONAL = "rational"
    RULED = "ruled"


class ManifoldModel(Record):
    """A blown-up rational or ruled surface, seen through its H_2 lattice.

    ``blowups`` is the number of exceptional classes; ``genus`` is the base
    genus of the ruled model (irrational, so at least 1) and must be 0 for
    the rational model.  The lattice itself does not depend on the genus,
    but the diffeotopy catalog does.
    """

    kind: Kind
    blowups: int
    genus: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise LatticeError(f"kind must be a Kind, got {self.kind!r}")
        if not isinstance(self.blowups, int) or isinstance(self.blowups, bool):
            raise LatticeError("blowups must be an integer")
        if self.blowups < 0:
            raise LatticeError("blowups must be non-negative")
        if not isinstance(self.genus, int) or isinstance(self.genus, bool):
            raise LatticeError("genus must be an integer")
        if self.kind is Kind.RATIONAL and self.genus != 0:
            raise LatticeError("the rational model has genus 0")
        if self.kind is Kind.RULED and self.genus < 1:
            raise LatticeError("the ruled model requires genus >= 1")

    @property
    def head(self) -> int:
        """How many basis classes come before E_1: L, resp. Y and F."""
        return 1 if self.kind is Kind.RATIONAL else 2

    @property
    def rank(self) -> int:
        return self.head + self.blowups

    @cached_property
    def basis_names(self) -> tuple[str, ...]:
        heads = ("L",) if self.kind is Kind.RATIONAL else ("Y", "F")
        return heads + tuple(f"E{i}" for i in range(1, self.blowups + 1))

    def exceptional_index(self, i: int) -> int:
        """Coefficient index of E_i (1-based i)."""
        if not 1 <= i <= self.blowups:
            raise LatticeError(f"E_{i} does not exist in this model")
        return self.head + i - 1

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value, "blowups": self.blowups, "genus": self.genus}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManifoldModel":
        try:
            kind = Kind(data["kind"])
            blowups = data["blowups"]
            genus = data.get("genus", 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"malformed model JSON: {exc}") from exc
        return cls(kind, blowups, genus)


def rational_model(blowups: int) -> ManifoldModel:
    return ManifoldModel(Kind.RATIONAL, blowups)


def ruled_model(blowups: int, genus: int = 1) -> ManifoldModel:
    return ManifoldModel(Kind.RULED, blowups, genus)


def _class_text(model: ManifoldModel, pairs) -> str:
    """``str`` of the class with these (slot, coefficient) pairs, zeros
    skipped.  The pairs must come in increasing slot order, as a class's
    ``enumerate(coeffs)`` and every ``generator_set`` root do."""
    names = model.basis_names
    parts = []
    for i, c in pairs:
        if c == 0:
            continue
        if not parts:
            prefix = "-" if c < 0 else ""
        else:
            prefix = " - " if c < 0 else " + "
        mag = abs(c)
        parts.append(f"{prefix}{'' if mag == 1 else mag}{names[i]}")
    return "".join(parts) if parts else "0"


def _check_int_coeffs(coeffs: Sequence) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise LatticeError(f"coefficients must be integers, got {c!r}")
        out.append(c)
    return tuple(out)


def _check_length(model: ManifoldModel, coeffs: Sequence) -> None:
    if len(coeffs) != model.rank:
        raise LatticeError(f"expected {model.rank} coefficients, got {len(coeffs)}")


class HomologyClass(Record):
    """An integral second homology class in a fixed model and basis.

    The constructor validates its coefficients; classes the library builds
    from integers it already holds go through ``_trusted`` instead.
    """

    model: ManifoldModel
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_int_coeffs(self.coeffs))
        _check_length(self.model, self.coeffs)

    def __str__(self) -> str:
        return _class_text(self.model, enumerate(self.coeffs))

    @property
    def square(self) -> int:
        return pairing(self, self)

    def to_json_dict(self) -> dict:
        return {"model": self.model.to_json_dict(), "coeffs": list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HomologyClass":
        try:
            model = ManifoldModel.from_json_dict(data["model"])
            coeffs = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"malformed class JSON: {exc}") from exc
        if not isinstance(coeffs, list):
            raise LatticeError("coeffs must be a JSON array of integers")
        return cls(model, tuple(coeffs))


def _same_model(a, b) -> None:
    if a.model != b.model:
        raise ModelMismatchError(f"model mismatch: {a.model} vs {b.model}")


def _pair_coeffs(model: ManifoldModel, u: Sequence, v: Sequence):
    # inlined bilinear form; works for int and Fraction coefficients alike:
    # the head pairs slot i with slot h-1-i (L.L, resp. Y.F = F.Y = 1)
    h = model.head
    acc = 0
    for i in range(h):
        acc += u[i] * v[h - 1 - i]
    for i in range(h, model.rank):
        acc -= u[i] * v[i]
    return acc


def pairing(a: HomologyClass, b: HomologyClass) -> int:
    """Intersection number a.b."""
    _same_model(a, b)
    return _pair_coeffs(a.model, a.coeffs, b.coeffs)


class LatticeAutomorphism(Record):
    """An integer matrix acting on coefficient column vectors from the left."""

    model: ManifoldModel
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.model.rank
        rows = tuple(_check_int_coeffs(row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise LatticeError(f"matrix must be {n}x{n}")

    @classmethod
    def identity(cls, model: ManifoldModel) -> "LatticeAutomorphism":
        n = model.rank
        return cls(model, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def apply_coeffs(self, coeffs: Sequence) -> tuple:
        """Matrix-vector product; accepts integer or Fraction entries."""
        _check_length(self.model, coeffs)
        return self._product(coeffs)

    def _product(self, coeffs: Sequence) -> tuple:
        # apply_coeffs without the length check, for callers that made it
        return tuple(
            sum(m_ij * c_j for m_ij, c_j in zip(row, coeffs)) for row in self.matrix
        )

    def __matmul__(self, other: "LatticeAutomorphism") -> "LatticeAutomorphism":
        """Composition: (a @ b) applies b first, then a."""
        _same_model(self, other)
        bt = tuple(zip(*other.matrix))
        rows = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in self.matrix
        )
        return LatticeAutomorphism(self.model, rows)

    def preserves_form(self) -> bool:
        """Whether columns i <= j pair to the form's entry G_ij; G e_i, read
        off ``_dual``, is one pair (k, g): G_ik = g and row i is 0 elsewhere."""
        model, cols = self.model, tuple(zip(*self.matrix))
        for i, col in enumerate(cols):
            ((k, g),) = _dual(model.head, ((i, 1),))
            for j in range(i, model.rank):
                if _pair_coeffs(model, col, cols[j]) != (g if j == k else 0):
                    return False
        return True

    def is_cone_preserving(self) -> bool:
        """True when the positive light-cone component is mapped to itself.

        For a form-preserving matrix it is enough to follow one square-positive
        vector: L in the rational model, Y + F in the ruled one.
        """
        model = self.model
        return self._product((1,) * model.head + (0,) * model.blowups)[0] > 0


Sparse = tuple[tuple[int, int], ...]  # (slot, coefficient) pairs
RootAction = tuple[Sparse, Sparse]


def _reflection_matrix(model: ManifoldModel, action: RootAction) -> LatticeAutomorphism:
    """The reflection of a ``root_action`` as a dense integer matrix: the
    identity plus the outer product of the shift and dual halves."""
    dual, shift = action
    rows = [[int(i == j) for j in range(model.rank)] for i in range(model.rank)]
    for i, c in shift:
        for j, g in dual:
            rows[i][j] += c * g
    return LatticeAutomorphism(model, tuple(map(tuple, rows)))


def root_action(s: HomologyClass) -> RootAction:
    """The reflection along ``s`` as ``x -> x + (x.s) coef*s``, kept sparse.

    Returns the pairs (j, (G s)_j), (i, coef*s_i) over the nonzero entries:
    ``GeneratorSet._walk`` costs O(support), the copying ``reflect_coeffs`` O(rank).
    """
    return _root_action(s.model, [(i, c) for i, c in enumerate(s.coeffs) if c])


def _root_action(model: ManifoldModel, support) -> RootAction:
    """``root_action`` of the class with the given (slot, coefficient) pairs.

    The square s.s is the sum of s_j (G s)_j over the dual pairs, so the
    whole action costs O(support).  Square -2 gives coef 1, square -1 coef
    2; any other square is refused.
    """
    dual = _dual(model.head, support)
    root = dict(support)
    sq = sum(root.get(j, 0) * g for j, g in dual)
    coef = {-2: 1, -1: 2}.get(sq)
    if coef is None:
        raise UnsupportedReflectionError(
            f"reflection requires square -1 or -2, got {sq} for {_class_text(model, support)}"
        )
    return dual, tuple((i, coef * c) for i, c in support)


def _dual(head: int, support) -> Sparse:
    """G s over the (slot, coefficient) pairs of s: G fixes L, swaps Y and
    F, and negates every E_i, so x.s is the sum of x_j * g over the pairs."""
    return tuple((head - 1 - i, c) if i < head else (i, -c) for i, c in support)


def reflect_coeffs(action: RootAction, coeffs: Sequence[int]) -> tuple[int, ...]:
    """Apply a ``root_action`` to a coefficient vector."""
    dual, shift = action
    dot = sum(coeffs[j] * g for j, g in dual)
    if not dot:
        return tuple(coeffs)
    out = list(coeffs)
    for i, c in shift:
        out[i] += dot * c
    return tuple(out)


def positive_cone_contains(c: HomologyClass) -> bool:
    """Membership in the symplectic positive cone.

    Rational model: the leading coefficient is positive and the square of the
    class is positive.  Ruled model: the Y-coefficient s is positive and
    s*n > sum(mu_i^2) where n is the F-coefficient and mu_i the (negated)
    exceptional coefficients.  The reflections keep the square 2*s*n -
    sum(mu_i^2), not s*n - sum(mu_i^2): Y + F is accepted and its s0 image
    Y + 2F - E1 - E2, of the same square 2, refused (the ruled cone defect).

    Both tests are unchanged by positive rescaling, so a period vector is
    tested through the class of its integer dual coefficients.
    """
    if not isinstance(c, HomologyClass):
        raise LatticeError(f"cannot test cone membership of {c!r}")
    coeffs = c.coeffs
    if c.model.kind is Kind.RATIONAL:
        lead = coeffs[0]
        return lead > 0 and lead * lead > sum(x * x for x in coeffs[1:])
    s, n = coeffs[0], coeffs[1]
    return s > 0 and s * n > sum(x * x for x in coeffs[2:])


# ---------------------------------------------------------------------------
# named classes


def _sparse_class(model: ManifoldModel, support) -> HomologyClass:
    """The class with the given (slot, coefficient) pairs, zero elsewhere."""
    coeffs = [0] * model.rank
    for i, c in support:
        coeffs[i] = c
    return HomologyClass._trusted(model, tuple(coeffs))


def exceptional_class(model: ManifoldModel, i: int) -> HomologyClass:
    return _sparse_class(model, ((model.exceptional_index(i), 1),))
