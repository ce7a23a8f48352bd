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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .base import LatticeError


class ModelMismatchError(LatticeError):
    """Two objects from different manifold models were combined."""


class UnsupportedReflectionError(LatticeError):
    """reflection_along only supports classes of square -1 or -2."""


class Kind(enum.Enum):
    RATIONAL = "rational"
    RULED = "ruled"


@dataclass(frozen=True)
class ManifoldModel:
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
    def rank(self) -> int:
        return self.blowups + (1 if self.kind is Kind.RATIONAL else 2)

    @cached_property
    def basis_names(self) -> tuple[str, ...]:
        heads = ("L",) if self.kind is Kind.RATIONAL else ("Y", "F")
        return heads + tuple(f"E{i}" for i in range(1, self.blowups + 1))

    @cached_property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Gram matrix of the intersection form in the fixed basis.

        In both models the Gram matrix is an involution, which makes
        inverting a form-preserving matrix M a transpose: M^-1 = G M^T G.
        """
        n = self.rank
        rows = [[0] * n for _ in range(n)]
        if self.kind is Kind.RATIONAL:
            rows[0][0] = 1
            first_exceptional = 1
        else:
            rows[0][1] = 1
            rows[1][0] = 1
            first_exceptional = 2
        for i in range(first_exceptional, n):
            rows[i][i] = -1
        return tuple(tuple(r) for r in rows)

    def exceptional_index(self, i: int) -> int:
        """Coefficient index of E_i (1-based i)."""
        if not 1 <= i <= self.blowups:
            raise LatticeError(f"E_{i} does not exist in this model")
        return i if self.kind is Kind.RATIONAL else i + 1

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


def _check_int_coeffs(coeffs: Sequence) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise LatticeError(f"coefficients must be integers, got {c!r}")
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class HomologyClass:
    """An integral second homology class in a fixed model and basis."""

    model: ManifoldModel
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_int_coeffs(self.coeffs))
        if len(self.coeffs) != self.model.rank:
            raise LatticeError(
                f"expected {self.model.rank} coefficients, got {len(self.coeffs)}"
            )

    def __str__(self) -> str:
        names = self.model.basis_names
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if not parts:
                prefix = "-" if c < 0 else ""
            else:
                prefix = " - " if c < 0 else " + "
            mag = abs(c)
            parts.append(f"{prefix}{'' if mag == 1 else mag}{name}")
        return "".join(parts) if parts else "0"

    @property
    def square(self) -> int:
        return pairing(self, self)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        _same_model(self, other)
        return HomologyClass(
            self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "HomologyClass") -> "HomologyClass":
        _same_model(self, other)
        return HomologyClass(
            self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "HomologyClass":
        return HomologyClass(self.model, tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "HomologyClass":
        if isinstance(n, bool) or not isinstance(n, int):
            return NotImplemented
        return HomologyClass(self.model, tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

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
    # inlined bilinear form; works for int and Fraction coefficients alike
    if model.kind is Kind.RATIONAL:
        acc = u[0] * v[0]
        start = 1
    else:
        acc = u[0] * v[1] + u[1] * v[0]
        start = 2
    for i in range(start, model.rank):
        acc -= u[i] * v[i]
    return acc


def pairing(a: HomologyClass, b: HomologyClass) -> int:
    """Intersection number a.b."""
    _same_model(a, b)
    return _pair_coeffs(a.model, a.coeffs, b.coeffs)


@dataclass(frozen=True)
class LatticeAutomorphism:
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

    def apply(self, c: HomologyClass) -> HomologyClass:
        _same_model(self, c)
        return HomologyClass(self.model, self.apply_coeffs(c.coeffs))

    def apply_coeffs(self, coeffs: Sequence) -> tuple:
        """Matrix-vector product; accepts integer or Fraction entries."""
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
        g = self.model.gram
        n = self.model.rank
        for i in range(n):
            for j in range(i, n):
                lhs = _pair_coeffs(
                    self.model,
                    [self.matrix[r][i] for r in range(n)],
                    [self.matrix[r][j] for r in range(n)],
                )
                if lhs != g[i][j]:
                    return False
        return True

    def is_cone_preserving(self) -> bool:
        """True when the positive light-cone component is mapped to itself.

        For a form-preserving matrix it is enough to follow one square-positive
        vector: L in the rational model, Y + F in the ruled one.
        """
        if self.model.kind is Kind.RATIONAL:
            image = self.apply_coeffs((1,) + (0,) * (self.model.rank - 1))
        else:
            image = self.apply_coeffs((1, 1) + (0,) * (self.model.rank - 2))
        return image[0] > 0

    def inverse(self) -> "LatticeAutomorphism":
        """G M^T G; valid because the matrix preserves the form and G^2 = 1."""
        if not self.preserves_form():
            raise LatticeError("cannot invert a matrix that does not preserve the form")
        g = self.model.gram
        n = self.model.rank
        mt = tuple(zip(*self.matrix))
        gm = tuple(
            tuple(sum(g[i][k] * mt[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        rows = tuple(
            tuple(sum(gm[i][k] * g[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return LatticeAutomorphism(self.model, rows)

    def to_json_dict(self) -> dict:
        return {"model": self.model.to_json_dict(), "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticeAutomorphism":
        try:
            model = ManifoldModel.from_json_dict(data["model"])
            matrix = tuple(tuple(row) for row in data["matrix"])
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"malformed automorphism JSON: {exc}") from exc
        return cls(model, matrix)


def reflection_along(s: HomologyClass) -> LatticeAutomorphism:
    """The reflection A -> A - 2 (A.s)/(s.s) s as an integer matrix.

    Only classes with s^2 = -2 (wall reflections, A -> A + (A.s) s) and
    s^2 = -1 (exceptional twists, A -> A + 2 (A.s) s) give integer matrices;
    anything else is rejected.
    """
    sq = s.square
    if sq == -2:
        coef = 1
    elif sq == -1:
        coef = 2
    else:
        raise UnsupportedReflectionError(
            f"reflection requires square -1 or -2, got {sq} for {s}"
        )
    model = s.model
    n = model.rank
    gs = [_pair_coeffs(model, row, s.coeffs) for row in _unit_rows(n)]
    # (G s)_j, i.e. pairing of the j-th basis vector with s
    rows = tuple(
        tuple(int(i == j) + coef * s.coeffs[i] * gs[j] for j in range(n))
        for i in range(n)
    )
    return LatticeAutomorphism(model, rows)


def _unit_rows(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def positive_cone_contains(x) -> bool:
    """Membership in the symplectic positive cone.

    Rational model: the leading coefficient is positive and the square of the
    class is positive.  Ruled model: the Y-coefficient s is positive and
    s*n > sum(mu_i^2) where n is the F-coefficient and mu_i the (negated)
    exceptional coefficients; this is strictly smaller than the square-positive
    cone, matching the image of actual symplectic forms.

    Accepts a HomologyClass or any object with a ``dual_coefficients`` method
    returning exact coefficients in the same basis (period vectors).
    """
    if isinstance(x, HomologyClass):
        model, coeffs = x.model, x.coeffs
    elif hasattr(x, "dual_coefficients"):
        model, coeffs = x.model, x.dual_coefficients()
    else:
        raise LatticeError(f"cannot test cone membership of {x!r}")
    if model.kind is Kind.RATIONAL:
        lead = coeffs[0]
        return lead > 0 and lead * lead > sum(c * c for c in coeffs[1:])
    s, n = coeffs[0], coeffs[1]
    return s > 0 and s * n > sum(c * c for c in coeffs[2:])


# ---------------------------------------------------------------------------
# named classes


def _basis_class(model: ManifoldModel, index: int) -> HomologyClass:
    coeffs = [0] * model.rank
    coeffs[index] = 1
    return HomologyClass(model, tuple(coeffs))


def line_class(model: ManifoldModel) -> HomologyClass:
    if model.kind is not Kind.RATIONAL:
        raise LatticeError("line class exists only in the rational model")
    return _basis_class(model, 0)


def section_class(model: ManifoldModel) -> HomologyClass:
    if model.kind is not Kind.RULED:
        raise LatticeError("section class exists only in the ruled model")
    return _basis_class(model, 0)


def fiber_class(model: ManifoldModel) -> HomologyClass:
    if model.kind is not Kind.RULED:
        raise LatticeError("fiber class exists only in the ruled model")
    return _basis_class(model, 1)


def exceptional_class(model: ManifoldModel, i: int) -> HomologyClass:
    return _basis_class(model, model.exceptional_index(i))


def adjacent_difference(model: ManifoldModel, i: int) -> HomologyClass:
    """E_i - E_{i+1}, the wall class swapping two adjacent exceptional spheres."""
    if not 1 <= i <= model.blowups - 1:
        raise LatticeError(f"adjacent difference needs 1 <= i <= {model.blowups - 1}")
    return exceptional_class(model, i) - exceptional_class(model, i + 1)


def line_triple_wall(model: ManifoldModel) -> HomologyClass:
    """L - E_1 - E_2 - E_3, the extra wall class of the rational model."""
    if model.kind is not Kind.RATIONAL or model.blowups < 3:
        raise LatticeError("line triple wall requires the rational model with >= 3 blowups")
    c = line_class(model)
    for i in (1, 2, 3):
        c = c - exceptional_class(model, i)
    return c


def fiber_pair_wall(model: ManifoldModel) -> HomologyClass:
    """F - E_1 - E_2, the extra wall class of the ruled model."""
    if model.kind is not Kind.RULED or model.blowups < 2:
        raise LatticeError("fiber pair wall requires the ruled model with >= 2 blowups")
    return fiber_class(model) - exceptional_class(model, 1) - exceptional_class(model, 2)


def anticanonical_class(model: ManifoldModel) -> HomologyClass:
    """3L - sum(E_i) for the rational model; its square is 9 - blowups."""
    if model.kind is not Kind.RATIONAL:
        raise LatticeError("anticanonical helper is only provided for the rational model")
    c = 3 * line_class(model)
    for i in range(1, model.blowups + 1):
        c = c - exceptional_class(model, i)
    return c
