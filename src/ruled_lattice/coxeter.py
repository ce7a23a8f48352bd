"""Coxeter systems, their Gram matrices and crystallographic structures.

A Coxeter system is stored as a symmetric matrix of pair orders with 1 on the
diagonal and off-diagonal entries in {2, 3, 4, oo}; larger finite labels never
occur for the groups treated here and are rejected.  The geometric
representation places one basis vector per generator with <e_j, e_j> = -1 and
<e_i, e_j> = cos(pi/m_ij), all of which lies in Q(sqrt2), so every
definiteness computation below is exact.

Finite type is decided by Sylvester's criterion on the negated Gram matrix.
A crystallographic structure is a split of the generators into short and long
ones; rescaling the long basis vectors by sqrt2 must turn every generator
matrix into an integer matrix, and the combinatorial shadow of that condition
(which edge labels may join which parts) is checked separately so the two
routes can be compared.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .base import INF, CoxeterError, Record
from .qsqrt2 import HALF, HALF_SQRT2, ONE, QSqrt2, SQRT2, ZERO


def _is_pair_order(m) -> bool:
    """An off-diagonal order: the int 2, 3 or 4 (not a float or bool) or INF."""
    return m is INF or (type(m) is int and m in (2, 3, 4))


def _cos_pi_over(m) -> QSqrt2:
    if m is INF:
        return ONE
    return {2: ZERO, 3: HALF, 4: HALF_SQRT2}[m]


class CoxeterSystem(Record):
    """A finite set of named generators with pairwise orders.

    The optional label is a display name ("E6", "BD5", ..); it never takes
    part in equality.
    """

    names: tuple[str, ...]
    matrix: tuple[tuple, ...]
    label: Optional[str] = None

    def __post_init__(self) -> None:
        n = len(self.names)
        if not all(isinstance(name, str) for name in self.names):
            raise CoxeterError("generator names must be strings")
        if len(set(self.names)) != n:
            raise CoxeterError("generator names must be distinct")
        m = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(m) != n or any(len(r) != n for r in m):
            raise CoxeterError(f"matrix must be {n}x{n}")
        for i in range(n):
            if m[i][i] != 1 or type(m[i][i]) is not int:
                raise CoxeterError("diagonal entries must be 1")
            for j in range(i + 1, n):
                if m[i][j] is not m[j][i] and m[i][j] != m[j][i]:
                    raise CoxeterError("matrix must be symmetric")
                for order in (m[i][j], m[j][i]):
                    if not _is_pair_order(order):
                        raise CoxeterError(
                            f"unsupported pair order {order!r} between "
                            f"{self.names[i]} and {self.names[j]}"
                        )

    def _key(self) -> tuple:
        return (self.names, self.matrix)  # equality and hashing skip the label

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise CoxeterError(f"no generator named {name!r}") from None

    def order(self, a: str, b: str):
        return self.matrix[self.index(a)][self.index(b)]

    def edges(self) -> list[tuple[int, int, object]]:
        """Pairs with order > 2, i.e. the edges of the Coxeter graph."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.matrix[i][j]
                if m is INF or m > 2:
                    out.append((i, j, m))
        return out

    def to_json_dict(self) -> dict:
        out: dict = {
            "names": list(self.names),
            "matrix": [
                ["inf" if x is INF else x for x in row] for row in self.matrix
            ],
        }
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoxeterSystem":
        try:
            if not isinstance(data["names"], list):
                raise CoxeterError("'names' must be a list of generator names")
            if not isinstance(data.get("label"), (str, type(None))):
                raise CoxeterError("'label' must be a string")
            names = tuple(data["names"])
            rows = []
            for row in data["matrix"]:
                rows.append(tuple(INF if x == "inf" else x for x in row))
        except (KeyError, TypeError) as exc:
            raise CoxeterError(f"malformed Coxeter JSON: {exc}") from exc
        return cls(names, tuple(rows), label=data.get("label"))


def system_from_edges(
    names: Sequence[str],
    edges: Iterable[tuple[str, str, object]],
    label: Optional[str] = None,
) -> CoxeterSystem:
    """Build a system from its graph; unlisted pairs commute (order 2)."""
    names = tuple(names)
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    for a, b, order in edges:
        try:
            i, j = idx[a], idx[b]
        except KeyError as exc:
            raise CoxeterError(
                f"edge endpoint {exc.args[0]!r} is not a generator"
            ) from None
        m[i][j] = m[j][i] = order
    return CoxeterSystem(names, tuple(tuple(r) for r in m), label=label)


# ---------------------------------------------------------------------------
# named systems


def linear(
    labels: Sequence,
    names: Sequence[str] | None = None,
    label: Optional[str] = None,
) -> CoxeterSystem:
    """A chain with the given consecutive edge labels (rank len(labels)+1)."""
    k = len(labels) + 1
    if names is None:
        names = tuple(f"s{i}" for i in range(1, k + 1))
    names = tuple(names)
    if len(names) != k:
        raise CoxeterError("need one more name than labels")
    return system_from_edges(
        names,
        [(names[i], names[i + 1], labels[i]) for i in range(k - 1)],
        label=label,
    )


def type_A(n: int) -> CoxeterSystem:
    if n < 1:
        raise CoxeterError("A_n needs n >= 1")
    return linear([3] * (n - 1), label=f"A{n}")


def type_B(n: int) -> CoxeterSystem:
    if n < 2:
        raise CoxeterError("B_n needs n >= 2")
    return linear([3] * (n - 2) + [4], label=f"B{n}")


def _chain_with_leg(n: int, leg: int, label: str, tail=3, leg_label=3) -> CoxeterSystem:
    """s0..s_{n-1} as the chain s1..s_{n-1}, labelled 3 but for a final ``tail``,
    with s0 joined to s_leg by ``leg_label`` when s_leg exists."""
    names = tuple(f"s{i}" for i in range(n))
    edges = [(f"s{i}", f"s{i+1}", 3 if i < n - 2 else tail) for i in range(1, n - 1)]
    if leg < n:
        edges.append(("s0", f"s{leg}", leg_label))
    return system_from_edges(names, edges, label=label)


def type_D(n: int) -> CoxeterSystem:
    """Chain s1..s_{n-1} plus s0 attached to s2; D_2 is two commuting nodes."""
    if n < 2:
        raise CoxeterError("D_n needs n >= 2")
    return _chain_with_leg(n, 2, f"D{n}")


def type_E(n: int) -> CoxeterSystem:
    """Chain s1..s_{n-1} plus s0 attached to s3.

    E_3 = A_2 + A_1 (s0 isolated), E_4 = A_4, E_5 = D_5, and E_9 is the
    affine extension of E_8 (its Gram determinant vanishes).
    """
    if n < 3:
        raise CoxeterError("E_n needs n >= 3")
    return _chain_with_leg(n, 3, f"E{n}")


def type_BE(n: int) -> CoxeterSystem:
    """Rank n >= 5: chain s1..s_{n-1} with final label 4, s0 attached to s3."""
    if n < 5:
        raise CoxeterError("BE_n needs n >= 5")
    return _chain_with_leg(n, 3, f"BE{n}", tail=4)


def type_BD(n: int) -> CoxeterSystem:
    """Rank n >= 4: chain s1..s_{n-1} with final label 4, s0 attached to s2.

    BD_{l+1} is the affine group usually written as a tilde over B_l.
    """
    if n < 4:
        raise CoxeterError("BD_n needs n >= 4")
    return _chain_with_leg(n, 2, f"BD{n}", tail=4)


def L4_344() -> CoxeterSystem:
    return linear((3, 4, 4), names=("s1", "s2", "s3", "s0"), label="L4-3-4-4")


def L3_44() -> CoxeterSystem:
    return linear((4, 4), names=("s1", "s2", "s0"), label="L3-4-4")


def L3_4inf() -> CoxeterSystem:
    return linear((4, INF), names=("s1", "s2", "s0*"), label="L3-4-INF")


def I2_inf() -> CoxeterSystem:
    return linear((INF,), names=("s1", "s1*"), label="I2-INF")


def from_name(name: str) -> CoxeterSystem:
    """Resolve a named system: A5, B3, D4, E3..E9, BE5.., BD4.., L4-3-4-4,
    L3-4-inf, I2-inf and general Lk-m1-...-m{k-1} chains."""
    text = name.strip()
    if not text:
        raise CoxeterError("empty Coxeter system name")
    if text.upper() in ("I2-INF", "I2(INF)"):
        return I2_inf()
    head = text[:2].upper()
    if head in ("BE", "BD"):
        try:
            n = int(text[2:])
        except ValueError:
            raise CoxeterError(f"cannot parse rank in {name!r}") from None
        return type_BE(n) if head == "BE" else type_BD(n)
    if text[0].upper() in "ABDE" and text[1:].isdigit():
        n = int(text[1:])
        builder = {"A": type_A, "B": type_B, "D": type_D, "E": type_E}[text[0].upper()]
        if text[0].upper() == "E" and not 3 <= n <= 9:
            raise CoxeterError("E_n is supported for n = 3..9")
        return builder(n)
    if text[0].upper() == "L":
        bits = text[1:].split("-")
        try:
            k = int(bits[0])
        except ValueError:
            raise CoxeterError(f"cannot parse rank in {name!r}") from None
        labels = []
        for b in bits[1:]:
            if b.lower() in ("inf", "oo"):
                labels.append(INF)
            elif b.isdigit():
                labels.append(int(b))
            else:
                raise CoxeterError(f"bad edge label {b!r} in {name!r}")
        if len(labels) != k - 1:
            raise CoxeterError(f"L{k} needs {k-1} labels, got {len(labels)}")
        if k == 4 and labels == [3, 4, 4]:
            return L4_344()
        if k == 3 and labels == [4, 4]:
            return L3_44()
        if k == 3 and labels == [4, INF]:
            return L3_4inf()
        return linear(labels)
    raise CoxeterError(f"unknown Coxeter system name {name!r}")


# ---------------------------------------------------------------------------
# the Gram matrix of the geometric representation


def _gram(system: CoxeterSystem) -> tuple[tuple[QSqrt2, ...], ...]:
    n = system.rank
    return tuple(
        tuple(
            -ONE if i == j else _cos_pi_over(system.matrix[i][j])
            for j in range(n)
        )
        for i in range(n)
    )


def _eliminate_gram(system: CoxeterSystem) -> tuple[QSqrt2, bool]:
    """Determinant of -Gram and whether -Gram is positive definite.

    One Gaussian elimination of Gram, exact over Q(sqrt2).  While no row
    swap has been needed the k-th pivot is the ratio of the k-th to the
    (k-1)-th leading principal minor, so -Gram is positive definite exactly
    when every pivot is negative; a needed swap means a minor vanished.
    """
    rows = [list(row) for row in _gram(system)]
    n = len(rows)
    det = -ONE if n % 2 else ONE  # det(-Gram) = (-1)^n det(Gram)
    definite = True
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            return ZERO, False
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
            definite = False
        pivot = rows[col][col]
        det = det * pivot
        definite = definite and pivot.sign() < 0
        # columns <= col are never read again, so only the pivot row's
        # nonzero entries to the right are subtracted
        tail = [(c, rows[col][c]) for c in range(col + 1, n) if rows[col][c]]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                for c, y in tail:
                    rows[r][c] = rows[r][c] - factor * y
    return det, definite


def is_finite_type(system: CoxeterSystem) -> bool:
    """Sylvester's criterion on the negated Gram matrix of the representation.

    The group is finite exactly when the form <.,.> is negative definite,
    i.e. when every leading principal minor of -Gram is positive.
    """
    return _eliminate_gram(system)[1]


def gram_determinant(system: CoxeterSystem) -> QSqrt2:
    """Determinant of the negated Gram matrix (0 for affine systems)."""
    return _eliminate_gram(system)[0]


# ---------------------------------------------------------------------------
# crystallographic structures


class CrystallographicStructure(Record):
    """A short/long split of the generators of a Coxeter system.

    Short generators keep their basis vector (square -1); long ones are
    rescaled by sqrt2 (square -2).  The induced integer lattice is preserved
    by the group iff the edge rules checked below hold.
    """

    system: CoxeterSystem
    short: frozenset[str]

    def __post_init__(self) -> None:
        unknown = self.short - set(self.system.names)
        if unknown:
            raise CoxeterError(f"short names not in system: {sorted(unknown)}")

    @property
    def long(self) -> frozenset[str]:
        return frozenset(self.system.names) - self.short

    def scale(self, name: str) -> QSqrt2:
        return ONE if name in self.short else SQRT2

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "short": sorted(self.short),
        }


class CrystalReport(Record):
    ok: bool
    violations: tuple[str, ...] = ()


def verify_crystallographic(struct: CrystallographicStructure) -> CrystalReport:
    """Combinatorial route: which labels may join which parts.

    Label 3 and label oo edges must stay inside one part; label 4 edges must
    cross between parts; label 2 pairs are unconstrained.  Entries other than
    {2, 3, 4, oo} are already rejected by CoxeterSystem.
    """
    sys_ = struct.system
    bad = []
    for i, j, m in sys_.edges():
        a, b = sys_.names[i], sys_.names[j]
        same = (a in struct.short) == (b in struct.short)
        if m == 4 and same:
            bad.append(f"{a}={b} (label 4) must join short to long")
        if (m == 3 or m is INF) and not same:
            label = "oo" if m is INF else "3"
            bad.append(f"{a}-{b} (label {label}) must stay within one part")
    return CrystalReport(not bad, tuple(bad))


def crystallographic_lattice_invariance(
    struct: CrystallographicStructure,
) -> CrystalReport:
    """Matrix route: rewrite every generator in the rescaled basis.

    With B = diag(scale) the matrix B^-1 M B must be integral for every
    generator M.  This is the definition of the lattice being preserved and
    is computed from the Gram matrix, independently of the edge rules.  The
    generator sigma_j differs from the identity only in row j, whose entry
    in column c is delta_jc + 2<e_c, e_j>; every other row stays a row of
    the identity under the rescaling, so only row j of sigma_j is checked.
    """
    names = struct.system.names
    gram = _gram(struct.system)
    scales = [struct.scale(n) for n in names]
    bad = []
    for j, g in enumerate(names):
        for c, name in enumerate(names):
            entry = (ONE if c == j else ZERO) + 2 * gram[c][j]
            if not entry:
                continue  # zero under every rescaling
            entry = entry * scales[c] / scales[j]
            if not entry.is_integer():
                bad.append(f"generator {g}: entry ({g},{name}) = {entry}")
    return CrystalReport(not bad, tuple(bad))


def standard_crystal(name: str) -> CrystallographicStructure:
    """The crystallographic structures used by the surface models.

    The twist generators (reflections along square -1 classes) are short;
    everything reachable through label-3/oo edges shares its part, label-4
    edges flip parts.
    """
    text = name.strip()
    upper = text.upper()
    if upper.startswith("BE") or upper.startswith("BD"):
        sys_ = from_name(text)
        return CrystallographicStructure(sys_, frozenset({sys_.names[-1]}))
    if upper in ("L4-3-4-4",):
        return CrystallographicStructure(L4_344(), frozenset({"s3"}))
    if upper in ("L3-4-4",):
        return CrystallographicStructure(L3_44(), frozenset({"s2"}))
    if upper in ("L3-4-INF",):
        return CrystallographicStructure(L3_4inf(), frozenset({"s2", "s0*"}))
    if upper in ("I2-INF",):
        return CrystallographicStructure(I2_inf(), frozenset({"s1", "s1*"}))
    raise CoxeterError(f"no standard crystallographic structure for {name!r}")
