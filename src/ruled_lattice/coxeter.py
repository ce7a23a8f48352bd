"""Coxeter systems, geometric representations and crystallographic structures.

A Coxeter system is stored as a symmetric matrix of pair orders with 1 on the
diagonal and off-diagonal entries in {2, 3, 4, oo}; larger finite labels never
occur for the groups treated here and are rejected.  The geometric
representation places one basis vector per generator with <e_j, e_j> = -1 and
<e_i, e_j> = cos(pi/m_ij), all of which lies in Q(sqrt2), so every
definiteness or order computation below is exact.

Finite type is decided by Sylvester's criterion on the negated Gram matrix.
A crystallographic structure is a split of the generators into short and long
ones; rescaling the long basis vectors by sqrt2 must turn every generator
matrix into an integer matrix, and the combinatorial shadow of that condition
(which edge labels may join which parts) is checked separately so the two
routes can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .base import CoxeterError
from .qsqrt2 import HALF, HALF_SQRT2, ONE, QSqrt2, SQRT2, ZERO


class _Infinity:
    """The infinite pair order; a dedicated singleton, not a sentinel int."""

    __slots__ = ()
    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()

_ALLOWED_OFFDIAG = (2, 3, 4, INF)


def _cos_pi_over(m) -> QSqrt2:
    if m is INF:
        return ONE
    return {2: ZERO, 3: HALF, 4: HALF_SQRT2}[m]


@dataclass(frozen=True)
class CoxeterSystem:
    """A finite set of named generators with pairwise orders.

    The optional label is a display name ("E6", "BD5", ..); it never takes
    part in equality.
    """

    names: tuple[str, ...]
    matrix: tuple[tuple, ...]
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n:
            raise CoxeterError("generator names must be distinct")
        m = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(m) != n or any(len(r) != n for r in m):
            raise CoxeterError(f"matrix must be {n}x{n}")
        for i in range(n):
            if m[i][i] != 1:
                raise CoxeterError("diagonal entries must be 1")
            for j in range(i + 1, n):
                if m[i][j] is not m[j][i] and m[i][j] != m[j][i]:
                    raise CoxeterError("matrix must be symmetric")
                if m[i][j] not in _ALLOWED_OFFDIAG:
                    raise CoxeterError(
                        f"unsupported pair order {m[i][j]!r} between "
                        f"{self.names[i]} and {self.names[j]}"
                    )

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


def type_D(n: int) -> CoxeterSystem:
    """Chain s1..s_{n-1} plus s0 attached to s2; D_2 is two commuting nodes."""
    if n < 2:
        raise CoxeterError("D_n needs n >= 2")
    names = tuple(f"s{i}" for i in range(n))
    chain = [(f"s{i}", f"s{i+1}", 3) for i in range(1, n - 1)]
    if n >= 3:
        chain.append(("s0", "s2", 3))
    return system_from_edges(names, chain, label=f"D{n}")


def type_E(n: int) -> CoxeterSystem:
    """Chain s1..s_{n-1} plus s0 attached to s3.

    E_3 = A_2 + A_1 (s0 isolated), E_4 = A_4, E_5 = D_5, and E_9 is the
    affine extension of E_8 (its Gram determinant vanishes).
    """
    if n < 3:
        raise CoxeterError("E_n needs n >= 3")
    names = tuple(f"s{i}" for i in range(n))
    chain = [(f"s{i}", f"s{i+1}", 3) for i in range(1, n - 1)]
    if n >= 4:
        chain.append(("s0", "s3", 3))
    return system_from_edges(names, chain, label=f"E{n}")


def type_BE(n: int) -> CoxeterSystem:
    """Rank n >= 5: chain s1..s_{n-1} with final label 4, s0 attached to s3."""
    if n < 5:
        raise CoxeterError("BE_n needs n >= 5")
    names = tuple(f"s{i}" for i in range(n))
    chain = [(f"s{i}", f"s{i+1}", 3) for i in range(1, n - 2)]
    chain.append((f"s{n-2}", f"s{n-1}", 4))
    chain.append(("s0", "s3", 3))
    return system_from_edges(names, chain, label=f"BE{n}")


def type_BD(n: int) -> CoxeterSystem:
    """Rank n >= 4: chain s1..s_{n-1} with final label 4, s0 attached to s2.

    BD_{l+1} is the affine group usually written as a tilde over B_l.
    """
    if n < 4:
        raise CoxeterError("BD_n needs n >= 4")
    names = tuple(f"s{i}" for i in range(n))
    chain = [(f"s{i}", f"s{i+1}", 3) for i in range(1, n - 2)]
    chain.append((f"s{n-2}", f"s{n-1}", 4))
    chain.append(("s0", "s2", 3))
    return system_from_edges(names, chain, label=f"BD{n}")


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
# geometric representation


def _mat_identity(n: int) -> tuple[tuple[QSqrt2, ...], ...]:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


@dataclass(frozen=True)
class GeometricRepresentation:
    """Exact reflection matrices of a Coxeter system on its root space."""

    system: CoxeterSystem
    gram: tuple[tuple[QSqrt2, ...], ...]
    generators: tuple[tuple[tuple[QSqrt2, ...], ...], ...]

    def generator(self, name: str):
        return self.generators[self.system.index(name)]


def build_geometric_representation(system: CoxeterSystem) -> GeometricRepresentation:
    """Basis vectors of square -1 with <e_i, e_j> = cos(pi/m_ij).

    The sign convention makes wall classes of square -2 correspond to sqrt2
    times a basis vector, so the representation embeds directly into the
    homology lattices used elsewhere.
    """
    n = system.rank
    gram = tuple(
        tuple(
            -ONE if i == j else _cos_pi_over(system.matrix[i][j])
            for j in range(n)
        )
        for i in range(n)
    )
    gens = []
    for j in range(n):
        rows = []
        for r in range(n):
            if r != j:
                rows.append(tuple(ONE if c == r else ZERO for c in range(n)))
            else:
                # sigma_j adds 2<x, e_j> to the e_j coordinate
                rows.append(
                    tuple(
                        (ONE if c == j else ZERO) + 2 * gram[c][j]
                        for c in range(n)
                    )
                )
        gens.append(tuple(rows))
    return GeometricRepresentation(system, gram, tuple(gens))


def _leading_minor_dets(matrix) -> list[QSqrt2]:
    """Determinants of all leading principal minors, exact over Q(sqrt2)."""
    n = len(matrix)
    dets = []
    for k in range(1, n + 1):
        sub = [list(row[:k]) for row in matrix[:k]]
        det = ONE
        sign = 1
        for col in range(k):
            pivot_row = None
            for r in range(col, k):
                if not sub[r][col].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                det = ZERO
                break
            if pivot_row != col:
                sub[col], sub[pivot_row] = sub[pivot_row], sub[col]
                sign = -sign
            pivot = sub[col][col]
            det = det * pivot
            for r in range(col + 1, k):
                factor = sub[r][col] / pivot
                if factor.is_zero():
                    continue
                sub[r] = [
                    x - factor * y for x, y in zip(sub[r], sub[col])
                ]
        dets.append(det if sign > 0 else -det)
    return dets


def is_finite_type(system: CoxeterSystem) -> bool:
    """Sylvester's criterion on the negated Gram matrix of the representation.

    The group is finite exactly when the form <.,.> is negative definite,
    i.e. when every leading principal minor of -Gram is positive.
    """
    if any(m is INF for row in system.matrix for m in row):
        return False
    rep = build_geometric_representation(system)
    neg = tuple(tuple(-x for x in row) for row in rep.gram)
    return all(d.sign() > 0 for d in _leading_minor_dets(neg))


def gram_determinant(system: CoxeterSystem) -> QSqrt2:
    """Determinant of the negated Gram matrix (0 for affine systems)."""
    rep = build_geometric_representation(system)
    neg = tuple(tuple(-x for x in row) for row in rep.gram)
    return _leading_minor_dets(neg)[-1]


def generator_product_order(
    rep: GeometricRepresentation, a: str, b: str, cap: int = 64
) -> Optional[int]:
    """Order of sigma_a sigma_b in the geometric representation.

    Returns None when the order exceeds ``cap`` (in particular for infinite
    dihedral pairs).  Exact matrix arithmetic, no tolerance anywhere.
    """
    n = rep.system.rank
    prod = _mat_mul(rep.generator(a), rep.generator(b))
    ident = _mat_identity(n)
    power = prod
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = _mat_mul(power, prod)
    return None


# ---------------------------------------------------------------------------
# crystallographic structures


@dataclass(frozen=True)
class CrystallographicStructure:
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


@dataclass(frozen=True)
class CrystalReport:
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
    is computed independently of the edge rules.
    """
    rep = build_geometric_representation(struct.system)
    names = struct.system.names
    scales = [struct.scale(n) for n in names]
    bad = []
    for g, gen in zip(names, rep.generators):
        for r in range(len(names)):
            for c in range(len(names)):
                entry = gen[r][c] * scales[c] / scales[r]
                if not entry.is_integer():
                    bad.append(
                        f"generator {g}: entry ({names[r]},{names[c]}) = {entry}"
                    )
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


# ---------------------------------------------------------------------------
# ASCII rendering


_EDGE_GLYPH = {3: "---", 4: "===",}


def _edge_glyph(m) -> str:
    if m is INF:
        return "-oo-"
    return _EDGE_GLYPH.get(m, f"-{m}-")


def ascii_graph(system: CoxeterSystem) -> str:
    """Best-effort drawing: a chain with at most one leg gets a 2D layout,
    anything else an edge list."""
    edges = system.edges()
    deg = {n: 0 for n in system.names}
    for i, j, _ in edges:
        deg[system.names[i]] += 1
        deg[system.names[j]] += 1
    forks = [n for n, d in deg.items() if d > 2]
    if len(forks) > 1:
        return "\n".join(
            f"{system.names[i]} {_edge_glyph(m)} {system.names[j]}"
            for i, j, m in edges
        )
    return _draw_chain_with_leg(system, forks[0] if forks else None)


def _chain_order(system: CoxeterSystem, leg: tuple[str, str] | None) -> list[str]:
    """Vertices of the graph minus the leg edge, walked end to end."""
    adj: dict[str, list[tuple[str, object]]] = {n: [] for n in system.names}
    for i, j, m in system.edges():
        a, b = system.names[i], system.names[j]
        if leg and {a, b} == set(leg):
            continue
        adj[a].append((b, m))
        adj[b].append((a, m))
    in_chain = [n for n in system.names if adj[n]]
    if not in_chain:
        return []
    start = next(n for n in in_chain if len(adj[n]) == 1)
    walk = [start]
    prev = None
    while True:
        nxt = [n for n, _ in adj[walk[-1]] if n != prev]
        if not nxt:
            break
        prev = walk[-1]
        walk.append(nxt[0])
    return walk


def _draw_chain_with_leg(system: CoxeterSystem, fork: str | None) -> str:
    leg_edge = None
    leg_vertex = None
    if fork is not None:
        # pick the neighbor of the fork whose removal leaves a clean chain:
        # prefer an endpoint of degree 1 reached directly from the fork
        deg1 = []
        for i, j, m in system.edges():
            a, b = system.names[i], system.names[j]
            if fork in (a, b):
                other = b if a == fork else a
                deg1.append(other)
        for cand in deg1:
            others = sum(
                1
                for i, j, _ in system.edges()
                if cand in (system.names[i], system.names[j])
            )
            if others == 1:
                leg_edge = (fork, cand)
                leg_vertex = cand
                break
    walk = _chain_order(system, leg_edge)
    isolated = [
        n
        for n in system.names
        if n not in walk and n != leg_vertex
    ]
    if not walk:
        return "   ".join(system.names)
    line = ""
    positions = {}
    for k, v in enumerate(walk):
        if k:
            m = system.order(walk[k - 1], v)
            line += f" {_edge_glyph(m)} "
        positions[v] = len(line)
        line += v
    out = [line]
    if leg_vertex is not None:
        pad = positions[fork] + len(fork) // 2
        out.append(" " * pad + "|")
        out.append(" " * pad + leg_vertex)
    if isolated:
        out.append("isolated: " + ", ".join(isolated))
    return "\n".join(out)


def ascii_dynkin(struct: CrystallographicStructure) -> str:
    """Edge list with label-4 arrows pointing at the short endpoint."""
    sys_ = struct.system
    lines = []
    for i, j, m in sys_.edges():
        a, b = sys_.names[i], sys_.names[j]
        if m == 4:
            if a in struct.short and b not in struct.short:
                lines.append(f"{b} ==> {a}")
            elif b in struct.short and a not in struct.short:
                lines.append(f"{a} ==> {b}")
            else:
                lines.append(f"{a} =?= {b}")
        else:
            lines.append(f"{a} {_edge_glyph(m)} {b}")
    covered = {n for i, j, _ in sys_.edges() for n in (sys_.names[i], sys_.names[j])}
    for n in sys_.names:
        if n not in covered:
            lines.append(n)
    return "\n".join(lines)
