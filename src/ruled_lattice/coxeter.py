"""Coxeter systems, their Gram matrices and crystallographic structures.

A Coxeter system is stored as its graph: the pairs of generators whose
order is not 2, each with its order in {3, 4, oo} (larger finite labels
never occur for the groups treated here and are rejected).  Its JSON form
is the dense symmetric matrix of pair orders.  The geometric representation
places one basis vector per generator with <e_j, e_j> = -1 and
<e_i, e_j> = cos(pi/m_ij), all of which lies in Q(sqrt2), so every
definiteness computation below is exact.

Finite type is decided twice, by classifying the graph and by Sylvester's
criterion on the negated Gram matrix, eliminated over the graph.  A
crystallographic structure is a split of the generators into short and long
ones; rescaling the long basis vectors by sqrt2 must turn every generator
matrix into an integer matrix, and the combinatorial shadow of that
condition (which edge labels may join which parts) is checked separately so
the two routes can be compared.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .base import INF, CoxeterError, InternalConsistencyError, Record
from .qsqrt2 import HALF, HALF_SQRT2, ONE, QSqrt2, SQRT2, ZERO


def _check_pair_order(m, a: str, b: str) -> None:
    """An off-diagonal order is the int 2, 3 or 4 (not a float or bool) or INF."""
    if not (m is INF or (type(m) is int and m in (2, 3, 4))):
        raise CoxeterError(f"unsupported pair order {m!r} between {a} and {b}")


def _cos_pi_over(m) -> QSqrt2:
    if m is INF:
        return ONE
    return {2: ZERO, 3: HALF, 4: HALF_SQRT2}[m]


def _slots(names: Sequence[str]) -> dict[str, int]:
    """Each generator name's index; the names must be distinct strings."""
    if not all(isinstance(name, str) for name in names):
        raise CoxeterError("generator names must be strings")
    slots = {name: i for i, name in enumerate(names)}
    if len(slots) != len(names):
        raise CoxeterError("generator names must be distinct")
    return slots


class CoxeterSystem(Record):
    """A finite set of named generators with pairwise orders, kept as a graph.

    ``pairs`` maps (i, j), i < j, to the order of the i-th and j-th
    generators wherever it is not 2 (given as a dict or its items, kept as a
    dict in increasing (i, j)); every other pair commutes.  The optional
    label is a display name ("E6", "BD5", ..); it never takes part in
    equality.
    """

    names: tuple[str, ...]
    pairs: dict
    label: Optional[str] = None

    def __post_init__(self) -> None:
        slots = _slots(self.names)
        given = dict(self.pairs)
        for (i, j), m in given.items():
            if not (type(i) is int and type(j) is int and 0 <= i < j < len(slots)):
                raise CoxeterError(f"pair {(i, j)!r} is not i < j < {len(slots)}")
            _check_pair_order(m, self.names[i], self.names[j])
        pairs = {key: m for key, m in sorted(given.items()) if m != 2}
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_slots", slots)

    def _key(self) -> tuple:
        return (self.names, tuple(self.pairs.items()))  # the label is left out

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._slots[name]
        except KeyError:
            raise CoxeterError(f"no generator named {name!r}") from None

    def order(self, a: str, b: str):
        i, j = sorted((self.index(a), self.index(b)))
        return 1 if i == j else self.pairs.get((i, j), 2)

    def edges(self) -> list[tuple[int, int, object]]:
        """The edges (i, j, order) of the Coxeter graph, in increasing (i, j)."""
        return [(i, j, m) for (i, j), m in self.pairs.items()]

    def to_json_dict(self) -> dict:
        n = self.rank
        matrix = [[2] * i + [1] + [2] * (n - 1 - i) for i in range(n)]
        for (i, j), m in self.pairs.items():
            matrix[i][j] = matrix[j][i] = "inf" if m is INF else m
        out: dict = {"names": list(self.names), "matrix": matrix}
        if self.label is not None:
            out["label"] = self.label
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoxeterSystem":
        """The system of a dense order matrix, every entry checked in row
        order, pair (i, j) at row i's column j > i.  A pair of two int 2s
        passes every check, so only the other pairs are looked at."""
        try:
            if not isinstance(data["names"], list):
                raise CoxeterError("'names' must be a list of generator names")
            if not isinstance(data.get("label"), (str, type(None))):
                raise CoxeterError("'label' must be a string")
            names = tuple(data["names"])
            rows = [r if isinstance(r, (list, tuple)) else list(r) for r in data["matrix"]]
        except (KeyError, TypeError) as exc:
            raise CoxeterError(f"malformed Coxeter JSON: {exc}") from exc
        _slots(names)
        n = len(names)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise CoxeterError(f"matrix must be {n}x{n}")
        todo = {(i, i) for i in range(n)}
        for i, row in enumerate(rows):
            ends = (j for j, x in enumerate(row) if x != 2 or type(x) is not int)
            todo.update((min(i, j), max(i, j)) for j in ends)
        pairs = {}
        for i, j in sorted(todo):
            m, mirror = (INF if x == "inf" else x for x in (rows[i][j], rows[j][i]))
            if i == j:
                if m != 1 or type(m) is not int:
                    raise CoxeterError("diagonal entries must be 1")
                continue
            if m is not mirror and m != mirror:
                raise CoxeterError("matrix must be symmetric")
            for x in (m, mirror):
                _check_pair_order(x, names[i], names[j])
            pairs[i, j] = m
        return cls(names, pairs, label=data.get("label"))


# ---------------------------------------------------------------------------
# named systems


def linear(
    labels: Sequence, names: Sequence[str] | None = None, label: Optional[str] = None
) -> CoxeterSystem:
    """A chain with the given consecutive edge labels (rank len(labels)+1)."""
    if names is None:
        names = [f"s{i}" for i in range(1, len(labels) + 2)]
    if len(names) != len(labels) + 1:
        raise CoxeterError("need one more name than labels")
    return CoxeterSystem(tuple(names), {(i, i + 1): m for i, m in enumerate(labels)}, label=label)


def _chain_with_leg(n: int, leg: int, label: str, tail=3, leg_label=3) -> CoxeterSystem:
    """s0..s_{n-1} as the chain s1..s_{n-1}, labelled 3 but for a final ``tail``,
    with s0 joined to s_leg by ``leg_label`` when s_leg exists."""
    labels = ([3] * (n - 2) + [tail])[1:]  # n - 2 labels; none for n <= 2
    pairs = {(i, i + 1): m for i, m in enumerate(labels, 1)}
    if leg < n:
        pairs[0, leg] = leg_label
    return CoxeterSystem(tuple(f"s{i}" for i in range(n)), pairs, label=label)


# family: (least rank, label of the chain's last edge, the node s0 joins or
# None for the plain chain s1..s_n).  E_3 = A_2 + A_1 (s0 isolated),
# E_4 = A_4, E_5 = D_5, and E_9 is the affine extension of E_8 (its Gram
# determinant vanishes); D_2 is two commuting nodes; BD_{l+1} is the affine
# group usually written as a tilde over B_l.
_FAMILIES = {
    "A": (1, 3, None),
    "B": (2, 4, None),
    "D": (2, 3, 2),
    "E": (3, 3, 3),
    "BE": (5, 4, 3),
    "BD": (4, 4, 2),
}

# label: (names in chain order, edge labels, the standard short generators)
_SMALL = {
    "L4-3-4-4": (("s1", "s2", "s3", "s0"), (3, 4, 4), {"s3"}),
    "L3-4-4": (("s1", "s2", "s0"), (4, 4), {"s2"}),
    "L3-4-INF": (("s1", "s2", "s0*"), (4, INF), {"s2", "s0*"}),
    "I2-INF": (("s1", "s1*"), (INF,), {"s1", "s1*"}),
}


def family(name: str, n: int) -> CoxeterSystem:
    """The rank n member of family A, B, D, E, BE or BD, labelled e.g. "BE7"."""
    least, tail, leg = _FAMILIES[name]
    if n < least:
        raise CoxeterError(f"{name}_n needs n >= {least}")
    if leg is None:
        return linear(([3] * (n - 1) + [tail])[1:], label=f"{name}{n}")
    return _chain_with_leg(n, leg, f"{name}{n}", tail=tail)


def _small(label: str) -> CoxeterSystem:
    names, labels, _ = _SMALL[label]
    return linear(labels, names=names, label=label)


def from_name(name: str) -> CoxeterSystem:
    """Resolve a named system: A5, B3, D4, E3..E9, BE5.., BD4.., L4-3-4-4,
    L3-4-inf, I2-inf and general Lk-m1-...-m{k-1} chains."""
    text = name.strip()
    if not text:
        raise CoxeterError("empty Coxeter system name")
    if text.upper() in ("I2-INF", "I2(INF)"):
        return _small("I2-INF")
    head = text[:2].upper()
    if head in ("BE", "BD"):
        try:
            n = int(text[2:])
        except ValueError:
            raise CoxeterError(f"cannot parse rank in {name!r}") from None
        return family(head, n)
    if text[0].upper() in "ABDE" and text[1:].isdecimal():
        n = int(text[1:])
        if text[0].upper() == "E" and not 3 <= n <= 9:
            raise CoxeterError("E_n is supported for n = 3..9")
        return family(text[0].upper(), n)
    if text[0].upper() == "L":
        bits = text[1:].split("-")
        try:
            k = int(bits[0])
        except ValueError:
            raise CoxeterError(f"cannot parse rank in {name!r}") from None
        if k < 1:
            raise CoxeterError("L_k needs k >= 1")
        bad = [b for b in bits[1:] if not b.isdecimal() and b.lower() not in ("inf", "oo")]
        if bad:
            raise CoxeterError(f"bad edge label {bad[0]!r} in {name!r}")
        labels = [int(b) if b.isdecimal() else INF for b in bits[1:]]
        if len(labels) != k - 1:
            raise CoxeterError(f"L{k} needs {k-1} labels, got {len(labels)}")
        small = f"L{k}-" + "-".join("INF" if m is INF else str(m) for m in labels)
        return _small(small) if small in _SMALL else linear(labels)
    raise CoxeterError(f"unknown Coxeter system name {name!r}")


# ---------------------------------------------------------------------------
# the Gram matrix of the geometric representation


def _gram_rows(system: CoxeterSystem) -> list[dict[int, QSqrt2]]:
    """Row i of the Gram matrix as {column: entry} over its nonzero entries:
    the diagonal, then i's neighbours in increasing order."""
    rows = [{i: -ONE} for i in range(system.rank)]
    for (i, j), m in system.pairs.items():
        rows[i][j] = rows[j][i] = _cos_pi_over(m)
    return rows


def _gram_pivots(system: CoxeterSystem) -> Iterator[tuple[QSqrt2, bool]]:
    """The pivots of one Gaussian elimination of Gram, each with whether a
    row swap came before it; a column with no pivot left ends it with 0.

    The elimination is exact over Q(sqrt2).  While no row swap has been
    needed the k-th pivot is the ratio of the k-th to the (k-1)-th leading
    principal minor, so -Gram is positive definite exactly when every pivot
    is negative; a needed swap means a minor vanished.  Rows keep only their
    nonzero entries and ``below[c]`` the rows with an entry in column c: the
    dense arithmetic with the zeros skipped.  Along a tree, as in every
    named system, nothing fills in, so the cost is linear in the rank.
    """
    rows = _gram_rows(system)
    n = len(rows)
    below = [set(row) for row in rows]  # Gram is symmetric
    for col in range(n):
        pivot_row = min((r for r in below[col] if r >= col), default=None)
        if pivot_row is None:
            yield ZERO, False
            return
        if pivot_row != col:
            for c in rows[col].keys() ^ rows[pivot_row].keys():
                below[c] ^= {col, pivot_row}
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        yield pivot, pivot_row != col
        # columns < col are gone from the rows below: the tail lies to the right
        tail = [(c, y) for c, y in rows[col].items() if c != col]
        for r in below[col]:
            if r <= col:
                continue
            row = rows[r]
            factor = row.pop(col) / pivot
            for c, y in tail:
                x = row.get(c, ZERO) - factor * y
                if x:
                    row[c] = x
                    below[c].add(r)
                else:
                    row.pop(c, None)
                    below[c].discard(r)


def _definite(system: CoxeterSystem) -> bool:
    """Whether -Gram is positive definite, by the pivot signs alone: the
    elimination stops at the first swap or pivot that is not negative, and
    no determinant is multiplied out (on A_n its denominator grows to 2^n)."""
    return all(not swapped and p.sign() < 0 for p, swapped in _gram_pivots(system))


def _component_type(nodes: list[int], adj: list[list[tuple[int, object]]]) -> Optional[str]:
    """The type of one connected component, None when it is infinite."""
    n = len(nodes)
    orders = [m for v in nodes for _, m in adj[v]]  # each edge twice
    if len(orders) != 2 * (n - 1) or INF in orders:  # a cycle or an oo edge
        return None
    forks = [v for v in nodes if len(adj[v]) > 2]
    fours = [(v, w) for v in nodes for w, m in adj[v] if m == 4 and v < w]
    if not forks and len(fours) <= 1:
        if not fours:
            return f"A{n}"
        if min(len(adj[v]) for v in fours[0]) == 1:
            return f"B{n}"
        return "F4" if n == 4 else None
    if len(forks) > 1 or fours or len(adj[forks[0]]) > 3:
        return None
    arms = []
    for start, _ in adj[forks[0]]:  # each arm is a path from the fork to a leaf
        length, prev, cur = 1, forks[0], start
        while len(adj[cur]) == 2:
            prev, cur = cur, next(w for w, _ in adj[cur] if w != prev)
            length += 1
        arms.append(length)
    a, b, c = sorted(arms)
    if (a, b) == (1, 1):
        return f"D{n}"
    return f"E{n}" if (a, b) == (1, 2) and c <= 4 else None


def component_types(system: CoxeterSystem) -> Optional[tuple[str, ...]]:
    """The type of each connected component, largest rank first, or None
    when the group is infinite.

    Pair orders lie in {2, 3, 4, oo}, so a connected graph is finite exactly
    when it is the path A_n, the path B_n with its one 4 on an end edge, the
    path F4 with its 4 in the middle, or a tree with one fork of degree 3,
    no 4 and arms (1, 1, k) (D_{k+3}) or (1, 2, 2..4) (E6..E8) (Humphreys,
    Reflection Groups and Coxeter Groups, 2.4-2.7).  The pivot signs of
    ``_definite`` must agree: InternalConsistencyError if not.
    """
    adj: list[list[tuple[int, object]]] = [[] for _ in system.names]
    for (i, j), m in system.pairs.items():
        adj[i].append((j, m))
        adj[j].append((i, m))
    unseen = set(range(len(adj)))
    types = []  # in any order: they are sorted below
    while unseen:
        nodes = [unseen.pop()]
        for v in nodes:  # a list iterator also yields what is appended meanwhile
            for w, _ in adj[v]:
                if w in unseen:
                    unseen.remove(w)
                    nodes.append(w)
        types.append(_component_type(nodes, adj))
    finite = None not in types
    if finite != _definite(system):
        raise InternalConsistencyError("graph classification and Gram pivot signs disagree")
    return tuple(sorted(types, key=lambda s: (-int(s[1:]), s[0]))) if finite else None


def is_finite_type(system: CoxeterSystem) -> bool:
    """Whether the group is finite, by ``component_types`` (two routes)."""
    return component_types(system) is not None


def gram_determinant(system: CoxeterSystem) -> QSqrt2:
    """Determinant of the negated Gram matrix (0 for affine systems): the
    product of the pivots, a row swap flipping the sign."""
    det = -ONE if system.rank % 2 else ONE  # det(-Gram) = (-1)^n det(Gram)
    for pivot, swapped in _gram_pivots(system):
        det = det * (-pivot if swapped else pivot)
    return det


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "CrystallographicStructure":
        short, system = data.get("short"), data.get("system")
        if not isinstance(short, list) or any(not isinstance(s, str) for s in short):
            raise CoxeterError("'crystal.short' must be a JSON array of names")
        if not isinstance(system, dict):
            raise CoxeterError("'crystal.system' must be a JSON object")
        return cls(CoxeterSystem.from_json_dict(system), frozenset(short))


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
    scales = [struct.scale(n) for n in names]
    bad = []
    for j, (g, row) in enumerate(zip(names, _gram_rows(struct.system))):
        for c, x in row.items():  # an entry off j's row of Gram is 0 at any scale
            entry = ((ONE if c == j else ZERO) + 2 * x) * scales[c] / scales[j]
            if not entry.is_integer():
                bad.append(f"generator {g}: entry ({g},{names[c]}) = {entry}")
    return CrystalReport(not bad, tuple(bad))


def standard_crystal(name: str) -> CrystallographicStructure:
    """The crystallographic structures used by the surface models.

    The twist generators (reflections along square -1 classes) are short;
    everything reachable through label-3/oo edges shares its part, label-4
    edges flip parts.
    """
    upper = name.strip().upper()
    if upper[:2] not in ("BE", "BD") and upper not in _SMALL:
        raise CoxeterError(f"no standard crystallographic structure for {name!r}")
    system = from_name(name)
    short = _SMALL[upper][2] if upper in _SMALL else {system.names[-1]}
    return CrystallographicStructure(system, frozenset(short))
