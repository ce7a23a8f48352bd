"""Reflection-group actions on the blow-up lattices.

The group acting on H_2 is generated by one wall reflection per adjacent
pair of exceptional classes, one extra wall (through the line or the fiber),
and the twist along the last exceptional class:

* rational model (blowups >= 3): s0 along L - E_1 - E_2 - E_3,
  s_i along E_i - E_{i+1} for 1 <= i <= l-1, and s_l the twist along E_l;
* ruled model (blowups >= 2): s0 along F - E_1 - E_2, the rest as above.

Period vectors live on the dual side: a symplectic form with periods
(line; mu_1..mu_l) or (fiber, section; mu_1..mu_l) corresponds to the class
line*L - sum mu_i E_i resp. fiber*Y + section*F - sum mu_i E_i, and the
generators act on periods through exactly the same matrices.

Words are recorded in application order: word[0] acts first.  All reduction
routines return words that transport their input to the output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from . import coxeter
from .base import InternalConsistencyError
from .coxeter import INF, CoxeterSystem, system_from_edges
from .lattice import (
    HomologyClass,
    Kind,
    LatticeAutomorphism,
    LatticeError,
    ManifoldModel,
    ModelMismatchError,
    _pair_coeffs,
    adjacent_difference,
    exceptional_class,
    fiber_pair_wall,
    line_triple_wall,
    pairing,
    positive_cone_contains,
    reflection_along,
)


class OutsideConeError(LatticeError):
    """Reduction entry points require the open positive cone."""


class NotReducedError(LatticeError):
    """The operation expects a vector satisfying the period conditions."""


# ---------------------------------------------------------------------------
# generator sets and words


@dataclass(frozen=True)
class GeneratorSet:
    """The named reflection generators of one model."""

    model: ManifoldModel
    names: tuple[str, ...]
    classes: tuple[HomologyClass, ...]

    @cached_property
    def automorphisms(self) -> dict[str, LatticeAutomorphism]:
        return {
            name: reflection_along(c) for name, c in zip(self.names, self.classes)
        }

    def automorphism(self, name: str) -> LatticeAutomorphism:
        try:
            return self.automorphisms[name]
        except KeyError:
            raise LatticeError(f"no generator named {name!r}") from None

    def class_of(self, name: str) -> HomologyClass:
        return self.classes[self.names.index(name)]


def _require_generators(model: ManifoldModel) -> None:
    if model.kind is Kind.RATIONAL and model.blowups < 3:
        raise LatticeError("the rational generator set needs at least 3 blowups")
    if model.kind is Kind.RULED and model.blowups < 2:
        raise LatticeError("the ruled generator set needs at least 2 blowups")


def generator_set(model: ManifoldModel) -> GeneratorSet:
    _require_generators(model)
    l = model.blowups
    if model.kind is Kind.RATIONAL:
        extra = line_triple_wall(model)
    else:
        extra = fiber_pair_wall(model)
    names = ["s0"]
    classes = [extra]
    for i in range(1, l):
        names.append(f"s{i}")
        classes.append(adjacent_difference(model, i))
    names.append(f"s{l}")
    classes.append(exceptional_class(model, l))
    return GeneratorSet(model, tuple(names), tuple(classes))


@dataclass(frozen=True)
class GroupWord:
    """A sequence of generator names, listed in application order."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def evaluate(self, gens: GeneratorSet) -> LatticeAutomorphism:
        acc = LatticeAutomorphism.identity(gens.model)
        for letter in self.letters:
            acc = gens.automorphism(letter) @ acc
        return acc

    def apply_to_coeffs(self, gens: GeneratorSet, coeffs: Sequence) -> tuple:
        out = tuple(coeffs)
        for letter in self.letters:
            out = gens.automorphism(letter).apply_coeffs(out)
        return out

    def __add__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def to_json_list(self) -> list[str]:
        return list(self.letters)


# ---------------------------------------------------------------------------
# expected presentation


def expected_coxeter_system(model: ManifoldModel) -> CoxeterSystem:
    """The Coxeter graph the generator set is asserted to realize.

    Rational blowups l >= 4 give the rank l+1 graph with a label-4 tail and
    the extra node on s3 (l = 3 degenerates to the chain 3-4-4); ruled
    models attach the extra node to s2 instead (l = 2 degenerates to 4-4).
    """
    l = model.blowups
    names = tuple(f"s{i}" for i in range(l + 1))
    edges = [(f"s{i}", f"s{i+1}", 3) for i in range(1, l - 1)]
    edges.append((f"s{l-1}", f"s{l}", 4))
    if model.kind is Kind.RATIONAL:
        if l < 3:
            raise LatticeError("no presentation below 3 blowups in the rational model")
        if l == 3:
            edges.append(("s0", "s3", 4))
            label = "L4-3-4-4"
        else:
            edges.append(("s0", "s3", 3))
            label = f"BE{l + 1}"
    else:
        if l < 2:
            raise LatticeError("no presentation below 2 blowups in the ruled model")
        if l == 2:
            edges.append(("s0", "s2", 4))
            label = "L3-4-4"
        else:
            edges.append(("s0", "s2", 3))
            label = f"BD{l + 1}"
    return system_from_edges(names, edges, label=label)


def _matrix_order(m: LatticeAutomorphism, cap: int) -> Optional[int]:
    ident = LatticeAutomorphism.identity(m.model)
    power = m
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = m @ power
    return None


@dataclass(frozen=True)
class PresentationEntry:
    a: str
    b: str
    expected: object  # int or coxeter.INF
    computed: Optional[int]

    @property
    def ok(self) -> bool:
        if self.expected is INF:
            return self.computed is None
        return self.computed == self.expected


@dataclass(frozen=True)
class PresentationReport:
    model: ManifoldModel
    entries: tuple[PresentationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "ok": self.ok,
            "pairs": [
                {
                    "a": e.a,
                    "b": e.b,
                    "expected": "inf" if e.expected is INF else e.expected,
                    "computed": e.computed,
                    "ok": e.ok,
                }
                for e in self.entries
            ],
        }


def verify_presentation(gens: GeneratorSet, cap: int = 16) -> PresentationReport:
    """Check every pairwise product order on H_2 against the asserted graph.

    The orders are computed with exact integer matrices; the graph is the
    independent combinatorial claim, so the two routes stay separate.
    """
    expected = expected_coxeter_system(gens.model)
    entries = []
    for i, a in enumerate(gens.names):
        for b in gens.names[i + 1 :]:
            product = gens.automorphism(a) @ gens.automorphism(b)
            entries.append(
                PresentationEntry(
                    a, b, expected.order(a, b), _matrix_order(product, cap)
                )
            )
    return PresentationReport(gens.model, tuple(entries))


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitResult:
    model: ManifoldModel
    vectors: frozenset
    truncated: bool

    def sorted_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.vectors)


def orbit(
    gens: GeneratorSet,
    seed: HomologyClass,
    bound: int,
    generator_names: Sequence[str] | None = None,
) -> OrbitResult:
    """Breadth-first orbit of ``seed`` under the chosen generators.

    Vectors whose maximum absolute coefficient exceeds ``bound`` are not
    expanded or recorded; hitting one sets the truncated flag, so a result
    with truncated=False is the complete orbit.
    """
    if seed.model != gens.model:
        raise ModelMismatchError("seed and generators disagree on the model")
    if max(abs(c) for c in seed.coeffs) > bound:
        raise LatticeError("seed already exceeds the coefficient bound")
    names = tuple(generator_names) if generator_names is not None else gens.names
    matrices = [gens.automorphism(n).matrix for n in names]
    start = seed.coeffs
    seen = {start}
    queue = deque([start])
    truncated = False
    while queue:
        current = queue.popleft()
        for mat in matrices:
            nxt = tuple(
                sum(m_ij * c_j for m_ij, c_j in zip(row, current)) for row in mat
            )
            if nxt in seen:
                continue
            if max(abs(c) for c in nxt) > bound:
                truncated = True
                continue
            seen.add(nxt)
            queue.append(nxt)
    return OrbitResult(gens.model, frozenset(seen), truncated)


# ---------------------------------------------------------------------------
# period vectors


def _check_fraction(x) -> Fraction:
    if isinstance(x, bool):
        raise LatticeError("periods must be exact rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise LatticeError(f"period {x!r} has a zero denominator") from None
        except ValueError:
            pass
    raise LatticeError(f"periods must be exact rationals, got {x!r}")


@dataclass(frozen=True)
class PeriodVector:
    """Periods of a (candidate) symplectic form in the fixed basis.

    Rational model: ``line`` is the period over L, ``exceptional[i]`` over
    E_{i+1}.  Ruled model: ``fiber`` is the period over F, ``section`` over
    Y.  The dual homology class has coefficients (line, -mu_1, ..., -mu_l)
    resp. (fiber, section, -mu_1, ..., -mu_l).
    """

    model: ManifoldModel
    exceptional: tuple[Fraction, ...]
    line: Optional[Fraction] = None
    fiber: Optional[Fraction] = None
    section: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "exceptional", tuple(_check_fraction(x) for x in self.exceptional)
        )
        if len(self.exceptional) != self.model.blowups:
            raise LatticeError(
                f"expected {self.model.blowups} exceptional periods, "
                f"got {len(self.exceptional)}"
            )
        if self.model.kind is Kind.RATIONAL:
            if self.line is None or self.fiber is not None or self.section is not None:
                raise LatticeError("rational periods take line= only")
            object.__setattr__(self, "line", _check_fraction(self.line))
        else:
            if self.fiber is None or self.section is None or self.line is not None:
                raise LatticeError("ruled periods take fiber= and section=")
            object.__setattr__(self, "fiber", _check_fraction(self.fiber))
            object.__setattr__(self, "section", _check_fraction(self.section))

    @property
    def head(self) -> tuple[Fraction, ...]:
        if self.model.kind is Kind.RATIONAL:
            return (self.line,)
        return (self.fiber, self.section)

    def dual_coefficients(self) -> tuple[Fraction, ...]:
        return self.head + tuple(-m for m in self.exceptional)

    @classmethod
    def from_dual_coefficients(
        cls, model: ManifoldModel, coeffs: Sequence
    ) -> "PeriodVector":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if model.kind is Kind.RATIONAL:
            return cls(model, tuple(-c for c in coeffs[1:]), line=coeffs[0])
        return cls(
            model,
            tuple(-c for c in coeffs[2:]),
            fiber=coeffs[0],
            section=coeffs[1],
        )

    def period_of(self, c: HomologyClass) -> Fraction:
        """The period over an integral class (pairing with the dual class)."""
        if c.model != self.model:
            raise ModelMismatchError("class and periods disagree on the model")
        return _pair_coeffs(self.model, self.dual_coefficients(), c.coeffs)

    def satisfies_period_conditions(self) -> bool:
        _require_generators(self.model)
        mus = self.exceptional
        if any(mus[i] < mus[i + 1] for i in range(len(mus) - 1)):
            return False
        if mus[-1] < 0:
            return False
        if self.model.kind is Kind.RATIONAL:
            return self.line >= mus[0] + mus[1] + mus[2]
        return self.fiber >= mus[0] + mus[1]

    def __str__(self) -> str:
        mus = ",".join(str(m) for m in self.exceptional)
        if self.model.kind is Kind.RATIONAL:
            return f"({self.line}; {mus})"
        return f"({self.fiber}, {self.section}; {mus})"

    def to_json_dict(self) -> dict:
        out: dict = {"model": self.model.to_json_dict()}
        if self.model.kind is Kind.RATIONAL:
            out["line"] = str(self.line)
        else:
            out["fiber"] = str(self.fiber)
            out["section"] = str(self.section)
        out["exceptional"] = [str(m) for m in self.exceptional]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PeriodVector":
        try:
            model = ManifoldModel.from_json_dict(data["model"])
            # __post_init__ validates every entry with _check_fraction
            if isinstance(data["exceptional"], str):
                raise LatticeError("'exceptional' must be a list of periods")
            mus = tuple(data["exceptional"])
            if model.kind is Kind.RATIONAL:
                return cls(model, mus, line=data["line"])
            return cls(model, mus, fiber=data["fiber"], section=data["section"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"malformed period JSON: {exc}") from exc


def rational_periods(blowups: int, line, mus) -> PeriodVector:
    from .lattice import rational_model

    return PeriodVector(
        rational_model(blowups),
        tuple(_check_fraction(m) for m in mus),
        line=_check_fraction(line),
    )


def ruled_periods(blowups: int, fiber, section, mus, genus: int = 1) -> PeriodVector:
    from .lattice import ruled_model

    return PeriodVector(
        ruled_model(blowups, genus),
        tuple(_check_fraction(m) for m in mus),
        fiber=_check_fraction(fiber),
        section=_check_fraction(section),
    )


# ---------------------------------------------------------------------------
# period reduction


@dataclass(frozen=True)
class PeriodReduction:
    reduced: PeriodVector
    word: GroupWord
    boundary_flags: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "reduced": self.reduced.to_json_dict(),
            "word": self.word.to_json_list(),
            "boundary_flags": list(self.boundary_flags),
        }


def _boundary_flags(p: PeriodVector) -> tuple[str, ...]:
    """Names of the generators whose walls contain the reduced vector."""
    mus = p.exceptional
    l = len(mus)
    flags = []
    if p.model.kind is Kind.RATIONAL:
        if p.line == mus[0] + mus[1] + mus[2]:
            flags.append("s0")
    else:
        if p.fiber == mus[0] + mus[1]:
            flags.append("s0")
    for i in range(1, l):
        if mus[i - 1] == mus[i]:
            flags.append(f"s{i}")
    if mus[-1] == 0:
        flags.append(f"s{l}")
    return tuple(flags)


def reduce_periods(p: PeriodVector) -> PeriodReduction:
    """Transport a period vector into the fundamental domain.

    The loop bubble-sorts the exceptional periods (adjacent transpositions),
    flips a trailing negative entry with the twist, and crosses the extra
    wall whenever the leading inequality fails.  Internally the vector is
    scaled to integers; the head period that the extra wall strictly
    decreases (line resp. section) is a positive integer throughout, which
    bounds the number of wall crossings.

    Zero exceptional periods are legal; the walls containing the reduced
    vector are reported in ``boundary_flags``.
    """
    _require_generators(p.model)
    if not positive_cone_contains(p):
        raise OutsideConeError(f"{p} is not in the open positive cone")
    denom = lcm(
        *(x.denominator for x in p.head),
        *(x.denominator for x in p.exceptional),
    )
    head = [int(x * denom) for x in p.head]
    mus = [int(x * denom) for x in p.exceptional]
    l = len(mus)
    rational = p.model.kind is Kind.RATIONAL
    letters: list[str] = []

    def sort_pass() -> None:
        swapped = True
        while swapped:
            swapped = False
            for i in range(1, l):
                if mus[i - 1] < mus[i]:
                    mus[i - 1], mus[i] = mus[i], mus[i - 1]
                    letters.append(f"s{i}")
                    swapped = True

    while True:
        sort_pass()
        if mus[-1] < 0:
            mus[-1] = -mus[-1]
            letters.append(f"s{l}")
            continue
        if rational:
            gap = head[0] - (mus[0] + mus[1] + mus[2])
            if gap < 0:
                lam = head[0]
                head[0] = lam + gap  # line' = 2*line - (mu1+mu2+mu3)
                mus[0], mus[1], mus[2] = (
                    lam - mus[1] - mus[2],
                    lam - mus[0] - mus[2],
                    lam - mus[0] - mus[1],
                )
                letters.append("s0")
                continue
        else:
            gap = head[0] - (mus[0] + mus[1])
            if gap < 0:
                fib = head[0]
                mus[0], mus[1] = fib - mus[1], fib - mus[0]
                head[1] += gap
                letters.append("s0")
                continue
        break

    reduced = PeriodVector.from_dual_coefficients(
        p.model,
        [Fraction(h, denom) for h in head]
        + [Fraction(-m, denom) for m in mus],
    )
    if not reduced.satisfies_period_conditions():
        raise InternalConsistencyError(f"reduction of {p} missed the domain")
    return PeriodReduction(reduced, GroupWord(tuple(letters)), _boundary_flags(reduced))


# ---------------------------------------------------------------------------
# class reduction


@dataclass(frozen=True)
class ClassReduction:
    """Outcome of transporting a square -1 class toward the last exceptional.

    When ``in_orbit`` is true, ``word`` moves the input onto E_l exactly.
    Otherwise ``word`` moves the input to ``stalled``, a normalized vector
    on which no generator makes progress; its existence certifies the class
    is not in the orbit.
    """

    in_orbit: bool
    word: GroupWord
    canonical: Optional[HomologyClass] = None
    stalled: Optional[HomologyClass] = None

    def to_json_dict(self) -> dict:
        out: dict = {"in_orbit": self.in_orbit, "word": self.word.to_json_list()}
        if self.canonical is not None:
            out["canonical"] = self.canonical.to_json_dict()
        if self.stalled is not None:
            out["stalled"] = self.stalled.to_json_dict()
        return out


def _twist_word(l: int, i: int) -> list[str]:
    """Letters conjugating the E_l twist to the E_i twist (a palindrome)."""
    up = [f"s{j}" for j in range(i, l)]
    return up + [f"s{l}"] + list(reversed(up))


def _transpositions(i: int, j: int) -> list[str]:
    """Letters moving slot i to slot j by adjacent swaps (i < j)."""
    return [f"s{k}" for k in range(i, j)]


def _fiber_step_word(l: int, increment: bool) -> list[str]:
    """Letters for the isometry sending E_1 + kF to E_1 + (k +- 1)F.

    Both words conjugate the order-2 composite (extra wall, then s1) by
    twists; which twists come first decides the direction of the F shift.
    """
    t1 = _twist_word(l, 1)
    t2 = _twist_word(l, 2)
    core = ["s0", "s1"]
    if increment:
        return core + t2 + t1
    return t1 + core + t2


def reduce_class(gens: GeneratorSet, c: HomologyClass) -> ClassReduction:
    """Decide orbit membership of a square -1 class, with a word certificate.

    Rational model: descend on |k| (the L coefficient).  With k > 0, all
    m_i >= 0 and sorted, either m_1 + m_2 + m_3 > k and the extra wall
    strictly shrinks k, or m_1 + m_2 + m_3 <= k and no generator ever
    changes that, which certifies non-membership.  k < 0 runs the mirror
    descent; k = 0 forces the class to be +-E_j.

    Ruled model: the Y coefficient is invariant under every generator, so
    it must vanish; then c = +-E_j + kF and the F multiple is walked to
    zero with the step isometries.
    """
    model = gens.model
    if c.model != model:
        raise ModelMismatchError("class and generators disagree on the model")
    if c.square != -1:
        raise LatticeError(f"reduce_class expects square -1, got {c.square}")
    l = model.blowups
    letters: list[str] = []
    coeffs = list(c.coeffs)

    def apply(word_letters: Sequence[str]) -> None:
        nonlocal coeffs
        for letter in word_letters:
            coeffs = list(gens.automorphism(letter).apply_coeffs(coeffs))

    if model.kind is Kind.RULED:
        if coeffs[0] != 0:
            return ClassReduction(
                False, GroupWord(()), stalled=HomologyClass(model, coeffs)
            )
        j = next(i for i in range(1, l + 1) if coeffs[1 + i] != 0)
        if coeffs[1 + j] == -1:
            apply(tw := _twist_word(l, j))
            letters += tw
        if j > 1:
            # swap down to slot 1
            down = [f"s{k}" for k in range(j - 1, 0, -1)]
            apply(down)
            letters += down
        while coeffs[1] != 0:
            step = _fiber_step_word(l, increment=coeffs[1] < 0)
            apply(step)
            letters += step
        if l > 1:
            apply(up := _transpositions(1, l))
            letters += up
        final = HomologyClass(model, coeffs)
        if final != exceptional_class(model, l):
            raise InternalConsistencyError(f"ruled reduction landed on {final}")
        return ClassReduction(True, GroupWord(tuple(letters)), canonical=final)

    # rational model
    while True:
        k = coeffs[0]
        if k == 0:
            break
        sign = 1 if k > 0 else -1
        # align every exceptional coefficient against the sign of k, then
        # sort the m_i (m_i = -coeffs[i]) with the largest slot first for
        # k > 0, the mirror order for k < 0
        for i in range(1, l + 1):
            if sign * coeffs[i] > 0:
                apply(tw := _twist_word(l, i))
                letters += tw
        swapped = True
        while swapped:
            swapped = False
            for i in range(1, l):
                if sign * coeffs[i] > sign * coeffs[i + 1]:
                    apply([f"s{i}"])
                    letters.append(f"s{i}")
                    swapped = True
        top3 = -(coeffs[1] + coeffs[2] + coeffs[3])
        if sign * (top3 - k) <= 0:
            return ClassReduction(
                False,
                GroupWord(tuple(letters)),
                stalled=HomologyClass(model, coeffs),
            )
        apply(["s0"])
        letters.append("s0")
        if abs(coeffs[0]) >= abs(k):
            raise InternalConsistencyError("wall crossing failed to shrink k")

    j = next(i for i in range(1, l + 1) if coeffs[i] != 0)
    if coeffs[j] == -1:
        apply(tw := _twist_word(l, j))
        letters += tw
    if j < l:
        apply(up := _transpositions(j, l))
        letters += up
    final = HomologyClass(model, coeffs)
    if final != exceptional_class(model, l):
        raise InternalConsistencyError(f"rational reduction landed on {final}")
    return ClassReduction(True, GroupWord(tuple(letters)), canonical=final)


# ---------------------------------------------------------------------------
# Lagrangian systems


_COMPONENT_RANK_CAP = 8


def _component_label(names: list[str], adj: dict[str, list[str]]) -> str:
    """Classify one connected simply-laced component (path or single fork)."""
    n = len(names)
    degrees = {v: len(adj[v]) for v in names}
    forks = [v for v in names if degrees[v] >= 3]
    if not forks:
        return f"A{n}"
    if len(forks) > 1 or degrees[forks[0]] > 3:
        raise InternalConsistencyError("unexpected branching in a Lagrangian system")
    fork = forks[0]
    arms = []
    for start in adj[fork]:
        length = 1
        prev, cur = fork, start
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise InternalConsistencyError("unexpected branching in a Lagrangian system")
    if arms[1] == 1:
        return f"D{arms[2] + 3}"
    if arms[1] == 2:
        label = f"E{arms[2] + 4}"
        if arms[2] + 4 > _COMPONENT_RANK_CAP:
            raise InternalConsistencyError(f"infinite-type component {label}")
        return label
    raise InternalConsistencyError("unexpected branching in a Lagrangian system")


@dataclass(frozen=True)
class LagrangianSystem:
    """The zero-period wall classes of a reduced vector, with their type."""

    model: ManifoldModel
    member_names: tuple[str, ...]
    member_classes: tuple[HomologyClass, ...]
    system: CoxeterSystem
    components: tuple[str, ...]

    @property
    def label(self) -> str:
        if not self.components:
            return "trivial"
        return "+".join(self.components)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "members": [
                {"name": n, "class": str(c)}
                for n, c in zip(self.member_names, self.member_classes)
            ],
            "label": self.label,
            "components": list(self.components),
        }


def _sorted_component_labels(labels: list[str]) -> tuple[str, ...]:
    return tuple(sorted(labels, key=lambda s: (-int(s[1:]), s[0])))


def lagrangian_system(p: PeriodVector) -> LagrangianSystem:
    """Wall classes with zero period, assembled into a Coxeter system.

    Input must satisfy the period conditions (reduce first).  Members keep
    their generator names; the twist wall E_l is excluded because its class
    has square -1, not -2, so it never bounds a Lagrangian sphere system.
    """
    if not p.satisfies_period_conditions():
        raise NotReducedError(f"{p} does not satisfy the period conditions")
    gens = generator_set(p.model)
    l = p.model.blowups
    wall_names = [n for n in gens.names if n != f"s{l}"]
    members = [
        (n, gens.class_of(n)) for n in wall_names if p.period_of(gens.class_of(n)) == 0
    ]
    names = [n for n, _ in members]
    classes = [c for _, c in members]
    edges = []
    adj: dict[str, list[str]] = {n: [] for n in names}
    for i, (na, ca) in enumerate(members):
        for nb, cb in members[i + 1 :]:
            val = pairing(ca, cb)
            if val not in (-1, 0, 1):
                raise InternalConsistencyError(
                    f"wall classes {na}, {nb} pair to {val}"
                )
            if val != 0:
                edges.append((na, nb, 3))
                adj[na].append(nb)
                adj[nb].append(na)
    system = system_from_edges(tuple(names), edges)
    labels = []
    unvisited = set(names)
    for start in names:
        if start not in unvisited:
            continue
        comp = [start]
        unvisited.discard(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in unvisited:
                    unvisited.discard(w)
                    comp.append(w)
                    frontier.append(w)
        labels.append(_component_label(comp, adj))
    if not coxeter.is_finite_type(system):
        raise InternalConsistencyError("Lagrangian system is not finite type")
    return LagrangianSystem(
        p.model,
        tuple(names),
        tuple(classes),
        system,
        _sorted_component_labels(labels),
    )


@dataclass(frozen=True)
class MaximalMembership:
    """The first maximal Lagrangian system containing the given one."""

    container_label: str
    container_names: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "container": self.container_label,
            "members": list(self.container_names),
        }


def maximal_system_membership(sys: LagrangianSystem) -> MaximalMembership:
    """Place a system inside a maximal one.

    Ruled models have a single maximal system (all wall classes, type D_l).
    Rational models with at most 8 blowups ditto (type E_l).  From 9 blowups
    on the maximal systems drop one wall each; positivity of the periods
    forces at least one of s0..s8 to be absent, and the first absent one in
    that scan order names the container.
    """
    l = sys.model.blowups
    present = set(sys.member_names)
    all_names = tuple(f"s{i}" for i in range(l))
    if sys.model.kind is Kind.RULED:
        return MaximalMembership(f"D{l}", all_names)
    if l <= _COMPONENT_RANK_CAP:
        return MaximalMembership(f"E{l}", all_names)

    def without(k: int) -> tuple[str, ...]:
        return tuple(n for n in all_names if n != f"s{k}")

    if "s0" not in present:
        return MaximalMembership(f"A{l - 1}", without(0))
    if "s1" not in present:
        return MaximalMembership(f"D{l - 1}", without(1))
    if "s2" not in present:
        return MaximalMembership(f"A1+A{l - 2}", without(2))
    for k in range(3, _COMPONENT_RANK_CAP + 1):
        if f"s{k}" not in present:
            return MaximalMembership(f"E{k}+A{l - k - 1}", without(k))
    raise InternalConsistencyError("system contains an affine E9 subgraph")
