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

from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from .base import (
    INF,
    InternalConsistencyError,
    Record,
    is_fraction,
    is_int_text,
    rational_text,
)
from .lattice import (
    HomologyClass,
    Kind,
    LatticeAutomorphism,
    LatticeError,
    ManifoldModel,
    ModelMismatchError,
    RootAction,
    _check_int_coeffs,
    _check_length,
    _pair_coeffs,
    adjacent_difference,
    exceptional_class,
    fiber_pair_wall,
    line_triple_wall,
    pairing,
    positive_cone_contains,
    reflect_coeffs,
    reflection_along,
    root_action,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .coxeter import CoxeterSystem

# ``coxeter`` (with ``qsqrt2``) is imported only where a Coxeter system is
# built, and ``fractions`` only by PeriodVector._fractions, so that
# reductions, orbits and class moves load neither.


class OutsideConeError(LatticeError):
    """Reduction entry points require the open positive cone."""


class NotReducedError(LatticeError):
    """The operation expects a vector satisfying the period conditions."""


# ---------------------------------------------------------------------------
# generator sets and words


class GeneratorSet(Record):
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
        try:
            return self.classes[self.names.index(name)]
        except ValueError:
            raise LatticeError(f"no generator named {name!r}") from None

    @cached_property
    def _root_actions(self) -> dict[str, RootAction]:
        return {}

    def root_action(self, name: str) -> RootAction:
        """The sparse action of one generator, see ``lattice.root_action``."""
        action = self._root_actions.get(name)
        if action is None:
            action = self._root_actions[name] = root_action(self.class_of(name))
        return action


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


class GroupWord(Record):
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
        _check_length(gens.model, out)
        for letter in self.letters:
            out = gens.automorphism(letter)._product(out)
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
    The two degenerate chains keep the generator order s0..s_l, which
    coxeter.L4_344 and coxeter.L3_44 do not.
    """
    from . import coxeter

    l = model.blowups
    if model.kind is Kind.RATIONAL:
        if l < 3:
            raise LatticeError("no presentation below 3 blowups in the rational model")
        if l > 3:
            return coxeter.type_BE(l + 1)
        edges = [("s1", "s2", 3), ("s2", "s3", 4), ("s0", "s3", 4)]
        label = "L4-3-4-4"
    else:
        if l < 2:
            raise LatticeError("no presentation below 2 blowups in the ruled model")
        if l > 2:
            return coxeter.type_BD(l + 1)
        edges = [("s1", "s2", 4), ("s0", "s2", 4)]
        label = "L3-4-4"
    names = [f"s{i}" for i in range(l + 1)]
    return coxeter.system_from_edges(names, edges, label=label)


def _product_order(
    first: RootAction, then: RootAction, rank: int, cap: int
) -> Optional[int]:
    """Order of ``then`` after ``first`` on Z^rank; None when above ``cap``.

    The order is the lcm of the periods of the basis vectors, each followed
    through the sparse root actions.
    """
    order = 1
    for i in range(rank):
        start = (0,) * i + (1,) + (0,) * (rank - i - 1)
        v = start
        for k in range(1, cap + 1):
            v = reflect_coeffs(then, reflect_coeffs(first, v))
            if v == start:
                break
        else:
            return None
        order = lcm(order, k)
        if order > cap:
            return None
    return order


class PresentationEntry(Record):
    a: str
    b: str
    expected: object  # int or INF
    computed: Optional[int]

    @property
    def ok(self) -> bool:
        if self.expected is INF:
            return self.computed is None
        return self.computed == self.expected


class PresentationReport(Record):
    model: ManifoldModel
    entries: tuple[PresentationEntry, ...]
    system: CoxeterSystem  # the asserted graph the entries were checked against

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

    The orders are computed exactly, on the integer lattice, from the sparse
    root actions of the generators; the graph is the independent
    combinatorial claim, so the two routes stay separate.
    """
    expected = expected_coxeter_system(gens.model)
    rank = gens.model.rank
    entries = []
    for i, a in enumerate(gens.names):
        for b in gens.names[i + 1 :]:
            computed = _product_order(
                gens.root_action(b), gens.root_action(a), rank, cap
            )
            entries.append(PresentationEntry(a, b, expected.order(a, b), computed))
    return PresentationReport(gens.model, tuple(entries), expected)


# ---------------------------------------------------------------------------
# breadth-first search and orbits

# the most vertices one search may reach; orbits grow about as l^4 in the
# number of blowups, and the CLI takes any --ell and --bound
SEARCH_VERTEX_CAP = 200_000


def breadth_first(starts: Iterable, neighbours: Callable[[Any], Iterable]) -> set:
    """Every vertex reachable from ``starts``, searched breadth first.

    ``neighbours(v)`` gives the vertices adjacent to ``v``.  A search that
    passes ``SEARCH_VERTEX_CAP`` vertices raises LatticeError at once.
    """
    seen = set(starts)
    queue = list(seen)
    for v in queue:  # a list iterator also yields what is appended meanwhile
        for w in neighbours(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
        if len(seen) > SEARCH_VERTEX_CAP:
            raise LatticeError(f"search reached more than {SEARCH_VERTEX_CAP} vertices")
    return seen


class OrbitResult(Record):
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
    actions = [gens.root_action(n) for n in names]
    truncated = False

    def images(v: tuple[int, ...]) -> list[tuple[int, ...]]:
        nonlocal truncated
        out = []
        for action in actions:
            nxt = reflect_coeffs(action, v)
            # only the support of the root moved, and v is within the bound
            for i, _ in action[1]:
                if not -bound <= nxt[i] <= bound:
                    truncated = True
                    break
            else:
                out.append(nxt)
        return out

    vectors = breadth_first((seed.coeffs,), images)
    return OrbitResult(gens.model, frozenset(vectors), truncated)


# ---------------------------------------------------------------------------
# period vectors


def read_period(x) -> tuple[int, int]:
    """One exact period as (numerator, denominator > 0) in lowest terms.

    ``x`` is an int, a Fraction, or a string spelling p or p/q; the one
    reader of periods, for the library's builders and the CLI's flag.
    """
    if isinstance(x, bool):
        raise LatticeError("periods must be exact rationals")
    if isinstance(x, int) or is_fraction(x):
        return x.numerator, x.denominator
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        # p or p/q: a signed integer, then optionally "/" and unsigned digits
        if is_int_text(num) and (not slash or den.isdecimal()):
            p, q = int(num), int(den or 1)
            if q == 0:
                raise LatticeError(f"period {x!r} has a zero denominator")
            g = gcd(p, q)
            return p // g, q // g
    raise LatticeError(f"periods must be exact rationals, got {x!r}")


# the periods over the head of the basis: L, resp. F then Y
_HEAD_KEYS = {Kind.RATIONAL: ("line",), Kind.RULED: ("fiber", "section")}


def _json_periods(model: dict, keys: tuple[str, ...], texts: Sequence[str]) -> dict:
    """The JSON object of a period vector: model, head keys, exceptional."""
    out: dict = {"model": model}
    out.update(zip(keys, texts))
    out["exceptional"] = list(texts[len(keys) :])
    return out


def periods_json(model: dict, periods: Sequence) -> dict:
    """The JSON object ``PeriodVector.from_json_dict`` reads, built from a
    model's JSON object and the periods in basis order (head first, then
    mu_1..mu_l), each read by ``read_period`` and printed in lowest terms.
    """
    texts = [rational_text(*read_period(x)) for x in periods]
    keys = _HEAD_KEYS[Kind(model["kind"])]
    want = model["blowups"] + len(keys)
    if len(texts) != want:
        raise LatticeError(f"expected {want} periods for this model, got {len(texts)}")
    return _json_periods(model, keys, texts)


class PeriodVector(Record):
    """Periods of a (candidate) symplectic form in the fixed basis.

    The periods are ``coeffs / denominator``, with ``coeffs`` the integer
    dual coefficients in lowest terms: (line, -mu_1, ..., -mu_l) in the
    rational model, where ``line`` is the period over L and mu_i the one
    over E_i, resp. (fiber, section, -mu_1, ..., -mu_l) in the ruled one,
    with ``fiber`` over F and ``section`` over Y.  The constructor checks
    its fields; ``rational_periods``, ``ruled_periods``, ``from_json_dict``
    and ``from_dual_coefficients`` take exact rationals instead.  The
    reflections are unimodular, so the library builds their images with
    ``_trusted``: they stay in lowest terms over the same denominator.
    """

    model: ManifoldModel
    coeffs: tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_int_coeffs(self.coeffs))
        _check_length(self.model, self.coeffs)
        d = self.denominator
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise LatticeError(f"the denominator must be a positive integer, got {d!r}")
        if gcd(d, *self.coeffs) != 1:
            raise LatticeError(f"{self.coeffs}/{d} is not in lowest terms")

    def _fractions(self, nums) -> tuple[Fraction, ...]:
        """``nums`` over the denominator, the one place that builds Fractions."""
        from fractions import Fraction

        return tuple(Fraction(n, self.denominator) for n in nums)

    @property
    def head(self) -> tuple[Fraction, ...]:
        """(line,) resp. (fiber, section)."""
        return self._fractions(self.coeffs[: len(_HEAD_KEYS[self.model.kind])])

    @property
    def exceptional(self) -> tuple[Fraction, ...]:
        """(mu_1, ..., mu_l)."""
        h = len(_HEAD_KEYS[self.model.kind])
        return self._fractions(-c for c in self.coeffs[h:])

    def dual_coefficients(self) -> tuple[Fraction, ...]:
        return self._fractions(self.coeffs)

    @classmethod
    def from_dual_coefficients(
        cls, model: ManifoldModel, coeffs: Sequence
    ) -> "PeriodVector":
        coeffs = tuple(coeffs)
        _check_length(model, coeffs)
        h = len(_HEAD_KEYS[model.kind])
        return _periods(model, coeffs[:h], coeffs[h:], sign=1)

    def period_of(self, c: HomologyClass) -> Fraction:
        """The period over an integral class (pairing with the dual class)."""
        if c.model != self.model:
            raise ModelMismatchError("class and periods disagree on the model")
        return self._fractions((_pair_coeffs(self.model, self.coeffs, c.coeffs),))[0]

    def wall_periods(self) -> tuple[int, ...]:
        """The periods over the generator classes s0..s_l, times ``denominator``.

        None is negative exactly when the vector satisfies the period
        conditions, and the zeros name the walls that contain it.
        """
        _require_generators(self.model)
        c = self.coeffs
        h = len(_HEAD_KEYS[self.model.kind])
        # c[h + i - 1] = -mu_i; s0 is L - E1 - E2 - E3 resp. F - E1 - E2
        s0 = c[0] + sum(c[h:4])
        return (s0, *(c[j + 1] - c[j] for j in range(h, len(c) - 1)), -c[-1])

    def satisfies_period_conditions(self) -> bool:
        return min(self.wall_periods()) >= 0

    def _texts(self) -> list[str]:
        """The periods in basis order, head then mu_1..mu_l, as "p" or "p/q"."""
        h = len(_HEAD_KEYS[self.model.kind])
        d = self.denominator
        return [rational_text(c if j < h else -c, d) for j, c in enumerate(self.coeffs)]

    def __str__(self) -> str:
        texts = self._texts()
        h = len(_HEAD_KEYS[self.model.kind])
        return f"({', '.join(texts[:h])}; {','.join(texts[h:])})"

    def to_json_dict(self) -> dict:
        keys = _HEAD_KEYS[self.model.kind]
        return _json_periods(self.model.to_json_dict(), keys, self._texts())

    @classmethod
    def from_json_dict(cls, data: dict) -> "PeriodVector":
        try:
            model = ManifoldModel.from_json_dict(data["model"])
            if isinstance(data["exceptional"], str):
                raise LatticeError("'exceptional' must be a list of periods")
            mus = tuple(data["exceptional"])
            head = [data[key] for key in _HEAD_KEYS[model.kind]]
            return _periods(model, head, mus)
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"malformed period JSON: {exc}") from exc


def _periods(
    model: ManifoldModel, head: Sequence, mus: Sequence, sign: int = -1
) -> PeriodVector:
    """The one reader of exact periods, over their least common denominator.

    The dual coefficients are ``head`` followed by ``sign * mus``; every
    entry goes through ``read_period``.  Putting lowest-terms rationals
    over their lcm leaves the integers in lowest terms.
    """
    mus = [read_period(x) for x in mus]
    if len(mus) != model.blowups:
        raise LatticeError(
            f"expected {model.blowups} exceptional periods, got {len(mus)}"
        )
    values = [read_period(x) for x in head] + mus
    d = lcm(*(q for _, q in values))
    coeffs = [p * (d // q) for p, q in values]
    h = len(head)
    coeffs[h:] = [sign * c for c in coeffs[h:]]
    return PeriodVector._trusted(model, tuple(coeffs), d)


def rational_periods(blowups: int, line, mus) -> PeriodVector:
    from .lattice import rational_model

    return _periods(rational_model(blowups), (line,), mus)


def ruled_periods(blowups: int, fiber, section, mus, genus: int = 1) -> PeriodVector:
    from .lattice import ruled_model

    return _periods(ruled_model(blowups, genus), (fiber, section), mus)


# ---------------------------------------------------------------------------
# period reduction


class PeriodReduction(Record):
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
    return tuple(f"s{i}" for i, w in enumerate(p.wall_periods()) if w == 0)


def reduce_periods(p: PeriodVector) -> PeriodReduction:
    """Transport a period vector into the fundamental domain.

    The loop bubble-sorts the exceptional periods (adjacent transpositions),
    flips a trailing negative entry with the twist, and crosses the extra
    wall whenever the leading inequality fails.  It runs on the integer
    dual coefficients, whose common denominator no letter changes; the head
    period that the extra wall strictly decreases (line resp. section) is a
    positive integer throughout, which bounds the number of wall crossings.

    Zero exceptional periods are legal; the walls containing the reduced
    vector are reported in ``boundary_flags``.
    """
    _require_generators(p.model)
    if not positive_cone_contains(HomologyClass._trusted(p.model, p.coeffs)):
        raise OutsideConeError(f"{p} is not in the open positive cone")
    rational = p.model.kind is Kind.RATIONAL
    h = 1 if rational else 2
    head = list(p.coeffs[:h])
    mus = [-c for c in p.coeffs[h:]]
    l = len(mus)
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

    # the letters are unimodular, so the same denominator keeps lowest terms
    reduced = PeriodVector._trusted(p.model, (*head, *(-m for m in mus)), p.denominator)
    if not reduced.satisfies_period_conditions():
        raise InternalConsistencyError(f"reduction of {p} missed the domain")
    return PeriodReduction(reduced, GroupWord(tuple(letters)), _boundary_flags(reduced))


# ---------------------------------------------------------------------------
# class reduction


class ClassReduction(Record):
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
    coeffs = c.coeffs

    def apply(word_letters: Sequence[str]) -> None:
        nonlocal coeffs
        for letter in word_letters:
            coeffs = reflect_coeffs(gens.root_action(letter), coeffs)

    if model.kind is Kind.RULED:
        if coeffs[0] != 0:
            return ClassReduction(
                False, GroupWord(()), stalled=HomologyClass._trusted(model, coeffs)
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
        final = HomologyClass._trusted(model, coeffs)
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
                stalled=HomologyClass._trusted(model, coeffs),
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
    final = HomologyClass._trusted(model, coeffs)
    if final != exceptional_class(model, l):
        raise InternalConsistencyError(f"rational reduction landed on {final}")
    return ClassReduction(True, GroupWord(tuple(letters)), canonical=final)


# ---------------------------------------------------------------------------
# Lagrangian systems


_COMPONENT_RANK_CAP = 8


def _component_label(names: set[str], adj: dict[str, list[str]]) -> str:
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


class LagrangianSystem(Record):
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
    walls = p.wall_periods()
    if min(walls) < 0:
        raise NotReducedError(f"{p} does not satisfy the period conditions")
    gens = generator_set(p.model)
    # zip stops before the twist s_l, the last generator
    members = [
        (n, c) for n, c, w in zip(gens.names[:-1], gens.classes, walls) if w == 0
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
    from . import coxeter

    system = coxeter.system_from_edges(tuple(names), edges)
    labels = []
    unvisited = set(names)
    for start in names:
        if start in unvisited:
            comp = breadth_first((start,), adj.__getitem__)
            unvisited -= comp
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


class MaximalMembership(Record):
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
