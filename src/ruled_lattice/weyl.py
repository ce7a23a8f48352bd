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
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

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
    Sparse,
    _check_int_coeffs,
    _check_length,
    _class_text,
    _pair,
    _reflection_matrix,
    _root_action,
    _sparse_class,
    exceptional_class,
    positive_cone_contains,
    rational_model,
    reflect_coeffs,
    ruled_model,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .coxeter import CoxeterSystem

# ``coxeter`` (with ``qsqrt2``) is imported only where a Coxeter system is
# built, and ``fractions`` only by PeriodVector.dual_coefficients, so that
# reductions, orbits and class moves load neither.


class OutsideConeError(LatticeError):
    """Reduction entry points require the open positive cone."""


class NotReducedError(LatticeError):
    """The operation expects a vector satisfying the period conditions."""


# ---------------------------------------------------------------------------
# generator sets and words


class GeneratorSet(Record):
    """The named reflection generators of one model, each stored as its root.

    ``roots[i]`` is generator i's (slot, coefficient) pairs; its class,
    sparse action and matrix are all read off those pairs.
    """

    model: ManifoldModel
    names: tuple[str, ...]
    roots: tuple[Sparse, ...]

    @property
    def classes(self) -> tuple[HomologyClass, ...]:
        """The rank-length generator classes, built afresh from the roots."""
        return tuple(_sparse_class(self.model, r) for r in self.roots)

    @cached_property
    def automorphisms(self) -> dict[str, LatticeAutomorphism]:
        return {
            name: _reflection_matrix(self.model, self.root_action(name))
            for name in self.names
        }

    @cached_property
    def _root_actions(self) -> dict[str, RootAction]:
        return {name: _root_action(self.model, r) for name, r in zip(self.names, self.roots)}

    def automorphism(self, name: str) -> LatticeAutomorphism:
        return _generator(self.automorphisms, name)

    def root_action(self, name: str) -> RootAction:
        """The sparse action of one generator, see ``lattice.root_action``."""
        return _generator(self._root_actions, name)

    def _walk(self, letters: Iterable[str], vector: list[int]) -> None:
        """Move ``vector`` in place by each letter's root action, O(support)
        a letter.  ``reflect_coeffs`` keeps its own body: ``orbit``'s BFS,
        ``_product_order`` and ``reflect`` need a fresh tuple, or the same
        one when the mirror fixes it, and run slower through this kernel."""
        actions = self._root_actions
        for letter in letters:
            dual, shift = _generator(actions, letter)
            dot = 0
            for j, g in dual:  # a loop, not sum(): half the walk's time
                dot += vector[j] * g
            if dot:
                for i, c in shift:
                    vector[i] += dot * c


def _generator(table: dict, name: str):
    try:
        return table[name]
    except KeyError:
        raise LatticeError(f"no generator named {name!r}") from None


def generator_set(model: ManifoldModel) -> GeneratorSet:
    """The generators s0..s_l as a table of roots, at most 4 pairs each.

    Slot h + i - 1 holds E_i.  s0 is +1 at the head slot h - 1 (L, resp.
    F) and -1 at the exceptional slots h..3, s_i is E_i - E_{i+1}, and the
    twist s_l is E_l: the module docstring's generators, built in O(l).
    """
    h, l = model.head, model.blowups
    # s0 needs E_1..E_{4-h}: L - E1 - E2 - E3, resp. F - E1 - E2
    if l < 4 - h:
        raise LatticeError(f"the {model.kind.value} generator set needs at least {4 - h} blowups")
    s0 = ((h - 1, 1), *((j, -1) for j in range(h, 4)))
    swaps = (((j, 1), (j + 1, -1)) for j in range(h, h + l - 1))
    roots = (s0, *swaps, ((h + l - 1, 1),))
    return GeneratorSet(model, tuple(f"s{i}" for i in range(len(roots))), roots)


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
        # the word's integer matrix, applied once: Fractions meet one product,
        # not one a letter.  At rank^3 integer work a letter it is slower than
        # that above rank ~55.  Root actions are faster still, but the benchmark
        # worker keeps a record per op, so its peak memory would pass its bound
        out = tuple(coeffs)
        _check_length(gens.model, out)
        return self.evaluate(gens)._product(out)

    def to_json_list(self) -> list[str]:
        return list(self.letters)


# ---------------------------------------------------------------------------
# expected presentation


def expected_coxeter_system(model: ManifoldModel) -> CoxeterSystem:
    """The Coxeter graph the generator set is asserted to realize.

    Node i is s_i: the chain s1..s_l with a label-4 tail, and s0 on the leg
    s_{4-h}, the last slot of s0's root (s3 rational, s2 ruled).  Past the
    leg this is BE_{l+1} resp. BD_{l+1}; at l = 4 - h the leg lands on the
    twist across a 4, the chain 3-4-4 resp. 4-4, kept in the generator
    order s0..s_l, which coxeter's named L4-3-4-4 and L3-4-4 do not.
    """
    from . import coxeter

    l, leg = model.blowups, 4 - model.head
    if l < leg:
        raise LatticeError(f"no presentation below {leg} blowups in the {model.kind.value} model")
    if l > leg:
        return coxeter.family("BE" if leg == 3 else "BD", l + 1)
    label = "L4-3-4-4" if leg == 3 else "L3-4-4"
    return coxeter._chain_with_leg(l + 1, leg, label, tail=4, leg_label=4)


def _product_order(first: RootAction, then: RootAction, cap: int = 16) -> Optional[int]:
    """Order of ``then`` after ``first`` on the lattice; None when above ``cap``.

    The order is the lcm of the periods of the basis vectors, each followed
    through the sparse root actions.  A basis vector outside both dual
    supports pairs to zero with both roots and is fixed, so only the others
    are followed, and only on the coordinates the two roots touch (at most
    six for the wall roots): O(1) a pair, not O(rank).
    """
    slots = {j for part in first + then for j, _ in part}
    local = {j: k for k, j in enumerate(slots)}
    first, then = (
        tuple(tuple((local[j], c) for j, c in part) for part in act) for act in (first, then)
    )
    order = 1
    for i in {j for j, _ in first[0] + then[0]}:
        start = (0,) * i + (1,) + (0,) * (len(slots) - i - 1)
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


def verify_presentation(gens: GeneratorSet) -> PresentationReport:
    """Check every pairwise product order on H_2 against the asserted graph.

    The orders are computed exactly, on the integer lattice, from the sparse
    root actions of the generators; the graph is the independent
    combinatorial claim, so the two routes stay separate.
    """
    expected = expected_coxeter_system(gens.model)
    entries = []
    for i, a in enumerate(gens.names):
        for b in gens.names[i + 1 :]:
            computed = _product_order(gens.root_action(b), gens.root_action(a))
            entries.append(PresentationEntry(a, b, expected.order(a, b), computed))
    return PresentationReport(gens.model, tuple(entries), expected)


# ---------------------------------------------------------------------------
# breadth-first search and orbits

# the most vertices, and the most coefficients over tuple vertices, one
# search may hold; orbits grow about as l^4 in the number of blowups, and
# the CLI takes any --ell and --bound.  Up to rank 10 the vertex cap binds.
SEARCH_VERTEX_CAP = 200_000
SEARCH_COEFFICIENT_CAP = 2_000_000


def breadth_first(starts: Iterable, neighbours: Callable[[Any], Iterable]) -> set:
    """Every vertex reachable from ``starts``, searched breadth first.

    ``neighbours(v)`` gives the vertices adjacent to ``v``.  A search that
    passes ``SEARCH_VERTEX_CAP`` vertices, or whose tuple vertices pass
    ``SEARCH_COEFFICIENT_CAP`` coefficients in all, raises LatticeError at
    once.
    """
    seen = set(starts)
    queue = list(seen)
    width = len(queue[0]) if queue and isinstance(queue[0], tuple) else 1
    cap = min(SEARCH_VERTEX_CAP, SEARCH_COEFFICIENT_CAP // width)
    unit = " vertices" if cap == SEARCH_VERTEX_CAP else f" vertices of rank {width}"
    for v in queue:  # a list iterator also yields what is appended meanwhile
        for w in neighbours(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
        if len(seen) > cap:
            raise LatticeError(f"search reached more than {cap}{unit}")
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
            if nxt is v:  # a mirror orthogonal to v fixes it: nothing new
                continue
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


class PeriodVector(Record):
    """Periods of a (candidate) symplectic form in the fixed basis.

    The periods are ``coeffs / denominator``, with ``coeffs`` the integer
    dual coefficients in lowest terms: (line, -mu_1, ..., -mu_l) in the
    rational model, where ``line`` is the period over L and mu_i the one
    over E_i, resp. (fiber, section, -mu_1, ..., -mu_l) in the ruled one,
    with ``fiber`` over F and ``section`` over Y.  The constructor checks
    its fields; ``rational_periods``, ``ruled_periods`` and
    ``from_json_dict`` take exact rationals instead.  The
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

    def dual_coefficients(self) -> tuple[Fraction, ...]:
        """``coeffs`` over the denominator, the one place that builds Fractions."""
        from fractions import Fraction

        return tuple(Fraction(n, self.denominator) for n in self.coeffs)

    def wall_periods(self) -> tuple[int, ...]:
        """The periods over the generator classes s0..s_l, times ``denominator``:
        the pairing of ``coeffs`` with each root of ``generator_set``.

        None is negative exactly when the vector satisfies the period
        conditions, and the zeros name the walls that contain it.
        """
        return self._pair_roots(generator_set(self.model).roots)

    def _pair_roots(self, roots: Iterable[Sparse]) -> tuple[int, ...]:
        """``coeffs`` paired with each root, on the root's slots."""
        c, h = self.coeffs, self.model.head
        return tuple(_pair(h, c, r) for r in roots)

    def satisfies_period_conditions(self) -> bool:
        return min(self.wall_periods()) >= 0

    def _texts(self) -> list[str]:
        """The periods in basis order, head then mu_1..mu_l, as "p" or "p/q"."""
        h = self.model.head
        d = self.denominator
        return [rational_text(c if j < h else -c, d) for j, c in enumerate(self.coeffs)]

    def __str__(self) -> str:
        texts = self._texts()
        h = self.model.head
        return f"({', '.join(texts[:h])}; {','.join(texts[h:])})"

    def to_json_dict(self) -> dict:
        """The model, the head periods under their keys, then "exceptional"."""
        keys = _HEAD_KEYS[self.model.kind]
        texts = self._texts()
        out: dict = {"model": self.model.to_json_dict()}
        out.update(zip(keys, texts))
        out["exceptional"] = texts[len(keys) :]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "PeriodVector":
        try:
            model = ManifoldModel.from_json_dict(data["model"])
            mus = data["exceptional"]
            if not isinstance(mus, (list, tuple)):
                raise LatticeError("'exceptional' must be a list of periods")
            head = [data[key] for key in _HEAD_KEYS[model.kind]]
            return _periods(model, head, mus)
        except (KeyError, TypeError, ValueError) as exc:
            raise LatticeError(f"malformed period JSON: {exc}") from exc


def _periods(model: ManifoldModel, head: Sequence, mus: Sequence) -> PeriodVector:
    """The one reader of exact periods, over their least common denominator.

    The dual coefficients are ``head`` followed by ``-mus``; every entry
    goes through ``read_period``.  Putting lowest-terms rationals over
    their lcm leaves the integers in lowest terms.
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
    coeffs[h:] = [-c for c in coeffs[h:]]
    return PeriodVector._trusted(model, tuple(coeffs), d)


def rational_periods(blowups: int, line, mus) -> PeriodVector:
    return _periods(rational_model(blowups), (line,), mus)


def ruled_periods(blowups: int, fiber, section, mus, genus: int = 1) -> PeriodVector:
    return _periods(ruled_model(blowups, genus), (fiber, section), mus)


# ---------------------------------------------------------------------------
# period reduction

# the most letters one reduction word may hold.  Along an affine direction
# the ruled walks spend about 3 letters per unit of mu_1 / fiber (resp. of
# the F multiple), so a period or class of a few digits could otherwise run
# for hours and fill memory with its word.
WORD_LETTER_CAP = 1_000_000


def _check_word_length(letters: list) -> None:
    if len(letters) > WORD_LETTER_CAP:
        raise LatticeError(f"reduction word reached more than {WORD_LETTER_CAP} letters")


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


def _require_cone(p: PeriodVector) -> None:
    if not positive_cone_contains(HomologyClass._trusted(p.model, p.coeffs)):
        raise OutsideConeError(f"{p} is not in the open positive cone")


def reduce_periods(p: PeriodVector) -> PeriodReduction:
    """Transport a period vector into the fundamental domain.

    One loop, the same for both models, on the integer dual coefficients
    ``c``, whose common denominator no letter changes: the swaps s1..s_{l-1}
    bubble-sort the exceptional slots (c[j] > c[j+1] means mu_i < mu_{i+1}),
    the twist s_l negates a positive last slot, and s0 adds its negative
    period times s0 to ``c``.  These closed forms are the walls' one copy
    outside ``generator_set``, whose table replays the word by its roots
    (InternalConsistencyError if it strays) and checks the result.  Letters
    and flags are spelled by slot, s_i for generator i, so a table whose
    names disagree with its roots fails the replay.
    s0 (L - E1 - E2 - E3, resp. F - E1 - E2) is the only step that depends
    on the model.  The head period that s0 strictly decreases (line resp.
    section) is a positive integer throughout: it bounds the wall crossings.

    Zero exceptional periods are legal; the walls containing the reduced
    vector are reported in ``boundary_flags``.  A word longer than
    ``WORD_LETTER_CAP`` letters raises LatticeError.
    """
    gens = generator_set(p.model)  # also the generator-minimum guard
    _require_cone(p)
    h = p.model.head
    c = list(p.coeffs)
    last = len(c) - 1
    # s_i swaps the slots h+i-1 and h+i
    names = tuple(f"s{i}" for i in range(p.model.blowups + 1))
    letters: list[str] = []
    while True:
        swapped = True
        while swapped:
            swapped = False
            for j in range(h, last):
                if c[j] > c[j + 1]:
                    c[j], c[j + 1] = c[j + 1], c[j]
                    letters.append(names[j - h + 1])
                    swapped = True
        _check_word_length(letters)
        if c[last] > 0:
            c[last] = -c[last]
            letters.append(names[-1])
            continue
        # s0's root: +1 at slot h - 1 (L, resp. F), -1 at slots h..3; the form
        # pairs slot h - 1 with slot 0 and negates each E_i, so its period is
        gap = c[0] + sum(c[h:4])
        if gap >= 0:
            break
        c[h - 1] += gap
        for j in range(h, 4):
            c[j] -= gap
        letters.append(names[0])

    replay = list(p.coeffs)  # the table's roots must certify the closed forms' word
    gens._walk(letters, replay)
    if replay != c:
        raise InternalConsistencyError(f"the word of {p} does not replay on its generators")
    # the letters are unimodular, so the same denominator keeps lowest terms
    reduced = PeriodVector._trusted(p.model, tuple(c), p.denominator)
    walls = reduced._pair_roots(gens.roots)
    if min(walls) < 0:
        raise InternalConsistencyError(f"reduction of {p} missed the domain")
    flags = tuple(name for name, w in zip(names, walls) if w == 0)
    return PeriodReduction(reduced, GroupWord(tuple(letters)), flags)


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

    A word longer than ``WORD_LETTER_CAP`` letters raises LatticeError.
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
        # the one place that moves the class, so the word records each letter
        gens._walk(word_letters, coeffs)
        letters.extend(word_letters)
        _check_word_length(letters)

    def land(j: int, kind: str) -> ClassReduction:
        # the class is +-E_j: twist a -E_j, move it up to slot l, check E_l
        if coeffs[model.head + j - 1] == -1:
            apply(_twist_word(l, j))
        apply([f"s{k}" for k in range(j, l)])
        final = HomologyClass._trusted(model, tuple(coeffs))
        if final != exceptional_class(model, l):
            raise InternalConsistencyError(f"{kind} reduction landed on {final}")
        return ClassReduction(True, GroupWord(tuple(letters)), canonical=final)

    if model.kind is Kind.RULED:
        if coeffs[0] != 0:
            return ClassReduction(
                False, GroupWord(()), stalled=HomologyClass._trusted(model, tuple(coeffs))
            )
        j = next(i for i in range(1, l + 1) if coeffs[1 + i] != 0)
        if coeffs[1 + j] == -1:
            apply(_twist_word(l, j))
        # swap down to slot 1
        apply([f"s{k}" for k in range(j - 1, 0, -1)])
        while coeffs[1] != 0:
            apply(_fiber_step_word(l, increment=coeffs[1] < 0))
        return land(1, "ruled")

    # rational model; crossing s0 adds x.s0 to k
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
                apply(_twist_word(l, i))
        swapped = True
        while swapped:
            swapped = False
            for i in range(1, l):
                if sign * coeffs[i] > sign * coeffs[i + 1]:
                    apply([f"s{i}"])
                    swapped = True
        gap = _pair(model.head, coeffs, gens.roots[0])
        if sign * gap >= 0:
            return ClassReduction(
                False,
                GroupWord(tuple(letters)),
                stalled=HomologyClass._trusted(model, tuple(coeffs)),
            )
        apply(["s0"])
        if abs(coeffs[0]) >= abs(k):
            raise InternalConsistencyError("wall crossing failed to shrink k")

    return land(next(i for i in range(1, l + 1) if coeffs[i] != 0), "rational")


# ---------------------------------------------------------------------------
# Lagrangian systems


class LagrangianSystem(Record):
    """The zero-period wall classes of a reduced vector, with their type.

    ``member_roots[i]`` is member i's root, as in ``GeneratorSet.roots``.
    """

    model: ManifoldModel
    member_names: tuple[str, ...]
    member_roots: tuple[Sparse, ...]
    system: CoxeterSystem
    components: tuple[str, ...]

    @property
    def label(self) -> str:
        if not self.components:
            return "trivial"
        return "+".join(self.components)

    def members(self) -> Iterator[tuple[str, str]]:
        """Each member's name and class text, read off its root."""
        for name, root in zip(self.member_names, self.member_roots):
            yield name, _class_text(self.model, root)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "members": [{"name": n, "class": c} for n, c in self.members()],
            "label": self.label,
            "components": list(self.components),
        }


def lagrangian_system(p: PeriodVector) -> LagrangianSystem:
    """Wall classes with zero period, assembled into a Coxeter system.

    Input must satisfy the period conditions (reduce first) and lie in the
    open positive cone, checked in that order.  Member i is named s_i, as
    generator i is; the twist wall E_l is excluded because its class has
    square -1, not -2, so it never bounds a Lagrangian sphere system.  The
    members are simple reflections, so their graph is the presentation's
    graph on them (a parabolic subgroup); its 4-edges all touch the twist.
    """
    # one generator table gives the wall periods and the member roots
    gens = generator_set(p.model)
    walls = p._pair_roots(gens.roots)
    if min(walls) < 0:
        raise NotReducedError(f"{p} does not satisfy the period conditions")
    _require_cone(p)
    # the twist s_l, the last wall, is never a member
    zero = [i for i, w in enumerate(walls[:-1]) if w == 0]
    names = tuple(f"s{i}" for i in zero)
    at = {i: k for k, i in enumerate(zero)}
    graph = expected_coxeter_system(p.model).pairs
    pairs = {(at[i], at[j]): m for (i, j), m in graph.items() if i in at and j in at}
    from . import coxeter

    system = coxeter.CoxeterSystem(names, pairs)
    components = coxeter.component_types(system)
    if components is None:
        raise InternalConsistencyError("Lagrangian system is not finite type")
    return LagrangianSystem(
        p.model, names, tuple(gens.roots[i] for i in zero), system, components
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
    if l <= 8:
        return MaximalMembership(f"E{l}", all_names)
    # the container left when s_k is dropped, for k = 0..8
    containers = (f"A{l - 1}", f"D{l - 1}", f"A1+A{l - 2}")
    containers += tuple(f"E{k}+A{l - k - 1}".removesuffix("+A0") for k in range(3, 9))
    for k, label in enumerate(containers):
        if f"s{k}" not in present:
            return MaximalMembership(label, tuple(n for n in all_names if n != f"s{k}"))
    raise InternalConsistencyError("system contains an affine E9 subgraph")
