"""The four benchmark workloads: seeded inputs, timed ops and their checks.

A workload builds one *pass*: a fixed composition of items whose sizes sit
on a fixed grid and whose contents (periods, words, seeds, matrices) come
from the seed.  The worker replays whole passes.  ``run`` is the timed
region of one op and talks to the library only through its public
functions, each call wrapped in a span named after the layer it measures.
``check`` runs outside the timed region, against the independent routes in
``oracle``, and returns the outcome plus the op's deterministic counts.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracle
from oracle import RATIONAL, RULED

OK, REFUSED, FAILED, SKIP = "ok", "refused", "failed", "skip"
DENOMS = (2, 3, 7)


def _denominator(rng: random.Random, frac: bool) -> int:
    return rng.choice(DENOMS) if frac else 1


def _q(value: float, q: int) -> Fraction:
    return Fraction(round(value * q), q)


class Workload:
    name = ""
    refusal_types: tuple = ()
    collect_between_ops = False
    # the worker times ``reference`` after every ``reference_every``-th op
    reference_every = 1

    def setup(self) -> None:
        """Imports and the program state every op needs (timed as setup_s)."""

    def batch(self, rng: random.Random, tiny: bool) -> list:
        raise NotImplementedError

    def run(self, item, tr):
        raise NotImplementedError

    def check(self, item, result) -> tuple[str, list[str], dict[str, int]]:
        raise NotImplementedError

    def trace_extras(self, batch, tr) -> tuple[dict[str, float], list[str]]:
        """Extra traced measurements after the traced phase: values, failures."""
        return {}, []

    def reference(self) -> None:
        """A fixed stdlib-only task of the same kind as an op; its time
        tracks the host's speed, which no change to the library moves."""
        x = Fraction(0)
        for i in range(1, 120):
            x += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i)


def _import_library():
    from ruled_lattice import catalog, coxeter, lattice, sw, weyl

    return catalog, coxeter, lattice, sw, weyl


class _LibraryWorkload(Workload):
    def setup(self) -> None:
        self.catalog, self.coxeter, self.lattice, self.sw, self.weyl = _import_library()
        self.refusal_types = (self.lattice.LatticeError,)
        self.models: dict = {}
        self.gens: dict = {}

    def model(self, kind: str, l: int):
        key = (kind, l)
        if key not in self.models:
            lat = self.lattice
            self.models[key] = lat.rational_model(l) if kind == RATIONAL else lat.ruled_model(l)
        return self.models[key]

    def warm_generators(self, kind: str, l: int) -> None:
        """Build a generator set and touch its matrices (lazy in the library)."""
        gens = self.weyl.generator_set(self.model(kind, l))
        gens.automorphisms
        self.gens[(kind, l)] = gens


# ---------------------------------------------------------------------------
# input generators shared by the workloads


def _unit(rng: random.Random, u: float | None) -> float:
    return rng.random() if u is None else u


def rational_periods_input(rng: random.Random, l: int, frac: bool, size=None, depth=None):
    """A point of the positive cone with line period up to 10^3.

    ``size`` and ``depth`` in [0, 1] place the line period and the radius
    of the mus within their ranges; a caller that passes stratified values
    gets a batch whose cost varies little with the seed.
    """
    q = _denominator(rng, frac)
    line = Fraction(q + round(_unit(rng, size) * 999 * q), q)
    radius = float(line) * (0.05 + 0.949 * _unit(rng, depth))
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(l)]
        norm = math.sqrt(sum(x * x for x in u)) or 1.0
        mus = tuple(_q(radius * x / norm, q) for x in u)
        if oracle.in_form_cone(RATIONAL, oracle.dual_coefficients(RATIONAL, (line,), mus)):
            return ("periods", RATIONAL, l, (line,), mus)


def ruled_periods_input(rng: random.Random, l: int, frac: bool, ratio: float, size=None, width=None):
    """A point of the form-defined ruled cone, 2*fiber*section > sum(mu^2).

    ``ratio`` is 2*fiber*section / sum(mu^2), drawn stratified from (1, 3]
    by the caller; ``size`` and ``width`` in [0, 1] place the fiber period
    and the spread of the mus, as in ``rational_periods_input``.  The
    library's own cone test asks for fiber*section > sum(mu^2), i.e.
    ratio > 2, so about half of these inputs are refused: that is the
    known cone defect, counted, never filtered.
    """
    q = _denominator(rng, frac)
    fiber = Fraction(q + round(_unit(rng, size) * 199 * q), q)
    spread = float(fiber) * (0.2 + 2.8 * _unit(rng, width))
    mus = tuple(_q(rng.uniform(-spread, spread), q) for _ in range(l))
    total = sum(m * m for m in mus)
    if total == 0:
        section = Fraction(rng.randint(q, 1000 * q), q)
    else:
        section = Fraction(math.ceil(ratio * total / (2 * fiber) * q), q)
        while 2 * fiber * section <= total:
            section += Fraction(1, q)
    return ("periods", RULED, l, (fiber, section), mus)


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from (lo, hi], one per equal-width stratum, shuffled."""
    out = [lo + (hi - lo) * (i + 1 - rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def class_image_input(rng: random.Random, kind: str, l: int, length=None):
    """The image of E_l under a random word of length 0..25."""
    refl = oracle.reflections(kind, l)
    length = rng.randint(0, 25) if length is None else length
    letters = [rng.choice(refl.names) for _ in range(length)]
    return ("class", kind, l, tuple(refl.apply(letters, oracle.exceptional(kind, l, l))))


def _check_reduction(kind, l, head, mus, word, replayed, reduced_dual):
    """Failures of a period reduction against the independent routes."""
    fails = []
    dual_in = oracle.dual_coefficients(kind, head, mus)
    if replayed is not None and list(replayed) != reduced_dual:
        fails.append("library replay differs from the reduced vector")
    refl = oracle.reflections(kind, l)
    if refl.apply_exact(word, dual_in) != reduced_dual:
        fails.append("independent replay differs from the reduced vector")
    if not oracle.satisfies_period_conditions(kind, reduced_dual):
        fails.append("reduced vector misses the period conditions")
    if oracle.square(kind, dual_in) != oracle.square(kind, reduced_dual):
        fails.append("reduction changed the square")
    return fails


def _word_counts(prefix: str, letters) -> dict[str, int]:
    return {f"{prefix}.letters": len(letters), f"{prefix}.crossings": letters.count("s0")}


# ---------------------------------------------------------------------------
# reduce-mix


class ReduceMix(_LibraryWorkload):
    """Many small certified reductions: rational l = 3..9, ruled l = 2..7,
    integer and fractional, plus reduce_class on random images of E_l."""

    name = "reduce-mix"
    RATIONAL_RANKS = range(3, 10)
    RULED_RANKS = range(2, 8)

    def setup(self) -> None:
        super().setup()
        for l in self.RATIONAL_RANKS:
            self.warm_generators(RATIONAL, l)
        for l in self.RULED_RANKS:
            self.warm_generators(RULED, l)

    def batch(self, rng, tiny):
        per_rational, per_ruled, per_class = (2, 2, 1) if tiny else (24, 28, 6)
        # sizes, depths and word lengths are stratified per rank (a Latin
        # hypercube), so that the cost of a pass varies little with the seed
        items = []
        for l in self.RATIONAL_RANKS:
            sizes, depths = stratified(rng, per_rational, 0, 1), stratified(rng, per_rational, 0, 1)
            for i in range(per_rational):
                items.append(rational_periods_input(rng, l, i % 2 == 1, sizes[i], depths[i]))
        ratios = stratified(rng, per_ruled * len(self.RULED_RANKS), 1.0, 3.0)
        for l in self.RULED_RANKS:
            sizes, widths = stratified(rng, per_ruled, 0, 1), stratified(rng, per_ruled, 0, 1)
            for i in range(per_ruled):
                items.append(ruled_periods_input(rng, l, i % 2 == 1, ratios.pop(), sizes[i], widths[i]))
        for kind, ranks in ((RATIONAL, self.RATIONAL_RANKS), (RULED, self.RULED_RANKS)):
            for l in ranks:
                n = per_class if kind == RATIONAL else per_class + 1
                for length in stratified(rng, n, 0, 26):
                    items.append(class_image_input(rng, kind, l, min(25, int(length))))
        rng.shuffle(items)
        return items

    def run(self, item, tr):
        weyl = self.weyl
        if item[0] == "class":
            _, kind, l, coeffs = item
            gens = self.gens[(kind, l)]
            c = self.lattice.HomologyClass(self.model(kind, l), coeffs)
            with tr.span("weyl.reduce_class"):
                red = weyl.reduce_class(gens, c)
            with tr.span("weyl.replay"):
                landed = red.word.apply_to_coeffs(gens, coeffs)
            with tr.span("render"):
                data = json.loads(json.dumps(red.to_json_dict()))
                back = self.lattice.HomologyClass.from_json_dict(data["canonical"])
            return red, landed, back
        _, kind, l, head, mus = item
        with tr.span("weyl.periods"):
            if kind == RATIONAL:
                p = weyl.rational_periods(l, head[0], mus)
            else:
                p = weyl.ruled_periods(l, head[0], head[1], mus)
        with tr.span("weyl.reduce_periods"):
            red = weyl.reduce_periods(p)
        gens = self.gens[(kind, l)]
        with tr.span("weyl.replay"):
            replayed = red.word.apply_to_coeffs(gens, p.dual_coefficients())
        with tr.span("weyl.lagrangian_system"):
            system = weyl.lagrangian_system(red.reduced)
        with tr.span("render"):
            text = json.dumps(
                {"reduction": red.to_json_dict(), "system": system.to_json_dict()}
            )
            data = json.loads(text)
            with tr.span("weyl.periods"):
                back = weyl.PeriodVector.from_json_dict(data["reduction"]["reduced"])
        return red, replayed, system, back

    def check(self, item, result):
        if item[0] == "class":
            return check_class_reduction(item, result[0], result[1], result[2])
        _, kind, l, head, mus = item
        red, replayed, system, back = result
        dual_out = list(red.reduced.dual_coefficients())
        letters = red.word.letters
        fails = _check_reduction(kind, l, head, mus, letters, replayed, dual_out)
        if list(system.member_names) != oracle.zero_period_walls(kind, l, dual_out):
            fails.append("Lagrangian members differ from the zero-period walls")
        if back != red.reduced:
            fails.append("JSON round trip changed the reduced vector")
        counts = _word_counts("weyl.reduce_periods", letters)
        counts["weyl.replay.letters"] = len(letters)
        return (FAILED if fails else OK), fails, counts


def check_class_reduction(item, red, landed, back=None):
    _, kind, l, coeffs = item
    target = oracle.exceptional(kind, l, l)
    letters = red.word.letters
    fails = []
    if not red.in_orbit:
        fails.append("image of E_l reported outside the orbit")
    if landed is not None and list(landed) != target:
        fails.append("library replay does not land on E_l")
    if oracle.reflections(kind, l).apply(letters, coeffs) != target:
        fails.append("independent replay does not land on E_l")
    if back is not None and list(back.coeffs) != target:
        fails.append("JSON round trip changed the canonical class")
    counts = {"weyl.reduce_class.letters": len(letters)}
    if landed is not None:
        counts["weyl.replay.letters"] = len(letters)
    return (FAILED if fails else OK), fails, counts


# ---------------------------------------------------------------------------
# search


# (seed class, l, bound): full generator set, bound sized for 10^3..10^4
# vertices.  E = E_1 (square -1), root = E_1 - E_2, null = L - E_1.
ORBIT_GRID = (
    ("E", 4, 6), ("E", 4, 7), ("E", 5, 4), ("E", 6, 3), ("E", 7, 2), ("E", 8, 2),
    ("root", 4, 5), ("root", 5, 3), ("root", 6, 3), ("root", 7, 2),
    ("null", 6, 3),
)
ORBIT_GRID_TINY = (("E", 4, 3), ("root", 5, 2))
# (blowups, k_max); the first two have frozen answers
DICHOTOMY_GRID = ((9, 40), (10, 5), (11, 40), (12, 50), (12, 60))
DICHOTOMY_GRID_TINY = ((9, 40), (10, 5))


def _orbit_base(kind_of_seed: str, l: int) -> list[int]:
    x = [0] * (l + 1)
    if kind_of_seed == "E":
        x[1] = 1
    elif kind_of_seed == "root":
        x[1], x[2] = 1, -1
    else:
        x[0], x[1] = 1, -1
    return x


def orbit_input(rng: random.Random, kind_of_seed: str, l: int, bound: int):
    """A random-walk image of the base class that stays inside the bound."""
    refl = oracle.reflections(RATIONAL, l)
    x = _orbit_base(kind_of_seed, l)
    for _ in range(rng.randint(0, 40)):
        y = refl.apply([rng.choice(refl.names)], x)
        if max(map(abs, y)) <= bound:
            x = y
    return ("orbit", l, bound, tuple(x), None)


def e8_root_input(rng: random.Random):
    refl = oracle.reflections(RATIONAL, 8)
    names = tuple(f"s{i}" for i in range(8))
    x = _orbit_base("root", 8)
    for _ in range(rng.randint(0, 40)):
        x = refl.apply([rng.choice(names)], x)
    return ("orbit", 8, 40, tuple(x), names)


def o12_input(rng: random.Random):
    letters = [rng.choice(tuple(oracle.O12_MATRICES)) for _ in range(rng.randint(0, 30))]
    return ("o12", oracle.o12_word_matrix(letters))


class Search(_LibraryWorkload):
    """BFS orbits, the exhaustive sphere-class search and the O12 descent."""

    name = "search"

    def setup(self) -> None:
        super().setup()
        for l in range(4, 9):
            self.warm_generators(RATIONAL, l)
        cat = self.catalog
        # the residual table of decompose_O12 is built lazily on first use
        cat.decompose_O12(self.lattice.LatticeAutomorphism.identity(cat.o12_model()))

    def batch(self, rng, tiny):
        grid = ORBIT_GRID_TINY if tiny else ORBIT_GRID
        items = [orbit_input(rng, *cfg) for cfg in grid]
        items.append(e8_root_input(rng))
        items += [("dichotomy", l, k) for l, k in (DICHOTOMY_GRID_TINY if tiny else DICHOTOMY_GRID)]
        items += [o12_input(rng) for _ in range(8 if tiny else 90)]
        rng.shuffle(items)
        return items

    def run(self, item, tr):
        tag = item[0]
        if tag == "orbit":
            _, l, bound, seed, names = item
            gens = self.gens[(RATIONAL, l)]
            seed_class = self.lattice.HomologyClass(self.model(RATIONAL, l), seed)
            with tr.span("weyl.orbit"):
                return self.weyl.orbit(gens, seed_class, bound, names)
        if tag == "dichotomy":
            with tr.span("sw.dichotomy_search"):
                return self.sw.dichotomy_search(item[1], item[2])
        m = self.lattice.LatticeAutomorphism(self.catalog.o12_model(), item[1])
        with tr.span("catalog.decompose_O12"):
            return self.catalog.decompose_O12(m)

    def check(self, item, result):
        tag = item[0]
        if tag == "orbit":
            return check_orbit(item, result.vectors, result.truncated)
        if tag == "dichotomy":
            _, l, k_max = item
            found = [(c.k, tuple(c.m)) for c in result]
            fails = check_candidates(l, k_max, found)
            return (FAILED if fails else OK), fails, {"sw.dichotomy_search.candidates": len(found)}
        matrix = item[1]
        fails = []
        if self.catalog.evaluate_o12_word(result).matrix != matrix:
            fails.append("evaluate_o12_word(decompose_O12(M)) != M")
        if oracle.o12_word_matrix(result.letters) != matrix:
            fails.append("independent product of the word != M")
        return (FAILED if fails else OK), fails, {"catalog.decompose_O12.letters": len(result)}


def check_orbit(item, vectors, truncated):
    """Every vector keeps the seed's square and the bound; the set is closed
    under the generators up to the bound, and truncation is reported
    exactly when some image leaves the bound.  The E8 root orbit is 240."""
    _, l, bound, seed, names = item
    refl = oracle.reflections(RATIONAL, l)
    names = names or refl.names
    sq = oracle.square(RATIONAL, seed)
    fails = []
    if tuple(seed) not in vectors:
        fails.append("orbit misses its seed")
    leaves = False
    for v in vectors:
        if oracle.square(RATIONAL, v) != sq or max(map(abs, v)) > bound:
            fails.append(f"orbit vector {v} breaks the square or the bound")
            break
        for name in names:
            w = tuple(refl.apply((name,), v))
            if max(map(abs, w)) > bound:
                leaves = True
            elif w not in vectors:
                fails.append(f"orbit not closed: {name} moves {v} outside the set")
                break
        if fails:
            break
    if leaves != truncated:
        fails.append("truncated flag disagrees with the generator images")
    if item[4] is not None and (len(vectors) != 240 or sq != -2 or truncated):
        fails.append(f"E8 root orbit has {len(vectors)} vectors, expected 240")
    counts = {"weyl.orbit.vertices": len(vectors), "weyl.orbit.truncated": int(truncated)}
    return (FAILED if fails else OK), fails, counts


def check_candidates(l: int, k_max: int, found: list[tuple[int, tuple]]) -> list[str]:
    fails = []
    if (l, k_max) == (9, 40) and found:
        fails.append("dichotomy_search(9, 40) is not empty")
    if (l, k_max) == (10, 5) and found != [(3, (1,) * 10)]:
        fails.append("dichotomy_search(10, 5) is not [(3; 1^10)]")
    if found != sorted(set(found)):
        fails.append("candidates are not sorted and distinct")
    for k, m in found:
        if not (
            2 <= k <= k_max
            and len(m) == l
            and sum(x * x for x in m) == k * k + 1
            and sum(m[:3]) <= k
            and all(x >= 0 for x in m)
            and list(m) == sorted(m, reverse=True)
        ):
            fails.append(f"candidate ({k}; {m}) breaks the search conditions")
            break
    return fails


# ---------------------------------------------------------------------------
# rank-scaling


# sizes, and the kinds that go with them, are fixed so that a seed changes
# the contents of the inputs but not their cost
GENS_GRID = ((RATIONAL, 25), (RULED, 50), (RATIONAL, 100), (RULED, 150))
REPLAY_GRID = ((RATIONAL, 25), (RULED, 30), (RATIONAL, 35), (RULED, 40),
               (RATIONAL, 45), (RULED, 50), (RATIONAL, 55))
CLASS_K_GRID = (100, 250, 500, 1000)
AFFINE_RANKS = range(2, 8)
PRESENTATION_GRID = ((RATIONAL, 10), (RULED, 12), (RATIONAL, 15), (RULED, 18))
COXETER_GRID = (("BE", 8), ("BD", 12), ("BE", 16), ("BD", 24), ("BE", 32))
CRYSTAL_GRID = (("BD", 8), ("BE", 12), ("BD", 16), ("BE", 24))
REPLAY_INVERSIONS = 8
AFFINE_RATIO = 10_000


def nearly_sorted_input(rng: random.Random, kind: str, l: int):
    """Sorted fractional periods with REPLAY_INVERSIONS disjoint adjacent
    swaps, so the word has that many letters and no wall crossing.  The
    ruled section keeps the input inside the library's cone."""
    q = _denominator(rng, True)
    mus = sorted(
        (Fraction(v, q) for v in rng.sample(range(q, 1000 * q), l)), reverse=True
    )
    for slot in rng.sample(range(l // 2), REPLAY_INVERSIONS):
        i = 2 * slot
        mus[i], mus[i + 1] = mus[i + 1], mus[i]
    total = sum(m * m for m in mus)
    if kind == RATIONAL:
        line = max(Fraction(math.isqrt(int(total)) + 1), sum(sorted(mus)[-3:]))
        line += Fraction(rng.randint(1, 100 * q), q)
        head = (line,)
    else:
        fiber = sum(sorted(mus)[-2:]) + Fraction(rng.randint(1, 100 * q), q)
        head = (fiber, total / fiber + Fraction(rng.randint(1, 100 * q), q))
    return ("replay", kind, l, head, tuple(mus))


def affine_input(rng: random.Random, l: int):
    """Ruled periods with mu_1 / fiber near 10^4: one wall at a time."""
    q = rng.choice((1,) + DENOMS)
    fiber = Fraction(1, q)
    mus = [fiber * int(AFFINE_RATIO * rng.uniform(0.99, 1.01))]
    mus += [Fraction(rng.randint(0, q), q) for _ in range(l - 1)]
    total = sum(m * m for m in mus)
    section = total / fiber + Fraction(rng.randint(1, 10 * q), q)
    return ("affine", RULED, l, (fiber, section), tuple(mus))


def fiber_class_input(rng: random.Random, k: int, l: int = 7):
    """+-E_j + kF in the ruled model (square -1)."""
    coeffs = [0] * (l + 2)
    coeffs[1] = k * rng.choice((1, -1))
    coeffs[1 + rng.randint(1, l)] = rng.choice((1, -1))
    return ("class", RULED, l, tuple(coeffs))


class RankScaling(_LibraryWorkload):
    """Few large calls whose cost grows with rank or period size."""

    name = "rank-scaling"
    # each op starts on a collected heap, so its time and the peak memory
    # do not depend on the garbage the op before it left
    collect_between_ops = True

    def setup(self) -> None:
        super().setup()
        for kind, l in REPLAY_GRID + PRESENTATION_GRID:
            self.warm_generators(kind, l)
        for l in AFFINE_RANKS:
            self.warm_generators(RULED, l)

    def batch(self, rng, tiny):
        pick = (lambda grid: grid[:2]) if tiny else (lambda grid: grid)
        items = [("gens", kind, l) for kind, l in pick(GENS_GRID)]
        items += [nearly_sorted_input(rng, kind, l) for kind, l in pick(REPLAY_GRID)]
        items += [fiber_class_input(rng, k) for k in pick(CLASS_K_GRID)]
        items += [affine_input(rng, l) for l in pick(tuple(AFFINE_RANKS))]
        items += [("presentation", kind, l) for kind, l in pick(PRESENTATION_GRID)]
        items += [("coxeter", family, n) for family, n in pick(COXETER_GRID)]
        items += [("crystal", family, n) for family, n in pick(CRYSTAL_GRID)]
        rng.shuffle(items)
        return items

    def run(self, item, tr):
        tag = item[0]
        weyl, cox = self.weyl, self.coxeter
        if tag == "gens":
            _, kind, l = item
            model = self.lattice.rational_model(l) if kind == RATIONAL else self.lattice.ruled_model(l)
            with tr.span("weyl.generator_set"):
                gens = weyl.generator_set(model)
                gens.automorphisms
            return gens
        if tag in ("replay", "affine"):
            _, kind, l, head, mus = item
            with tr.span("weyl.periods"):
                if kind == RATIONAL:
                    p = weyl.rational_periods(l, head[0], mus)
                else:
                    p = weyl.ruled_periods(l, head[0], head[1], mus)
            with tr.span("weyl.reduce_periods"):
                red = weyl.reduce_periods(p)
            if tag == "affine":
                return red, None
            gens = self.gens[(kind, l)]
            with tr.span("weyl.replay"):
                return red, red.word.apply_to_coeffs(gens, p.dual_coefficients())
        if tag == "class":
            _, kind, l, coeffs = item
            c = self.lattice.HomologyClass(self.model(kind, l), coeffs)
            with tr.span("weyl.reduce_class"):
                return weyl.reduce_class(self.gens[(kind, l)], c)
        if tag == "presentation":
            with tr.span("weyl.verify_presentation"):
                return weyl.verify_presentation(self.gens[(item[1], item[2])])
        if tag == "coxeter":
            system = cox.from_name(f"{item[1]}{item[2]}")
            with tr.span("coxeter.is_finite_type"):
                finite = cox.is_finite_type(system)
            with tr.span("coxeter.gram_determinant"):
                det = cox.gram_determinant(system)
            return finite, det
        struct = cox.standard_crystal(f"{item[1]}{item[2]}")
        with tr.span("coxeter.crystal"):
            edges = cox.verify_crystallographic(struct)
        with tr.span("coxeter.crystal"):
            matrix = cox.crystallographic_lattice_invariance(struct)
        return edges, matrix

    def check(self, item, result):
        tag = item[0]
        fails: list[str] = []
        counts: dict[str, int] = {}
        if tag == "gens":
            _, kind, l = item
            fails = check_generator_set(kind, l, result)
        elif tag in ("replay", "affine"):
            _, kind, l, head, mus = item
            red, replayed = result
            letters = red.word.letters
            fails = _check_reduction(
                kind, l, head, mus, letters, replayed, list(red.reduced.dual_coefficients())
            )
            counts = _word_counts("weyl.reduce_periods", letters)
            if replayed is not None:
                counts["weyl.replay.letters"] = len(letters)
        elif tag == "class":
            return check_class_reduction(item, result, None)
        elif tag == "presentation":
            _, kind, l = item
            if not result.ok or len(result.entries) != l * (l + 1) // 2:
                fails.append("presentation check failed or skipped pairs")
        elif tag == "coxeter":
            _, family, n = item
            finite, det = result
            # BD_n is affine (determinant 0), BE_n hyperbolic with
            # determinant -2^(1-n); neither is finite
            want = "0" if family == "BD" else f"-1/{2 ** (n - 1)}"
            if finite or str(det) != want:
                fails.append(f"{family}{n}: finite={finite}, det={det}, want det {want}")
        else:
            edges, matrix = result
            if not (edges.ok and matrix.ok):
                fails.append(f"{item[1]}{item[2]} standard crystal rejected by a route")
        return (FAILED if fails else OK), fails, counts


def check_generator_set(kind: str, l: int, gens) -> list[str]:
    """Names and classes match the definitions; three matrices (the extra
    wall, a middle swap, the twist) act like the sparse reflections."""
    classes = oracle.generator_classes(kind, l)
    if tuple(gens.names) != tuple(classes):
        return ["generator names differ"]
    if any(tuple(c.coeffs) != classes[n] for n, c in zip(gens.names, gens.classes)):
        return ["generator classes differ"]
    refl = oracle.reflections(kind, l)
    probe = [(7 * i + 3) % 11 - 5 for i in range(oracle.head_len(kind) + l)]
    for name in ("s0", f"s{l // 2}", f"s{l}"):
        if list(gens.automorphisms[name].apply_coeffs(probe)) != refl.apply((name,), probe):
            return [f"matrix of {name} differs from the reflection"]
    return []


# ---------------------------------------------------------------------------
# cli-cold


def _csv(xs) -> str:
    return ",".join(str(x) for x in xs)


def cli_specs(rng: random.Random, tiny: bool) -> list[tuple]:
    """One seeded argv per subcommand, with what the check needs to know."""
    specs = []
    kind = rng.choice((RATIONAL, RULED))
    l = rng.randint(3, 9) if kind == RATIONAL else rng.randint(2, 7)
    specs.append(("manifold-info", [f"--model={kind}", f"--ell={l}"], None))
    a = [rng.randint(-5, 5) for _ in range(6)]
    b = [rng.randint(-5, 5) for _ in range(6)]
    specs.append(("pair", ["--model=rational", "--ell=5", f"--a={_csv(a)}", f"--b={_csv(b)}"], (a, b)))
    refl = oracle.reflections(RULED, 4)
    mirror = list(refl.classes[rng.choice(refl.names)])
    target = [rng.randint(-5, 5) for _ in range(6)]
    specs.append(("reflect", ["--model=ruled", "--ell=4", f"--mirror={_csv(mirror)}",
                              f"--target={_csv(target)}"], (mirror, target)))
    orb = orbit_input(rng, "E", 4, 3)
    specs.append(("orbit", ["--model=rational", "--ell=4", f"--seed={_csv(orb[3])}", "--bound=3"], orb))
    l = rng.randint(3, 9)
    per = rational_periods_input(rng, l, frac=True)
    specs.append(("reduce-periods", ["--model=rational", f"--ell={l}",
                                     f"--periods={_csv(per[3] + per[4])}"], per))
    l = rng.randint(2, 7)
    per = ruled_periods_input(rng, l, rng.random() < 0.5, rng.uniform(1.0, 3.0))
    specs.append(("reduce-periods", ["--model=ruled", f"--ell={l}",
                                     f"--periods={_csv(per[3] + per[4])}"], per))
    l = rng.randint(3, 9)
    cls = class_image_input(rng, RATIONAL, l)
    specs.append(("reduce-class", ["--model=rational", f"--ell={l}", f"--coeffs={_csv(cls[3])}"], cls))
    l = rng.randint(3, 9)
    reduced = reduced_rational(rng, l)
    specs.append(("lagrangian-system", ["--model=rational", f"--ell={l}",
                                        f"--periods={_csv(reduced)}"], (l, reduced)))
    kind = rng.choice((RATIONAL, RULED))
    specs.append(("coxeter-check", [f"--model={kind}", f"--ell={rng.randint(4, 8)}"], None))
    name = rng.choice(("E6", "E7", "E8", "E9", f"BE{rng.randint(5, 12)}", f"BD{rng.randint(4, 12)}"))
    specs.append(("coxeter-finite", [f"--system={name}"], None))
    specs.append(("crystal-check", [f"--system={rng.choice(('BE', 'BD'))}{rng.randint(6, 12)}"], None))
    m = sorted((rng.randint(0, 4) for _ in range(rng.randint(3, 10))), reverse=True)
    k = rng.randint(2, 8)
    while sum(x * x for x in m) - k * k not in (1, 2, 3, 4):
        m = sorted((rng.randint(0, 4) for _ in range(rng.randint(3, 10))), reverse=True)
        k = rng.randint(2, 8)
    specs.append(("sw-check", [f"--k={k}", f"--m={_csv(m)}"], None))
    l, k_max = rng.randint(9, 11), rng.randint(3, 12)
    specs.append(("sw-search", [f"--ell={l}", f"--k-max={k_max}"], (l, k_max)))
    specs.append(("extremal", [f"--k={rng.randint(3, 30)}", f"--ell={rng.randint(3, 12)}"], None))
    o12 = o12_input(rng)
    specs.append(("decompose-o12", ["--matrix=" + ";".join(_csv(r) for r in o12[1])], o12))
    if rng.random() < 0.5:
        specs.append(("describe", [f"--label={rng.choice(SMALL_CASES)}"], None))
    else:
        specs.append(("describe", ["--model=ruled", f"--ell={rng.randint(0, 6)}"], None))
    if tiny:
        specs = [s for s in specs if s[0] in ("pair", "reduce-periods", "sw-search")]
    return specs


SMALL_CASES = ("CP2", "S2xS2", "twisted-S2xS2", "YxS2", "twisted-YxS2",
               "blownup-S2xS2", "blownup-YxS2")


def reduced_rational(rng: random.Random, l: int) -> list[Fraction]:
    """(line; mus) already in the fundamental domain, with ties so that the
    Lagrangian system is not trivial."""
    q = rng.choice((1,) + DENOMS)
    mus = sorted((Fraction(rng.randint(0, 6), q) for _ in range(l)), reverse=True)
    line = sum(mus[:3]) + Fraction(rng.choice((0, 0, 1, 2)), q)
    if line <= 0 or line * line <= sum(m * m for m in mus):
        line = max(sum(mus[:3]), Fraction(math.isqrt(int(sum(m * m for m in mus))) + 1))
    return [line] + mus


class CliCold(Workload):
    """Each op is one fresh `python -m ruled_lattice.cli ... --json`; every
    direct call is followed by a replay of its payload through --input -."""

    name = "cli-cold"
    reference_every = 4

    def __init__(self) -> None:
        self.last: dict = {}

    def setup(self) -> None:
        # users run with a warm bytecode cache; compile once, up front
        import compileall

        compileall.compile_dir(os.path.join(SRC, "ruled_lattice"), quiet=1)

    def batch(self, rng, tiny):
        pairs = [[("direct", i, s), ("replay", i, s)] for i, s in enumerate(cli_specs(rng, tiny))]
        rng.shuffle(pairs)
        return [item for pair in pairs for item in pair]

    def argv(self, item) -> list[str]:
        _, _, (sub, args, _) = item
        return [sub] + args + ["--json"] if item[0] == "direct" else [sub, "--input", "-", "--json"]

    def run(self, item, tr):
        stdin = b""
        if item[0] == "replay":
            first = self.last.get(item[1])
            if first is None or first.returncode == 1:
                return SKIP
            stdin = first.stdout
        proc = subprocess.run(
            [sys.executable, "-m", "ruled_lattice.cli"] + self.argv(item),
            input=stdin,
            capture_output=True,
            check=False,
        )
        if item[0] == "direct":
            self.last[item[1]] = proc
        return proc

    def check(self, item, proc):
        sub, _, extra = item[2]
        counts = {"cli.output_bytes": len(proc.stdout)}
        if proc.returncode == 1:
            return REFUSED, [], counts
        fails = []
        if item[0] == "replay" and proc.stdout != self.last[item[1]].stdout:
            fails.append(f"{sub}: --input replay is not byte-identical")
        if item[0] == "replay" and proc.returncode != self.last[item[1]].returncode:
            fails.append(f"{sub}: --input replay changed the exit code")
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return FAILED, [f"{sub}: exit {proc.returncode}, no JSON payload"], counts
        if payload.get("subcommand") != sub:
            fails.append(f"{sub}: payload names {payload.get('subcommand')!r}")
        fails += check_cli_result(sub, extra, payload["result"], proc.returncode)
        if proc.returncode == 2:
            counts["cli.found"] = 1
        return (FAILED if fails else OK), fails, counts

    def reference(self) -> None:
        """A bare interpreter start, the part of a cold call no change to
        the library moves."""
        subprocess.run([sys.executable, "-c", "pass"], check=True)

    def trace_extras(self, batch, tr) -> tuple[dict[str, float], list[str]]:
        """Split the cold call: bare interpreter, package import, and
        cli.main in process with its library calls wrapped in spans."""
        from time import perf_counter
        import statistics

        def median_wall(argv, n=5):
            walls = []
            for _ in range(n):
                t0 = perf_counter()
                subprocess.run([sys.executable] + argv, capture_output=True, check=True)
                walls.append(perf_counter() - t0)
            return statistics.median(walls)

        interpreter = median_wall(["-c", "pass"])
        imported = median_wall(["-c", "import ruled_lattice.cli"])
        fails = run_cli_in_process(self, batch, tr)
        return {"cli.interpreter_s": interpreter, "cli.import_s": imported - interpreter}, fails


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# names cli.py imports from the library -> layer span they are traced as
CLI_TRACED_CALLS = {
    "reduce_periods": "weyl.reduce_periods",
    "reduce_class": "weyl.reduce_class",
    "lagrangian_system": "weyl.lagrangian_system",
    "generator_set": "weyl.generator_set",
    "orbit": "weyl.orbit",
    "verify_presentation": "weyl.verify_presentation",
    "dichotomy_search": "sw.dichotomy_search",
    "decompose_O12": "catalog.decompose_O12",
    "is_finite_type": "coxeter.is_finite_type",
    "gram_determinant": "coxeter.gram_determinant",
    "verify_crystallographic": "coxeter.crystal",
    "crystallographic_lattice_invariance": "coxeter.crystal",
}


def run_cli_in_process(wl: CliCold, batch, tr) -> list[str]:
    """Every op of one pass through cli.main in this process, stdout
    captured; the output must match the subprocess's byte for byte."""
    import contextlib
    import io

    from ruled_lattice import cli

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)

        return traced

    fails = []
    saved = {attr: getattr(cli, attr) for attr in CLI_TRACED_CALLS}
    old_stdin = sys.stdin
    try:
        for attr, layer in CLI_TRACED_CALLS.items():
            setattr(cli, attr, wrap(layer, saved[attr]))
        for item in batch:
            first = wl.last.get(item[1])
            if first is None or (item[0] == "replay" and first.returncode == 1):
                continue
            sys.stdin = io.TextIOWrapper(io.BytesIO(first.stdout if item[0] == "replay" else b""))
            out = io.StringIO()
            with tr.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(wl.argv(item))
            if code != first.returncode or (code != 1 and out.getvalue().encode() != first.stdout):
                fails.append(f"{item[2][0]}: in-process cli.main differs from the subprocess")
    finally:
        sys.stdin = old_stdin
        for attr, fn in saved.items():
            setattr(cli, attr, fn)
    return fails


def check_cli_result(sub: str, extra, result: dict, code: int) -> list[str]:
    """Content checks through the independent routes, where one exists."""
    fails = []
    if code not in (0, 2) or (code == 2 and sub != "sw-search"):
        fails.append(f"{sub}: unexpected exit code {code}")
    if sub == "pair":
        a, b = extra
        if result["pairing"] != oracle.form(RATIONAL, a, b):
            fails.append("pair: pairing differs from the form")
    elif sub == "reflect":
        mirror, target = extra
        coef = {-2: 1, -1: 2}[oracle.square(RULED, mirror)]
        t = coef * oracle.form(RULED, target, mirror)
        if result["image"] != [x + t * s for x, s in zip(target, mirror)]:
            fails.append("reflect: image differs from the reflection")
    elif sub == "orbit":
        fails += check_orbit(extra, {tuple(v) for v in result["vectors"]}, result["truncated"])[1]
    elif sub == "reduce-periods":
        _, kind, l, head, mus = extra
        red = result["reduced"]
        h = ("line",) if kind == RATIONAL else ("fiber", "section")
        dual = [Fraction(red[k]) for k in h] + [-Fraction(m) for m in red["exceptional"]]
        fails += _check_reduction(kind, l, head, mus, result["word"], None, dual)
    elif sub == "reduce-class":
        _, kind, l, coeffs = extra
        target = oracle.exceptional(kind, l, l)
        if not result["in_orbit"] or oracle.reflections(kind, l).apply(result["word"], coeffs) != target:
            fails.append("reduce-class: word does not land on E_l")
    elif sub == "lagrangian-system":
        l, periods = extra
        dual = oracle.dual_coefficients(RATIONAL, periods[:1], periods[1:])
        if [m["name"] for m in result["members"]] != oracle.zero_period_walls(RATIONAL, l, dual):
            fails.append("lagrangian-system: members differ from the zero-period walls")
    elif sub == "coxeter-check":
        if not result["ok"]:
            fails.append("coxeter-check: presentation mismatch")
    elif sub == "sw-search":
        l, k_max = extra
        found = [(c["k"], tuple(c["m"])) for c in result["candidates"]]
        fails += check_candidates(l, k_max, found)
        if (code == 2) != bool(found):
            fails.append("sw-search: exit code disagrees with the candidates")
    elif sub == "decompose-o12":
        if oracle.o12_word_matrix(result["word"]) != extra[1]:
            fails.append("decompose-o12: word does not evaluate to the matrix")
    return fails


WORKLOADS = {wl.name: wl for wl in (ReduceMix, Search, RankScaling, CliCold)}
