"""Coxeter systems: named graphs, finiteness, orders, crystal splits."""

import itertools
import math
import random
import time
from typing import Iterable, Optional, Sequence

import pytest

from ruled_lattice import coxeter
from ruled_lattice.coxeter import (
    INF,
    CoxeterError,
    CoxeterSystem,
    CrystallographicStructure,
    component_types,
    crystallographic_lattice_invariance,
    family,
    from_name,
    gram_determinant,
    is_finite_type,
    linear,
    standard_crystal,
    verify_crystallographic,
)
from ruled_lattice.base import InternalConsistencyError, LatticeError
from ruled_lattice.lattice import rational_model, ruled_model
from ruled_lattice.qsqrt2 import ONE, ZERO, QSqrt2
from ruled_lattice.weyl import expected_coxeter_system

SMALL_NAMES = ("L4-3-4-4", "L3-4-4", "L3-4-INF", "I2-INF")


# ---------------------------------------------------------------------------
# the name-keyed reference builders: every named graph spelled edge by edge
# on its generator names, apart from the family and small-system tables


def system_from_edges(
    names: Sequence[str],
    edges: Iterable[tuple[str, str, object]],
    label: Optional[str] = None,
) -> CoxeterSystem:
    """Build a system from its graph; unlisted pairs commute (order 2)."""
    names = tuple(names)
    slots = coxeter._slots(names)
    pairs = {}
    for a, b, order in edges:
        try:
            i, j = slots[a], slots[b]
        except KeyError as exc:
            raise CoxeterError(f"edge endpoint {exc.args[0]!r} is not a generator") from None
        pairs[min(i, j), max(i, j)] = order
    return CoxeterSystem(names, pairs, label=label)


def _ref_linear(labels, names=None, label=None) -> CoxeterSystem:
    if names is None:
        names = [f"s{i}" for i in range(1, len(labels) + 2)]
    return system_from_edges(names, zip(names, names[1:], labels), label=label)


def _ref_chain_with_leg(n, leg, label, tail=3, leg_label=3) -> CoxeterSystem:
    names = tuple(f"s{i}" for i in range(n))
    edges = [(f"s{i}", f"s{i+1}", 3 if i < n - 2 else tail) for i in range(1, n - 1)]
    if leg < n:
        edges.append(("s0", f"s{leg}", leg_label))
    return system_from_edges(names, edges, label=label)


def _ref_A(n: int) -> CoxeterSystem:
    if n < 1:
        raise CoxeterError("A_n needs n >= 1")
    return _ref_linear([3] * (n - 1), label=f"A{n}")


def _ref_B(n: int) -> CoxeterSystem:
    if n < 2:
        raise CoxeterError("B_n needs n >= 2")
    return _ref_linear([3] * (n - 2) + [4], label=f"B{n}")


def _ref_D(n: int) -> CoxeterSystem:
    if n < 2:
        raise CoxeterError("D_n needs n >= 2")
    return _ref_chain_with_leg(n, 2, f"D{n}")


def _ref_E(n: int) -> CoxeterSystem:
    if n < 3:
        raise CoxeterError("E_n needs n >= 3")
    return _ref_chain_with_leg(n, 3, f"E{n}")


def _ref_BE(n: int) -> CoxeterSystem:
    if n < 5:
        raise CoxeterError("BE_n needs n >= 5")
    return _ref_chain_with_leg(n, 3, f"BE{n}", tail=4)


def _ref_BD(n: int) -> CoxeterSystem:
    if n < 4:
        raise CoxeterError("BD_n needs n >= 4")
    return _ref_chain_with_leg(n, 2, f"BD{n}", tail=4)


# family: (reference builder, least rank, largest rank checked)
_REF_FAMILIES = {
    "A": (_ref_A, 1, 40),
    "B": (_ref_B, 2, 40),
    "D": (_ref_D, 2, 40),
    "E": (_ref_E, 3, 9),
    "BE": (_ref_BE, 5, 40),
    "BD": (_ref_BD, 4, 40),
}

# label: (reference system, its standard short generators)
_REF_SMALL = {
    "L4-3-4-4": (_ref_linear((3, 4, 4), ("s1", "s2", "s3", "s0"), "L4-3-4-4"), {"s3"}),
    "L3-4-4": (_ref_linear((4, 4), ("s1", "s2", "s0"), "L3-4-4"), {"s2"}),
    "L3-4-INF": (_ref_linear((4, INF), ("s1", "s2", "s0*"), "L3-4-INF"), {"s2", "s0*"}),
    "I2-INF": (_ref_linear((INF,), ("s1", "s1*"), "I2-INF"), {"s1", "s1*"}),
}


def _outcome(build):
    """The JSON of the system ``build()`` returns, or its error's text."""
    try:
        return build().to_json_dict()
    except (CoxeterError, LatticeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_named_systems_match_the_name_keyed_builders():
    for head, (ref, least, top) in _REF_FAMILIES.items():
        for n in range(least - 1, top + 1):
            expected = _outcome(lambda: ref(n))
            assert _outcome(lambda: family(head, n)) == expected, (head, n)
            if n >= least or head != "E":  # E2 gets from_name's range text
                assert _outcome(lambda: from_name(f"{head}{n}")) == expected, (head, n)
            assert (n >= least) == isinstance(expected, dict)
    for name, (ref, _) in _REF_SMALL.items():
        assert _outcome(lambda: from_name(name)) == ref.to_json_dict(), name
    for bad, text in [
        ("E2", "E_n is supported for n = 3..9"),
        ("E10", "E_n is supported for n = 3..9"),
        ("", "empty Coxeter system name"),
        ("X9", "unknown Coxeter system name 'X9'"),
    ]:
        assert _outcome(lambda: from_name(bad)) == f"CoxeterError: {text}"


def test_standard_crystal_matches_the_name_keyed_builders():
    cases = [(f"BE{n}", _ref_BE(n), None) for n in range(5, 41)]
    cases += [(f"BD{n}", _ref_BD(n), None) for n in range(4, 41)]
    cases += [(name, ref, short) for name, (ref, short) in _REF_SMALL.items()]
    for name, ref, short in cases:
        expected = CrystallographicStructure(ref, frozenset(short or {ref.names[-1]}))
        assert standard_crystal(name).to_json_dict() == expected.to_json_dict(), name


def test_expected_coxeter_system_matches_the_name_keyed_builders():
    for model, leg, ref, small in [
        (rational_model, 3, _ref_BE, "L4-3-4-4"),
        (ruled_model, 2, _ref_BD, "L3-4-4"),
    ]:
        for l in range(61):
            if l < leg:
                kind = model(l).kind.value
                expected = f"LatticeError: no presentation below {leg} blowups in the {kind} model"
            elif l == leg:  # the small chain, kept in the generator order s0..s_l
                expected = _ref_chain_with_leg(l + 1, leg, small, 4, 4).to_json_dict()
            else:
                expected = ref(l + 1).to_json_dict()
            assert _outcome(lambda: expected_coxeter_system(model(l))) == expected, (small, l)


def test_infinity_is_a_singleton():
    assert INF is type(INF)()
    assert repr(INF) == "inf"
    assert INF != 2


def test_system_validation():
    with pytest.raises(CoxeterError):
        system_from_edges(("a", "b"), [("a", "c", 3)])
    with pytest.raises(CoxeterError):
        system_from_edges(("a", "b"), [("a", "b", 5)])  # label not in {2,3,4,oo}
    with pytest.raises(CoxeterError):
        system_from_edges(("a", "a"), [])
    with pytest.raises(CoxeterError):
        linear((3, 3), names=("x",))
    # linear passes index pairs straight to CoxeterSystem, which checks them
    with pytest.raises(CoxeterError, match="unsupported pair order 5 between s1 and s2"):
        linear((5,))
    with pytest.raises(CoxeterError, match="generator names must be distinct"):
        linear((3,), names=("x", "x"))


def test_named_ranks_and_labels():
    cases = {
        "A4": 4,
        "B3": 3,
        "D5": 5,
        "E6": 6,
        "E8": 8,
        "BE7": 7,
        "BD5": 5,
        "L4-3-4-4": 4,
        "L3-4-4": 3,
        "L3-4-inf": 3,
        "I2-inf": 2,
    }
    for name, rank in cases.items():
        system = from_name(name)
        assert system.rank == rank, name
        assert system.label is not None
    assert from_name("E6").label == "E6"
    assert from_name("L3-4-inf").label == "L3-4-INF"
    assert from_name("I2-inf") == _REF_SMALL["I2-INF"][0]


def _drawn(n: int, edges) -> list:
    """The JSON order matrix on s0..s_{n-1} of a graph given by index edges."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, order in edges:
        m[i][j] = m[j][i] = order
    return m


def _chain(n: int, tail: int = 3) -> list:
    """The edges s1 - s2 - ... - s_{n-1}, the last one labelled ``tail``."""
    return [(i, i + 1, tail if i == n - 2 else 3) for i in range(1, n - 1)]


def _pinned_graphs():
    """Every drawn graph as (system, edge list and label from its docstring)."""
    for n in range(2, 17):
        # D_n: chain s1..s_{n-1} plus s0 on s2; D_2 is two commuting nodes
        yield family("D", n), _chain(n) + ([(0, 2, 3)] if n >= 3 else []), f"D{n}"
    for n in range(3, 10):
        # E_n: chain s1..s_{n-1} plus s0 on s3; s0 is isolated in E_3
        yield family("E", n), _chain(n) + ([(0, 3, 3)] if n >= 4 else []), f"E{n}"
    for n in range(5, 17):
        # BE_n: chain with final label 4, s0 on s3
        yield family("BE", n), _chain(n, 4) + [(0, 3, 3)], f"BE{n}"
    for n in range(4, 17):
        # BD_n: chain with final label 4, s0 on s2
        yield family("BD", n), _chain(n, 4) + [(0, 2, 3)], f"BD{n}"
    # rational l >= 4 gives BE_{l+1}; l = 3 is the chain s1-s2=s3=s0
    edges = [(1, 2, 3), (2, 3, 4), (0, 3, 4)]
    yield expected_coxeter_system(rational_model(3)), edges, "L4-3-4-4"
    for l in range(4, 17):
        edges = _chain(l + 1, 4) + [(0, 3, 3)]
        yield expected_coxeter_system(rational_model(l)), edges, f"BE{l + 1}"
    # ruled l >= 3 gives BD_{l+1}; l = 2 is the chain s1=s2=s0
    yield expected_coxeter_system(ruled_model(2)), [(1, 2, 4), (0, 2, 4)], "L3-4-4"
    for l in range(3, 17):
        edges = _chain(l + 1, 4) + [(0, 2, 3)]
        yield expected_coxeter_system(ruled_model(l)), edges, f"BD{l + 1}"


def test_edge_fixtures():
    for system, edges, label in _pinned_graphs():
        n = system.rank
        assert system.names == tuple(f"s{i}" for i in range(n)), label
        assert system.to_json_dict()["matrix"] == _drawn(n, edges), label
        assert system.edges() == sorted(edges), label
        assert system.label == label
    be5 = family("BE", 5)
    # chain s1-s2-s3=s4 with s0 hanging off s3
    assert be5.order("s3", "s4") == 4
    assert be5.order("s0", "s3") == 3
    assert be5.order("s0", "s4") == 2
    assert be5.order("s1", "s2") == 3
    l34i = from_name("L3-4-INF")
    assert l34i.order("s2", "s0*") is INF
    assert l34i.order("s1", "s2") == 4
    assert from_name("I2-INF").order("s1", "s1*") is INF


def test_from_name_rejects_junk():
    for bad in ("E10", "E2", "Q5", "BEx", "L3-4", "L3-4-7", "xyz", "", " "):
        with pytest.raises(CoxeterError):
            from_name(bad)


def test_from_name_refuses_a_chain_below_rank_1():
    # the rank rule comes before the label count, as a family's n >= 1 does
    for name in ("L0", "l0", "L0-3", "L00"):
        with pytest.raises(CoxeterError) as info:
            from_name(name)
        assert str(info.value) == "L_k needs k >= 1", name
    assert from_name("L1").rank == 1


@pytest.mark.parametrize(
    "name,message",
    [
        ("A²", "unknown Coxeter system name 'A²'"),
        ("E³", "unknown Coxeter system name 'E³'"),
        ("D¹²", "unknown Coxeter system name 'D¹²'"),
        ("L3-4-²", "bad edge label '²' in 'L3-4-²'"),
    ],
)
def test_from_name_refuses_digits_that_int_cannot_read(capsys, name, message):
    # superscripts pass str.isdigit but not int(); ranks and labels are
    # read as decimal digits, so these are refusals, not ValueErrors
    from ruled_lattice.cli import EXIT_USAGE, main

    with pytest.raises(CoxeterError) as info:
        from_name(name)
    assert str(info.value) == message
    assert main(["coxeter-finite", f"--system={name}"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_json_round_trip_keeps_infinite_labels():
    systems = (family("E", 7), from_name("L3-4-INF"), from_name("I2-INF"), linear((3, INF, 4)))
    for system in systems:
        back = CoxeterSystem.from_json_dict(system.to_json_dict())
        assert back == system
        assert back.label == system.label


@pytest.mark.parametrize(
    "matrix,message",
    [
        ([[1, 2]], "matrix must be 2x2"),
        ([[1, 2], [3, 1]], "matrix must be symmetric"),  # the 2 above is checked too
        ([[1, 2], [2, 1.0]], "diagonal entries must be 1"),
        ([[True, 2], [2, 1]], "diagonal entries must be 1"),
        ([[1, 5], [5, 1]], "unsupported pair order 5 between a and b"),
        ([[1, 3], [3.0, 1]], "unsupported pair order 3.0 between a and b"),
        ([[1, 2], [2.0, 1]], "unsupported pair order 2.0 between a and b"),
        ([[1, True], [True, 1]], "unsupported pair order True between a and b"),
        ([[1, "x"], ["x", 1]], "unsupported pair order 'x' between a and b"),
        ([5, 6], "malformed Coxeter JSON: 'int' object is not iterable"),
        # the first failure in row order: row 0's pair (a, b), then row 1's
        # diagonal, then the pair (b, c); an entry below the diagonal
        # counts at its mirror
        ([[1, 5, 2], [5, 1, 2], [2, 2, 0]], "unsupported pair order 5 between a and b"),
        ([[1, 2, 2], [2, 0, 7], [2, 7, 1]], "diagonal entries must be 1"),
        ([[1, 2, 2], [2, 1, 2], [3, 2, 1]], "matrix must be symmetric"),
        ([[1, 2, 2], [2, 1, 7], [2, 7, 1]], "unsupported pair order 7 between b and c"),
    ],
)
def test_json_reader_checks_every_entry(matrix, message):
    names = ["a", "b", "c"][: max(2, len(matrix))]
    with pytest.raises(CoxeterError) as exc:
        CoxeterSystem.from_json_dict({"names": names, "matrix": matrix})
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# finiteness (exact leading minors of the bilinear form)


def test_finiteness_dichotomy():
    for n in range(3, 9):
        assert is_finite_type(family("E", n)), f"E{n} should be finite"
    assert not is_finite_type(family("E", 9))
    for n in range(5, 12):
        assert not is_finite_type(family("BE", n)), f"BE{n} should be infinite"
    for n in range(4, 12):
        assert not is_finite_type(family("BD", n)), f"BD{n} should be infinite"
    for name in SMALL_NAMES:
        assert not is_finite_type(from_name(name))
    for system in (family("A", 1), family("A", 6), family("B", 4), family("D", 7)):
        assert is_finite_type(system)


def test_component_types_of_the_named_systems():
    for n in range(1, 41):
        assert component_types(family("A", n)) == (f"A{n}",)
    for n in range(2, 41):
        assert component_types(family("B", n)) == (f"B{n}",)
    for n in range(4, 41):
        assert component_types(family("D", n)) == (f"D{n}",)
    for n in range(6, 9):
        assert component_types(family("E", n)) == (f"E{n}",)
    assert component_types(from_name("L4-3-4-3")) == ("F4",)
    # the small D and E graphs are other types, or split
    assert component_types(family("D", 2)) == ("A1", "A1")
    assert component_types(family("D", 3)) == ("A3",)
    assert component_types(family("E", 3)) == ("A2", "A1")
    assert component_types(family("E", 4)) == ("A4",)
    assert component_types(family("E", 5)) == ("D5",)
    infinite = [family("E", 9)] + [from_name(name) for name in SMALL_NAMES]
    infinite += [family("BE", n) for n in range(5, 41)] + [family("BD", n) for n in range(4, 41)]
    # a 4 inside a path past F4, two 4s, F4 extended
    infinite += [from_name(n) for n in ("L5-3-4-3-3", "L4-4-3-4", "L5-3-3-4-3")]
    names = ("a", "b", "c", "d", "e")
    infinite += [
        system_from_edges(names[:3], [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]),
        system_from_edges(names[:4], [("a", "b", 4), ("b", "c", 3), ("b", "d", 3)]),
        system_from_edges(names, [("a", x, 3) for x in names[1:]]),  # a fork of degree 4
    ]
    for system in infinite:
        assert component_types(system) is None, system
    # components sort largest rank first, the letter breaking a tie
    system = system_from_edges(names, [("e", "d", 4), ("c", "b", 3)])
    assert component_types(system) == ("A2", "B2", "A1")


# det(-Gram) of each finite connected type times 2^rank: the determinant of
# its Cartan matrix
_CARTAN_DET = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: 9 - n,
    "F": lambda n: 1,
}


def test_component_types_match_the_gram_determinant_on_random_forests():
    """Every type a random forest reaches, its rank and Cartan determinant
    against the elimination's determinant: a check of the labels themselves,
    not only of finiteness."""
    rng = random.Random(21)
    letters = set()
    for _ in range(600):
        names = [f"g{i}" for i in range(rng.randint(1, 9))]
        edges = [
            (a, rng.choice(names[:i]), rng.choice((3,) * 6 + (4, INF)))
            for i, a in enumerate(names)
            if i and rng.random() < 0.9
        ]
        rng.shuffle(names)
        system = system_from_edges(names, edges)
        types = component_types(system)
        assert (types is not None) == is_finite_type(system)
        if types is None:
            continue
        letters.update(t[0] for t in types)
        assert sum(int(t[1:]) for t in types) == system.rank
        cartan = math.prod(_CARTAN_DET[t[0]](int(t[1:])) for t in types)
        assert gram_determinant(system) == QSqrt2(cartan) / 2**system.rank, system
    assert letters == set("ABDEF")


def test_component_types_refuse_a_disagreeing_elimination(monkeypatch):
    real = coxeter._definite
    monkeypatch.setattr(coxeter, "_definite", lambda s: not real(s))
    for system in (family("E", 8), family("E", 9), family("A", 1)):
        with pytest.raises(InternalConsistencyError, match="disagree"):
            is_finite_type(system)


def test_gram_determinant_values():
    assert gram_determinant(family("A", 1)) == ONE
    assert gram_determinant(family("A", 2)) == QSqrt2(3) / 4
    # affine systems are exactly degenerate
    assert gram_determinant(family("E", 9)) == ZERO
    assert gram_determinant(family("BD", 5)) == ZERO
    assert gram_determinant(from_name("L3-4-4")) == ZERO
    # E8: det(Cartan)/2^8
    assert gram_determinant(family("E", 8)) == QSqrt2(1) / 256


_COS = {2: ZERO, 3: QSqrt2(1) / 2, 4: QSqrt2(0, 1) / 2, INF: ONE}


def _dense_gram(system) -> list:
    """The n x n Gram matrix, every entry read through ``order``."""
    names = system.names
    return [[-ONE if a == b else _COS[system.order(a, b)] for b in names] for a in names]


def _dense_elimination(system) -> tuple:
    """(det(-Gram), -Gram positive definite) by dense Gaussian elimination:
    the first nonzero row below swaps up, and while no swap is needed each
    pivot is a ratio of consecutive leading minors of Gram."""
    rows = _dense_gram(system)
    n = len(rows)
    det = -ONE if n % 2 else ONE
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
        tail = [(c, rows[col][c]) for c in range(col + 1, n) if rows[col][c]]
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / pivot
                for c, y in tail:
                    rows[r][c] = rows[r][c] - factor * y
    return det, definite


def _random_graphs(count: int, seed: int = 16):
    """Seeded graphs of 1..8 nodes, cycles and oo labels included, their
    nodes in a shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"g{i}" for i in range(rng.randint(1, 8))]
        edges = [
            (a, b, rng.choice((3, 3, 4, INF)))
            for a, b in itertools.combinations(names, 2)
            if rng.random() < 0.45
        ]
        rng.shuffle(names)
        yield system_from_edges(names, edges)


def test_sparse_elimination_matches_the_dense_reference():
    systems = [family("A", n) for n in range(1, 12)] + [family("B", n) for n in range(2, 12)]
    systems += [family("D", n) for n in range(2, 12)] + [family("E", n) for n in range(3, 10)]
    systems += [family("BE", n) for n in range(5, 41)] + [family("BD", n) for n in range(4, 41)]
    systems += [expected_coxeter_system(rational_model(l)) for l in range(3, 41)]
    systems += [expected_coxeter_system(ruled_model(l)) for l in range(2, 41)]
    systems += [from_name(name) for name in SMALL_NAMES]
    randoms = list(_random_graphs(400))
    # the random graphs reach every branch: cycles, swaps, zero columns
    assert any(len(s.edges()) >= s.rank for s in randoms)
    assert any(not gram_determinant(s) for s in randoms)
    for system in systems + randoms:
        assert (gram_determinant(system), is_finite_type(system)) == _dense_elimination(
            system
        ), system


def test_elimination_is_linear_along_a_tree():
    # the dense Gram of BE1500 alone holds 2.25 million entries; the sparse
    # rows of the tree hold about 4500 and never fill in
    start = time.perf_counter()
    system = family("BE", 1500)
    assert not is_finite_type(system)
    assert gram_determinant(system) == QSqrt2(-1) / 2**1499
    assert time.perf_counter() - start < 1.0


def _leibniz_det(matrix) -> QSqrt2:
    """Determinant as a sum over permutations: no elimination, no pivots."""
    total = ZERO
    for perm in itertools.permutations(range(len(matrix))):
        term = ONE
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def _systems_up_to_rank_6():
    names = [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    names += [f"D{n}" for n in range(2, 7)] + [f"E{n}" for n in range(3, 7)]
    names += ["BE5", "BE6", "BD4", "BD5", "BD6", "I2-inf", "L1"]
    for k in range(2, 5):
        for labels in itertools.product(("2", "3", "4", "inf"), repeat=k - 1):
            names.append(f"L{k}-" + "-".join(labels))
    return [from_name(name) for name in names]


def test_elimination_matches_leibniz_minors():
    """One elimination pass against an independent route: permutation-sum
    leading minors of -Gram, built here from the pair orders."""
    systems = _systems_up_to_rank_6()
    # chains whose elimination needs a row swap (a leading minor vanishes)
    assert from_name("L3-inf-3") in systems and from_name("L4-4-4-4") in systems
    for system in systems:
        n = system.rank
        neg = [[-x for x in row] for row in _dense_gram(system)]
        minors = [_leibniz_det([row[:k] for row in neg[:k]]) for k in range(1, n + 1)]
        assert gram_determinant(system) == minors[-1], system
        assert is_finite_type(system) == all(d.sign() > 0 for d in minors), system


# ---------------------------------------------------------------------------
# the dense geometric representation, a reference route


def _mat_identity(n: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


def _geometric_generators(system):
    """Exact reflection matrices on the root space, one per generator.

    Basis vectors have square -1 and <e_i, e_j> = cos(pi/m_ij); sigma_j
    adds 2<x, e_j> to the e_j coordinate, so only its row j differs from
    the identity.
    """
    n = system.rank
    gram = _dense_gram(system)
    gens = []
    for j in range(n):
        rows = list(_mat_identity(n))
        rows[j] = tuple((ONE if c == j else ZERO) + 2 * gram[c][j] for c in range(n))
        gens.append(tuple(rows))
    return tuple(gens)


def _product_order(system, a: str, b: str, cap: int = 64):
    """Order of sigma_a sigma_b by exact matrix powers; None above ``cap``."""
    gens = _geometric_generators(system)
    prod = _mat_mul(gens[system.index(a)], gens[system.index(b)])
    ident = _mat_identity(system.rank)
    power = prod
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = _mat_mul(power, prod)
    return None


def test_product_orders_match_graph_labels():
    be5 = family("BE", 5)
    assert _product_order(be5, "s1", "s1") == 1
    assert _product_order(be5, "s1", "s2") == 3
    assert _product_order(be5, "s3", "s4") == 4
    assert _product_order(be5, "s0", "s4") == 2
    assert _product_order(from_name("I2-INF"), "s1", "s1*") is None


# ---------------------------------------------------------------------------
# crystallographic splits, both routes


STANDARD_NAMES = ("BE5", "BE9", "BD4", "BD8", "L4-3-4-4", "L3-4-4", "L3-4-inf", "I2-inf")


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_standard_splits_pass_both_routes(name):
    struct = standard_crystal(name)
    by_edges = verify_crystallographic(struct)
    by_matrices = crystallographic_lattice_invariance(struct)
    assert by_edges.ok, by_edges.violations
    assert by_matrices.ok, by_matrices.violations


def test_standard_split_shapes():
    assert standard_crystal("BE6").short == {"s5"}
    assert standard_crystal("L4-3-4-4").short == {"s3"}
    assert standard_crystal("L3-4-inf").short == {"s2", "s0*"}
    assert standard_crystal("I2-inf").short == {"s1", "s1*"}
    with pytest.raises(CoxeterError):
        standard_crystal("E6")


@pytest.mark.parametrize(
    "name",
    [f"BE{n}" for n in range(6, 13)]
    + [f"BD{n}" for n in range(5, 13)]
    + ["L4-3-4-4", "L3-4-4", "L3-4-inf", "I2-inf"],
)
def test_crystal_json_round_trip(name):
    struct = standard_crystal(name)
    back = CrystallographicStructure.from_json_dict(struct.to_json_dict())
    assert back == struct
    assert back.system.label == struct.system.label


@pytest.mark.parametrize(
    "name,short",
    [
        ("E6", frozenset({"s1"})),  # label 3 edge would cross parts
        ("BE5", frozenset({"s0"})),  # label 4 edge stays within one part
        ("L3-4-4", frozenset()),  # label 4 edges need a crossing
    ],
)
def test_bad_splits_fail_both_routes(name, short):
    struct = CrystallographicStructure(from_name(name), short)
    by_edges = verify_crystallographic(struct)
    by_matrices = crystallographic_lattice_invariance(struct)
    assert not by_edges.ok
    assert not by_matrices.ok
    assert by_edges.violations and by_matrices.violations


def _dense_violations(struct):
    """The matrix route on every entry of every dense generator matrix."""
    names = struct.system.names
    scales = [struct.scale(n) for n in names]
    bad = []
    for g, gen in zip(names, _geometric_generators(struct.system)):
        for r, c in itertools.product(range(len(names)), repeat=2):
            entry = gen[r][c] * scales[c] / scales[r]
            if not entry.is_integer():
                bad.append(f"generator {g}: entry ({names[r]},{names[c]}) = {entry}")
    return tuple(bad)


CRYSTAL_NAMES = (
    [f"BE{n}" for n in range(5, 17)]
    + [f"BD{n}" for n in range(4, 17)]
    + ["L4-3-4-4", "L3-4-4", "L3-4-inf", "I2-inf"]
)


def test_crystal_matrix_route_checks_only_generator_rows():
    for name in CRYSTAL_NAMES:
        struct = standard_crystal(name)
        first = struct.system.names[0]
        for short in (struct.short, struct.short ^ {first}):
            split = CrystallographicStructure(struct.system, short)
            by_matrices = crystallographic_lattice_invariance(split)
            if split.system.rank <= 8:  # the dense reference is cubic
                assert by_matrices.violations == _dense_violations(split), name
            assert by_matrices.ok == verify_crystallographic(split).ok, (name, short)
        assert crystallographic_lattice_invariance(struct).ok, name
    wrong = CrystallographicStructure(from_name("BE7"), frozenset({"s1"}))
    assert crystallographic_lattice_invariance(wrong).violations == (
        "generator s1: entry (s1,s2) = 1*sqrt2",
        "generator s2: entry (s2,s1) = 1/2*sqrt2",
        "generator s5: entry (s5,s6) = 1*sqrt2",
        "generator s6: entry (s6,s5) = 1*sqrt2",
    )


def test_crystal_matrix_route_is_linear_in_the_edges(monkeypatch):
    # row j of sigma_j comes from j's neighbours: one cosine per edge of
    # BE400, where reading all pair orders would take 79 800 and a dense
    # rebuild per read ran for minutes
    from ruled_lattice import coxeter

    struct = standard_crystal("BE400")
    real, calls = coxeter._cos_pi_over, 0

    def counting(m):
        nonlocal calls
        calls += 1
        return real(m)

    def unused(*args):
        raise AssertionError("the matrix route read a pair order")

    monkeypatch.setattr(coxeter, "_cos_pi_over", counting)
    monkeypatch.setattr(CoxeterSystem, "order", unused)
    for short in (struct.short, struct.short ^ {"s0", "s200"}):
        split = CrystallographicStructure(struct.system, short)
        calls = 0
        by_matrices = crystallographic_lattice_invariance(split)
        by_edges = verify_crystallographic(split)
        assert calls == len(split.system.edges()) == 399
        # a crossing label-3 edge breaks both of its generators' rows
        assert len(by_matrices.violations) == 2 * len(by_edges.violations)
    assert not by_matrices.ok and len(by_edges.violations) == 3


def test_all_long_is_fine_when_simply_laced():
    # rescaling everything by sqrt2 changes nothing structurally
    struct = CrystallographicStructure(family("E", 6), frozenset())
    assert verify_crystallographic(struct).ok
    assert crystallographic_lattice_invariance(struct).ok


def test_split_rejects_unknown_names():
    with pytest.raises(CoxeterError):
        CrystallographicStructure(family("A", 3), frozenset({"nope"}))
