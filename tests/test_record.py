"""Record, the frozen value-type base of every result and node class."""

import itertools

import pytest

from ruled_lattice import catalog, cli, coxeter, lattice, sw, weyl
from ruled_lattice.base import Record
from ruled_lattice.lattice import Kind, LatticeError, rational_model, ruled_model


def _record_classes() -> set:
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("ruled_lattice.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def _samples() -> dict:
    """Positional field values of one valid instance per Record class."""
    model = rational_model(3)
    e1 = lattice.exceptional_class(model, 1)
    gens = weyl.generator_set(model)
    a2 = coxeter.from_name("A2")
    word = weyl.GroupWord(("s1", "s2"))
    entry = weyl.PresentationEntry("s0", "s1", 3, 3)
    periods = weyl.rational_periods(3, 6, (3, 2, 1))
    z2, z = catalog.Cyclic(2), catalog.FreeAbelian(1)
    return {
        lattice.ManifoldModel: (Kind.RULED, 2, 1),
        lattice.HomologyClass: (model, (1, 0, 0, -1)),
        lattice.LatticeAutomorphism: (model, gens.automorphisms["s3"].matrix),
        weyl.GeneratorSet: (gens.model, gens.names, gens.roots),
        weyl.GroupWord: (("s0", "s1"),),
        weyl.PresentationEntry: ("s0", "s1", coxeter.INF, None),
        weyl.PresentationReport: (model, (entry,), a2),
        weyl.OrbitResult: (model, frozenset({(1, 0, 0, -1)}), False),
        weyl.PeriodVector: (ruled_model(2), (6, 4, -3, -3), 2),
        weyl.PeriodReduction: (periods, word, ("s1",)),
        weyl.ClassReduction: (True, word, e1, None),
        weyl.LagrangianSystem: (model, ("s1",), gens.roots[1:2], a2, ("A1",)),
        weyl.MaximalMembership: ("A2", ("s1", "s2")),
        coxeter.CoxeterSystem: (a2.names, tuple(a2.pairs.items()), "A2"),
        coxeter.CrystallographicStructure: (a2, frozenset({"s1"})),
        coxeter.CrystalReport: (False, ("s1-s2",)),
        sw.SphereCandidate: (3, (2, 1, 1)),
        sw.CertifyResult: (sw.Verdict.DOLGACHEV_EXCEPTION, 2),
        catalog.GroupNode: (),
        catalog.Cyclic: (2,),
        catalog.FreeAbelian: (2,),  # the same field tuple as Cyclic(2)
        catalog.CoxeterGroup: (a2,),
        catalog.Semidirect: (z, z2),
        catalog.DirectSum: ((z2, z),),
        catalog.BlackBox: ("Torelli",),
        catalog.GroupDescription: ("Symp", z2, ("a note",)),
        cli._Outcome: ({"ok": True}, ("ok",), cli.EXIT_FOUND),
        cli._Command: ("name", "help", print, print, ("lattice",), print),
        cli._Flag: ("--generators", str, "NAMES", "subset", "generators", print, True),
    }


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_record_semantics():
    samples = _samples()
    assert set(samples) == _record_classes()
    made = []
    for cls, args in samples.items():
        fields, defaults = cls._fields, cls._defaults
        assert len(args) == len(fields), cls
        # positional, keyword, and keyword with every default left out
        record = cls(*args)
        assert cls(**dict(zip(fields, args))) == record
        given = {f: v for f, v in zip(fields, args) if f not in defaults or v != defaults[f]}
        assert cls(**given) == record
        assert repr(record).startswith(f"{cls.__qualname__}(")
        required = [f for f in fields if f not in defaults]
        if required:
            with pytest.raises(TypeError):
                cls(*args[: len(required) - 1])
            with pytest.raises(TypeError):
                cls(*args, **{fields[0]: args[0]})
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)
        for name in fields + ("no_such_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        again = cls(*args)
        assert again == record and not again != record
        if _hashable(args):
            assert hash(again) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)
        made.append(record)
    for a, b in itertools.permutations(made, 2):
        assert a != b and not a == b, (a, b)

    # the defaults themselves
    a2 = coxeter.from_name("A2")
    assert coxeter.CoxeterSystem(a2.names, a2.pairs).label is None
    assert coxeter.CrystalReport(True).violations == ()
    assert sw.CertifyResult(sw.Verdict.VIOLATION).dolgachev_m is None
    assert catalog.GroupDescription("G", catalog.Cyclic(2)).notes == ()
    assert repr(lattice.ManifoldModel(Kind.RATIONAL, 3)) == (
        "ManifoldModel(kind=<Kind.RATIONAL: 'rational'>, blowups=3, genus=0)"
    )

    # a CoxeterSystem's label is a display name, outside equality
    unlabelled = coxeter.CoxeterSystem(a2.names, a2.pairs)
    assert unlabelled == a2 and hash(unlabelled) == hash(a2)
    assert coxeter.CoxeterSystem(a2.names, {(0, 1): 4}, "A2") != a2

    # a node's kind is a class constant, still written as its JSON tag
    nodes = [c for c in samples if issubclass(c, catalog.GroupNode)]
    tags = {c.kind: c(*samples[c]).to_json_dict()["kind"] for c in nodes[1:]}
    assert tags == {k: k for k in (
        "cyclic", "free_abelian", "coxeter", "semidirect", "direct_sum", "black_box"
    )}
    assert all("kind" not in c._fields for c in nodes)

    # __post_init__ validates and normalizes, on either construction path
    model = rational_model(3)
    with pytest.raises(LatticeError):
        lattice.HomologyClass(model, (1, 0))
    with pytest.raises(LatticeError):
        lattice.HomologyClass(model=model, coeffs=(1, 0, 0, 0.5))
    with pytest.raises(LatticeError):
        lattice.ManifoldModel(Kind.RATIONAL, 3, genus=1)
    with pytest.raises(sw.SWError):
        sw.SphereCandidate(True, ())
    assert weyl.GroupWord(letters=["s1"]).letters == ("s1",)
