"""Command-line frontend: one invocation, one computation, text or JSON.

Every subcommand takes --json for a machine-readable payload and --input
FILE to re-run the "input" object of a previous payload.  A gather may
hand the run the library objects it built: --json writes them through
``to_json_dict`` and --input reads them back through ``from_json_dict``, so
a re-fed payload reproduces the result byte for byte.  Exit codes: 0
success, 1 bad usage or failed validation, 2 search found candidates
(sw-search only), 3 internal consistency failure.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import _EXPORTS, _HOME
from .base import (
    CoxeterError,
    InternalConsistencyError,
    LatticeError,
    Record,
    SMALL_CASE_LABELS,
    SWError,
    is_int_text,
)

if TYPE_CHECKING:
    from argparse import Namespace

    # the parsed flags, from argparse or the plain parser; read by attribute
    # and vars() only
    _Args = Namespace | SimpleNamespace

def _bind(modules: Sequence[str]) -> None:
    """Bind the package's public names of ``modules`` into this module.

    A command names the library modules it needs and main binds them just
    before dispatch, so a cold call loads only what its subcommand uses (a
    gather binds more itself on a path that needs more).  Binding never
    replaces a name already set, so a wrapper installed with setattr (a
    tracer, a test double) stays in place.
    """
    for module in modules:
        lib = import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(lib, name))


def __getattr__(name: str):
    # PEP 562: a library name read from outside resolves before main binds it
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_HOME[name],))
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FOUND = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    """Bad flags or a malformed input payload; maps to exit code 1."""


# ---------------------------------------------------------------------------
# flag parsing


class _Flag(Record):
    """One option of a subcommand, read by the plain parser and by argparse.

    ``kind`` is ``str``, ``int``, the tuple of accepted strings, or ``bool``
    for a switch that takes no value; ``metavar`` None is argparse's default.
    ``_gather_flags`` stores the value under ``key``, through ``read`` when
    there is one, and requires the flag unless it is ``optional``; a flag
    without a key is read some other way.
    """

    name: str
    kind: object
    metavar: Optional[str]
    help: str
    key: Optional[str] = None
    read: Optional[Callable] = None
    optional: bool = False

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


_MODEL_FLAGS = (
    # --model stores all three, as one "model" object
    _Flag("--model", ("rational", "ruled"), None, "lattice model", "model"),
    _Flag("--ell", int, None, "number of exceptional classes"),
    _Flag("--genus", int, None, "base genus (ruled only, default 1)"),
)

# every subcommand takes these after its own flags
_COMMON_FLAGS = (
    _Flag("--json", bool, None, "emit a JSON payload"),
    _Flag(
        "--input",
        str,
        "FILE",
        "re-run the input of a previous --json payload ('-' for stdin)",
    ),
)


def _split_list(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",")]
    if items == [""]:
        return []
    return items


def parse_int_list(text: str) -> list[int]:
    out = []
    for piece in _split_list(text):
        if not is_int_text(piece):
            raise UsageError(f"expected comma-separated integers, got {text!r}")
        out.append(int(piece))
    return out


def _model_dict(args: _Args) -> dict:
    if args.model is None or args.ell is None:
        raise UsageError("--model and --ell are required (or use --input)")
    if args.model == "rational":
        if args.genus not in (None, 0):
            raise UsageError("the rational model has genus 0; drop --genus")
        genus = 0
    else:
        genus = 1 if args.genus is None else args.genus
    return {"kind": args.model, "blowups": args.ell, "genus": genus}


def _gather_flags(args: _Args, flags: Sequence[_Flag]) -> dict:
    """The payload of the flags that have a key, in table order."""
    inp = {}
    for flag in flags:
        value = getattr(args, flag.dest)
        if flag.key == "model":
            inp["model"] = _model_dict(args)
        elif flag.key is None or (value is None and flag.optional):
            continue
        elif value is None:
            raise UsageError(f"{flag.name} is required (or use --input)")
        else:
            inp[flag.key] = value if flag.read is None else flag.read(value)
    return inp


# ---------------------------------------------------------------------------
# input-dict validation (payloads may come from a file, so trust nothing)


def _get(inp: dict, key: str):
    if key not in inp:
        raise UsageError(f"input payload is missing {key!r}")
    return inp[key]


def _get_int(inp: dict, key: str) -> int:
    value = _get(inp, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{key!r} must be an integer")
    return value


def _get_int_list(inp: dict, key: str) -> list[int]:
    value = _get(inp, key)
    if not isinstance(value, list) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in value
    ):
        raise UsageError(f"{key!r} must be a JSON array of integers")
    return value


def _get_dict(inp: dict, key: str) -> dict:
    """A JSON object of the payload, for its type's ``from_json_dict``."""
    value = _get(inp, key)
    if not isinstance(value, dict):
        raise UsageError(f"{key!r} must be a JSON object")
    return value


def _read(inp: dict, key: str, cls):
    """``inp[key]`` as a ``cls``: a gather's object, or an --input JSON object."""
    value = _get(inp, key)
    return value if isinstance(value, cls) else cls.from_json_dict(_get_dict(inp, key))


# ---------------------------------------------------------------------------
# subcommands


class _Outcome(Record):
    # a callable is called only when JSON is written, to build the dict
    result: dict | Callable[[], dict]
    lines: Iterable[str]  # consumed only when text is printed
    code: int = EXIT_OK


class _Command(Record):
    name: str
    help: str
    flags: tuple[_Flag, ...]  # its own, before _COMMON_FLAGS
    run: Callable[[dict], _Outcome]
    modules: tuple[str, ...]  # library modules gather and run use
    # the payload of direct flags; None for _gather_flags over ``flags``
    gather: Optional[Callable[[_Args], dict]] = None


def _run_manifold_info(inp: dict) -> _Outcome:
    from .lattice import _class_text, _dual

    model = _read(inp, "model", ManifoldModel)
    h, n = model.head, model.rank
    fields = {"kind": model.kind.value, "blowups": model.blowups, "genus": model.genus, "rank": n}
    lines = [f"{key + ':':10}{value}" for key, value in fields.items()]
    lines.append(f"basis:    {', '.join(model.basis_names)}")
    try:
        gens = generator_set(model)
    except LatticeError as exc:
        generators = None
        lines.append(f"generators: none ({exc})")
    else:
        generators = {n: _class_text(model, r) for n, r in zip(gens.names, gens.roots)}
        lines.append("generators:")
        lines.extend(f"  {n}: reflection along {c}" for n, c in generators.items())

    def result() -> dict:
        # the rank^2 rows: row i is 0 but at the one pair (k, g) of G e_i
        gram = [
            [0] * k + [g] + [0] * (n - 1 - k) for i in range(n) for k, g in _dual(h, ((i, 1),))
        ]
        return {**fields, "basis": list(model.basis_names), "gram": gram, "generators": generators}

    return _Outcome(result, tuple(lines))


_PAIR_FLAGS = _MODEL_FLAGS + (
    _Flag("--a", str, "COEFFS", "first class, comma-separated", "a", parse_int_list),
    _Flag("--b", str, "COEFFS", "second class, comma-separated", "b", parse_int_list),
)


def _run_pair(inp: dict) -> _Outcome:
    model = _read(inp, "model", ManifoldModel)
    a = HomologyClass(model, tuple(_get_int_list(inp, "a")))
    b = HomologyClass(model, tuple(_get_int_list(inp, "b")))
    ab = pairing(a, b)
    result = {
        "a": str(a),
        "b": str(b),
        "pairing": ab,
        "a_square": a.square,
        "b_square": b.square,
    }
    lines = (
        f"a:        {a}  (square {a.square})",
        f"b:        {b}  (square {b.square})",
        f"pairing:  {ab}",
    )
    return _Outcome(result, lines)


_REFLECT_FLAGS = _MODEL_FLAGS + (
    _Flag(
        "--mirror",
        str,
        "COEFFS",
        "class defining the reflection",
        "mirror",
        parse_int_list,
    ),
    _Flag("--target", str, "COEFFS", "class to reflect", "target", parse_int_list),
)


def _run_reflect(inp: dict) -> _Outcome:
    model = _read(inp, "model", ManifoldModel)
    mirror = HomologyClass(model, tuple(_get_int_list(inp, "mirror")))
    target = HomologyClass(model, tuple(_get_int_list(inp, "target")))
    image = HomologyClass._trusted(
        model, reflect_coeffs(root_action(mirror), target.coeffs)
    )
    result = {
        "mirror": str(mirror),
        "mirror_square": mirror.square,
        "target": str(target),
        "image": list(image.coeffs),
        "image_pretty": str(image),
    }
    lines = (
        f"mirror:  {mirror}  (square {mirror.square})",
        f"target:  {target}",
        f"image:   {image}",
    )
    return _Outcome(result, lines)


_ORBIT_FLAGS = _MODEL_FLAGS + (
    _Flag("--seed", str, "COEFFS", "starting class", "seed", parse_int_list),
    _Flag("--bound", int, None, "coefficient bound for the BFS", "bound"),
    _Flag(
        "--generators",
        str,
        "NAMES",
        "subset of generators, e.g. s0,s1",
        "generators",
        _split_list,
        optional=True,
    ),
)


def _run_orbit(inp: dict) -> _Outcome:
    from .lattice import _class_text

    model = _read(inp, "model", ManifoldModel)
    seed = HomologyClass(model, tuple(_get_int_list(inp, "seed")))
    bound = _get_int(inp, "bound")
    names = inp.get("generators")
    if names is not None and (
        not isinstance(names, list) or any(not isinstance(n, str) for n in names)
    ):
        raise UsageError("'generators' must be a JSON array of names")
    gens = generator_set(model)
    res = orbit(gens, seed, bound, names)
    vectors = res.sorted_vectors()
    result = {
        "size": len(vectors),
        "truncated": res.truncated,
        "vectors": [list(v) for v in vectors],
    }

    def lines():
        yield f"size:      {len(vectors)}"
        yield f"truncated: {'yes' if res.truncated else 'no'}"
        for v in vectors:
            yield f"  {_class_text(model, enumerate(v))}"

    return _Outcome(result, lines())


_PERIOD_FLAGS = _MODEL_FLAGS + (
    _Flag(
        "--periods",
        str,
        "Q,Q,...",
        "exact rationals: rational model lam,mu1,..; ruled fib,sec,mu1,..",
        "periods",
        _split_list,
    ),
)


def _gather_periods(args: _Args) -> dict:
    from .weyl import _periods  # the reader of --input, so both accept the same

    given = _gather_flags(args, _PERIOD_FLAGS)
    model, texts = ManifoldModel.from_json_dict(given["model"]), given["periods"]
    if len(texts) != model.rank:
        raise LatticeError(f"expected {model.rank} periods for this model, got {len(texts)}")
    return {"periods": _periods(model, texts[: model.head], texts[model.head :])}


def _run_reduce_periods(inp: dict) -> _Outcome:
    p = _read(inp, "periods", PeriodVector)
    red = reduce_periods(p)
    word = red.word.to_json_list()
    lines = (
        f"input:    {p}",
        f"reduced:  {red.reduced}",
        f"word:     {' '.join(word) if word else '(empty)'}",
        f"boundary: {', '.join(red.boundary_flags) if red.boundary_flags else '(none)'}",
    )
    return _Outcome(red.to_json_dict, lines)


_REDUCE_CLASS_FLAGS = _MODEL_FLAGS + (
    _Flag(
        "--coeffs", str, "COEFFS", "square -1 class to reduce", "coeffs", parse_int_list
    ),
)


def _gather_reduce_class(args: _Args) -> dict:
    return {"target": _gather_flags(args, _REDUCE_CLASS_FLAGS)}


def _run_reduce_class(inp: dict) -> _Outcome:
    c = _read(inp, "target", HomologyClass)
    gens = generator_set(c.model)
    red = reduce_class(gens, c)
    word = red.word.to_json_list()
    lines = [
        f"input:    {c}",
        f"in orbit: {'yes' if red.in_orbit else 'no'}",
        f"word:     {' '.join(word) if word else '(empty)'}",
    ]
    if red.canonical is not None:
        lines.append(f"moved to: {red.canonical}")
    if red.stalled is not None:
        lines.append(f"stalled:  {red.stalled}")
    return _Outcome(red.to_json_dict, tuple(lines))


def _run_lagrangian(inp: dict) -> _Outcome:
    p = _read(inp, "periods", PeriodVector)
    try:
        system = lagrangian_system(p)
    except NotReducedError as exc:
        raise UsageError(f"{exc}; run reduce-periods first") from exc
    membership = maximal_system_membership(system)

    def lines():
        yield f"periods:  {p}"
        yield f"type:     {system.label}"
        yield from (f"  {n}: {c}" for n, c in system.members())
        yield f"inside:   {membership.container_label} ({', '.join(membership.container_names)})"

    return _Outcome(lambda: {**system.to_json_dict(), "membership": membership}, lines())


def _run_coxeter_check(inp: dict) -> _Outcome:
    model = _read(inp, "model", ManifoldModel)
    gens = generator_set(model)
    report = verify_presentation(gens)
    lines = [f"system:   {report.system.label}"]
    bad = [e for e in report.entries if not e.ok]
    if report.ok:
        lines.append(f"pairs:    {len(report.entries)} checked, all orders match")
    else:
        lines.append(f"pairs:    {len(bad)} of {len(report.entries)} MISMATCHED")
        lines.extend(
            f"  {e.a},{e.b}: expected {e.expected}, computed {e.computed}"
            for e in bad
        )
    code = EXIT_OK if report.ok else EXIT_INTERNAL
    return _Outcome(lambda: {**report.to_json_dict(), "system": report.system}, tuple(lines), code)


_COXETER_FINITE_FLAGS = _MODEL_FLAGS + (
    _Flag("--system", str, "NAME", "named system (E6..E9, BE6, BD5, L4-3-4-4, ..)"),
)


def _named_target(args: _Args, flag: str) -> Optional[str]:
    # --system and --label name their target, so they exclude the model flags
    name = getattr(args, flag[2:])
    if name is not None and (args.model, args.ell, args.genus) != (None, None, None):
        raise UsageError(f"pass {flag} or --model/--ell, not both")
    return name


def _gather_coxeter_finite(args: _Args) -> dict:
    if _named_target(args, "--system") is not None:
        system = from_name(args.system)
    else:
        _bind(("lattice", "weyl"))  # only this path reads a model
        system = expected_coxeter_system(ManifoldModel.from_json_dict(_model_dict(args)))
    return {"system": system}


def _run_coxeter_finite(inp: dict) -> _Outcome:
    system = _read(inp, "system", CoxeterSystem)
    finite = is_finite_type(system)
    det = gram_determinant(system)
    result = {
        "finite": finite,
        "label": system.label,
        "rank": system.rank,
        "gram_determinant": str(det),
    }
    lines = (
        "finite" if finite else "infinite",
        f"system:           {system.label or f'rank {system.rank}'}",
        f"gram determinant: {det}",
    )
    return _Outcome(result, lines)


_CRYSTAL_CHECK_FLAGS = (
    _Flag("--system", str, "NAME", "named system", "system"),
    _Flag(
        "--short",
        str,
        "NAMES",
        "generators kept at square -1 (default: the standard split)",
        "short",
        _split_list,
        optional=True,
    ),
)


def _gather_crystal_check(args: _Args) -> dict:
    given = _gather_flags(args, _CRYSTAL_CHECK_FLAGS)
    system = given["system"]
    if "short" not in given:
        return {"crystal": standard_crystal(system)}
    return {"crystal": CrystallographicStructure(from_name(system), frozenset(given["short"]))}


def _run_crystal_check(inp: dict) -> _Outcome:
    struct = _read(inp, "crystal", CrystallographicStructure)
    comb = verify_crystallographic(struct)
    matrix = crystallographic_lattice_invariance(struct)
    if comb.ok != matrix.ok:
        raise InternalConsistencyError(
            "edge-rule and matrix-rewrite routes disagree on crystallographic"
        )
    result = {
        "ok": comb.ok,
        "short": sorted(struct.short),
        "long": sorted(struct.long),
        "edge_violations": list(comb.violations),
        "matrix_violations": list(matrix.violations),
    }
    lines = [
        f"system: {struct.system.label or f'rank {struct.system.rank}'}",
        f"short:  {', '.join(sorted(struct.short)) or '(none)'}",
        f"long:   {', '.join(sorted(struct.long)) or '(none)'}",
        "integer lattice preserved" if comb.ok else "NOT crystallographic",
    ]
    lines.extend(f"  {v}" for v in comb.violations)
    return _Outcome(result, tuple(lines))


# keyed by Verdict value, so the table needs no sw import
_VERDICT_TEXT = {
    "constraint-holds": "constraint-holds",
    "dolgachev-exception": "Dolgachev-exception",
    "sw-prohibited": "SW-prohibited",
    "violation": "violation",
}


_SW_CHECK_FLAGS = (
    _Flag("--k", int, None, "degree against the line class", "k"),
    _Flag("--m", str, "INTS", "multiplicities, comma-separated", "m", parse_int_list),
)


def _run_sw_check(inp: dict) -> _Outcome:
    cand = SphereCandidate(_get_int(inp, "k"), tuple(_get_int_list(inp, "m")))
    norm = cand.normalized()
    cert = certify_sphere_class(norm)
    bound = sw_inequality_holds(norm) if norm.k >= 2 else None
    result = {
        "normalized": norm,
        "verdict": cert.verdict.value,
        "genus_bound_holds": bound,
    }
    if cert.dolgachev_m is not None:
        result["dolgachev_m"] = cert.dolgachev_m
    if bound is None:
        bound_text = "out of regime (k < 2)"
    else:
        bound_text = "holds" if bound else "fails"
    lines = [
        f"class:       {norm}",
        f"square:      {-norm.q}",
        f"genus bound: {bound_text}",
        f"verdict:     {_VERDICT_TEXT[cert.verdict.value]}",
    ]
    if cert.dolgachev_m is not None:
        lines.append(f"family:      Dolgachev, m = {cert.dolgachev_m}")
    code = EXIT_INTERNAL if cert.verdict is Verdict.VIOLATION else EXIT_OK
    return _Outcome(result, tuple(lines), code)


_SW_SEARCH_FLAGS = (
    _Flag("--ell", int, None, "number of exceptional classes", "blowups"),
    _Flag("--k-max", int, None, "largest degree to scan", "k_max"),
)


def _run_sw_search(inp: dict) -> _Outcome:
    blowups = _get_int(inp, "blowups")
    k_max = _get_int(inp, "k_max")
    found = dichotomy_search(blowups, k_max)
    result = {
        "count": len(found),
        "candidates": found,
    }
    if found:
        lines = [f"candidates: {len(found)}"]
        lines.extend(f"  {c}" for c in found)
        code = EXIT_FOUND
    else:
        lines = [f"no candidates with {blowups} blowups up to k = {k_max}"]
        code = EXIT_OK
    return _Outcome(result, tuple(lines), code)


_EXTREMAL_FLAGS = (
    _Flag("--k", int, None, "degree against the line class", "k"),
    _Flag("--ell", int, None, "number of exceptional classes", "blowups"),
)


def _run_extremal(inp: dict) -> _Outcome:
    k = _get_int(inp, "k")
    blowups = _get_int(inp, "blowups")
    vec, value = extremal_sequence(k, blowups)
    result = {
        "m": list(vec),
        "value": value,
        "k_squared": k * k,
        "exceeds_k_squared": value > k * k,
    }
    lines = (
        f"maximizer: ({k}; {','.join(str(x) for x in vec)})",
        f"sum of squares: {value} vs k^2 = {k * k}"
        f" ({'exceeds' if value > k * k else 'does not exceed'})",
    )
    return _Outcome(result, lines)


def _parse_rows(text: str) -> list[list[int]]:
    return [parse_int_list(row) for row in text.split(";")]


_DECOMPOSE_FLAGS = (
    _Flag(
        "--matrix",
        str,
        "ROWS",
        "3x3 integer matrix, rows ; separated: a,b,c;d,e,f;g,h,i",
        "matrix",
        _parse_rows,
    ),
)


def _run_decompose(inp: dict) -> _Outcome:
    rows = _get(inp, "matrix")
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise UsageError("'matrix' must be a JSON array of rows")
    m = LatticeAutomorphism(o12_model(), tuple(tuple(r) for r in rows))
    word = decompose_O12(m)
    if evaluate_o12_word(word) != m:
        raise InternalConsistencyError("decomposition does not round-trip")
    letters = word.to_json_list()
    result = {"word": letters, "length": len(letters)}
    lines = (
        f"word:   {' '.join(letters) if letters else '(identity)'}",
        f"length: {len(letters)}",
    )
    return _Outcome(result, lines)


_DESCRIBE_FLAGS = _MODEL_FLAGS + (
    _Flag(
        "--label",
        str,
        "NAME",
        f"small-case label, one of: {', '.join(SMALL_CASE_LABELS)}",
    ),
)


def _gather_describe(args: _Args) -> dict:
    if _named_target(args, "--label") is not None:
        return {"target": {"label": args.label}}
    return {"target": {"model": _model_dict(args)}}


def _run_describe(inp: dict) -> _Outcome:
    target = _get_dict(inp, "target")
    if "label" in target and "model" in target:
        raise UsageError("'target' must hold 'label' or 'model', not both")
    if "label" in target:
        label = target["label"]
        if not isinstance(label, str):
            raise UsageError("'target.label' must be a string")
        desc = describe_diffeotopy(label)
    else:
        model = _read(target, "model", ManifoldModel)
        desc = describe_diffeotopy(model)
    lines = [desc.name, f"structure: {desc.structure.render()}"]
    lines.extend(f"note: {n}" for n in desc.notes)
    return _Outcome(desc.to_json_dict, tuple(lines))


_COMMANDS = {
    c.name: c
    for c in (
        _Command(
            "manifold-info",
            "basis, intersection form and generators of a model",
            _MODEL_FLAGS,
            _run_manifold_info,
            ("lattice", "weyl"),
        ),
        _Command(
            "pair",
            "intersection pairing of two classes",
            _PAIR_FLAGS,
            _run_pair,
            ("lattice",),
        ),
        _Command(
            "reflect",
            "reflect a class along a square -1 or -2 class",
            _REFLECT_FLAGS,
            _run_reflect,
            ("lattice",),
        ),
        _Command(
            "orbit",
            "bounded breadth-first orbit of a class",
            _ORBIT_FLAGS,
            _run_orbit,
            ("lattice", "weyl"),
        ),
        _Command(
            "reduce-periods",
            "move a period vector into the fundamental domain",
            _PERIOD_FLAGS,
            _run_reduce_periods,
            ("lattice", "weyl"),
            _gather_periods,
        ),
        _Command(
            "reduce-class",
            "move a square -1 class onto the last exceptional class",
            _REDUCE_CLASS_FLAGS,
            _run_reduce_class,
            ("lattice", "weyl"),
            _gather_reduce_class,
        ),
        _Command(
            "lagrangian-system",
            "zero-period wall classes of a reduced vector, with their type",
            _PERIOD_FLAGS,
            _run_lagrangian,
            ("lattice", "weyl"),
            _gather_periods,
        ),
        _Command(
            "coxeter-check",
            "verify the generator product orders against the expected graph",
            _MODEL_FLAGS,
            _run_coxeter_check,
            ("lattice", "weyl"),
        ),
        _Command(
            "coxeter-finite",
            "finite or infinite, by the graph, checked against Gram pivot signs",
            _COXETER_FINITE_FLAGS,
            _run_coxeter_finite,
            ("coxeter",),
            _gather_coxeter_finite,
        ),
        _Command(
            "crystal-check",
            "short/long split preserves the integer lattice (two routes)",
            _CRYSTAL_CHECK_FLAGS,
            _run_crystal_check,
            ("coxeter",),
            _gather_crystal_check,
        ),
        _Command(
            "sw-check",
            "certify a candidate sphere class",
            _SW_CHECK_FLAGS,
            _run_sw_check,
            ("sw",),
        ),
        _Command(
            "sw-search",
            "scan for irreducible candidates; exit 2 when any are found",
            _SW_SEARCH_FLAGS,
            _run_sw_search,
            ("sw",),
        ),
        _Command(
            "extremal",
            "multiplicity vector maximizing the square at fixed degree",
            _EXTREMAL_FLAGS,
            _run_extremal,
            ("sw",),
        ),
        _Command(
            "decompose-o12",
            "write a form- and cone-preserving 3x3 matrix as a generator word",
            _DECOMPOSE_FLAGS,
            _run_decompose,
            ("catalog", "lattice"),
        ),
        _Command(
            "describe",
            "structure of the cone-preserving diffeotopy image",
            _DESCRIBE_FLAGS,
            _run_describe,
            ("catalog", "lattice"),
            _gather_describe,
        ),
    )
}

_COMMON_DESTS = {"subcommand", *(f.dest for f in _COMMON_FLAGS)}


def _direct_flags_given(args: _Args) -> bool:
    return any(
        value is not None
        for key, value in vars(args).items()
        if key not in _COMMON_DESTS
    )


def _load_input(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from exc
    if isinstance(data, dict) and "input" in data:
        data = data["input"]
    if not isinstance(data, dict):
        raise UsageError("input payload must be a JSON object")
    return data


def _parse_plain(cmd: _Command, words: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse builds for ``[cmd.name, *words]``, or None.

    Reads only exact ``--flag=value``, ``--flag value`` and ``--switch``
    words of the command's table.  Anything argparse could read otherwise or
    reject returns None: another word (an abbreviation, "--", "-h", a stray
    value), a repeated flag, a missing value, a separate value starting with
    "-" (other than "-" itself), the value "--", a failed ``int`` or a value
    outside the choices.  Then argparse parses the words itself.
    """
    flags = {f.name: f for f in cmd.flags + _COMMON_FLAGS}
    values = {f.dest: False if f.kind is bool else None for f in flags.values()}
    values["subcommand"] = cmd.name
    given = set()
    rest = iter(words)
    for word in rest:
        name, eq, value = word.partition("=")
        flag = flags.get(name)
        if flag is None or name in given:
            return None
        given.add(name)
        if flag.kind is bool:
            if eq:
                return None
            values[flag.dest] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None or (value.startswith("-") and value != "-"):
                return None
        elif value == "--":  # argparse drops a "--" value, leaving none
            return None
        if flag.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif flag.kind is not str and value not in flag.kind:
            return None
        values[flag.dest] = value
    return SimpleNamespace(**values)


def build_parser(subcommand: Optional[str] = None):
    """The argparse parser, with every subcommand or only the one named.

    An argv whose first word is a subcommand parses, and fails, identically
    under both, and one subparser takes about a tenth of the time of fifteen.
    ``argparse`` is imported here, so a call the plain parser reads never
    loads it (nor ``gettext`` and ``locale``, which argparse's messages use).
    """
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad flags; 2 is taken by "candidates
        # found", so usage problems are rerouted to 1.
        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _ArgumentParser(
        prog="ruled-lattice",
        description="intersection lattices, reflection groups and sphere-class "
        "constraints of blown-up rational and ruled surfaces",
    )
    sub = parser.add_subparsers(
        dest="subcommand", metavar="subcommand", parser_class=_ArgumentParser
    )
    sub.required = True
    for cmd in _COMMANDS.values():
        if subcommand not in (None, cmd.name):
            continue
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        for flag in cmd.flags + _COMMON_FLAGS:
            if flag.kind is bool:
                p.add_argument(flag.name, action="store_true", help=flag.help)
                continue
            kwargs = {"metavar": flag.metavar, "help": flag.help}
            if flag.kind is int:
                kwargs["type"] = int
            elif flag.kind is not str:
                kwargs["choices"] = flag.kind
            p.add_argument(flag.name, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    cmd = _COMMANDS.get(argv[0]) if argv else None
    args = _parse_plain(cmd, argv[1:]) if cmd is not None else None
    if args is None:
        # help, a missing or unknown subcommand, a flag first: every choice is listed
        try:
            args = build_parser(cmd.name if cmd else None).parse_args(argv)
        except SystemExit as exc:  # argparse handles --help and flag errors itself
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        cmd = _COMMANDS[args.subcommand]
    _bind(cmd.modules)
    try:
        if args.input is not None:
            if _direct_flags_given(args):
                raise UsageError("pass either --input or direct flags, not both")
            inp = _load_input(args.input)
        elif cmd.gather is None:
            inp = _gather_flags(args, cmd.flags)
        else:
            inp = cmd.gather(args)
        outcome = cmd.run(inp)
    except (UsageError, LatticeError, CoxeterError, SWError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        result = outcome.result() if callable(outcome.result) else outcome.result
        payload = {"subcommand": cmd.name, "input": inp, "result": result}
        print(json.dumps(payload, indent=2, default=lambda o: o.to_json_dict()))
    else:
        for line in outcome.lines:
            print(line)
    return outcome.code


def _observed() -> bool:
    """Whether a profiler, tracer or debugger watches this process."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # PEP 669, Python 3.12+
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def run() -> None:
    """The process entry point: ``main()``, then exit without interpreter teardown.

    Once stdout and stderr are flushed teardown has nothing left to do for
    this program (it registers no atexit handler), so ``os._exit`` ends the
    process at once.  A write that fails, in ``main()`` or at the flush
    (stdout is a closed pipe, as after ``| head``), ends the call through
    ``sys.exit(120)`` with no traceback; teardown reports output still
    buffered as it does for any Python program.  Every exit under a profiler, tracer or
    debugger (``python -m cProfile -m ruled_lattice.cli``, ``coverage run``)
    goes through ``sys.exit`` too, since the tool writes its results after
    the program returns.  A wrapper that does its exit work some other way
    (an ``atexit`` handler of its own) calls ``main()``, which has no such
    side effect, like every caller that keeps running.
    """
    try:
        code = main()
        if not _observed():
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    except OSError:  # only a write to stdout or stderr can raise it here
        code = 120
    sys.exit(code)


if __name__ == "__main__":
    run()
