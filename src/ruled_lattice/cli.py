"""Command-line frontend: one invocation, one computation, text or JSON.

Every subcommand takes --json for a machine-readable payload and --input
FILE to re-run the "input" object of a previous payload; both paths go
through the same JSON-shaped input dict, so a re-fed payload reproduces
the result byte for byte.  Exit codes: 0 success, 1 bad usage or failed
validation, 2 search found candidates (sw-search only), 3 internal
consistency failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from typing import Callable, Optional, Sequence

from .base import (
    CoxeterError,
    InternalConsistencyError,
    LatticeError,
    SMALL_CASE_LABELS,
    SWError,
)

# The library names the subcommands use, by home module.  A command names
# the modules it needs and main binds their names into this module's globals
# just before dispatch, so a cold call loads only what its subcommand uses.
# Binding never replaces a name already set, so a wrapper installed with
# setattr (a tracer, a test double) stays in place.
_LIBRARY = {
    "catalog": (
        "decompose_O12",
        "describe_diffeotopy",
        "evaluate_o12_word",
        "o12_model",
    ),
    "coxeter": (
        "CoxeterSystem",
        "CrystallographicStructure",
        "crystallographic_lattice_invariance",
        "from_name",
        "gram_determinant",
        "is_finite_type",
        "standard_crystal",
        "verify_crystallographic",
    ),
    "lattice": (
        "HomologyClass",
        "LatticeAutomorphism",
        "ManifoldModel",
        "pairing",
        "reflection_along",
    ),
    "sw": (
        "SphereCandidate",
        "Verdict",
        "certify_sphere_class",
        "dichotomy_search",
        "extremal_sequence",
        "sw_inequality_holds",
    ),
    "weyl": (
        "NotReducedError",
        "PeriodVector",
        "expected_coxeter_system",
        "generator_set",
        "lagrangian_system",
        "maximal_system_membership",
        "orbit",
        "reduce_class",
        "reduce_periods",
        "verify_presentation",
    ),
}
_HOME = {name: module for module, names in _LIBRARY.items() for name in names}


def _bind(modules: Sequence[str]) -> None:
    for module in modules:
        lib = import_module(f".{module}", __package__)
        for name in _LIBRARY[module]:
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


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is taken by "candidates
    # found", so usage problems are rerouted to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# flag parsing

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def parse_rational(text: str) -> Fraction:
    """An exact rational: an integer or p/q.  Decimal points are refused."""
    item = text.strip()
    if not _RATIONAL_RE.fullmatch(item):
        raise UsageError(f"expected an exact rational like 3 or 7/2, got {text!r}")
    return Fraction(item)


def _split_list(text: str) -> list[str]:
    items = [piece.strip() for piece in text.split(",")]
    if items == [""]:
        return []
    return items


def parse_int_list(text: str) -> list[int]:
    out = []
    for piece in _split_list(text):
        if not re.fullmatch(r"[+-]?\d+", piece):
            raise UsageError(f"expected comma-separated integers, got {text!r}")
        out.append(int(piece))
    return out


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("rational", "ruled"), help="lattice model")
    p.add_argument("--ell", type=int, help="number of exceptional classes")
    p.add_argument("--genus", type=int, help="base genus (ruled only, default 1)")


def _model_dict(args: argparse.Namespace) -> dict:
    if args.model is None or args.ell is None:
        raise UsageError("--model and --ell are required (or use --input)")
    if args.model == "rational":
        if args.genus not in (None, 0):
            raise UsageError("the rational model has genus 0; drop --genus")
        genus = 0
    else:
        genus = 1 if args.genus is None else args.genus
    return {"kind": args.model, "blowups": args.ell, "genus": genus}


def _require(args: argparse.Namespace, dest: str, flag: str):
    value = getattr(args, dest)
    if value is None:
        raise UsageError(f"{flag} is required (or use --input)")
    return value


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


def _get_model(inp: dict, key: str = "model") -> ManifoldModel:
    value = _get(inp, key)
    if not isinstance(value, dict):
        raise UsageError(f"{key!r} must be a JSON object")
    return ManifoldModel.from_json_dict(value)


def _get_class(inp: dict, key: str) -> HomologyClass:
    value = _get(inp, key)
    if not isinstance(value, dict):
        raise UsageError(f"{key!r} must be a JSON object")
    return HomologyClass.from_json_dict(value)


# ---------------------------------------------------------------------------
# subcommands


@dataclass(frozen=True)
class _Outcome:
    result: dict
    lines: tuple[str, ...]
    code: int = EXIT_OK


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    gather: Callable[[argparse.Namespace], dict]
    run: Callable[[dict], _Outcome]
    modules: tuple[str, ...]  # library modules gather and run use


def _conf_model_only(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)


def _gather_model_only(args: argparse.Namespace) -> dict:
    return {"model": _model_dict(args)}


def _run_manifold_info(inp: dict) -> _Outcome:
    model = _get_model(inp)
    result: dict = {
        "kind": model.kind.value,
        "blowups": model.blowups,
        "genus": model.genus,
        "rank": model.rank,
        "basis": list(model.basis_names),
        "gram": [list(row) for row in model.gram],
    }
    lines = [
        f"kind:     {model.kind.value}",
        f"blowups:  {model.blowups}",
        f"genus:    {model.genus}",
        f"rank:     {model.rank}",
        f"basis:    {', '.join(model.basis_names)}",
    ]
    try:
        gens = generator_set(model)
    except LatticeError as exc:
        result["generators"] = None
        lines.append(f"generators: none ({exc})")
    else:
        result["generators"] = {n: str(gens.class_of(n)) for n in gens.names}
        lines.append("generators:")
        lines.extend(
            f"  {n}: reflection along {gens.class_of(n)}" for n in gens.names
        )
    return _Outcome(result, tuple(lines))


def _conf_pair(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--a", metavar="COEFFS", help="first class, comma-separated")
    p.add_argument("--b", metavar="COEFFS", help="second class, comma-separated")


def _gather_pair(args: argparse.Namespace) -> dict:
    return {
        "model": _model_dict(args),
        "a": parse_int_list(_require(args, "a", "--a")),
        "b": parse_int_list(_require(args, "b", "--b")),
    }


def _run_pair(inp: dict) -> _Outcome:
    model = _get_model(inp)
    a = HomologyClass(model, tuple(_get_int_list(inp, "a")))
    b = HomologyClass(model, tuple(_get_int_list(inp, "b")))
    result = {
        "a": str(a),
        "b": str(b),
        "pairing": pairing(a, b),
        "a_square": a.square,
        "b_square": b.square,
    }
    lines = (
        f"a:        {a}  (square {a.square})",
        f"b:        {b}  (square {b.square})",
        f"pairing:  {pairing(a, b)}",
    )
    return _Outcome(result, lines)


def _conf_reflect(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--mirror", metavar="COEFFS", help="class defining the reflection")
    p.add_argument("--target", metavar="COEFFS", help="class to reflect")


def _gather_reflect(args: argparse.Namespace) -> dict:
    return {
        "model": _model_dict(args),
        "mirror": parse_int_list(_require(args, "mirror", "--mirror")),
        "target": parse_int_list(_require(args, "target", "--target")),
    }


def _run_reflect(inp: dict) -> _Outcome:
    model = _get_model(inp)
    mirror = HomologyClass(model, tuple(_get_int_list(inp, "mirror")))
    target = HomologyClass(model, tuple(_get_int_list(inp, "target")))
    image = reflection_along(mirror).apply(target)
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


def _conf_orbit(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--seed", metavar="COEFFS", help="starting class")
    p.add_argument("--bound", type=int, help="coefficient bound for the BFS")
    p.add_argument(
        "--generators", metavar="NAMES", help="subset of generators, e.g. s0,s1"
    )


def _gather_orbit(args: argparse.Namespace) -> dict:
    inp = {
        "model": _model_dict(args),
        "seed": parse_int_list(_require(args, "seed", "--seed")),
        "bound": _require(args, "bound", "--bound"),
    }
    if args.generators is not None:
        inp["generators"] = _split_list(args.generators)
    return inp


def _run_orbit(inp: dict) -> _Outcome:
    model = _get_model(inp)
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
    lines = [
        f"size:      {len(vectors)}",
        f"truncated: {'yes' if res.truncated else 'no'}",
    ]
    lines.extend(f"  {HomologyClass(model, v)}" for v in vectors)
    return _Outcome(result, tuple(lines))


def _conf_periods(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument(
        "--periods",
        metavar="Q,Q,...",
        help="exact rationals: rational model lam,mu1,..; ruled fib,sec,mu1,..",
    )


def _gather_periods(args: argparse.Namespace) -> dict:
    model_d = _model_dict(args)
    values = [
        str(parse_rational(x))
        for x in _split_list(_require(args, "periods", "--periods"))
    ]
    head = 1 if model_d["kind"] == "rational" else 2
    want = model_d["blowups"] + head
    if len(values) != want:
        raise UsageError(
            f"expected {want} periods for this model, got {len(values)}"
        )
    periods: dict = {"model": model_d}
    if head == 1:
        periods["line"] = values[0]
    else:
        periods["fiber"] = values[0]
        periods["section"] = values[1]
    periods["exceptional"] = values[head:]
    return {"periods": periods}


def _get_periods(inp: dict) -> PeriodVector:
    value = _get(inp, "periods")
    if not isinstance(value, dict):
        raise UsageError("'periods' must be a JSON object")
    return PeriodVector.from_json_dict(value)


def _run_reduce_periods(inp: dict) -> _Outcome:
    p = _get_periods(inp)
    red = reduce_periods(p)
    word = red.word.to_json_list()
    lines = (
        f"input:    {p}",
        f"reduced:  {red.reduced}",
        f"word:     {' '.join(word) if word else '(empty)'}",
        f"boundary: {', '.join(red.boundary_flags) if red.boundary_flags else '(none)'}",
    )
    return _Outcome(red.to_json_dict(), lines)


def _conf_reduce_class(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--coeffs", metavar="COEFFS", help="square -1 class to reduce")


def _gather_reduce_class(args: argparse.Namespace) -> dict:
    return {
        "target": {
            "model": _model_dict(args),
            "coeffs": parse_int_list(_require(args, "coeffs", "--coeffs")),
        }
    }


def _run_reduce_class(inp: dict) -> _Outcome:
    c = _get_class(inp, "target")
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
    return _Outcome(red.to_json_dict(), tuple(lines))


def _run_lagrangian(inp: dict) -> _Outcome:
    p = _get_periods(inp)
    try:
        system = lagrangian_system(p)
    except NotReducedError as exc:
        raise UsageError(f"{exc}; run reduce-periods first") from exc
    membership = maximal_system_membership(system)
    result = system.to_json_dict()
    result["membership"] = membership.to_json_dict()
    lines = [f"periods:  {p}", f"type:     {system.label}"]
    lines.extend(
        f"  {n}: {c}" for n, c in zip(system.member_names, system.member_classes)
    )
    lines.append(
        f"inside:   {membership.container_label}"
        f" ({', '.join(membership.container_names)})"
    )
    return _Outcome(result, tuple(lines))


def _run_coxeter_check(inp: dict) -> _Outcome:
    model = _get_model(inp)
    gens = generator_set(model)
    report = verify_presentation(gens)
    system = expected_coxeter_system(model)
    result = report.to_json_dict()
    result["system"] = system.to_json_dict()
    lines = [f"system:   {system.label}"]
    bad = [e for e in report.entries if not e.ok]
    if report.ok:
        lines.append(f"pairs:    {len(report.entries)} checked, all orders match")
    else:
        lines.append(f"pairs:    {len(bad)} of {len(report.entries)} MISMATCHED")
        lines.extend(
            f"  {e.a},{e.b}: expected {e.expected}, computed {e.computed}"
            for e in bad
        )
    return _Outcome(result, tuple(lines), EXIT_OK if report.ok else EXIT_INTERNAL)


def _conf_coxeter_finite(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument(
        "--system", metavar="NAME", help="named system (E6..E9, BE6, BD5, L4-3-4-4, ..)"
    )


def _gather_coxeter_finite(args: argparse.Namespace) -> dict:
    if args.system is not None:
        if args.model is not None or args.ell is not None or args.genus is not None:
            raise UsageError("pass --system or --model/--ell, not both")
        system = from_name(args.system)
    else:
        system = expected_coxeter_system(_get_model(_gather_model_only(args)))
    return {"system": system.to_json_dict()}


def _get_system(inp: dict) -> CoxeterSystem:
    value = _get(inp, "system")
    if not isinstance(value, dict):
        raise UsageError("'system' must be a JSON object")
    return CoxeterSystem.from_json_dict(value)


def _run_coxeter_finite(inp: dict) -> _Outcome:
    system = _get_system(inp)
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


def _conf_crystal_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", metavar="NAME", help="named system")
    p.add_argument(
        "--short",
        metavar="NAMES",
        help="generators kept at square -1 (default: the standard split)",
    )


def _gather_crystal_check(args: argparse.Namespace) -> dict:
    name = _require(args, "system", "--system")
    if args.short is None:
        struct = standard_crystal(name)
    else:
        struct = CrystallographicStructure(
            from_name(name), frozenset(_split_list(args.short))
        )
    return {"crystal": struct.to_json_dict()}


def _run_crystal_check(inp: dict) -> _Outcome:
    value = _get(inp, "crystal")
    if not isinstance(value, dict):
        raise UsageError("'crystal' must be a JSON object")
    short = value.get("short")
    if not isinstance(short, list) or any(not isinstance(s, str) for s in short):
        raise UsageError("'crystal.short' must be a JSON array of names")
    sys_d = value.get("system")
    if not isinstance(sys_d, dict):
        raise UsageError("'crystal.system' must be a JSON object")
    struct = CrystallographicStructure(
        CoxeterSystem.from_json_dict(sys_d), frozenset(short)
    )
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


def _conf_sw_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="degree against the line class")
    p.add_argument("--m", metavar="INTS", help="multiplicities, comma-separated")


def _gather_sw_check(args: argparse.Namespace) -> dict:
    return {
        "k": _require(args, "k", "--k"),
        "m": parse_int_list(_require(args, "m", "--m")),
    }


def _run_sw_check(inp: dict) -> _Outcome:
    cand = SphereCandidate(_get_int(inp, "k"), tuple(_get_int_list(inp, "m")))
    norm = cand.normalized()
    cert = certify_sphere_class(norm)
    bound = sw_inequality_holds(norm) if norm.k >= 2 else None
    result = {
        "normalized": norm.to_json_dict(),
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


def _conf_sw_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=int, help="number of exceptional classes")
    p.add_argument("--k-max", type=int, help="largest degree to scan")


def _gather_sw_search(args: argparse.Namespace) -> dict:
    return {
        "blowups": _require(args, "ell", "--ell"),
        "k_max": _require(args, "k_max", "--k-max"),
    }


def _run_sw_search(inp: dict) -> _Outcome:
    blowups = _get_int(inp, "blowups")
    k_max = _get_int(inp, "k_max")
    found = dichotomy_search(blowups, k_max)
    result = {
        "count": len(found),
        "candidates": [c.to_json_dict() for c in found],
    }
    if found:
        lines = [f"candidates: {len(found)}"]
        lines.extend(f"  {c}" for c in found)
        code = EXIT_FOUND
    else:
        lines = [f"no candidates with {blowups} blowups up to k = {k_max}"]
        code = EXIT_OK
    return _Outcome(result, tuple(lines), code)


def _conf_extremal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="degree against the line class")
    p.add_argument("--ell", type=int, help="number of exceptional classes")


def _gather_extremal(args: argparse.Namespace) -> dict:
    return {
        "k": _require(args, "k", "--k"),
        "blowups": _require(args, "ell", "--ell"),
    }


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


def _conf_decompose(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--matrix",
        metavar="ROWS",
        help="3x3 integer matrix, rows ; separated: a,b,c;d,e,f;g,h,i",
    )


def _gather_decompose(args: argparse.Namespace) -> dict:
    rows = [
        parse_int_list(row) for row in _require(args, "matrix", "--matrix").split(";")
    ]
    return {"matrix": rows}


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


def _conf_describe(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument(
        "--label",
        metavar="NAME",
        help=f"small-case label, one of: {', '.join(SMALL_CASE_LABELS)}",
    )


def _gather_describe(args: argparse.Namespace) -> dict:
    if args.label is not None:
        if args.model is not None or args.ell is not None or args.genus is not None:
            raise UsageError("pass --label or --model/--ell, not both")
        return {"target": {"label": args.label}}
    return {"target": {"model": _model_dict(args)}}


def _run_describe(inp: dict) -> _Outcome:
    target = _get(inp, "target")
    if not isinstance(target, dict):
        raise UsageError("'target' must be a JSON object")
    if "label" in target:
        label = target["label"]
        if not isinstance(label, str):
            raise UsageError("'target.label' must be a string")
        desc = describe_diffeotopy(label)
    else:
        desc = describe_diffeotopy(_get_model(target))
    lines = [desc.name, f"structure: {desc.structure.render()}"]
    lines.extend(f"note: {n}" for n in desc.notes)
    return _Outcome(desc.to_json_dict(), tuple(lines))


_COMMANDS = {
    c.name: c
    for c in (
        _Command(
            "manifold-info",
            "basis, intersection form and generators of a model",
            _conf_model_only,
            _gather_model_only,
            _run_manifold_info,
            ("lattice", "weyl"),
        ),
        _Command(
            "pair",
            "intersection pairing of two classes",
            _conf_pair,
            _gather_pair,
            _run_pair,
            ("lattice",),
        ),
        _Command(
            "reflect",
            "reflect a class along a square -1 or -2 class",
            _conf_reflect,
            _gather_reflect,
            _run_reflect,
            ("lattice",),
        ),
        _Command(
            "orbit",
            "bounded breadth-first orbit of a class",
            _conf_orbit,
            _gather_orbit,
            _run_orbit,
            ("lattice", "weyl"),
        ),
        _Command(
            "reduce-periods",
            "move a period vector into the fundamental domain",
            _conf_periods,
            _gather_periods,
            _run_reduce_periods,
            ("weyl",),
        ),
        _Command(
            "reduce-class",
            "move a square -1 class onto the last exceptional class",
            _conf_reduce_class,
            _gather_reduce_class,
            _run_reduce_class,
            ("lattice", "weyl"),
        ),
        _Command(
            "lagrangian-system",
            "zero-period wall classes of a reduced vector, with their type",
            _conf_periods,
            _gather_periods,
            _run_lagrangian,
            ("weyl",),
        ),
        _Command(
            "coxeter-check",
            "verify the generator product orders against the expected graph",
            _conf_model_only,
            _gather_model_only,
            _run_coxeter_check,
            ("lattice", "weyl"),
        ),
        _Command(
            "coxeter-finite",
            "finite or infinite, by exact leading minors",
            _conf_coxeter_finite,
            _gather_coxeter_finite,
            _run_coxeter_finite,
            ("coxeter", "lattice", "weyl"),
        ),
        _Command(
            "crystal-check",
            "short/long split preserves the integer lattice (two routes)",
            _conf_crystal_check,
            _gather_crystal_check,
            _run_crystal_check,
            ("coxeter",),
        ),
        _Command(
            "sw-check",
            "certify a candidate sphere class",
            _conf_sw_check,
            _gather_sw_check,
            _run_sw_check,
            ("sw",),
        ),
        _Command(
            "sw-search",
            "scan for irreducible candidates; exit 2 when any are found",
            _conf_sw_search,
            _gather_sw_search,
            _run_sw_search,
            ("sw",),
        ),
        _Command(
            "extremal",
            "multiplicity vector maximizing the square at fixed degree",
            _conf_extremal,
            _gather_extremal,
            _run_extremal,
            ("sw",),
        ),
        _Command(
            "decompose-o12",
            "write a form- and cone-preserving 3x3 matrix as a generator word",
            _conf_decompose,
            _gather_decompose,
            _run_decompose,
            ("catalog", "lattice"),
        ),
        _Command(
            "describe",
            "structure of the cone-preserving diffeotopy image",
            _conf_describe,
            _gather_describe,
            _run_describe,
            ("catalog", "lattice"),
        ),
    )
}

_COMMON_DESTS = {"subcommand", "json", "input"}


def _direct_flags_given(args: argparse.Namespace) -> bool:
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


def build_parser() -> argparse.ArgumentParser:
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
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        cmd.configure(p)
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        p.add_argument(
            "--input",
            metavar="FILE",
            help="re-run the input of a previous --json payload ('-' for stdin)",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and flag errors itself
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    cmd = _COMMANDS[args.subcommand]
    _bind(cmd.modules)
    try:
        if args.input is not None:
            if _direct_flags_given(args):
                raise UsageError("pass either --input or direct flags, not both")
            inp = _load_input(args.input)
        else:
            inp = cmd.gather(args)
        outcome = cmd.run(inp)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LatticeError, CoxeterError, SWError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        print(json.dumps({"subcommand": cmd.name, "input": inp, "result": outcome.result}, indent=2))
    else:
        for line in outcome.lines:
            print(line)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
