"""Command-line interface: contracts, exit codes, JSON round-trips."""

import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruled_lattice.cli import (
    _COMMANDS,
    _COMMON_FLAGS,
    EXIT_FOUND,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _parse_plain,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# documented invocations


def test_reduce_periods_already_reduced(capsys):
    code, out, _ = run(
        capsys,
        "reduce-periods",
        "--model",
        "rational",
        "--ell",
        "3",
        "--periods",
        "3,1,1,1",
    )
    assert code == EXIT_OK
    assert "(3; 1,1,1)" in out
    assert "word: (empty)" in out or "[]" in out or "word:" in out


def test_sw_check_prohibited(capsys):
    code, out, _ = run(capsys, "sw-check", "--k", "3", "--m", "1,1,1,1,1,1,1,1,1,1")
    assert code == EXIT_OK
    assert "SW-prohibited" in out


def test_coxeter_finite_named_system(capsys):
    code, out, _ = run(capsys, "coxeter-finite", "--system", "E9")
    assert code == EXIT_OK
    assert out.splitlines()[0].strip() == "infinite"

    code, out, _ = run(capsys, "coxeter-finite", "--system", "E8")
    assert code == EXIT_OK
    assert out.splitlines()[0].strip() == "finite"


def test_coxeter_finite_exits_3_when_the_two_routes_disagree(capsys, monkeypatch):
    from ruled_lattice import coxeter

    # the elimination with its pivot-sign verdict flipped
    real = coxeter._definite
    monkeypatch.setattr(coxeter, "_definite", lambda s: not real(s))
    code, out, err = run(capsys, "coxeter-finite", "--system", "E8")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == "internal consistency failure: graph classification and Gram pivot signs disagree\n"


def _swap_s1_s2(monkeypatch, field):
    """Make ``weyl.generator_set`` return tables in which s1 and s2 exchange
    their ``field``, "names" or "roots", and keep everything else."""
    from ruled_lattice import weyl

    real = weyl.generator_set

    def swapped(model):
        gens = real(model)
        parts = {"names": list(gens.names), "roots": list(gens.roots)}
        parts[field][1], parts[field][2] = parts[field][2], parts[field][1]
        return weyl.GeneratorSet(model, tuple(parts["names"]), tuple(parts["roots"]))

    monkeypatch.setattr(weyl, "generator_set", swapped)


def test_reduce_periods_exits_3_when_its_word_does_not_replay(capsys, monkeypatch):
    # a table whose s1 and s2 name each other's root: the kernel still calls
    # its swap of E1 and E2 s1, which this table reads as E2 - E3
    argv = ("reduce-periods", "--model=rational", "--ell=3", "--periods=6,1,2,2")
    assert run(capsys, *argv)[0] == EXIT_OK
    _swap_s1_s2(monkeypatch, "roots")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == (
        "internal consistency failure: the word of (6; 1,2,2) does not replay on its generators\n"
    )


def test_reduce_periods_exits_3_on_a_table_whose_names_are_permuted(capsys, monkeypatch):
    # the letters are spelled by slot, so the table's names are checked by
    # the replay: read off the table, the word would be "s2 s1" with exit 0
    argv = ("reduce-periods", "--model=rational", "--ell=3", "--periods=6,1,2,2")
    assert run(capsys, *argv)[:2] == (
        EXIT_OK, "input:    (6; 1,2,2)\nreduced:  (6; 2,2,1)\nword:     s1 s2\nboundary: s1\n"
    )
    _swap_s1_s2(monkeypatch, "names")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err == (
        "internal consistency failure: the word of (6; 1,2,2) does not replay on its generators\n"
    )


def test_lagrangian_system_names_its_members_by_slot(capsys, monkeypatch):
    # the table gives only the roots: its names leave the output alone
    argv = ("lagrangian-system", "--model=rational", "--ell=5", "--periods=3,1,1,1,1,1")
    clean = run(capsys, *argv)
    assert clean[0] == EXIT_OK and "  s1: E1 - E2\n  s2: E2 - E3\n" in clean[1]
    _swap_s1_s2(monkeypatch, "names")
    assert run(capsys, *argv) == clean


def test_coxeter_finite_refuses_a_chain_of_rank_0(capsys):
    code, out, err = run(capsys, "coxeter-finite", "--system=L0")
    assert (code, out, err) == (EXIT_USAGE, "", "error: L_k needs k >= 1\n")


def test_lagrangian_container_of_e8_alone(capsys):
    argv = ("--model=rational", "--ell=9", "--periods=9,3,3,3,3,3,3,3,3,2")
    code, out, _ = run(capsys, "lagrangian-system", *argv)
    assert code == EXIT_OK
    assert "type:     E8\n" in out and "inside:   E8 (s0, s1, s2, s3, s4, s5, s6, s7)\n" in out


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(capsys):
    code, _, err = run(
        capsys, "reduce-periods", "--model", "rational", "--ell", "3",
        "--periods", "3,1.5,1,1",
    )
    assert code == EXIT_USAGE
    assert "rational" in err or "1.5" in err

    code, _, err = run(capsys, "coxeter-finite", "--system", "E17")
    assert code == EXIT_USAGE

    code, _, err = run(capsys, "sw-check", "--k", "3", "--m", "1,1,1")
    assert code == EXIT_USAGE  # square out of certifier scope

    code, _, err = run(capsys, "nonsense-subcommand")
    assert code == EXIT_USAGE


def test_unknown_generator_exits_one(capsys, monkeypatch):
    import io

    flags = ("--model", "rational", "--ell", "3", "--seed", "0,1,0,0", "--bound", "2")
    expected = (EXIT_USAGE, "", "error: no generator named 's9'\n")
    assert run(capsys, "orbit", *flags, "--generators=s9") == expected

    payload = {
        "model": {"kind": "rational", "blowups": 3, "genus": 0},
        "seed": [0, 1, 0, 0],
        "bound": 2,
        "generators": ["s9"],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    assert run(capsys, "orbit", "--input", "-", "--json") == expected


def test_search_hit_exits_two(capsys):
    code, out, _ = run(capsys, "sw-search", "--ell", "10", "--k-max", "5")
    assert code == EXIT_FOUND
    assert "(3; 1,1,1,1,1,1,1,1,1,1)" in out


def test_search_empty_exits_zero(capsys):
    code, out, _ = run(capsys, "sw-search", "--ell", "8", "--k-max", "10")
    assert code == EXIT_OK
    assert "no" in out.lower()


def test_outside_cone_exits_one(capsys):
    code, _, err = run(
        capsys, "reduce-periods", "--model", "rational", "--ell", "3",
        "--periods", "3,2,2,2",
    )
    assert code == EXIT_USAGE
    assert "cone" in err


def test_a_runaway_reduction_is_refused(capsys):
    # mu1 / fiber = 10^6 walks about 3 * 10^6 letters along the affine direction
    code, out, err = run(
        capsys, "reduce-periods", "--model=ruled", "--ell=2",
        "--periods=1,1000000000001,1000000,0",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: reduction word reached more than 1000000 letters\n"


# ---------------------------------------------------------------------------
# parser identity: main builds only the named subcommand's parser


PARSER_CASES = [
    [name, *extra]
    for name in _COMMANDS
    for extra in (["--help"], ["--bogus"], ["--input"], ["stray"])
] + [["--help"], [], ["nonsense-subcommand"], ["--json", "pair"]]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_main_parses_like_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # fixes argparse's help wrapping
    code = main(list(argv))
    got = (code, *capsys.readouterr())
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    assert got == (exc.value.code, *capsys.readouterr())


# ---------------------------------------------------------------------------
# the plain parser: argparse's namespace for well-formed argv, else None


def _argparse_reading(argv):
    """``vars`` of argparse's namespace for ``argv``, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser(argv[0]).parse_args(argv))
        except SystemExit:
            return None


def _check_plain_parser(argv) -> bool:
    """The plain parser agrees with argparse wherever it reads ``argv``."""
    plain = _parse_plain(_COMMANDS[argv[0]], argv[1:])
    expected = _argparse_reading(argv)
    if plain is None:
        return False
    assert vars(plain) == expected, argv
    return True


# one well-formed call per subcommand, each flag once
WELL_FORMED = [
    ["manifold-info", "--model=ruled", "--ell=3", "--genus=2"],
    ["pair", "--model=rational", "--ell=3", "--a=1,-1,0,0", "--b=0,1,0,0"],
    ["reflect", "--model=ruled", "--ell=2", "--mirror=0,0,1,0", "--target=1,0,0,0"],
    ["orbit", "--model=rational", "--ell=3", "--seed=0,0,0,1", "--bound=2", "--generators=s1,s2"],
    ["reduce-periods", "--model=ruled", "--ell=3", "--periods=7/2,5/3,1,1/2,1/3"],
    ["reduce-class", "--model=rational", "--ell=4", "--coeffs=1,-1,-1,0,0"],
    ["lagrangian-system", "--model=rational", "--ell=5", "--periods=3,1,1,1,1,1"],
    ["coxeter-check", "--model=ruled", "--ell=4"],
    ["coxeter-finite", "--system=L4-3-4-4"],
    ["crystal-check", "--system=BE7", "--short=s6"],
    ["sw-check", "--k=2", "--m=1,1,1,1,1"],
    ["sw-search", "--ell=10", "--k-max=4"],
    ["extremal", "--k=3", "--ell=+4"],
    ["decompose-o12", "--matrix=9,4,8;-4,-1,-4;8,4,7"],
    ["describe", "--label=CP2"],
]


def _separated(argv):
    """The same call with each value in its own word."""
    return [argv[0]] + [w for word in argv[1:] for w in word.split("=", 1)]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda a: a[0])
def test_plain_parser_reads_well_formed_calls(argv):
    assert {c[0] for c in WELL_FORMED} == set(_COMMANDS)
    for call in (argv, _separated(argv), argv + ["--json"], [argv[0], "--input", "-", "--json"]):
        assert _check_plain_parser(call), call
    assert _check_plain_parser([argv[0], "--input=payload.json"])
    assert _check_plain_parser([argv[0]])


# every subcommand's required flags, in the order their errors come; "model"
# is --model with --ell, whose absence gives one message; coxeter-finite and
# describe require it when they are called without --system or --label
REQUIRED = {
    "manifold-info": ("model",),
    "pair": ("model", "--a", "--b"),
    "reflect": ("model", "--mirror", "--target"),
    "orbit": ("model", "--seed", "--bound"),
    "reduce-periods": ("model", "--periods"),
    "reduce-class": ("model", "--coeffs"),
    "lagrangian-system": ("model", "--periods"),
    "coxeter-check": ("model",),
    "coxeter-finite": ("model",),
    "crystal-check": ("--system",),
    "sw-check": ("--k", "--m"),
    "sw-search": ("--ell", "--k-max"),
    "extremal": ("--k", "--ell"),
    "decompose-o12": ("--matrix",),
    "describe": ("model",),
}

_BY_MODEL = {
    "coxeter-finite": ["coxeter-finite", "--model=rational", "--ell=5"],
    "describe": ["describe", "--model=ruled", "--ell=3"],
}


@pytest.mark.parametrize("argv", WELL_FORMED, ids=lambda a: a[0])
def test_missing_required_flags_are_named_in_order(capsys, argv):
    argv = _BY_MODEL.get(argv[0], argv)
    required = REQUIRED[argv[0]]
    assert set(REQUIRED) == set(_COMMANDS)
    for i, flag in enumerate(required):
        later = {"--model" if f == "model" else f for f in required[i + 1 :]}
        for missing in ("--model", "--ell") if flag == "model" else (flag,):
            call = [w for w in argv if w.split("=")[0] not in later | {missing}]
            if flag == "model":
                expected = "error: --model and --ell are required (or use --input)\n"
            else:
                expected = f"error: {flag} is required (or use --input)\n"
            assert run(capsys, *call) == (EXIT_USAGE, "", expected), call


# each is a word, or two, that argparse reads differently or refuses
NOT_PLAIN = [
    ["--mod=rational"],  # an abbreviation
    ["--ell=3", "--ell=3"],  # a repeat
    ["--ell", "-3"],  # a separate value starting with "-"
    ["--a", "--b"],
    ["--a=--"],  # argparse drops this value
    ["--ell"],  # a missing value
    ["--"],
    ["-h"],
    ["--help"],
    ["stray"],
    ["-"],
    ["--ell=x"],  # a failed int()
    ["--ell= x"],
    ["--model=elliptic"],  # outside the choices
    ["--model", "Rational"],
    ["--json=1"],  # a switch with a value
    ["--json", "--json"],
    ["--input", "-", "--input", "-"],
]


@pytest.mark.parametrize("words", NOT_PLAIN, ids=" ".join)
def test_plain_parser_leaves_the_rest_to_argparse(words):
    for cmd in _COMMANDS.values():
        assert _parse_plain(cmd, words) is None


def test_plain_parser_reads_a_joined_negative_value():
    # a value starting with "-" is read only when joined to its flag
    assert _check_plain_parser(["sw-search", "--ell=-3", "--k-max=-1"])
    assert _parse_plain(_COMMANDS["sw-search"], ["--ell", "-3"]) is None


_ODD_VALUES = ["", "-", "--", "-h", "-5", " 7", "7 ", "+3", "0x1", "1_0", "٣", "x", "a=b"]


def _flag_words(flag):
    """One flag with a value: joined by "=" or in the next word, mostly valid."""
    if flag.kind is bool:
        return st.sampled_from([[flag.name], [flag.name + "=1"]])
    if flag.kind is int:
        valid = st.integers(-30, 30).map(str)
    elif flag.kind is str:
        valid = st.one_of(st.sampled_from(["1,0,-1", "-1,0", "3/2", "E8", "CP2"]), st.text(max_size=3))
    else:
        valid = st.sampled_from(flag.kind)
    return st.builds(
        lambda joined, value: [f"{flag.name}={value}"] if joined else [flag.name, value],
        st.booleans(),
        st.one_of(valid, valid, st.sampled_from(_ODD_VALUES)),
    )


@st.composite
def _argv(draw):
    """A subcommand with some of its flags, now and then with a word no
    table has: an abbreviation, a repeat, "--", "-h", a stray value."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    table = _COMMANDS[name].flags + _COMMON_FLAGS
    words = []
    for flag in draw(st.lists(st.sampled_from(table), unique=True, max_size=4)):
        words += draw(_flag_words(flag))
    if draw(st.integers(0, 3)) == 0:
        odd = [f.name[:-1] for f in table if len(f.name) > 3] + words
        odd += ["--", "-", "-h", "--help", "-5", "stray", "", "--bogus"]
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(odd)))
    return [name] + words


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_plain_parser_agrees_with_argparse(argv):
    plain = _parse_plain(_COMMANDS[argv[0]], argv[1:])
    expected = _argparse_reading(argv)
    if plain is not None:
        assert vars(plain) == expected
    if expected is None:
        assert plain is None


# ---------------------------------------------------------------------------
# JSON output and --input round-trips


ROUND_TRIP_CASES = [
    ("reduce-periods", "--model", "rational", "--ell", "4", "--periods", "8,5,4,3,1"),
    (
        "reduce-periods",
        "--model",
        "ruled",
        "--ell",
        "3",
        "--periods",
        "2,9,3/2,1,1",
    ),
    ("reduce-class", "--model", "rational", "--ell", "5", "--coeffs", "2,-1,-1,-1,-1,-1"),
    ("lagrangian-system", "--model", "rational", "--ell", "5", "--periods", "3,1,1,1,1,1"),
    ("sw-check", "--k", "6", "--m", "2,2,2,2,2,2,2,2,2,2"),
    ("extremal", "--k", "12", "--ell", "10"),
    ("pair", "--model", "rational", "--ell", "3", "--a", "1,-1,-1,0", "--b", "0,1,-1,0"),
]


@pytest.mark.parametrize("argv", ROUND_TRIP_CASES, ids=lambda a: a[0])
def test_json_round_trip(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (EXIT_OK, EXIT_FOUND)
    payload = json.loads(out)
    assert set(payload) == {"subcommand", "input", "result"}

    path = tmp_path / "in.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, argv[0], "--input", str(path), "--json")
    assert code2 == code
    assert out2 == out  # byte-for-byte reproducible


def test_input_conflicts_with_direct_flags(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"k": 3, "m": [1] * 10}))
    code, _, err = run(capsys, "sw-check", "--input", str(path), "--k", "3")
    assert code == EXIT_USAGE
    assert "--input" in err


def test_malformed_input_file(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "sw-check", "--input", str(path))
    assert code == EXIT_USAGE
    assert "line" in err or "column" in err or "char" in err


@pytest.mark.parametrize(
    "exceptional",
    [
        [0.1, "1", "1"],
        [True, "1", "1"],
        ["1/0", "1", "1"],
        "111",
        ["0.1", "1", "1"],
        ["1e0", "1", "1"],
        [" 1 ", "1", "1"],
    ],
    ids=["float", "bool", "zero-denominator", "string", "decimal", "exponent", "padded"],
)
def test_input_periods_are_validated(capsys, monkeypatch, exceptional):
    import io

    periods = {
        "model": {"kind": "rational", "blowups": 3, "genus": 0},
        "line": "5",
        "exceptional": exceptional,
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"periods": periods})))
    code, out, err = run(capsys, "reduce-periods", "--input", "-", "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["1/05", "+5", "-0/7", "6/4", "1/0"])
def test_period_flag_reads_like_input(capsys, monkeypatch, text):
    import io

    flag = run(
        capsys, "reduce-periods", "--model", "rational", "--ell", "3",
        "--periods", f"9,1,1,{text}", "--json",
    )
    periods = {
        "model": {"kind": "rational", "blowups": 3, "genus": 0},
        "line": "9",
        "exceptional": ["1", "1", text],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"periods": periods})))
    replay = run(capsys, "reduce-periods", "--input", "-", "--json")
    if text == "1/0":
        for code, out, err in (flag, replay):
            assert (code, out) == (EXIT_USAGE, "")
            assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert flag[0] == replay[0] == EXIT_OK
    assert json.loads(flag[1])["result"] == json.loads(replay[1])["result"]


@pytest.mark.parametrize(
    "system",
    [
        {"names": ["a", "b"], "matrix": [[1, 3.0], [3.0, 1]]},
        {"names": ["a", "b"], "matrix": [[True, 3], [3, True]]},
        {"names": ["a", "b"], "matrix": [[1.0, 2.0], [2.0, 1.0]]},
        {"names": "ab", "matrix": [[1, 3], [3, 1]]},
        {"names": ["a", "b"], "matrix": [[1, 3], [3, 1]], "label": 5},
    ],
    ids=["float-order", "bool-diagonal", "float-matrix", "string-names", "number-label"],
)
def test_input_coxeter_system_is_validated(capsys, monkeypatch, system):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"system": system})))
    code, out, err = run(capsys, "coxeter-finite", "--input", "-", "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "target,message",
    [
        (
            {"label": "CP2", "model": {"kind": "rational", "blowups": 1, "genus": 0}},
            "'target' must hold 'label' or 'model', not both",
        ),
        ({"label": 2}, "'target.label' must be a string"),
        ({}, "input payload is missing 'model'"),
        ("CP2", "'target' must be a JSON object"),
    ],
    ids=["label-and-model", "number-label", "empty", "string-target"],
)
def test_input_describe_target_is_validated(capsys, monkeypatch, target, message):
    # the flags refuse --label with --model, and so does the payload
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"target": target})))
    code, out, err = run(capsys, "describe", "--input", "-", "--json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"


_CRYSTAL_SYSTEM = {"names": ["s1", "s2"], "matrix": [[1, 4], [4, 1]]}


@pytest.mark.parametrize(
    "crystal,message",
    [
        ({"system": _CRYSTAL_SYSTEM, "short": "s2"}, "'crystal.short' must be a JSON array of names"),
        ({"system": _CRYSTAL_SYSTEM, "short": [1]}, "'crystal.short' must be a JSON array of names"),
        ({"system": [], "short": ["s2"]}, "'crystal.system' must be a JSON object"),
    ],
    ids=["string-short", "number-short", "list-system"],
)
def test_input_crystal_is_validated(capsys, monkeypatch, crystal, message):
    # the gather hands the run its structure; a payload is read in full
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"crystal": crystal})))
    code, out, err = run(capsys, "crystal-check", "--input", "-")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {message}\n"


def test_input_from_stdin(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"k": 2, "m": [1, 1, 1, 1, 1]})))
    code, out, _ = run(capsys, "sw-check", "--input", "-")
    assert code == EXIT_OK
    assert "constraint" in out.lower()


CORPUS = os.path.join(os.path.dirname(__file__), "data", "cli_corpus.json")


def test_standard_corpus_is_unchanged(capsys, monkeypatch):
    # exit code and digests of stdout and stderr of every run of the standard
    # corpus; data/make_cli_corpus.py writes the file and says when to
    with open(CORPUS) as fh:
        runs = json.load(fh)
    outputs = []
    for case in runs:
        stdin = "" if case["stdin"] is None else outputs[case["stdin"]]
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run(capsys, *case["argv"])
        outputs.append(out)
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        assert [code, *digests] == [case["code"], case["stdout"], case["stderr"]], case["argv"]
    assert len(runs) == 238


# ---------------------------------------------------------------------------
# remaining subcommands, smoke level


def test_manifold_info(capsys):
    code, out, _ = run(capsys, "manifold-info", "--model", "ruled", "--ell", "2", "--genus", "3")
    assert code == EXIT_OK
    assert "rank" in out and "4" in out


def test_reflect(capsys):
    code, out, _ = run(
        capsys, "reflect", "--model", "rational", "--ell", "3",
        "--mirror", "1,-1,-1,-1", "--target", "1,0,0,0",
    )
    assert code == EXIT_OK
    assert "2L - E1 - E2 - E3" in out


def test_orbit(capsys):
    code, out, _ = run(
        capsys, "orbit", "--model", "rational", "--ell", "3",
        "--seed", "0,1,0,0", "--bound", "5", "--generators", "s1,s2,s3",
    )
    assert code == EXIT_OK
    assert "6" in out


def test_orbit_past_the_vertex_cap_exits_1(capsys, monkeypatch):
    from ruled_lattice import weyl

    monkeypatch.setattr(weyl, "SEARCH_VERTEX_CAP", 50)
    code, out, err = run(
        capsys, "orbit", "--model=rational", "--ell=4", "--seed=1,0,0,0,0", "--bound=12"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: search reached more than 50 vertices\n"


def test_orbit_past_the_coefficient_cap_exits_1(capsys, monkeypatch):
    from ruled_lattice import weyl

    monkeypatch.setattr(weyl, "SEARCH_COEFFICIENT_CAP", 250)
    code, out, err = run(
        capsys, "orbit", "--model=rational", "--ell=4", "--seed=1,0,0,0,0", "--bound=12"
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: search reached more than 50 vertices of rank 5\n"


def test_reflect_at_high_rank_uses_the_root_action(capsys, monkeypatch):
    from ruled_lattice import lattice

    def dense(*args):
        raise AssertionError("reflect built a dense matrix")

    monkeypatch.setattr(lattice.LatticeAutomorphism, "__init__", dense)
    l = 3000
    mirror = [1, -1, -1] + [0] * (l - 2)  # L - E1 - E2, square -1
    target = [3] + [i % 7 - 3 for i in range(l)]
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "reflect", "--model=rational", f"--ell={l}",
        "--mirror=" + ",".join(map(str, mirror)),
        "--target=" + ",".join(map(str, target)), "--json",
    )
    assert time.perf_counter() - start < 2.0  # 7.4 s through the dense matrix
    assert code == EXIT_OK
    dot = target[0] * mirror[0] - sum(t * m for t, m in zip(target[1:], mirror[1:]))
    image = [t + 2 * dot * m for t, m in zip(target, mirror)]
    assert json.loads(out)["result"]["image"] == image

    # the first routes of the period, class and wall-system commands stay
    # sparse too, under the same guard
    def result(*argv):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK, argv[0]
        return json.loads(out)["result"]

    l = 2000
    rational = ("--model=rational", f"--ell={l}")
    periods = "--periods=" + ",".join(["6000"] + ["1"] * l)
    red = result("reduce-periods", *rational, periods)
    assert red["word"] == [] and len(red["boundary_flags"]) == l - 1
    coeffs = [1, -1, -1] + [0] * (l - 2)  # L - E1 - E2
    red = result("reduce-class", *rational, "--coeffs=" + ",".join(map(str, coeffs)))
    assert red["in_orbit"] is True
    assert result("lagrangian-system", *rational, periods)["label"] == f"A{l - 1}"
    ruled = "--periods=" + ",".join(["2", str(l + 1)] + ["1"] * l)
    assert result("lagrangian-system", "--model=ruled", f"--ell={l}", ruled)["label"] == f"D{l}"


def test_coxeter_check(capsys):
    code, out, _ = run(capsys, "coxeter-check", "--model", "rational", "--ell", "4")
    assert code == EXIT_OK
    assert "BE5" in out


def test_crystal_check(capsys):
    code, out, _ = run(capsys, "crystal-check", "--system", "BE6", "--short", "s5")
    assert code == EXIT_OK
    assert "integer lattice preserved" in out
    # a bad split is a negative finding, not a usage problem
    code, out, _ = run(capsys, "crystal-check", "--system", "E6", "--short", "s1")
    assert code == EXIT_OK
    assert "NOT crystallographic" in out


def test_lagrangian_membership_in_output(capsys):
    code, out, _ = run(
        capsys, "lagrangian-system", "--model", "rational", "--ell", "5",
        "--periods", "3,1,1,1,1,1",
    )
    assert code == EXIT_OK
    assert "D5" in out and "E5" in out


def test_lagrangian_requires_reduced(capsys):
    code, _, err = run(
        capsys, "lagrangian-system", "--model", "rational", "--ell", "3",
        "--periods", "3,1,1,2",
    )
    assert code == EXIT_USAGE
    assert "reduce-periods" in err


@pytest.mark.parametrize(
    "model,periods",
    [
        ("rational", "6,2,2,2,2,2,2,2,2,2"),
        ("rational", "6,2,2,2,2,2,2,2,2,2,1"),
        ("rational", "0,0,0,0"),
        ("ruled", "0,0,0,0"),
    ],
)
def test_lagrangian_refuses_vectors_outside_the_cone(capsys, model, periods):
    # each satisfies the period conditions, so only the cone refuses it: the
    # zero walls of the first two would form the affine E9, and the zero
    # vectors lie on every wall
    ell = len(periods.split(",")) - (1 if model == "rational" else 2)
    code, out, err = run(
        capsys, "lagrangian-system", f"--model={model}", f"--ell={ell}",
        f"--periods={periods}",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: (") and err.endswith(
        ") is not in the open positive cone\n"
    )


def _count_class_builds(monkeypatch) -> dict:
    """Patch every way the library builds a ``HomologyClass`` (validated,
    ``_trusted`` or through ``_sparse_class``) to count into the dict."""
    from ruled_lattice import lattice, weyl

    counts = {"built": 0}
    trusted, post_init = lattice.HomologyClass._trusted.__func__, lattice.HomologyClass.__post_init__

    def counting(real):
        def wrapper(*args):
            counts["built"] += 1
            return real(*args)

        return wrapper

    for module in (lattice, weyl):
        monkeypatch.setattr(module, "_sparse_class", counting(module._sparse_class))
    monkeypatch.setattr(lattice.HomologyClass, "_trusted", classmethod(counting(trusted)))
    monkeypatch.setattr(lattice.HomologyClass, "__post_init__", counting(post_init))
    return counts


def test_manifold_info_renders_each_generator_from_its_root(capsys, monkeypatch):
    # one renderer call per generator, on its root, and no rank-length class
    # built to be printed: text and --json alike
    from ruled_lattice import lattice

    counts = _count_class_builds(monkeypatch)
    render = lattice._class_text

    def counting_render(*args):
        counts["rendered"] += 1
        return render(*args)

    monkeypatch.setattr(lattice, "_class_text", counting_render)
    for extra in ((), ("--json",)):
        counts.update(built=0, rendered=0)
        code, out, _ = run(capsys, "manifold-info", "--model=rational", "--ell=40", *extra)
        assert code == EXIT_OK
        assert "L - E1 - E2 - E3" in out and "E39 - E40" in out
        assert counts == {"built": 0, "rendered": 41}


def test_decompose_o12(capsys):
    code, out, _ = run(capsys, "decompose-o12", "--matrix", "9,4,8;-4,-1,-4;8,4,7")
    assert code == EXIT_OK
    assert "s0*" in out

    code, _, err = run(capsys, "decompose-o12", "--matrix", "1,0,0;0,1,0;0,1,1")
    assert code == EXIT_USAGE


def test_decompose_o12_past_the_letter_cap_exits_1(capsys, monkeypatch):
    from ruled_lattice import weyl

    monkeypatch.setattr(weyl, "WORD_LETTER_CAP", 100)
    # (s2 s0*)^51, whose word has 102 letters
    matrix = "5203,5202,-102;-5202,-5201,102;-102,-102,1"
    code, out, err = run(capsys, "decompose-o12", "--matrix", matrix)
    assert (code, out, err) == (EXIT_USAGE, "", "error: descent reached more than 100 letters\n")


def test_describe(capsys):
    code, out, _ = run(capsys, "describe", "--label", "CP2")
    assert code == EXIT_OK
    assert "Z2" in out

    code, out, _ = run(capsys, "describe", "--model", "ruled", "--ell", "3", "--genus", "1")
    assert code == EXIT_OK
    assert "W(BD4)" in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("coxeter-finite", "--system", "E8", "--model", "rational", "--ell", "8"), "--system"),
        (("coxeter-finite", "--system", "E8", "--ell", "8"), "--system"),
        (("describe", "--label", "CP2", "--genus", "2"), "--label"),
        (("describe", "--label", "CP2", "--model", "ruled"), "--label"),
    ],
)
def test_a_named_target_excludes_the_model_flags(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: pass {flag} or --model/--ell, not both\n"


def test_reduce_class_not_in_orbit_stays_zero(capsys):
    code, out, _ = run(
        capsys, "reduce-class", "--model", "rational", "--ell", "10",
        "--coeffs", "3,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1",
    )
    assert code == EXIT_OK
    assert "in orbit: no" in out
    assert "stalled" in out


# ---------------------------------------------------------------------------
# console entry point


def test_main_leaves_the_collector_alone(capsys):
    # main has no process-wide side effect; in-process callers (tests, the
    # traced benchmark) keep a collector that sees every object
    before = (gc.isenabled(), gc.get_freeze_count())
    run(capsys, "pair", "--model", "rational", "--ell", "3", "--a", "1,0,0,0", "--b", "0,1,0,0")
    run(capsys, "pair", "--bogus")
    run(capsys, "sw-search", "--ell", "10", "--k-max", "4")
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# block-buffered stdout and stderr, as for any program writing to a pipe, so
# that output run() failed to flush would be lost
_BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize(
    "argv, expected, err_start",
    [
        (["coxeter-check", "--model", "rational", "--ell", "6", "--json"], EXIT_OK, None),
        (
            ["reduce-periods", "--model", "rational", "--ell", "3", "--periods", "1.5,1,1,1"],
            EXIT_USAGE,
            "error: ",
        ),
        (["sw-search", "--ell", "11", "--k-max", "12", "--json"], EXIT_FOUND, None),
        # 121 kB of JSON, more than a pipe holds
        (
            ["orbit", "--model=rational", "--ell=5", "--seed=0,0,0,0,0,1", "--bound=3", "--json"],
            EXIT_OK,
            None,
        ),
        (["pair", "--bogus"], EXIT_USAGE, "usage: "),
    ],
    ids=("pass", "usage-error", "found", "large-output", "argparse-error"),
)
def test_module_entry_exits_with_complete_output(capsys, argv, expected, err_start):
    # the process entry (run) keeps main's exit code and flushes all of stdout
    # and stderr before it leaves through os._exit
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out if err_start is None else err.startswith(err_start)
    proc = subprocess.run(
        [sys.executable, "-m", "ruled_lattice.cli", *argv],
        capture_output=True,
        text=True,
        env=_BUFFERED_ENV,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# a coxeter-check whose first pair order is misreported, so that it exits 3
_MISREPORTED = """
from ruled_lattice import cli, weyl


def misreported(gens):
    report = weyl.verify_presentation(gens)
    first = report.entries[0]
    wrong = weyl.PresentationEntry(first.a, first.b, first.expected, 99)
    return weyl.PresentationReport(report.model, (wrong,) + report.entries[1:], report.system)
"""


def test_module_entry_exits_three_with_complete_output(capsys, monkeypatch):
    argv = ["coxeter-check", "--model=ruled", "--ell=6", "--json"]
    double: dict = {}
    exec(_MISREPORTED, double)
    monkeypatch.setattr("ruled_lattice.cli.verify_presentation", double["misreported"])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_INTERNAL, "")
    assert json.loads(out)["result"]["ok"] is False
    script = _MISREPORTED + "cli.verify_presentation = misreported\ncli.run()\n"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=_BUFFERED_ENV
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_module_entry_under_a_profiler_exits_through_teardown(capsys):
    # cProfile prints its statistics after the program returns; os._exit
    # would leave before it.  Without a profiler run() takes the fast exit.
    argv = ["pair", "--model=rational", "--ell=3", "--a=1,0,0,0", "--b=0,1,0,0"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "ruled_lattice.cli", *argv],
        capture_output=True,
        text=True,
        env=_BUFFERED_ENV,
    )
    assert proc.stdout.startswith(out)
    assert "function calls" in proc.stdout[len(out):]
    plain = subprocess.run(
        [sys.executable, "-c", "from ruled_lattice import cli; print(cli._observed())"],
        capture_output=True,
        text=True,
    )
    assert plain.stdout == "False\n"


def _closed_pipe_call(*argv):
    """Exit code and stderr of ``python *argv`` writing to a pipe nobody reads."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *argv], stdout=write, stderr=subprocess.PIPE, env=_BUFFERED_ENV
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def test_closed_stdout_pipe_exits_like_before():
    # run()'s flush fails, so it leaves through sys.exit, whose teardown
    # reports the broken pipe with exit 120 exactly as for any Python program
    # (and as when run() ended in sys.exit alone)
    got = _closed_pipe_call(
        "-m", "ruled_lattice.cli", "pair", "--model=rational", "--ell=3",
        "--a=1,0,0,0", "--b=0,1,0,0", "--json",
    )
    assert got == _closed_pipe_call("-c", "print('{}')")
    assert got[0] == 120 and b"BrokenPipeError" in got[1]


@pytest.mark.parametrize(
    "argv",
    [
        # text: about 100 kB of print(line) calls
        ["orbit", "--model=rational", "--ell=6", "--seed=0,1,0,0,0,0,0", "--bound=3"],
        # one print of 121 kB of JSON, more than a pipe holds
        ["orbit", "--model=rational", "--ell=5", "--seed=0,0,0,0,0,1", "--bound=3", "--json"],
    ],
    ids=("text", "json"),
)
def test_pipe_closed_after_one_line_exits_120_without_traceback(argv):
    # a reader that stops early (``| head -n 1``) makes main()'s own print
    # fail; run() ends the call with README's exit code 120
    proc = subprocess.Popen(
        [sys.executable, "-m", "ruled_lattice.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_BUFFERED_ENV,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 120
    assert b"Traceback" not in err


# one direct call per subcommand, on the path that binds the most names
_COLD_CALLS = {
    "manifold-info": ["--model=ruled", "--ell=3"],
    "pair": ["--model=rational", "--ell=3", "--a=1,-1,-1,0", "--b=0,1,-1,0"],
    "reflect": ["--model=ruled", "--ell=2", "--mirror=0,0,1,0", "--target=1,0,0,0"],
    "orbit": ["--model=rational", "--ell=3", "--seed=0,0,0,1", "--bound=2"],
    "reduce-periods": ["--model=ruled", "--ell=3", "--periods=2,9,3/2,1,1"],
    "reduce-class": ["--model=rational", "--ell=5", "--coeffs=2,-1,-1,-1,-1,-1"],
    "lagrangian-system": ["--model=rational", "--ell=5", "--periods=3,1,1,1,1,1"],
    "coxeter-check": ["--model=ruled", "--ell=4"],
    "coxeter-finite": ["--model=rational", "--ell=5"],
    "crystal-check": ["--system=BD7", "--short=s6"],
    "sw-check": ["--k=6", "--m=2,2,2,2,2,2,2,2,2,2"],
    "sw-search": ["--ell=11", "--k-max=12"],
    "extremal": ["--k=12", "--ell=10"],
    "decompose-o12": ["--matrix=9,4,8;-4,-1,-4;8,4,7"],
    "describe": ["--model=ruled", "--ell=3"],
}


@pytest.mark.parametrize("name", sorted(_COLD_CALLS))
def test_each_subcommand_runs_in_a_fresh_process(capsys, name):
    # in process, every call sees the names main bound for the calls before
    # it, so a name missing from a command's modules passes there; a fresh
    # process binds only the names of its one command
    assert set(_COLD_CALLS) == set(_COMMANDS)
    argv = [name, *_COLD_CALLS[name]]
    code, out, err = run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_FOUND) and err == ""
    proc = subprocess.run(
        [sys.executable, "-m", "ruled_lattice.cli", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ruled_lattice.cli", "coxeter-finite", "--system", "BD7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0].strip() == "infinite"


# runs one call and prints its peak RSS in KiB (Linux units).  A child of
# pytest would start from pytest's RSS, so a small interpreter of its own
# spawns the call and RUSAGE_CHILDREN holds that call's peak alone
_PEAK_RSS_PROBE = """
import resource, subprocess, sys
argv = [sys.executable, "-m", "ruled_lattice.cli", *sys.argv[1:]]
subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_text_manifold_info_builds_no_rank_squared_form():
    # the form's rows are built only for a JSON payload: at l = 3000 the
    # rank^2 rows are about 150 MB, the text call about 17 MB
    argv = ["manifold-info", "--model=rational", "--ell=3000"]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, *argv], capture_output=True, text=True, check=True
    )
    assert int(proc.stdout) < 60 * 1024


def _periods_flag(l: int) -> str:
    # (3l; 1,..,1): reduced, with l - 1 zero walls
    return "--periods=" + ",".join([str(3 * l)] + ["1"] * l)


def _class_flag(flag: str, l: int, slot: int) -> str:
    return f"{flag}=" + ",".join("1" if j == slot else "0" for j in range(l + 1))


# the flags after --model=rational --ell=l (--ell=l alone where there is no
# model) of a text call whose output is linear in l
_LINEAR_TEXT_CALLS = {
    "manifold-info": lambda l: [],
    "coxeter-finite": lambda l: [],
    "describe": lambda l: [],
    "lagrangian-system": lambda l: [_periods_flag(l)],
    "reduce-periods": lambda l: [_periods_flag(l)],
    "reduce-class": lambda l: [_class_flag("--coeffs", l, 1)],
    "pair": lambda l: [_class_flag("--a", l, 1), _class_flag("--b", l, 2)],
    "reflect": lambda l: [_class_flag("--mirror", l, 1), _class_flag("--target", l, 0)],
    "extremal": lambda l: ["--k=30"],
}
# the other subcommands that take --ell, with why they are left out
_NONLINEAR_CALLS = {
    "coxeter-check": "verify_presentation stores an entry per pair of generators",
    "orbit": "its output is the orbit, which grows faster than the rank",
    "sw-search": "--ell sizes a search over multiplicity vectors, not a lattice",
}


def _text_peak(capsys, argv: list) -> int:
    # traced bytes do not depend on the host, unlike time.  A full collection
    # empties the free lists first, so each call allocates its objects afresh
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        size = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    return size


@pytest.mark.parametrize("name", sorted(_LINEAR_TEXT_CALLS))
def test_text_peak_memory_is_linear_in_the_rank(capsys, name):
    takes_ell = {c.name for c in _COMMANDS.values() if "--ell" in {f.name for f in c.flags}}
    assert takes_ell == set(_LINEAR_TEXT_CALLS) | set(_NONLINEAR_CALLS)
    model = [] if name == "extremal" else ["--model=rational"]

    def peak(l: int) -> int:
        return _text_peak(capsys, [name, *model, f"--ell={l}", *_LINEAR_TEXT_CALLS[name](l)])

    peak(10)  # loads the modules the command uses
    assert peak(1000) < 2.6 * peak(500)


def test_crystal_check_text_peak_memory_is_linear_in_the_rank(capsys):
    # crystal-check names its system, so it is keyed on the rank, not --ell;
    # serialising the structure for the run built the rank^2 order matrix
    def peak(rank: int) -> int:
        return _text_peak(capsys, ["crystal-check", f"--system=BE{rank}"])

    peak(11)  # loads the modules the command uses
    assert peak(1001) < 2.6 * peak(501)


# the flags after --model=rational --ell=l of a call that prints one class per
# root or orbit vector, with at most l + 1 of them: the orbit of E1 under the
# swaps s1..s_k, k = l / 100, is E1..E_{k+1}
_CLASS_TEXT_CALLS = {
    "lagrangian-system": lambda l: [_periods_flag(l)],
    "manifold-info": lambda l: [],
    "orbit": lambda l: [
        _class_flag("--seed", l, 1),
        "--bound=1",
        "--generators=" + ",".join(f"s{i}" for i in range(1, l // 100 + 1)),
    ],
}


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(_CLASS_TEXT_CALLS))
def test_class_text_builds_no_class_per_root(capsys, monkeypatch, name, json_flag):
    # each root or vector is rendered from its (slot, coefficient) pairs; a
    # rank-length class built per root made the text quadratic in time
    counts = _count_class_builds(monkeypatch)

    def builds(l: int) -> int:
        counts["built"] = 0
        argv = [name, "--model=rational", f"--ell={l}", *_CLASS_TEXT_CALLS[name](l), *json_flag]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "") and out
        return counts["built"]

    assert builds(200) == builds(2000)


# ---------------------------------------------------------------------------
# cold import set: each subcommand loads only the modules it uses

_COLD_IMPORT_PROBE = r"""
import contextlib, io, json, re, sys

# every pattern compiled from here on, by the package or a module it loads
compiled = []
compile_pattern = re._compile


def recording_compile(pattern, flags):
    compiled.append(str(pattern))
    return compile_pattern(pattern, flags)


re._compile = recording_compile

import ruled_lattice

report = {"package": sorted(m for m in sys.modules if m.startswith("ruled_lattice."))}

from ruled_lattice import cli
from ruled_lattice.base import SMALL_CASE_LABELS

RATIONALS = ("fractions", "decimal", "numbers")
report["rationals_loaded"] = {}
report["failed_calls"] = []
called = set()


def call(argv):
    # one direct --json call and its replay through --input -, then the
    # exact-rational modules must still be absent
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--json"])
    sys.stdin = io.StringIO(out.getvalue())
    replayed = io.StringIO()
    with contextlib.redirect_stdout(replayed), contextlib.redirect_stderr(io.StringIO()):
        replay_code = cli.main([argv[0], "--input", "-", "--json"])
    sys.stdin = sys.__stdin__
    called.add(argv[0])
    if code not in (0, 2) or replay_code != code or replayed.getvalue() != out.getvalue():
        report["failed_calls"].append(argv[0])
    loaded = [m for m in RATIONALS if m in sys.modules]
    if loaded:
        report["rationals_loaded"].setdefault(argv[0], loaded)


call(["pair", "--model", "rational", "--ell", "3", "--a", "1,0,0,0", "--b", "0,1,0,0"])
report["pair"] = sorted(
    m
    for m in ("ruled_lattice.catalog", "ruled_lattice.sw", "ruled_lattice.weyl", "concurrent.futures")
    if m in sys.modules
)

# reductions, orbits and class moves build no Coxeter system
call(["reflect", "--model", "ruled", "--ell", "2", "--mirror", "0,0,1,0", "--target", "1,0,0,0"])
call(["orbit", "--model", "rational", "--ell", "3", "--seed", "0,0,0,1", "--bound", "2"])
call(["reduce-periods", "--model", "rational", "--ell", "3", "--periods", "6,3,2,1"])
call(["reduce-periods", "--model", "ruled", "--ell", "3", "--periods", "7/2,5/3,1,1/2,1/3"])
call(["reduce-class", "--model", "rational", "--ell", "4", "--coeffs", "1,-1,-1,0,0"])
call(["manifold-info", "--model", "ruled", "--ell", "3"])
report["coxeter_loaded"] = [
    m for m in ("ruled_lattice.coxeter", "ruled_lattice.qsqrt2") if m in sys.modules
]

call(["lagrangian-system", "--model", "rational", "--ell", "5", "--periods", "3,1,1,1,1,1/2"])
call(["coxeter-check", "--model", "ruled", "--ell", "4"])
call(["coxeter-finite", "--system", "E8"])
call(["coxeter-finite", "--model", "rational", "--ell", "5"])
call(["crystal-check", "--system", "BE7"])
call(["sw-check", "--k", "2", "--m", "1,1,1,1,1"])
call(["sw-search", "--ell", "10", "--k-max", "4"])
call(["extremal", "--k", "3", "--ell", "4"])
call(["decompose-o12", "--matrix", "9,4,8;-4,-1,-4;8,4,7"])
call(["describe", "--label", "CP2"])
call(["describe", "--model", "ruled", "--ell", "3"])
report["not_called"] = sorted(set(cli._COMMANDS) - called)

# value types are Records: no cold call pulls in dataclasses (and inspect)
HEAVY = ("dataclasses", "inspect")
report["heavy_after_calls"] = [m for m in HEAVY if m in sys.modules]

# submodules first: once every name is resolved they are all imported anyway
unresolved = [
    sub
    for sub in ("catalog", "coxeter", "lattice", "qsqrt2", "sw", "weyl")
    if getattr(getattr(ruled_lattice, sub, None), "__name__", None) != "ruled_lattice." + sub
]
unresolved += [n for n in ruled_lattice.__all__ if not hasattr(ruled_lattice, n)]
report["unresolved"] = unresolved
# the names the traced benchmark replaces on cli with setattr
report["traced_unresolved"] = [n for n in json.loads(sys.argv[1]) if not hasattr(cli, n)]
report["heavy_after_resolving"] = [m for m in HEAVY if m in sys.modules]

calls = {}


def count_calls(name):
    real = getattr(cli, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    setattr(cli, name, counting)


for name in ("reduce_periods", "is_finite_type", "gram_determinant"):
    count_calls(name)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["reduce-periods", "--model", "rational", "--ell", "3", "--periods", "6,3,2,1"])
    cli.main(["coxeter-finite", "--system", "E8"])
report["wrapper_calls"] = calls

# every call above took the plain parser: argparse (with gettext and
# locale) loads only for help and errors, and no regex was compiled
report["parser_modules"] = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
report["regexes_compiled"] = sorted(set(compiled))
help_text = io.StringIO()
with contextlib.redirect_stdout(help_text):
    cli.main(["describe", "--help"])
report["help_missing"] = [l for l in SMALL_CASE_LABELS if l not in help_text.getvalue()]
print(json.dumps(report))
"""


_COXETER_ONLY_PROBE = r"""
import contextlib, io, sys

from ruled_lattice import cli

for argv in (["coxeter-finite", "--system", "BD7"], ["crystal-check", "--system", "BE7"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv + ["--json"])
    sys.stdin = io.StringIO(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main([argv[0], "--input", "-", "--json"])
print(" ".join(sorted(m for m in sys.modules if m.startswith("ruled_lattice."))))
"""


def test_named_system_commands_load_coxeter_only():
    proc = subprocess.run(
        [sys.executable, "-c", _COXETER_ONLY_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "ruled_lattice.base",
        "ruled_lattice.cli",
        "ruled_lattice.coxeter",
        "ruled_lattice.qsqrt2",
    ]


def _traced_cli_names() -> list[str]:
    """The keys of CLI_TRACED_CALLS, read from the benchmark's source."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["CLI_TRACED_CALLS"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("perfbench/workloads.py defines no CLI_TRACED_CALLS")


def test_cold_import_set():
    traced = _traced_cli_names()
    assert {"is_finite_type", "gram_determinant", "reduce_periods"} <= set(traced)
    # a wide terminal keeps argparse from wrapping a label at its hyphen
    env = dict(os.environ, COLUMNS="200")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_PROBE, json.dumps(traced)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "package": [],
        "help_missing": [],
        "rationals_loaded": {},
        "failed_calls": [],
        "pair": [],
        "coxeter_loaded": [],
        "not_called": [],
        "heavy_after_calls": [],
        "unresolved": [],
        "heavy_after_resolving": [],
        "traced_unresolved": [],
        "wrapper_calls": {"reduce_periods": 1, "is_finite_type": 1, "gram_determinant": 1},
        "parser_modules": [],
        "regexes_compiled": [],
    }
