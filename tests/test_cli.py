"""Command-line interface: contracts, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys

import pytest

from ruled_lattice.cli import EXIT_FOUND, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main


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
    [[0.1, "1", "1"], [True, "1", "1"], ["1/0", "1", "1"], "111"],
    ids=["float", "bool", "zero-denominator", "string"],
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


def test_input_from_stdin(capsys, monkeypatch, tmp_path):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"k": 2, "m": [1, 1, 1, 1, 1]})))
    code, out, _ = run(capsys, "sw-check", "--input", "-")
    assert code == EXIT_OK
    assert "constraint" in out.lower()


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


def test_decompose_o12(capsys):
    code, out, _ = run(capsys, "decompose-o12", "--matrix", "9,4,8;-4,-1,-4;8,4,7")
    assert code == EXIT_OK
    assert "s0*" in out

    code, _, err = run(capsys, "decompose-o12", "--matrix", "1,0,0;0,1,0;0,1,1")
    assert code == EXIT_USAGE


def test_describe(capsys):
    code, out, _ = run(capsys, "describe", "--label", "CP2")
    assert code == EXIT_OK
    assert "Z2" in out

    code, out, _ = run(capsys, "describe", "--model", "ruled", "--ell", "3", "--genus", "1")
    assert code == EXIT_OK
    assert "W(BD4)" in out


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


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ruled_lattice.cli", "coxeter-finite", "--system", "BD7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0].strip() == "infinite"


# ---------------------------------------------------------------------------
# cold import set: each subcommand loads only the modules it uses

_COLD_IMPORT_PROBE = r"""
import contextlib, io, json, sys

import ruled_lattice

report = {"package": sorted(m for m in sys.modules if m.startswith("ruled_lattice."))}

from ruled_lattice import cli
from ruled_lattice.base import SMALL_CASE_LABELS

help_text = io.StringIO()
with contextlib.redirect_stdout(help_text):
    cli.main(["describe", "--help"])
    cli.main(["pair", "--model", "rational", "--ell", "3", "--a", "1,0,0,0", "--b", "0,1,0,0"])
report["help_missing"] = [l for l in SMALL_CASE_LABELS if l not in help_text.getvalue()]
report["pair"] = sorted(
    m
    for m in ("ruled_lattice.catalog", "ruled_lattice.sw", "ruled_lattice.weyl", "concurrent.futures")
    if m in sys.modules
)

# submodules first: once every name is resolved they are all imported anyway
unresolved = [
    sub
    for sub in ("catalog", "coxeter", "lattice", "qsqrt2", "sw", "weyl")
    if getattr(getattr(ruled_lattice, sub, None), "__name__", None) != "ruled_lattice." + sub
]
unresolved += [n for n in ruled_lattice.__all__ if not hasattr(ruled_lattice, n)]
report["unresolved"] = unresolved

calls = []
real = cli.reduce_periods


def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)


cli.reduce_periods = counting
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["reduce-periods", "--model", "rational", "--ell", "3", "--periods", "6,3,2,1"])
report["wrapper_calls"] = len(calls)
print(json.dumps(report))
"""


def test_cold_import_set():
    # a wide terminal keeps argparse from wrapping a label at its hyphen
    env = dict(os.environ, COLUMNS="200")
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "package": [],
        "help_missing": [],
        "pair": [],
        "unresolved": [],
        "wrapper_calls": 1,
    }
