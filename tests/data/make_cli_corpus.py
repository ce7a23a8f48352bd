"""Write ``cli_corpus.json``, the standard command-line corpus with digests.

The corpus is every cli-cold spec of benchmark seeds 1-5, the argv that
``perfbench/workloads.cli_specs`` draws from ``random.Random("cli-cold:N")``.
Each spec runs three ways, in process through ``cli.main``: with ``--json``,
as text, and as an ``--input -`` replay of its ``--json`` payload (left out
when the ``--json`` call exits 1 and prints none).  Each run is stored as its
argv, the index of the run whose stdout it reads as stdin (or null), its exit
code and the sha256 of its stdout and of its stderr.  Every argv is one the
plain parser reads, so no argparse text, which differs across Python
versions, enters the file.

``tests/test_cli.py::test_standard_corpus_is_unchanged`` replays the file.
Regenerate it only for an intended output change, and name that change in
CHANGES.md.  From the repository root:

    PYTHONPATH=src python tests/data/make_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SEEDS = range(1, 6)


def run_cli(argv: list, stdin: str = "") -> tuple:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    from ruled_lattice import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_argvs() -> list:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import cli_specs

    return [
        [sub, *args]
        for seed in SEEDS
        for sub, args, _ in cli_specs(random.Random(f"cli-cold:{seed}"), False)
    ]


def main() -> None:
    from ruled_lattice import cli

    runs, outputs = [], []

    def record(argv, stdin_run=None):
        assert cli._parse_plain(cli._COMMANDS[argv[0]], argv[1:]) is not None, argv
        stdin = "" if stdin_run is None else outputs[stdin_run]
        code, out, err = run_cli(argv, stdin)
        outputs.append(out)
        runs.append({
            "argv": argv,
            "stdin": stdin_run,
            "code": code,
            "stdout": digest(out),
            "stderr": digest(err),
        })
        return code

    for argv in corpus_argvs():
        if record(argv + ["--json"]) != cli.EXIT_USAGE:
            record([argv[0], "--input", "-", "--json"], len(runs) - 1)
        record(argv)
    with open(os.path.join(HERE, "cli_corpus.json"), "w") as fh:
        # one run per line, so a changed output is a one-line diff
        fh.write("[\n" + ",\n".join(json.dumps(run) for run in runs) + "\n]\n")
    print(f"{len(runs)} runs written")


if __name__ == "__main__":
    main()
