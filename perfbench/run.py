"""Benchmark of the ruled_lattice library: certified answers, end to end and
by layer.  Standard library only.

    python3 perfbench/run.py --workload reduce-mix --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; the library is imported from ``src/``.
Each run compiles the package's bytecode once, times the workload's set-up
in several fresh worker processes (setup_s is their median), then measures
in one more.  The last line of stdout is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Lines
before it give the environment, the refusal and failure shares, the
deterministic counts and any failed checks.  ``--workload all`` runs every
workload, each in its own processes, and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("reduce-mix", "search", "rank-scaling", "cli-cold")
# set-up only workers, half started before the measuring worker and half
# after it, so the median of the eleven set-up times spans the whole run
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 160

# name -> unit.  END_TO_END is what BENCHMARK.json bounds and the last line
# carries.  The rest is reported beside it, unbounded: the figures in
# seconds swing with the host's speed far past any bound, and the latency
# quantiles in reference units spread about a tenth over ten seeds (README).
END_TO_END = {"ops_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "reference_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The workers' environment: the checkout's src first, the sw thread
    knob unset, string hashing pinned, bytecode caching allowed."""
    env = dict(os.environ)
    env.pop("RULED_LATTICE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ruled_lattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "RULED_LATTICE_THREADS": None,
        "PYTHONHASHSEED": "0",
        "load": "closed loop, one client, one thread",
    }


def compile_bytecode(env: dict) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "ruled_lattice"), str(HERE)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )


def start_worker(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} failed during set-up")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> bytes:
    """The rest of a worker's stdout; a worker still running after
    ``timeout`` seconds is killed and reaped, and the run fails."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish in {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: int, tiny: bool = False, probes: int = SETUP_PROBES
) -> dict:
    env = child_env()
    base = ["--workload", name, "--seed", str(seed)]
    setups = []

    def probe(n: int) -> None:
        for _ in range(n):
            proc, ready = start_worker(base + ["--seconds", "0", "--setup-only"], env)
            finish(proc, WORKER_TIMEOUT_S)
            setups.append(ready)

    probe(probes // 2)
    args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    if trace:
        (BUILD / "trace").mkdir(parents=True, exist_ok=True)
        args += ["--trace-file", str(BUILD / "trace" / f"{name}-seed{seed}.json")]
    proc, ready = start_worker(args, env)
    setups.append(ready)
    result = json.loads(finish(proc, WORKER_TIMEOUT_S).decode().strip().splitlines()[-1])
    probe(probes - probes // 2)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    return {k: {"value": result.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}


def summary_of(result: dict) -> dict:
    attempted = result["attempted"]
    keys = (
        "workload", "seed", "batch_size", "passes", "attempted", "certified", "refused",
        "failed", "latency_items", "op_time_s", "input_digest", "setup_samples_s",
        "pass_ops_per_s", "counts", "failures",
    )
    out = {k: result[k] for k in keys}
    out.update({k: result.get(k, 0.0) for k in REPORTED})
    out["refused_share"] = result["refused"] / attempted
    out["failed_share"] = result["failed"] / attempted
    if "traced_ops_per_ref" in result:
        out["untraced_ops_per_ref"] = result["ops_per_ref"]
        out["traced_ops_per_ref"] = result["traced_ops_per_ref"]
        out["spans"] = result["spans"]
    return out


def verdict(results: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["certified"] > 0 for r in results)
    return correct, attempted, failed


def table(results: list[dict], trace: int) -> list[str]:
    lines = []
    for r in results:
        s = summary_of(r)
        rows = [(k, m["value"], m["unit"]) for k, m in metrics_of(r, trace).items()]
        rows += [(k, s[k], u) for k, u in REPORTED.items()]
        rows += [("failed_share", s["failed_share"], "share"),
                 ("refused_share", s["refused_share"], "share"),
                 ("latency_items", s["latency_items"], "count"),
                 ("certified_ops", s["certified"], "count")]
        lines += [f"{r['workload']:<13} {k:<36} {v:>16.6g} {u}" for k, v, u in rows]
    return lines


def self_test() -> int:
    """Tiny sizes: every check passes, a seed reproduces its inputs and
    counts, another seed changes the inputs, and the traced run works."""
    problems: list[str] = []
    for name in WORKLOADS:
        before = len(problems)
        a, b, c = (run_workload(name, seed, 0, 0, tiny=True, probes=0) for seed in (1, 1, 2))
        t = run_workload(name, 1, 0, 1, tiny=True, probes=0)
        for r in (a, b, c, t):
            if r["failed"] or not r["certified"]:
                problems.append(f"{name} seed {r['seed']}: {r['failures'] or 'nothing certified'}")
        if (a["input_digest"], a["counts"]) != (b["input_digest"], b["counts"]):
            problems.append(f"{name}: the same seed gave different inputs or counts")
        if t["counts"] != a["counts"]:
            problems.append(f"{name}: the traced run counted differently")
        if a["input_digest"] == c["input_digest"]:
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        print(f"self-test {name}: {'ok' if len(problems) == before else 'FAILED'} counts={a['counts']}")
    for p in problems:
        print(f"self-test problem: {p}")
    print(json.dumps({"self_test": "pass" if not problems else "fail", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "ruled_lattice" / "__init__.py").is_file():
        print(f"error: no ruled_lattice package under {SRC}", file=sys.stderr)
        return 2
    try:
        compile_bytecode(child_env())
        if args.self_test:
            return self_test()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"environment": environment()}))
    for r in results:
        print(json.dumps({"summary": summary_of(r)}))
    for line in table(results, args.trace):
        print(line)
    correct, attempted, failed = verdict(results)
    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {
            f"{r['workload']}.{k}": m for r in results for k, m in metrics_of(r, args.trace).items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
