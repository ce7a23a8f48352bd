"""One workload in one fresh process; started by run.py, not by hand.

Protocol: the worker prints ``ready`` on stdout as soon as its set-up is
done (run.py times process start to that line as set-up), then, unless
``--setup-only``, measures and prints one JSON object as its last line.

The load is a closed loop with one client and one thread: each op starts
when the previous one has been checked.  Whole passes of the seeded batch
run until the op time reaches the budget; untraced runs make at least
MIN_PASSES passes and MIN_SAMPLES certified ops.

Every pass repeats the same inputs, so each item of the batch is timed at
its median repetition: ``ops_per_s`` is the number of certified items over
the sum of every item's median time, and the latency quantiles are taken
over the certified items' median times.  With at least MIN_PASSES
repetitions and 100 ops, the executions beyond p90 number at least ten.

A shared host slows every process on it in step, by up to 1.7 times for
minutes at a time (README).  So between ops, outside their timing, the
worker also times the workload's ``reference`` task, which no change to
the library moves.  ``ops_per_ref`` is ``ops_per_s`` times the median
reference time: the certified ops per reference-task time, a rate in which
the host's speed cancels.  The latency quantiles are reported in the same
units.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import workloads
from tracing import Tracer
from workloads import FAILED, OK, REFUSED, SKIP

MIN_SAMPLES = 100
MIN_PASSES = 3
WALL_CAP_S = 100.0  # stop adding passes past this, whatever the budget

# layer span names, in report order
LAYERS = (
    "weyl.periods",
    "weyl.reduce_periods",
    "weyl.replay",
    "weyl.reduce_class",
    "weyl.generator_set",
    "weyl.lagrangian_system",
    "weyl.orbit",
    "sw.dichotomy_search",
    "catalog.decompose_O12",
    "weyl.verify_presentation",
    "coxeter.is_finite_type",
    "coxeter.gram_determinant",
    "coxeter.crystal",
    "render",
    "cli.main",
)
# deterministic counts over one pass of the seeded batch
COUNTS = (
    "ops.refused",
    "weyl.reduce_periods.letters",
    "weyl.reduce_periods.crossings",
    "weyl.replay.letters",
    "weyl.reduce_class.letters",
    "weyl.orbit.vertices",
    "weyl.orbit.truncated",
    "sw.dichotomy_search.candidates",
    "catalog.decompose_O12.letters",
    "cli.found",
    "cli.output_bytes",
)
CLI_SPLIT = ("cli.interpreter_s", "cli.import_s")


def measure(wl, batch, tr: Tracer, budget: float, min_samples: int, min_passes: int) -> dict:
    certified = 0
    times: dict[int, list[float]] = {}  # item index -> its op times, any outcome
    certified_items: set[int] = set()
    op_time = 0.0
    attempted = refused = failed = passes = 0
    failures: list[str] = []
    first_pass_counts: dict[str, int] | None = None
    pass_rates: list[float] = []
    refs: list[float] = []
    wall_start = perf_counter()
    gc.collect()
    while True:
        counts: dict[str, int] = {}
        pass_start, pass_certified = op_time, certified
        for index, item in enumerate(batch):
            if wl.collect_between_ops:
                gc.collect()
            tr.op_id += 1
            outcome = None
            t0 = perf_counter()
            with tr.span("op"):
                try:
                    result = wl.run(item, tr)
                except wl.refusal_types as exc:
                    result, outcome = exc, REFUSED
                except Exception as exc:  # any other exception fails the op
                    result, outcome = exc, FAILED
            dt = perf_counter() - t0
            if result is SKIP:
                continue
            attempted += 1
            op_time += dt
            times.setdefault(index, []).append(dt)
            if attempted % wl.reference_every == 0:
                refs.append(time_reference(wl))
            fails: list[str] = []
            item_counts: dict[str, int] = {}
            if outcome is None:
                try:
                    outcome, fails, item_counts = wl.check(item, result)
                except Exception as exc:  # a malformed result fails the op
                    outcome, fails = FAILED, [f"check raised {exc!r}"]
            elif outcome == FAILED:
                fails = [f"{item[0]}: {type(result).__name__}: {result}"]
            if outcome == OK:
                certified += 1
                certified_items.add(index)
            elif outcome == REFUSED:
                refused += 1
                item_counts["ops.refused"] = 1
            else:
                failed += 1
                failures.extend(fails[: max(0, 20 - len(failures))])
            for key, value in item_counts.items():
                counts[key] = counts.get(key, 0) + value
        passes += 1
        if first_pass_counts is None:
            first_pass_counts = counts
        pass_time = op_time - pass_start
        pass_rates.append((certified - pass_certified) / pass_time)
        enough = (
            op_time + pass_time / 2 >= budget
            and certified >= min_samples
            and passes >= min_passes
        )
        if enough or perf_counter() - wall_start > WALL_CAP_S:
            break
    item_time = {i: statistics.median(ts) for i, ts in times.items()}
    ref = statistics.median(refs or [time_reference(wl)])
    out = {
        "passes": passes,
        "attempted": attempted,
        "certified": certified,
        "refused": refused,
        "failed": failed,
        "failures": failures,
        "op_time_s": op_time,
        "ops_per_s": len(certified_items) / sum(item_time.values()) if item_time else 0.0,
        "reference_ms": ref * 1e3,
        "pass_ops_per_s": pass_rates,
        "latency_items": len(certified_items),
        "counts": {k: first_pass_counts.get(k, 0) for k in COUNTS},
    }
    summary = sorted(item_time[i] for i in certified_items)
    if summary:
        out["latency_p50_ms"] = statistics.median(summary) * 1e3
        deciles = statistics.quantiles(summary, n=10) if len(summary) > 1 else summary * 9
        out["latency_p90_ms"] = deciles[8] * 1e3
        out["latency_p50_ref"] = out["latency_p50_ms"] / out["reference_ms"]
        out["latency_p90_ref"] = out["latency_p90_ms"] / out["reference_ms"]
    out["ops_per_ref"] = out["ops_per_s"] * ref
    return out


def time_reference(wl) -> float:
    """One run of the reference task, with the collector off so that the
    library's heap does not reach into it."""
    gc.disable()
    try:
        t0 = perf_counter()
        wl.reference()
        return perf_counter() - t0
    finally:
        gc.enable()


def layer_metrics(tr: Tracer, counts: dict, extras: dict, overhead_pct: float) -> dict:
    totals = tr.layer_totals()
    out = {}
    for layer in LAYERS:
        agg = totals.get(layer, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = (agg["calls"], "count")
        out[f"{layer}.time_s"] = (agg["time_s"], "s")
        out[f"{layer}.self_s"] = (agg["self_s"], "s")
    for key in COUNTS:
        out[key] = (counts[key], "bytes" if key.endswith("_bytes") else "count")
    for key in CLI_SPLIT:
        out[key] = (extras.get(key, 0.0), "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    os.environ.pop("RULED_LATTICE_THREADS", None)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    batch = wl.batch(random.Random(f"{args.workload}:{args.seed}"), args.tiny)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "batch_size": len(batch),
        "input_digest": hashlib.sha256(repr(batch).encode()).hexdigest(),
    }
    tr = Tracer()
    full = not (args.tiny or args.trace)
    minimums = (MIN_SAMPLES, MIN_PASSES) if full else (0, 1)
    if not args.trace:
        result.update(measure(wl, batch, tr, args.seconds, *minimums))
    else:
        untraced = measure(wl, batch, tr, args.seconds / 2, *minimums)
        tr.enabled = True
        traced = measure(wl, batch, tr, args.seconds / 2, *minimums)
        extras, extra_failures = wl.trace_extras(batch, tr)
        tr.enabled = False
        overhead = 0.0
        if untraced["ops_per_ref"]:
            overhead = 100.0 * (1.0 - traced["ops_per_ref"] / untraced["ops_per_ref"])
        result.update(untraced)
        for key in ("attempted", "certified", "refused", "failed"):
            result[key] += traced[key]
        result["failed"] += len(extra_failures)
        result["failures"] = (untraced["failures"] + traced["failures"] + extra_failures)[:20]
        result["traced_ops_per_ref"] = traced["ops_per_ref"]
        if traced["counts"] != untraced["counts"]:
            result["failed"] += 1
            result["failures"].append("counts differ between the traced and untraced passes")
        result["layers"] = layer_metrics(tr, untraced["counts"], extras, overhead)
        result["spans"] = len(tr.spans)
        if args.trace_file:
            tr.write(args.trace_file)
    result["peak_rss_mb"] = peak_rss_mb(children=isinstance(wl, workloads.CliCold))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
