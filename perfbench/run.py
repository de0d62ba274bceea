#!/usr/bin/env python3
"""Layered benchmark for sparsewitness.

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 25 --trace 0

Runs one workload (mc-grid, sample-cover or grow-certify) in one process on
the active kernel backend, repeating passes over the inputs made from
--seed for about --seconds seconds.  The untraced run (--trace 0) prints
the end-to-end metrics; the traced run (--trace 1) prints the per-layer
metrics and writes its spans to perfbench/traces/.  Outputs are checked
after the timed passes; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is 0 only when every check passed.  --smoke shrinks every input.

The program is imported from ``src/`` beside this directory, never from an
installed copy.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-grid", "sample-cover", "grow-certify")
SETUP_PROBES = 5
MIN_TAIL_BEYOND = 10
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB")]


def import_program():
    """Import sparsewitness from this checkout's src/ or exit non-zero."""
    sys.path.insert(0, str(SRC))
    import sparsewitness

    where = Path(sparsewitness.__file__).resolve().parent.parent
    if where != SRC:
        raise SystemExit(f"sparsewitness imported from {where}, not {SRC}")


def setup_probe(name, seed, smoke):
    """Child side of a set-up measurement: import, build inputs, warm up."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[name](seed, smoke).warm_up()
    return time.perf_counter() - t0


def measure_setup(args):
    """Median set-up time over fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_passes(workload, seconds, recorders):
    """Run passes, alternating the recorder factories, until at least two
    have run and the next cycle would end after ``seconds``.

    Returns [(factory index, recorder, output, wall seconds)] and the peak
    RSS in MB after the first pass, before the kept outputs of later
    passes add to it."""
    done = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        for i, make in enumerate(recorders):
            rec = make()
            with rec.scope():
                t0 = time.perf_counter()
                out = workload.run_pass(rec)
                wall = time.perf_counter() - t0
            done.append((i, rec, out, wall))
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cycle = sum(statistics.median(w for j, _, _, w in done if j == i)
                    for i in range(len(recorders)))
        if len(done) >= 2 and time.perf_counter() - start + cycle > seconds:
            return done, peak_rss_mb


def item_stats(recs):
    """Mean time per item over passes; then the median item and the
    highest percentile with at least MIN_TAIL_BEYOND items beyond it.

    Here and for ``wall_s`` the mean, not the median, over passes: the
    host alternates between a fast and a slow speed (about 1.4x apart)
    every few seconds, and a median over a few passes snaps to one of the
    two speeds where the mean follows the mix."""
    per_item = sorted(statistics.fmean(r.times[k] for r in recs if k in r.times)
                      for k in recs[0].times)
    n = len(per_item)
    # 1-based rank of the tail item; smoke inputs are too small for a tail.
    rank = n - MIN_TAIL_BEYOND if n > MIN_TAIL_BEYOND else n
    return {
        "p50": statistics.median(per_item),
        "tail": per_item[rank - 1],
        "tail_percentile": 100.0 * rank / n,
        "items": n,
    }


def context(args, extra):
    import numpy

    from sparsewitness import hotpath

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "backend": hotpath.BACKEND, "available_backends": hotpath.available_backends(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, **extra,
    }


def run(args):
    """Run the workload; return (correct, attempted, failed, metrics, context)."""
    setup_s = None if args.trace else measure_setup(args)
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()

    if args.trace:
        import tracing
        from sparsewitness import hotpath

        backends = hotpath.available_backends()
        keep = args.workload == "mc-grid" and len(backends) > 1
        passes, _ = run_passes(workload, args.seconds, [
            workloads.Recorder, lambda: tracing.Tracer(keep_kernel_calls=keep)])
    else:
        passes, peak_rss_mb = run_passes(workload, args.seconds, [workloads.Recorder])

    outputs = [out for _, _, out, _ in passes]
    fails = workload.check(outputs)
    attempted = workload.item_count() * len(passes)
    failed = sum(len(rec.failed) for _, rec, _, _ in passes)
    failed = min(attempted, failed + sum(items for _, items in fails))

    if args.trace:
        tracers = [rec for i, rec, _, _ in passes if i == 1]
        replay = None
        if tracers[0].kernel_calls is not None:
            replay, mismatches = tracing.replay_kernel_calls(
                tracers[0].kernel_calls, backends)
            if mismatches:
                fails.append((f"{mismatches} kernel calls differ between backends", 0))
        metrics = tracing.per_layer(
            tracers, [w for i, _, _, w in passes if i == 1],
            [w for i, _, _, w in passes if i == 0], replay)
        ctx = context(args, {"passes_traced": len(tracers),
                             "passes_untraced": len(passes) - len(tracers)})
        trace_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracing.dump(trace_file, tracers, ctx, metrics)
        ctx["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        stats = item_stats([rec for _, rec, _, _ in passes])
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.fmean(w for _, _, _, w in passes),
            "item_p50_ms": 1e3 * stats["p50"],
            "item_tail_ms": 1e3 * stats["tail"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        ctx = context(args, {
            "passes": len(passes), "items_per_pass": stats["items"],
            "item_tail_percentile": stats["tail_percentile"],
            "failed_frac": failed / attempted,
        })
        if args.workload == "mc-grid":
            ctx["csv_budget_exceeded"] = workload.budget_exceeded(outputs[0])
    for description, _ in fails:
        print(f"CHECK FAILED: {description}", flush=True)
    return not fails, attempted, failed, metrics, ctx


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed, args.smoke)}))
        return 0

    correct, attempted, failed, metrics, ctx = run(args)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    if not args.trace:
        print(f"{'failed_frac':<40} {ctx['failed_frac']:>16.6f} ratio")
        print(f"item_tail_ms is p{ctx['item_tail_percentile']:.1f} of "
              f"{ctx['items_per_pass']} items")
    print("context " + json.dumps(ctx))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
