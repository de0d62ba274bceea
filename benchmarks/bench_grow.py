#!/usr/bin/env python3
"""Benchmark the grow-certify calls of the growth process and certificates.

Times, per call, the program calls that hold nearly all of the perfbench
grow-certify workload's time, with that workload's arguments:

* ``witness.process_run`` for (gamma, r) in {(0, 2), (1, 2), (1, 3)} at
  250, 500 and 1000 steps;
* ``analytics.sequence_part1(i, 0.3, 10)`` for i = 3..10 and
  ``sequence_part2(i, 0.6, 0.25, 4, 2)`` for i = 1..8;
* ``analytics.window_report`` part 1 (existence window, alpha = 0.3,
  gamma = 10) and part 2 (alpha = 0.6, gamma = 4, r = 2, beta = 0.25)
  over n = 10^2 .. 10^12 in quarter decades.

A round is one fresh interpreter that runs every group once to warm up,
then five passes, and reports each group's median pass as microseconds
per call, with a sha256 over every output of the group.

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees return different outputs.

--json PATH also writes every round, the medians, the kernel backend and
os.cpu_count() as one JSON record.

Usage: python benchmarks/bench_grow.py [--rounds N] [--before SRC] [--json PATH]
"""

import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time

import alternate

GRID = [round(10 ** (k / 4)) for k in range(8, 49)]
PASSES = 5


def groups():
    """(label, [(function, args, kwargs), ...]) for every timed group."""
    from sparsewitness import analytics, witness

    process = [(witness.process_run, (g, r, steps), {})
               for g, r in ((0, 2), (1, 2), (1, 3)) for steps in (250, 500, 1000)]
    part1 = [(analytics.sequence_part1, (i, 0.3, 10), {}) for i in range(3, 11)]
    part2 = [(analytics.sequence_part2, (i, 0.6, 0.25, 4, 2), {}) for i in range(1, 9)]
    window1 = [(analytics.window_report, (n, 0.3, 10), {}) for n in GRID]
    window2 = [(analytics.window_report, (n, 0.6, 4), {"r": 2, "mode": "part2", "beta": 0.25})
               for n in GRID]
    return [
        ("process_run", process),
        ("sequence_part1", part1),
        ("sequence_part2", part2),
        ("window_report part1", window1),
        ("window_report part2", window2),
    ]


def canon(x):
    """A repr-able form of an output; integers as hex, since part-2 floors
    have more digits than int repr allows."""
    from sparsewitness.graphs import Graph

    if isinstance(x, Graph):
        return ("Graph", x.n, x.m, canon(tuple(x.bits)))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            canon(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(canon(v) for v in x)
    if type(x) is int:
        return hex(x)
    return x


def child():
    """One round: time every group in this interpreter."""
    from sparsewitness import hotpath

    out = {"backend": hotpath.BACKEND}
    for label, calls in groups():
        for fn, args, kwargs in calls:  # warm imports and lazy set-up
            fn(*args, **kwargs)
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            results = [fn(*args, **kwargs) for fn, args, kwargs in calls]
            times.append((time.perf_counter() - t0) / len(calls) * 1e6)
        digest = hashlib.sha256()
        for res in results:
            digest.update(repr(canon(res)).encode())
        out[label] = {"us": statistics.median(times), "calls": len(calls),
                      "sha256": digest.hexdigest()}
    print(json.dumps(out))


def main() -> int:
    args = alternate.parse_args()
    if args.child:
        child()
        return 0

    trees, rounds = alternate.run_rounds(__file__, args.before, args.rounds)

    header = f"{'group':<22}{'side':<8}{'median us/call':>15}  rounds (us/call)"
    print(header)
    print("-" * len(header))
    rows = []
    labels = [k for k in rounds["after"][0] if k != "backend"]
    for label in labels:
        digests = {r[label]["sha256"] for side in trees for r in rounds[side]}
        if len(digests) != 1:
            raise SystemExit(f"{label}: the trees return different outputs")
        row = {"group": label, "calls_per_pass": rounds["after"][0][label]["calls"],
               "sha256": digests.pop()}
        for side in trees:
            us = [r[label]["us"] for r in rounds[side]]
            row[side] = {"median_us": statistics.median(us), "rounds_us": us}
            print(f"{label:<22}{side:<8}{statistics.median(us):>15.1f}  "
                  + " ".join(f"{x:.1f}" for x in us))
        if "before" in row:
            row["after_over_before"] = row["after"]["median_us"] / row["before"]["median_us"]
        rows.append(row)
    if args.json:
        record = {
            "script": "benchmarks/bench_grow.py", "rounds": args.rounds,
            "passes": PASSES, "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "backend": {side: rounds[side][0]["backend"] for side in trees},
            "before_commit": alternate.commit_of(trees["before"]) if args.before else None,
            "rows": rows,
        }
        alternate.write_json(args.json, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
