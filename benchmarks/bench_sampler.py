#!/usr/bin/env python3
"""Benchmark the seeded G(n, p) sampler.

Times ``sample_gnp`` per call on the two configurations of the perfbench
sample-cover workload: dense G(50, 0.2), which flips every pair, and
sparse G(2000, 0.002), which skips between edges with geometric gaps.  A
pass samples one graph per stream (2000 dense, 40 sparse streams, as one
sample-cover pass does).  A third configuration, the criterion-5a host
G(100, 100^-0.3), is dense with rows two 64-bit words wide (400 streams
per pass).  A round is one fresh interpreter that runs five
passes per configuration and reports the median pass, as microseconds
per call, with a sha256 over (n, m, rows) of its graphs.

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees sample different graphs.

--json PATH also writes every round, the medians and os.cpu_count() as
one JSON record.

Usage: python benchmarks/bench_sampler.py [--rounds N] [--before SRC] [--json PATH]
"""

import hashlib
import json
import os
import statistics
import sys
import time

import alternate

CONFIGS = [
    # (label, n, p, streams per pass)
    ("dense G(50, 0.2)", 50, 0.2, 2000),
    ("sparse G(2000, 0.002)", 2000, 0.002, 40),
    ("dense G(100, 100^-0.3)", 100, 100 ** -0.3, 400),
]
SEED = 11
PASSES = 5


def child():
    """One round: time every configuration in this interpreter."""
    import numpy as np

    from sparsewitness.gnp import SamplerConfig, sample_gnp

    out = {"numpy": np.__version__}
    for label, n, p, streams in CONFIGS:
        cfgs = [SamplerConfig(n=n, p=p, seed=SEED, stream=s) for s in range(streams)]
        sample_gnp(cfgs[0])  # warm caches and imports
        times = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            graphs = [sample_gnp(cfg) for cfg in cfgs]
            times.append((time.perf_counter() - t0) / streams * 1e6)
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(repr((g.n, g.m, g.bits)).encode())
        out[label] = {"us": statistics.median(times), "sha256": digest.hexdigest()}
    print(json.dumps(out))


def main() -> int:
    args = alternate.parse_args()
    if args.child:
        child()
        return 0

    trees, rounds = alternate.run_rounds(__file__, args.before, args.rounds)

    header = f"{'config':<24}{'side':<8}{'median us':>11}  rounds (us)"
    print(header)
    print("-" * len(header))
    rows = []
    for label, n, p, streams in CONFIGS:
        digests = {r[label]["sha256"] for side in trees for r in rounds[side]}
        if len(digests) != 1:
            raise SystemExit(f"{label}: the trees sample different graphs")
        row = {"config": label, "n": n, "p": p, "streams_per_pass": streams,
               "sha256": digests.pop()}
        for side in trees:
            us = [r[label]["us"] for r in rounds[side]]
            row[side] = {"median_us": statistics.median(us), "rounds_us": us}
            print(f"{label:<24}{side:<8}{statistics.median(us):>11.1f}  "
                  + " ".join(f"{x:.1f}" for x in us))
        if "before" in row:
            row["after_over_before"] = row["after"]["median_us"] / row["before"]["median_us"]
        rows.append(row)
    if args.json:
        record = {
            "script": "benchmarks/bench_sampler.py", "rounds": args.rounds,
            "passes": PASSES, "seed": SEED, "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": rounds["after"][0]["numpy"],
            "before_commit": alternate.commit_of(trees["before"]) if args.before else None,
            "rows": rows,
        }
        alternate.write_json(args.json, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
