#!/usr/bin/env python3
"""Benchmark the cold start: ``import sparsewitness``, then a first sample.

A round is one fresh interpreter that has loaded only ``sys``, ``time``
and ``resource``.  It records the wall time of ``import sparsewitness``
and the peak resident set size (``ru_maxrss``) after it, then the same
for a first ``sample_gnp`` of dense G(50, 0.2), the first configuration
of the perfbench sample-cover workload.  It also records whether the
import loaded mpmath or concurrent.futures, and a sha256 over (n, m,
rows) of the sampled graph.

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees sample different graphs.

--json PATH also writes every round, the medians and os.cpu_count() as
one JSON record.

Usage: python benchmarks/bench_startup.py [--rounds N] [--before SRC] [--json PATH]
"""

import resource
import sys
import time

N, P, SEED = 50, 0.2, 11
METRICS = ("import_ms", "import_rss_mb", "first_sample_ms", "first_sample_rss_mb")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child():
    """One round: time and measure the import, then the first sample."""
    base_rss_mb = peak_rss_mb()
    t0 = time.perf_counter()
    import sparsewitness

    t1 = time.perf_counter()
    import_rss_mb = peak_rss_mb()
    loaded = sorted({"mpmath", "concurrent.futures"} & set(sys.modules))
    g = sparsewitness.sample_gnp(sparsewitness.SamplerConfig(n=N, p=P, seed=SEED))
    t2 = time.perf_counter()
    first_sample_rss_mb = peak_rss_mb()

    import hashlib
    import json

    print(json.dumps({
        "base_rss_mb": base_rss_mb,
        "import_ms": (t1 - t0) * 1e3,
        "import_rss_mb": import_rss_mb,
        "first_sample_ms": (t2 - t1) * 1e3,
        "first_sample_rss_mb": first_sample_rss_mb,
        "loaded_by_import": loaded,
        "sha256": hashlib.sha256(repr((g.n, g.m, g.bits)).encode()).hexdigest(),
    }))


def main():
    import os
    import statistics

    import alternate

    args = alternate.parse_args()
    # Checked before the rounds, so a --before outside a checkout fails fast.
    before_commit = alternate.commit_of(args.before) if args.before and args.json else None
    trees, rounds = alternate.run_rounds(__file__, args.before, args.rounds)
    if len({r["sha256"] for side in trees for r in rounds[side]}) != 1:
        raise SystemExit("the trees sample different graphs")

    header = f"{'metric':<22}{'side':<8}{'median':>10}{'min':>10}  rounds"
    print(header)
    print("-" * len(header))
    medians = {side: {} for side in trees}
    for metric in METRICS:
        for side in trees:
            values = [r[metric] for r in rounds[side]]
            medians[side][metric] = statistics.median(values)
            print(f"{metric:<22}{side:<8}{statistics.median(values):>10.2f}"
                  f"{min(values):>10.2f}  " + " ".join(f"{v:.2f}" for v in values))
    for side in trees:
        print(f"{side}: the import loaded {rounds[side][0]['loaded_by_import'] or 'neither'}"
              " of mpmath and concurrent.futures")
    if args.json:
        alternate.write_json(args.json, {
            "script": "benchmarks/bench_startup.py", "rounds": args.rounds,
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "sample": {"n": N, "p": P, "seed": SEED},
            "before_commit": before_commit,
            "medians": medians,
            "loaded_by_import": {side: rounds[side][0]["loaded_by_import"] for side in trees},
            "rounds_by_side": rounds,
        })
    return 0


if __name__ == "__main__":
    # A round is told apart before main imports alternate and with it
    # argparse, json and subprocess, which the package would then find
    # loaded.
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
