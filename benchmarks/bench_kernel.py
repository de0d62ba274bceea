#!/usr/bin/env python3
"""Benchmark the induced-embedding search kernel.

Runs five induced-copy counting workloads and three find workloads on
seeded random hosts and prints two rows per workload, both in the default
order ``hotpath.search_order(pattern)``: the labeled search straight from
the kernel, which visits every embedding, and ``embed_search``, whose count and find modes visit one embedding per
automorphism class where a condition bounds a depth before the last (its
expansions include the stabilizer chain's, which is cached after the
first call).  The host of the W(3) find workloads has no copy, so those
searches walk their whole tree.  Each row has the count, the expansions,
the best wall time over the repeats and the nanoseconds per expansion.
The expansions are fixed by the search tree (tests/test_hotpath.py pins
both rows of the count workloads on these hosts), so the ns/expansion
column shows the cost of each search node.  Both rows must report the
same count.

--json PATH also writes the rows, the backend and os.cpu_count() as one
JSON record.

Usage: python benchmarks/bench_kernel.py [--repeats N] [--json PATH]
"""

import argparse
import json
import os
import sys
import time

import alternate

# Import the package beside this script, as the alternating benchmarks do.
sys.path.insert(0, str(alternate.SRC))

from sparsewitness.gnp import SamplerConfig, sample_gnp
from sparsewitness.hotpath import (
    BACKEND,
    MODE_COUNT,
    MODE_COUNT_DOMINATING,
    MODE_FIND,
    MODE_FIND_DOMINATING,
    _pure,
    base_masks,
    embed_search,
    search_order,
    stabilizer_chain,
)
from sparsewitness.witness import build_W

WORKLOADS = [
    # (label, a, gamma, r, host n, host p, mode)
    ("P3 count, n=60", 1, 1, 4, 60, 0.25, MODE_COUNT),
    ("P3 count, n=120", 1, 1, 4, 120, 0.15, MODE_COUNT),
    ("W(a=2) count, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT),
    ("W(a=2) dominating, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING),
    ("W(a=2,g=1) count, n=30", 2, 1, 4, 30, 0.45, MODE_COUNT),
    ("W(a=2) find, n=40", 2, 0, 4, 40, 0.35, MODE_FIND),
    ("W(a=3) find, n=40", 3, 0, 4, 40, 0.35, MODE_FIND),
    ("W(a=3) find-dominating, n=40", 3, 0, 4, 40, 0.35, MODE_FIND_DOMINATING),
]


def labeled(pattern, host, mode):
    _, count, expansions, _ = _pure.search(
        pattern.bits, host.bits, search_order(pattern), base_masks(pattern, host),
        mode, 10**9,
    )
    return count, expansions


def embedded(pattern, host, mode):
    res = embed_search(pattern, host, mode=mode, budget=10**9)
    return res.count, res.expansions


SEARCHES = [("labeled", labeled), ("embed_search", embedded)]


def run(search, pattern, host, mode, repeats):
    """Best wall time over the repeats, with the count and expansions."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        count, expansions = search(pattern, host, mode)
        best = min(best, time.perf_counter() - t0)
    return best, count, expansions


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", metavar="PATH", help="also write the rows as JSON")
    args = ap.parse_args()

    header = (f"{'workload':<32}{'search':<17}{'count':>8}{'expansions':>12}"
              f"{'ms':>12}{'ns/exp':>10}")
    print(header)
    print("-" * len(header))
    rows = []
    for label, a, gamma, r, n, p, mode in WORKLOADS:
        pattern = build_W(a, gamma, r).graph
        host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
        # Derive the conditions once, outside the timed searches.
        automorphisms = stabilizer_chain(pattern)[1]
        counts = set()
        for name, search in SEARCHES:
            best, count, expansions = run(search, pattern, host, mode, args.repeats)
            counts.add(count)
            ns = best * 1e9 / max(expansions, 1)
            print(f"{label:<32}{name:<17}{count:>8}{expansions:>12}"
                  f"{best * 1e3:>10.2f}ms{ns:>10.1f}")
            rows.append({
                "workload": label, "search": name, "automorphisms": automorphisms,
                "count": count, "expansions": expansions, "ms": best * 1e3,
                "ns_per_expansion": ns,
            })
        if len(counts) != 1:
            raise SystemExit(f"{label}: labeled and embed_search counts differ")
    if args.json:
        record = {
            "script": "benchmarks/bench_kernel.py", "repeats": args.repeats,
            "backend": BACKEND, "cpu_count": os.cpu_count(), "rows": rows,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
