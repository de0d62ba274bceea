#!/usr/bin/env python3
"""Benchmark the induced-embedding search kernel.

Runs five induced-copy counting workloads on seeded random hosts and
prints, per workload, the search expansions, the best wall time over the
repeats and the nanoseconds per expansion.  The expansions are fixed by
the search tree (tests/test_hotpath.py pins them on these hosts), so the
ns/expansion column shows the cost of each search node.

Usage: python benchmarks/bench_kernel.py [--repeats N]
"""

import argparse
import time

from sparsewitness.gnp import SamplerConfig, sample_gnp
from sparsewitness.hotpath import MODE_COUNT, MODE_COUNT_DOMINATING, embed_search
from sparsewitness.witness import build_W

WORKLOADS = [
    # (label, a, gamma, r, host n, host p, mode)
    ("P3 count, n=60", 1, 1, 4, 60, 0.25, MODE_COUNT),
    ("P3 count, n=120", 1, 1, 4, 120, 0.15, MODE_COUNT),
    ("W(a=2) count, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT),
    ("W(a=2) dominating, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING),
    ("W(a=2,g=1) count, n=30", 2, 1, 4, 30, 0.45, MODE_COUNT),
]


def run(pattern, host, mode, repeats):
    """Best wall time over the repeats and the expansions the search spent."""
    best = float("inf")
    expansions = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = embed_search(pattern, host, mode=mode, budget=10**9)
        best = min(best, time.perf_counter() - t0)
        expansions = res.expansions
    return best, expansions


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    header = f"{'workload':<28}{'expansions':>12}{'ms':>12}{'ns/exp':>14}"
    print(header)
    print("-" * len(header))
    for label, a, gamma, r, n, p, mode in WORKLOADS:
        pattern = build_W(a, gamma, r).graph
        host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
        best, expansions = run(pattern, host, mode, args.repeats)
        print(f"{label:<28}{expansions:>12}{best * 1e3:>10.2f}ms"
              f"{best * 1e9 / max(expansions, 1):>14.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
