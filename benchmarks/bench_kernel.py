#!/usr/bin/env python3
"""Benchmark the compiled search kernel against the pure-Python fallback.

Runs induced-copy counting workloads on seeded random hosts and prints a
table of search expansions, per-backend timings and nanoseconds per
expansion, plus the speedup.  The backends must agree exactly on count,
expansions and budget flag; the script aborts if they do not.  With only
the pure backend built, the ns/expansion column still shows kernel changes.

Usage: python benchmarks/bench_kernel.py [--repeats N]
"""

import argparse
import time

from sparsewitness.gnp import SamplerConfig, sample_gnp
from sparsewitness.hotpath import MODE_COUNT, MODE_COUNT_DOMINATING, available_backends, embed_search
from sparsewitness.witness import build_W

WORKLOADS = [
    # (label, a, gamma, r, host n, host p, mode)
    ("P3 count, n=60", 1, 1, 4, 60, 0.25, MODE_COUNT),
    ("P3 count, n=120", 1, 1, 4, 120, 0.15, MODE_COUNT),
    ("W(a=2) count, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT),
    ("W(a=2) dominating, n=40", 2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING),
    ("W(a=2,g=1) count, n=30", 2, 1, 4, 30, 0.45, MODE_COUNT),
]


def run(pattern, host, mode, backend, repeats):
    """Best wall time over the repeats and the (count, expansions, exceeded)
    the search reported."""
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = embed_search(pattern, host, mode=mode, backend=backend,
                           budget=10**9)
        best = min(best, time.perf_counter() - t0)
        outcome = (res.count, res.expansions, res.exceeded)
    return best, outcome


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    backends = available_backends()
    if backends == ["pure"]:
        print("compiled backend unavailable; benchmarking pure only")
    header = f"{'workload':<28}{'expansions':>12}" + "".join(
        f"{b + ' ms':>12}{b + ' ns/exp':>14}" for b in backends
    )
    if len(backends) > 1:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for label, a, gamma, r, n, p, mode in WORKLOADS:
        pattern = build_W(a, gamma, r).graph
        host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
        times, outcomes = {}, {}
        for b in backends:
            times[b], outcomes[b] = run(pattern, host, mode, b, args.repeats)
        if len(set(outcomes.values())) != 1:
            raise SystemExit(
                f"backend disagreement on {label} (count, expansions, exceeded): {outcomes}"
            )
        expansions = outcomes[backends[0]][1]
        row = f"{label:<28}{expansions:>12}" + "".join(
            f"{times[b] * 1e3:>10.2f}ms{times[b] * 1e9 / max(expansions, 1):>14.1f}"
            for b in backends
        )
        if len(backends) > 1:
            row += f"{times['pure'] / times['cython']:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
