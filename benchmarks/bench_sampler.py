#!/usr/bin/env python3
"""Benchmark the seeded G(n, p) sampler.

Times ``sample_gnp`` per call on the two configurations of the perfbench
sample-cover workload: dense G(50, 0.2), which flips every pair, and
sparse G(2000, 0.002), which skips between edges with geometric gaps.  A
pass samples one graph per stream (2000 dense, 40 sparse streams, as one
sample-cover pass does).  A third configuration, the criterion-5a host
G(100, 100^-0.3), is dense with rows two 64-bit words wide (400 streams
per pass).  A fourth, the Monte Carlo grid's host G(25, 25^-0.3), skips
between edges and has rows of one word (2000 streams per pass).  A round
is one fresh interpreter that runs five passes per configuration and
reports the median pass, as microseconds per call, with a sha256 over
(n, m, rows) of its graphs (see ``alternate.time_groups``).

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees sample different graphs.

--json PATH also writes every round, the medians and fastest rounds, the
numpy version and os.cpu_count() as one JSON record.

Usage: python benchmarks/bench_sampler.py [--rounds N] [--before SRC] [--json PATH]
"""

import alternate

CONFIGS = [
    # (label, n, p, streams per pass)
    ("dense G(50, 0.2)", 50, 0.2, 2000),
    ("sparse G(2000, 0.002)", 2000, 0.002, 40),
    ("dense G(100, 100^-0.3)", 100, 100 ** -0.3, 400),
    ("sparse G(25, 25^-0.3)", 25, 25 ** -0.3, 2000),
]
SEED = 11
PASSES = 5


def groups():
    """(label, [(function, args, kwargs), ...], summary) per configuration."""
    from sparsewitness.gnp import SamplerConfig, sample_gnp

    return [
        (label,
         [(sample_gnp, (SamplerConfig(n=n, p=p, seed=SEED, stream=s),), {})
          for s in range(streams)],
         summary)
        for label, n, p, streams in CONFIGS
    ]


def summary(g):
    return g.n, g.m, g.bits


def child():
    """One round: time every configuration in this interpreter."""
    alternate.time_groups(groups(), PASSES)


if __name__ == "__main__":
    raise SystemExit(alternate.group_main(__file__, child, PASSES))
