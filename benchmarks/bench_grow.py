#!/usr/bin/env python3
"""Benchmark the grow-certify calls of the growth process and certificates.

Times, per call, the program calls that hold nearly all of the perfbench
grow-certify workload's time, with that workload's arguments:

* ``witness.process_run`` for (gamma, r) in {(0, 2), (1, 2), (1, 3)} at
  250, 500 and 1000 steps;
* ``witness.has_gamma_r_property`` at r = 2 on W*(1), W*(2) and the
  process stage one step past W*(2), for gamma in {1, 2} (criterion 8);
* ``analytics.sequence_part1(i, 0.3, 10)`` for i = 3..10 and
  ``sequence_part2(i, 0.6, 0.25, 4, 2)`` for i = 1..8;
* ``sequence_part2(i, 0.6, 0.25, 4, 4)`` for i = 1..4, the r = 4 rows
  whose integers reach 7 * 10^5 bits (not part of grow-certify);
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

import alternate

GRID = [round(10 ** (k / 4)) for k in range(8, 49)]
PASSES = 5


def groups():
    """(label, [(function, args, kwargs), ...], summary) for every timed
    group."""
    from sparsewitness import analytics, witness

    process = [(witness.process_run, (g, r, steps), {})
               for g, r in ((0, 2), (1, 2), (1, 3)) for steps in (250, 500, 1000)]
    parity = []
    for gamma in (1, 2):
        past = witness.process_init(gamma, 2)
        while past.graph.n <= witness.w_star_vertex_count(2, gamma, 2):
            past = witness.process_step(past)
        parity += [(witness.has_gamma_r_property, (g, gamma, 2), {})
                   for g in (witness.build_W_star(1, gamma, 2).graph,
                             witness.build_W_star(2, gamma, 2).graph, past.graph)]
    part1 = [(analytics.sequence_part1, (i, 0.3, 10), {}) for i in range(3, 11)]
    part2 = [(analytics.sequence_part2, (i, 0.6, 0.25, 4, 2), {}) for i in range(1, 9)]
    part2_r4 = [(analytics.sequence_part2, (i, 0.6, 0.25, 4, 4), {}) for i in range(1, 5)]
    window1 = [(analytics.window_report, (n, 0.3, 10), {}) for n in GRID]
    window2 = [(analytics.window_report, (n, 0.6, 4), {"r": 2, "mode": "part2", "beta": 0.25})
               for n in GRID]
    return [
        ("process_run", process, canon),
        ("has_gamma_r_property", parity, canon),
        ("sequence_part1", part1, canon),
        ("sequence_part2", part2, canon),
        ("sequence_part2 r=4", part2_r4, canon),
        ("window_report part1", window1, canon),
        ("window_report part2", window2, canon),
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
    alternate.time_groups(groups(), PASSES)


if __name__ == "__main__":
    raise SystemExit(alternate.group_main(__file__, child, PASSES))
