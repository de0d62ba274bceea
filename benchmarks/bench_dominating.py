#!/usr/bin/env python3
"""Benchmark the dominating witness searches and the searches beside them.

Times, per call, these groups of ``detect`` calls:

* ``find_dominating_induced_W`` for W(2, 0, 4) = K_{2,5} in count mode on
  trial hosts of the Monte Carlo grid (alpha = 0.3, experiment seed 7):
  eight hosts at n = 15, eight at n = 25 and four at n = 40;
* ``find_induced_W`` for W(2, 0, 4) and W(3, 0, 4), find mode, on the
  four n = 40 grid hosts, G(40, 0.3) and G(60, 0.2) at seed 5;
* controls, ``find_dominating_induced_W`` in find and in count mode for
  W(2, 1, 4), W(2, 2, 4) and W(3, 0, 4) on the first n = 40 grid host,
  G(40, 0.3) and G(30, 0.4) at seed 5.  No depth of the first two
  search orders looks ahead, so the kernel's domination look-ahead
  never runs there; in W(3, 0, 4)'s only depths 19 to 21 do, where its
  last four leaves are twins;
* W(3, 0, 4) in count-dominating mode on two grid hosts at n = 60, where
  its search is expensive.  The pins of W(a >= 2, gamma = 0) change
  W(3, 0, 4)'s tree, and this group and the W(3, 0, 4) controls show it
  on sparse and on dense hosts.

A round is one fresh interpreter that runs every group once to warm up,
then five passes, and reports each group's median pass as microseconds
per call, with a sha256 over the outcome, count and expansions of every
call.  The embedding a find search returns is left out: it depends on
the search order.

With --before SRC the rounds alternate between the package under SRC
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside this script, so both are timed by the same code on the same
machine.  The script aborts if the two trees return different outcomes
or spend different expansions, so any change to a search tree shows.

--json PATH also writes every round, the medians, the kernel backend and
os.cpu_count() as one JSON record.

Usage: python benchmarks/bench_dominating.py [--rounds N] [--before SRC] [--json PATH]
"""

import alternate

SEED = 7
ALPHA = 0.3
GRID_TRIALS = {15: 8, 25: 8, 40: 4, 60: 2}
PASSES = 5


def groups():
    """(label, [(function, args, kwargs), ...], summary) for every timed
    group."""
    from sparsewitness import detect, gnp

    def grid_host(n, trial):
        return gnp.sample_gnp(gnp.SamplerConfig(
            n=n, p=n ** -ALPHA, seed=SEED, stream=gnp.derive_stream(SEED, trial)))

    def gnp_host(n, p):
        return gnp.sample_gnp(gnp.SamplerConfig(n=n, p=p, seed=5))

    grid = {n: [grid_host(n, t) for t in range(trials)]
            for n, trials in GRID_TRIALS.items()}
    out = [
        (f"K25 count-dom grid n={n}",
         [(detect.find_dominating_induced_W, (g, 0, 4, (2, 2)), {"mode": "count"})
          for g in grid[n]],
         verdict)
        for n in (15, 25, 40)
    ]
    find_hosts = grid[40] + [gnp_host(40, 0.3), gnp_host(60, 0.2)]
    out += [
        (f"W({a},0,4) find", [(detect.find_induced_W, (g, a, 0, 4), {}) for g in find_hosts],
         verdict)
        for a in (2, 3)
    ]
    control_hosts = [grid[40][0], gnp_host(40, 0.3), gnp_host(30, 0.4)]
    out += [
        (f"W({a},{gamma},4) {mode}-dom",
         [(detect.find_dominating_induced_W, (g, gamma, 4, (a, a)), {"mode": mode})
          for g in control_hosts],
         verdict)
        for a, gamma in ((2, 1), (2, 2), (3, 0)) for mode in ("find", "count")
    ]
    out.append(("W(3,0,4) count-dom n=60",
                [(detect.find_dominating_induced_W, (g, 0, 4, (3, 3)), {"mode": "count"})
                 for g in grid[60]],
                verdict))
    return out


def verdict(res):
    return res.outcome, res.a, res.count, res.expansions


def child():
    """One round: time every group in this interpreter."""
    alternate.time_groups(groups(), PASSES)


if __name__ == "__main__":
    raise SystemExit(alternate.group_main(__file__, child, PASSES))
