"""Alternating rounds shared by the before/after benchmark scripts.

A script run with ``--child`` times one round in its own interpreter and
prints the round as one JSON line.  ``run_rounds`` starts those rounds in
fresh interpreters, alternating between the package under ``--before SRC``
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside the scripts, so both are timed by the same code on the same
machine.  ``time_groups`` and ``group_main`` are the child and the parent
of scripts that time groups of calls and compare a digest of what the
calls return.  A round's speed on a shared machine can fall into a slow
mode, so each side reports its fastest round next to its median.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# What a time_groups round records besides its groups.
META = ("backend", "numpy")


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--before", metavar="SRC", help="also time the package under SRC")
    ap.add_argument("--json", metavar="PATH", help="also write the record as JSON")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args()


def round_in(script, src):
    """Run one round of ``script`` in a fresh interpreter importing from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(script), "--child"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_rounds(script, before, rounds):
    """Returns ({side: src}, {side: [round, ...]}), sides "before" (when
    ``before`` is given) and "after"."""
    trees = {"after": SRC}
    if before:
        trees = {"before": Path(before).resolve(), "after": SRC}
    out = {side: [] for side in trees}
    for i in range(rounds):
        # Alternate which tree runs first, so drift in the host's speed
        # falls on both sides.
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for side in order:
            out[side].append(round_in(script, trees[side]))
    return trees, out


def commit_of(src):
    """The short commit of the git checkout holding ``src``; exits with an
    error naming ``src`` when it is in none, since a record must say what
    it compared against."""
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"--before {src}: not in a git checkout "
                         f"({done.stderr.strip()}); clone the commit to compare against")
    return done.stdout.strip()


def write_json(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def time_groups(groups, passes):
    """One round over groups, a list of (label, [(function, args, kwargs),
    ...], summary).  Each group runs once to warm up, then ``passes``
    times; the group's row is its median pass in microseconds per call
    and a sha256 over repr(summary(result)) of every call.  Prints the
    round as one JSON line with the kernel backend and the numpy version."""
    import numpy as np

    from sparsewitness import hotpath

    out = {"backend": hotpath.BACKEND, "numpy": np.__version__}
    for label, calls, summary in groups:
        for fn, args, kwargs in calls:  # warm imports and lazy set-up
            fn(*args, **kwargs)
        times = []
        for _ in range(passes):
            t0 = time.perf_counter()
            results = [fn(*args, **kwargs) for fn, args, kwargs in calls]
            times.append((time.perf_counter() - t0) / len(calls) * 1e6)
        digest = hashlib.sha256()
        for res in results:
            digest.update(repr(summary(res)).encode())
        out[label] = {"us": statistics.median(times), "calls": len(calls),
                      "sha256": digest.hexdigest()}
    print(json.dumps(out))


def group_main(script, child, passes):
    """The parent side of a ``time_groups`` script: run the rounds, print
    one table row per group and side with its median and fastest round,
    abort if the trees' digests differ, and write the --json record."""
    args = parse_args()
    if args.child:
        child()
        return 0

    # Checked before the rounds, so a --before outside a checkout fails fast.
    before_commit = commit_of(args.before) if args.before and args.json else None
    trees, rounds = run_rounds(script, args.before, args.rounds)

    header = (f"{'group':<26}{'side':<8}{'median us/call':>15}{'min us/call':>12}"
              "  rounds (us/call)")
    print(header)
    print("-" * len(header))
    rows = []
    labels = [k for k in rounds["after"][0] if k not in META]
    for label in labels:
        digests = {r[label]["sha256"] for side in trees for r in rounds[side]}
        if len(digests) != 1:
            raise SystemExit(f"{label}: the trees return different outputs")
        row = {"group": label, "calls_per_pass": rounds["after"][0][label]["calls"],
               "sha256": digests.pop()}
        for side in trees:
            us = [r[label]["us"] for r in rounds[side]]
            row[side] = {"median_us": statistics.median(us), "min_us": min(us),
                         "rounds_us": us}
            print(f"{label:<26}{side:<8}{statistics.median(us):>15.1f}{min(us):>12.1f}  "
                  + " ".join(f"{x:.1f}" for x in us))
        if "before" in row:
            row["after_over_before"] = row["after"]["median_us"] / row["before"]["median_us"]
            row["after_over_before_min"] = row["after"]["min_us"] / row["before"]["min_us"]
        rows.append(row)
    if args.json:
        record = {
            "script": f"benchmarks/{Path(script).name}", "rounds": args.rounds,
            "passes": passes, "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            **{key: {side: rounds[side][0][key] for side in trees} for key in META},
            "before_commit": before_commit,
            "rows": rows,
        }
        write_json(args.json, record)
    return 0
