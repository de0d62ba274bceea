"""Alternating rounds shared by the before/after benchmark scripts.

A script run with ``--child`` times one round in its own interpreter and
prints the round as one JSON line.  ``run_rounds`` starts those rounds in
fresh interpreters, alternating between the package under ``--before SRC``
(a ``src`` directory, say of a clone of an earlier commit) and the one
beside the scripts, so both are timed by the same code on the same
machine.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
    done = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def write_json(path, record):
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
