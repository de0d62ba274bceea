"""Shared fixtures, graph helpers and the acceptance-summary reporter.

tests/test_acceptance.py registers one line per acceptance criterion in
ACCEPTANCE_LINES; this hook prints them at the end of the run so each
criterion's pass/fail status is visible regardless of capture settings.
The graph helpers (small named graphs, seeded random graphs and the
Monte Carlo grid's trial hosts) have this one home; test modules import
them from conftest.
"""

import itertools
import random

import pytest

from sparsewitness.gnp import SamplerConfig, derive_stream, sample_gnp
from sparsewitness.graphs import Graph

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def small_gnp(n: int, p: float, seed: int, stream: int = 0):
    return sample_gnp(SamplerConfig(n=n, p=p, seed=seed, stream=stream))


def mc_grid_host(n: int, seed: int, trial: int):
    """The host of one Monte Carlo grid trial: G(n, n^-0.3) on the
    trial's stream."""
    return small_gnp(n, n ** -0.3, seed, derive_stream(seed, trial))


def random_graph(n: int, p: float, rnd: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < p]
    return Graph(n, edges)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n
