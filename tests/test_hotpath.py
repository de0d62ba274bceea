"""The induced-embedding search kernel against the reference oracle.

Every mode is checked against ``graphs.induced_embeddings`` (filtered by
``is_dominating`` in the dominating modes), on fixed and hypothesis-drawn
instances and at the exact budget boundary; pinned counters fix the
search tree on seeded hosts.  Tests that take ``backend`` run on each name
``available_backends()`` lists.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewitness import gnp
from sparsewitness.gnp import SamplerConfig, sample_gnp
from sparsewitness.graphs import Graph, induced_embeddings, is_dominating
from sparsewitness.hotpath import (
    BACKEND,
    MODE_COLLECT,
    MODE_COUNT,
    MODE_COUNT_DOMINATING,
    MODE_FIND,
    MODE_FIND_DOMINATING,
    available_backends,
    default_order,
    embed_search,
)
from sparsewitness.witness import build_W, build_W_star

BACKENDS = available_backends()
MODES = [MODE_FIND, MODE_COUNT, MODE_COLLECT, MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING]


def random_graph(n, p, rnd):
    edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < p]
    return Graph(n, edges)


def test_active_backend_is_listed():
    assert "pure" in BACKENDS
    assert BACKEND in BACKENDS


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_matches_oracle_on_random_instances(backend):
    rnd = random.Random(7)
    patterns = [
        Graph(3, [(0, 1), (1, 2)]),           # P_3
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # C_4
        Graph(4, [(0, 1), (0, 2), (0, 3)]),   # star
    ]
    for trial in range(40):
        host = random_graph(rnd.randint(4, 11), rnd.choice([0.2, 0.4, 0.6]), rnd)
        for pat in patterns:
            oracle = set(induced_embeddings(pat, host))
            res = embed_search(pat, host, mode=MODE_COLLECT, backend=backend)
            assert set(res.embeddings) == oracle
            cnt = embed_search(pat, host, mode=MODE_COUNT, backend=backend)
            assert cnt.count == len(oracle)
            found = embed_search(pat, host, mode=MODE_FIND, backend=backend)
            assert (found.count > 0) == bool(oracle)
            if found.embeddings:
                assert found.embeddings[0] in oracle


@pytest.mark.parametrize("backend", BACKENDS)
def test_dominating_modes_match_filtered_oracle(backend):
    rnd = random.Random(11)
    pat = Graph(3, [(0, 1), (1, 2)])
    for trial in range(30):
        host = random_graph(rnd.randint(4, 10), 0.4, rnd)
        oracle = [
            e for e in induced_embeddings(pat, host) if is_dominating(host, e)
        ]
        cnt = embed_search(pat, host, mode=MODE_COUNT_DOMINATING, backend=backend)
        assert cnt.count == len(oracle)
        found = embed_search(pat, host, mode=MODE_FIND_DOMINATING, backend=backend)
        assert (found.count > 0) == bool(oracle)
        if found.embeddings:
            assert is_dominating(host, found.embeddings[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_and_oversized_patterns(backend):
    # The empty assignment is a copy in every host, and a dominating one
    # only in the empty host.
    empty = Graph(0, [])
    big = Graph(5, [(0, 1)])
    for host in (Graph(0, []), Graph(3, [(0, 1)])):
        for mode in MODES:
            oracle = induced_embeddings(empty, host)
            if mode in (MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING):
                oracle = [e for e in oracle if is_dominating(host, e)]
            res = embed_search(empty, host, mode=mode, backend=backend)
            assert res.count == len(oracle)
            if mode in (MODE_COUNT, MODE_COUNT_DOMINATING):
                assert res.embeddings == []
            else:
                assert res.embeddings == oracle
            res = embed_search(big, host, mode=mode, backend=backend)
            assert (res.count, res.embeddings) == (0, [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_budget_reporting(backend):
    host = Graph(20, [(i, j) for i in range(20) for j in range(i + 1, 20)])
    pat = Graph(3, [(0, 1), (0, 2), (1, 2)])
    res = embed_search(pat, host, mode=MODE_COUNT, backend=backend, budget=10)
    assert res.exceeded
    assert res.expansions > 10


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_is_rejected(backend, limit):
    host = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    pat = Graph(2, [(0, 1)])
    for mode in MODES:
        with pytest.raises(ValueError, match="limit"):
            embed_search(pat, host, mode=mode, limit=limit, backend=backend)


def test_unknown_backend_is_rejected():
    host = Graph(3, [(0, 1)])
    pat = Graph(2, [(0, 1)])
    for name in ("cython", "other"):
        with pytest.raises(ValueError, match=f"backend '{name}'; available: pure"):
            embed_search(pat, host, backend=name)


def test_default_order_breaks_degree_ties_by_index():
    # Neighbours of equal degree are queued in ascending vertex index.
    assert default_order(build_W_star(2, 2, 2).graph) == [
        7, 6, 26, 33, 35, 37, 39, 5, 24, 29, 31, 25, 34, 36, 38, 40, 22, 27, 23, 30,
        32, 4, 11, 12, 13, 14, 21, 28, 3, 9, 10, 2, 20, 8, 18, 16, 19, 17, 15, 1, 0,
    ]


def test_collect_limit():
    host = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    pat = Graph(2, [(0, 1)])
    res = embed_search(pat, host, mode=MODE_COLLECT, limit=4)
    assert len(res.embeddings) == 4


# (count, expansions) of the complete search, pinned from the kernel that
# walked the search tree one candidate at a time.  Any kernel must visit the
# same nodes in the same order, so these stay exact at every budget.
PINNED_BENCH = [
    # (a, gamma, r, host n, host p, mode, count, expansions); the hosts
    # are those of benchmarks/bench_kernel.py (seed 2024, default order).
    pytest.param(1, 1, 4, 60, 0.25, MODE_COUNT, 11150, 12182, id="P3-count-n60"),
    pytest.param(1, 1, 4, 120, 0.15, MODE_COUNT, 32916, 35204, id="P3-count-n120"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT, 21600, 328268, id="W2-count-n40"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING, 5520, 328268,
                 id="W2-dominating-n40"),
    pytest.param(2, 1, 4, 30, 0.45, MODE_COUNT, 0, 78068, id="W2g1-count-n30"),
]
PINNED_MC_GRID = [
    # (n, experiment seed, trial, count, expansions): one trial host of
    # the Monte Carlo grid at alpha = 0.3, searched for W(2), gamma = 0,
    # r = 4 in count-dominating mode from the tree root.
    pytest.param(25, 7, 1, 480, 14823, id="n25"),
    pytest.param(40, 7, 0, 480, 262536, id="n40"),
]


def _assert_pinned(pattern, host, mode, order, backend, count, expansions):
    for budget in (expansions - 1, expansions, expansions + 1):
        res = embed_search(pattern, host, mode=mode, order=order, budget=budget,
                           backend=backend)
        exceeded = budget < expansions
        assert (res.count, res.expansions, res.exceeded) == (count, expansions, exceeded)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("a, gamma, r, n, p, mode, count, expansions", PINNED_BENCH)
def test_pinned_counters_bench_kernel_hosts(backend, a, gamma, r, n, p, mode, count,
                                            expansions):
    pattern = build_W(a, gamma, r).graph
    host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
    _assert_pinned(pattern, host, mode, None, backend, count, expansions)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, seed, trial, count, expansions", PINNED_MC_GRID)
def test_pinned_counters_mc_grid_hosts(backend, n, seed, trial, count, expansions):
    ws = build_W(2, 0, 4)
    host = sample_gnp(SamplerConfig(
        n=n, p=n ** -0.3, seed=seed, stream=gnp.derive_stream(seed, trial)
    ))
    order = default_order(ws.graph, start=ws.f2[0])
    _assert_pinned(ws.graph, host, MODE_COUNT_DOMINATING, order, backend, count,
                   expansions)


@st.composite
def search_instances(draw):
    n_p = draw(st.integers(0, 5))
    pattern = Graph(n_p, [
        e for e in itertools.combinations(range(n_p), 2) if draw(st.booleans())
    ])
    n_h = draw(st.integers(0, 11))
    pairs = list(itertools.combinations(range(n_h), 2))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    host = Graph(n_h, [e for e in pairs if rnd.random() < p])
    order = draw(st.permutations(range(n_p)))
    return pattern, host, list(order)


@settings(max_examples=300, deadline=None)
@given(search_instances(), st.sampled_from(MODES), st.sampled_from([None, 1, 3]))
def test_kernel_matches_oracle_at_budget_boundary(instance, mode, limit):
    pattern, host, order = instance
    oracle = induced_embeddings(pattern, host)
    if mode in (MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING):
        oracle = [e for e in oracle if is_dominating(host, e)]
    oracle_set = set(oracle)
    exact = embed_search(pattern, host, mode=mode, order=order, limit=limit,
                         budget=10**9)
    assert not exact.exceeded
    expected = len(oracle)
    if mode in (MODE_FIND, MODE_FIND_DOMINATING):
        expected = min(expected, 1)
    elif mode == MODE_COLLECT and limit is not None:
        expected = min(expected, limit)
    assert exact.count == expected
    if mode in (MODE_COUNT, MODE_COUNT_DOMINATING):
        assert exact.embeddings == []
    else:
        assert len(exact.embeddings) == expected
        assert set(exact.embeddings) <= oracle_set
    if mode == MODE_COLLECT and limit is None:
        assert set(exact.embeddings) == oracle_set

    e = exact.expansions
    for budget in sorted({e // 2, max(e - 1, 0), e, e + 1}):
        res = embed_search(pattern, host, mode=mode, order=order, limit=limit,
                           budget=budget)
        if budget >= e:
            assert (res.count, res.expansions, res.exceeded) == (
                exact.count, e, False)
            assert res.embeddings == exact.embeddings
        else:
            assert res.exceeded
            if mode == MODE_COUNT:
                # The count-mode leaf batch charges all its leaves at once.
                assert res.expansions > budget
            else:
                # Every other search stops at the first expansion too many.
                assert res.expansions == budget + 1
            assert res.count <= exact.count
            assert res.embeddings == exact.embeddings[: len(res.embeddings)]
