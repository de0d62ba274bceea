"""The induced-embedding search kernel against the reference oracle.

Every mode is checked against ``graphs.induced_embeddings`` (filtered by
``is_dominating`` in the dominating modes), on fixed and hypothesis-drawn
instances and at the exact budget boundary; pinned counters fix the
search tree on seeded hosts, both the kernel's labeled one and the count
modes' symmetry-broken one, whose |Aut| is checked against
``graphs.automorphism_count``.  The symmetry-broken find modes and
collection with ``fixing`` are checked against the oracle grouped by
class key.  The dominating modes' look-ahead, the interchangeable-tail
rule, is checked against the oracle on seeded witness hosts and on drawn
patterns that end in twins.  Its tree is checked against the count
mode's: a subtree of it, and the whole tree in every order where no
depth looks ahead.  The depths that look ahead are decided by the
pattern, order and conditions alone; they are pinned for the witness
searches, and a tail of adjacent twins gets none.  ``search_order``, the
one order rule, is checked on drawn graphs and pins.  Tests that take
``backend`` run on each name ``available_backends()`` lists.
"""

import collections
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complete, connected, cycle, mc_grid_host, random_graph
from sparsewitness import detect
from sparsewitness.gnp import SamplerConfig, sample_gnp
from sparsewitness.graphs import (
    BudgetExceededError,
    Graph,
    automorphism_count,
    induced_embeddings,
    is_dominating,
)
from sparsewitness.hotpath import (
    BACKEND,
    MODE_COLLECT,
    MODE_COUNT,
    MODE_COUNT_DOMINATING,
    MODE_FIND,
    MODE_FIND_DOMINATING,
    _pure,
    available_backends,
    base_masks,
    embed_search,
    search_order,
    stabilizer_chain,
)
from sparsewitness.witness import build_W, build_W_star, has_gamma_r_property

BACKENDS = available_backends()
MODES = [MODE_FIND, MODE_COUNT, MODE_COLLECT, MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING]


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


def test_unknown_backend_is_rejected():
    host = Graph(3, [(0, 1)])
    pat = Graph(2, [(0, 1)])
    for name in ("cython", "other"):
        with pytest.raises(ValueError, match=f"backend '{name}'; available: pure"):
            embed_search(pat, host, backend=name)


def test_unknown_mode_is_rejected():
    host = Graph(5, [(i, i + 1) for i in range(4)])
    pat = Graph(3, [(0, 1), (1, 2)])
    for mode in (7, -1, None):
        with pytest.raises(ValueError, match="unknown mode"):
            embed_search(pat, host, mode=mode)


@pytest.mark.parametrize("order", [
    pytest.param([0, 0, 1], id="repeated"),
    pytest.param([0, 1], id="short"),
    pytest.param([0, 1, 2, 3], id="long"),
    pytest.param([0, 1, 3], id="out-of-range"),
])
def test_order_must_be_a_permutation(order):
    # P_3 in P_5: a repeated vertex used to count 6, a short order to
    # raise IndexError inside the search.
    host = Graph(5, [(i, i + 1) for i in range(4)])
    pat = Graph(3, [(0, 1), (1, 2)])
    for mode in MODES:
        with pytest.raises(ValueError, match="permutation"):
            embed_search(pat, host, mode=mode, order=order)


def test_search_order_breaks_ties_by_degree_then_index():
    # From the lowest-index vertex of maximum degree, each next vertex has
    # the most placed neighbours; among those the highest degree, then the
    # lowest index.
    assert search_order(build_W_star(2, 2, 2).graph) == [
        7, 6, 5, 22, 21, 2, 3, 4, 16, 15, 0, 1, 17, 18, 19, 20, 23, 24, 25, 26, 27,
        28, 8, 9, 10, 11, 12, 13, 14, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40,
    ]


@st.composite
def order_instances(draw):
    n = draw(st.integers(0, 9))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    pattern = Graph(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)
                  if n else st.just([]))
    return pattern, pinned


@settings(max_examples=200, deadline=None)
@given(order_instances())
def test_search_order_places_the_pins_then_the_most_bounded_vertex(instance):
    pattern, pinned = instance
    order = search_order(pattern, pinned)
    assert sorted(order) == list(range(pattern.n))
    assert order[:len(pinned)] == pinned
    for d in range(len(pinned), pattern.n):
        placed = sum(1 << v for v in order[:d])
        bound = [(pattern.bits[v] & placed).bit_count() for v in order]
        assert bound[d] == max(bound[d:])
        if d and connected(pattern):
            assert bound[d] > 0


# Breadth-first orders, by degree from a maximum-degree vertex or (the
# grid's) from the tree root f2[0].  The first pins below were taken in
# them; a given order searches the same tree, so they keep their values.
P3_BFS = [2, 0, 1]
W2_BFS = [1, 0, 3, 4, 5, 6, 2]
W2G1_BFS = [1, 0, 8, 9, 10, 11, 7, 3, 4, 5, 6, 2]
W2_ROOT_BFS = [2, 0, 3, 4, 5, 6, 1]

# (count, expansions, before) of the complete labeled search.  before is
# what the search spent without the domination look-ahead, pinned from the
# kernel that walked the search tree one candidate at a time.  The
# non-dominating modes still visit exactly those nodes, so there
# expansions equals before.  The dominating modes also skip subtrees whose
# open images cannot cover the host, so their tree can only shrink and
# before bounds it from above.  In the breadth-first orders no depth has
# an interchangeable tail, so nothing is skipped and expansions equals
# before again; the default order (order None, search_order) of K_{2,5},
# [1, 0, 2, 3, 4, 5, 6], has one from depth 2.  One budget short, a
# search stops at the same expansions and keeps the exact count, except
# where its last expansion completes a copy (SHORT_COUNTS).
PINNED_BENCH = [
    # (a, gamma, r, host n, host p, mode, order, count, expansions,
    # before); the hosts are those of benchmarks/bench_kernel.py (seed
    # 2024).
    pytest.param(1, 1, 4, 60, 0.25, MODE_COUNT, P3_BFS, 11150, 12182, 12182,
                 id="P3-count-n60"),
    pytest.param(1, 1, 4, 120, 0.15, MODE_COUNT, P3_BFS, 32916, 35204, 35204,
                 id="P3-count-n120"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT, W2_BFS, 21600, 328268, 328268,
                 id="W2-count-n40"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING, W2_BFS, 5520, 328268, 328268,
                 id="W2-dominating-n40"),
    pytest.param(2, 1, 4, 30, 0.45, MODE_COUNT, W2G1_BFS, 0, 78068, 78068,
                 id="W2g1-count-n30"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT, None, 21600, 115628, 115628,
                 id="W2-count-n40-default"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING, None, 5520, 28554, 115628,
                 id="W2-dominating-n40-default"),
    pytest.param(2, 1, 4, 30, 0.45, MODE_COUNT, None, 0, 55590, 55590,
                 id="W2g1-count-n30-default"),
]
PINNED_MC_GRID = [
    # (n, experiment seed, trial, count, expansions, before): one trial
    # host of the Monte Carlo grid at alpha = 0.3, searched for W(2),
    # gamma = 0, r = 4 in count-dominating mode in W2_ROOT_BFS (the grid
    # itself places f1[1] second, see detect._pattern_order).
    pytest.param(25, 7, 1, 480, 14823, 14823, id="n25"),
    pytest.param(40, 7, 0, 480, 262536, 262536, id="n40"),
]
# The same hosts searched by embed_search, whose expansions are the
# stabilizer chain's (3 for P_3; 77 for W(2) = K_{2,5}; 277 for W(2, 1, 4)
# in W2G1_BFS, 289 in its default order) plus the search's, and before
# again is their sum without the look-ahead.  P_3's only condition bounds
# the last depth, so it is searched labeled; the W patterns (|Aut| = 240)
# one embedding per class.  W(2, 1, 4) spends more in its default order
# than in W2G1_BFS: there the chain's conditions bound later depths.
PINNED_BENCH_COUNT_MODE = [
    pytest.param(1, 1, 4, 60, 0.25, MODE_COUNT, P3_BFS, 11150, 3 + 12182, 3 + 12182,
                 id="P3-count-n60"),
    pytest.param(1, 1, 4, 120, 0.15, MODE_COUNT, P3_BFS, 32916, 3 + 35204, 3 + 35204,
                 id="P3-count-n120"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT, W2_BFS, 21600, 77 + 13243, 77 + 13243,
                 id="W2-count-n40"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING, W2_BFS, 5520, 77 + 13243,
                 77 + 13243, id="W2-dominating-n40"),
    pytest.param(2, 1, 4, 30, 0.45, MODE_COUNT, W2G1_BFS, 0, 277 + 5019, 277 + 5019,
                 id="W2g1-count-n30"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT, None, 21600, 77 + 10910, 77 + 10910,
                 id="W2-count-n40-default"),
    pytest.param(2, 0, 4, 40, 0.35, MODE_COUNT_DOMINATING, None, 5520, 77 + 3619,
                 77 + 10910, id="W2-dominating-n40-default"),
    pytest.param(2, 1, 4, 30, 0.45, MODE_COUNT, None, 0, 289 + 22432, 289 + 22432,
                 id="W2g1-count-n30-default"),
]
PINNED_MC_GRID_COUNT_MODE = [
    pytest.param(25, 7, 1, 480, 77 + 1762, 77 + 1762, id="n25"),
    pytest.param(40, 7, 0, 480, 77 + 10467, 77 + 10467, id="n40"),
]
# The grid hosts searched by embed_search in count-dominating mode in
# detect's order, the one the grid searches (f1[1] second).  There the
# five leaves of K_{2,5} are an interchangeable tail from depth 1 on, so
# before is what the search spent without the tail rule.  The chain costs
# 77 expansions in this order too.
PINNED_MC_GRID_DETECT_ORDER = [
    pytest.param(15, 7, 0, 0, 77 + 60, 77 + 215, id="n15"),
    pytest.param(25, 7, 1, 480, 77 + 273, 77 + 739, id="n25"),
    pytest.param(40, 7, 0, 480, 77 + 716, 77 + 1366, id="n40"),
]


def _kernel(pattern, host, mode, order, budget):
    """The labeled search, straight from the kernel (no conditions)."""
    order = search_order(pattern) if order is None else order
    _, count, expansions, exceeded = _pure.search(
        pattern.bits, host.bits, order, base_masks(pattern, host), mode, budget,
    )
    return count, expansions, exceeded


def _embed(pattern, host, mode, order, budget):
    res = embed_search(pattern, host, mode=mode, order=order, budget=budget)
    return res.count, res.expansions, res.exceeded


# (a, host n): the count at budget expansions - 1 where it is below the
# exact count.  The last expansion of both P_3 counts completes a copy,
# which the stopped search has not paid for.
SHORT_COUNTS = {(1, 60): 11149, (1, 120): 32915}


def _assert_pinned(search, pattern, host, mode, order, count, expansions, before,
                   short_count=None):
    assert expansions <= before
    assert search(pattern, host, mode, order, expansions - 1) == (
        count if short_count is None else short_count, expansions, True)
    for budget in (expansions, expansions + 1):
        assert search(pattern, host, mode, order, budget) == (count, expansions, False)


# ``backend`` names the kernel in ``_pure``, the one backend.
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("a, gamma, r, n, p, mode, order, count, expansions, before",
                         PINNED_BENCH)
def test_pinned_counters_bench_kernel_hosts(backend, a, gamma, r, n, p, mode, order, count,
                                            expansions, before):
    pattern = build_W(a, gamma, r).graph
    host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
    _assert_pinned(_kernel, pattern, host, mode, order, count, expansions, before,
                   short_count=SHORT_COUNTS.get((a, n)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, seed, trial, count, expansions, before", PINNED_MC_GRID)
def test_pinned_counters_mc_grid_hosts(backend, n, seed, trial, count, expansions, before):
    ws = build_W(2, 0, 4)
    _assert_pinned(_kernel, ws.graph, mc_grid_host(n, seed, trial),
                   MODE_COUNT_DOMINATING, W2_ROOT_BFS, count, expansions, before)


@pytest.mark.parametrize("a, gamma, r, n, p, mode, order, count, expansions, before",
                         PINNED_BENCH_COUNT_MODE)
def test_pinned_count_mode_counters_bench_kernel_hosts(a, gamma, r, n, p, mode, order,
                                                       count, expansions, before):
    pattern = build_W(a, gamma, r).graph
    host = sample_gnp(SamplerConfig(n=n, p=p, seed=2024))
    _assert_pinned(_embed, pattern, host, mode, order, count, expansions, before,
                   short_count=SHORT_COUNTS.get((a, n)))


@pytest.mark.parametrize("n, seed, trial, count, expansions, before",
                         PINNED_MC_GRID_COUNT_MODE)
def test_pinned_symmetry_broken_counters_mc_grid_hosts(n, seed, trial, count,
                                                       expansions, before):
    ws = build_W(2, 0, 4)
    _assert_pinned(_embed, ws.graph, mc_grid_host(n, seed, trial),
                   MODE_COUNT_DOMINATING, W2_ROOT_BFS, count, expansions, before)


@pytest.mark.parametrize("n, seed, trial, count, expansions, before",
                         PINNED_MC_GRID_DETECT_ORDER)
def test_pinned_counters_mc_grid_hosts_in_detect_order(n, seed, trial, count,
                                                       expansions, before):
    ws = build_W(2, 0, 4)
    _assert_pinned(_embed, ws.graph, mc_grid_host(n, seed, trial),
                   MODE_COUNT_DOMINATING, detect._pattern_order(ws), count, expansions,
                   before)


def test_derivation_over_budget_is_reported_not_raised():
    # The chain of K_{2,5} costs 77 expansions.  Below that no budget is
    # left for the search: the count modes report it exceeded, whether or
    # not the chain is cached.  The reversed order is used nowhere else, so
    # the first call here derives it.
    ws = build_W(2, 0, 4)
    host = mc_grid_host(25, 7, 1)
    order = list(range(ws.graph.n))[::-1]
    for budget in (0, 40, 76, 10**9, 76):
        for mode in (MODE_COUNT, MODE_COUNT_DOMINATING):
            res = embed_search(ws.graph, host, mode=mode, order=order, budget=budget)
            if budget < 77:
                assert (res.count, res.expansions, res.exceeded) == (0, budget + 1, True)
            else:
                assert res.count == _kernel(ws.graph, host, mode, order, 10**9)[0]
                assert not res.exceeded
        if budget < 77:
            with pytest.raises(BudgetExceededError):
                stabilizer_chain(ws.graph, order, budget=budget)
        else:
            assert stabilizer_chain(ws.graph, order, budget=budget)[1:] == (240, 77)
    res = detect.find_dominating_induced_W(host, 0, 4, (2, 2), mode="count", budget=76)
    assert (res.outcome, res.count, res.expansions) == ("budget_exceeded", 0, 77)


def test_negative_budget_is_rejected_at_the_kernel_entry():
    # Every caller inherits the check, so detect, logic and the command
    # line report a negative budget as bad input, never as a search that
    # ran out of budget.  A budget of 0 is still a search.
    ws = build_W(2, 0, 4)
    host = mc_grid_host(25, 7, 1)
    for mode in MODES:
        with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
            embed_search(ws.graph, host, mode=mode, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        induced_embeddings(ws.graph, host, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -5"):
        detect.find_induced_W(host, 1, 0, 4, budget=-5)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        detect.find_dominating_induced_W(host, 0, 4, (1, 2), mode="count", budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        # No W*(a) fits K_{2,3}, so no search would run.
        has_gamma_r_property(build_W(2, 0, 2).graph, 0, 2, budget=-1)
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        stabilizer_chain(ws.graph, budget=-1)
    res = embed_search(ws.graph, host, mode=MODE_COUNT_DOMINATING, budget=0)
    assert (res.count, res.expansions, res.exceeded) == (0, 1, True)
    with pytest.raises(BudgetExceededError):
        induced_embeddings(ws.graph, host, budget=0)


def _planted_host(pattern, n, p, seed):
    """A host on n vertices whose first pattern.n induce the pattern, every
    other pair an edge with probability p: at p = 1/2 the planted copy
    often dominates."""
    rnd = random.Random(seed)
    edges = list(pattern.edges()) + [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if v >= pattern.n and rnd.random() < p
    ]
    return Graph(n, edges)


# Hosts by name, each built for the pattern searched: the Monte Carlo
# grid's trial hosts at n = 15, 25 and 40, a G(22, 0.4) with 720
# dominating K_{2,5} embeddings, and a planted host.
LOOKAHEAD_HOSTS = {
    "mc15": lambda pattern: mc_grid_host(15, 7, 0),
    "mc25": lambda pattern: mc_grid_host(25, 7, 1),
    "mc40": lambda pattern: mc_grid_host(40, 7, 0),
    "gnp22": lambda pattern: sample_gnp(SamplerConfig(n=22, p=0.4, seed=1)),
    "planted20": lambda pattern: _planted_host(pattern, 20, 0.5, 20),
}
# Of these orders only detect's and the default one for W(2) = K_{2,5},
# which place the leaves after both hubs, have a look-ahead depth:
# elsewhere no depth has an interchangeable tail, and neither has K_{2,5}
# in W2_BFS, which places a hub last.  W(1, 2, 4) is the path P_4.  The oracle is too
# slow for W(2, 1, 4) at n = 40.
LOOKAHEAD_CASES = [
    pytest.param((a, gamma, 4), host, id=f"W{a}g{gamma}-{host}")
    for host in LOOKAHEAD_HOSTS
    for a, gamma in [(1, 0), (2, 0), (2, 1), (1, 2)]
    if not (host == "mc40" and (a, gamma) == (2, 1))
]


@pytest.mark.parametrize("params, host", LOOKAHEAD_CASES)
def test_domination_lookahead_matches_oracle(params, host):
    # The look-ahead only skips subtrees with no dominating leaf, so both
    # dominating modes agree with the oracle, in the order detect searches
    # and in the default order, labeled and symmetry-broken.  Each search
    # spends at most what the count-mode search of the same tree spends,
    # exactly as much where the order has no look-ahead depth, and stops
    # at the first expansion over the budget.
    ws = build_W(*params)
    host = LOOKAHEAD_HOSTS[host](ws.graph)
    oracle = [e for e in induced_embeddings(ws.graph, host) if is_dominating(host, e)]
    k25 = params == (2, 0, 4)
    orders = [(detect._pattern_order(ws), k25), (search_order(ws.graph), k25)]
    if k25:
        orders.append((W2_BFS, False))
    for order, look_ahead in orders:
        labeled = _kernel(ws.graph, host, MODE_COUNT_DOMINATING, order, 10**9)
        counted = _embed(ws.graph, host, MODE_COUNT_DOMINATING, order, 10**9)
        assert labeled[0] == counted[0] == len(oracle)
        for dominating, search in ((labeled, _kernel), (counted, _embed)):
            plain = search(ws.graph, host, MODE_COUNT, order, 10**9)[1]
            if look_ahead:
                assert dominating[1] <= plain
            else:
                assert dominating[1] == plain
        found = embed_search(ws.graph, host, mode=MODE_FIND_DOMINATING, order=order)
        assert found.count == min(len(oracle), 1)
        assert all(e in oracle for e in found.embeddings)
        for mode, exact in ((MODE_COUNT_DOMINATING, counted[:2]),
                            (MODE_FIND_DOMINATING, (found.count, found.expansions))):
            e = exact[1]
            for budget in (e - 1, e, e + 1):
                res = embed_search(ws.graph, host, mode=mode, order=order, budget=budget)
                if budget >= e:
                    assert (res.count, res.expansions, res.exceeded) == (*exact, False)
                else:
                    assert res.exceeded and res.expansions == budget + 1
                    assert res.count <= exact[0]


@st.composite
def twin_tail_instances(draw):
    # A random core, then two to four twins with one shared set of core
    # neighbours, mutually adjacent or not.  Searched core first, the
    # twins are an interchangeable tail; an order drawn whole may break
    # the tail up or end it with core vertices.
    n_core = draw(st.integers(1, 3))
    n_p = n_core + draw(st.integers(2, 4))
    twins = range(n_core, n_p)
    edges = [e for e in itertools.combinations(range(n_core), 2) if draw(st.booleans())]
    edges += [(c, t) for c in range(n_core) if draw(st.booleans()) for t in twins]
    if draw(st.booleans()):
        edges += list(itertools.combinations(twins, 2))
    pattern = Graph(n_p, edges)
    if draw(st.booleans()):
        order = list(draw(st.permutations(range(n_core)))) + list(twins)
    else:
        order = list(draw(st.permutations(range(n_p))))
    n_h = draw(st.integers(n_p, 9))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    host = {e for e in itertools.combinations(range(n_h), 2) if rnd.random() < p}
    # Plant one induced copy, so counts are not all 0.
    image = rnd.sample(range(n_h), n_p)
    host = {(u, v) for u, v in host if not (u in image and v in image)}
    host |= {tuple(sorted((image[u], image[v]))) for u, v in edges}
    return pattern, Graph(n_h, sorted(host)), order


@settings(max_examples=200, deadline=None)
@given(twin_tail_instances(), st.sampled_from([MODE_COUNT_DOMINATING, MODE_FIND_DOMINATING]))
# Two isolated core vertices and two adjacent twins.  Searched in this
# order, depth 1 is bounded below by depth 0 and the twins are not, so the
# twins' images need not lie in depth 1's child mask: depth 0 has no
# interchangeable tail.
@example((Graph(4, [(2, 3)]), Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)]), [0, 1, 2, 3]),
         MODE_COUNT_DOMINATING)
# The star K_{1,3}: its three leaves are non-adjacent twins.  Whichever
# centre is placed, host 4 or host 1, the four open images induce a star,
# whose three leaves are the images of a dominating copy.  A greedy
# matching finds one edge, one short of c - need + 1 = 2; a matching that
# kept the matched centre for a second edge would skip both copies.
@example((Graph(4, [(0, 1), (0, 2), (0, 3)]),
          Graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]),
          [0, 1, 2, 3]), MODE_COUNT_DOMINATING)
# The triangle: its two tail vertices are adjacent twins, so their images
# are an edge, and no depth looks ahead.
@example((Graph(3, [(0, 1), (0, 2), (1, 2)]), Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
          [0, 1, 2]), MODE_COUNT_DOMINATING)
def test_interchangeable_tail_matches_oracle(instance, mode):
    # The tail rule only skips children with no dominating leaf, labeled
    # and symmetry-broken, and its tree is a subtree of the count mode's.
    pattern, host, order = instance
    oracle = [e for e in induced_embeddings(pattern, host) if is_dominating(host, e)]
    expected = len(oracle) if mode == MODE_COUNT_DOMINATING else min(len(oracle), 1)
    for search in (_kernel, _embed):
        count, e, exceeded = search(pattern, host, mode, order, 10**9)
        assert (count, exceeded) == (expected, False)
        assert e <= search(pattern, host, MODE_COUNT, order, 10**9)[1]
        for budget in (e - 1, e, e + 1):
            res = search(pattern, host, mode, order, budget)
            if budget >= e:
                assert res == (expected, e, False)
            else:
                assert res[1:] == (budget + 1, True) and res[0] <= expected
    found = embed_search(pattern, host, mode=mode, order=order).embeddings
    assert set(found) <= set(oracle)


# The depths that look ahead in the witness searches, the only dominating
# searches the package runs: in detect's order and in the default one,
# labeled and with the stabilizer chain's conditions.  Depth k looks
# ahead at the last - k depths after it.
@pytest.mark.parametrize("a, gamma, r, in_detect_order, in_default_order", [
    pytest.param(2, 0, 4, [1, 2, 3, 4], [2, 3, 4], id="K25"),
    pytest.param(2, 0, 3, [1, 2, 3], [2, 3], id="W2g0r3"),
    pytest.param(3, 0, 4, [19, 20, 21], [19, 20, 21], id="W3g0r4"),
    pytest.param(2, 1, 4, [], [], id="W2g1r4"),
    pytest.param(2, 2, 4, [], [], id="W2g2r4"),
])
def test_lookahead_depths_of_the_witness_searches(a, gamma, r, in_detect_order,
                                                  in_default_order):
    ws, detect_order = detect.witness_pattern(a, gamma, r)
    pattern = ws.graph
    last = pattern.n - 1
    for order, depths in ((detect_order, in_detect_order),
                          (tuple(search_order(pattern)), in_default_order)):
        smaller = stabilizer_chain(pattern, list(order))[0]
        for conditions in (None, smaller):
            ahead = _pure._build_plan(tuple(pattern.bits), order, conditions, True)[4]
            assert {k: need for k, need in enumerate(ahead) if need} == {
                k: last - k for k in depths}


def test_adjacent_twins_get_no_lookahead():
    # The triangle searched in order [0, 1, 2]: depths 1 and 2 are twins,
    # but adjacent, so depth 0 does not look ahead and the labeled
    # count-dominating search spends what the count search spends.  Six
    # of its 30 embeddings dominate.
    triangle = complete(3)
    host = Graph(9, [(0, 1), (0, 5), (0, 8), (1, 7), (1, 8), (2, 4), (2, 5), (3, 4),
                     (3, 5), (4, 5), (4, 6), (4, 7), (4, 8), (6, 7), (6, 8)])
    assert _kernel(triangle, host, MODE_COUNT, [0, 1, 2], 10**9) == (30, 69, False)
    assert _kernel(triangle, host, MODE_COUNT_DOMINATING, [0, 1, 2], 10**9) == (6, 69, False)


WITNESSES = (
    [(build_W, a, gamma, r) for a in (1, 2) for gamma in (0, 1, 2) for r in (2, 3, 4)]
    + [(build_W_star, 1, gamma, r) for gamma in (0, 1, 2) for r in (2, 3, 4)]
    + [(build_W_star, 2, 0, 2)]
)


@pytest.mark.parametrize("build, a, gamma, r", WITNESSES)
def test_stabilizer_chain_counts_automorphisms(build, a, gamma, r):
    ws = build(a, gamma, r)
    expected = automorphism_count(ws.graph)
    orders = [None, search_order(ws.graph, (ws.f2[0],)), detect._pattern_order(ws),
              list(range(ws.graph.n))[::-1]]
    for order in orders:
        smaller, automorphisms, _ = stabilizer_chain(ws.graph, order)
        assert automorphisms == expected
        assert len(smaller) == ws.graph.n
        assert all(j < d for d, js in enumerate(smaller) for j in js)


def test_stabilizer_chain_of_W3_needs_no_group_listing():
    # W(3, 0, 4): four groups of four twins, permuted within each group and
    # the groups among themselves, so |Aut| = 24**4 * 24.  In the
    # breadth-first order below sixteen twins precede their neighbours;
    # self-searches in that order ran past 10**8 expansions, so they are
    # ordered from their pins instead.
    ws = build_W(3, 0, 4)
    bfs = [2, 1, *range(8, 24), 4, 5, 6, 7, 0, 3]
    for order in (None, bfs, search_order(ws.graph, (ws.f2[0],)), detect._pattern_order(ws)):
        _, automorphisms, expansions = stabilizer_chain(ws.graph, order, budget=10**4)
        assert automorphisms == 24**5
        assert expansions <= 10**4


SYMMETRIC_PATTERNS = [
    build_W(2, 0, 4).graph,                   # K_{2,5}, |Aut| = 240
    cycle(4), cycle(5), cycle(7),
    complete(1), complete(3), complete(5),
    Graph(2, []), Graph(4, []), Graph(6, []),  # edgeless
    Graph(5, [(0, 1), (1, 2)]),               # P_3 plus two isolated vertices
    Graph(6, [(0, 1), (2, 3), (4, 5)]),       # perfect matching
    Graph(7, [(0, i) for i in range(1, 6)]),  # star K_{1,5} plus an isolate
]


@st.composite
def symmetric_instances(draw):
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(SYMMETRIC_PATTERNS))
    else:
        n_p = draw(st.integers(0, 7))
        pattern = Graph(n_p, [
            e for e in itertools.combinations(range(n_p), 2) if draw(st.booleans())
        ])
    n_h = draw(st.integers(0, 10))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    edges = {e for e in itertools.combinations(range(n_h), 2) if rnd.random() < p}
    if pattern.n <= n_h and draw(st.booleans()):
        # Plant one induced copy of the pattern, so counts are not all 0.
        image = rnd.sample(range(n_h), pattern.n)
        edges = {(u, v) for u, v in edges if not (u in image and v in image)}
        edges |= {tuple(sorted((image[u], image[v]))) for u, v in pattern.edges()}
    order = draw(st.permutations(range(pattern.n)))
    return pattern, Graph(n_h, sorted(edges)), list(order)


@settings(max_examples=300, deadline=None)
@given(symmetric_instances(), st.sampled_from([MODE_COUNT, MODE_COUNT_DOMINATING]))
# Searched in this order, the isolated pattern vertices 1, 2 and the pair
# 0, 3 leave depth 0 an interchangeable tail that depth 1's condition
# breaks: the constrained search must still skip what the labeled one
# skips there.
@example((Graph(4, [(0, 3)]), Graph(5, [(0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]),
          [1, 2, 0, 3]), MODE_COUNT_DOMINATING)
def test_symmetry_broken_count_matches_oracle(instance, mode):
    pattern, host, order = instance
    oracle = induced_embeddings(pattern, host)
    if mode == MODE_COUNT_DOMINATING:
        oracle = [e for e in oracle if is_dominating(host, e)]
    smaller, automorphisms, derived = stabilizer_chain(pattern, order)
    assert automorphisms == automorphism_count(pattern)
    labeled = _kernel(pattern, host, mode, order, 10**9)
    _, classes, broken, _ = _pure.search(
        pattern.bits, host.bits, order, base_masks(pattern, host), mode, 10**9, smaller,
    )
    assert automorphisms * classes == labeled[0] == len(oracle)
    # The constrained search tree is a subtree of the labeled one.
    assert broken <= labeled[1]

    constrained = any(smaller[:-1])
    res = embed_search(pattern, host, mode=mode, order=order, budget=10**9)
    e = derived + (broken if constrained else labeled[1])
    assert (res.count, res.expansions, res.exceeded) == (len(oracle), e, False)
    assert res.embeddings == []
    unit = automorphisms if constrained else 1
    for budget in sorted({e // 2, max(e - 1, 0), e, e + 1, max(derived - 1, 0)}):
        res = embed_search(pattern, host, mode=mode, order=order, budget=budget)
        if budget >= e:
            assert (res.count, res.expansions, res.exceeded) == (len(oracle), e, False)
        else:
            assert res.exceeded and res.expansions == budget + 1
            # A partial count is still |Aut| times whole classes.
            assert res.count <= len(oracle) and res.count % unit == 0


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
@given(search_instances(), st.sampled_from(MODES))
def test_kernel_matches_oracle_at_budget_boundary(instance, mode):
    pattern, host, order = instance
    oracle = induced_embeddings(pattern, host)
    if mode in (MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING):
        oracle = [e for e in oracle if is_dominating(host, e)]
    oracle_set = set(oracle)
    exact = embed_search(pattern, host, mode=mode, order=order, budget=10**9)
    assert not exact.exceeded
    expected = len(oracle)
    if mode in (MODE_FIND, MODE_FIND_DOMINATING):
        expected = min(expected, 1)
    assert exact.count == expected
    if mode in (MODE_COUNT, MODE_COUNT_DOMINATING):
        assert exact.embeddings == []
    else:
        assert len(exact.embeddings) == expected
        assert set(exact.embeddings) <= oracle_set
    if mode == MODE_COLLECT:
        assert set(exact.embeddings) == oracle_set

    e = exact.expansions
    for budget in sorted({e // 2, max(e - 1, 0), e, e + 1}):
        res = embed_search(pattern, host, mode=mode, order=order, budget=budget)
        if budget >= e:
            assert (res.count, res.expansions, res.exceeded) == (
                exact.count, e, False)
            assert res.embeddings == exact.embeddings
        else:
            assert res.exceeded
            # Every search stops at the first expansion too many.
            assert res.expansions == budget + 1
            assert res.count <= exact.count
            assert res.embeddings == exact.embeddings[: len(res.embeddings)]


@pytest.mark.parametrize("mode", [MODE_COUNT, MODE_COLLECT])
def test_budget_runs_out_among_siblings_with_no_child(mode):
    # P_3 a-b-c searched ends first, in the star K_{1,3} (centre 0) beside
    # the edge 4-5.  Depth 2 takes b, so it needs a host vertex of degree
    # >= 2 adjacent to the depth-0 image: only the centre.  With depth 0 at
    # 0, 4 or 5 that next-depth mask is empty, and every candidate at depth
    # 1 is a sibling with no child: expansions 2-3, 26-29 and 31-34 of the
    # 34.  Expansions 6, 8, 13, 15, 20 and 22 are the six leaves.
    pattern = Graph(3, [(0, 1), (1, 2)])
    host = Graph(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    order = (0, 2, 1)
    assert _kernel(pattern, host, mode, order, 10**9) == (6, 34, False)
    leaves = (6, 8, 13, 15, 20, 22)
    # Each budget stops the search at one of those siblings.
    for budget in (1, 2, 25, 26, 27, 28, 30, 31, 32, 33):
        paid = sum(1 for e in leaves if e <= budget)
        assert _kernel(pattern, host, mode, order, budget) == (paid, budget + 1, True)


def _meets(smaller, order, emb):
    """emb satisfies every condition img(order[j]) < img(order[d])."""
    return all(emb[order[j]] < emb[order[d]] for d, js in enumerate(smaller) for j in js)


@settings(max_examples=300, deadline=None)
@given(symmetric_instances(), st.sampled_from([MODE_FIND, MODE_FIND_DOMINATING]))
def test_symmetry_broken_find_matches_oracle(instance, mode):
    pattern, host, order = instance
    oracle = induced_embeddings(pattern, host)
    if mode == MODE_FIND_DOMINATING:
        oracle = [e for e in oracle if is_dominating(host, e)]
    smaller, _, derived = stabilizer_chain(pattern, order)
    # Grouped by image set, the class key of the whole group, every copy
    # has exactly one embedding that meets the conditions.
    met = collections.Counter(frozenset(e) for e in oracle if _meets(smaller, order, e))
    assert met == collections.Counter({frozenset(e) for e in oracle})

    labeled = _kernel(pattern, host, mode, order, 10**9)
    res = embed_search(pattern, host, mode=mode, order=order, budget=10**9)
    assert (res.count > 0) == (labeled[0] > 0) == bool(oracle)
    assert res.count == len(res.embeddings) == min(len(oracle), 1)
    assert not res.exceeded
    constrained = any(smaller[:-1])
    if res.embeddings:
        assert res.embeddings[0] in oracle
        if constrained:
            assert _meets(smaller, order, res.embeddings[0])
    # The derivation is charged on every call, cached or not.
    searched = _pure.search(
        pattern.bits, host.bits, order, base_masks(pattern, host), mode, 10**9,
        smaller if constrained else None,
    )[2]
    assert res.expansions == derived + searched
    if derived:
        res = embed_search(pattern, host, mode=mode, order=order, budget=derived - 1)
        assert (res.count, res.expansions, res.exceeded) == (0, derived, True)


@st.composite
def fixing_instances(draw):
    pattern, host, order = draw(symmetric_instances())
    fixing = draw(st.lists(st.integers(0, pattern.n - 1), unique=True, max_size=3)
                  if pattern.n else st.just([]))
    return pattern, host, order, tuple(fixing)


@settings(max_examples=300, deadline=None)
@given(fixing_instances())
def test_collect_with_fixing_returns_one_embedding_per_class(instance):
    # Two embeddings differ by an automorphism that fixes every vertex of
    # fixing iff they have the same image set and the same images of
    # fixing, so that pair is the class key.
    pattern, host, order, fixing = instance
    oracle = induced_embeddings(pattern, host)

    def key(emb):
        return frozenset(emb), tuple(emb[v] for v in fixing)

    res = embed_search(pattern, host, mode=MODE_COLLECT, order=order, fixing=fixing,
                       budget=10**9)
    keys = collections.Counter(map(key, res.embeddings))
    assert keys == collections.Counter({key(e) for e in oracle})
    assert set(res.embeddings) <= set(oracle)
    assert (res.count, res.exceeded) == (len(res.embeddings), False)
    # Each class holds |group| labeled embeddings.
    _, group, derived = stabilizer_chain(pattern, order, fixing=fixing)
    assert group * len(keys) == len(oracle)
    if not fixing:
        assert group == automorphism_count(pattern)
    # The labeled contract is unchanged without fixing.
    labeled = embed_search(pattern, host, mode=MODE_COLLECT, order=order, budget=10**9)
    assert sorted(labeled.embeddings) == sorted(oracle)
    # Budget boundary: the derivation and the search share the budget.
    e = res.expansions
    assert e >= derived
    for budget in sorted({max(e - 1, 0), e}):
        part = embed_search(pattern, host, mode=MODE_COLLECT, order=order,
                            fixing=fixing, budget=budget)
        if budget == e:
            assert (part.embeddings, part.expansions, part.exceeded) == (
                res.embeddings, e, False)
        else:
            assert part.exceeded and part.expansions == budget + 1
            assert part.embeddings == res.embeddings[: len(part.embeddings)]


def test_collect_fixing_is_checked():
    host = Graph(4, [(0, 1), (1, 2), (2, 3)])
    pat = Graph(3, [(0, 1), (1, 2)])
    for fixing in ((0, 0), (3,), (-1,)):
        with pytest.raises(ValueError, match="fixing must list distinct vertices"):
            embed_search(pat, host, mode=MODE_COLLECT, fixing=fixing)
    for mode in (MODE_FIND, MODE_COUNT, MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING):
        with pytest.raises(ValueError, match="MODE_COLLECT only"):
            embed_search(pat, host, mode=mode, fixing=())
    # P_3 in P_4: four labeled embeddings, two image sets, and the middle
    # vertex's image tells the two embeddings of each image set apart.
    assert len(embed_search(pat, host, mode=MODE_COLLECT).embeddings) == 4
    assert len(embed_search(pat, host, mode=MODE_COLLECT, fixing=()).embeddings) == 2
    assert len(embed_search(pat, host, mode=MODE_COLLECT, fixing=(1,)).embeddings) == 2
    assert len(embed_search(pat, host, mode=MODE_COLLECT, fixing=(0,)).embeddings) == 4
