"""Witness-copy detection against the brute-force oracle, budget
semantics, Wilson intervals and the connector-path predicate."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle, path, random_graph
from sparsewitness import detect
from sparsewitness.detect import (
    _pattern_order,
    check_connector_property,
    find_dominating_induced_W,
    find_induced_W,
    wilson_interval,
)
from sparsewitness.graphs import BudgetExceededError, Graph, induced_embeddings, is_dominating
from sparsewitness.witness import WitnessError, build_W, build_W_star, w_vertex_count


def test_find_induced_W_rejects_a_negative_budget_before_the_size_check():
    # W(3, 0, 2) has 24 vertices, more than K_{2,3}: no search runs, yet a
    # negative budget is still bad input, not a search that found nothing.
    k23 = build_W(2, 0, 2).graph
    assert find_induced_W(k23, 3, 0, 2, budget=0).outcome == "none"
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        find_induced_W(k23, 3, 0, 2, budget=-1)


def test_find_dominating_induced_W_rejects_a_negative_budget_before_the_size_check():
    k23 = build_W(2, 0, 2).graph
    assert find_dominating_induced_W(k23, 0, 2, (3, 3), budget=0).outcome == "none"
    with pytest.raises(ValueError, match="budget must be nonnegative, got -1"):
        find_dominating_induced_W(k23, 0, 2, (3, 3), budget=-1)


def test_W_a_is_built_only_when_it_fits_the_host(monkeypatch):
    # W(30, 0, 4) would have about 10^17 vertices.  Each a is sized from
    # its parameters, after they are checked, and only a W(a) that fits is
    # built; an edge dominates 4 of C_6's 6 vertices, so no copy is found.
    host = cycle(6)
    build = detect.witness_pattern

    def fitting(a, gamma, r):
        assert w_vertex_count(a, gamma, r) <= host.n, f"W({a}, {gamma}, {r}) built"
        return build(a, gamma, r)

    monkeypatch.setattr(detect, "witness_pattern", fitting)
    assert find_dominating_induced_W(host, 0, 4, (1, 30)).outcome == "none"
    assert find_dominating_induced_W(host, 0, 4, (1, 30), mode="count").outcome == "none"
    assert find_induced_W(host, 30, 0, 4).outcome == "none"
    for call, match in [
        (lambda: find_induced_W(host, 0, 0, 4), "a must be at least 1"),
        (lambda: find_induced_W(host, 30, -1, 4), "gamma must be nonnegative"),
        (lambda: find_dominating_induced_W(host, 0, 1, (1, 30)), "r must be at least 2"),
        (lambda: find_dominating_induced_W(host, -1, 1, (1, 30), budget=-1),
         "budget must be nonnegative"),
    ]:
        with pytest.raises(ValueError, match=match):
            call()
    with pytest.raises(WitnessError):
        find_induced_W(host, 30, 0, 1)


def test_find_induced_W_examples():
    # No induced edge-with-nonedge structure (W at a=2, gamma=0, r=4 has 7
    # vertices) fits in K_5; an isolated-vertex graph has no copies at all.
    k5 = Graph(5, itertools.combinations(range(5), 2))
    assert find_induced_W(k5, 2, 0, 4).outcome == "none"
    isolates = Graph(4, [])
    assert find_induced_W(isolates, 1, 0, 4).outcome == "none"
    # A star contains the a=1 witness (a single edge).
    star = Graph(5, [(0, i) for i in range(1, 5)])
    res = find_induced_W(star, 1, 0, 4)
    assert res.outcome == "found" and res.embedding is not None


def test_pattern_orders():
    # The patterns the Monte Carlo grids search: the edge W(1, 0, 4), the
    # path W(1, 1, 4) from an endpoint, and K_{2,5} = W(2, 0, 4) from its
    # two hubs f2[0] = 2 and f1[1] = 1, then its five leaves.
    assert _pattern_order(build_W(1, 0, 4)) == [0, 1]
    assert _pattern_order(build_W(1, 1, 4)) == [0, 2, 1]
    assert _pattern_order(build_W(2, 0, 4)) == [2, 1, 0, 3, 4, 5, 6]
    # W(3, 0, 4): path 0-1-2, tree root 3, children 4-7, leaves 8-23; the
    # root joins f1[0] = 0, the children f1[1] = 1, the leaves the hub
    # f1[2] = 2 (degree 17).  Pinned: the root, then f1[1].  The children
    # (degree 6) and f1[0] (degree 2) then have two placed neighbours each,
    # so the children come first by degree, and then f1[0].  The hub and
    # every leaf have one; the hub comes first by degree, and then each
    # leaf has two.
    assert _pattern_order(build_W(3, 0, 4)) == [3, 1, 4, 5, 6, 7, 0, 2, *range(8, 24)]


def test_find_induced_W_count_matches_oracle():
    rnd = random.Random(5)
    for trial in range(60):
        g = random_graph(rnd.randint(3, 12), rnd.choice([0.2, 0.5]), rnd)
        for a, gamma in [(1, 0), (1, 1), (2, 0)]:
            pat = build_W(a, gamma, 4).graph
            oracle = induced_embeddings(pat, g)
            res = find_induced_W(g, a, gamma, 4, mode="count")
            assert res.count == len(oracle), (trial, a, gamma)


def test_count_modes_are_labeled_counts():
    # "count" searches one embedding per automorphism class and multiplies
    # by |Aut| (240 for W(2, 0, 4)); it must still equal the labeled count.
    rnd = random.Random(17)
    hosts = [build_W(2, 0, 4).graph, build_W_star(1, 1, 2).graph] + [
        random_graph(rnd.randint(6, 11), rnd.choice([0.3, 0.5]), rnd) for _ in range(30)
    ]
    for g in hosts:
        expected = sum(
            is_dominating(g, e)
            for a in (1, 2) for e in induced_embeddings(build_W(a, 0, 4).graph, g)
        )
        res = find_dominating_induced_W(g, 0, 4, (1, 2), mode="count")
        assert res.count == expected


def test_found_embeddings_revalidate():
    rnd = random.Random(9)
    pat = build_W(2, 0, 4).graph
    for trial in range(40):
        g = random_graph(12, 0.5, rnd)
        res = find_induced_W(g, 2, 0, 4)
        if res.outcome != "found":
            continue
        emb = res.embedding
        assert len(set(emb)) == pat.n
        for u, v in itertools.combinations(range(pat.n), 2):
            assert (v in pat.neighbors(u)) == (emb[v] in g.neighbors(emb[u]))


def test_dominating_search_matches_oracle():
    rnd = random.Random(13)
    for trial in range(40):
        g = random_graph(rnd.randint(4, 11), 0.4, rnd)
        res = find_dominating_induced_W(g, 0, 4, (1, 2))
        expect = False
        for a in (1, 2):
            pat = build_W(a, 0, 4).graph
            if any(
                is_dominating(g, e) for e in induced_embeddings(pat, g)
            ):
                expect = True
        assert bool(res) == expect, trial


def test_dominating_search_prefers_larger_a():
    # Search descends from a_max; report the largest stage that matches.
    g = build_W(2, 0, 4).graph  # dominates itself and contains a=1 copies
    res = find_dominating_induced_W(g, 0, 4, (1, 2))
    assert res.a == 2


def test_budget_exceeded_is_reported_not_raised():
    big = Graph(40, itertools.combinations(range(40), 2))
    res = find_induced_W(big, 2, 1, 4, budget=10)
    assert res.outcome == "budget_exceeded"
    assert not res


def test_both_entries_stop_at_the_first_expansion_past_the_budget():
    # On K_{2,3} = W(2, 0, 2) the exact count of W(1, 0, 2) spends 19
    # expansions and counts 12 labeled copies; the dominating count over
    # a in {1, 2} spends 48 and counts 24.  Every smaller budget runs out
    # at expansion budget + 1 and counts only leaves it paid for.
    k23 = build_W(2, 0, 2).graph
    exact = find_induced_W(k23, 1, 0, 2, mode="count")
    assert (exact.outcome, exact.count, exact.expansions) == ("found", 12, 19)
    for b in range(19):
        res = find_induced_W(k23, 1, 0, 2, mode="count", budget=b)
        assert (res.outcome, res.expansions) == ("budget_exceeded", b + 1)
        assert res.count <= 12
    exact = find_dominating_induced_W(k23, 0, 2, (1, 2), mode="count")
    assert (exact.outcome, exact.count, exact.expansions) == ("found", 24, 48)
    for b in range(48):
        res = find_dominating_induced_W(k23, 0, 2, (1, 2), mode="count", budget=b)
        assert (res.outcome, res.expansions) == ("budget_exceeded", b + 1)
        assert res.count <= 24


def test_which_outcomes_name_their_a():
    # find_induced_W names its a on every outcome, also where W(a) is
    # larger than the host; find_dominating_induced_W only on a found copy.
    k23 = build_W(2, 0, 2).graph
    isolates = Graph(5, [])
    plain = [
        find_induced_W(k23, 2, 0, 2),
        find_induced_W(isolates, 2, 0, 2),
        find_induced_W(k23, 2, 0, 2, budget=1),
        find_induced_W(k23, 3, 0, 2),
    ]
    assert [(res.outcome, res.a) for res in plain] == [
        ("found", 2), ("none", 2), ("budget_exceeded", 2), ("none", 3)]
    dominating = [
        find_dominating_induced_W(k23, 0, 2, (1, 2)),
        find_dominating_induced_W(k23, 0, 2, (1, 2), mode="count"),
        find_dominating_induced_W(isolates, 0, 2, (1, 2)),
        find_dominating_induced_W(k23, 0, 2, (1, 2), budget=1),
        find_dominating_induced_W(k23, 0, 2, (3, 3)),
    ]
    assert [(res.outcome, res.a) for res in dominating] == [
        ("found", 2), ("found", None), ("none", None), ("budget_exceeded", None),
        ("none", None)]


def test_unknown_mode_is_rejected():
    # Rejected before any search, also where the pattern does not fit the
    # host.
    for g in (build_W(2, 0, 4).graph, path(3)):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            find_induced_W(g, 2, 0, 4, mode="bogus")
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            find_dominating_induced_W(g, 0, 4, (1, 2), mode="bogus")


def test_monotone_in_a_on_fixed_graphs():
    # A dominating copy at stage a+1 is strictly harder than at stage a,
    # so on any fixed graph set, success counts must be non-increasing.
    rnd = random.Random(21)
    graphs = [random_graph(10, 0.5, rnd) for _ in range(30)]
    hits = []
    for a in (1, 2):
        hits.append(
            sum(
                1
                for g in graphs
                if find_dominating_induced_W(g, 0, 4, (a, a))
            )
        )
    assert hits[0] >= hits[1]


def test_wilson_interval_examples():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.03 < hi < 0.045
    lo2, hi2 = wilson_interval(100, 100)
    assert hi2 == 1.0 and abs(lo2 - (1 - hi)) < 1e-12
    lo3, hi3 = wilson_interval(50, 100)
    assert abs((0.5 - lo3) - (hi3 - 0.5)) < 1e-12
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


def test_connector_property():
    # P_4 endpoints are connected by the induced 2-vertex path 1-2.
    p4 = path(4)
    assert check_connector_property(p4, [0, 3], 1)
    # No 3-vertex connector exists in P_4, and {0, 2} has no valid
    # attachment (vertex 1 touches both set vertices).
    assert not check_connector_property(p4, [0, 3], 2)
    assert not check_connector_property(p4, [0, 2], 1)
    # In C_4 both outside vertices are adjacent to both set vertices.
    assert not check_connector_property(cycle(4), [0, 2], 1)
    with pytest.raises(ValueError):
        check_connector_property(p4, [0, 3], 0)


def connector_by_enumeration(g, vertices, gamma):
    """The docstring's conditions checked on every ordered tuple of
    gamma + 1 distinct vertices outside the set."""
    vs = set(vertices)
    outside = [w for w in range(g.n) if w not in vs]

    def set_neighbours(w):
        return {x for x in vs if g.has_edge(w, x)}

    def connects(u, v):
        for ws in itertools.permutations(outside, gamma + 1):
            if set_neighbours(ws[0]) != {u} or set_neighbours(ws[-1]) != {v}:
                continue
            if any(set_neighbours(w) for w in ws[1:-1]):
                continue
            # Induced path: consecutive vertices adjacent, no other pair.
            if all(g.has_edge(ws[i], ws[j]) == (j == i + 1)
                   for i in range(len(ws)) for j in range(i + 1, len(ws))):
                return True
        return False

    return all(connects(u, v) for u in vs for v in vs if u != v)


@st.composite
def connector_instances(draw):
    """Sets of two or three vertices on n <= 10, with a connector planted
    for some of the set's pairs and random edges that may break them or
    make other paths."""
    gamma = draw(st.integers(1, 3))
    k = draw(st.integers(2, 3))
    edges = []
    n = k
    for u, v in itertools.combinations(range(k), 2):
        if n + gamma + 1 <= 10 and draw(st.booleans()):
            ws = range(n, n + gamma + 1)
            edges += [(u, ws[0]), (ws[-1], v), *zip(ws, ws[1:])]
            n += gamma + 1
    n = draw(st.integers(n, 10))
    edges += draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                           max_size=12))
    label = draw(st.permutations(range(n)))
    relabeled = {tuple(sorted((label[a], label[b]))) for a, b in edges}
    return Graph(n, sorted(relabeled)), [label[v] for v in range(k)], gamma


@settings(max_examples=300, deadline=None)
@given(connector_instances())
def test_connector_property_matches_enumeration(instance):
    g, vertices, gamma = instance
    assert check_connector_property(g, vertices, gamma) == connector_by_enumeration(
        g, vertices, gamma)


@pytest.mark.parametrize("g, vertices, gamma, need", [
    # Per ordered pair, one expansion for each path vertex placed: the
    # attachments 1 and 2 of P_4, then 1-2-3-4 of P_6.
    (path(4), [0, 3], 1, 4),
    (path(6), [0, 5], 3, 8),
])
def test_connector_property_budget(g, vertices, gamma, need):
    assert check_connector_property(g, vertices, gamma, budget=need)
    with pytest.raises(BudgetExceededError):
        check_connector_property(g, vertices, gamma, budget=need - 1)
    with pytest.raises(ValueError):
        check_connector_property(g, vertices, gamma, budget=-1)
