"""Witness families, the growth process, and the parity property."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected
from sparsewitness import hotpath, witness
from sparsewitness.graphs import (
    automorphism_count,
    induced_embeddings,
    iter_mask,
    write_edge_list,
)
from sparsewitness.hotpath import MODE_COLLECT, embed_search
from sparsewitness.witness import (
    ProcessError,
    WitnessError,
    build_W,
    build_W_star,
    has_gamma_r_property,
    omega,
    process_init,
    process_run,
    process_step,
    w_edge_count,
    w_star_edge_count,
    w_star_vertex_count,
    w_vertex_count,
)


def is_path(g) -> bool:
    degs = sorted(g.degree(v) for v in range(g.n))
    if g.n == 1:
        return degs == [0]
    if degs != [1, 1] + [2] * (g.n - 2):
        return False
    return g.m == g.n - 1 and connected(g)


def test_omega_closed_form():
    assert omega(1, 4) == 1
    assert omega(2, 4) == 5
    assert omega(3, 4) == 21
    assert omega(3, 2) == 7
    # Geometric-series identity against direct summation.
    for a in range(1, 7):
        for r in (2, 3, 4, 5):
            assert omega(a, r) == sum(r**t for t in range(a))


def test_omega_shift_matches_division():
    # Powers of two take the shift path; every r must give (r^a - 1)/(r - 1).
    for r in range(2, 10):
        for a in range(65):
            assert omega(a, r) == (r**a - 1) // (r - 1), (a, r)


def test_process_rejects_states_off_the_schedule():
    # A floor whose stage does not contain the vertex count matches no rule.
    init = process_init(1, 2)
    with pytest.raises(ProcessError):
        process_step(dataclasses.replace(init, floor=2))
    past = process_run(0, 2, 40)
    assert past.floor == 2
    with pytest.raises(ProcessError):
        process_step(dataclasses.replace(past, floor=1))


def test_parameter_validation():
    with pytest.raises(WitnessError):
        build_W(0, 0, 4)
    with pytest.raises(WitnessError):
        build_W(1, -1, 4)
    with pytest.raises(WitnessError):
        build_W(1, 0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.sampled_from([2, 3, 4]))
def test_w_counts_match_closed_forms(a, gamma, r):
    ws = build_W(a, gamma, r)
    s = w_vertex_count(a, gamma, r)
    assert ws.graph.n == s == a + (gamma + 1) * omega(a, r)
    assert ws.graph.m == w_edge_count(a, gamma, r)
    # Edge count restated through s, as an independent identity.
    assert (gamma + 1) * ws.graph.m == (gamma + 2) * s - a - 2 * (gamma + 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.sampled_from([2, 3]))
def test_w_star_counts_match_closed_forms(a, gamma, r):
    ws = build_W_star(a, gamma, r)
    assert ws.graph.n == w_star_vertex_count(a, gamma, r)
    assert ws.graph.m == w_star_edge_count(a, gamma, r)
    assert connected(ws.graph)


def test_w_star_base_case_is_a_path():
    # With a=1 both trees are single vertices, so the whole construction
    # collapses to a path on 3*gamma + 4 vertices.
    for gamma in range(4):
        g = build_W_star(1, gamma, 2).graph
        assert g.n == 3 * gamma + 4
        assert is_path(g)


def test_w_small_shapes():
    # a=1, gamma=0: a single edge.
    g = build_W(1, 0, 4).graph
    assert (g.n, g.m) == (2, 1)
    # a=2, gamma=0, r=4: K_{1,5} plus the path edge = two path vertices
    # joined appropriately; check count identities and bipartite-ish degrees.
    g = build_W(2, 0, 4).graph
    assert (g.n, g.m) == (7, 10)


def test_w2_gamma_r4_is_theta_like():
    # W_2^gamma (r=4) is five internally disjoint equal-length paths
    # between the two original path endpoints; its automorphism group is
    # the path swap times the 5! path permutations.
    for gamma in (0, 1):
        g = build_W(2, gamma, 4).graph
        assert automorphism_count(g) == 2 * 120


def _bfs_depths(g, tree):
    """Depth of each vertex of tree below tree[0], by breadth-first search
    over the edges of g that join two vertices of tree."""
    inside = set(tree)
    depth = {tree[0]: 0}
    frontier = [tree[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w in inside and w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    assert len(depth) == len(tree)
    return depth


def _joins(ws):
    """Every pair of non-connector vertices joined by an edge or by a path
    through connector vertices only, mapped to that path's inner vertices.
    Each path is walked from both of its ends; the two walks must agree."""
    g = ws.graph
    conn = {v for v, role in enumerate(ws.roles) if role == "CONN"}
    walks = {}
    for u in set(range(g.n)) - conn:
        for w in g.neighbors(u):
            prev, inner = u, []
            while w in conn:
                assert g.degree(w) == 2
                inner.append(w)
                prev, w = w, next(x for x in g.neighbors(w) if x != prev)
            assert (u, w) not in walks, "two paths join the same pair"
            walks[u, w] = tuple(inner)
    for (u, w), inner in walks.items():
        assert walks[w, u] == inner[::-1]
    assert {v for inner in walks.values() for v in inner} == conn
    return {frozenset(e): inner for e, inner in walks.items()}


# W*(3, gamma, 3) is left out: its TF2 alone has omega(13) = 797,161 vertices.
PRODUCT_CASES = [
    (starred, a, r)
    for starred in (False, True) for a in (1, 2, 3) for r in (2, 3)
    if not (starred and a == r == 3)
]


@pytest.mark.parametrize(
    "starred, a, r", PRODUCT_CASES,
    ids=[f"{'Wstar' if s else 'W'}-a{a}-r{r}" for s, a, r in PRODUCT_CASES],
)
def test_builds_join_exactly_the_product_pairs(starred, a, r):
    # The gamma-product from its definition, with depths found here and not
    # by the builder: F1 is joined to F2 (and TF1 to TF2 in W*) at equal
    # depth, F2 to TF1 rank by rank, each by a path with gamma inner
    # vertices; every other join is a tree edge inside one role.
    for gamma in (0, 1, 2):
        ws = (build_W_star if starred else build_W)(a, gamma, r)
        blocks = [(ws.f1, ws.f2), (ws.tf1, ws.tf2)] if starred else [(ws.f1, ws.f2)]
        expect = set()
        for path, tree in blocks:
            dp, dt = _bfs_depths(ws.graph, path), _bfs_depths(ws.graph, tree)
            assert [dp[v] for v in path] == list(range(len(path)))
            expect |= {frozenset((path[dt[v]], v)) for v in tree}
        if starred:
            expect |= {frozenset(e) for e in zip(ws.f2, ws.tf1)}
        joins = _joins(ws)
        cross = {e for e in joins if len({ws.roles[v] for v in e}) == 2}
        assert cross == expect, gamma
        for e, inner in joins.items():
            assert len(inner) == (gamma if e in cross else 0), (e, inner)
        # Inside each role the joins are the edges of one tree.
        trees = (ws.f1, ws.f2, ws.tf1, ws.tf2)
        assert len(joins) - len(cross) == sum(len(t) - 1 for t in trees if t)


def test_process_reaches_w_star_exactly():
    for gamma, r in ((2, 2), (0, 2), (1, 2), (1, 3)):
        state = process_init(gamma, r)
        assert state.graph.n == w_star_vertex_count(1, gamma, r) == 3 * gamma + 4
        assert state.floor == 1
        sizes = [state.graph.n]
        while state.graph.n < w_star_vertex_count(2, gamma, r):
            parent = state.graph
            before = (parent.n, parent.m, list(parent.bits))
            state = process_step(state)
            # A step writes new rows; the parent state stays as it was.
            assert (parent.n, parent.m, parent.bits) == before
            sizes.append(state.graph.n)
        increments = {b - a for a, b in zip(sizes, sizes[1:])}
        assert increments <= {1, gamma + 1}
        assert state.floor == 2
        target = build_W_star(2, gamma, r).graph
        assert state.graph.n == target.n
        assert state.graph.m == target.m == w_star_edge_count(2, gamma, r)
        assert induced_embeddings(target, state.graph, limit=1)


def test_process_run_and_floor_monotone():
    floors = [process_run(2, 2, steps).floor for steps in range(0, 14)]
    assert floors == sorted(floors)
    assert floors[0] == 1 and floors[-1] == 2


def test_process_rejects_bad_params():
    with pytest.raises((ProcessError, WitnessError)):
        process_init(2, 1)
    with pytest.raises((ProcessError, WitnessError)):
        process_init(-1, 2)


def test_process_run_rejects_negative_steps():
    # Not a run of zero steps that reports step -5.
    with pytest.raises(ProcessError):
        process_run(0, 2, -5)


def test_property_on_exact_stage():
    w2 = build_W_star(2, 2, 2).graph
    verdict = has_gamma_r_property(w2, 2, 2)
    assert verdict and verdict.a == 2
    assert verdict.embedding is not None


def test_property_false_below_and_past_stage():
    w1 = build_W_star(1, 2, 2).graph
    assert not has_gamma_r_property(w1, 2, 2)
    # One extension step past the completed stage: the copy is extendable,
    # so the parity property no longer holds.
    state = process_run(2, 2, 12)
    assert state.graph.n > w_star_vertex_count(2, 2, 2)
    assert not has_gamma_r_property(state.graph, 2, 2)


@pytest.mark.parametrize("gamma", [0, 1])
def test_property_at_r3_holds_on_the_completed_stage_only(gamma):
    # Criterion 8 at r = 3: the self-searches of the stabilizer chain and
    # the collection are ordered by most placed neighbours, so the
    # completed stage (50 and 98 vertices) is decided well inside the
    # budget; in a breadth-first order both ran past it.
    start = next(s for s in range(200)
                 if process_run(gamma, 3, s).graph.n >= w_star_vertex_count(2, gamma, 3))
    verdicts = [bool(has_gamma_r_property(process_run(gamma, 3, steps).graph, gamma, 3,
                                          budget=10**6))
                for steps in (start - 1, start, start + 1)]
    assert verdicts == [False, True, False]
    assert has_gamma_r_property(build_W_star(2, gamma, 3).graph, gamma, 3, budget=10**6)


@pytest.mark.parametrize("a, gamma, r", [(2, 0, 3), (2, 1, 2), (2, 2, 2)])
def test_property_searches_the_cached_pattern_in_search_order(monkeypatch, a, gamma, r):
    # W*(a) and its order are built once per (a, gamma, r); the order is
    # search_order with nothing pinned, the one the chain-cost pins at
    # r = 3 were taken in, and the verdict is the one a cold cache gives.
    g = build_W_star(a, gamma, r).graph
    witness._star_pattern.cache_clear()
    cold = has_gamma_r_property(g, gamma, r, budget=10**6)
    orders = []
    real_search = hotpath.embed_search

    def recording_search(pattern, host, **kwargs):
        orders.append(kwargs["order"])
        return real_search(pattern, host, **kwargs)

    monkeypatch.setattr(hotpath, "embed_search", recording_search)
    assert has_gamma_r_property(g, gamma, r, budget=10**6) == cold
    assert cold and cold.a == a
    assert orders == [tuple(hotpath.search_order(g))]


def _labeled_keys(g, gamma, r, a):
    """(image set, image of the F1 path end) of every labeled embedding of
    W*(a) in g, from the unconstrained kernel collection."""
    ws = build_W_star(a, gamma, r)
    res = embed_search(ws.graph, g, mode=MODE_COLLECT)
    return {(frozenset(e), e[ws.f1[-1]]) for e in res.embeddings}


def _labeled_property(g, gamma, r):
    """The parity property over every labeled embedding, as a reference."""
    a = 2
    while w_star_vertex_count(a, gamma, r) <= g.n:
        for image, end in _labeled_keys(g, gamma, r, a):
            mask = sum(1 << v for v in image)
            if not any(g.bits[w] & mask == 1 << end
                       for w in range(g.n) if not mask >> w & 1):
                return True
        a += 2
    return False


@pytest.mark.parametrize("gamma, r", [(0, 2), (1, 2), (2, 2)])
def test_property_checks_each_copy_once_on_process_stages(gamma, r):
    # From the completed W*(2) stage on: the fixing collection sees every
    # (image, image of the F1 path end) key of the labeled collection
    # exactly once, and the verdicts agree.
    start = next(s for s in range(200)
                 if process_run(gamma, r, s).graph.n >= w_star_vertex_count(2, gamma, r))
    verdicts = []
    for steps in range(start, start + 4):
        g = process_run(gamma, r, steps).graph
        ws = build_W_star(2, gamma, r)
        va = ws.f1[-1]
        res = embed_search(ws.graph, g, mode=MODE_COLLECT, fixing=(va,))
        keys = [(frozenset(e), e[va]) for e in res.embeddings]
        assert len(keys) == len(set(keys))
        assert set(keys) == _labeled_keys(g, gamma, r, 2)
        verdict = has_gamma_r_property(g, gamma, r)
        assert bool(verdict) == _labeled_property(g, gamma, r)
        verdicts.append(bool(verdict))
    assert verdicts[0] and not verdicts[-1]


# sha256 digests recorded with the earlier edge-list builder, so they pin
# that writing rows directly kept every vertex number, edge, role and
# bookkeeping tuple; any change to the construction moves them.
PROCESS_STEPS = (0, 1, 3, 10, 30, 100, 400)
PROCESS_DIGESTS = {
    (0, 2): "4da26ada6e7d85c789834bb7ff1046cfb946dc9250d075305e1a350b14de0bc0",
    (1, 2): "aa59c763665c9148bad592a18b845b9ee9bc4e63a716afaddc64faee9c3ade7e",
    (2, 2): "50d621e3683ca3e4b686cf401558c930118e96326db797abf1755be8dc056a25",
    (1, 3): "9bbf0052fb0e7a0d6e081767d4386d9215f82819917fc9932c51e44d782db0c4",
    (0, 4): "73effc500f7e8e531158241e4c887111d74c9a67a453548ffa5ba81cd90b2454",
}
BUILD_W_GRID = [(a, g, r) for a in range(1, 5) for g in range(3) for r in (2, 3, 4)]
BUILD_W_STAR_GRID = [
    (a, g, r)
    for a, r in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4))
    for g in range(3)
]
BUILD_DIGEST = "3f4598f05590b3a0fddde6bd2c5268effb008fdf215329c52a5d131627750c4e"


def assert_valid_rows(g):
    """What Graph(n, edges) used to check, restated on the rows."""
    rows = g.bits
    assert len(rows) == g.n
    assert 2 * g.m == sum(row.bit_count() for row in rows)
    for u, row in enumerate(rows):
        assert type(row) is int and row >> g.n == 0
        assert not (row >> u) & 1
        assert all((rows[v] >> u) & 1 for v in iter_mask(row))


def assert_breadth_first(g, tree, r):
    # Tree rank k hangs off rank (k - 1) // r; a path is the case r = 1.
    for k in range(1, len(tree)):
        assert g.has_edge(tree[k], tree[(k - 1) // r]), (k, r)


def assert_bookkeeping(ws):
    assert len(ws.roles) == ws.graph.n
    assert_valid_rows(ws.graph)
    for tree, arity in ((ws.f1, 1), (ws.f2, ws.r), (ws.tf1, 1), (ws.tf2, ws.r)):
        assert_breadth_first(ws.graph, tree, arity)


@pytest.mark.parametrize(
    "gamma, r", list(PROCESS_DIGESTS), ids=[f"g{g}-r{r}" for g, r in PROCESS_DIGESTS]
)
def test_process_is_pinned_exactly(gamma, r):
    h = hashlib.sha256()
    state = process_init(gamma, r)
    for step in range(PROCESS_STEPS[-1] + 1):
        assert state.step == step
        assert_bookkeeping(state)
        if step in PROCESS_STEPS:
            h.update(write_edge_list(state.graph).encode())
            h.update(state.role_lines().encode())
            h.update(repr((state.f1, state.f2, state.tf1, state.tf2,
                           state.floor, state.step)).encode())
        if step < PROCESS_STEPS[-1]:
            state = process_step(state)
    assert h.hexdigest() == PROCESS_DIGESTS[gamma, r]


def _state_key(state):
    return (state.gamma, state.r, state.graph.n, state.graph.m, state.graph.bits,
            state.roles, state.floor, state.step,
            state.f1, state.f2, state.tf1, state.tf2)


@pytest.mark.parametrize(
    "gamma, r", list(PROCESS_DIGESTS), ids=[f"g{g}-r{r}" for g, r in PROCESS_DIGESTS]
)
def test_process_run_matches_folded_steps(gamma, r):
    # process_run grows one builder in place, a run of equal rules per
    # call; it must equal process_step folded the same number of times at
    # every step count up to 400, so also where a run stops inside a run
    # of TF2 steps.
    init = process_init(gamma, r)
    init_key = _state_key(init)
    folded = [init]
    for _ in range(PROCESS_STEPS[-1]):
        folded.append(process_step(folded[-1]))
    changes = [s for s in range(1, len(folded)) if folded[s].floor != folded[s - 1].floor]
    assert changes, "400 steps should complete at least one stage"
    for steps, state in enumerate(folded):
        run = process_run(gamma, r, steps)
        assert _state_key(run) == _state_key(state), steps
    # Two runs never share a row list, and neither touches process_init's.
    a, b = process_run(gamma, r, 50), process_run(gamma, r, 50)
    assert a.graph.bits is not b.graph.bits
    assert a.graph.bits is not init.graph.bits
    assert _state_key(a) == _state_key(b)
    assert _state_key(init) == _state_key(process_init(gamma, r)) == init_key


# The nine process runs of the grow-certify benchmark workload, pinned by
# one sha256 recorded before the process grew a run of equal rules per
# builder call.
GROW_CERTIFY_RUNS = [(g, r, s) for g, r in ((0, 2), (1, 2), (1, 3)) for s in (250, 500, 1000)]
GROW_CERTIFY_DIGEST = "904dc34f3e34f40fc40d3e320da193efacf38da4727ca56788bf4944f9f77b1d"


def test_grow_certify_runs_are_pinned_exactly():
    h = hashlib.sha256()
    for gamma, r, steps in GROW_CERTIFY_RUNS:
        state = process_run(gamma, r, steps)
        assert_bookkeeping(state)
        h.update(write_edge_list(state.graph).encode())
        h.update(state.role_lines().encode())
        h.update(repr((state.f1, state.f2, state.tf1, state.tf2,
                       state.floor, state.step)).encode())
    assert h.hexdigest() == GROW_CERTIFY_DIGEST


def test_builds_are_pinned_exactly():
    h = hashlib.sha256()
    for build, grid in ((build_W, BUILD_W_GRID), (build_W_star, BUILD_W_STAR_GRID)):
        for params in grid:
            ws = build(*params)
            assert_bookkeeping(ws)
            h.update(write_edge_list(ws.graph).encode())
            h.update(ws.role_lines().encode())
            h.update(repr((ws.a, ws.gamma, ws.r, ws.starred,
                           ws.f1, ws.f2, ws.tf1, ws.tf2)).encode())
    assert h.hexdigest() == BUILD_DIGEST
