"""Core graph container, brute-force oracle, and serialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, cycle, path
from sparsewitness.graphs import (
    BudgetExceededError,
    Graph,
    GraphError,
    automorphism_count,
    induced_embeddings,
    is_dominating,
    iter_mask,
    mask_of,
    read_edge_list,
    write_edge_list,
)


def test_construction_and_degrees():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate edge collapses
    assert g.n == 4 and g.m == 2
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.neighbors(1) == {0, 2}


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(-1, [])


def test_bits_are_python_ints_beyond_word_size():
    # Regression: numpy scalar vertices once produced int64 bitmask rows
    # that overflowed silently at vertex 63.
    import numpy as np

    us = np.array([0, 1], dtype=np.int64)
    vs = np.array([69, 68], dtype=np.int64)
    g = Graph.from_arrays(70, us, vs)
    assert type(g.bits[0]) is int
    assert g.bits[0] == 1 << 69


def test_mask_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(iter_mask(0b101001)) == [0, 3, 5]


@given(st.sets(st.integers(0, 60), max_size=20))
def test_mask_roundtrip_property(vertices):
    assert set(iter_mask(mask_of(vertices))) == vertices


def test_is_dominating():
    g = path(5)
    assert is_dominating(g, [1, 3])
    assert not is_dominating(g, [0])
    assert is_dominating(complete(4), [2])
    assert is_dominating(Graph(0, []), [])


def test_induced_embeddings_counts():
    # P_3 in C_5: 5 center choices x 2 orientations.
    assert len(induced_embeddings(path(3), cycle(5))) == 10
    # Triangle in K_4: 4 * 3 * 2 ordered triples.
    assert len(induced_embeddings(complete(3), complete(4))) == 24
    # No induced P_3 in a complete graph.
    assert induced_embeddings(path(3), complete(5)) == []


def test_induced_embeddings_are_induced():
    # P_2 (an edge) inside P_3 must not match the non-adjacent end pair.
    embs = induced_embeddings(path(2), path(3))
    assert sorted(embs) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_induced_embeddings_limit_and_budget():
    embs = induced_embeddings(path(3), cycle(5), limit=3)
    assert len(embs) == 3
    with pytest.raises(BudgetExceededError):
        induced_embeddings(path(3), cycle(30), budget=5)


def test_automorphism_counts_known_groups():
    assert automorphism_count(path(4)) == 2
    assert automorphism_count(cycle(5)) == 10  # dihedral
    assert automorphism_count(complete(4)) == 24
    assert automorphism_count(Graph(3, [])) == 6
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert automorphism_count(star) == 24
    # K_{2,3}: 2! * 3!.
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert automorphism_count(k23) == 12


def test_edge_list_roundtrip():
    g = cycle(6)
    text = write_edge_list(g)
    assert text.splitlines()[0] == "6 6"
    h = read_edge_list(text)
    assert h.n == g.n and h.m == g.m
    assert all(h.neighbors(v) == g.neighbors(v) for v in range(6))


def test_read_edge_list_rejects_garbage():
    with pytest.raises(GraphError):
        read_edge_list("not a header\n")
    with pytest.raises(GraphError):
        read_edge_list("2 1\n0\n")


@pytest.mark.parametrize("text, message", [
    ("2 1\n0 x\n", "bad edge line: '0 x'"),
    ("3 1\n0 1 2\n", "bad edge line: '0 1 2'"),
    ("2 2\n0 1\n1 0\n", "duplicate edge: '1 0' repeats '0 1'"),
    ("2 2\n0 1\n0 1\n", "duplicate edge: '0 1' repeats '0 1'"),
    ("3 2\n0 1\n", "header claims 2 edges, found 1"),
], ids=["non-integer", "three-fields", "reversed-duplicate", "repeated-line", "short"])
def test_read_edge_list_names_the_bad_line(text, message):
    with pytest.raises(GraphError) as exc:
        read_edge_list(text)
    assert str(exc.value) == message


@settings(max_examples=30)
@given(st.integers(0, 9), st.data())
def test_edge_list_roundtrip_property(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph(n, chosen)
    h = read_edge_list(write_edge_list(g))
    assert h == g
