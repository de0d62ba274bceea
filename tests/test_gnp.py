"""Seeded random graph sampler: determinism, stream separation, and
distributional checks against the Binomial edge-count law."""

import math

import pytest

from sparsewitness.gnp import (
    SamplerConfig,
    derive_stream,
    sample_gnp,
    splitmix64,
)

scipy_stats = pytest.importorskip("scipy.stats")


def edges_of(g):
    return {(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v}


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n=-1, p=0.5, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(n=5, p=1.5, seed=0)


def test_determinism_same_config():
    cfg = SamplerConfig(n=40, p=0.3, seed=123, stream=5)
    g1, g2 = sample_gnp(cfg), sample_gnp(cfg)
    assert edges_of(g1) == edges_of(g2)


def test_different_seeds_and_streams_differ():
    base = SamplerConfig(n=40, p=0.3, seed=1, stream=0)
    other_seed = SamplerConfig(n=40, p=0.3, seed=2, stream=0)
    other_stream = SamplerConfig(n=40, p=0.3, seed=1, stream=1)
    e = edges_of(sample_gnp(base))
    assert e != edges_of(sample_gnp(other_seed))
    assert e != edges_of(sample_gnp(other_stream))


def test_edge_probabilities():
    for p in (0.0, 1.0):
        g = sample_gnp(SamplerConfig(n=10, p=p, seed=0))
        assert g.m == (0 if p == 0.0 else 45)


def test_splitmix64_reference_values():
    # Published test vectors: the first output of the SplitMix64 stream
    # seeded with 0, and the first output seeded with 1.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_derive_stream_no_collisions():
    streams = {derive_stream(7, t) for t in range(10_000)}
    assert len(streams) == 10_000
    assert derive_stream(7, 3) != derive_stream(8, 3)


def test_edge_count_distribution_dense_path():
    # Edge counts over 3000 samples must be consistent with
    # Binomial(C(50,2), 0.3); chi-square at significance 0.001.
    n, p, trials = 50, 0.3, 3000
    pairs = n * (n - 1) // 2
    counts = [
        sample_gnp(SamplerConfig(n=n, p=p, seed=99, stream=t)).m
        for t in range(trials)
    ]
    _chi_square_against_binomial(counts, pairs, p, trials)


def test_edge_count_distribution_sparse_path():
    # p < 10/n routes through the geometric-skipping sampler; its edge
    # counts must follow the same Binomial law.
    n, p, trials = 200, 0.03, 2000
    pairs = n * (n - 1) // 2
    counts = [
        sample_gnp(SamplerConfig(n=n, p=p, seed=17, stream=t)).m
        for t in range(trials)
    ]
    _chi_square_against_binomial(counts, pairs, p, trials)


def _chi_square_against_binomial(counts, pairs, p, trials):
    dist = scipy_stats.binom(pairs, p)
    # Ten equiprobable bins by binomial quantiles.
    qs = [dist.ppf(k / 10) for k in range(1, 10)]
    edges = [-math.inf] + qs + [math.inf]
    observed = [0] * 10
    for c in counts:
        for b in range(10):
            if edges[b] < c <= edges[b + 1]:
                observed[b] += 1
                break
    expected = [
        (dist.cdf(edges[b + 1]) - dist.cdf(edges[b])) * trials for b in range(10)
    ]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0)
    pvalue = scipy_stats.chi2(df=9).sf(stat)
    assert pvalue > 0.001, f"chi-square stat {stat:.2f}, p={pvalue:.5f}"


def test_sparse_edges_are_valid_and_deduplicated():
    g = sample_gnp(SamplerConfig(n=500, p=0.005, seed=4))
    e = edges_of(g)
    assert len(e) == g.m
    assert all(0 <= u < v < 500 for u, v in e)


@pytest.mark.parametrize("n, p", [(80, 0.3), (300, 0.01)], ids=["dense", "sparse"])
def test_rows_match_edge_list(n, p):
    # The sampler writes adjacency rows directly; they must be symmetric
    # Python ints that the edge list rebuilds exactly.
    for stream in range(50):
        g = sample_gnp(SamplerConfig(n=n, p=p, seed=8, stream=stream))
        rows = [0] * n
        edges = list(g.edges())
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert all(type(row) is int for row in g.bits)
        assert rows == g.bits
        assert len(edges) == g.m
