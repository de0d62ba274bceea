"""Seeded random graph sampler: determinism, stream separation, pinned
sample digests, pair indexing, and distributional checks against the
Binomial edge-count law, re-keyed generators and sampling from threads."""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sparsewitness.gnp import (
    SamplerConfig,
    _pair_of_index,
    _rng,
    derive_stream,
    sample_gnp,
    splitmix64,
)


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
    # p = 1 takes the geometric path at n = 2 and 9 (p < 10/n) and the
    # dense one at n >= 10, with one-word rows up to n = 64 and two-word
    # rows at n = 70; every path returns K_n.
    for n in (2, 9, 10, 64, 70):
        for p in (0.0, 1.0):
            g = sample_gnp(SamplerConfig(n=n, p=p, seed=0))
            if p == 0.0:
                assert g.m == 0 and not any(g.bits)
            else:
                assert g.m == n * (n - 1) // 2
                full = (1 << n) - 1
                assert g.bits == [full ^ (1 << v) for v in range(n)]


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
    scipy_stats = pytest.importorskip("scipy.stats")
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


@pytest.mark.parametrize("n, p", [(80, 0.3), (300, 0.01), (25, 0.3)],
                         ids=["dense", "sparse", "sparse-one-word"])
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


def _configs(n_values, p_values, seed, streams):
    return [SamplerConfig(n=n, p=p, seed=seed, stream=s)
            for n in n_values for p in p_values for s in streams]


# Each case hashes (n, m, rows) of every graph it samples.  The digests were
# recorded with the scalar sampler (one Python step per geometric gap, one
# per edge when building rows on either path), before the numpy row build
# replaced it, so they pin that the rewrite kept every stream and draw.
PINNED_SAMPLES = {
    "dense-50": (
        _configs([50], [0.2], 1, range(20)),
        "d9603d5671f37e60746e8b10bb544727fb0ba3cbcf651e090df9b2866b079bf0",
    ),
    "dense-80": (
        _configs([80], [0.3], 2, range(10)),
        "ff2e61d79fbde8137413c4e5c2dc83d250bc2f4a84766448f68175f88fe52254",
    ),
    "sparse-2000": (
        _configs([2000], [0.002], 3, range(3)),
        "99b562480807544ec6347885906f0172ed6de43b6281e75cecb7415239976b0b",
    ),
    "sparse-300": (
        _configs([300], [0.01], 4, range(20)),
        "a03abdf494cb1222e9e1658640f5fa697aa249a41110b418d8ccde0c696d7de8",
    ),
    # Mostly empty graphs: the mean gap is longer than all 44,850 pairs.
    "sparse-300-tiny-p": (
        _configs([300], [1e-5], 5, range(20)),
        "860b652b38d756877445d22abaf7ed65f337fc616e5a58631817c541da7c6559",
    ),
    "p0": (
        _configs([0, 1, 5, 50], [0.0], 6, range(2)),
        "ddc1e47ad3f9c5569383753f6a10abdaeebf5a10ee0cf9cc5a0276fd7617bf35",
    ),
    "p1": (
        _configs([0, 1, 2, 3, 5, 50, 64, 65], [1.0], 7, range(2)),
        "d2747ceb6a93b3ca6c323096bf8457409061ad9a4aa94726ec4562021dd24e0b",
    ),
    "tiny-n": (
        _configs([0, 1, 2, 3], [0.3, 0.7], 8, range(5)),
        "afd3a545e495b09e9ef5f7b6ce3b6b2f0acf3c3f709ecde42ec8f1bdbc0993a8",
    ),
    # Rows of 63, 64 and 65 bits, on the sparse and the dense path.
    "row-width": (
        _configs([63, 64, 65], [0.05, 0.3], 9, range(4)),
        "56f256dfacfddcbafc9e4a1509792b34a55eaf9fe2b6c9a82b6b15adc10082dd",
    ),
    # G(20, 0.0315) draws geometric gaps in batches of 16; streams 3187
    # and 6242 hold 16 and 17 edges, so their walks need a second batch.
    "second-batch": (
        _configs([20], [0.0315], 5, [3187, 6242, 0]),
        "a5f79b098096c32e89473e34820264459d13e542fed3f904063b2633269c2c93",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
def test_pinned_sample_digests(case):
    cfgs, expected = PINNED_SAMPLES[case]
    digest = hashlib.sha256()
    graphs = [sample_gnp(cfg) for cfg in cfgs]
    for g in graphs:
        digest.update(repr((g.n, g.m, g.bits)).encode())
    assert digest.hexdigest() == expected
    if case == "sparse-300-tiny-p":
        assert min(g.m for g in graphs) == 0 < max(g.m for g in graphs)
    if case == "second-batch":
        assert [g.m for g in graphs[:2]] == [16, 17]


def test_pair_of_index_matches_triu_indices():
    for n in range(301):
        iu, ju = np.triu_indices(n, k=1)
        u, v = _pair_of_index(np.arange(iu.size, dtype=np.int64), n)
        assert np.array_equal(u, iu) and np.array_equal(v, ju), n


@pytest.mark.parametrize("n", [10**3, 10**5, 10**6, 10**7])
def test_pair_of_index_at_row_ends_for_large_n(n):
    # Row u holds the n - 1 - u pairs from index u(2n - u - 1)/2 on.  At a
    # row's first and last index the float square root is closest to
    # picking the neighbouring row.
    rows = np.random.default_rng(n).integers(0, n - 1, size=2000)
    u = np.unique(np.concatenate([[0, 1, n - 3, n - 2], rows])).astype(np.int64)
    first = u * (2 * n - u - 1) // 2
    last = first + (n - 2 - u)
    for k, v in ((first, u + 1), (last, np.full_like(u, n - 1))):
        got_u, got_v = _pair_of_index(k, n)
        assert np.array_equal(got_u, u) and np.array_equal(got_v, v)


M64 = (1 << 64) - 1
REKEY_CASES = [
    (0, 0),
    (1, 2),
    (11, 2**63 + 7),  # one word >= 2**63: Philox(key=[...]) rounds the key
    (2**64 + 5, 3),  # seeds and streams are taken mod 2**64
    (2**63 + 1, 2**64 - 2),
    (2**70 + 9, 2**63 - 1),
]


def test_rekeyed_generator_draws_like_a_fresh_one():
    # The sampler re-keys one generator per thread instead of building a
    # Generator(Philox(key=...)) per call; the draws must be the same.
    for seed, stream in REKEY_CASES + list(reversed(REKEY_CASES)):
        cfg = SamplerConfig(n=10, p=0.5, seed=seed, stream=stream)
        fresh = np.random.Generator(np.random.Philox(key=[seed & M64, stream & M64]))
        rng = _rng(cfg)
        assert np.array_equal(rng.random(7), fresh.random(7))
        assert np.array_equal(rng.geometric(0.01, size=9), fresh.geometric(0.01, size=9))
        # Leave a buffered word and a spare 32-bit half behind: the next
        # re-key must discard both.
        assert rng.integers(0, 2**32, dtype=np.uint32) == fresh.integers(
            0, 2**32, dtype=np.uint32)


def test_sampling_from_threads_matches_serial():
    cfgs = (_configs([50], [0.2], 21, range(40)) + _configs([100], [0.3], 22, range(8))
            + _configs([300], [0.01], 23, range(8)) + _configs([64, 65], [1.0], 24, [0]))
    cfgs += [SamplerConfig(n=40, p=0.3, seed=25, stream=derive_stream(25, t))
             for t in range(40)]
    serial = [sample_gnp(cfg) for cfg in cfgs]
    with ThreadPoolExecutor(4) as pool:
        threaded = list(pool.map(sample_gnp, cfgs))
    assert [(g.n, g.m, g.bits) for g in threaded] == [(g.n, g.m, g.bits) for g in serial]
    # Dense rows of one word come from a uint64 array's tolist(): they must
    # be Python ints, whose shifts do not overflow past bit 63.
    for g in threaded:
        assert all(type(row) is int for row in g.bits)
