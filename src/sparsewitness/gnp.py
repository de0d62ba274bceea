"""Seedable, reproducible G(n, p) sampling.

Randomness is counter-based: each (seed, stream) pair keys its own Philox
stream, so trials are reproducible regardless of execution order or
parallelism.  A Philox stream is fixed by its key and counter (Salmon et
al., SC 2011), so each thread keeps one generator and re-keys it per
call instead of building one: it is set to the key a fresh
``Philox(key=[seed, stream])`` would hold, counter 0 and an empty
buffer, which is all of that generator's state, and so draws the same
numbers.  Both paths build the adjacency rows with numpy, without a
Python step per pair:

- the dense path draws one uniform per pair;
- below p ~ 10/n a geometric pair-skipping path avoids touching all
  C(n, 2) pairs: each batch of gaps becomes edge positions through one
  cumulative sum.

One builder, ``_dense_graph``, turns pair flags into the rows of every
dense host and every sparse host of one word (n <= 64): it scatters them
into the upper triangle of a bool matrix padded to whole 64-bit words,
symmetrises it and packs the rows.  Wider sparse hosts are OR-ed
together one edge at a time by ``Graph.from_arrays``.

Both produce the same graphs, bit for bit, as the earlier per-pair loops
did (pinned in tests).  The skipping path draws from the same keyed
generator and is distributionally equivalent to the dense path (asserted
in tests), though not bit-identical to it.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

_MASK64 = (1 << 64) - 1
SPARSE_FACTOR = 10.0


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    p: float
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


def splitmix64(x: int) -> int:
    """One step of the SplitMix64 mixer; a bijection on 64-bit words."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_stream(master_seed: int, trial_index: int) -> int:
    """Injective (for a fixed seed) stream id for a trial: the mixer is a
    64-bit bijection applied to distinct inputs."""
    return splitmix64((master_seed ^ (trial_index * 0xD1B54A32D192ED03)) & _MASK64)


_local = threading.local()
_ZERO4 = (0, 0, 0, 0)


def _rng(cfg: SamplerConfig) -> np.random.Generator:
    """This thread's generator, re-keyed to (seed, stream).  It is left in
    the state a fresh ``Philox(key=[seed, stream])`` starts in: counter 0,
    an empty buffer and no spare 32-bit word.  Valid only until the next
    call on the same thread."""
    gen = getattr(_local, "gen", None)
    if gen is None:
        gen = _local.gen = np.random.Generator(np.random.Philox(key=[0, 0]))
    # The key goes through the same conversion Philox(key=...) applies to
    # a list: np.asarray gives float64 when exactly one word is >= 2**63,
    # so such a key keeps only 53 significant bits of each word.
    key = np.asarray([cfg.seed & _MASK64, cfg.stream & _MASK64]).astype(np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


@functools.lru_cache(maxsize=16)
def _upper_triangle(n: int) -> np.ndarray:
    """Read-only bool mask of the pairs u < v in an n x 64*ceil(n/64)
    matrix.  Boolean indexing visits it in row-major order, which is the
    lexicographic pair order of the draws."""
    mask = np.zeros((n, -(-n // 64) * 64), dtype=bool)
    mask[:, :n] = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _pair_of_index(k: np.ndarray, n: int):
    """Invert lexicographic pair indexing: k-th pair (u, v), u < v."""
    # Row u starts at index u(2n - u - 1)/2: the row of k is the floor of
    # the smaller root of u(2n - u - 1)/2 = k.
    kk = k.astype(np.float64)
    u = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * kk)) / 2).astype(np.int64)
    start = u * (2 * n - u - 1) // 2
    # Guard against float rounding at row boundaries.
    too_far = start > k
    u[too_far] -= 1
    start = u * (2 * n - u - 1) // 2
    v = (k - start) + u + 1
    return u, v


def sample_gnp(cfg: SamplerConfig) -> Graph:
    """Sample G(n, p): every unordered pair independently with probability p."""
    n, p = cfg.n, cfg.p
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, [])
    rng = _rng(cfg)
    if p < SPARSE_FACTOR / n:
        return _sample_sparse(rng, n, p, total)
    hit = rng.random(total) < p
    return _dense_graph(n, hit, int(np.count_nonzero(hit)))


def _dense_graph(n: int, hit, m: int) -> Graph:
    """Rows from the pair flags in lexicographic order: scatter them into
    the upper triangle of a bool matrix padded to whole 64-bit words,
    symmetrise the n x n part, and pack each row into a little-endian
    Python int."""
    upper = _upper_triangle(n)
    adj = np.zeros(upper.shape, dtype=bool)
    adj[upper] = hit
    square = adj[:, :n]
    # numpy buffers a ufunc input that overlaps its output, so the OR
    # reads the transpose as it was before the call.
    square |= square.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    if n <= 64:
        # One word per row; tolist() yields Python ints.
        return Graph._from_rows(packed.view("<u8").ravel().tolist(), m)
    data = packed.tobytes()
    width = len(data) // n
    rows = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    return Graph._from_rows(rows, m)


def _sample_sparse(rng: np.random.Generator, n: int, p: float, total: int) -> Graph:
    """Skip between edges with geometric gaps instead of flipping every pair
    (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005)."""
    chunks = []
    cursor = -1
    batch = max(16, int(total * p * 1.5) + 8)
    while cursor < total:
        # The cursor starts at -1, so a gap above total ends the walk
        # whatever its size; clipping there keeps the cumulative sum far
        # from int64 overflow when p is tiny.
        gaps = np.minimum(rng.geometric(p, size=batch), total + 1)
        ends = cursor + np.cumsum(gaps)
        chunks.append(ends[ends < total])
        cursor = int(ends[-1])
    positions = np.concatenate(chunks)
    if n <= 64:
        hit = np.zeros(total, dtype=bool)
        hit[positions] = True
        return _dense_graph(n, hit, positions.size)
    return Graph.from_arrays(n, *_pair_of_index(positions, n))
