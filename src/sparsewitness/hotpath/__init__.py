"""Induced-embedding search on Graph inputs.

``embed_search`` prepares the search order and candidate masks and runs
the bitset backtracking kernel in ``_pure``, the one kernel backend; the
tests check it against ``graphs.induced_embeddings``.  ``BACKEND`` and
``backend=`` name that backend, so callers can record which one ran.
"""

from __future__ import annotations

from collections import deque

from ..graphs import BudgetExceededError, DEFAULT_BUDGET, Embedding, Graph, iter_mask
from . import _pure

MODE_FIND = _pure.MODE_FIND
MODE_COUNT = _pure.MODE_COUNT
MODE_COLLECT = _pure.MODE_COLLECT
MODE_FIND_DOMINATING = _pure.MODE_FIND_DOMINATING
MODE_COUNT_DOMINATING = _pure.MODE_COUNT_DOMINATING

BACKEND = "pure"


def available_backends() -> list[str]:
    return [BACKEND]


def default_order(pattern: Graph, start: int | None = None) -> list[int]:
    """BFS order from a max-degree vertex (or the given anchor), visiting
    each vertex's neighbours by descending degree, ties by ascending index;
    any leftover isolated components follow in index order."""
    if pattern.n == 0:
        return []
    if start is None:
        start = max(range(pattern.n), key=pattern.degree)
    order = []
    seen = [False] * pattern.n
    queue = deque([start])
    seen[start] = True
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in sorted(iter_mask(pattern.bits[v]), key=lambda x: -pattern.degree(x)):
            if not seen[w]:
                seen[w] = True
                queue.append(w)
        if not queue:
            for w in range(pattern.n):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
                    break
    return order


def base_masks(pattern: Graph, host: Graph) -> list[int]:
    """Per pattern vertex, the bitmask of degree-compatible host images.

    An induced embedding maps every pattern neighbor to a host neighbor,
    so the host degree can only exceed the pattern degree; when the sizes
    match the embedding is an isomorphism and degrees must agree exactly.
    """
    exact = pattern.n == host.n
    degs = [row.bit_count() for row in host.bits]
    masks = []
    for row in pattern.bits:
        d = row.bit_count()
        mask = 0
        for hv in range(host.n):
            if degs[hv] == d if exact else degs[hv] >= d:
                mask |= 1 << hv
        masks.append(mask)
    return masks


class SearchResult:
    __slots__ = ("embeddings", "count", "expansions", "exceeded", "backend")

    def __init__(self, embeddings, count, expansions, exceeded, backend):
        self.embeddings: list[Embedding] = embeddings
        self.count = count
        self.expansions = expansions
        self.exceeded = exceeded
        self.backend = backend

    def __repr__(self):
        return (
            f"SearchResult(count={self.count}, expansions={self.expansions}, "
            f"exceeded={self.exceeded}, backend={self.backend!r})"
        )


def embed_search(
    pattern: Graph,
    host: Graph,
    mode: int = MODE_FIND,
    order: list[int] | None = None,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    backend: str | None = None,
    raise_on_budget: bool = False,
) -> SearchResult:
    """Run the kernel on Graph inputs, preparing masks and search order.

    limit caps the copies MODE_COLLECT gathers; None means no cap.
    backend must be None or a name from available_backends().
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be None or at least 1, got {limit}")
    if backend not in (None, *available_backends()):
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        )
    if order is None:
        order = default_order(pattern)
    emb, count, expansions, exceeded = _pure.search(
        pattern.n, pattern.bits, host.n, host.bits, order,
        base_masks(pattern, host), mode, limit, budget,
    )
    if exceeded and raise_on_budget:
        raise BudgetExceededError(f"search exceeded budget of {budget} expansions")
    return SearchResult(emb, count, expansions, exceeded, BACKEND)
