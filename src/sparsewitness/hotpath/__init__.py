"""Induced-embedding search on Graph inputs.

``embed_search`` prepares the search order and candidate masks and runs
the bitset backtracking kernel in ``_pure``, the one kernel backend; the
tests check it against ``graphs.induced_embeddings``.  ``BACKEND`` and
``backend=`` name that backend, so callers can record which one ran.
The kernel has three callers: ``embed_search``, which serves detect's
witness searches (logic's ``@isoW`` among them), logic's collection of
witness copies and witness's parity check; the stabilizer chain's
pinned self-searches here; and
``detect.check_connector_property``, whose path searches give every
position a candidate mask of its own.
What a search needs of the pattern alone is built once and cached: the
stabilizer chain per (pattern, order, fixing) here, and the kernel's
search plan per (pattern, order, conditions, dominating) in ``_pure``,
so a call on a new host builds only its base masks and, in the
dominating modes, its closed neighbourhoods.

One rule orders every search, ``search_order``: pinned vertices first,
then each time the vertex with the most placed neighbours.  It is the
default order of ``embed_search`` and ``stabilizer_chain``, the order of
the chain's self-searches (pinned to the base prefix), and the order of
``detect``'s witness searches (pinned to the rarest vertices).  Every
witness search in the package passes its order, cached with its
pattern: ``detect.witness_pattern`` for W(a), and for W*(a) the parity
check's pattern cache, whose order has nothing pinned.

Every mode but labeled collection searches each automorphism class of
embeddings once when that prunes the tree.  ``stabilizer_chain`` derives
conditions img(v) < img(w) that exactly one embedding per class
satisfies (Grochow and Kellis, *Network motif discovery using subgraph
enumeration and symmetry-breaking*, RECOMB 2007).  The count modes
report |Aut| times the constrained count, the labeled count; the find
modes answer yes or no as the labeled search would, since every copy has
a class representative and domination depends on the image set alone.
``MODE_COLLECT`` with ``fixing`` returns one embedding per class of the
automorphisms that fix the given pattern vertices: one per image set
and image of those vertices.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..graphs import BudgetExceededError, DEFAULT_BUDGET, Embedding, Graph, check_budget
from . import _pure

MODE_FIND = _pure.MODE_FIND
MODE_COUNT = _pure.MODE_COUNT
MODE_COLLECT = _pure.MODE_COLLECT
MODE_FIND_DOMINATING = _pure.MODE_FIND_DOMINATING
MODE_COUNT_DOMINATING = _pure.MODE_COUNT_DOMINATING

MODES = (MODE_FIND, MODE_COUNT, MODE_COLLECT, MODE_FIND_DOMINATING, MODE_COUNT_DOMINATING)

BACKEND = "pure"


def available_backends() -> list[str]:
    return [BACKEND]


def search_order(pattern: Graph, pinned: Sequence[int] = ()) -> list[int]:
    """The search order: the pinned vertices as given, then each time the
    unplaced vertex with the most placed neighbours, ties to the higher
    degree, then to the lower index (the rule of RI: Bonnici et al., *BMC
    Bioinformatics* 2013).  With nothing pinned it starts at the
    lowest-index vertex of maximum degree.  On a connected pattern every
    vertex after the first has a placed neighbour, so each depth is bounded
    by a host row; the most bounded vertex comes first."""
    bits = pattern.bits
    order = list(pinned)
    placed = sum(1 << v for v in order)
    rest = [v for v in range(pattern.n) if not placed >> v & 1]
    while rest:
        v = max(rest, key=lambda u: ((bits[u] & placed).bit_count(), bits[u].bit_count()))
        rest.remove(v)
        order.append(v)
        placed |= 1 << v
    return order


def base_masks(pattern: Graph, host: Graph) -> list[int]:
    """Per pattern vertex, the bitmask of degree-compatible host images.

    An induced embedding maps every pattern neighbor to a host neighbor,
    so the host degree can only exceed the pattern degree; when the sizes
    match the embedding is an isomorphism and degrees must agree exactly.
    """
    exact = pattern.n == host.n
    degs = [row.bit_count() for row in host.bits]
    by_degree = {}  # one host scan per distinct pattern degree
    masks = []
    for row in pattern.bits:
        d = row.bit_count()
        mask = by_degree.get(d)
        if mask is None:
            mask = 0
            for hv, hd in enumerate(degs):
                if hd == d if exact else hd >= d:
                    mask |= 1 << hv
            by_degree[d] = mask
        masks.append(mask)
    return masks


def stabilizer_chain(pattern: Graph, order: list[int] | None = None,
                     budget: int = DEFAULT_BUDGET, fixing: tuple[int, ...] = ()):
    """Symmetry-breaking conditions for searching pattern in this order
    (None: search_order(pattern)).

    Returns (smaller, automorphisms, expansions): smaller[d] is the tuple
    of earlier search depths whose image must be smaller than the image at
    depth d, automorphisms is the order of the group of automorphisms that
    fix every vertex of fixing (|Aut(pattern)| when fixing is empty), and
    expansions is what the derivation's self-searches spent.  Of the
    embeddings f o sigma of one copy, sigma in that group, exactly one
    meets every condition.  A condition that follows from two others is
    left out.

    The conditions come from a stabilizer chain, so the group is never
    listed.  The base is the fixed vertices, then the rest of the order.
    Each vertex v becomes a base point in turn.  The fixed vertices are
    only pinned to themselves.  For every later v, while the earlier base
    points are pinned, v's orbit is found by one find-mode self-search of
    the pattern per later vertex w of v's degree, with v pinned to w, in
    search_order pinned to the base up to v.
    Each w in the orbit gets the condition img(v) < img(w); w is after v
    in the search order too, so every condition bounds a later depth from
    below.  The group order is the product of the orbit sizes
    (orbit-stabilizer).  Results are cached per (pattern, order, fixing).

    Raises BudgetExceededError when the self-searches together need more
    than budget expansions.
    """
    check_budget(budget)
    if order is None:
        order = search_order(pattern)
    chain = _chain(pattern, tuple(order), budget, _fixed(pattern, fixing))
    if chain is None:
        raise BudgetExceededError(
            f"automorphism search exceeded budget of {budget} expansions"
        )
    return chain


def _fixed(pattern: Graph, fixing) -> tuple[int, ...]:
    fixing = tuple(fixing)
    if len(set(fixing)) != len(fixing) or not all(0 <= v < pattern.n for v in fixing):
        raise ValueError(
            f"fixing must list distinct vertices of range({pattern.n}), got {fixing}"
        )
    return fixing


# (pattern rows, order, fixing) -> (smaller, automorphisms, expansions) of
# a finished derivation, or (None, None, cap) for one that needed more
# than cap expansions.
_CHAINS: dict = {}


def _chain(pattern: Graph, order: tuple[int, ...], budget: int, fixing: tuple[int, ...]):
    """The stabilizer chain, or None when deriving it needs more than
    budget expansions.  Which one is returned depends only on the
    derivation's cost, not on what is cached."""
    key = (tuple(pattern.bits), order, fixing)
    hit = _CHAINS.get(key)
    if hit is None or (hit[0] is None and hit[2] < budget):
        if len(_CHAINS) >= 256:
            _CHAINS.clear()
        hit = _CHAINS[key] = _derive_chain(pattern, order, budget, fixing)
    smaller, _, expansions = hit
    return hit if smaller is not None and expansions <= budget else None


def _derive_chain(pattern: Graph, order: tuple[int, ...], budget: int,
                  fixing: tuple[int, ...]):
    n = pattern.n
    bits = pattern.bits
    base = fixing + tuple(v for v in order if v not in fixing)
    degree = [row.bit_count() for row in bits]
    pins = base_masks(pattern, pattern)
    for v in fixing:
        pins[v] = 1 << v
    smaller = [[] for _ in range(n)]  # per base position
    automorphisms = 1
    spent = 0
    for d in range(len(fixing), n):
        v = base[d]
        # Pinned to the base prefix, a pin that no automorphism extends
        # fails near the top of the self-search tree.
        self_order = search_order(pattern, base[:d + 1])
        orbit = 1
        for e in range(d + 1, n):
            w = base[e]
            if degree[w] != degree[v]:
                continue
            masks = list(pins)
            masks[v] = 1 << w
            found, _, expansions, exceeded = _pure.search(
                bits, bits, self_order, masks, MODE_FIND, budget - spent
            )
            spent += expansions
            if exceeded:
                return None, None, budget
            if found:
                smaller[e].append(d)
                orbit += 1
        automorphisms *= orbit
        pins[v] = 1 << v
    # A condition that follows from two others (img(u) < img(v) < img(w))
    # prunes nothing more; leaving it out saves mask ANDs.
    reduced = tuple(
        tuple(j for j in js if not any(j in smaller[k] for k in js)) for js in smaller
    )
    # Base positions to search depths.  Conditions join non-fixed vertices
    # only, which the base keeps in search order.
    depth = {v: d for d, v in enumerate(order)}
    by_depth = [()] * n
    for e, js in enumerate(reduced):
        by_depth[depth[base[e]]] = tuple(depth[base[j]] for j in js)
    return tuple(by_depth), automorphisms, spent


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
    order: Sequence[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    backend: str | None = None,
    fixing: tuple[int, ...] | None = None,
) -> SearchResult:
    """Run the kernel on Graph inputs, preparing masks and search order.

    order must be a permutation of range(pattern.n); None picks
    search_order(pattern).  backend must be None or a name from
    available_backends().

    Every mode but MODE_COLLECT without fixing first derives the
    stabilizer_chain of the pattern in this order.  When a condition
    bounds a depth before the last one, the count and find modes search
    one embedding per automorphism class; otherwise they search every
    embedding.  The count modes report count as |Aut| times the
    constrained count, still the labeled count.  The find modes answer as
    the labeled search does, but the embedding they return may differ.

    fixing applies to MODE_COLLECT only.  None collects every labeled
    embedding.  A tuple of distinct pattern vertices collects one
    embedding per class of the automorphisms that fix each of them, so
    exactly one per (image set, images of fixing); () gives one per image
    set.

    expansions is the derivation's plus the search's, and the derivation
    is charged on every call although it runs once per (pattern, order,
    fixing), so budget bounds both and the result never depends on the
    cache.  Every mode stops at its first expansion past the budget: a
    search that runs out reports expansions == budget + 1, and count is
    the partial count of the leaves it paid for (a multiple of |Aut| in
    a constrained count), 0 if the budget ran out during the derivation.
    A negative budget raises ValueError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    check_budget(budget)
    if backend not in (None, *available_backends()):
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        )
    if fixing is not None:
        if mode != MODE_COLLECT:
            raise ValueError("fixing applies to MODE_COLLECT only")
        fixing = _fixed(pattern, fixing)
    if order is None:
        order = search_order(pattern)
    elif sorted(order) != list(range(pattern.n)):
        raise ValueError(f"order must be a permutation of range({pattern.n}), got {order}")
    smaller, automorphisms, derived = None, 1, 0
    if mode != MODE_COLLECT or fixing is not None:
        # None: the derivation alone needs more than the budget.
        chain = _chain(pattern, tuple(order), budget, fixing or ())
        conditions, group, derived = chain or ((), 1, budget + 1)
        # Collection keeps one embedding per class wherever the conditions
        # fall; the other modes use them only where they prune.
        if fixing is not None or any(conditions[:-1]):
            smaller = conditions
            if mode in (MODE_COUNT, MODE_COUNT_DOMINATING):
                automorphisms = group
    if derived > budget:
        emb, count, expansions, exceeded = [], 0, derived, True
    else:
        emb, count, expansions, exceeded = _pure.search(
            pattern.bits, host.bits, order, base_masks(pattern, host), mode,
            budget - derived, smaller,
        )
        count *= automorphisms
        expansions += derived
    return SearchResult(emb, count, expansions, exceeded, BACKEND)
