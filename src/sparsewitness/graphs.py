"""Small undirected graphs with brute-force embedding oracles.

Vertices are integers 0..n-1.  A graph is immutable after construction and
stores only its adjacency rows: row u is a Python int whose bit v is set
iff u and v are adjacent.  Degrees, neighbour sets and edge lists are read
off the rows; the rows themselves feed domination checks and the search
kernels.

The embedding search in this module is the reference oracle: a plain
backtracking search over dicts, independent of the optimized kernels in
``sparsewitness.hotpath``.  Tests use it to cross-check the fast paths.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

DEFAULT_BUDGET = 10**8

#: An embedding is a tuple whose index is the pattern vertex and whose
#: value is the host vertex it maps to.
Embedding = tuple[int, ...]


class GraphError(ValueError):
    """Malformed graph input (bad vertex id, self-loop, bad edge list text)."""


class BudgetExceededError(RuntimeError):
    """A search ran out of its node-expansion budget before finishing."""


def check_budget(budget: int) -> None:
    """Raise ValueError for a negative search budget.  Every search entry
    checks before it compares any pattern with the host, so a negative
    budget is bad input even where no search would run."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


class Graph:
    """Immutable simple undirected graph stored as adjacency bitmask rows."""

    __slots__ = ("n", "m", "_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.m = sum(row.bit_count() for row in rows) // 2
        self._bits = rows

    @classmethod
    def _from_rows(cls, rows: list[int], m: int) -> "Graph":
        """Trusted constructor: rows must be symmetric, loop-free Python
        ints holding m edges.  The list is kept, not copied."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.m = m
        g._bits = rows
        return g

    @classmethod
    def from_arrays(cls, n: int, us, vs) -> "Graph":
        """Trusted fast path used by the sampler: numpy arrays of distinct
        in-range pairs, no validation, no dedup."""
        rows = [0] * n
        # tolist() yields Python ints; numpy scalars would overflow in the
        # shifts past bit 63.
        for u, v in zip(us.tolist(), vs.tolist()):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_rows(rows, len(us))

    @property
    def bits(self) -> list[int]:
        """Adjacency rows as integer bitmasks."""
        return self._bits

    def neighbors(self, v: int) -> set[int]:
        return set(iter_mask(self._bits[v]))

    def degree(self, v: int) -> int:
        return self._bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._bits[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self._bits):
            for v in iter_mask(row >> (u + 1)):
                yield (u, u + 1 + v)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in the given vertex order."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertices in induced-subgraph selection")
        chosen = mask_of(vertices, self.n)
        rows = []
        for v in vertices:
            row = 0
            for w in iter_mask(self._bits[v] & chosen):
                row |= 1 << index[w]
            rows.append(row)
        return Graph._from_rows(rows, sum(row.bit_count() for row in rows) // 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._bits == other._bits

    def __hash__(self):
        return hash((self.n, tuple(self._bits)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def mask_of(vertices: Iterable[int], n: int | None = None) -> int:
    """Pack a vertex collection into a bitmask (validating range if n given)."""
    mask = 0
    for v in vertices:
        if n is not None and not (0 <= v < n):
            raise GraphError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dominates(g: Graph, mask: int) -> bool:
    """True iff every vertex outside the mask has a neighbor inside it."""
    bits = g.bits
    cover = mask
    for v in iter_mask(mask):
        cover |= bits[v]
    return cover == (1 << g.n) - 1


def is_dominating(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every vertex outside the set has a neighbor inside it."""
    return dominates(g, mask_of(vertices, g.n))


def _oracle_order(pattern: Graph) -> list[int]:
    """Most-constrained-first: start at a max-degree vertex, then always
    extend by the unplaced vertex with the most placed neighbors."""
    if pattern.n == 0:
        return []
    bits = pattern.bits
    order = [max(range(pattern.n), key=pattern.degree)]
    placed = 1 << order[0]
    while len(order) < pattern.n:
        best = max(
            (v for v in range(pattern.n) if not placed >> v & 1),
            key=lambda v: ((bits[v] & placed).bit_count(), pattern.degree(v)),
        )
        order.append(best)
        placed |= 1 << best
    return order


def induced_embeddings(
    pattern: Graph,
    host: Graph,
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[Embedding]:
    """All injective maps pattern -> host preserving both adjacency and
    non-adjacency (induced copies), as labeled embeddings.

    Raises BudgetExceededError once more than `budget` candidate vertices
    have been tried, and ValueError for a negative budget.
    """
    check_budget(budget)
    np_, nh = pattern.n, host.n
    if np_ > nh:
        return []
    order = _oracle_order(pattern)
    # Candidate prefilter by degree; when sizes match an embedding is an
    # isomorphism, so degrees must agree exactly.
    exact = np_ == nh
    host_by_deg = sorted(range(nh), key=host.degree)
    candidates = []
    for pv in order:
        d = pattern.degree(pv)
        if exact:
            candidates.append([hv for hv in host_by_deg if host.degree(hv) == d])
        else:
            candidates.append([hv for hv in host_by_deg if host.degree(hv) >= d])

    pbits, hbits = pattern.bits, host.bits
    results: list[Embedding] = []
    assign: dict[int, int] = {}
    used: set[int] = set()
    expansions = 0

    def extend(k: int) -> bool:
        nonlocal expansions
        if k == np_:
            emb = [0] * np_
            for pv, hv in assign.items():
                emb[pv] = hv
            results.append(tuple(emb))
            return limit is not None and len(results) >= limit
        pv = order[k]
        nbrs = pbits[pv]
        for hv in candidates[k]:
            if hv in used:
                continue
            expansions += 1
            if expansions > budget:
                raise BudgetExceededError(
                    f"induced_embeddings exceeded budget of {budget} expansions"
                )
            row = hbits[hv]
            ok = True
            for qv, qh in assign.items():
                if (nbrs >> qv & 1) != (row >> qh & 1):
                    ok = False
                    break
            if not ok:
                continue
            assign[pv] = hv
            used.add(hv)
            if extend(k + 1):
                return True
            del assign[pv]
            used.discard(hv)
        return False

    extend(0)
    return results


def automorphism_count(g: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Number of adjacency-preserving vertex permutations: the induced
    self-embeddings found by the reference oracle."""
    return len(induced_embeddings(g, g, budget=budget))


def write_edge_list(g: Graph) -> str:
    """Canonical text form: header ``n m`` then one ``u v`` line per edge
    with u < v, edges sorted lexicographically."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format, validating the header counts."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"bad header line: {lines[0]!r}") from None
    edges = {}  # (lower end, upper end) -> the line that gave it
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise GraphError(f"bad edge line: {ln!r}") from None
        key = (min(u, v), max(u, v))
        if key in edges:
            raise GraphError(f"duplicate edge: {ln!r} repeats {edges[key]!r}")
        edges[key] = ln
    g = Graph(n, edges)
    if g.m != m:
        raise GraphError(f"header claims {m} edges, found {g.m}")
    return g
