"""Detection of induced witness copies, dominating sets, and connector
structure in host graphs.

Both witness searches, find_induced_W for one a and
find_dominating_induced_W over a range, run one loop over the a values
within one budget, on the hotpath kernel in hotpath.search_order, which
takes pinned vertices first and then each time the vertex with the most
placed neighbours; detect only chooses the pins.  Path patterns (a = 1)
pin a path endpoint.  W(a) with a >= 2 pins the r-ary tree root f2[0]
(its rarest high-degree vertex), and for gamma = 0 the path vertex f1[1]
second, before the root's children: it is adjacent to each of them, so
each child is bounded by two host rows instead of one.  In W(2) =
K_{2,5} these pins are the two hubs and the five leaves follow, an
interchangeable tail, so the kernel's domination look-ahead applies at
depths 1 to 4 (see hotpath._pure).  In W(3, 0, 4) the root's four
children follow, then f1[0] and the hub f1[2], so each of the sixteen
leaves is bounded by two host rows.  For gamma >= 1, f1[1] reaches the
tree only through connectors, and only the root is pinned.  W(a) and its
order are built once per (a, gamma, r) by witness_pattern and shared by
every search of W(a), logic's included, so a Monte Carlo trial pays only
for its host.  W(a) is built only for an a whose W(a) fits the host:
the loop sizes it from its parameters first, so an a range reaching
past the host costs nothing for the a values that cannot occur.  The
connector check calls the kernel directly, with a candidate mask per
path position (see check_connector_property).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

from . import hotpath, witness
from .graphs import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Embedding,
    Graph,
    check_budget,
    mask_of,
)

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a copy search."""

    outcome: str  # "found" | "none" | "budget_exceeded"
    a: int | None = None
    embedding: Embedding | None = None
    count: int = 0
    expansions: int = 0

    def __bool__(self) -> bool:
        return self.outcome == "found"


def _pattern_order(ws: witness.WitnessGraph) -> list[int]:
    """hotpath.search_order from pins that start at the rarest vertices."""
    g = ws.graph
    if ws.a == 1:
        # The pattern is a bare path: walk it from one endpoint.
        pinned = (next(v for v in range(g.n) if g.degree(v) == 1),)
    elif ws.gamma == 0:
        pinned = (ws.f2[0], ws.f1[1])
    else:
        pinned = (ws.f2[0],)
    return hotpath.search_order(g, pinned)


@functools.lru_cache(maxsize=64)
def witness_pattern(a: int, gamma: int, r: int) -> tuple[witness.WitnessGraph, tuple[int, ...]]:
    """W(a) with the order every search of it takes, built once per
    (a, gamma, r)."""
    ws = witness.build_W(a, gamma, r)
    return ws, tuple(_pattern_order(ws))


def _witness_search(g: Graph, gamma: int, r: int, a_values, kernel_mode: int,
                    budget: int) -> DetectionResult:
    """The loop of both entries: W(a) for each a of a_values in turn,
    skipping, before it is built, each W(a) larger than g, within one
    budget of expansions.  Only the find modes return embeddings, so a
    find stops at the first copy and names its a; a count sums the counts
    of every a."""
    check_budget(budget)
    count = expansions = 0
    for a in a_values:
        witness._check_params(a, gamma, r)
        if witness.w_vertex_count(a, gamma, r) > g.n:
            continue
        ws, order = witness_pattern(a, gamma, r)
        res = hotpath.embed_search(ws.graph, g, mode=kernel_mode, order=order,
                                   budget=budget - expansions)
        count += res.count
        expansions += res.expansions
        if res.exceeded:
            return DetectionResult("budget_exceeded", count=count,
                                   expansions=expansions)
        if res.embeddings:
            return DetectionResult("found", a=a, embedding=res.embeddings[0],
                                   count=res.count, expansions=expansions)
    return DetectionResult("found" if count else "none", count=count,
                           expansions=expansions)


def find_induced_W(
    g: Graph,
    a: int,
    gamma: int,
    r: int,
    mode: str = "find",
    budget: int = DEFAULT_BUDGET,
) -> DetectionResult:
    """Search for induced copies of W(a) in g.

    mode "find" stops at the first copy; "count" counts all labeled
    embeddings.  Both search one embedding per automorphism class where
    that prunes (see hotpath.embed_search), so the embedding "find"
    reports is the first class representative in the search order.  The
    result names a on every outcome.  A negative budget raises
    ValueError, even when W(a) is larger than g.
    """
    if mode not in ("find", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    kernel_mode = hotpath.MODE_FIND if mode == "find" else hotpath.MODE_COUNT
    return replace(_witness_search(g, gamma, r, (a,), kernel_mode, budget), a=a)


def find_dominating_induced_W(
    g: Graph,
    gamma: int,
    r: int,
    a_range: tuple[int, int],
    mode: str = "find",
    budget: int = DEFAULT_BUDGET,
) -> DetectionResult:
    """First dominating induced W(a) copy, trying a from a_range[1] down to
    a_range[0].  Domination is checked once per completed candidate, inside
    the kernel.  In "count" mode, counts dominating labeled embeddings
    summed over the range, as in find_induced_W; expansions is what those
    searches spent.  Only a "find" that finds a copy names its a.  A
    negative budget raises ValueError, even when every W(a) in the range
    is larger than g.
    """
    if mode not in ("find", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    a_lo, a_hi = a_range
    if a_lo < 1 or a_hi < a_lo:
        raise ValueError(f"bad a_range {a_range}")
    kernel_mode = (hotpath.MODE_FIND_DOMINATING if mode == "find"
                   else hotpath.MODE_COUNT_DOMINATING)
    return _witness_search(g, gamma, r, range(a_hi, a_lo - 1, -1), kernel_mode, budget)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class DominatingSetVerdict:
    """Whether some k-subset dominates, decided by exhaustive search.

    checked counts the subsets tried; exhausted is False when the budget
    ran out first, and then exists is False without being definite.
    """

    exists: bool
    checked: int
    witness: tuple[int, ...] | None = None
    exhausted: bool = True

    def __bool__(self) -> bool:
        return self.exists


def exists_dominating_set_of_size(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> DominatingSetVerdict:
    """Decide whether some k-subset dominates g, trying k-subsets in
    lexicographic order until one does or budget of them have been tried.

    A set S dominates iff the union of closed neighborhoods N[s], s in S,
    covers every vertex.
    """
    check_budget(budget)
    if not 0 <= k <= g.n:
        raise ValueError(f"k={k} out of range")
    closed = [g.bits[v] | (1 << v) for v in range(g.n)]
    full = (1 << g.n) - 1
    checked = 0
    for combo in itertools.combinations(range(g.n), k):
        checked += 1
        if checked > budget:
            return DominatingSetVerdict(False, checked - 1, exhausted=False)
        cover = 0
        for v in combo:
            cover |= closed[v]
        if cover == full:
            return DominatingSetVerdict(True, checked, witness=combo)
    return DominatingSetVerdict(False, checked)


def check_connector_property(
    g: Graph,
    vertices,
    gamma: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff for every ordered pair (u, v) of distinct vertices in the
    given set there is an induced path w_1..w_{gamma+1} outside the set with
    w_1 adjacent to u and to no other set vertex, w_{gamma+1} adjacent to v
    and to no other set vertex, and inner vertices adjacent to no set vertex.

    For gamma = 0 such a path would need a single vertex adjacent to u only
    and to v only at once, which is impossible for u != v.

    Each pair is one find-mode kernel search for the induced path
    w_1..w_{gamma+1}, with a candidate mask per position: the outside
    vertices whose one set neighbour is u (w_1) or v (w_{gamma+1}), and
    those with none (inner vertices).  budget bounds the expansions of all
    the searches together; running out raises BudgetExceededError, and a
    negative budget raises ValueError.
    """
    if gamma < 1:
        raise ValueError("connector property needs gamma >= 1")
    check_budget(budget)
    vs = sorted(set(vertices))
    vmask = mask_of(vs, g.n)
    bits = g.bits
    outside = [w for w in range(g.n) if not vmask >> w & 1]
    free = sum(1 << w for w in outside if not bits[w] & vmask)
    only = {u: sum(1 << w for w in outside if bits[w] & vmask == 1 << u) for u in vs}
    path = Graph(gamma + 1, [(i, i + 1) for i in range(gamma)]).bits
    order = tuple(range(gamma + 1))
    spent = 0
    for u, v in itertools.permutations(vs, 2):
        masks = [only[u]] + [free] * (gamma - 1) + [only[v]]
        _, found, expansions, exceeded = hotpath._pure.search(
            path, bits, order, masks, hotpath.MODE_FIND, budget - spent
        )
        spent += expansions
        if exceeded:
            raise BudgetExceededError(f"connector search exceeded budget of {budget}")
        if not found:
            return False
    return True
